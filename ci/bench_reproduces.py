#!/usr/bin/env python3
"""Checks that a freshly generated BENCH file reproduces a reference one.

Usage: ci/bench_reproduces.py COMMITTED FRESH

COMMITTED is the file at the repo root, or the same run at another
--jobs count when a CI leg checks worker-count independence.

Drops the host-dependent `jobs` and `timing` keys from both documents
and requires the rest to serialize identically with sorted keys, so a
value whose JSON spelling changes (1 against 1.0, 0.0 against -0.0)
fails as well.  On a mismatch it names each top-level section that
differs and exits 1.
"""

import json
import sys

committed_path, fresh_path = sys.argv[1:3]
with open(committed_path) as f:
    committed = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)

for doc in (committed, fresh):
    for key in ("jobs", "timing"):
        doc.pop(key, None)

if json.dumps(committed, sort_keys=True) != json.dumps(fresh, sort_keys=True):
    print(f"FAIL {committed_path} no longer reproduces", file=sys.stderr)
    for key in sorted(set(committed) | set(fresh)):
        ca = json.dumps(committed.get(key), sort_keys=True)
        cb = json.dumps(fresh.get(key), sort_keys=True)
        if ca != cb:
            print(f"  section {key!r} differs", file=sys.stderr)
    sys.exit(1)
print(f"{committed_path} reproduces outside jobs/timing")
