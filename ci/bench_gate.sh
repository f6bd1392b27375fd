#!/usr/bin/env bash
# Benchmark reproduction gate.
#
# Three checks:
#
#   1. Reproduction at two worker counts: re-run every paper sweep
#      (`--experiment all`: fig5, tables1_8, tables9_10, fig9,
#      tables11_13, the union plan that replays each workload once for
#      all four simulated grids), the codec × memory-model ablation
#      matrix (`--codecs`, the per-line LZW coder and the only DRAM
#      refills issued inside a precharge) and the cross-ISA comparison
#      (`--isa-compare`) at --jobs 1 and at --jobs 4, and require the
#      deterministic sections of each fresh BENCH_<experiment>.json /
#      BENCH_codecs.json / BENCH_isa_compare.json to be byte-identical
#      to the file committed at the repo root (`ci/bench_reproduces.py`).
#      Only the `jobs` and `timing` keys are host-dependent; everything
#      else (schema, experiment, cells, results — including every
#      simulated cycle count) must reproduce exactly, on any machine, at
#      any job count, so the shared plan must not leak scheduling into
#      results.  Tables 9–10 (CLB sizes) and 11–13 (data-cache models)
#      are the sweeps whose configs the sweep kernel shares refill
#      timings between.
#
#   2. Decoder speedup: run the decoder_bench target and require the
#      whole-line table decode to beat the canonical bit-walk reference
#      by at least MIN_SPEEDUP (default 2.0).  The committed
#      BENCH_decoder.json records one blessed run; the gate re-measures
#      on the CI host rather than trusting the committed numbers.
#
#   3. Trace-replay speedup: run the tracereplay_bench target and
#      require the trace engine (replay of the suite's captured traces)
#      to beat re-execution (a fresh emulator run per workload, stepped
#      per cell) by at least MIN_SPEEDUP (default 2.0), as recorded in
#      the committed BENCH_tracereplay.json.
#
# Check 1 mirrors tests/observability.rs, whose probe_off_sweep_,
# codec_matrix_ and isa_matrix_reproduces_committed_bench_file(s) tests
# pin the same seven files, so the property holds both under `cargo
# test` and as a standalone CI step against release binaries.

set -euo pipefail
cd "$(dirname "$0")/.."

MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for jobs in 1 4; do
    echo "bench_gate: re-running sweeps at --jobs $jobs into $tmp/j$jobs"
    mkdir -p "$tmp/j$jobs"
    for sweep in "--experiment all" --codecs --isa-compare; do
        # $sweep is unquoted on purpose: "--experiment all" is two words.
        cargo run --release --locked --offline -p ccrp-cli --bin ccrp-tools -- \
            sweep $sweep --jobs "$jobs" --out "$tmp/j$jobs"
    done
    for name in fig5 tables1_8 tables9_10 fig9 tables11_13 codecs isa_compare; do
        python3 ci/bench_reproduces.py "BENCH_${name}.json" "$tmp/j$jobs/BENCH_${name}.json"
    done
done
echo "bench_gate: the committed files reproduce at --jobs 1 and --jobs 4"

echo "bench_gate: measuring decoder speedup (gate: >= ${MIN_SPEEDUP}x)"
cargo bench --locked --offline -p ccrp-bench --bench decoder_bench -- --out "$tmp/BENCH_decoder.json"

python3 - "$tmp/BENCH_decoder.json" "$MIN_SPEEDUP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
minimum = float(sys.argv[2])
speedup = report["speedup"]
if report["schema"] != "ccrp-bench-decoder/1":
    print(f"bench_gate: FAIL unexpected schema {report['schema']!r}", file=sys.stderr)
    sys.exit(1)
if speedup < minimum:
    print(
        f"bench_gate: FAIL decoder speedup {speedup:.2f}x < {minimum}x "
        f"(bit-walk {report['bitwalk']['lines_per_sec']:.0f} lines/s, "
        f"table {report['table']['lines_per_sec']:.0f} lines/s)",
        file=sys.stderr,
    )
    sys.exit(1)
print(f"bench_gate: decoder speedup {speedup:.2f}x >= {minimum}x")
PY

echo "bench_gate: measuring trace-replay speedup (gate: >= ${MIN_SPEEDUP}x)"
cargo bench --locked --offline -p ccrp-bench --bench tracereplay_bench -- --out "$tmp/BENCH_tracereplay.json"

python3 - "$tmp/BENCH_tracereplay.json" "$MIN_SPEEDUP" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
minimum = float(sys.argv[2])
speedup = report["speedup"]
if report["schema"] != "ccrp-bench-tracereplay/1":
    print(f"bench_gate: FAIL unexpected schema {report['schema']!r}", file=sys.stderr)
    sys.exit(1)
if speedup < minimum:
    print(
        f"bench_gate: FAIL trace-replay speedup {speedup:.2f}x < {minimum}x "
        f"(reexec {report['reexec']['wall_us']:.0f} us, "
        f"trace {report['trace']['wall_us']:.0f} us)",
        file=sys.stderr,
    )
    sys.exit(1)
print(f"bench_gate: trace-replay speedup {speedup:.2f}x >= {minimum}x")
PY

echo "bench_gate: all checks passed"
