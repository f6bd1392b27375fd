#!/usr/bin/env bash
# Forbid panicking constructs in the decode-path library code.
#
# The fault-injection campaign proves the loader and decoder never panic
# on corrupt input; this guard keeps new `.unwrap()` / `.expect(` /
# `panic!(` / `unreachable!(` calls from creeping back into the crates
# that sit on that path (ccrp-core, ccrp-compress, and ccrp-bitstream,
# whose BitReader carries the exact bit walk every line decode falls
# back to for a symbol the lookup table cannot resolve).  Decode-table
# construction must likewise report CompressError on bad inputs, never
# panic.
#
# The differential co-simulation harness (ccrp-difftest) and the shared
# test utilities (ccrp-testutil) are scanned too: campaign trials run
# under catch_unwind and count any panic as a harness bug, so their
# library code must degrade through Result — except where a `panic-ok:`
# marker documents that panicking IS the contract (golden-test helpers
# fail tests by panicking, exactly like `assert_eq!`).
#
# The emulator (ccrp-emu) joined the scan with the checkpoint layer:
# Checkpoint::from_bytes consumes untrusted files, and the corruption
# battery requires a typed CheckpointError on every stomped input —
# never a panic.
#
# The service (ccrp-served) joined with the daemon: every byte it reads
# off a socket is attacker-controlled, request handlers run under
# catch_unwind where a panic counts against the servesim campaign, and
# failures must surface as typed protocol errors.  (The deliberate
# chaos-endpoint panic that tests that isolation carries a `panic-ok:`
# marker.)
#
# The simulator's trace layer joined with the trace-replay sweep engine:
# AccessTrace::from_bytes consumes untrusted `.trace` files and must
# reject every corruption with a typed TraceError, and the Simulation
# builder sits under it. The whole of crates/sim/src is scanned, since
# the per-fetch and per-miss loops the builder delegates to (stepper.rs)
# and the cache, memory and data-cache models under them run on the
# same untrusted traces.
#
# With the pluggable LineCodec backends (codec.rs, positional.rs,
# lzw.rs — all under the already-scanned crates/compress/src) the
# pattern also catches `assert!` / `assert_eq!` / `assert_ne!` and
# their `debug_assert` variants: codec_from_container feeds
# attacker-controlled codec-params bytes into every backend, so even
# an assertion on that path is a loader panic.  Assertions that state
# a documented API contract carry `panic-ok:` markers.
#
# The RV32 backend (ccrp-rv32) joined with the cross-ISA difftest: its
# decoder, RVC expander, and machine run inside the same catch_unwind
# campaign trials as the MIPS side, and its compressed-text refill path
# consumes ROMs built from fuzzed programs, so every fault must surface
# as a typed Rv32Error/Rv32Fault — never a panic.
#
# The assembler (ccrp-asm) joined once the daemon's Run and SweepCell
# requests fed it client-supplied source: every source must assemble
# or fail with a typed AsmError, so its library code returns errors
# where it once asserted, expected or called unreachable!.
#
# The MIPS ISA crate (ccrp-isa) joined after it: its decode runs on
# every ROM word the emulator loads and every program the daemon
# assembles.  Its only asserts are Instruction::encode's field-range
# checks, a contract its `# Panics` doc states and the assembler
# checks before encoding, so they carry `panic-ok:` markers.
#
# The probe crate (ccrp-probe) joined next: every probed simulator run
# (`ccrp-tools trace`, `sweep --metrics`) emits into its EventLog and
# MetricsCollector.  Its only asserts are Histogram's ascending-bounds
# and same-bounds checks, contracts their `# Panics` docs state, so
# they carry `panic-ok:` markers.
#
# Scope and escape hatches:
#   * only library source under
#     crates/{core,compress,bitstream,testutil,difftest,emu,served,rv32,sim,asm,isa,probe}/src
#     is scanned;
#   * everything from the first `#[cfg(test)]` line to end-of-file is
#     ignored (test modules may panic freely);
#   * `//` comment and doc-comment lines are ignored;
#   * a line carrying a `panic-ok:` marker comment is exempt, as is the
#     single line following a comment that carries one — the marker
#     documents why the panic is part of a stated contract.

set -euo pipefail
cd "$(dirname "$0")/.."

hits=$(find crates/core/src crates/compress/src crates/bitstream/src \
            crates/testutil/src crates/difftest/src crates/emu/src \
            crates/served/src crates/rv32/src crates/sim/src crates/asm/src \
            crates/isa/src crates/probe/src -name '*.rs' | sort | while IFS= read -r file; do
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { if (/panic-ok:/) skip = 1; next }
        /panic-ok:/ { next }
        skip { skip = 0; next }
        /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|assert!\(|assert_eq!\(|assert_ne!\(/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    ' "$file"
done)

if [ -n "$hits" ]; then
    echo "$hits" >&2
    echo >&2
    echo "error: panicking constructs found in decode-path library code." >&2
    echo "       Return a structured CcrpError/CompressError instead, or" >&2
    echo "       mark a documented contract with a 'panic-ok:' comment." >&2
    exit 1
fi
echo "forbid_panics: crates/{core,compress,bitstream,testutil,difftest,emu,served,rv32,sim,asm,isa,probe} library code is panic-free."
