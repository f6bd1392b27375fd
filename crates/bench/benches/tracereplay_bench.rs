//! Trace-replay sweep engine against per-cell re-execution: the whole
//! paper sweep (`Experiment::Tables1To8`, every workload × cache size ×
//! memory model) run through both `ccrp_bench::runner` engines on one
//! worker, checking the results fold identically and reporting the
//! wall-clock ratio.
//!
//! The suite is built by the warmup pass, so neither side pays for it.
//! The trace side replays the traces the suite captured: it captures
//! nothing. The re-exec side runs each workload under the emulator once
//! per sweep and steps every cell over that live per-fetch trace.
//!
//! Like `micro.rs`, this is a std-only harness (no crates.io access for
//! an external framework): best-of-3 timed passes per engine after a
//! warmup pass. Results are written as `BENCH_tracereplay.json` via the
//! suite's deterministic JSON writer (the *numbers* are host-dependent;
//! the schema is not), which `ci/bench_gate.sh` reads to enforce the
//! ≥2× trace-engine speedup.
//!
//! Usage: `cargo bench -p ccrp-bench --bench tracereplay_bench --
//! [--out PATH]` (default `BENCH_tracereplay.json` in the current
//! directory).

use std::time::Instant;

use ccrp_bench::json::Json;
use ccrp_bench::{runner, Engine, Experiment, SweepOptions, SweepReport};

const EXPERIMENT: Experiment = Experiment::Tables1To8;
const PASSES: usize = 3;

/// Best-of-`PASSES` sweep seconds for `engine` on one worker (after a
/// warmup pass), plus the last report for the equality check.
fn measure(engine: Engine) -> (f64, SweepReport) {
    let options = SweepOptions {
        jobs: 1,
        engine,
        ..Default::default()
    };
    let mut report = runner::run(EXPERIMENT, &options);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let start = Instant::now();
        report = runner::run(EXPERIMENT, &options);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, report)
}

fn side_json(seconds: f64, cells: usize) -> Json {
    Json::obj([
        ("wall_us", Json::F64(seconds * 1e6)),
        ("us_per_cell", Json::F64(seconds * 1e6 / cells as f64)),
    ])
}

fn main() {
    let mut out_path = String::from("BENCH_tracereplay.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            // `cargo bench` passes --bench through to the target.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    let (reexec_s, reexec_report) = measure(Engine::Reexec);
    let (trace_s, trace_report) = measure(Engine::Trace);
    assert_eq!(
        reexec_report.results, trace_report.results,
        "engines must fold to identical results"
    );
    let cells = trace_report.cells.len();
    let speedup = reexec_s / trace_s;

    let report = Json::obj([
        ("schema", Json::str("ccrp-bench-tracereplay/1")),
        ("experiment", Json::str(EXPERIMENT.name())),
        ("cells", Json::U64(cells as u64)),
        ("jobs", Json::U64(1)),
        ("passes", Json::U64(PASSES as u64)),
        ("reexec", side_json(reexec_s, cells)),
        ("trace", side_json(trace_s, cells)),
        ("speedup", Json::F64(speedup)),
    ]);
    std::fs::write(&out_path, report.to_pretty()).expect("write results file");

    println!(
        "tracereplay_bench: {cells} cells  reexec {:>8.1} ms  trace {:>8.1} ms  speedup {speedup:.2}x",
        reexec_s * 1e3,
        trace_s * 1e3,
    );
    println!("-> {out_path}");
}
