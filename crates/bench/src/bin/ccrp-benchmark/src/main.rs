//! `ccrp-benchmark`: the end-to-end benchmark of the CCRP toolchain.
//!
//! ```text
//! ccrp-benchmark --workload reproduce|difftest --seed N
//!                [--seconds N] [--trace 0|1] [--out FILE]
//! ccrp-benchmark compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! An untraced run (`--trace 0`) runs the workload's closed loop for
//! `--seconds`, checks every output, and prints each end-to-end metric
//! with its unit. A traced run (`--trace 1`) repeats the work with a span
//! around each call into the toolchain's crates and prints the per-layer
//! metrics; its spans are written as Chrome trace-event JSON. The last
//! line of standard output is the result object. See `README.md`.

mod compare;
mod difftest;
mod host;
mod metrics;
mod oracle;
mod reference;
mod reproduce;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ccrp_bench::json::Json;

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::spans::Recorder;

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 45.0;

const USAGE: &str = "usage: ccrp-benchmark --workload reproduce|difftest --seed N \
[--seconds N] [--trace 0|1] [--out FILE]\n       ccrp-benchmark compare PARENT.json... -- CHANGE.json...";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Reproduce,
    Difftest,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::Reproduce, Workload::Difftest];

    fn name(self) -> &'static str {
        match self {
            Workload::Reproduce => "reproduce",
            Workload::Difftest => "difftest",
        }
    }
}

#[derive(Debug)]
struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut out = None;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    };
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
            seconds,
            trace,
            out,
        })
    }
}

/// Runs one workload; `Ok(false)` when an output was wrong.
fn run(options: &Options) -> Result<bool, String> {
    let (Options { seed, seconds, .. }, workload) = (options, options.workload);
    let started = Instant::now();
    let steal_before = host::steal_seconds();
    let (mut outcome, recorder): (Outcome, Option<Recorder>) = if options.trace {
        let (outcome, recorder) = match workload {
            Workload::Reproduce => reproduce::trace(*seconds)?,
            Workload::Difftest => difftest::trace(*seed, *seconds)?,
        };
        (outcome, Some(recorder))
    } else {
        let outcome = match workload {
            Workload::Reproduce => reproduce::measure(*seconds)?,
            Workload::Difftest => difftest::measure(*seed, *seconds)?,
        };
        (outcome, None)
    };
    // On a shared virtual machine the hypervisor's steal time is the
    // largest source of run-to-run spread; record it beside the timings.
    if let (Some(before), Some(after)) = (steal_before, host::steal_seconds()) {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_seconds = started.elapsed().as_secs_f64() * cpus as f64;
        outcome.detail("host_steal_frac", (after - before) / cpu_seconds, "ratio");
    }
    let registry = if options.trace { PER_LAYER } else { END_TO_END };

    if let Some(recorder) = recorder {
        let path = host::output_dir()?.join(format!("spans-{}-{seed}.json", workload.name()));
        std::fs::write(&path, recorder.chrome_trace().to_compact())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "spans: {} ({} spans)",
            path.display(),
            recorder.spans().len()
        );
    }
    println!(
        "workload {} seed {seed}: {} ops, {} failed",
        workload.name(),
        outcome.attempted,
        outcome.failed
    );
    for &(name, unit) in registry {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &outcome.details {
        println!("  detail {name:<37} {value:>16.6} {unit}");
    }

    let result = outcome.result_json(registry);
    if let Some(path) = &options.out {
        let details = outcome
            .details
            .iter()
            .map(|(name, value, _)| (name.clone(), Json::F64(*value)))
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::U64(*seed)),
            ("seconds", Json::F64(*seconds)),
            ("trace", Json::Bool(options.trace)),
            ("result", result.clone()),
            ("details", Json::Obj(details)),
        ]);
        std::fs::write(path, doc.to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", result.to_compact());
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]).map(|()| true),
        _ => Options::parse(&args).and_then(|options| run(&options)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ccrp-benchmark: some outputs were wrong");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ccrp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
