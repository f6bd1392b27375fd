//! `ccrp-tools sweep [--experiment NAME|all] [--jobs N] [--out DIR]
//! [--tables] [--metrics] [--codecs] [--isa-compare]`
//!
//! Drives the parallel experiment runner: every paper experiment is
//! decomposed into independent (workload, configuration) cells, swept
//! across `--jobs` worker threads, and written as a machine-readable
//! `BENCH_<experiment>.json` results file under `--out`; `--tables`
//! also prints the paper-style tables. Each workload executes once, its
//! compacted fetch trace is captured, and one replay per workload covers
//! every configuration of every experiment asked for
//! ([`runner::run_all`]). Any worker count produces bit-identical
//! results; only the `timing` section of the JSON varies.
//!
//! `--codecs` runs the codec × memory-model ablation matrix instead:
//! every workload compressed with each [`ccrp_compress::LineCodec`]
//! backend, replayed under every memory model, written as
//! `BENCH_codecs.json`.
//!
//! `--isa-compare` runs the cross-ISA comparison instead: MIPS+CCRP,
//! RV32I+CCRP, RVC alone, and CCRP-over-RVC per workload and memory
//! model, written as `BENCH_isa_compare.json`.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use ccrp_bench::json::Json;
use ccrp_bench::{codecs, isa_compare, render, runner, Experiment, SweepOptions, ToJson};

use crate::args::{parse_jobs, Args};
use crate::error::{write_file, CliError};

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &["experiment", "jobs", "out"];
/// Switch names.
pub const SWITCHES: &[&str] = &["tables", "metrics", "codecs", "isa-compare"];

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown experiment name or a bad
/// `--jobs` value; [`CliError::Io`] when a results file cannot be
/// written.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let experiments: Vec<Experiment> = match args.option("experiment") {
        None | Some("all") => Experiment::ALL.to_vec(),
        Some(name) => vec![Experiment::from_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown experiment `{name}`; expected one of {}, or all",
                Experiment::ALL.map(Experiment::name).join(", ")
            ))
        })?],
    };
    let jobs = parse_jobs(args)?;

    // `--codecs` and `--isa-compare` run their ablation matrices
    // instead of the paper-experiment sweep.
    let mut summaries = Vec::new();
    if args.switch("codecs") || args.switch("isa-compare") {
        let (name, cells, wall, json) = if args.switch("codecs") {
            let report = codecs::run(codecs::CodecsOptions { jobs });
            (
                "codecs",
                report.cells.len(),
                report.total_wall,
                report.to_json(),
            )
        } else {
            let report = isa_compare::run(isa_compare::IsaCompareOptions { jobs });
            (
                "isa-compare",
                report.cells.len(),
                report.total_wall,
                report.to_json(),
            )
        };
        summaries.push(write_report(args, out, name, cells, jobs, wall, &json)?);
    } else {
        let options = SweepOptions {
            jobs,
            metrics: args.switch("metrics"),
            ..Default::default()
        };
        for report in runner::run_all(&experiments, &options) {
            summaries.push(write_report(
                args,
                out,
                report.experiment.name(),
                report.cells.len(),
                report.jobs,
                report.total_wall,
                &report.to_json(),
            )?);
            if args.switch("tables") && !args.json() {
                write!(out, "{}", render::report(&report)).ok();
            }
        }
    }
    if args.json() {
        let json = Json::obj([
            ("schema", Json::str("ccrp-sweep-summary/1")),
            ("sweeps", Json::Arr(summaries)),
        ]);
        write!(out, "{}", json.to_pretty()).ok();
    }
    Ok(())
}

/// Writes `report` to `BENCH_<name>.json` under `--out` (a `-` in
/// `name` becomes `_`) and returns its `--json` summary entry; without
/// `--json`, prints its one-line text summary instead.
fn write_report(
    args: &Args,
    out: &mut dyn Write,
    name: &str,
    cells: usize,
    jobs: usize,
    wall: Duration,
    report: &Json,
) -> Result<Json, CliError> {
    let file = format!("BENCH_{}.json", name.replace('-', "_"));
    let path = Path::new(args.option("out").unwrap_or(".")).join(file);
    let path = path.to_string_lossy().into_owned();
    write_file(&path, report.to_pretty().as_bytes())?;
    if !args.json() {
        writeln!(
            out,
            "{name:<12} {cells:>3} cells {jobs:>2} jobs {wall:>9.2?}  -> {path}"
        )
        .ok();
    }
    Ok(Json::obj([
        ("experiment", Json::str(name)),
        ("cells", Json::U64(cells as u64)),
        ("jobs", Json::U64(jobs as u64)),
        (
            "wall_us",
            Json::U64(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX)),
        ),
        ("results_file", Json::str(&path)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::temp_path;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_unknown_experiment_and_zero_jobs() {
        let args = Args::parse(
            &strings(&["--experiment", "tables_1_8"]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("tables_1_8"));
        assert!(err.to_string().contains("tables1_8"));

        let args = Args::parse(&strings(&["--jobs", "0"]), VALUE_OPTIONS, SWITCHES).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn fig5_sweep_writes_results_file() {
        // fig5 is the one experiment cheap enough for a CLI unit test;
        // the full matrix runs in the integration suite.
        let dir = temp_path("sweep_out");
        std::fs::create_dir_all(&dir).unwrap();
        let args = Args::parse(
            &strings(&[
                "--experiment",
                "fig5",
                "--jobs",
                "2",
                "--out",
                &dir,
                "--tables",
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("fig5"));
        assert!(text.contains("Figure 5"));
        let json = std::fs::read_to_string(Path::new(&dir).join("BENCH_fig5.json")).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-bench-sweep/1\""));
        assert!(json.contains("\"weighted_average\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn isa_compare_sweep_writes_matrix_file() {
        let dir = temp_path("sweep_isa_out");
        std::fs::create_dir_all(&dir).unwrap();
        let args = Args::parse(
            &strings(&["--isa-compare", "--jobs", "2", "--out", &dir]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("isa-compare"));
        let json = std::fs::read_to_string(Path::new(&dir).join("BENCH_isa_compare.json")).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-isa-compare/1\""));
        for variant in ["mips-ccrp", "rv32i-ccrp", "rv32c", "rv32c-ccrp"] {
            assert!(
                json.contains(&format!("\"variant\": \"{variant}\"")),
                "{variant}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn codecs_sweep_writes_matrix_file() {
        let dir = temp_path("sweep_codecs_out");
        std::fs::create_dir_all(&dir).unwrap();
        let args = Args::parse(
            &strings(&["--codecs", "--jobs", "2", "--out", &dir]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("codecs"));
        let json = std::fs::read_to_string(Path::new(&dir).join("BENCH_codecs.json")).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-bench-codecs/1\""));
        for codec in ["byte-huffman", "positional", "lzw"] {
            assert!(json.contains(&format!("\"codec\": \"{codec}\"")), "{codec}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
