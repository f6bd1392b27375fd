//! `ccrp-tools faultsim [--trials N] [--seed N] [--jobs N] [--out FILE]`
//!
//! Runs a seeded fault-injection campaign over the container format and
//! writes the outcome counts to a machine-readable JSON file (default
//! `BENCH_faultsim.json`). Outcomes are a pure function of
//! `(--trials, --seed)`, so the results section of the JSON is
//! bit-identical for any `--jobs` value.
//!
//! The command exits nonzero when the campaign violates the hardening
//! contract: any panic, any hang, or any silent miscompare on a
//! version-2 (CRC-carrying) container.

use std::io::Write;

use ccrp::FaultRegion;
use ccrp_bench::faultsim::{self, FaultsimOptions, Mode, Outcome};
use ccrp_bench::ToJson;

use crate::args::{parse_jobs, parse_seed, parse_trials, Args};
use crate::error::CliError;

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &["trials", "seed", "jobs", "out"];
/// Switch names.
pub const SWITCHES: &[&str] = &[];

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError::Usage`] for bad numbers, [`CliError::Io`] when the
/// results file cannot be written, and [`CliError::Campaign`] when the
/// campaign detects a panic, a hang, or a v2 silent miscompare.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let trials = parse_trials(args, "trials")?;
    let seed = parse_seed(args, 42)?;
    let jobs = parse_jobs(args)?;
    let path = args.option("out").unwrap_or("BENCH_faultsim.json");

    let report = faultsim::run(FaultsimOptions { trials, seed, jobs });
    if super::write_results(args, out, path, &report.to_json())? {
        return check(&report);
    }

    writeln!(
        out,
        "faultsim: {trials} trials seed {seed} {jobs} jobs {:?}  -> {path}",
        report.total_wall,
    )
    .ok();
    for outcome in Outcome::ALL {
        writeln!(
            out,
            "  {:<18} {:>6} (v1 {:>5}, v2 {:>5})",
            outcome.name(),
            report.count(outcome, None),
            report.count(outcome, Some(Mode::V1)),
            report.count(outcome, Some(Mode::V2)),
        )
        .ok();
    }
    writeln!(
        out,
        "  regions: {}",
        FaultRegion::ALL.map(FaultRegion::name).join(", ")
    )
    .ok();

    check(&report)
}

/// Maps the campaign's hardening contract onto the exit status.
fn check(report: &faultsim::FaultsimReport) -> Result<(), CliError> {
    if !report.acceptable() {
        return Err(CliError::Campaign(format!(
            "{} panic(s), {} hang(s), {} v2 silent miscompare(s)",
            report.count(Outcome::Panic, None),
            report.count(Outcome::Hang, None),
            report.count(Outcome::SilentMiscompare, Some(Mode::V2)),
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::temp_path;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_zero_trials_and_bad_seed() {
        let args = Args::parse(&strings(&["--trials", "0"]), VALUE_OPTIONS, SWITCHES).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());

        let args = Args::parse(&strings(&["--seed", "-3"]), VALUE_OPTIONS, SWITCHES).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--seed"));
    }

    #[test]
    fn small_campaign_writes_results_file() {
        let path = temp_path("faultsim.json");
        let args = Args::parse(
            &strings(&[
                "--trials", "60", "--seed", "7", "--jobs", "2", "--out", &path,
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("faultsim: 60 trials"));
        assert!(text.contains("detected"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-faultsim/1\""));
        assert!(json.contains("\"acceptable\": true"));
        std::fs::remove_file(&path).ok();
    }
}
