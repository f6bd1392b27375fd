//! `ccrp-tools difftest [--programs N] [--seed N] [--jobs N]
//! [--isa mips|rv32] [--checkpoint-every N] [--out FILE]`
//!
//! Runs a differential co-simulation campaign: N seeded random programs
//! executed in lockstep on the plain-ROM reference machine and on every
//! compressed-ROM variant, with the refill timing invariants swept per
//! program. `--isa rv32` generates RV32 programs instead of MIPS,
//! running each in **both** encodings (RV32I and RVC) with a
//! cross-encoding final-state check, and defaults the results file to
//! `BENCH_difftest_rv32.json`. With `--checkpoint-every` (MIPS only)
//! each trial runs through the segmented co-simulator: a
//! checkpoint-recording pass over the reference, then per-segment
//! restore-and-replay — same verdicts, exercising the checkpoint path
//! on every program. Results go to a machine-readable JSON file
//! (default `BENCH_difftest.json`). Verdicts are a pure function of
//! `(--programs, --seed, --isa, --checkpoint-every)`, so the results
//! section of the JSON is bit-identical for any `--jobs` value.
//!
//! The command exits nonzero on any divergence, timing-invariant
//! violation, generator failure, or panic — the transparency contract
//! is that all four counts are zero.

use std::io::Write;

use ccrp_bench::difftest::{self, DifftestIsa, DifftestOptions, Outcome};
use ccrp_bench::ToJson;

use crate::args::{parse_jobs, parse_seed, parse_trials, Args};
use crate::error::CliError;

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &["programs", "seed", "jobs", "isa", "checkpoint-every", "out"];
/// Switch names.
pub const SWITCHES: &[&str] = &[];

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError::Usage`] for bad numbers, [`CliError::Io`] when the
/// results file cannot be written, and [`CliError::Campaign`] when any
/// trial fails the transparency contract.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let programs = parse_trials(args, "programs")?;
    let seed = parse_seed(args, 1)?;
    let jobs = parse_jobs(args)?;
    let isa = match args.option("isa") {
        None | Some("mips") => DifftestIsa::Mips,
        Some("rv32") => DifftestIsa::Rv32,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--isa: unknown isa `{other}`; expected mips or rv32"
            )));
        }
    };
    let checkpoint_every = match args.option("checkpoint-every") {
        None => None,
        Some(text) => Some(text.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
            CliError::Usage(format!("--checkpoint-every: bad interval `{text}`"))
        })?),
    };
    if isa == DifftestIsa::Rv32 && checkpoint_every.is_some() {
        return Err(CliError::Usage(
            "--checkpoint-every is not supported with --isa rv32".into(),
        ));
    }
    let default_out = match isa {
        DifftestIsa::Mips => "BENCH_difftest.json",
        DifftestIsa::Rv32 => "BENCH_difftest_rv32.json",
    };
    let path = args.option("out").unwrap_or(default_out);

    let report = difftest::run(DifftestOptions {
        programs,
        seed,
        jobs,
        checkpoint_every,
        isa,
    });
    if super::write_results(args, out, path, &report.to_json())? {
        return check(&report);
    }

    writeln!(
        out,
        "difftest: {programs} {} programs seed {seed} {jobs} jobs {:?}  -> {path}",
        isa.name(),
        report.total_wall,
    )
    .ok();
    for outcome in Outcome::ALL {
        writeln!(out, "  {:<18} {:>6}", outcome.name(), report.count(outcome)).ok();
    }
    let sum = |f: fn(&difftest::Trial) -> u64| report.trials.iter().map(f).sum::<u64>();
    writeln!(
        out,
        "  instructions {} text-bytes {} lat-entries {} refills {}",
        sum(|t| t.instructions),
        sum(|t| t.text_bytes),
        sum(|t| t.lat_entries),
        sum(|t| t.refills),
    )
    .ok();
    for trial in report.trials.iter().filter(|t| t.outcome != Outcome::Match) {
        writeln!(out, "--- {} ---", trial.outcome.name()).ok();
        for line in trial.detail.lines() {
            writeln!(out, "  {line}").ok();
        }
    }

    check(&report)
}

/// Maps the transparency contract onto the exit status.
fn check(report: &difftest::DifftestReport) -> Result<(), CliError> {
    if !report.acceptable() {
        return Err(CliError::Campaign(format!(
            "{} divergence(s), {} timing violation(s), {} generator failure(s), {} panic(s)",
            report.count(Outcome::Divergence),
            report.count(Outcome::TimingViolation),
            report.count(Outcome::GenFailure),
            report.count(Outcome::Panic),
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
    fn rejects_zero_programs_and_bad_seed() {
        let args = Args::parse(&strings(&["--programs", "0"]), VALUE_OPTIONS, SWITCHES).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());

        let args = Args::parse(&strings(&["--seed", "x"]), VALUE_OPTIONS, SWITCHES).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--seed"));
    }

    #[test]
    fn segmented_campaign_records_segments() {
        let path = temp_path("difftest_seg.json");
        let args = Args::parse(
            &strings(&[
                "--programs",
                "4",
                "--seed",
                "7",
                "--jobs",
                "2",
                "--checkpoint-every",
                "50",
                "--out",
                &path,
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        run(&args, &mut Vec::new()).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"checkpoint_every\": 50"));
        assert!(json.contains("\"segments\":"));
        std::fs::remove_file(&path).ok();

        let args = Args::parse(
            &strings(&["--checkpoint-every", "0"]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn rv32_campaign_writes_results_file_and_rejects_checkpointing() {
        let path = temp_path("difftest_rv32.json");
        let args = Args::parse(
            &strings(&[
                "--programs",
                "4",
                "--seed",
                "7",
                "--jobs",
                "2",
                "--isa",
                "rv32",
                "--out",
                &path,
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("difftest: 4 rv32 programs"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"isa\": \"rv32\""));
        assert!(json.contains("\"acceptable\": true"));
        std::fs::remove_file(&path).ok();

        let args = Args::parse(
            &strings(&["--isa", "rv32", "--checkpoint-every", "50"]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--checkpoint-every"));

        let args = Args::parse(&strings(&["--isa", "arm"]), VALUE_OPTIONS, SWITCHES).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("arm"));
    }

    #[test]
    fn small_campaign_writes_results_file() {
        let path = temp_path("difftest.json");
        let args = Args::parse(
            &strings(&[
                "--programs",
                "8",
                "--seed",
                "7",
                "--jobs",
                "2",
                "--out",
                &path,
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("difftest: 8 mips programs"));
        assert!(text.contains("match"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-difftest/1\""));
        assert!(json.contains("\"acceptable\": true"));
        std::fs::remove_file(&path).ok();
    }
}
