//! `ccrp-tools servesim [--trials N] [--seed N] [--jobs N] [--burst N]
//! [--out FILE]`
//!
//! Runs the hostile-client campaign against a real in-process
//! `ccrp-served` server and writes the outcome counts to a
//! machine-readable JSON file (default `BENCH_servesim.json`). Outcomes
//! are a pure function of `(--trials, --seed)`, so the results section
//! of the JSON is bit-identical for any `--jobs` value; `--burst` sizes
//! the separate load-shedding phase whose tallies ride in the `timing`
//! section only.
//!
//! The command exits nonzero when the campaign violates the service
//! contract: any wrong response, any silent acceptance of corrupt v2
//! content, any dropped or hung scripted connection, an uncontained
//! panic, or a burst client left without a typed answer.
//!
//! The chaos trials' deliberate handler panics are caught by the
//! service and counted by the campaign, so the command keeps them off
//! stderr, where they would bury a real panic; every other panic still
//! reaches the previous panic hook.

use std::io::Write;
use std::sync::Once;

use ccrp_bench::servesim::{self, Outcome, ServesimOptions, TrialKind};
use ccrp_bench::ToJson;
use ccrp_served::CHAOS_PANIC_MESSAGE;

use crate::args::{parse_jobs, parse_seed, parse_trials, Args};
use crate::error::CliError;

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &["trials", "seed", "jobs", "burst", "out"];
/// Switch names.
pub const SWITCHES: &[&str] = &[];

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError::Usage`] for bad numbers, [`CliError::Io`] when the
/// results file cannot be written, and [`CliError::Campaign`] when the
/// campaign finds the service misbehaving.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let trials = parse_trials(args, "trials")?;
    let seed = parse_seed(args, 42)?;
    let jobs = parse_jobs(args)?;
    let burst = args.option_u32("burst", 32)? as usize;
    let path = args.option("out").unwrap_or("BENCH_servesim.json");

    silence_chaos_panics();
    let report = servesim::run(ServesimOptions {
        trials,
        seed,
        jobs,
        burst,
    });
    if super::write_results(args, out, path, &report.to_json())? {
        return check(&report);
    }

    writeln!(
        out,
        "servesim: {trials} trials seed {seed} {jobs} jobs burst {burst} {:?}  -> {path}",
        report.total_wall,
    )
    .ok();
    for outcome in Outcome::ALL {
        writeln!(
            out,
            "  {:<18} {:>6}",
            outcome.name(),
            report.count(outcome, None),
        )
        .ok();
    }
    writeln!(
        out,
        "  kinds: {}",
        TrialKind::ALL.map(TrialKind::name).join(", ")
    )
    .ok();
    if report.burst.sent > 0 {
        writeln!(
            out,
            "  burst: {} sent, {} ran, {} overload, {} timeout, p99 {}us",
            report.burst.sent,
            report.burst.ran,
            report.burst.overload,
            report.burst.timeout,
            report.burst.p99_us,
        )
        .ok();
    }

    check(&report)
}

/// Installs, once per process, a panic hook that drops the chaos
/// endpoint's deliberate panic and hands every other one to the
/// previous hook.
fn silence_chaos_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&CHAOS_PANIC_MESSAGE) {
                previous(info);
            }
        }));
    });
}

/// Maps the campaign's service contract onto the exit status.
fn check(report: &servesim::ServesimReport) -> Result<(), CliError> {
    if !report.acceptable() {
        return Err(CliError::Campaign(format!(
            "{} wrong response(s), {} silent acceptance(s), {} transport error(s), \
             {} client timeout(s), {} panic(s) caught vs {} injected, \
             {} burst transport error(s)",
            report.count(Outcome::WrongResponse, None),
            report.count(Outcome::SilentAcceptance, None),
            report.count(Outcome::TransportError, None),
            report.count(Outcome::ClientTimeout, None),
            report.counters.panics_caught,
            report.trials_of(TrialKind::ChaosPanic),
            report.burst.transport_errors,
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
        let path = temp_path("servesim.json");
        let args = Args::parse(
            &strings(&[
                "--trials", "14", "--seed", "7", "--jobs", "2", "--burst", "4", "--out", &path,
            ]),
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("servesim: 14 trials"));
        assert!(text.contains("as-expected"));
        assert!(text.contains("burst: 4 sent"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"ccrp-servesim/1\""));
        assert!(json.contains("\"acceptable\": true"));
        std::fs::remove_file(&path).ok();
    }
}
