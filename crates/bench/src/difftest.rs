//! Differential co-simulation campaigns.
//!
//! Fans [`ccrp_difftest::run_trial`] out across a worker pool: each
//! trial generates a seeded random program, runs it in lockstep on the
//! plain-ROM reference and every compressed variant, then sweeps the
//! refill timing invariants. The transparency contract the campaign
//! enforces is *zero* divergences and *zero* invariant violations —
//! any other outcome carries a shrunk, disassembled repro in the
//! report.
//!
//! Trial verdicts are a pure function of `(campaign seed, trial
//! index)`, so the results section of the report is bit-identical
//! across `--jobs` settings and machines.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ccrp_difftest::{run_trial, run_trial_rv32, run_trial_segmented, TrialOutcome, TrialReport};

use crate::json::Json;
use crate::report::{duration_json, envelope, ToJson};
use crate::runner::parallel_map;

/// How one differential trial ended, campaign-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All variants matched and every timing invariant held.
    Match,
    /// A compressed variant disagreed with the reference.
    Divergence,
    /// A refill accounting identity failed.
    TimingViolation,
    /// The generator produced an invalid program.
    GenFailure,
    /// The trial panicked (a harness bug; counted, not propagated).
    Panic,
}

impl Outcome {
    /// All outcomes, in report order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Match,
        Outcome::Divergence,
        Outcome::TimingViolation,
        Outcome::GenFailure,
        Outcome::Panic,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Match => "match",
            Outcome::Divergence => "divergence",
            Outcome::TimingViolation => "timing-violation",
            Outcome::GenFailure => "gen-failure",
            Outcome::Panic => "panic",
        }
    }

    /// One-letter code for the compact per-trial outcome string.
    pub fn code(self) -> char {
        match self {
            Outcome::Match => 'M',
            Outcome::Divergence => 'D',
            Outcome::TimingViolation => 'T',
            Outcome::GenFailure => 'G',
            Outcome::Panic => 'P',
        }
    }
}

/// Which ISA's generator and lockstep driver a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DifftestIsa {
    /// MIPS R2000 programs through [`run_trial`].
    Mips,
    /// RV32 programs (both RV32I and RVC encodings of each, plus the
    /// cross-encoding final-state check) through [`run_trial_rv32`].
    Rv32,
}

impl DifftestIsa {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            DifftestIsa::Mips => "mips",
            DifftestIsa::Rv32 => "rv32",
        }
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct DifftestOptions {
    /// Number of generated programs.
    pub programs: usize,
    /// Campaign seed; trial `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Worker threads (1 = serial). Does not affect verdicts.
    pub jobs: usize,
    /// Checkpoint interval: `Some(n)` routes every trial through the
    /// segmented co-simulator with a checkpoint every `n` retired
    /// instructions; `None` runs monolithically. Does not affect
    /// verdicts. MIPS only — the RV32 runner has no segmented mode, so
    /// the CLI rejects the combination.
    pub checkpoint_every: Option<u64>,
    /// The instruction set the campaign generates and co-simulates.
    pub isa: DifftestIsa,
}

impl Default for DifftestOptions {
    fn default() -> Self {
        Self {
            programs: 1000,
            seed: 1,
            jobs: crate::runner::available_jobs(),
            checkpoint_every: None,
            isa: DifftestIsa::Mips,
        }
    }
}

/// One trial's campaign-side record: the verdict, the deterministic
/// workload statistics, and (for failures) the shrunk repro text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// The verdict.
    pub outcome: Outcome,
    /// Instructions the reference retired.
    pub instructions: u64,
    /// Text-segment size in bytes.
    pub text_bytes: u64,
    /// LAT entries the compressed build needs.
    pub lat_entries: u64,
    /// Probed refills the timing sweep performed.
    pub refills: u64,
    /// Segments the co-simulation replayed (0 for monolithic trials).
    pub segments: u64,
    /// Failure detail (rendered divergence report, violation list, or
    /// generator error); empty for matches.
    pub detail: String,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct DifftestReport {
    /// The options the campaign ran with.
    pub options: DifftestOptions,
    /// Trial `i`'s record at index `i`.
    pub trials: Vec<Trial>,
    /// End-to-end wall time.
    pub total_wall: Duration,
}

/// Decorrelates per-trial seeds (the SplitMix64 increment constant).
/// The fault-injection and hostile-client campaigns derive theirs here
/// too.
pub fn trial_seed(seed: u64, trial: usize) -> u64 {
    seed ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn record(report: TrialReport) -> Trial {
    let (outcome, detail) = match &report.outcome {
        TrialOutcome::Match => (Outcome::Match, String::new()),
        TrialOutcome::Divergence(divergence) => (Outcome::Divergence, divergence.to_string()),
        TrialOutcome::TimingViolation(detail) => (Outcome::TimingViolation, detail.clone()),
        TrialOutcome::GenFailure(detail) => (Outcome::GenFailure, detail.clone()),
    };
    Trial {
        outcome,
        instructions: report.instructions,
        text_bytes: report.text_bytes,
        lat_entries: report.lat_entries,
        refills: report.refills,
        segments: report.segments,
        detail,
    }
}

/// Runs a campaign. Verdicts depend only on `(options.seed, trial)` —
/// `options.jobs` changes wall time, never results.
pub fn run(options: DifftestOptions) -> DifftestReport {
    let started = Instant::now();
    let indices: Vec<usize> = (0..options.programs).collect();
    let trials = parallel_map(options.jobs, &indices, |&trial| {
        let seed = trial_seed(options.seed, trial);
        // catch_unwind so a harness bug is counted, not propagated.
        panic::catch_unwind(AssertUnwindSafe(|| {
            record(match (options.isa, options.checkpoint_every) {
                (DifftestIsa::Rv32, _) => run_trial_rv32(seed),
                (DifftestIsa::Mips, Some(every)) => run_trial_segmented(seed, every),
                (DifftestIsa::Mips, None) => run_trial(seed),
            })
        }))
        .unwrap_or(Trial {
            outcome: Outcome::Panic,
            instructions: 0,
            text_bytes: 0,
            lat_entries: 0,
            refills: 0,
            segments: 0,
            detail: format!("trial {trial} (seed {seed}) panicked"),
        })
    })
    .into_iter()
    .map(|(trial, _)| trial)
    .collect();
    DifftestReport {
        options,
        trials,
        total_wall: started.elapsed(),
    }
}

impl DifftestReport {
    /// Trials that ended with `outcome`.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.trials.iter().filter(|t| t.outcome == outcome).count()
    }

    /// The transparency contract: every trial matched.
    pub fn acceptable(&self) -> bool {
        self.trials.iter().all(|t| t.outcome == Outcome::Match)
    }

    /// The compact per-trial outcome string (`chars[i]` = trial `i`).
    pub fn outcome_string(&self) -> String {
        self.trials.iter().map(|t| t.outcome.code()).collect()
    }

    /// Details of the first `limit` failing trials, for the report.
    fn failures_json(&self, limit: usize) -> Json {
        Json::Arr(
            self.trials
                .iter()
                .enumerate()
                .filter(|(_, t)| t.outcome != Outcome::Match)
                .take(limit)
                .map(|(index, t)| {
                    Json::obj([
                        ("trial", Json::U64(index as u64)),
                        ("seed", Json::U64(trial_seed(self.options.seed, index))),
                        ("outcome", Json::str(t.outcome.name())),
                        ("detail", Json::str(&t.detail)),
                    ])
                })
                .collect(),
        )
    }

    /// The deterministic half of the report: identical for equal
    /// `(programs, seed, checkpoint_every, isa)` whatever the job count
    /// or machine. The `checkpoint_every`, `segments`, and `isa` keys
    /// appear only for segmented / non-MIPS campaigns, so default
    /// reports stay byte-for-byte compatible with the earlier schemas.
    pub fn results_json(&self) -> Json {
        let sum = |f: fn(&Trial) -> u64| Json::U64(self.trials.iter().map(f).sum());
        let mut json = Json::obj([
            ("schema", Json::str("ccrp-difftest/1")),
            ("programs", Json::U64(self.options.programs as u64)),
            ("seed", Json::U64(self.options.seed)),
            (
                "counts",
                Json::Obj(
                    Outcome::ALL
                        .map(|o| (o.name().to_string(), Json::U64(self.count(o) as u64)))
                        .into_iter()
                        .collect(),
                ),
            ),
            ("instructions", sum(|t| t.instructions)),
            ("text_bytes", sum(|t| t.text_bytes)),
            ("lat_entries", sum(|t| t.lat_entries)),
            ("refills", sum(|t| t.refills)),
            ("outcomes", Json::str(&self.outcome_string())),
            ("failures", self.failures_json(8)),
            ("acceptable", Json::Bool(self.acceptable())),
        ]);
        if self.options.isa != DifftestIsa::Mips {
            json.insert("isa", Json::str(self.options.isa.name()));
        }
        if let Some(every) = self.options.checkpoint_every {
            json.insert("checkpoint_every", Json::U64(every));
            json.insert("segments", sum(|t| t.segments));
        }
        json
    }
}

impl ToJson for DifftestReport {
    /// [`results_json`](DifftestReport::results_json) plus the
    /// run-specific job count and wall-clock timing.
    fn to_json(&self) -> Json {
        let timing = Json::obj([("total_wall_us", duration_json(self.total_wall))]);
        envelope(self.results_json(), self.options.jobs, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_envelope;

    fn small_campaign(jobs: usize) -> DifftestReport {
        run(DifftestOptions {
            programs: 24,
            seed: 7,
            jobs,
            ..DifftestOptions::default()
        })
    }

    #[test]
    fn segmented_campaign_matches_monolithic_results() {
        let monolithic = run(DifftestOptions {
            programs: 8,
            seed: 7,
            jobs: 2,
            ..DifftestOptions::default()
        });
        let segmented = run(DifftestOptions {
            programs: 8,
            seed: 7,
            jobs: 2,
            checkpoint_every: Some(64),
            ..DifftestOptions::default()
        });
        // Verdicts and workload statistics agree; only the segment
        // counts (and the two extra JSON keys) differ.
        for (mono, seg) in monolithic.trials.iter().zip(&segmented.trials) {
            assert!(seg.segments >= 1, "segmented trial recorded no segments");
            let mut comparable = seg.clone();
            comparable.segments = 0;
            assert_eq!(&comparable, mono);
        }
        let mono_json = monolithic.results_json().to_compact();
        let seg_json = segmented.results_json().to_compact();
        assert!(!mono_json.contains("checkpoint_every"));
        assert!(seg_json.contains("\"checkpoint_every\":64"));
        assert!(seg_json.contains("\"segments\":"));
    }

    #[test]
    fn verdicts_identical_across_job_counts() {
        let serial = small_campaign(1);
        let parallel = small_campaign(4);
        assert_eq!(serial.trials, parallel.trials);
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact()
        );
        assert_envelope(&parallel, parallel.results_json(), 4);
    }

    #[test]
    fn rv32_campaign_is_clean_and_jobs_independent() {
        let campaign = |jobs| {
            run(DifftestOptions {
                programs: 8,
                seed: 7,
                jobs,
                isa: DifftestIsa::Rv32,
                ..DifftestOptions::default()
            })
        };
        let serial = campaign(1);
        let parallel = campaign(4);
        assert_eq!(serial.trials, parallel.trials);
        let json = serial.results_json().to_compact();
        assert_eq!(json, parallel.results_json().to_compact());
        assert!(json.contains("\"isa\":\"rv32\""));
        assert!(
            serial.acceptable(),
            "failures:\n{}",
            serial
                .trials
                .iter()
                .filter(|t| t.outcome != Outcome::Match)
                .map(|t| t.detail.as_str())
                .collect::<Vec<_>>()
                .join("\n---\n")
        );
        // The MIPS report schema is untouched by the new key.
        let mips = small_campaign(2).results_json().to_compact();
        assert!(!mips.contains("\"isa\""));
    }

    #[test]
    fn campaign_is_clean_and_not_vacuous() {
        let report = small_campaign(4);
        assert!(
            report.acceptable(),
            "failures:\n{}",
            report
                .trials
                .iter()
                .filter(|t| t.outcome != Outcome::Match)
                .map(|t| t.detail.as_str())
                .collect::<Vec<_>>()
                .join("\n---\n")
        );
        assert_eq!(report.count(Outcome::Match), 24);
        let instructions: u64 = report.trials.iter().map(|t| t.instructions).sum();
        assert!(instructions > 0, "trials retired no instructions");
        assert!(
            report.trials.iter().all(|t| t.lat_entries >= 2),
            "programs must span multiple LAT entries"
        );
    }
}
