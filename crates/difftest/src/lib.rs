//! Differential co-simulation for the CCRP workspace.
//!
//! The paper's central claim is that compressed-program execution is
//! *transparent*: a program run out of the compressed instruction ROM
//! retires exactly the instruction stream its uncompressed build does,
//! with the compression visible only in the refill timing. The unit
//! oracles in each crate check components; this crate checks the claim
//! end to end, on programs nobody hand-picked:
//!
//! * [`ProgGen`] — a seeded, ISA-aware random program
//!   generator emitting valid, terminating MIPS R2000 assembly sized to
//!   span several Line Address Table entries;
//! * [`run_cosim`] — a lockstep co-simulator running
//!   each program on a plain-ROM reference and on four compressed
//!   variants (direct under Abort, v1 container under Trap, v2
//!   container under Retry, positional-codec v2 container under Abort),
//!   comparing full architectural state after every retired
//!   instruction and shrinking any failure to a minimal repro;
//! * [`check_refill_invariants`] — a
//!   probe-event checker asserting the refill engine's accounting
//!   identities (bus bytes, bypass latency, CLB/LAT traffic) on the
//!   same images.
//!
//! [`run_trial`] composes the three into one deterministic trial — a
//! pure function of the seed — which `ccrp-bench` fans out across
//! workers and `ccrp-tools difftest` exposes on the command line.
//!
//! The loop itself is ISA-generic: [`run_lockstep`] drives any
//! [`IsaCore`](ccrp_emu::IsaCore) machine pair, and the [`rv32`]
//! module reuses it for an RV32I/RVC campaign ([`run_trial_rv32`])
//! that additionally cross-checks the two encodings of each generated
//! program against each other.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod lockstep;
pub mod progen;
pub mod rv32;
pub mod segmented;
pub mod timing;

pub use ccrp::SplitMix64;
pub use cosim::{
    build_rom, minimize_lines, run_cosim, run_cosim_with, CosimVariant, CosimVerdict,
    DivergenceReport, RecordingSink,
};
pub use lockstep::{compare_cores, run_lockstep, LockstepVariant};
pub use progen::{GeneratedProgram, ProgGen, SCRATCH_BASE, SCRATCH_SIZE};
pub use rv32::{build_rv32_rom, run_rv32_cosim, run_trial_rv32};
pub use segmented::{run_cosim_segmented, run_cosim_segmented_with, SegmentedVerdict};
pub use timing::{check_refill_invariants, LinearMemory, TimingReport};

use ccrp_asm::{assemble, ProgramImage};

/// Per-trial instruction budget. Generated programs retire well under
/// 100k instructions; hitting this means the generator broke.
pub const TRIAL_MAX_STEPS: u64 = 2_000_000;

/// Re-run budget for the divergence shrinker.
pub const SHRINK_BUDGET: usize = 200;

/// How one trial ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TrialOutcome {
    /// Every variant matched and every timing invariant held.
    #[default]
    Match,
    /// A compressed variant disagreed with the reference.
    Divergence(Box<DivergenceReport>),
    /// A refill accounting identity failed.
    TimingViolation(String),
    /// The generator produced an invalid program (assembly failure,
    /// reference fault, or budget exhaustion) — a harness bug.
    GenFailure(String),
}

/// Everything one trial produced: the verdict plus deterministic
/// workload statistics (pure functions of the seed, so campaign
/// aggregates are jobs-independent).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialReport {
    /// The verdict.
    pub outcome: TrialOutcome,
    /// Instructions the reference retired (0 unless `Match`).
    pub instructions: u64,
    /// Text-segment size in bytes.
    pub text_bytes: u64,
    /// Line Address Table entries the compressed build needs.
    pub lat_entries: u64,
    /// Probed refills the timing sweep performed (0 unless it ran).
    pub refills: u64,
    /// Segments the co-simulation replayed (0 for monolithic runs).
    pub segments: u64,
}

/// Runs the full differential trial for `seed`: generate, assemble,
/// co-simulate every variant in lockstep, then sweep the refill timing
/// invariants. On divergence the repro is shrunk before reporting.
/// Deterministic: the report is a pure function of `seed`.
pub fn run_trial(seed: u64) -> TrialReport {
    trial(seed, |image, variants| {
        run_cosim_with(image, variants, TRIAL_MAX_STEPS).map(|verdict| SegmentedVerdict {
            verdict,
            segments: 0,
        })
    })
}

/// Runs the same differential trial as [`run_trial`], but drives the
/// co-simulation through the checkpoint-segmented runner with a
/// checkpoint every `every` retired instructions. The verdict is
/// byte-identical to the monolithic trial's; only
/// [`TrialReport::segments`] differs (the segment count instead of 0).
/// On divergence the shrinker re-checks candidates with the monolithic
/// runner — the verdicts agree, and the monolithic path is cheaper.
pub fn run_trial_segmented(seed: u64, every: u64) -> TrialReport {
    trial(seed, |image, variants| {
        run_cosim_segmented_with(image, variants, TRIAL_MAX_STEPS, every)
    })
}

/// The trial body behind [`run_trial`] and [`run_trial_segmented`]:
/// `cosimulate` is the co-simulation step, run over the standard
/// variants of the one ROM the trial builds.
fn trial(
    seed: u64,
    cosimulate: impl FnOnce(&ProgramImage, Vec<CosimVariant>) -> Result<SegmentedVerdict, String>,
) -> TrialReport {
    let generated = ProgGen::generate(seed);
    let mut report = TrialReport::default();
    let image = match assemble(&generated.source()) {
        Ok(image) => image,
        Err(err) => {
            report.outcome = TrialOutcome::GenFailure(format!("assembly failed: {err}"));
            return report;
        }
    };
    report.text_bytes = u64::from(image.text_size());
    report.lat_entries = u64::from(image.text_lines().div_ceil(8));
    let cosimulated = build_rom(&image).and_then(|rom| {
        let segmented = cosimulate(&image, cosim::standard_variants(&image, &rom)?)?;
        Ok((segmented, rom))
    });
    let (segmented, rom) = match cosimulated {
        Ok(cosimulated) => cosimulated,
        Err(err) => {
            report.outcome = TrialOutcome::GenFailure(err);
            return report;
        }
    };
    report.segments = segmented.segments;
    match segmented.verdict {
        CosimVerdict::Divergence(mut divergence) => {
            let minimal = minimize_lines(
                &generated.lines,
                &generated.removable,
                SHRINK_BUDGET,
                |source| match assemble(source) {
                    Ok(image) => cosim::diverges(&run_cosim(&image, TRIAL_MAX_STEPS)),
                    Err(_) => false,
                },
            );
            divergence.minimized = Some(minimal.join("\n"));
            report.outcome = TrialOutcome::Divergence(divergence);
            return report;
        }
        CosimVerdict::Match { instructions } => report.instructions = instructions,
    }
    let timing = check_refill_invariants(&rom);
    report.refills = timing.refills;
    if !timing.clean() {
        report.outcome = TrialOutcome::TimingViolation(timing.violations.join("; "));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_match_and_are_deterministic() {
        for seed in [1u64, 2, 42] {
            let a = run_trial(seed);
            let b = run_trial(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_eq!(
                a.outcome,
                TrialOutcome::Match,
                "seed {seed}: {:?}",
                a.outcome
            );
            assert!(a.instructions > 0);
            assert!(
                a.lat_entries >= 2,
                "seed {seed} too small to stress the LAT"
            );
            assert!(a.refills > 0);
        }
    }

    #[test]
    fn segmented_trial_matches_monolithic_trial() {
        for seed in [1u64, 42] {
            let monolithic = run_trial(seed);
            let segmented = run_trial_segmented(seed, 64);
            assert!(segmented.segments >= 1, "seed {seed} recorded no segments");
            let mut comparable = segmented.clone();
            comparable.segments = 0;
            assert_eq!(comparable, monolithic, "seed {seed} drifted");
        }
    }
}
