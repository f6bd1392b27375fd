//! Seeded fault-injection campaigns over the container format.
//!
//! A campaign perturbs serialized containers with single seeded faults
//! (bit flips and byte stomps from [`ccrp::FaultPlan`]) and classifies
//! what the loader and decoder do with each corrupted copy:
//!
//! * **detected** — the corruption surfaced as a structured error
//!   (`BadContainer`, `Integrity`, `CrcMismatch`, a decode error);
//! * **silent-miscompare** — the image loaded and verified but its
//!   metadata or expanded bytes differ from the pristine image (the
//!   failure CCRP hardware could not see before container v2);
//! * **benign** — the fault changed nothing observable (a stomp equal to
//!   the original byte, or a region the format never reads);
//! * **panic** — classification panicked (a no-panic contract violation;
//!   the campaign exists to prove this count is zero);
//! * **hang** — the per-trial step budget was exhausted (a watchdog
//!   backstop; bounded Huffman decode is structurally terminating).
//!
//! Each trial alternates between a version-1 container (no integrity
//! records) and a version-2 container (header + per-block CRC-32), and
//! cycles faults through every [`FaultRegion`]. Outcomes are a pure
//! function of `(seed, trial index)`, so a campaign is bit-identical
//! across `--jobs` settings and machines.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ccrp::{CompressedImage, ContainerLayout, FaultPlan, FaultRegion};
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

use crate::difftest::trial_seed;
use crate::json::Json;
use crate::report::{duration_json, envelope, outcome_table, ToJson};
use crate::runner::parallel_map;

/// How one fault-injection trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A structured error surfaced the corruption.
    Detected,
    /// The image loaded cleanly but disagrees with the pristine one.
    SilentMiscompare,
    /// The fault had no observable effect.
    Benign,
    /// Classification panicked.
    Panic,
    /// Classification exceeded its step budget.
    Hang,
}

impl Outcome {
    /// All outcomes, in report order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Detected,
        Outcome::SilentMiscompare,
        Outcome::Benign,
        Outcome::Panic,
        Outcome::Hang,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::SilentMiscompare => "silent-miscompare",
            Outcome::Benign => "benign",
            Outcome::Panic => "panic",
            Outcome::Hang => "hang",
        }
    }

    /// One-letter code for the compact per-trial outcome string.
    pub fn code(self) -> char {
        match self {
            Outcome::Detected => 'D',
            Outcome::SilentMiscompare => 'S',
            Outcome::Benign => 'B',
            Outcome::Panic => 'P',
            Outcome::Hang => 'H',
        }
    }
}

/// Which container format a trial corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Version 1: no integrity records.
    V1,
    /// Version 2: header + per-block CRC-32 records.
    V2,
}

impl Mode {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::V1 => "v1",
            Mode::V2 => "v2",
        }
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultsimOptions {
    /// Number of seeded trials.
    pub trials: usize,
    /// Campaign seed; trial `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Worker threads (1 = serial). Does not affect outcomes.
    pub jobs: usize,
}

impl Default for FaultsimOptions {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 42,
            jobs: crate::runner::available_jobs(),
        }
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct FaultsimReport {
    /// The options the campaign ran with.
    pub options: FaultsimOptions,
    /// Outcome of trial `i` at index `i`.
    pub outcomes: Vec<Outcome>,
    /// End-to-end wall time.
    pub total_wall: Duration,
}

/// The container mode trial `trial` corrupts (even = v1, odd = v2).
pub fn mode_of(trial: usize) -> Mode {
    if trial.is_multiple_of(2) {
        Mode::V1
    } else {
        Mode::V2
    }
}

/// The region trial `trial` injects into (cycling all regions per mode).
pub fn region_of(trial: usize) -> FaultRegion {
    FaultRegion::ALL[(trial / 2) % FaultRegion::ALL.len()]
}

/// The deterministic program every campaign corrupts: a mix of highly
/// compressible lines and high-entropy (bypassed) lines, so faults land
/// in both kinds of stored block.
pub fn campaign_image() -> CompressedImage {
    let mut text = vec![0u8; 4096];
    let mut x = 0x1234_5678u32;
    for (i, b) in text.iter_mut().enumerate() {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        *b = match (i / 32) % 4 {
            // Three lines of skewed, compressible bytes...
            0 => 0x24,
            1 => (i % 7) as u8,
            2 => {
                if i % 4 == 0 {
                    (x >> 28) as u8
                } else {
                    0
                }
            }
            // ...then one line of hostile bytes that will bypass.
            _ => (x >> 17) as u8,
        };
    }
    let code =
        ByteCode::preselected(&ByteHistogram::of(&text)).expect("campaign histogram is non-empty");
    CompressedImage::build(0, &text, code, BlockAlignment::Word).expect("campaign image builds")
}

/// The pristine container material both container campaigns (this one
/// and [`crate::servesim`]) corrupt, built once per campaign.
pub(crate) struct Pristine {
    /// [`campaign_image`] with its block CRCs attached, as a v2
    /// container loads.
    pub(crate) image: CompressedImage,
    v1: Vec<u8>,
    pub(crate) v2: Vec<u8>,
    v1_layout: ContainerLayout,
    v2_layout: ContainerLayout,
    /// Expanded pristine lines, for miscompare checks.
    pub(crate) lines: Vec<[u8; 32]>,
}

impl Pristine {
    pub(crate) fn build() -> Pristine {
        let mut image = campaign_image();
        image.attach_block_crcs();
        let v1 = image.to_bytes();
        let v2 = image.to_bytes_v2();
        let v1_layout = ContainerLayout::of(&v1).expect("pristine v1 has a layout");
        let v2_layout = ContainerLayout::of(&v2).expect("pristine v2 has a layout");
        let lines = (0..image.line_count())
            .map(|l| {
                image
                    .expand_line(l as u32 * 32)
                    .expect("pristine lines expand")
            })
            .collect();
        Pristine {
            image,
            v1,
            v2,
            v1_layout,
            v2_layout,
            lines,
        }
    }

    pub(crate) fn line_count(&self) -> u32 {
        self.lines.len() as u32
    }

    /// A copy of the `mode` container with trial `trial`'s one seeded
    /// fault in `region`, and whether that fault changed a byte (not so
    /// for an empty region, or a stomp matching the original byte).
    pub(crate) fn corrupted(
        &self,
        mode: Mode,
        seed: u64,
        trial: usize,
        region: FaultRegion,
    ) -> (Vec<u8>, bool) {
        let (bytes, layout) = match mode {
            Mode::V1 => (&self.v1, &self.v1_layout),
            Mode::V2 => (&self.v2, &self.v2_layout),
        };
        let mut corrupt = bytes.clone();
        let changed =
            FaultPlan::seeded(trial_seed(seed, trial), layout, region, 1).apply(&mut corrupt);
        (corrupt, changed > 0)
    }
}

/// One trial: corrupt a fresh copy of the container, then classify what
/// loading and fully expanding it does.
fn run_trial(pristine: &Pristine, seed: u64, trial: usize) -> Outcome {
    let (corrupt, changed) = pristine.corrupted(mode_of(trial), seed, trial, region_of(trial));
    if !changed {
        // Trivially benign: skip the load.
        return Outcome::Benign;
    }
    // The whole classification runs under catch_unwind so a contract
    // violation is counted, not propagated.
    let classified = panic::catch_unwind(AssertUnwindSafe(|| classify(pristine, &corrupt)));
    classified.unwrap_or(Outcome::Panic)
}

fn classify(pristine: &Pristine, corrupt: &[u8]) -> Outcome {
    let loaded = match CompressedImage::from_bytes(corrupt) {
        Err(_) => return Outcome::Detected,
        Ok(image) => image,
    };
    // Metadata the fault may have rewritten without tripping a check.
    if loaded.text_base() != pristine.image.text_base()
        || loaded.original_bytes() != pristine.image.original_bytes()
        || loaded.alignment() != pristine.image.alignment()
        || loaded.lat_base() != pristine.image.lat_base()
    {
        return Outcome::SilentMiscompare;
    }
    if loaded.verify().is_err() {
        return Outcome::Detected;
    }
    // Expand every line and compare against the pristine program. The
    // step budget is a watchdog backstop: bounded decode cannot loop,
    // so exceeding it means a hang-class bug.
    let budget = pristine.lines.len() * 4 + 1024;
    let mut steps = 0usize;
    for (line, expected) in pristine.lines.iter().enumerate() {
        steps += 1;
        if steps > budget {
            return Outcome::Hang;
        }
        match loaded.expand_line(line as u32 * 32) {
            Err(_) => return Outcome::Detected,
            Ok(bytes) => {
                if bytes != *expected {
                    return Outcome::SilentMiscompare;
                }
            }
        }
    }
    Outcome::Benign
}

/// Runs a campaign. Outcomes depend only on `(options.seed, trial)` —
/// `options.jobs` changes wall time, never results.
pub fn run(options: FaultsimOptions) -> FaultsimReport {
    let started = Instant::now();
    let pristine = Pristine::build();
    let trials: Vec<usize> = (0..options.trials).collect();
    let outcomes = parallel_map(options.jobs, &trials, |&trial| {
        run_trial(&pristine, options.seed, trial)
    })
    .into_iter()
    .map(|(outcome, _)| outcome)
    .collect();
    FaultsimReport {
        options,
        outcomes,
        total_wall: started.elapsed(),
    }
}

impl FaultsimReport {
    /// Trials with `outcome`, optionally restricted to one mode.
    pub fn count(&self, outcome: Outcome, mode: Option<Mode>) -> usize {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|&(trial, &o)| o == outcome && mode.is_none_or(|m| mode_of(trial) == m))
            .count()
    }

    /// The campaign's pass criterion: no panics, no hangs anywhere, and
    /// no silent miscompares once CRC records are in play (v2 trials).
    pub fn acceptable(&self) -> bool {
        self.count(Outcome::Panic, None) == 0
            && self.count(Outcome::Hang, None) == 0
            && self.count(Outcome::SilentMiscompare, Some(Mode::V2)) == 0
    }

    /// The compact per-trial outcome string (`outcomes[i]` = trial `i`).
    pub fn outcome_string(&self) -> String {
        self.outcomes.iter().map(|o| o.code()).collect()
    }

    /// The deterministic half of the report: identical for equal
    /// `(trials, seed)` whatever the job count or machine.
    pub fn results_json(&self) -> Json {
        let trials = self.outcomes.iter().enumerate();
        Json::obj([
            ("schema", Json::str("ccrp-faultsim/1")),
            ("trials", Json::U64(self.options.trials as u64)),
            ("seed", Json::U64(self.options.seed)),
            (
                "modes",
                outcome_table(
                    [("v1", Mode::V1), ("v2", Mode::V2)],
                    &Outcome::ALL,
                    Outcome::name,
                    trials.clone().map(|(t, &o)| (mode_of(t), o)),
                ),
            ),
            (
                "regions",
                outcome_table(
                    FaultRegion::ALL.map(|r| (r.name(), r)),
                    &Outcome::ALL,
                    Outcome::name,
                    trials.map(|(t, &o)| (region_of(t), o)),
                ),
            ),
            ("outcomes", Json::str(&self.outcome_string())),
            ("acceptable", Json::Bool(self.acceptable())),
        ])
    }
}

impl ToJson for FaultsimReport {
    /// [`results_json`](FaultsimReport::results_json) plus the
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

    fn small_campaign(jobs: usize) -> FaultsimReport {
        run(FaultsimOptions {
            trials: 120,
            seed: 7,
            jobs,
        })
    }

    #[test]
    fn outcomes_identical_across_job_counts() {
        let serial = small_campaign(1);
        let parallel = small_campaign(4);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact()
        );
        assert_envelope(&parallel, parallel.results_json(), 4);
    }

    #[test]
    fn no_panics_no_hangs_no_v2_silent_miscompares() {
        let report = small_campaign(4);
        assert_eq!(report.count(Outcome::Panic, None), 0, "panics");
        assert_eq!(report.count(Outcome::Hang, None), 0, "hangs");
        assert_eq!(
            report.count(Outcome::SilentMiscompare, Some(Mode::V2)),
            0,
            "v2 must turn every miscompare into a detected error"
        );
        assert!(report.acceptable());
        // The campaign is not vacuous: most faults are detected.
        assert!(report.count(Outcome::Detected, None) > 0);
    }

    #[test]
    fn v1_exhibits_the_silent_miscompare_window() {
        // With enough trials, some v1 block faults decode to valid wrong
        // bytes — the motivation for container v2. Not a hard guarantee
        // per seed, so this documents rather than gates: if the count is
        // zero the campaign is still sound (and suspiciously lucky).
        let report = run(FaultsimOptions {
            trials: 400,
            seed: 42,
            jobs: 4,
        });
        let v1_silent = report.count(Outcome::SilentMiscompare, Some(Mode::V1));
        let v2_silent = report.count(Outcome::SilentMiscompare, Some(Mode::V2));
        assert_eq!(v2_silent, 0);
        assert!(
            v1_silent >= v2_silent,
            "CRC records can only reduce silent miscompares"
        );
    }
}
