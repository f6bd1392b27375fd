//! Checkpoint-segmented differential co-simulation.
//!
//! The same transparency check as [`run_cosim`](crate::run_cosim), split
//! into two passes:
//!
//! 1. **Recording** — the plain-ROM reference runs alone, cheaply,
//!    capturing a serialized [`Checkpoint`] every `every` retired
//!    instructions (exercising the full byte round-trip, not just a
//!    clone);
//! 2. **Replay** — each segment restores the reference and every
//!    compressed variant from its opening checkpoint and resumes the
//!    lockstep driver behind [`run_lockstep`](crate::run_lockstep) up to
//!    the next checkpoint, so stepping, fault matching and divergence
//!    reports are the monolithic runner's own.
//!
//! Segments replay in segment order and every comparison uses absolute
//! retired-instruction counts, so the verdict — down to the
//! [`DivergenceReport`](crate::DivergenceReport) field and detail
//! strings — is byte-identical to the monolithic runner's. It fails in
//! the same order too: a variant that cannot be built is a step-0
//! divergence before anything is recorded, and a reference that runs
//! out of steps is an error only once the replay of those steps found no
//! divergence. After each non-final segment the replayed reference is
//! checked against the next recorded checkpoint, so a restore that
//! silently desynchronized is caught immediately rather than surfacing
//! as a bogus divergence downstream.

use ccrp_asm::ProgramImage;
use ccrp_emu::{Checkpoint, Machine, NullSink};

use crate::cosim::{
    build_rom, disasm_window, machines, standard_variants, CosimVariant, CosimVerdict,
};
use crate::lockstep::Lockstep;

/// Outcome of one segmented lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentedVerdict {
    /// The verdict, identical to what the monolithic runner returns.
    pub verdict: CosimVerdict,
    /// Segments the run was split into: at least 1, except 0 when a
    /// variant failed to construct (a step-0 divergence), since nothing
    /// was recorded or replayed.
    pub segments: u64,
}

/// Runs the standard variant matrix for `image` in segmented form:
/// checkpoint-recording pass, then per-segment lockstep replay. `every`
/// is the checkpoint interval in retired instructions.
///
/// # Errors
///
/// The same infrastructure failures as [`run_cosim`](crate::run_cosim)
/// (compression broke, the reference faulted or exceeded `max_steps`),
/// plus those of [`run_cosim_segmented_with`].
pub fn run_cosim_segmented(
    image: &ProgramImage,
    max_steps: u64,
    every: u64,
) -> Result<SegmentedVerdict, String> {
    let rom = build_rom(image)?;
    run_cosim_segmented_with(image, standard_variants(image, &rom)?, max_steps, every)
}

/// Runs `image` on the reference machine and on each variant in
/// segmented form, as [`run_cosim_with`](crate::run_cosim_with) does
/// monolithically: checkpoint-recording pass, then per-segment lockstep
/// replay. `every` is the checkpoint interval in retired instructions.
///
/// # Errors
///
/// The monolithic runner's infrastructure failures (the reference
/// faulted identically on every variant, or exceeded `max_steps`), plus
/// `every == 0` and internal desynchronization (a replayed segment not
/// reaching the next recorded checkpoint — a checkpointing bug, not a
/// program divergence).
pub fn run_cosim_segmented_with(
    image: &ProgramImage,
    variants: Vec<CosimVariant>,
    max_steps: u64,
    every: u64,
) -> Result<SegmentedVerdict, String> {
    if every == 0 {
        return Err("checkpoint interval must be at least 1".to_string());
    }
    let (mut reference, variants) = machines(image, variants, max_steps);
    let mut lockstep = match Lockstep::new(variants, image.entry(), |pc| disasm_window(image, pc)) {
        Ok(lockstep) => lockstep,
        Err(divergence) => {
            return Ok(SegmentedVerdict {
                verdict: CosimVerdict::Divergence(divergence),
                segments: 0,
            })
        }
    };

    // Pass 1: reference-only recording. Checkpoints round-trip through
    // bytes so the serialized form is what replay actually consumes.
    // They fall strictly inside the budget, and a fault or exit ends the
    // recording: the final segment replays on to the reference's end or
    // to `max_steps`, where the driver decides the verdict.
    let mut checkpoints = vec![record_checkpoint(&reference, 0)?];
    for step in 1..max_steps {
        if reference.step(&mut NullSink).is_err() || reference.exit_code().is_some() {
            break;
        }
        if step.is_multiple_of(every) {
            checkpoints.push(record_checkpoint(&reference, checkpoints.len())?);
        }
    }
    let segments = checkpoints.len() as u64;

    // Pass 2: per-segment lockstep replay, in segment order.
    for (index, checkpoint) in checkpoints.iter().enumerate() {
        let next = checkpoints.get(index + 1);
        let until = next.map_or(max_steps, Checkpoint::steps);
        reference
            .restore(checkpoint)
            .map_err(|e| format!("segment {index}: reference restore failed: {e}"))?;
        for (label, machine) in lockstep.variants_mut() {
            machine
                .restore(checkpoint)
                .map_err(|e| format!("segment {index}: variant {label} restore failed: {e}"))?;
        }
        if let Some(verdict) = lockstep.run(&mut reference, checkpoint.steps(), until)? {
            return Ok(SegmentedVerdict { verdict, segments });
        }
        // Chain verification: the replayed reference must land exactly on
        // the next recorded checkpoint.
        if let Some(next) = next {
            if reference.arch_state() != next.arch_state() {
                return Err(format!(
                    "segment {index} replay desynchronized: state at step {until} \
                     does not match the recorded checkpoint"
                ));
            }
        }
    }
    Err(format!("reference exceeded step budget {max_steps}"))
}

/// Serializes and re-parses a checkpoint, so the recorded state replay
/// consumes has actually survived the byte format.
fn record_checkpoint(machine: &Machine, index: usize) -> Result<Checkpoint, String> {
    Checkpoint::from_bytes(&machine.checkpoint().to_bytes())
        .map_err(|e| format!("checkpoint {index} failed byte round-trip: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{run_cosim, run_cosim_with};
    use crate::progen::ProgGen;
    use ccrp::{CompressedImage, DegradePolicy};
    use ccrp_asm::assemble;

    #[test]
    fn segmented_verdict_matches_monolithic() {
        for seed in [0u64, 5, 9] {
            let image = assemble(&ProgGen::generate(seed).source()).expect("assembles");
            let monolithic = run_cosim(&image, 2_000_000).expect("monolithic runs");
            for every in [1u64, 7, 100, 1_000_000] {
                let segmented =
                    run_cosim_segmented(&image, 2_000_000, every).expect("segmented runs");
                assert_eq!(
                    segmented.verdict, monolithic,
                    "seed {seed} every {every} verdict drifted"
                );
                if let CosimVerdict::Match { instructions } = monolithic {
                    assert_eq!(segmented.segments, instructions.div_ceil(every).max(1));
                }
            }
        }
    }

    /// Both runners over the same variants: the monolithic verdict and
    /// the segmented one for each interval, which must agree exactly.
    fn both_runners(
        image: &ProgramImage,
        variants: &[CosimVariant],
        max_steps: u64,
        intervals: &[u64],
    ) -> Result<CosimVerdict, String> {
        let cloned = || {
            variants
                .iter()
                .map(|v| CosimVariant {
                    label: v.label,
                    rom: v.rom.clone(),
                    policy: v.policy,
                })
                .collect::<Vec<_>>()
        };
        let monolithic = run_cosim_with(image, cloned(), max_steps);
        for &every in intervals {
            let segmented = run_cosim_segmented_with(image, cloned(), max_steps, every)
                .map(|segmented| segmented.verdict);
            assert_eq!(segmented, monolithic, "every {every}: verdict drifted");
        }
        monolithic
    }

    #[test]
    fn corrupt_rom_divergences_match_monolithic_reports() {
        let image = assemble(&ProgGen::generate(3).source()).expect("assembles");
        let plain = build_rom(&image).expect("builds");
        let with_crcs = CompressedImage::from_bytes(&plain.to_bytes_v2()).expect("parses");
        let mut reports = Vec::new();
        for rom in [&plain, &with_crcs] {
            for line in [0, rom.line_count() - 1] {
                let mut corrupt = rom.clone();
                corrupt.corrupt_block_byte(line, 0, 0xFF).expect("corrupts");
                for policy in [
                    DegradePolicy::Abort,
                    DegradePolicy::Trap,
                    DegradePolicy::Retry { attempts: 2 },
                ] {
                    let variants = [CosimVariant {
                        label: "corrupt",
                        rom: corrupt.clone(),
                        policy,
                    }];
                    match both_runners(&image, &variants, 100_000, &[1, 13, 1_000_000]) {
                        Ok(CosimVerdict::Divergence(report)) => {
                            reports.push((report.step, report.field))
                        }
                        other => panic!("line {line} under {policy:?}: {other:?}"),
                    }
                }
            }
        }
        // Without CRC records the corrupt line decodes to wrong
        // instructions, caught where it first runs: step 1 for line 0,
        // step 481 for the last line. With them, Abort refuses to build
        // the machine and Trap and Retry fault on the line's first fetch.
        let expected = [
            (1, "$s0"),
            (1, "$s0"),
            (1, "$s0"),
            (481, "$v0"),
            (481, "$v0"),
            (481, "$v0"),
            (0, "construction"),
            (1, "fault"),
            (1, "fault"),
            (0, "construction"),
            (481, "fault"),
            (481, "fault"),
        ]
        .map(|(step, field)| (step, field.to_string()));
        assert_eq!(reports, expected);
    }

    #[test]
    fn failure_order_matches_monolithic_on_a_looping_program() {
        let image = assemble(
            "
            main:
                li    $t0, 0
                li    $t1, 0
            loop:
                addiu $t0, $t0, 1
                addu  $t1, $t1, $t0
                xor   $t2, $t0, $t1
                sll   $t3, $t2, 2
                or    $t4, $t3, $t0
                j     loop
                nop
            ",
        )
        .expect("assembles");
        assert_eq!(image.text_size(), 40, "ten instructions");
        let pristine = build_rom(&image).expect("builds");
        let mut corrupt = CompressedImage::from_bytes(&pristine.to_bytes_v2()).expect("parses");
        corrupt.corrupt_block_byte(0, 0, 0xFF).expect("corrupts");
        let variant = |policy| CosimVariant {
            label: "corrupt",
            rom: corrupt.clone(),
            policy,
        };
        // A variant that cannot be built is a step-0 divergence, found
        // before the reference could run out of steps.
        let unbuildable = both_runners(&image, &[variant(DegradePolicy::Abort)], 1_000, &[10]);
        assert!(
            matches!(&unbuildable, Ok(CosimVerdict::Divergence(r)) if r.step == 0),
            "{unbuildable:?}"
        );
        let segmented =
            run_cosim_segmented_with(&image, vec![variant(DegradePolicy::Abort)], 1_000, 10);
        assert_eq!(segmented.expect("runs").segments, 0, "nothing was recorded");
        // A variant that faults on its first fetch diverges at step 1,
        // although the reference never ends.
        let faulting = both_runners(&image, &[variant(DegradePolicy::Trap)], 1_000, &[10]);
        assert!(
            matches!(&faulting, Ok(CosimVerdict::Divergence(r)) if r.step == 1 && r.field == "fault"),
            "{faulting:?}"
        );
        // Pristine variants match every step, so the budget ends the run.
        let variants = standard_variants(&image, &pristine).expect("builds");
        assert_eq!(
            both_runners(&image, &variants, 1_000, &[10]),
            Err("reference exceeded step budget 1000".to_string())
        );
    }

    #[test]
    fn zero_interval_is_rejected() {
        let image = assemble(&ProgGen::generate(1).source()).expect("assembles");
        assert!(run_cosim_segmented(&image, 1_000, 0).is_err());
    }
}
