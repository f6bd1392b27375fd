//! Checkpointing must be observationally pure: a run that checkpoints
//! (and even hops machines at every checkpoint) retires the same
//! instructions, produces the same output, the same final architectural
//! state, and expands the same compressed-ROM lines as an unbroken run —
//! for every degradation policy, on v2 (CRC-carrying) compressed text,
//! and for checkpoint intervals spanning every-instruction to
//! almost-never.

use ccrp::{CompressedImage, DegradePolicy};
use ccrp_asm::ProgramImage;
use ccrp_difftest::{build_rom, run_cosim, run_cosim_segmented, ProgGen};
use ccrp_emu::{Checkpoint, Machine, MachineConfig, NullSink};

const BUDGET: u64 = 2_000_000;
const INTERVALS: [u64; 3] = [1, 7, 100];
const POLICIES: [DegradePolicy; 3] = [
    DegradePolicy::Abort,
    DegradePolicy::Trap,
    DegradePolicy::Retry { attempts: 2 },
];

fn config() -> MachineConfig {
    MachineConfig { max_steps: BUDGET }
}

fn fixture() -> (ProgramImage, CompressedImage) {
    let image = ccrp_asm::assemble(&ProgGen::generate(11).source()).expect("assembles");
    let rom = build_rom(&image).expect("compresses");
    let rom_v2 = CompressedImage::from_bytes(&rom.to_bytes_v2()).expect("v2 round-trips");
    (image, rom_v2)
}

/// Runs to completion, returning the final checkpoint: the architectural
/// state plus, under a demand policy, the ROM's line-expansion flags.
fn run_monolithic(
    image: &ProgramImage,
    rom: &CompressedImage,
    policy: DegradePolicy,
) -> Checkpoint {
    let mut machine =
        Machine::with_compressed_text(image, rom, policy, config()).expect("machine builds");
    while machine.exit_code().is_none() {
        machine.step(&mut NullSink).expect("program runs clean");
    }
    machine.checkpoint()
}

/// The same run, but every `every` retired instructions the machine is
/// checkpointed through the byte format and execution continues on a
/// *fresh* machine restored from those bytes — a chain of resumes.
fn run_chained(
    image: &ProgramImage,
    rom: &CompressedImage,
    policy: DegradePolicy,
    every: u64,
) -> Checkpoint {
    let mut machine =
        Machine::with_compressed_text(image, rom, policy, config()).expect("machine builds");
    while machine.exit_code().is_none() {
        machine.step(&mut NullSink).expect("program runs clean");
        if machine.exit_code().is_none() && machine.steps().is_multiple_of(every) {
            let checkpoint = Checkpoint::from_bytes(&machine.checkpoint().to_bytes())
                .expect("checkpoint bytes parse");
            let mut next = Machine::with_compressed_text(image, rom, policy, config())
                .expect("machine builds");
            next.restore(&checkpoint).expect("restore succeeds");
            machine = next;
        }
    }
    machine.checkpoint()
}

#[test]
fn chained_resume_matches_monolithic_for_all_policies_and_intervals() {
    let (image, rom_v2) = fixture();
    for policy in POLICIES {
        let monolithic = run_monolithic(&image, &rom_v2, policy);
        for every in INTERVALS {
            let chained = run_chained(&image, &rom_v2, policy, every);
            assert_eq!(
                chained, monolithic,
                "{policy:?} every {every}: final state drifted"
            );
        }
    }
}

#[test]
fn taking_checkpoints_does_not_perturb_the_probe_stream() {
    let (image, rom_v2) = fixture();
    for policy in POLICIES {
        let clean = run_monolithic(&image, &rom_v2, policy);
        // Same run, but a checkpoint is serialized every 7 instructions:
        // the final state and the expanded ROM lines must be identical.
        let mut machine = Machine::with_compressed_text(&image, &rom_v2, policy, config())
            .expect("machine builds");
        while machine.exit_code().is_none() {
            machine.step(&mut NullSink).expect("program runs clean");
            if machine.steps().is_multiple_of(7) {
                let bytes = machine.checkpoint().to_bytes();
                Checkpoint::from_bytes(&bytes).expect("checkpoint bytes parse");
            }
        }
        assert_eq!(machine.checkpoint(), clean, "{policy:?}");
    }
}

#[test]
fn segmented_cosim_matches_monolithic_across_intervals() {
    for seed in [2u64, 11] {
        let image = ccrp_asm::assemble(&ProgGen::generate(seed).source()).expect("assembles");
        let monolithic = run_cosim(&image, BUDGET).expect("monolithic runs");
        for every in INTERVALS {
            let segmented = run_cosim_segmented(&image, BUDGET, every).expect("segmented runs");
            assert_eq!(
                segmented.verdict, monolithic,
                "seed {seed} every {every}: verdict drifted"
            );
        }
    }
}
