//! Property test for the checkpoint layer: for randomly generated
//! programs and a random retired-instruction boundary, a checkpoint
//! serialized to bytes, parsed back, and restored into a *fresh*
//! machine must run in lockstep with the uninterrupted original to
//! completion, with the full architectural state equal after every
//! single instruction.

use ccrp_difftest::ProgGen;
use ccrp_emu::{Checkpoint, Machine, MachineConfig, NullSink};
use proptest::prelude::*;

/// Generated programs retire well under this; hitting it is a bug.
const BUDGET: u64 = 2_000_000;

fn config() -> MachineConfig {
    MachineConfig { max_steps: BUDGET }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn restored_machine_runs_lockstep_to_completion(seed in 0u64..512, cut in any::<u64>()) {
        let image = ccrp_asm::assemble(&ProgGen::generate(seed).source())
            .expect("generated programs assemble");

        // Total run length, to place the boundary inside the run.
        let mut probe = Machine::with_config(&image, config());
        while probe.exit_code().is_none() {
            probe.step(&mut NullSink).expect("generated programs run clean");
        }
        let total = probe.steps();
        prop_assert!(total > 0);
        let boundary = cut % total;

        // Run the original to the boundary and checkpoint it through
        // the full byte round-trip.
        let mut original = Machine::with_config(&image, config());
        for _ in 0..boundary {
            original.step(&mut NullSink).expect("prefix runs");
        }
        let bytes = original.checkpoint().to_bytes();
        let checkpoint = Checkpoint::from_bytes(&bytes).expect("checkpoint bytes parse");
        prop_assert_eq!(checkpoint.steps(), boundary);

        let mut restored = Machine::with_config(&image, config());
        restored.restore(&checkpoint).expect("restore succeeds");
        prop_assert_eq!(restored.arch_state(), original.arch_state());

        // Lockstep to completion: full architectural state equal after
        // every instruction.
        while original.exit_code().is_none() {
            let a = original.step(&mut NullSink);
            let b = restored.step(&mut NullSink);
            prop_assert_eq!(a.is_ok(), b.is_ok());
            prop_assert_eq!(original.arch_state(), restored.arch_state());
        }
        prop_assert_eq!(original.exit_code(), restored.exit_code());
        prop_assert_eq!(original.steps(), total);
    }
}
