//! Functional MIPS R2000 emulator and trace capture.
//!
//! The CCRP paper's performance methodology is trace driven: the authors
//! profiled DECstation 3100 programs with `pixie` and replayed the
//! resulting instruction-address traces through a cache/memory simulator.
//! This crate is the reproduction's `pixie` + R2000: it executes images
//! assembled by [`ccrp-asm`](ccrp_asm) and records
//! [`ProgramTrace`]s for [`ccrp-sim`] to replay.
//!
//! Modeled faithfully: branch delay slots, little-endian data layout,
//! HI/LO multiply/divide, overflow traps, the R2010 FPA subset emitted by
//! 1992 compilers, and SPIM-style syscalls for I/O. Deliberately absent:
//! cycle timing (that is `ccrp-sim`'s job) and kernel mode.
//!
//! [`ccrp-sim`]: https://example.invalid/ccrp
//!
//! # Examples
//!
//! ```
//! use ccrp_asm::assemble;
//! use ccrp_emu::{Machine, ProgramTrace};
//!
//! let image = assemble("
//!     main:
//!         li   $t0, 3
//!     loop:
//!         addiu $t0, $t0, -1
//!         bnez $t0, loop
//!         li   $v0, 10
//!         syscall
//! ")?;
//! let mut trace = ProgramTrace::new();
//! Machine::new(&image).run(&mut trace)?;
//! assert!(trace.len() > 6); // loop ran three times
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod isa_core;
mod machine;
mod memory;
mod op;
mod state;
mod trace;

pub use ccrp::{BudgetExhausted, DegradePolicy, StepBudget};
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use error::EmuError;
pub use isa_core::IsaCore;
pub use machine::{Machine, MachineConfig, RunSummary, INITIAL_SP};
pub use memory::{Memory, PAGE_BYTES};
pub use state::ArchState;
pub use trace::{NullSink, ProgramTrace, TraceSink};

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_asm::assemble;

    fn run_src(src: &str) -> (Machine, RunSummary) {
        let image = assemble(src).expect("assembles");
        let mut m = Machine::new(&image);
        let summary = m.run(&mut NullSink).expect("runs");
        (m, summary)
    }

    #[test]
    fn arithmetic_loop() {
        // Sum 1..=10 = 55.
        let (m, _) = run_src(
            "
            main:
                li   $t0, 10
                li   $t1, 0
            loop:
                addu $t1, $t1, $t0
                addiu $t0, $t0, -1
                bnez $t0, loop
                li   $v0, 1
                move $a0, $t1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "55");
    }

    #[test]
    fn delay_slot_executes_before_branch_target() {
        let (m, _) = run_src(
            "
            .set noreorder
            main:
                li   $t0, 0
                b    after
                addiu $t0, $t0, 1    # delay slot: must execute
                addiu $t0, $t0, 100  # skipped
            after:
                move $a0, $t0
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
                nop
            ",
        );
        assert_eq!(m.output(), "1");
    }

    #[test]
    fn jal_links_past_delay_slot() {
        let (m, _) = run_src(
            "
            .set noreorder
            main:
                jal  func
                li   $t5, 7          # delay slot
                move $a0, $t5
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
                nop
            func:
                jr   $ra
                nop
            ",
        );
        assert_eq!(m.output(), "7");
    }

    #[test]
    fn function_call_with_stack() {
        // Recursive factorial(6) = 720 through the standard calling
        // convention.
        let (m, _) = run_src(
            "
            main:
                li   $a0, 6
                jal  fact
                move $a0, $v0
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            fact:
                addiu $sp, $sp, -8
                sw   $ra, 4($sp)
                sw   $a0, 0($sp)
                li   $v0, 1
                blez $a0, done
                addiu $a0, $a0, -1
                jal  fact
                lw   $a0, 0($sp)
                mult $v0, $a0
                mflo $v0
            done:
                lw   $ra, 4($sp)
                addiu $sp, $sp, 8
                jr   $ra
            ",
        );
        assert_eq!(m.output(), "720");
    }

    #[test]
    fn memory_and_strings() {
        let (m, _) = run_src(
            r#"
            .data
            msg: .asciiz "hi "
            buf: .space 4
            .text
            main:
                li  $v0, 4
                la  $a0, msg
                syscall
                la  $t0, buf
                li  $t1, 0x216B6F21   # LE bytes: 21 6F 6B 21
                sw  $t1, 0($t0)
                lb  $a0, 2($t0)       # 'k' = 0x6B
                li  $v0, 11
                syscall
                li  $v0, 10
                syscall
            "#,
        );
        assert_eq!(m.output(), "hi k");
    }

    #[test]
    fn signed_and_unsigned_compares() {
        let (m, _) = run_src(
            "
            main:
                li   $t0, -1
                li   $t1, 1
                slt  $t2, $t0, $t1      # signed: -1 < 1 -> 1
                sltu $t3, $t0, $t1      # unsigned: 0xFFFFFFFF < 1 -> 0
                sll  $t2, $t2, 1
                or   $a0, $t2, $t3      # 2
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "2");
    }

    #[test]
    fn hi_lo_multiply_divide() {
        let (m, _) = run_src(
            "
            main:
                li   $t0, 100000
                li   $t1, 100000
                multu $t0, $t1         # 10^10 = 0x2540BE400
                mfhi $a0               # 2
                li   $v0, 1
                syscall
                li   $t2, 47
                li   $t3, 10
                div  $t2, $t3
                mflo $a0               # 4
                li   $v0, 1
                syscall
                mfhi $a0               # 7
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "247");
    }

    #[test]
    fn floating_point_basics() {
        let (m, _) = run_src(
            "
            .data
            two:  .word 0            # placeholder
            .text
            main:
                li   $t0, 3
                mtc1 $t0, $f0
                cvt.d.w $f2, $f0      # 3.0
                li   $t0, 4
                mtc1 $t0, $f0
                cvt.d.w $f4, $f0      # 4.0
                mul.d $f6, $f2, $f4   # 12.0
                add.d $f6, $f6, $f2   # 15.0
                cvt.w.d $f8, $f6
                mfc1 $a0, $f8
                li   $v0, 1
                syscall
                c.lt.d $f2, $f4
                bc1t yes
                li   $a0, 0
                b    print
            yes:
                li   $a0, 1
            print:
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "151");
    }

    #[test]
    fn unaligned_word_with_lwl_lwr() {
        let (m, _) = run_src(
            "
            .data
            buf: .byte 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77
            .text
            main:
                la   $t0, buf
                .set noreorder
                lwr  $t1, 1($t0)
                lwl  $t1, 4($t0)     # word at buf+1 = 0x44332211
                .set reorder
                srl  $a0, $t1, 24    # 0x44 = 68
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "68");
    }

    #[test]
    fn jump_table_dispatch() {
        let (m, _) = run_src(
            "
            main:
                li   $t0, 2
                sll  $t0, $t0, 2
                la   $t1, table
                addu $t1, $t1, $t0
                lw   $t2, 0($t1)
                jr   $t2
            case0: li $a0, 10
                   b  print
            case1: li $a0, 20
                   b  print
            case2: li $a0, 30
                   b  print
            print:
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            table: .word case0, case1, case2
            ",
        );
        assert_eq!(m.output(), "30");
    }

    #[test]
    fn traps_are_reported() {
        let image = assemble("main: li $t0, 1\n li $t1, 0\n div $t0, $t1").unwrap();
        let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::DivideByZero { .. }));

        let image =
            assemble("main: lui $t0, 0x7FFF\n ori $t0, $t0, 0xFFFF\n add $t0, $t0, $t0").unwrap();
        let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::ArithmeticOverflow { .. }));

        let image = assemble("main: li $t0, 2\n lw $t1, 1($t0)").unwrap();
        let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::UnalignedAccess { align: 4, .. }));

        let image = assemble("main: li $t0, 0x00E00000\n lw $t1, 0($t0)").unwrap();
        let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::UnmappedRead { .. }));

        let image = assemble("main: break 3").unwrap();
        let err = Machine::new(&image).run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::BreakTrap { code: 3, .. }));
    }

    #[test]
    fn step_limit_enforced() {
        let image = assemble("main: b main").unwrap();
        let mut m = Machine::with_config(&image, MachineConfig { max_steps: 100 });
        let err = m.run(&mut NullSink).unwrap_err();
        assert!(matches!(err, EmuError::StepLimitExceeded { limit: 100 }));
    }

    #[test]
    fn step_budget_bounds_runaway_program() {
        let image = assemble("main: b main").unwrap();
        let mut m = Machine::new(&image);
        let mut budget = StepBudget::limited(50);
        let err = m.run_budgeted(&mut NullSink, &mut budget).unwrap_err();
        assert!(matches!(
            err,
            EmuError::BudgetExhausted {
                steps: 50,
                cancelled: false
            }
        ));
        assert_eq!(m.steps(), 50);
    }

    #[test]
    fn step_budget_is_invisible_when_sufficient() {
        let src = "
            main:
                li   $t0, 10
                li   $t1, 0
            loop:
                addu $t1, $t1, $t0
                addiu $t0, $t0, -1
                bnez $t0, loop
                li   $v0, 10
                syscall
            ";
        let (_, plain) = run_src(src);
        let image = assemble(src).expect("assembles");
        let mut m = Machine::new(&image);
        let mut budget = StepBudget::limited(1_000_000);
        let budgeted = m.run_budgeted(&mut NullSink, &mut budget).expect("runs");
        assert_eq!(budgeted, plain);
        assert_eq!(budget.spent(), budgeted.instructions);
    }

    #[test]
    fn cancellation_flag_stops_the_run() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let image = assemble("main: b main").unwrap();
        let mut m = Machine::new(&image);
        let flag = Arc::new(AtomicBool::new(true));
        let mut budget = StepBudget::unlimited().with_cancel(flag);
        let err = m.run_budgeted(&mut NullSink, &mut budget).unwrap_err();
        assert!(matches!(
            err,
            EmuError::BudgetExhausted {
                cancelled: true,
                ..
            }
        ));
        // A raised flag is observed within one poll interval.
        assert!(m.steps() < 1024);
    }

    #[test]
    fn zero_register_is_immutable() {
        let (m, _) = run_src(
            "
            main:
                li   $t0, 9
                addu $zero, $t0, $t0
                move $a0, $zero
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "0");
    }

    #[test]
    fn trace_capture_matches_counts() {
        let image = assemble(
            "
            main:
                li   $t0, 4
                sw   $t0, -4($sp)
                lw   $t1, -4($sp)
                li   $v0, 10
                syscall
            ",
        )
        .unwrap();
        let mut trace = ProgramTrace::new();
        let mut m = Machine::new(&image);
        let summary = m.run(&mut trace).unwrap();
        assert_eq!(trace.len() as u64, summary.instructions);
        assert_eq!(trace.data_accesses(), 2);
        // all fetches inside text
        for (pc, _) in trace.iter() {
            assert!(pc < image.text_size());
        }
    }

    #[test]
    fn read_int_input_queue() {
        let image = assemble(
            "
            main:
                li  $v0, 5
                syscall
                move $a0, $v0
                li  $v0, 1
                syscall
                li  $v0, 10
                syscall
            ",
        )
        .unwrap();
        let mut m = Machine::new(&image);
        m.push_input([42]);
        m.run(&mut NullSink).unwrap();
        assert_eq!(m.output(), "42");
    }

    #[test]
    fn exit2_code_propagates() {
        let (_, summary) = run_src("main: li $a0, 3\n li $v0, 17\n syscall");
        assert_eq!(summary.exit_code, 3);
    }

    #[test]
    fn sbrk_allocates_readable_memory() {
        let (m, _) = run_src(
            "
            main:
                li  $a0, 4096
                li  $v0, 9
                syscall
                lw  $t0, 0($v0)     # freshly sbrk'd memory reads as 0
                move $a0, $t0
                li  $v0, 1
                syscall
                li  $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "0");
    }

    #[test]
    fn swl_swr_store_unaligned() {
        let (m, _) = run_src(
            "
            .data
            buf: .space 8
            .text
            main:
                la   $t0, buf
                li   $t1, 0x44332211
                .set noreorder
                swr  $t1, 1($t0)
                swl  $t1, 4($t0)
                lwr  $t2, 1($t0)
                lwl  $t2, 4($t0)
                .set reorder
                bne  $t1, $t2, bad
                li   $a0, 1
                b    print
            bad:
                li   $a0, 0
            print:
                li   $v0, 1
                syscall
                li   $v0, 10
                syscall
            ",
        );
        assert_eq!(m.output(), "1");
    }
}

#[cfg(test)]
mod compressed_rom_tests {
    use super::*;
    use ccrp::{CompressedImage, DegradePolicy};
    use ccrp_asm::{assemble, ProgramImage};
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    const SUM_SRC: &str = "
        main:
            li   $t0, 10
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            li   $v0, 1
            move $a0, $t1
            syscall
            li   $v0, 10
            syscall
        ";

    fn rom_for(image: &ProgramImage) -> CompressedImage {
        let code = ByteCode::preselected(&ByteHistogram::of(image.text_bytes())).unwrap();
        CompressedImage::build(
            image.text_base(),
            image.text_bytes(),
            code,
            BlockAlignment::Word,
        )
        .unwrap()
    }

    #[test]
    fn compressed_rom_matches_plain_execution() {
        let image = assemble(SUM_SRC).unwrap();
        let mut plain = Machine::new(&image);
        let plain_summary = plain.run(&mut NullSink).unwrap();
        let rom = rom_for(&image);
        for policy in [
            DegradePolicy::Abort,
            DegradePolicy::Trap,
            DegradePolicy::Retry { attempts: 2 },
        ] {
            let mut m =
                Machine::with_compressed_text(&image, &rom, policy, MachineConfig::default())
                    .unwrap();
            let summary = m.run(&mut NullSink).unwrap();
            assert_eq!(m.output(), plain.output(), "{policy:?}");
            assert_eq!(summary, plain_summary, "{policy:?}");
        }
    }

    #[test]
    fn abort_policy_fails_at_construction() {
        let image = assemble(SUM_SRC).unwrap();
        let mut rom = rom_for(&image);
        rom.attach_block_crcs();
        rom.corrupt_block_byte(0, 0, 0x08).unwrap();
        assert!(matches!(
            Machine::with_compressed_text(
                &image,
                &rom,
                DegradePolicy::Abort,
                MachineConfig::default()
            ),
            Err(EmuError::MachineCheck { pc: 0 })
        ));
    }

    #[test]
    fn trap_policy_machine_checks_at_first_corrupt_fetch() {
        let image = assemble(SUM_SRC).unwrap();
        let mut rom = rom_for(&image);
        rom.attach_block_crcs();
        rom.corrupt_block_byte(0, 0, 0x08).unwrap();
        // Construction succeeds; the fault surfaces at the fetch.
        let mut m = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Trap,
            MachineConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            m.run(&mut NullSink),
            Err(EmuError::MachineCheck { pc: 0 })
        ));
    }

    #[test]
    fn retry_policy_exhausts_on_persistent_corruption() {
        let image = assemble(SUM_SRC).unwrap();
        let mut rom = rom_for(&image);
        rom.attach_block_crcs();
        rom.corrupt_block_byte(0, 0, 0x08).unwrap();
        let mut m = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Retry { attempts: 3 },
            MachineConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            m.run(&mut NullSink),
            Err(EmuError::MachineCheck { .. })
        ));
    }

    /// Records every fetched program counter.
    #[derive(Default)]
    struct FetchedPcs(Vec<u32>);

    impl TraceSink for FetchedPcs {
        fn instruction(&mut self, pc: u32) {
            self.0.push(pc);
        }
        fn data_access(&mut self, _addr: u32, _store: bool) {}
    }

    #[test]
    fn demand_expansion_marks_exactly_the_fetched_lines() {
        // The branch skips line 1 whole: lines 0 and 2 run, line 1 never
        // expands.
        let image = assemble("main: b over\n .space 64\n over: li $v0, 10\n syscall").unwrap();
        let rom = rom_for(&image);
        let mut m = Machine::with_compressed_text(
            &image,
            &rom,
            DegradePolicy::Trap,
            MachineConfig::default(),
        )
        .unwrap();
        let mut fetched = FetchedPcs::default();
        let summary = m.run(&mut fetched).unwrap();
        let mut plain = Machine::new(&image);
        assert_eq!(plain.run(&mut NullSink).unwrap(), summary);

        let expanded = m.checkpoint().rom_expanded.expect("demand ROM flags");
        let mut wanted = vec![false; rom.line_count()];
        for pc in fetched.0 {
            wanted[((pc - image.text_base()) / 32) as usize] = true;
        }
        assert_eq!(wanted, [true, false, true]);
        assert_eq!(expanded, wanted);
    }

    #[test]
    fn trap_and_retry_machine_check_at_the_same_step() {
        // A corrupt second line: both machines run line 0, then fail on
        // the first fetch from line 1 with identical state.
        let image = assemble(SUM_SRC).unwrap();
        let mut rom = rom_for(&image);
        rom.attach_block_crcs();
        rom.corrupt_block_byte(1, 0, 0x08).unwrap();
        let line1 = image.text_base() + 32;
        let mut finals = Vec::new();
        for policy in [DegradePolicy::Trap, DegradePolicy::Retry { attempts: 3 }] {
            let mut m =
                Machine::with_compressed_text(&image, &rom, policy, MachineConfig::default())
                    .unwrap();
            assert_eq!(
                m.run(&mut NullSink),
                Err(EmuError::MachineCheck { pc: line1 }),
                "{policy:?}"
            );
            assert!(m.steps() > 0, "{policy:?}");
            finals.push(m.checkpoint());
        }
        // Equal checkpoints: the same step count, architectural state
        // and expanded lines.
        assert_eq!(finals[0], finals[1]);
    }

    #[test]
    fn fetch_faults_match_on_plain_and_rom_machines() {
        // The assembler fills each jump's delay slot with a `nop`.
        let cases = [
            ("main: li $t0, 2\n jr $t0", EmuError::BadFetch { pc: 2 }, 3),
            ("main: jr $ra", EmuError::BadFetch { pc: 0x00FF_FFF0 }, 2),
            (
                "main: nop\n nop\n j bad\n nop\n bad: .word 0xFFFFFFFF",
                EmuError::IllegalInstruction {
                    pc: 20,
                    word: 0xFFFF_FFFF,
                },
                4,
            ),
        ];
        for (src, expected, steps) in cases {
            let image = assemble(src).unwrap();
            let rom = rom_for(&image);
            let rom_machine = |policy| {
                Machine::with_compressed_text(&image, &rom, policy, MachineConfig::default())
                    .unwrap()
            };
            let machines = [
                ("plain", Machine::new(&image)),
                ("abort", rom_machine(DegradePolicy::Abort)),
                ("trap", rom_machine(DegradePolicy::Trap)),
            ];
            for (kind, mut m) in machines {
                assert_eq!(m.run(&mut NullSink), Err(expected), "{src:?} ({kind})");
                assert_eq!(m.steps(), steps, "{src:?} ({kind})");
            }
        }
    }

    #[test]
    fn mismatched_rom_rejected() {
        let image = assemble(SUM_SRC).unwrap();
        let other = assemble("main: li $v0, 10\n syscall").unwrap();
        let rom = rom_for(&other);
        // Too small to cover the program's text.
        assert!(matches!(
            Machine::with_compressed_text(
                &image,
                &rom,
                DegradePolicy::Abort,
                MachineConfig::default()
            ),
            Err(EmuError::RomMismatch)
        ));
    }
}
