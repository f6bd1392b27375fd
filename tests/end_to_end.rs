//! Full-pipeline integration: source text → assembler → emulator →
//! compressor → refill engine → system simulator, with the paper's
//! headline claims checked on a fresh program none of the crates have
//! seen before.

use ccrp::{Burst, CompressedImage, MemoryTiming, RefillConfig, RefillEngine};
use ccrp_asm::assemble;
use ccrp_compress::BlockAlignment;
use ccrp_emu::{Machine, ProgramTrace};
use ccrp_sim::{DataCacheModel, MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::preselected_code;

/// A string-reverse + histogram program: branchy integer code with byte
/// loads/stores, assembled and executed from scratch.
const PROGRAM: &str = r#"
        .data
text:   .asciiz "the quick brown fox jumps over the lazy dog"
buf:    .space 64
hist:   .space 32

        .text
main:
        addiu $sp, $sp, -8
        sw    $ra, 4($sp)

        # strlen
        la    $t0, text
        li    $t1, 0
len:
        addu  $t2, $t0, $t1
        lbu   $t3, 0($t2)
        beqz  $t3, len_done
        addiu $t1, $t1, 1
        b     len
len_done:

        # reverse into buf, 200 times to build a trace
        li    $s3, 0
rounds:
        li    $t4, 0
rev:
        subu  $t5, $t1, $t4
        addiu $t5, $t5, -1
        la    $t0, text
        addu  $t6, $t0, $t5
        lbu   $t7, 0($t6)
        la    $t0, buf
        addu  $t6, $t0, $t4
        sb    $t7, 0($t6)
        addiu $t4, $t4, 1
        blt   $t4, $t1, rev
        addiu $s3, $s3, 1
        li    $t5, 200
        blt   $s3, $t5, rounds

        # histogram buf mod 8
        li    $t4, 0
histo:
        la    $t0, buf
        addu  $t6, $t0, $t4
        lbu   $t7, 0($t6)
        andi  $t7, $t7, 7
        sll   $t7, $t7, 2
        la    $t0, hist
        addu  $t6, $t0, $t7
        lw    $t8, 0($t6)
        addiu $t8, $t8, 1
        sw    $t8, 0($t6)
        addiu $t4, $t4, 1
        blt   $t4, $t1, histo

        # print first reversed char and hist[4]
        la    $t0, buf
        lbu   $a0, 0($t0)
        li    $v0, 11               # print_char
        syscall
        la    $t0, hist
        lw    $a0, 16($t0)
        li    $v0, 1
        syscall
        lw    $ra, 4($sp)
        addiu $sp, $sp, 8
        li    $v0, 10
        syscall
"#;

fn build() -> (ccrp_asm::ProgramImage, ProgramTrace, String) {
    let image = assemble(PROGRAM).expect("program assembles");
    let mut machine = Machine::new(&image);
    let mut trace = ProgramTrace::new();
    machine.run(&mut trace).expect("program runs");
    (image, trace, machine.output().to_string())
}

#[test]
fn program_behaves() {
    let (_, trace, output) = build();
    // Reversed string starts with 'g'; hist[4] counts bytes ≡ 4 (mod 8)
    // in "god yzal ...": computed by the reference implementation below.
    let text = b"the quick brown fox jumps over the lazy dog";
    let expected_hist4 = text.iter().filter(|&&b| b % 8 == 4).count();
    assert_eq!(output, format!("g{expected_hist4}"));
    assert!(trace.len() > 50_000, "trace too short: {}", trace.len());
}

#[test]
fn compressed_system_matches_paper_claims() {
    let (image, trace, _) = build();
    let code = preselected_code().clone();
    let compressed = CompressedImage::build(0, image.text_bytes(), code, BlockAlignment::Word)
        .expect("compresses");
    compressed.verify().expect("verifies");
    assert!(
        compressed.compression_ratio() < 0.9,
        "should shrink: {}",
        compressed.compression_ratio()
    );

    for memory in MemoryModel::ALL {
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(memory);
        let result = Simulation::new(config)
            .compare(&compressed, trace.iter())
            .expect("simulates");
        // Traffic always shrinks; EPROM never loses by much; fast memory
        // never wins (it can only lose time to the decoder).
        assert!(result.memory_traffic_ratio() < 1.0);
        match memory {
            MemoryModel::Eprom => assert!(result.relative_execution_time() <= 1.01),
            _ => assert!(result.relative_execution_time() >= 0.999),
        }
    }
}

#[test]
fn refill_engine_agrees_with_system_simulator() {
    // The cycles the system simulator attributes to refills must equal
    // what the refill engine reports when driven directly.
    let (image, trace, _) = build();
    let code = preselected_code().clone();
    let compressed = CompressedImage::build(0, image.text_bytes(), code, BlockAlignment::Word)
        .expect("compresses");

    let config = SystemConfig::new()
        .with_cache_bytes(256)
        .with_memory(MemoryModel::Eprom);
    let ccrp_run = Simulation::new(config)
        .ccrp(&compressed, trace.iter())
        .expect("simulates");

    // Drive the engine manually over the same miss stream.
    struct Eprom;
    impl MemoryTiming for Eprom {
        fn read_burst(&mut self, _words: u32, now: u64) -> Burst {
            Burst {
                first: now + 3,
                interval: 3,
            }
        }
    }
    let mut cache = ccrp_sim::ICache::new(256).expect("valid");
    let mut engine = RefillEngine::new(RefillConfig::default()).expect("valid");
    let mut memory = Eprom;
    let mut refill_cycles = 0u64;
    let mut cycle = 0u64;
    for (pc, _) in trace.iter() {
        cycle += 1;
        if !cache.access(pc) {
            let outcome = engine
                .refill(&compressed, pc, cycle, &mut memory)
                .expect("refills");
            refill_cycles += outcome.ready_at - cycle;
            cycle = outcome.ready_at;
        }
    }
    assert_eq!(refill_cycles, ccrp_run.refill_cycles);
    assert_eq!(cache.stats().misses, ccrp_run.cache.misses);
}

#[test]
fn standard_simulator_baseline_sanity() {
    // With a huge cache, total cycles = instructions + compulsory
    // refills + data stalls, exactly.
    let (_, trace, _) = build();
    let config = SystemConfig::new()
        .with_cache_bytes(4096)
        .with_memory(MemoryModel::BurstEprom)
        .with_dcache(DataCacheModel::NONE);
    let run = Simulation::new(config)
        .standard(trace.iter())
        .expect("simulates");
    let expected = run.instructions as f64 + (run.cache.misses * 10) as f64 + run.data_stall_cycles;
    assert_eq!(run.total_cycles(), expected);
}
