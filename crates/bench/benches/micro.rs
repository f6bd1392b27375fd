//! Micro-benchmarks: throughput of the building blocks (codecs, code
//! construction, refill engine, cache model, sweep kernel, emulator,
//! assembler, one differential trial and its line expansion and state
//! compare, trace capture).
//!
//! Uses a small std-only timing harness (median of timed batches after
//! warmup) because this environment has no crates.io access for an
//! external benchmark framework.

use std::sync::Arc;
use std::time::Instant;

use ccrp::{Burst, CompressedImage, MemoryTiming, RefillConfig, RefillEngine};
use ccrp_bench::capture::StreamCapture;
use ccrp_bench::difftest::trial_seed;
use ccrp_bench::experiments::perf::CACHE_SIZES;
use ccrp_compress::{
    block, bounded_lengths, lzw, traditional_lengths, BlockAlignment, ByteCode, ByteHistogram,
    LineCodec, LzwLineCodec, PositionalCode, PositionalHistogram, PAPER_MAX_LEN,
};
use ccrp_difftest::{build_rom, compare_cores, run_trial, ProgGen};
use ccrp_sim::{ICache, MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::{
    figure5_corpus, generate_text, preselected_code, CodeProfile, TracedWorkload,
};

/// Times `f` over `batches` batches of `iters_per_batch` calls (after
/// one warmup batch) and prints the median ns/call, plus MB/s when
/// `bytes_per_iter` is known.
fn bench<T>(name: &str, bytes_per_iter: Option<usize>, mut f: impl FnMut() -> T) {
    const BATCHES: usize = 7;
    let mut iters_per_batch = 1u32;
    // Grow the batch until one takes >= 2ms, so the clock resolution
    // stays well below the measurement.
    loop {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            std::hint::black_box(f());
        }
        if start.elapsed().as_micros() >= 2_000 || iters_per_batch >= 1 << 20 {
            break;
        }
        iters_per_batch *= 2;
    }
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters_per_batch)
        })
        .collect();
    per_call.sort_by(|a, b| a.total_cmp(b));
    let median = per_call[BATCHES / 2];
    match bytes_per_iter {
        Some(bytes) => {
            let mbps = bytes as f64 / median * 1_000.0;
            println!("{name:<28} {median:>12.1} ns/call {mbps:>10.1} MB/s");
        }
        None => println!("{name:<28} {median:>12.1} ns/call"),
    }
}

fn codec_benches() {
    let text = generate_text(&CodeProfile::integer(), 64 * 1024, 11);
    let hist = ByteHistogram::of(&text);
    let code = ByteCode::bounded(&hist).expect("code builds");
    let n = text.len();

    println!("-- codec ({} KiB input) --", n / 1024);
    bench("histogram", Some(n), || {
        ByteHistogram::of(std::hint::black_box(&text))
    });
    bench("bounded_code_build", None, || {
        ByteCode::bounded(std::hint::black_box(&hist)).expect("code builds")
    });
    bench("huffman_encode", Some(n), || {
        code.encode(std::hint::black_box(&text))
    });
    bench("lzw_compress", Some(n), || {
        lzw::compress(std::hint::black_box(&text))
    });
    let codec: Arc<dyn LineCodec> = Arc::new(code);
    bench("block_compress_image", Some(n), || {
        let text = std::hint::black_box(&text);
        CompressedImage::build_with_codec(0, text, Arc::clone(&codec), BlockAlignment::Word)
            .expect("builds")
    });
}

/// Figure 5's block sizing over the ten-program corpus, from encoded
/// bits alone and by building every program's image, and one LZW image
/// build.
fn block_benches() {
    let corpus = figure5_corpus();
    let code = preselected_code();
    let codec: Arc<dyn LineCodec> = Arc::new(code.clone());
    let n = corpus.iter().map(|program| program.text.len()).sum();
    println!(
        "-- block sizing ({} KiB corpus) and LZW image build --",
        n / 1024
    );
    bench("fig5_stored_size", Some(n), || {
        corpus
            .iter()
            .map(|p| block::stored_size(code, std::hint::black_box(&p.text), BlockAlignment::Byte))
            .sum::<usize>()
    });
    bench("fig5_compress_image", Some(n), || {
        corpus
            .iter()
            .map(|p| {
                let text = std::hint::black_box(&p.text);
                CompressedImage::build_with_codec(0, text, Arc::clone(&codec), BlockAlignment::Byte)
                    .expect("builds")
                    .compressed_code_bytes()
            })
            .sum::<u32>()
    });
    let text = &ccrp_bench::suite().get("espresso").workload.text;
    bench("build_lzw_espresso", Some(text.len()), || {
        CompressedImage::build_with_codec(
            0,
            std::hint::black_box(text),
            Arc::new(LzwLineCodec),
            BlockAlignment::Word,
        )
        .expect("builds")
    });
}

/// The sweep kernel over espresso's Figure 9 configs (the five cache
/// sizes at 16 CLB entries), one case per memory model.
fn sweep_benches() {
    let prepared = ccrp_bench::suite().get("espresso");
    println!("-- sweep kernel (espresso, Figure 9 configs) --");
    for memory in MemoryModel::ALL {
        let configs: Vec<SystemConfig> = CACHE_SIZES
            .iter()
            .map(|&cache_bytes| {
                SystemConfig::new()
                    .with_cache_bytes(cache_bytes)
                    .with_memory(memory)
                    .with_clb_entries(16)
            })
            .collect();
        let name = format!(
            "sweep_fig9_{}",
            memory.name().to_lowercase().replace(' ', "_")
        );
        bench(&name, None, || {
            Simulation::replay_sweep(
                &prepared.image,
                std::hint::black_box(&prepared.workload.trace),
                &configs,
            )
            .expect("replays")
        });
    }
}

fn construction_benches() {
    // The first MIPS program of `difftest` chunk 1 under seed 1, and the
    // smoothed position-3 histogram its self-trained positional code is
    // built from.
    let seed = trial_seed(trial_seed(1, 1), 0);
    let image = ccrp_asm::assemble(&ProgGen::generate(seed).source()).expect("assembles");
    let text = image.text_bytes();
    let hist = PositionalHistogram::of(text).position(3).smoothed();
    println!("-- code construction (256 symbols) and one difftest trial --");
    bench("traditional_lengths", None, || {
        traditional_lengths(std::hint::black_box(&hist)).expect("lengths build")
    });
    bench("bounded_lengths", None, || {
        bounded_lengths(std::hint::black_box(&hist), PAPER_MAX_LEN).expect("lengths build")
    });
    // The self-trained byte code `build_rom` makes: only the bytes the
    // text holds get codewords.
    let self_trained = ByteHistogram::of(text);
    bench("bounded_lengths_self_trained", None, || {
        bounded_lengths(std::hint::black_box(&self_trained), PAPER_MAX_LEN).expect("lengths build")
    });
    let lengths = bounded_lengths(&hist, PAPER_MAX_LEN).expect("lengths build");
    bench("from_lengths_smoothed", None, || {
        ByteCode::from_lengths(std::hint::black_box(lengths)).expect("code builds")
    });
    bench("progen_source", None, || {
        ProgGen::generate(std::hint::black_box(seed)).source()
    });
    bench("run_trial", None, || run_trial(std::hint::black_box(seed)));
}

fn difftest_kernel_benches() {
    // The same program: every line of its self-trained byte-code ROM
    // and of its positional ROM, expanded as a refill does, and the
    // lockstep state compare once per instruction it retires.
    let seed = trial_seed(trial_seed(1, 1), 0);
    let image = ccrp_asm::assemble(&ProgGen::generate(seed).source()).expect("assembles");
    let text = image.text_bytes();
    println!("-- difftest kernels: line expansion, lockstep compare --");
    let byte_rom = build_rom(&image).expect("builds");
    let positional = PositionalCode::preselected(&PositionalHistogram::of(text)).expect("builds");
    let positional_rom = CompressedImage::build_with_codec(
        image.text_base(),
        text,
        Arc::new(positional),
        BlockAlignment::Word,
    )
    .expect("builds");
    for (name, rom) in [
        ("expand_lines_byte_huffman", &byte_rom),
        ("expand_lines_positional", &positional_rom),
    ] {
        let lines = rom.line_count() as u32;
        bench(name, Some(lines as usize * block::LINE_SIZE), || {
            let mut out = [0u8; block::LINE_SIZE];
            for line in 0..lines {
                let address = rom.text_base() + line * block::LINE_SIZE as u32;
                rom.expand_line_into(address, &mut out).expect("expands");
            }
            out
        });
    }
    // Two machines at the program's end state, compared as many times as
    // the program retires instructions.
    let mut reference = ccrp_emu::Machine::new(&image);
    let steps = reference
        .run(&mut ccrp_emu::NullSink)
        .expect("runs")
        .instructions;
    let mut variant = ccrp_emu::Machine::new(&image);
    variant.run(&mut ccrp_emu::NullSink).expect("runs");
    println!(
        "{:<28} {steps:>12} compares per call",
        "compare_cores_difftest"
    );
    bench("compare_cores_difftest", None, || {
        (0..steps)
            .filter(|_| {
                compare_cores(
                    std::hint::black_box(&reference),
                    std::hint::black_box(&variant),
                    &[],
                    &[],
                )
                .is_some()
            })
            .count()
    });
}

fn refill_benches() {
    let text = generate_text(&CodeProfile::integer(), 16 * 1024, 12);
    let code = ByteCode::preselected(&ByteHistogram::of(&text)).expect("code builds");
    let image = CompressedImage::build(0, &text, code, BlockAlignment::Word).expect("builds");

    struct BurstEprom;
    impl MemoryTiming for BurstEprom {
        fn read_burst(&mut self, _words: u32, now: u64) -> Burst {
            Burst {
                first: now + 3,
                interval: 1,
            }
        }
    }

    println!("-- refill / cache --");
    let mut engine = RefillEngine::new(RefillConfig::default()).expect("valid config");
    let mut memory = BurstEprom;
    let mut addr = 0u32;
    bench("refill_engine_miss", None, || {
        let outcome = engine
            .refill(&image, addr, 0, &mut memory)
            .expect("in range");
        addr = (addr + 32) % (16 * 1024);
        outcome
    });

    let mut cache = ICache::new(1024).expect("valid size");
    let mut addr = 0u32;
    bench("icache_access", None, || {
        addr = addr.wrapping_add(68) & 0xFFFF;
        cache.access(addr)
    });
}

fn system_benches() {
    let workload = TracedWorkload::Eightq.build().expect("eightq builds");
    let code = ccrp_workloads::preselected_code().clone();
    let image =
        CompressedImage::build(0, &workload.text, code, BlockAlignment::Word).expect("builds");
    let config = SystemConfig::new().with_memory(MemoryModel::Eprom);

    println!("-- simulator ({} trace entries) --", workload.trace.len());
    bench("simulate_standard", None, || {
        Simulation::new(config)
            .standard(workload.trace.iter())
            .expect("simulates")
    });
    bench("simulate_ccrp", None, || {
        Simulation::new(config)
            .ccrp(&image, workload.trace.iter())
            .expect("simulates")
    });
}

fn frontend_benches() {
    let source = TracedWorkload::Eightq.source();
    println!("-- frontend --");
    bench("assemble_eightq", None, || {
        ccrp_asm::assemble(std::hint::black_box(&source)).expect("assembles")
    });
    let assemble_all = |sources: &[String]| {
        let words = sources.iter().map(|source| {
            let image = ccrp_asm::assemble(std::hint::black_box(source)).expect("assembles");
            image.text_size()
        });
        words.sum::<u32>()
    };
    let kernels: Vec<String> = TracedWorkload::ALL.iter().map(|w| w.source()).collect();
    bench("assemble_kernels", None, || assemble_all(&kernels));
    // The 150 MIPS programs of `difftest` chunk 1 under seed 1, seeded
    // as the campaign seeds them.
    let chunk_seed = trial_seed(1, 1);
    let chunk: Vec<String> = (0..150)
        .map(|trial| ProgGen::generate(trial_seed(chunk_seed, trial)).source())
        .collect();
    bench("assemble_difftest_chunk", None, || assemble_all(&chunk));
    let image = ccrp_asm::assemble(&source).expect("assembles");
    bench("emulate_eightq", None, || {
        let mut machine = ccrp_emu::Machine::new(&image);
        machine.run(&mut ccrp_emu::NullSink).expect("runs")
    });
}

/// Single-opcode MIPS loops: each body repeats one operation 16 times,
/// so the emulator's cost per operation shows through the loop's.
const MICROKERNELS: [(&str, &str); 4] = [
    (
        "emulate_addiu_chain",
        "
        main:   li    $t1, 4096
        loop:   addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t0, $t0, 1
                addiu $t1, $t1, -1
                bnez  $t1, loop
                li    $v0, 10
                syscall
        ",
    ),
    (
        // Eight words loaded and stored per pass over an 8 KiB buffer:
        // the accesses alternate between two pages' worth of data.
        "emulate_lwc1_swc1_stream",
        "
                .data
        buf:    .space 8192
                .text
        main:   li    $t2, 16
        outer:  la    $t0, buf
                li    $t1, 256
        inner:  lwc1  $f0, 0($t0)
                swc1  $f0, 4($t0)
                lwc1  $f2, 8($t0)
                swc1  $f2, 12($t0)
                lwc1  $f4, 16($t0)
                swc1  $f4, 20($t0)
                lwc1  $f6, 24($t0)
                swc1  $f6, 28($t0)
                lwc1  $f0, 4096($t0)
                swc1  $f0, 4100($t0)
                lwc1  $f2, 4104($t0)
                swc1  $f2, 4108($t0)
                lwc1  $f4, 4112($t0)
                swc1  $f4, 4116($t0)
                lwc1  $f6, 4120($t0)
                swc1  $f6, 4124($t0)
                addiu $t1, $t1, -2
                addiu $t0, $t0, 32
                bnez  $t1, inner
                addiu $t2, $t2, -1
                bnez  $t2, outer
                li    $v0, 10
                syscall
        ",
    ),
    (
        "emulate_mul_d_chain",
        "
        main:   li    $t1, 4096
                mtc1  $zero, $f0
                mtc1  $zero, $f1
                mtc1  $zero, $f2
                mtc1  $zero, $f3
        loop:   mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                mul.d $f0, $f0, $f2
                addiu $t1, $t1, -1
                bnez  $t1, loop
                li    $v0, 10
                syscall
        ",
    ),
    (
        // A taken branch and its delay slot per iteration.
        "emulate_bne_loop",
        "
        main:   li    $t1, 32768
        loop:   addiu $t1, $t1, -1
                bne   $t1, $zero, loop
                li    $v0, 10
                syscall
        ",
    ),
];

fn emulator_benches() {
    println!("-- emulator: single-opcode loops, machine set-up, streamed capture --");
    for (name, source) in MICROKERNELS {
        let image = ccrp_asm::assemble(source).expect("assembles");
        let steps = ccrp_emu::Machine::new(&image)
            .run(&mut ccrp_emu::NullSink)
            .expect("runs")
            .instructions;
        println!("{name:<28} {steps:>12} instructions per call");
        bench(name, None, || {
            let mut machine = ccrp_emu::Machine::new(std::hint::black_box(&image));
            machine.run(&mut ccrp_emu::NullSink).expect("runs")
        });
    }
    // The first MIPS program of `difftest` chunk 1 under seed 1: each
    // trial builds five machines for a program of this size.
    let seed = trial_seed(trial_seed(1, 1), 0);
    let image = ccrp_asm::assemble(&ProgGen::generate(seed).source()).expect("assembles");
    bench("machine_new_difftest", None, || {
        ccrp_emu::Machine::new(std::hint::black_box(&image))
    });
    let image = ccrp_asm::assemble(&TracedWorkload::Matrix25A.source()).expect("assembles");
    bench("stream_capture_matrix25a", None, || {
        let mut capture = StreamCapture::default();
        let mut machine = ccrp_emu::Machine::new(std::hint::black_box(&image));
        machine.run(&mut capture).expect("runs");
        capture.finish()
    });
}

fn main() {
    emulator_benches();
    codec_benches();
    block_benches();
    construction_benches();
    difftest_kernel_benches();
    refill_benches();
    sweep_benches();
    system_benches();
    frontend_benches();
}
