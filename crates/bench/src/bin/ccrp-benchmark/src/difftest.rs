//! The `difftest` workload: the verification path. One operation is a
//! campaign chunk of 150 MIPS and 50 RV32 random programs, each run in
//! lockstep on the plain-ROM reference and its compressed variants.
//! Chunk `i` is seeded by `trial_seed(seed, i)`. It never touches the
//! paper suite, trace capture or replay.
//!
//! The traced run takes the same chunks apart trial by trial on one
//! thread: generate, assemble, co-simulate, build the ROM, check the
//! refill invariants — the stages `run_trial` and `run_trial_rv32`
//! compose (minus the RV32 cross-encoding re-run).

use std::time::{Duration, Instant};

use ccrp_asm::assemble;
use ccrp_bench::difftest::{self, trial_seed, DifftestIsa, DifftestOptions, DifftestReport};
use ccrp_difftest::{
    build_rom, build_rv32_rom, check_refill_invariants, run_cosim, run_rv32_cosim, CosimVerdict,
    ProgGen, TRIAL_MAX_STEPS,
};
use ccrp_rv32::progen::Rv32ProgGen;
use ccrp_rv32::Encoding;

use crate::host;
use crate::metrics::Outcome;
use crate::spans::{self, Recorder};

/// Campaign worker threads: the core count of the two-core host the
/// baseline was recorded on. Fixed so that runs on any host do the same
/// work.
const JOBS: usize = 2;
const MIPS_PROGRAMS: usize = 150;
const RV32_PROGRAMS: usize = 50;
/// Warm-up chunks (all chunk 0); their median is `setup_s`.
const WARMUPS: usize = 3;

fn campaign(seed: u64, chunk: u64, isa: DifftestIsa, programs: usize) -> DifftestReport {
    difftest::run(DifftestOptions {
        programs,
        seed: trial_seed(seed, chunk as usize),
        jobs: JOBS,
        checkpoint_every: None,
        isa,
    })
}

/// Runs chunk `chunk`; returns its wall time, the reference instructions
/// retired in lockstep, and whether every trial matched.
fn run_chunk(seed: u64, chunk: u64) -> (Duration, u64, bool) {
    let started = Instant::now();
    let mips = campaign(seed, chunk, DifftestIsa::Mips, MIPS_PROGRAMS);
    let rv32 = campaign(seed, chunk, DifftestIsa::Rv32, RV32_PROGRAMS);
    let wall = started.elapsed();
    let instructions = mips
        .trials
        .iter()
        .chain(&rv32.trials)
        .map(|t| t.instructions)
        .sum();
    for report in [&mips, &rv32] {
        if !report.acceptable() {
            eprintln!(
                "ccrp-benchmark: chunk {chunk} ({}): {}",
                report.options.isa.name(),
                report.results_json().to_compact()
            );
        }
    }
    (wall, instructions, mips.acceptable() && rv32.acceptable())
}

/// The untraced run: warm-up chunks, then chunks 1, 2, … until
/// `seconds` pass.
pub fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    for _ in 0..WARMUPS {
        let (wall, _, ok) = run_chunk(seed, 0);
        if !ok {
            return Err("the warm-up chunk did not match".into());
        }
        setup.push(wall.as_secs_f64());
    }
    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let mut reference_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut instructions = 0;
    let started = Instant::now();
    while latencies.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (wall, retired, ok) = run_chunk(seed, latencies.len() as u64 + 1);
        outcome.attempted += 1;
        outcome.failed += u64::from(!ok);
        latencies.push(wall.as_secs_f64() * 1e3);
        busy += wall;
        instructions += retired;
        reference_ms.push(crate::reference::time_ms());
    }
    let peak = host::vm_hwm_kib("self").ok_or("cannot read own VmHWM")?;
    outcome.set_end_to_end(&setup, &latencies, &reference_ms, busy, peak);
    outcome.detail(
        "lockstep_minstr_per_s",
        instructions as f64 / busy.as_secs_f64() / 1e6,
        "Minstr/s",
    );
    outcome.detail(
        "programs_per_chunk",
        (MIPS_PROGRAMS + RV32_PROGRAMS) as f64,
        "count",
    );
    outcome.detail("threads", JOBS as f64, "count");
    Ok(outcome)
}

/// Counts one traced chunk produced.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    mips_instructions: u64,
    rv32_instructions: u64,
    refills: u64,
}

/// One MIPS trial, stage by stage; `Err` describes a trial that did not
/// match.
fn mips_trial(rec: &mut Recorder, seed: u64, counts: &mut Counts) -> Result<(), String> {
    let source = rec.span("difftest.progen", |_| ProgGen::generate(seed).source());
    let image = rec
        .span("asm.assemble", |_| assemble(&source))
        .map_err(|e| e.to_string())?;
    match rec.span("difftest.cosim", |_| run_cosim(&image, TRIAL_MAX_STEPS))? {
        CosimVerdict::Match { instructions } => counts.mips_instructions += instructions,
        CosimVerdict::Divergence(report) => return Err(report.to_string()),
    }
    let rom = rec.span("compress.build_rom", |_| build_rom(&image))?;
    let timing = rec.span("difftest.invariants", |_| check_refill_invariants(&rom));
    counts.refills += timing.refills;
    if !timing.clean() {
        return Err(timing.violations.join("; "));
    }
    Ok(())
}

/// One RV32 trial (both encodings), stage by stage.
fn rv32_trial(rec: &mut Recorder, seed: u64, counts: &mut Counts) -> Result<(), String> {
    let generated = rec.span("difftest.progen", |_| Rv32ProgGen::generate(seed));
    for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
        let image = rec
            .span("rv32.assemble", |_| generated.assemble(encoding))
            .map_err(|e| e.to_string())?;
        match rec.span("rv32.cosim", |_| run_rv32_cosim(&image, TRIAL_MAX_STEPS))? {
            CosimVerdict::Match { instructions } => counts.rv32_instructions += instructions,
            CosimVerdict::Divergence(report) => return Err(report.to_string()),
        }
        let rom = rec.span("rv32.build_rom", |_| build_rv32_rom(&image))?;
        let timing = rec.span("difftest.invariants", |_| check_refill_invariants(&rom));
        counts.refills += timing.refills;
        if !timing.clean() {
            return Err(timing.violations.join("; "));
        }
    }
    Ok(())
}

/// The traced run: chunks 0, 1, … serially, trial by trial, until
/// `seconds` pass. Times are per chunk; counts are chunk 0's, so they
/// repeat exactly for a seed.
pub fn trace(seed: u64, seconds: f64) -> Result<(Outcome, Recorder), String> {
    let mut outcome = Outcome::default();
    let mut rec = Recorder::new();
    let mut first = None;
    let mut total = Counts::default();
    let started = Instant::now();
    let mut chunk = 0;
    while chunk == 0 || started.elapsed().as_secs_f64() < seconds {
        rec.set_op(chunk);
        outcome.attempted += 1;
        let chunk_seed = trial_seed(seed, chunk as usize);
        let mut counts = Counts::default();
        let mut failures = Vec::new();
        for trial in 0..MIPS_PROGRAMS {
            if let Err(e) = mips_trial(&mut rec, trial_seed(chunk_seed, trial), &mut counts) {
                failures.push(format!("mips trial {trial}: {e}"));
            }
        }
        for trial in 0..RV32_PROGRAMS {
            if let Err(e) = rv32_trial(&mut rec, trial_seed(chunk_seed, trial), &mut counts) {
                failures.push(format!("rv32 trial {trial}: {e}"));
            }
        }
        if !failures.is_empty() {
            eprintln!("ccrp-benchmark: chunk {chunk}: {}", failures.join("\n"));
            outcome.failed += 1;
        }
        first.get_or_insert(counts);
        total.mips_instructions += counts.mips_instructions;
        total.rv32_instructions += counts.rv32_instructions;
        chunk += 1;
    }
    let wall = started.elapsed();
    let first = first.expect("at least one chunk ran");

    let by_name = rec.self_ms_by_name();
    let total_ms = |name: &str| by_name.get(name).map_or(0.0, |&(ms, _)| ms);
    let per_chunk = |name: &str| total_ms(name) / chunk as f64;
    outcome.set("difftest.progen_ms", per_chunk("difftest.progen"));
    outcome.set("asm.assemble_ms", per_chunk("asm.assemble"));
    outcome.set("difftest.cosim_ms", per_chunk("difftest.cosim"));
    outcome.set(
        "difftest.cosim_us_per_instr",
        total_ms("difftest.cosim") * 1e3 / total.mips_instructions as f64,
    );
    outcome.set("compress.build_rom_ms", per_chunk("compress.build_rom"));
    outcome.set("difftest.invariants_ms", per_chunk("difftest.invariants"));
    outcome.set("rv32.assemble_ms", per_chunk("rv32.assemble"));
    outcome.set("rv32.cosim_ms", per_chunk("rv32.cosim"));
    outcome.set(
        "rv32.cosim_us_per_instr",
        total_ms("rv32.cosim") * 1e3 / total.rv32_instructions as f64,
    );
    outcome.set("rv32.build_rom_ms", per_chunk("rv32.build_rom"));
    outcome.set(
        "difftest.instructions",
        (first.mips_instructions + first.rv32_instructions) as f64,
    );
    outcome.set("core.refills", first.refills as f64);
    outcome.set(
        "trace_overhead_frac",
        rec.spans().len() as f64 * spans::per_span_cost().as_secs_f64() / wall.as_secs_f64(),
    );
    outcome.detail("chunks", chunk as f64, "count");
    Ok((outcome, rec))
}
