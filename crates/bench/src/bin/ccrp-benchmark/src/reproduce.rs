//! The `reproduce` workload: one cold reproduction of the paper as a user
//! runs it — three `ccrp-tools sweep` processes writing into a fresh
//! directory — checked against the committed results files.
//!
//! The traced run repeats the same reproduction in-process, with a span
//! around each sweep and matrix, then takes every stage apart serially:
//! assemble, emulate, pad, build each codec's image and expand it,
//! capture the fetch trace and replay it, build the RV32 workloads.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ccrp::CompressedImage;
use ccrp_asm::assemble;
use ccrp_bench::codecs::{self, codec_instance, CodecsOptions};
use ccrp_bench::experiments::perf::CACHE_SIZES;
use ccrp_bench::isa_compare::{self, IsaCompareOptions};
use ccrp_bench::json::Json;
use ccrp_bench::{render, runner, Engine, Experiment, Suite, SweepOptions, SweepReport, ToJson};
use ccrp_compress::{BlockAlignment, CodecId};
use ccrp_emu::{Machine, NullSink, ProgramTrace};
use ccrp_rv32::workloads::Rv32Workload;
use ccrp_rv32::Rv32Machine;
use ccrp_sim::{AccessTrace, Comparison, MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::TracedWorkload;

use crate::host::{self, PeakPoller};
use crate::metrics::Outcome;
use crate::oracle;
use crate::spans::{self, Recorder};
use crate::stats;

/// Sweep workers per reproduction, in the `ccrp-tools` processes and in
/// the traced pass alike. One, not one per core: on the two-core host,
/// two sweep workers beside the memory poller and the system made the
/// reproduction time half again as noisy from one operation to the next.
const JOBS: usize = 1;
/// Results files that must reproduce the committed copies at the root.
const COMMITTED: [&str; 4] = ["fig5", "tables1_8", "codecs", "isa_compare"];
/// Results files with no committed copy: checked against the first
/// warm-up operation's output.
const FROM_WARMUP: [&str; 3] = ["tables9_10", "fig9", "tables11_13"];
/// Operations run before measuring; their median is `setup_s`.
const WARMUPS: usize = 3;

type Documents = Vec<(&'static str, Json)>;

fn results_file(name: &str) -> String {
    format!("BENCH_{name}.json")
}

/// Runs one reproduction into `dir`, which the harness creates because
/// `sweep` refuses a missing `--out`. Returns the wall time of the three
/// processes and the largest peak RSS among them, in KiB.
fn run_op(tool: &Path, dir: &Path) -> Result<(Duration, u64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let jobs = JOBS.to_string();
    let started = Instant::now();
    let mut peak = 0;
    for sweep in [
        &["--experiment", "all"][..],
        &["--codecs"],
        &["--isa-compare"],
    ] {
        let mut child = Command::new(tool)
            .arg("sweep")
            .args(sweep)
            .args(["--jobs", &jobs, "--out"])
            .arg(dir)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", tool.display()))?;
        let poller = PeakPoller::start(child.id());
        let status = child.wait();
        peak = peak.max(poller.finish());
        let status = status.map_err(|e| format!("waiting for ccrp-tools: {e}"))?;
        if !status.success() {
            return Err(format!(
                "ccrp-tools sweep {} exited with {status}",
                sweep.join(" ")
            ));
        }
    }
    Ok((started.elapsed(), peak))
}

fn committed() -> Result<Documents, String> {
    let root = host::repo_root();
    COMMITTED
        .iter()
        .map(|&name| Ok((name, oracle::load(&root.join(results_file(name)))?)))
        .collect()
}

fn outputs(dir: &Path) -> Result<Documents, String> {
    COMMITTED
        .iter()
        .chain(&FROM_WARMUP)
        .map(|&name| Ok((name, oracle::load(&dir.join(results_file(name)))?)))
        .collect()
}

/// Checks every document of `actual` that `reference` holds.
fn check(reference: &Documents, actual: &Documents) -> Result<(), String> {
    for (name, expected) in reference {
        let Some((_, doc)) = actual.iter().find(|(n, _)| n == name) else {
            return Err(format!("{} is missing", results_file(name)));
        };
        let differing = oracle::differing_sections(expected, doc);
        if !differing.is_empty() {
            return Err(format!(
                "{} differs in {}",
                results_file(name),
                differing.join(", ")
            ));
        }
    }
    Ok(())
}

/// Runs `count` untraced reproductions, checking each. The first one's
/// outputs complete `reference`. Returns each operation's wall time.
fn warm_up(
    tool: &Path,
    scratch: &Path,
    reference: &mut Documents,
    count: usize,
) -> Result<Vec<f64>, String> {
    let mut walls = Vec::new();
    for index in 0..count {
        let dir = scratch.join(format!("warmup-{index}"));
        let (wall, _) = run_op(tool, &dir)?;
        walls.push(wall.as_secs_f64());
        let docs = outputs(&dir)?;
        if index == 0 {
            for (name, doc) in &docs {
                if FROM_WARMUP.contains(name) {
                    reference.push((name, doc.clone()));
                }
            }
        }
        check(reference, &docs).map_err(|e| format!("warm-up reproduction: {e}"))?;
        remove(&dir);
    }
    Ok(walls)
}

fn remove(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("ccrp-benchmark: cannot remove {}: {e}", dir.display());
    }
}

fn number(value: &Json) -> Option<f64> {
    match value {
        Json::F64(x) => Some(*x),
        Json::U64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Geometric mean of CCRP/standard time over the Tables 1–8 cells.
fn rel_time_geomean(docs: &Documents) -> Option<f64> {
    let (_, tables) = docs.iter().find(|(n, _)| *n == "tables1_8")?;
    let Json::Arr(workloads) = tables.get("results")? else {
        return None;
    };
    let mut logs = Vec::new();
    for workload in workloads {
        let Json::Arr(rows) = workload.get("rows")? else {
            return None;
        };
        for row in rows {
            logs.push(number(row.get("relative_performance")?)?.ln());
        }
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Figure 5's weighted-average preselected stored/original ratio.
fn rom_ratio(docs: &Documents) -> Option<f64> {
    let (_, fig5) = docs.iter().find(|(n, _)| *n == "fig5")?;
    let pct = number(
        fig5.get("results")?
            .get("weighted_average")?
            .get("preselected_pct")?,
    )?;
    Some(pct / 100.0)
}

/// The untraced run: warm-ups, then reproductions until `seconds` pass.
pub fn measure(seconds: f64) -> Result<Outcome, String> {
    let tool = host::build_tool()?;
    let scratch = host::scratch_dir("reproduce")?;
    let mut reference = committed()?;
    let setup = warm_up(&tool, &scratch, &mut reference, WARMUPS)?;

    let mut outcome = Outcome::default();
    let mut latencies = Vec::new();
    let mut reference_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut peak = 0;
    let started = Instant::now();
    while outcome.attempted == 0 || started.elapsed().as_secs_f64() < seconds {
        let dir = scratch.join(format!("op-{}", outcome.attempted));
        outcome.attempted += 1;
        let result = run_op(&tool, &dir).and_then(|(wall, kib)| {
            latencies.push(wall.as_secs_f64() * 1e3);
            busy += wall;
            peak = peak.max(kib);
            check(&reference, &outputs(&dir)?)
        });
        if let Err(e) = result {
            eprintln!(
                "ccrp-benchmark: reproduction {} failed: {e}",
                outcome.attempted
            );
            outcome.failed += 1;
        }
        remove(&dir);
        reference_ms.push(crate::reference::time_ms());
    }
    remove(&scratch);
    if latencies.is_empty() {
        return Err("no reproduction completed".into());
    }

    outcome.set_end_to_end(&setup, &latencies, &reference_ms, busy, peak);
    let geomean = rel_time_geomean(&reference).ok_or("tables1_8 has no relative times")?;
    let ratio = rom_ratio(&reference).ok_or("fig5 has no weighted average")?;
    outcome.detail("rel_time_geomean", geomean, "ratio");
    outcome.detail("rom_ratio", ratio, "ratio");
    outcome.detail("threads", JOBS as f64, "count");
    Ok(outcome)
}

/// Work the serial stage pass counted, for the per-layer rates.
#[derive(Debug, Default)]
struct Tally {
    mips_instructions: u64,
    rv32_instructions: u64,
    text_bytes: u64,
    lines: [u64; 3],
    fetches: u64,
    runs: u64,
    runs_replayed: u64,
}

/// The Figure 9 configuration set: every memory model × every cache
/// size, in the runner's cell order.
fn fig9_configs() -> Vec<SystemConfig> {
    MemoryModel::ALL
        .into_iter()
        .flat_map(|memory| {
            CACHE_SIZES.map(|cache| {
                SystemConfig::new()
                    .with_cache_bytes(cache)
                    .with_memory(memory)
            })
        })
        .collect()
}

fn expand_all(image: &CompressedImage) -> Result<Vec<u8>, String> {
    let mut out = vec![0u8; image.line_count() * 32];
    for (index, line) in out.chunks_exact_mut(32).enumerate() {
        let line: &mut [u8; 32] = line.try_into().expect("chunks are 32 bytes");
        image
            .expand_line_into(index as u32 * 32, line)
            .map_err(|e| format!("line {index}: {e}"))?;
    }
    Ok(out)
}

/// Takes every host stage apart, one workload at a time on this thread,
/// and checks each stage's output.
fn stage_pass(
    rec: &mut Recorder,
    suite: &Suite,
    fig9: &SweepReport,
    tally: &mut Tally,
) -> Result<(), String> {
    let configs = fig9_configs();
    for (index, wl) in TracedWorkload::ALL.into_iter().enumerate() {
        let name = wl.name();
        let source = wl.source();
        let image = rec
            .span("asm.assemble", |_| assemble(&source))
            .map_err(|e| format!("{name}: {e}"))?;
        let (trace, output) = rec
            .span("emu.emulate", |_| {
                let mut trace = ProgramTrace::new();
                let mut machine = Machine::new(&image);
                machine
                    .run(&mut trace)
                    .map(|_| (trace, machine.output().to_string()))
            })
            .map_err(|e| format!("{name}: {e}"))?;
        if output != wl.expected_output() {
            return Err(format!("{name} printed {output:?}"));
        }
        tally.mips_instructions += trace.len() as u64;
        let text = rec
            .span("workloads.padded_text", |_| wl.padded_text())
            .map_err(|e| format!("{name}: {e}"))?;
        if text != suite.get(name).workload.text {
            return Err(format!("{name}: padded text differs from the suite's"));
        }

        let mut byte_huffman = None;
        for (slot, id) in CodecId::ALL.into_iter().enumerate() {
            let image = rec
                .span(format!("compress.build_image.{}", id.name()), |_| {
                    CompressedImage::build_with_codec(
                        0,
                        &text,
                        codec_instance(id),
                        BlockAlignment::Word,
                    )
                })
                .map_err(|e| format!("{name} under {id}: {e}"))?;
            let expanded = rec.span(format!("compress.expand.{}", id.name()), |_| {
                expand_all(&image)
            })?;
            if expanded[..text.len()] != text[..] {
                return Err(format!("{name} does not expand back under {id}"));
            }
            tally.lines[slot] += image.line_count() as u64;
            if id == CodecId::ByteHuffman {
                tally.text_bytes += text.len() as u64;
                byte_huffman = Some(image);
            }
        }
        let image = byte_huffman.expect("CodecId::ALL includes byte-huffman");

        let access = rec.span("sim.capture", |_| AccessTrace::capture(trace.iter()));
        tally.fetches += access.fetches();
        tally.runs += access.runs().len() as u64;
        let replayed = rec
            .span("sim.replay", |_| {
                Simulation::replay_sweep(&image, &access, &configs)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        tally.runs_replayed += (access.runs().len() * configs.len()) as u64;
        let swept: Vec<Comparison> = fig9.cells[index * configs.len()..][..configs.len()]
            .iter()
            .filter_map(|cell| cell.comparison)
            .collect();
        if replayed != swept {
            return Err(format!("{name}: replay disagrees with the Figure 9 sweep"));
        }
    }

    for wl in Rv32Workload::ALL {
        let name = wl.name();
        let built = rec
            .span("rv32.build", |_| wl.build())
            .map_err(|e| format!("rv32 {name}: {e}"))?;
        for image in [&built.image_i, &built.image_c] {
            let (steps, output) = rec
                .span("rv32.emulate", |_| {
                    let mut machine = Rv32Machine::new(image);
                    machine
                        .run(&mut NullSink)
                        .map(|()| (machine.steps(), machine.output().to_string()))
                })
                .map_err(|e| format!("rv32 {name}: {e}"))?;
            if output != built.output {
                return Err(format!("rv32 {name} printed {output:?}"));
            }
            tally.rv32_instructions += steps;
        }
    }
    Ok(())
}

/// The traced run: untraced reproductions for the process-overhead
/// baseline, then in-process reproductions and stage passes until
/// `seconds` pass.
pub fn trace(seconds: f64) -> Result<(Outcome, Recorder), String> {
    const BASELINE_OPS: usize = 3;
    let tool = host::build_tool()?;
    let scratch = host::scratch_dir("reproduce-trace")?;
    let mut reference = committed()?;
    let process_walls = warm_up(&tool, &scratch, &mut reference, BASELINE_OPS)?;
    remove(&scratch);

    let mut outcome = Outcome::default();
    let mut rec = Recorder::new();
    let started = Instant::now();
    let suite = rec.span("bench.suite_build", |_| ccrp_bench::suite_with_jobs(JOBS));
    let sweep_options = SweepOptions {
        jobs: JOBS,
        metrics: false,
        engine: Engine::Trace,
    };
    let mut tally = Tally::default();
    let mut pass = 0;
    while pass == 0 || started.elapsed().as_secs_f64() < seconds {
        rec.set_op(pass);
        outcome.attempted += 1;
        let reports: Vec<SweepReport> = Experiment::ALL
            .into_iter()
            .map(|e| {
                rec.span(format!("bench.sweep.{}", e.name()), |_| {
                    runner::run(e, &sweep_options)
                })
            })
            .collect();
        let codecs = rec.span("bench.codecs", |_| {
            codecs::run(CodecsOptions { jobs: JOBS })
        });
        let isa = rec.span("bench.isa_compare", |_| {
            isa_compare::run(IsaCompareOptions { jobs: JOBS })
        });
        let written: Vec<(&'static str, String)> = rec.span("bench.render", |_| {
            let mut written: Vec<(&'static str, String)> = reports
                .iter()
                .map(|report| {
                    std::hint::black_box(render::report(report));
                    (report.experiment.name(), report.to_json().to_pretty())
                })
                .collect();
            written.push(("codecs", codecs.to_json().to_pretty()));
            written.push(("isa_compare", isa.to_json().to_pretty()));
            written
        });

        let docs = written
            .iter()
            .map(|(name, text)| Ok((*name, oracle::deterministic(text)?)))
            .collect::<Result<Documents, String>>()?;
        let fig9 = reports
            .iter()
            .find(|r| r.experiment == Experiment::Fig9)
            .expect("Experiment::ALL includes fig9");
        let result =
            check(&reference, &docs).and_then(|()| stage_pass(&mut rec, suite, fig9, &mut tally));
        if let Err(e) = result {
            eprintln!("ccrp-benchmark: traced reproduction {pass} failed: {e}");
            outcome.failed += 1;
        }
        if pass == 0 {
            record_model_counts(&mut outcome, &reports, &docs)?;
        }
        pass += 1;
    }
    let wall = started.elapsed();

    let by_name = rec.self_ms_by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |&(ms, _)| ms);
    let per_op = |name: &str| by_name.get(name).map_or(0.0, |&(ms, ops)| ms / ops as f64);
    let mut in_process = per_op("bench.suite_build");
    for experiment in Experiment::ALL {
        let ms = per_op(&format!("bench.sweep.{}", experiment.name()));
        outcome.set(&format!("bench.sweep.{}_ms", experiment.name()), ms);
        in_process += ms;
    }
    in_process += per_op("bench.codecs") + per_op("bench.isa_compare");
    outcome.set("bench.suite_build_ms", per_op("bench.suite_build"));
    outcome.set("bench.codecs_ms", per_op("bench.codecs"));
    outcome.set("bench.isa_compare_ms", per_op("bench.isa_compare"));
    outcome.set("bench.render_ms", per_op("bench.render"));
    let process_ms: Vec<f64> = process_walls.iter().map(|s| s * 1e3).collect();
    outcome.set(
        "cli.process_overhead_ms",
        stats::percentile(&process_ms, 50.0) - in_process,
    );

    let rate = |count: u64, ms: f64| count as f64 / (ms / 1e3);
    outcome.set("asm.assemble_ms", per_op("asm.assemble"));
    outcome.set("emu.emulate_ms", per_op("emu.emulate"));
    outcome.set(
        "emu.minstr_per_s",
        rate(tally.mips_instructions, total("emu.emulate")) / 1e6,
    );
    outcome.set(
        "workloads.pad_text_ms",
        per_op("workloads.padded_text") - per_op("asm.assemble"),
    );
    outcome.set("rv32.build_ms", per_op("rv32.build"));
    outcome.set(
        "rv32.minstr_per_s",
        rate(tally.rv32_instructions, total("rv32.emulate")) / 1e6,
    );
    for (slot, id) in CodecId::ALL.into_iter().enumerate() {
        outcome.set(
            &format!("compress.build_image_ms.{}", id.name()),
            per_op(&format!("compress.build_image.{}", id.name())),
        );
        outcome.set(
            &format!("compress.lines_decoded_per_s.{}", id.name()),
            rate(
                tally.lines[slot],
                total(&format!("compress.expand.{}", id.name())),
            ),
        );
    }
    outcome.set(
        "compress.encode_mb_per_s",
        rate(tally.text_bytes, total("compress.build_image.byte-huffman")) / 1e6,
    );
    outcome.set("sim.capture_ms", per_op("sim.capture"));
    outcome.set(
        "sim.fetches_per_run",
        tally.fetches as f64 / tally.runs as f64,
    );
    outcome.set("sim.replay_ms", per_op("sim.replay"));
    outcome.set(
        "sim.replay_mruns_per_s",
        rate(tally.runs_replayed, total("sim.replay")) / 1e6,
    );
    outcome.set(
        "trace_overhead_frac",
        rec.spans().len() as f64 * spans::per_span_cost().as_secs_f64() / wall.as_secs_f64(),
    );
    outcome.detail("passes", pass as f64, "count");
    outcome.detail("threads", JOBS as f64, "count");
    Ok((outcome, rec))
}

/// The modelled results, which no host-only change may move: CCRP-side
/// counters summed over the Tables 1–8 cells, and the paper figures.
fn record_model_counts(
    outcome: &mut Outcome,
    reports: &[SweepReport],
    docs: &Documents,
) -> Result<(), String> {
    let tables = reports
        .iter()
        .find(|r| r.experiment == Experiment::Tables1To8)
        .expect("Experiment::ALL includes tables1_8");
    let (mut misses, mut probes, mut clb_misses, mut refill_cycles) = (0, 0, 0, 0);
    for cell in &tables.cells {
        let ccrp = cell
            .comparison
            .ok_or("tables1_8 cell without counters")?
            .ccrp;
        let clb = ccrp.clb.ok_or("CCRP run without CLB counters")?;
        misses += ccrp.cache.misses;
        probes += clb.hits + clb.misses;
        clb_misses += clb.misses;
        refill_cycles += ccrp.refill_cycles;
    }
    outcome.set("sim.icache_misses", misses as f64);
    outcome.set("core.refills", probes as f64);
    outcome.set("core.refill_cycles", refill_cycles as f64);
    outcome.set("core.clb_miss_rate", clb_misses as f64 / probes as f64);
    outcome.set(
        "bench.rel_time_geomean",
        rel_time_geomean(docs).ok_or("tables1_8 has no relative times")?,
    );
    outcome.set(
        "bench.rom_ratio",
        rom_ratio(docs).ok_or("fig5 has no weighted average")?,
    );
    Ok(())
}
