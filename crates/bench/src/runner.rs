//! The parallel sweep runner: decomposes every paper experiment into
//! independent (workload, configuration) cells, executes them across a
//! worker pool fed by a shared index queue, and records the outcome —
//! wall time per cell, cycle counts, and the simulator's
//! [`RunStats`](ccrp_sim::RunStats)/[`ClbStats`](ccrp::ClbStats)
//! counters — into a structured [`SweepReport`] that serializes to
//! `BENCH_<experiment>.json`.
//!
//! `sim_cells` is the one list of each experiment's configurations.
//! [`run_all`] joins the cells of every simulation experiment it is
//! given into one union plan, ordered workload-major, and
//! [`Engine::Trace`] replays each workload's group once, one
//! [`parallel_map`] item per workload: [`Simulation::replay_sweep`] over
//! the run-compacted [`AccessTrace`](ccrp_sim::AccessTrace) the
//! [`Suite`] captured, so a sweep captures nothing. The kernel walks
//! each distinct cache size's misses once and times each distinct
//! (memory model, refill config) once, so the configurations the grids
//! share cost nothing extra: every Tables 1–8 cell and every
//! 16-entry-CLB cell of Tables 9–10 is a Figure 9 cell, and every
//! refill timing of Tables 11–13 is one of Figure 9's. Each experiment
//! then folds from its own cells. [`run`] is `run_all` of one
//! experiment.
//!
//! [`Engine::Reexec`] runs each workload of the plan under the emulator
//! afresh (`TracedWorkload::build`) and steps every cell over that live
//! per-fetch trace, one [`parallel_map`] item per cell (metrics runs
//! always take the trace path). It has no CLI flag: it is the oracle
//! the trace engine is tested and timed against
//! (`engines_fold_to_identical_results`, the `tracereplay_bench`
//! target), and debug builds assert one replayed cell per workload group
//! against its twin stepped over a fresh emulator run.
//!
//! Determinism: cells are generated in the nesting order of the paper's
//! tables, each cell's simulation is itself deterministic, and results
//! are merged back by cell index — so the folded rows (and their JSON)
//! are bit-identical for any worker count, and for any set of
//! experiments run together. Only the `timing` section of the JSON
//! varies between runs; the `results`/`cells` sections compare
//! byte-for-byte. Under the trace engine a cell's `wall_us` is its
//! workload group's replay time, shared by that workload's cells in
//! every experiment of the plan; under `Reexec` it is the cell's own.
//! Every simulation report of one `run_all` call carries the same
//! `suite_build_us`, and its `total_wall_us` spans the suite build, the
//! whole plan's replay and its own fold, so those totals overlap rather
//! than add up.

use std::ops::Range;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ccrp::CompressedImage;
use ccrp_probe::{MetricSet, MetricsCollector};
use ccrp_sim::{Comparison, DataCacheModel, MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::{figure5_corpus, TracedWorkload, Workload};

use crate::experiments::clb::{ClbRow, CLB_SIZES};
use crate::experiments::dcache::{DcacheRow, DCACHE_MISS_PCTS};
use crate::experiments::fig5::{figure5_row, weighted_average, Fig5Row};
use crate::experiments::perf::{PerfPoint, CACHE_SIZES};
use crate::json::Json;
use crate::report::{duration_json, envelope, ToJson};
use crate::suite::{suite_with_jobs, Suite};

/// The worker count used when the caller does not choose one: the
/// machine's available parallelism.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `jobs` scoped worker threads sharing an
/// atomic index queue, returning each result with its wall time, in
/// item order regardless of which worker ran what.
///
/// With `jobs <= 1` (or a single item) this degrades to a plain serial
/// map — no threads, identical results.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn parallel_map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<(T, Duration)>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let timed = |item: &I| {
        let start = Instant::now();
        let value = f(item);
        (value, start.elapsed())
    };
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(timed).collect();
    }

    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return local;
            };
            local.push((index, timed(item)));
        }
    };
    let mut merged: Vec<(usize, (T, Duration))> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|handle| match handle.join() {
                Ok(local) => local,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    });
    merged.sort_by_key(|&(index, _)| index);
    merged.into_iter().map(|(_, result)| result).collect()
}

/// The sweepable experiments (one per paper artifact the runner covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 5: static compression of the ten-program corpus.
    Fig5,
    /// Tables 1–8: relative performance vs cache size, per workload.
    Tables1To8,
    /// Tables 9–10: CLB size effects on NASA7 and espresso.
    Tables9To10,
    /// Figure 9: relative performance vs miss rate, all models.
    Fig9,
    /// Tables 11–13: data-cache miss-rate effects.
    Tables11To13,
}

impl Experiment {
    /// Every experiment, in paper order.
    pub const ALL: [Experiment; 5] = [
        Experiment::Fig5,
        Experiment::Tables1To8,
        Experiment::Tables9To10,
        Experiment::Fig9,
        Experiment::Tables11To13,
    ];

    /// The experiment's CLI/file name (`BENCH_<name>.json`).
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig5 => "fig5",
            Experiment::Tables1To8 => "tables1_8",
            Experiment::Tables9To10 => "tables9_10",
            Experiment::Fig9 => "fig9",
            Experiment::Tables11To13 => "tables11_13",
        }
    }

    /// Parses a CLI/file name back to the experiment.
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }
}

/// How a sweep executes its simulation cells (see the module docs for
/// the union plan both engines run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Run each workload under the emulator afresh and step every cell
    /// over its full per-fetch trace — the oracle the trace engine is
    /// checked and timed against. A metrics run takes the trace path
    /// instead.
    Reexec,
    /// Replay all of a workload's configurations, misses only, from the
    /// [`AccessTrace`](ccrp_sim::AccessTrace) the suite captured.
    Trace,
}

/// Runner knobs.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Collect probe-derived metrics (refill-latency and bytes-per-refill
    /// histograms, CLB residency, event counts) alongside the sweep.
    /// Metrics ride in the full report only, never in
    /// [`SweepReport::results_json`], so the committed results files are
    /// unaffected. Off by default: the metrics run replays each cell
    /// with a probe attached on the trace path, whatever the
    /// [`engine`](Self::engine); the plain run uses the probe-free
    /// sweep kernel.
    pub metrics: bool,
    /// Cell execution engine; [`Engine::Trace`] by default. Both
    /// engines fold to bit-identical results.
    pub engine: Engine,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: available_jobs(),
            metrics: false,
            engine: Engine::Trace,
        }
    }
}

/// One executed cell: its human-readable label, the simulator counters
/// it produced (absent for the static Figure 5 cells), and how long it
/// took on its worker.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// `workload/memory/config` label, unique within the experiment.
    pub label: String,
    /// Standard-vs-CCRP counters for simulation cells.
    pub comparison: Option<Comparison>,
    /// Wall time the cell spent on its worker thread.
    pub wall: Duration,
}

/// An experiment's folded rows, of the types [`crate::experiments`]
/// defines per paper table and figure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentResults {
    /// Figure 5 rows plus the weighted-average bar group.
    Fig5 {
        /// One row per corpus program.
        rows: Vec<Fig5Row>,
        /// The "Weighted Averages" group.
        weighted: Fig5Row,
    },
    /// Tables 1–8, one entry per workload.
    Tables1To8(Vec<(&'static str, Vec<PerfPoint>)>),
    /// Tables 9–10, one entry per workload.
    Tables9To10(Vec<(&'static str, Vec<ClbRow>)>),
    /// Figure 9 scatter points.
    Fig9(Vec<(&'static str, PerfPoint)>),
    /// Tables 11–13, one entry per workload.
    Tables11To13(Vec<(&'static str, Vec<DcacheRow>)>),
}

/// A completed sweep: results, per-cell records, and timing.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Which experiment ran.
    pub experiment: Experiment,
    /// Worker threads used.
    pub jobs: usize,
    /// Time spent building (or waiting on) the workload suite; zero when
    /// the suite was already cached or the experiment does not need it.
    pub suite_build: Duration,
    /// End-to-end wall time, including suite build. For a simulation
    /// experiment it spans the whole union plan of its [`run_all`]
    /// call, which the call's other simulation reports share.
    pub total_wall: Duration,
    /// Every executed cell, in generation order.
    pub cells: Vec<CellRecord>,
    /// The folded experiment rows.
    pub results: ExperimentResults,
    /// Probe-derived metrics, folded over all cells in generation order
    /// (present only when [`SweepOptions::metrics`] was set).
    pub metrics: Option<MetricSet>,
}

impl SweepReport {
    /// The deterministic half of the report: schema tag, experiment
    /// name, folded rows, and per-cell counters. Two sweeps of the same
    /// experiment serialize this identically whatever `jobs` was.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ccrp-bench-sweep/1")),
            ("experiment", Json::str(self.experiment.name())),
            ("results", results_json(&self.results)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            ),
        ])
    }
}

impl ToJson for SweepReport {
    /// The full report: [`results_json`](SweepReport::results_json) plus
    /// the run-specific `jobs` count, the wall-clock timing section, and
    /// (when collected) the folded probe metrics.
    fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|cell| {
            Json::obj([
                ("label", Json::str(&cell.label)),
                ("wall_us", duration_json(cell.wall)),
            ])
        });
        let timing = Json::obj([
            ("suite_build_us", duration_json(self.suite_build)),
            ("total_wall_us", duration_json(self.total_wall)),
            ("cells", Json::Arr(cells.collect())),
        ]);
        let mut json = envelope(self.results_json(), self.jobs, timing);
        if let Some(metrics) = &self.metrics {
            json.insert("metrics", metrics.to_json());
        }
        json
    }
}

fn cell_json(cell: &CellRecord) -> Json {
    match &cell.comparison {
        Some(cmp) => Json::obj([
            ("label", Json::str(&cell.label)),
            ("standard", cmp.standard.to_json()),
            ("ccrp", cmp.ccrp.to_json()),
        ]),
        None => Json::obj([("label", Json::str(&cell.label))]),
    }
}

fn perf_point_json(p: &PerfPoint) -> Json {
    Json::obj([
        ("cache_bytes", Json::U64(u64::from(p.cache_bytes))),
        ("memory", Json::str(p.memory.name())),
        ("relative_performance", Json::F64(p.relative_performance)),
        ("miss_rate", Json::F64(p.miss_rate)),
        ("memory_traffic", Json::F64(p.memory_traffic)),
    ])
}

fn fig5_row_json(row: &Fig5Row) -> Json {
    Json::obj([
        ("name", Json::str(row.name)),
        ("original_bytes", Json::U64(row.original_bytes as u64)),
        ("compress_pct", Json::F64(row.compress_pct)),
        ("traditional_pct", Json::F64(row.traditional_pct)),
        ("bounded_pct", Json::F64(row.bounded_pct)),
        ("preselected_pct", Json::F64(row.preselected_pct)),
    ])
}

fn results_json(results: &ExperimentResults) -> Json {
    let per_workload =
        |name: &str, rows: Json| Json::obj([("workload", Json::str(name)), ("rows", rows)]);
    match results {
        ExperimentResults::Fig5 { rows, weighted } => Json::obj([
            ("rows", Json::Arr(rows.iter().map(fig5_row_json).collect())),
            ("weighted_average", fig5_row_json(weighted)),
        ]),
        ExperimentResults::Tables1To8(tables) => Json::Arr(
            tables
                .iter()
                .map(|(name, points)| {
                    per_workload(
                        name,
                        Json::Arr(points.iter().map(perf_point_json).collect()),
                    )
                })
                .collect(),
        ),
        ExperimentResults::Tables9To10(tables) => Json::Arr(
            tables
                .iter()
                .map(|(name, rows)| {
                    per_workload(
                        name,
                        Json::Arr(
                            rows.iter()
                                .map(|row| {
                                    Json::obj([
                                        ("memory", Json::str(row.memory.name())),
                                        ("cache_bytes", Json::U64(u64::from(row.cache_bytes))),
                                        (
                                            "relative",
                                            Json::Arr(
                                                row.relative
                                                    .iter()
                                                    .map(|&x| Json::F64(x))
                                                    .collect(),
                                            ),
                                        ),
                                        (
                                            "clb_miss_rate",
                                            Json::Arr(
                                                row.clb_miss_rate
                                                    .iter()
                                                    .map(|&x| Json::F64(x))
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        ),
        ExperimentResults::Fig9(points) => Json::Arr(
            points
                .iter()
                .map(|(name, point)| {
                    Json::obj([
                        ("workload", Json::str(name)),
                        ("point", perf_point_json(point)),
                    ])
                })
                .collect(),
        ),
        ExperimentResults::Tables11To13(tables) => Json::Arr(
            tables
                .iter()
                .map(|(name, rows)| {
                    per_workload(
                        name,
                        Json::Arr(
                            rows.iter()
                                .map(|row| {
                                    Json::obj([
                                        ("memory", Json::str(row.memory.name())),
                                        (
                                            "dcache_miss_pct",
                                            Json::U64(u64::from(row.dcache_miss_pct)),
                                        ),
                                        ("relative", Json::F64(row.relative)),
                                    ])
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        ),
    }
}

/// One independent simulation cell: a (workload, memory, cache, CLB,
/// data-cache) configuration, generated in the table nesting order of
/// the experiment it belongs to.
#[derive(Debug, Clone, Copy)]
struct SimCell {
    workload: TracedWorkload,
    memory: MemoryModel,
    cache_bytes: u32,
    clb_entries: usize,
    /// `None` models no data cache ([`DataCacheModel::NONE`]).
    dcache_miss_pct: Option<u32>,
}

impl SimCell {
    fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}B/clb{}",
            self.workload.name(),
            self.memory.name(),
            self.cache_bytes,
            self.clb_entries
        );
        if let Some(pct) = self.dcache_miss_pct {
            label.push_str(&format!("/dcache{pct}%"));
        }
        label
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::new()
            .with_cache_bytes(self.cache_bytes)
            .with_memory(self.memory)
            .with_clb_entries(self.clb_entries)
            .with_dcache(self.dcache_miss_pct.map_or(DataCacheModel::NONE, |pct| {
                DataCacheModel::with_miss_rate(f64::from(pct) / 100.0)
            }))
    }

    /// Steps both processors over `live`, a fresh emulator run of the
    /// cell's workload (see [`execute`]).
    fn simulate(&self, image: &CompressedImage, live: &Workload) -> Comparison {
        Simulation::new(self.config())
            .compare(image, live.trace.iter())
            .expect("paper configurations are valid")
    }
}

/// Runs `workload` under the emulator afresh, for the per-fetch trace
/// the re-execution oracle steps cells over — independent of the trace
/// the suite captured.
fn execute(workload: TracedWorkload) -> Workload {
    workload
        .build()
        .unwrap_or_else(|e| panic!("{} must build: {e}", workload.name()))
}

/// The memory models Tables 1–8 print for `workload` (§4.2.1 adds DRAM
/// for matrix25A only).
fn tables_1_8_memories(workload: TracedWorkload) -> &'static [MemoryModel] {
    if workload == TracedWorkload::Matrix25A {
        &[
            MemoryModel::Eprom,
            MemoryModel::BurstEprom,
            MemoryModel::ScDram,
        ]
    } else {
        &[MemoryModel::Eprom, MemoryModel::BurstEprom]
    }
}

fn sim_cells(experiment: Experiment) -> Vec<SimCell> {
    let mut cells = Vec::new();
    let mut push = |workload, memory, cache_bytes, clb_entries, dcache_miss_pct| {
        cells.push(SimCell {
            workload,
            memory,
            cache_bytes,
            clb_entries,
            dcache_miss_pct,
        });
    };
    match experiment {
        Experiment::Fig5 => unreachable!("fig5 has no simulation cells"),
        Experiment::Tables1To8 => {
            for workload in TracedWorkload::ALL {
                for &memory in tables_1_8_memories(workload) {
                    for &cache in &CACHE_SIZES {
                        push(workload, memory, cache, 16, None);
                    }
                }
            }
        }
        Experiment::Tables9To10 => {
            for workload in [TracedWorkload::Nasa7, TracedWorkload::Espresso] {
                for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                    for &cache in &CACHE_SIZES {
                        for &clb in &CLB_SIZES {
                            push(workload, memory, cache, clb, None);
                        }
                    }
                }
            }
        }
        Experiment::Fig9 => {
            for workload in TracedWorkload::ALL {
                for &memory in &MemoryModel::ALL {
                    for &cache in &CACHE_SIZES {
                        push(workload, memory, cache, 16, None);
                    }
                }
            }
        }
        Experiment::Tables11To13 => {
            for workload in [
                TracedWorkload::Nasa7,
                TracedWorkload::Espresso,
                TracedWorkload::Fpppp,
            ] {
                for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                    for &pct in &DCACHE_MISS_PCTS {
                        push(workload, memory, 1024, 16, Some(pct));
                    }
                }
            }
        }
    }
    cells
}

fn perf_point(cell: &SimCell, cmp: &Comparison) -> PerfPoint {
    PerfPoint {
        cache_bytes: cell.cache_bytes,
        memory: cell.memory,
        relative_performance: cmp.relative_execution_time(),
        miss_rate: cmp.miss_rate(),
        memory_traffic: cmp.memory_traffic_ratio(),
    }
}

/// Folds the flat, index-ordered cell results back into the
/// experiment's row types. Cells were generated in table nesting order,
/// so grouping is purely sequential.
fn fold(experiment: Experiment, cells: &[SimCell], outcomes: &[Comparison]) -> ExperimentResults {
    let mut iter = cells.iter().zip(outcomes);
    match experiment {
        Experiment::Fig5 => unreachable!("fig5 has no simulation cells"),
        Experiment::Tables1To8 => {
            let mut tables: Vec<(&'static str, Vec<PerfPoint>)> = Vec::new();
            for (cell, cmp) in iter {
                let name = cell.workload.name();
                if tables.last().is_none_or(|(last, _)| *last != name) {
                    tables.push((name, Vec::new()));
                }
                tables
                    .last_mut()
                    .expect("pushed above")
                    .1
                    .push(perf_point(cell, cmp));
            }
            ExperimentResults::Tables1To8(tables)
        }
        Experiment::Tables9To10 => {
            let mut tables: Vec<(&'static str, Vec<ClbRow>)> = Vec::new();
            while let Some((first, first_cmp)) = iter.next() {
                let mut relative = [0.0; 3];
                let mut clb_miss = [0.0; 3];
                let mut record = |slot: usize, cmp: &Comparison| {
                    relative[slot] = cmp.relative_execution_time();
                    clb_miss[slot] = cmp.ccrp.clb.expect("CCRP runs track the CLB").miss_rate();
                };
                record(0, first_cmp);
                for slot in 1..CLB_SIZES.len() {
                    let (_, cmp) = iter.next().expect("cells come in CLB_SIZES groups");
                    record(slot, cmp);
                }
                let name = first.workload.name();
                if tables.last().is_none_or(|(last, _)| *last != name) {
                    tables.push((name, Vec::new()));
                }
                tables.last_mut().expect("pushed above").1.push(ClbRow {
                    memory: first.memory,
                    cache_bytes: first.cache_bytes,
                    relative,
                    clb_miss_rate: clb_miss,
                });
            }
            ExperimentResults::Tables9To10(tables)
        }
        Experiment::Fig9 => ExperimentResults::Fig9(
            iter.map(|(cell, cmp)| (cell.workload.name(), perf_point(cell, cmp)))
                .collect(),
        ),
        Experiment::Tables11To13 => {
            let mut tables: Vec<(&'static str, Vec<DcacheRow>)> = Vec::new();
            for (cell, cmp) in iter {
                let name = cell.workload.name();
                if tables.last().is_none_or(|(last, _)| *last != name) {
                    tables.push((name, Vec::new()));
                }
                tables.last_mut().expect("pushed above").1.push(DcacheRow {
                    memory: cell.memory,
                    dcache_miss_pct: cell.dcache_miss_pct.expect("dcache sweep cell"),
                    relative: cmp.relative_execution_time(),
                });
            }
            ExperimentResults::Tables11To13(tables)
        }
    }
}

/// A cell's simulated outcome (with its probe metrics on a metrics run)
/// and the wall time charged to it.
type Outcome = ((Comparison, Option<MetricSet>), Duration);

/// Splits `cells` into contiguous same-workload ranges. A [`Plan`] is
/// ordered workload-major, so each workload forms exactly one range.
fn workload_ranges(cells: &[SimCell]) -> Vec<(TracedWorkload, Range<usize>)> {
    let mut ranges: Vec<(TracedWorkload, Range<usize>)> = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match ranges.last_mut() {
            Some((workload, range)) if *workload == cell.workload => range.end = index + 1,
            _ => ranges.push((cell.workload, index..index + 1)),
        }
    }
    ranges
}

/// The trace engine: one [`parallel_map`] item per workload replays
/// every cell of that workload from the trace the suite captured —
/// through the miss-stream sweep kernel for plain sweeps, or per cell
/// with a probe attached when metrics were requested (the replayed
/// event stream is identical to the re-executed one, so the histograms
/// agree). Every cell of a group is charged the group's wall time. The
/// flattened outcomes keep the order of `cells`.
fn trace_engine_outcomes(
    jobs: usize,
    cells: &[SimCell],
    suite: &Suite,
    metrics: bool,
) -> Vec<Outcome> {
    let ranges = workload_ranges(cells);
    let replayed = parallel_map(jobs, &ranges, |(workload, range)| {
        let prepared = suite.get(workload.name());
        let trace = &prepared.workload.trace;
        let group_cells = &cells[range.clone()];
        let outcomes: Vec<(Comparison, Option<MetricSet>)> = if metrics {
            group_cells
                .iter()
                .map(|cell| {
                    let mut collector = MetricsCollector::new();
                    let comparison = Simulation::new(cell.config())
                        .ccrp_probed(&mut collector)
                        .compare(&prepared.image, trace)
                        .expect("paper configurations are valid");
                    (comparison, Some(collector.into_metrics()))
                })
                .collect()
        } else {
            let configs: Vec<SystemConfig> = group_cells.iter().map(SimCell::config).collect();
            Simulation::replay_sweep(&prepared.image, trace, &configs)
                .expect("paper configurations are valid")
                .into_iter()
                .map(|comparison| (comparison, None))
                .collect()
        };
        // Cold-start consistency (debug builds): a replayed cell must
        // equal its twin stepped over a fresh emulator run — one probe
        // per workload group.
        #[cfg(debug_assertions)]
        if let (Some(cell), Some((comparison, _))) = (group_cells.first(), outcomes.first()) {
            debug_assert_eq!(
                *comparison,
                cell.simulate(&prepared.image, &execute(*workload)),
                "replayed and re-executed stats diverge for {}",
                cell.label()
            );
        }
        outcomes
    });

    let mut flat = Vec::with_capacity(cells.len());
    for (group_outcomes, wall) in replayed {
        for outcome in group_outcomes {
            flat.push((outcome, wall));
        }
    }
    flat
}

/// The re-execution oracle: each workload of `cells` runs under the
/// emulator once, then every one of its cells steps both processors
/// over that live per-fetch trace, one [`parallel_map`] item (and wall
/// time) per cell. Outcomes keep the order of `cells`.
fn reexec_outcomes(jobs: usize, cells: &[SimCell], suite: &Suite) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(cells.len());
    for (workload, range) in workload_ranges(cells) {
        let live = execute(workload);
        let image = &suite.get(workload.name()).image;
        outcomes.extend(parallel_map(jobs, &cells[range], |cell| {
            (cell.simulate(image, &live), None)
        }));
    }
    outcomes
}

/// The union plan of one [`run_all`] call: the cells of every requested
/// simulation experiment, ordered workload-major so that each workload
/// forms one group, and where each experiment's cells sit in it.
struct Plan {
    cells: Vec<SimCell>,
    /// Per experiment, the plan index of each of its cells, in the
    /// experiment's generation order.
    slots: Vec<Vec<usize>>,
}

impl Plan {
    fn new(experiments: &[Experiment]) -> Plan {
        let grids: Vec<Vec<SimCell>> = experiments.iter().map(|&e| sim_cells(e)).collect();
        let mut cells = Vec::with_capacity(grids.iter().map(Vec::len).sum());
        let mut slots: Vec<Vec<usize>> = grids.iter().map(|grid| vec![0; grid.len()]).collect();
        for workload in TracedWorkload::ALL {
            for (grid, grid_slots) in grids.iter().zip(&mut slots) {
                for (cell, slot) in grid.iter().zip(grid_slots) {
                    if cell.workload == workload {
                        *slot = cells.len();
                        cells.push(*cell);
                    }
                }
            }
        }
        Plan { cells, slots }
    }
}

/// Figure 5: the static compression of the corpus, one cell per
/// program.
fn run_fig5(jobs: usize, metrics: bool) -> SweepReport {
    let total_start = Instant::now();
    let programs = figure5_corpus();
    let outcomes = parallel_map(jobs, programs, figure5_row);
    let cells = programs
        .iter()
        .zip(&outcomes)
        .map(|(program, (_, wall))| CellRecord {
            label: program.name.to_string(),
            comparison: None,
            wall: *wall,
        })
        .collect();
    let rows: Vec<Fig5Row> = outcomes.into_iter().map(|(row, _)| row).collect();
    let weighted = weighted_average(&rows);
    SweepReport {
        experiment: Experiment::Fig5,
        jobs,
        suite_build: Duration::ZERO,
        total_wall: total_start.elapsed(),
        cells,
        results: ExperimentResults::Fig5 { rows, weighted },
        // Figure 5 is a static-compression experiment: nothing
        // refills, so a metrics run yields an empty registry.
        metrics: metrics.then(MetricSet::new),
    }
}

/// Runs the simulation experiments `experiments` (Figure 5 excluded) as
/// one [`Plan`], folding each experiment's report from its own cells.
fn run_plan(experiments: &[Experiment], jobs: usize, options: &SweepOptions) -> Vec<SweepReport> {
    if experiments.is_empty() {
        return Vec::new();
    }
    let total_start = Instant::now();
    let suite = suite_with_jobs(jobs);
    let suite_build = total_start.elapsed();

    let plan = Plan::new(experiments);
    let outcomes = match options.engine {
        Engine::Reexec if !options.metrics => reexec_outcomes(jobs, &plan.cells, suite),
        _ => trace_engine_outcomes(jobs, &plan.cells, suite, options.metrics),
    };
    experiments
        .iter()
        .zip(&plan.slots)
        .map(|(&experiment, slots)| {
            let sim_cells: Vec<SimCell> = slots.iter().map(|&i| plan.cells[i]).collect();
            let outcomes: Vec<&Outcome> = slots.iter().map(|&i| &outcomes[i]).collect();
            let cells = sim_cells
                .iter()
                .zip(&outcomes)
                .map(|(cell, ((cmp, _), wall))| CellRecord {
                    label: cell.label(),
                    comparison: Some(*cmp),
                    wall: *wall,
                })
                .collect();
            // Fold per-cell metrics in generation order, so the
            // aggregate (like everything else in results_json) is
            // independent of `jobs`.
            let metrics = options.metrics.then(|| {
                let mut folded = MetricSet::new();
                for ((_, cell_metrics), _) in &outcomes {
                    if let Some(cell_metrics) = cell_metrics {
                        folded.merge(cell_metrics);
                    }
                }
                folded
            });
            let comparisons: Vec<Comparison> = outcomes.iter().map(|((cmp, _), _)| *cmp).collect();
            SweepReport {
                experiment,
                jobs,
                suite_build,
                total_wall: total_start.elapsed(),
                cells,
                results: fold(experiment, &sim_cells, &comparisons),
                metrics,
            }
        })
        .collect()
}

/// Runs `experiments` across `options.jobs` workers and returns their
/// reports in the same order.
///
/// The simulation experiments share one union plan (see the module
/// docs): each workload's cells from all of them are replayed together,
/// once, and every experiment folds from its own cells. Figure 5 runs
/// on its own. Each report's `results` and `cells` are exactly those
/// [`run`] gives for the experiment alone.
pub fn run_all(experiments: &[Experiment], options: &SweepOptions) -> Vec<SweepReport> {
    let jobs = options.jobs.max(1);
    let simulated: Vec<Experiment> = experiments
        .iter()
        .copied()
        .filter(|&e| e != Experiment::Fig5)
        .collect();
    let mut swept = run_plan(&simulated, jobs, options).into_iter();
    experiments
        .iter()
        .map(|&experiment| match experiment {
            Experiment::Fig5 => run_fig5(jobs, options.metrics),
            _ => swept
                .next()
                .expect("run_plan reports every simulated experiment"),
        })
        .collect()
}

/// Runs one experiment across `options.jobs` workers: [`run_all`] of
/// that experiment alone.
pub fn run(experiment: Experiment, options: &SweepOptions) -> SweepReport {
    run_all(&[experiment], options)
        .pop()
        .expect("run_all reports every experiment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_envelope;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u32> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        let values: Vec<u32> = doubled.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Serial path produces the same mapping.
        let serial = parallel_map(1, &items, |&x| x * 2);
        assert_eq!(serial.len(), 100);
        assert_eq!(serial[7].0, 14);
    }

    #[test]
    fn parallel_map_handles_zero_items() {
        let items: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &items, |&x| x * 2).is_empty());
        assert!(parallel_map(0, &items, |&x| x * 2).is_empty());
    }

    #[test]
    fn parallel_map_clamps_jobs_past_item_count() {
        // More workers than items: excess workers find the queue empty
        // and exit; results stay complete and ordered.
        let items: Vec<u32> = (0..3).collect();
        let values: Vec<u32> = parallel_map(64, &items, |&x| x + 1)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn parallel_map_reraises_a_worker_panic() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, &items, |&x| {
                assert!(x != 9, "deliberate worker panic");
                x
            })
        });
        let payload = caught.expect_err("the worker panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is a string");
        assert!(message.contains("deliberate worker panic"));
    }

    #[test]
    fn experiment_names_round_trip() {
        for experiment in Experiment::ALL {
            assert_eq!(Experiment::from_name(experiment.name()), Some(experiment));
        }
        assert_eq!(Experiment::from_name("tables_1_8"), None);
    }

    #[test]
    fn sim_cells_cover_each_papers_grid() {
        // Tables 1–8: 8 workloads × 2 memories × 5 caches, plus DRAM for
        // matrix25A; Tables 9–10: 2 workloads × 2 memories × 5 caches ×
        // 3 CLBs; Figure 9: 8 × 3 × 5; Tables 11–13: 3 workloads ×
        // 2 memories × 5 data-cache miss rates.
        for (experiment, cells) in [
            (Experiment::Tables1To8, 85),
            (Experiment::Tables9To10, 60),
            (Experiment::Fig9, 120),
            (Experiment::Tables11To13, 30),
        ] {
            assert_eq!(sim_cells(experiment).len(), cells, "{experiment:?}");
        }
    }

    /// The four experiments that simulate (Figure 5 is static).
    const SIMULATED: [Experiment; 4] = [
        Experiment::Tables1To8,
        Experiment::Tables9To10,
        Experiment::Fig9,
        Experiment::Tables11To13,
    ];

    #[test]
    fn engines_fold_to_identical_results() {
        // The trace engine (the default: replay of the suite's captured
        // traces) and the reexec oracle (fresh emulator runs, stepped
        // per cell) must serialize their deterministic sections
        // byte-for-byte identically.
        assert_eq!(SweepOptions::default().engine, Engine::Trace);
        let traced = run_all(
            &SIMULATED,
            &SweepOptions {
                jobs: 2,
                engine: Engine::Trace,
                ..Default::default()
            },
        );
        let reexecuted = run_all(
            &SIMULATED,
            &SweepOptions {
                jobs: 3,
                engine: Engine::Reexec,
                ..Default::default()
            },
        );
        for (traced, reexecuted) in traced.iter().zip(&reexecuted) {
            let experiment = traced.experiment;
            assert_eq!(reexecuted.experiment, experiment);
            assert_eq!(traced.results, reexecuted.results, "{experiment:?}");
            assert_eq!(
                traced.results_json().to_compact(),
                reexecuted.results_json().to_compact(),
                "{experiment:?}"
            );
        }
    }

    #[test]
    fn union_plan_matches_single_experiment_runs() {
        // `run_all` replays each workload once for every experiment;
        // each report must equal the experiment run on its own, in the
        // order asked for, whatever the worker count.
        let options = |jobs| SweepOptions {
            jobs,
            ..Default::default()
        };
        let alone: Vec<String> = Experiment::ALL
            .into_iter()
            .map(|experiment| run(experiment, &options(1)).results_json().to_compact())
            .collect();
        for jobs in [1, 3] {
            let reports = run_all(&Experiment::ALL, &options(jobs));
            assert_eq!(reports.len(), Experiment::ALL.len());
            for ((experiment, report), alone) in
                Experiment::ALL.into_iter().zip(&reports).zip(&alone)
            {
                assert_eq!(report.experiment, experiment);
                assert_eq!(
                    &report.results_json().to_compact(),
                    alone,
                    "{experiment:?} at {jobs} jobs"
                );
                assert_envelope(report, report.results_json(), jobs);
            }
        }
    }

    #[test]
    fn report_json_sections() {
        let options = SweepOptions {
            jobs: 2,
            ..Default::default()
        };
        let report = run(Experiment::Tables11To13, &options);
        let full = report.to_json().to_pretty();
        assert!(full.contains("\"schema\": \"ccrp-bench-sweep/1\""));
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"refill_cycles\""));
        assert!(!full.contains("\"metrics\""));
        let deterministic = report.results_json().to_compact();
        assert!(!deterministic.contains("timing"));
        assert!(!deterministic.contains("wall_us"));
    }

    #[test]
    fn metrics_ride_along_without_touching_results() {
        let plain = run(
            Experiment::Tables11To13,
            &SweepOptions {
                jobs: 2,
                metrics: false,
                ..Default::default()
            },
        );
        let probed = run(
            Experiment::Tables11To13,
            &SweepOptions {
                jobs: 3,
                metrics: true,
                ..Default::default()
            },
        );
        // Probing never perturbs the simulation itself.
        assert_eq!(
            plain.results_json().to_compact(),
            probed.results_json().to_compact()
        );

        let metrics = probed.metrics.as_ref().expect("metrics were requested");
        // Every CCRP-side cache miss the simulator counted reached the
        // probe (the standard side runs probe-free, so it contributes
        // nothing to the registry).
        let ccrp_misses: u64 = probed
            .cells
            .iter()
            .map(|cell| cell.comparison.expect("sim cell").ccrp.cache.misses)
            .sum();
        assert_eq!(metrics.counter("events.cache_miss"), ccrp_misses);
        assert_eq!(metrics.counter("events.refill"), ccrp_misses);
        let latency = metrics
            .histogram("refill_latency_cycles")
            .expect("refills happened");
        assert_eq!(latency.count(), ccrp_misses);
        // The full JSON carries the registry; the deterministic half
        // never does.
        assert!(probed.to_json().to_compact().contains("\"metrics\""));
        assert!(!probed.results_json().to_compact().contains("\"metrics\""));
    }
}
