//! The cross-ISA comparison sweep: CCRP versus (and composed with) the
//! RISC-V C extension.
//!
//! The paper's §6 asks how dictionary compression of the fetch path
//! stacks up against an ISA-level dense encoding. This sweep puts four
//! systems on one axis, per workload and memory model:
//!
//! * **mips-ccrp** — the paper's system: MIPS text through the
//!   byte-Huffman CCRP, the committed Tables 1–8 configuration;
//! * **rv32i-ccrp** — the same CCRP hardware in front of a base RV32I
//!   build of the same kernel (a self-trained code, since no RV32
//!   corpus code ships);
//! * **rv32c** — the C extension alone: the RVC build fetched
//!   uncompressed, no CCRP hardware at all;
//! * **rv32c-ccrp** — the two composed: the RVC build behind CCRP,
//!   testing whether statistical compression still finds slack after
//!   the encoding-level density win.
//!
//! Every RV32 variant is measured against the **RV32I standard run**
//! (plain ROM, no compression) as its baseline, so the three rv32 rows
//! share a denominator; the MIPS row uses its own standard run, as in
//! the paper's tables. Compression ratios likewise share the RV32I
//! text as the denominator on the rv32 side. Cells are a pure function
//! of the workload set, so campaigns are bit-identical across `--jobs`
//! settings and machines.

use std::time::{Duration, Instant};

use ccrp_difftest::build_rv32_rom;
use ccrp_rv32::workloads::{BuiltRv32Workload, Rv32Workload};
use ccrp_sim::{MemoryModel, RunStats, Simulation, SystemConfig};

use crate::capture::StreamCapture;
use crate::codecs::CACHE_BYTES;
use crate::json::Json;
use crate::report::{duration_json, envelope, ToJson};
use crate::runner::parallel_map;
use crate::suite::{suite_with_jobs, Prepared};

/// One compared system. Order is the report's row order within a
/// (workload, memory model) group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaVariant {
    /// MIPS text behind the byte-Huffman CCRP (the paper's system).
    MipsCcrp,
    /// RV32I text behind a self-trained byte-Huffman CCRP.
    Rv32iCcrp,
    /// The RVC build fetched plain — ISA-level compression only.
    Rv32c,
    /// The RVC build behind a self-trained CCRP — both layers.
    Rv32cCcrp,
}

impl IsaVariant {
    /// All variants, in report order.
    pub const ALL: [IsaVariant; 4] = [
        IsaVariant::MipsCcrp,
        IsaVariant::Rv32iCcrp,
        IsaVariant::Rv32c,
        IsaVariant::Rv32cCcrp,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            IsaVariant::MipsCcrp => "mips-ccrp",
            IsaVariant::Rv32iCcrp => "rv32i-ccrp",
            IsaVariant::Rv32c => "rv32c",
            IsaVariant::Rv32cCcrp => "rv32c-ccrp",
        }
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct IsaCompareOptions {
    /// Worker threads (1 = serial). Does not affect results.
    pub jobs: usize,
}

impl Default for IsaCompareOptions {
    fn default() -> Self {
        Self {
            jobs: crate::runner::available_jobs(),
        }
    }
}

/// One cell: a (workload, variant, memory-model) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsaCell {
    /// Workload name, as in the paper's tables (shared across ISAs).
    pub workload: &'static str,
    /// The compared system.
    pub variant: IsaVariant,
    /// The memory model.
    pub memory: MemoryModel,
    /// Stored instruction bytes over the baseline text size (the MIPS
    /// text for `mips-ccrp`, the RV32I text for the rv32 variants).
    pub compression_ratio: f64,
    /// Variant cycles over baseline cycles (standard MIPS run for
    /// `mips-ccrp`, standard RV32I run for the rv32 variants).
    pub relative_performance: f64,
    /// The variant's own instruction-cache miss rate, 0..=1.
    pub miss_rate: f64,
    /// Variant instruction-bus bytes over baseline bytes.
    pub memory_traffic: f64,
    /// Cycles the variant stalled filling instruction lines from
    /// memory — through the CCRP decode path for the ccrp variants,
    /// plain burst fetches for `rv32c`.
    pub refill_cycles: u64,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct IsaCompareReport {
    /// The options the campaign ran with.
    pub options: IsaCompareOptions,
    /// Every cell, ordered workload-major (the paper's table order),
    /// then variant ([`IsaVariant::ALL`]), then memory model
    /// ([`MemoryModel::ALL`]).
    pub cells: Vec<IsaCell>,
    /// End-to-end wall time.
    pub total_wall: Duration,
}

fn cell_from(
    workload: &'static str,
    variant: IsaVariant,
    memory: MemoryModel,
    compression_ratio: f64,
    run: &RunStats,
    baseline: &RunStats,
) -> IsaCell {
    IsaCell {
        workload,
        variant,
        memory,
        compression_ratio,
        relative_performance: run.total_cycles() / baseline.total_cycles(),
        miss_rate: run.cache.miss_rate(),
        memory_traffic: if baseline.bytes_from_memory == 0 {
            1.0
        } else {
            run.bytes_from_memory as f64 / baseline.bytes_from_memory as f64
        },
        refill_cycles: run.refill_cycles,
    }
}

/// One campaign job: all (variant, memory-model) cells of one workload.
/// Two [`Simulation::replay_sweep`] passes cover the four RV32 stat
/// sets (standard/CCRP over the RV32I trace, standard/CCRP over the
/// RVC trace), each streamed into its
/// [`AccessTrace`](ccrp_sim::AccessTrace) as the RV32 build ran; a
/// third covers the MIPS pair, over the trace the suite captured.
fn run_workload(prepared: &Prepared, rv32: BuiltRv32Workload<StreamCapture>) -> Vec<IsaCell> {
    let name = prepared.workload.name;
    assert_eq!(name, rv32.name, "workload order mismatch across ISAs");
    let configs: Vec<SystemConfig> = MemoryModel::ALL
        .into_iter()
        .map(|memory| {
            SystemConfig::new()
                .with_cache_bytes(CACHE_BYTES)
                .with_memory(memory)
        })
        .collect();

    let mips = Simulation::replay_sweep(&prepared.image, &prepared.workload.trace, &configs)
        .unwrap_or_else(|e| panic!("{name}: mips sweep: {e}"));

    // Workload texts are non-empty and word-aligned, so a build failure
    // is a bug.
    let rom = |image| build_rv32_rom(image).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ccrp_i = rom(&rv32.image_i);
    let ccrp_c = rom(&rv32.image_c);
    let trace_i = rv32.trace_i.finish();
    let trace_c = rv32.trace_c.finish();
    let sweep_i = Simulation::replay_sweep(&ccrp_i, &trace_i, &configs)
        .unwrap_or_else(|e| panic!("{name}: rv32i sweep: {e}"));
    let sweep_c = Simulation::replay_sweep(&ccrp_c, &trace_c, &configs)
        .unwrap_or_else(|e| panic!("{name}: rv32c sweep: {e}"));

    let i_bytes = f64::from(rv32.image_i.text_size());
    let ratio_rv32i = ccrp_i.compression_ratio();
    let ratio_rv32c = f64::from(rv32.image_c.text_size()) / i_bytes;
    let ratio_rv32c_ccrp = f64::from(ccrp_c.total_stored_bytes(false)) / i_bytes;

    let mut cells = Vec::with_capacity(IsaVariant::ALL.len() * MemoryModel::ALL.len());
    for variant in IsaVariant::ALL {
        for (at, memory) in MemoryModel::ALL.into_iter().enumerate() {
            // Each sweep pairs one standard run with one CCRP run; the
            // RV32I standard run is every rv32 variant's baseline.
            let rv32_base = &sweep_i[at].standard;
            cells.push(match variant {
                IsaVariant::MipsCcrp => cell_from(
                    name,
                    variant,
                    memory,
                    prepared.image.compression_ratio(),
                    &mips[at].ccrp,
                    &mips[at].standard,
                ),
                IsaVariant::Rv32iCcrp => cell_from(
                    name,
                    variant,
                    memory,
                    ratio_rv32i,
                    &sweep_i[at].ccrp,
                    rv32_base,
                ),
                IsaVariant::Rv32c => cell_from(
                    name,
                    variant,
                    memory,
                    ratio_rv32c,
                    &sweep_c[at].standard,
                    rv32_base,
                ),
                IsaVariant::Rv32cCcrp => cell_from(
                    name,
                    variant,
                    memory,
                    ratio_rv32c_ccrp,
                    &sweep_c[at].ccrp,
                    rv32_base,
                ),
            });
        }
    }
    cells
}

/// Runs the full comparison: every workload × [`IsaVariant::ALL`] ×
/// [`MemoryModel::ALL`]. Results depend only on the workload set —
/// `options.jobs` changes wall time, never cells.
///
/// # Panics
///
/// Panics when an RV32 workload fails its build self-check or a sweep
/// fetches outside its image — both indicate harness bugs.
pub fn run(options: IsaCompareOptions) -> IsaCompareReport {
    let started = Instant::now();
    let suite = suite_with_jobs(options.jobs);
    let jobs: Vec<(&Prepared, Rv32Workload)> = suite.iter().zip(Rv32Workload::ALL).collect();
    let cells = parallel_map(options.jobs, &jobs, |&(prepared, workload)| {
        let rv32 = workload
            .build_into::<StreamCapture>()
            .unwrap_or_else(|e| panic!("{}: rv32 build: {e}", workload.name()));
        run_workload(prepared, rv32)
    })
    .into_iter()
    .flat_map(|(cells, _)| cells)
    .collect();
    IsaCompareReport {
        options,
        cells,
        total_wall: started.elapsed(),
    }
}

impl IsaCompareReport {
    /// The deterministic half of the report: identical across job
    /// counts and machines.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ccrp-isa-compare/1")),
            ("cache_bytes", Json::U64(u64::from(CACHE_BYTES))),
            (
                "variants",
                Json::Arr(
                    IsaVariant::ALL
                        .map(|v| Json::str(v.name()))
                        .into_iter()
                        .collect(),
                ),
            ),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("workload", Json::str(c.workload)),
                                ("variant", Json::str(c.variant.name())),
                                ("memory", Json::str(c.memory.name())),
                                ("compression_ratio", Json::F64(c.compression_ratio)),
                                ("relative_performance", Json::F64(c.relative_performance)),
                                ("miss_rate", Json::F64(c.miss_rate)),
                                ("memory_traffic", Json::F64(c.memory_traffic)),
                                ("refill_cycles", Json::U64(c.refill_cycles)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for IsaCompareReport {
    /// [`results_json`](IsaCompareReport::results_json) plus the
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

    #[test]
    fn matrix_covers_every_cell_and_is_jobs_independent() {
        let serial = run(IsaCompareOptions { jobs: 1 });
        let parallel = run(IsaCompareOptions { jobs: 4 });
        assert_eq!(
            serial.cells.len(),
            8 * IsaVariant::ALL.len() * MemoryModel::ALL.len()
        );
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact()
        );
        assert_envelope(&parallel, parallel.results_json(), 4);
    }

    #[test]
    fn compression_and_composition_shape_holds() {
        let report = run(IsaCompareOptions::default());
        for group in report
            .cells
            .chunks(IsaVariant::ALL.len() * MemoryModel::ALL.len())
        {
            let ratio_of = |variant: IsaVariant| {
                group
                    .iter()
                    .find(|c| c.variant == variant)
                    .expect("cell present")
                    .compression_ratio
            };
            let workload = group[0].workload;
            // Every compression layer actually shrinks the program.
            for variant in IsaVariant::ALL {
                assert!(
                    ratio_of(variant) < 1.0,
                    "{workload}: {} ratio {} not < 1",
                    variant.name(),
                    ratio_of(variant)
                );
            }
            // Composing CCRP over RVC beats RVC alone: statistical
            // compression finds slack the dense encoding leaves.
            assert!(
                ratio_of(IsaVariant::Rv32cCcrp) < ratio_of(IsaVariant::Rv32c),
                "{workload}: composition did not improve on rvc alone"
            );
            // §1's premise: a dense encoding leaves a byte code less to
            // remove, so CCRP shrinks RVC text by clearly less than it
            // shrinks RV32I text.
            let ccrp_over_rvc = ratio_of(IsaVariant::Rv32cCcrp) / ratio_of(IsaVariant::Rv32c);
            assert!(
                ccrp_over_rvc > ratio_of(IsaVariant::Rv32iCcrp) + 0.05,
                "{workload}: ccrp keeps {ccrp_over_rvc} of rvc text but {} of rv32i text",
                ratio_of(IsaVariant::Rv32iCcrp)
            );
            // rv32c and rv32c-ccrp replay the same trace through the
            // same cache, so their miss rates are identical per model —
            // only the refill path differs.
            for memory in MemoryModel::ALL {
                let rate_of = |variant: IsaVariant| {
                    group
                        .iter()
                        .find(|c| c.variant == variant && c.memory == memory)
                        .expect("cell present")
                        .miss_rate
                };
                assert_eq!(
                    rate_of(IsaVariant::Rv32c),
                    rate_of(IsaVariant::Rv32cCcrp),
                    "{workload}: same trace, different miss rate"
                );
            }
        }
    }
}
