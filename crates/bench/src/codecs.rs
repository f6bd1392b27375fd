//! The codec × memory-model ablation matrix.
//!
//! Compresses every traced workload with each [`LineCodec`] backend and
//! replays its trace under every memory model, charting the
//! compression-ratio vs refill-latency frontier the pluggable-codec
//! design exposes. The trace is the one the [`Suite`](crate::Suite)
//! captured when it executed the workload; the matrix captures none.
//!
//! * **byte-huffman** — the paper's preselected bounded Huffman code,
//!   the hardware baseline;
//! * **positional** — §5's per-byte-offset codes: better ratios for the
//!   same parallel-table decode throughput, at 4× the table storage;
//! * **lzw** — per-line bounded LZW: the strongest ratios, but its
//!   serial dictionary chase caps expansion at 1 byte/cycle, so refills
//!   stall harder.
//!
//! Every cell also re-expands the whole compressed image and compares
//! it against the original text — a correctness oracle riding along
//! with the measurement. Cells are a pure function of the workload set,
//! so a campaign is bit-identical across `--jobs` settings.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ccrp::CompressedImage;
use ccrp_compress::{BlockAlignment, CodecId, LineCodec, LzwLineCodec};
use ccrp_sim::{MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::{preselected_code, preselected_positional_code};

use crate::json::Json;
use crate::report::{duration_json, envelope, ToJson};
use crate::runner::parallel_map;
use crate::suite::{suite_with_jobs, Prepared};

/// The instruction-cache size every matrix cell simulates (one mid-range
/// point of the paper's Tables 1–8 sweep; the codec comparison holds the
/// cache fixed so only the codec and memory model vary).
pub const CACHE_BYTES: u32 = 1024;

/// The corpus-trained instance of one codec backend, as the hardwired
/// decoder of a preselected-code system would ship it.
pub fn codec_instance(id: CodecId) -> Arc<dyn LineCodec> {
    match id {
        CodecId::ByteHuffman => Arc::new(preselected_code().clone()),
        CodecId::Positional => Arc::new(preselected_positional_code().clone()),
        CodecId::Lzw => Arc::new(LzwLineCodec::new()),
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct CodecsOptions {
    /// Worker threads (1 = serial). Does not affect results.
    pub jobs: usize,
}

impl Default for CodecsOptions {
    fn default() -> Self {
        Self {
            jobs: crate::runner::available_jobs(),
        }
    }
}

/// One matrix cell: a (workload, codec, memory-model) configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecCell {
    /// Workload name, as in the paper's tables.
    pub workload: &'static str,
    /// The codec backend.
    pub codec: CodecId,
    /// The memory model.
    pub memory: MemoryModel,
    /// Stored size (blocks + LAT) over original size.
    pub compression_ratio: f64,
    /// CCRP time / standard time (the paper's "Relative Performance").
    pub relative_performance: f64,
    /// Instruction-cache miss rate, 0..=1.
    pub miss_rate: f64,
    /// CCRP bytes / standard bytes over the instruction bus.
    pub memory_traffic: f64,
    /// Total CCRP cycles spent waiting on line refills.
    pub refill_cycles: u64,
    /// Decoder table/dictionary storage the codec's hardware holds.
    pub table_bits: u64,
    /// The expansion rate the refill engine actually ran at, after the
    /// codec's hardware cap clamps the configured rate.
    pub effective_decode_rate: u32,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CodecsReport {
    /// The options the campaign ran with.
    pub options: CodecsOptions,
    /// Every matrix cell, ordered workload-major, then codec
    /// ([`CodecId::ALL`]), then memory model ([`MemoryModel::ALL`]).
    pub cells: Vec<CodecCell>,
    /// End-to-end wall time.
    pub total_wall: Duration,
}

/// Builds `workload`'s image under `codec` and proves it expands back to
/// the original text, line for line.
///
/// # Panics
///
/// Panics when the image fails to build or any line miscompares — the
/// campaign doubles as a correctness oracle, so a codec that corrupts a
/// workload must abort the run loudly rather than skew the numbers.
fn build_checked(prepared: &Prepared, id: CodecId) -> CompressedImage {
    let name = prepared.workload.name;
    let image = match id {
        // The suite already built (and uses) the byte-Huffman image.
        CodecId::ByteHuffman => return prepared.image.clone(),
        _ => CompressedImage::build_with_codec(
            0,
            &prepared.workload.text,
            codec_instance(id),
            BlockAlignment::Word,
        )
        .unwrap_or_else(|e| panic!("{name} must compress under {id}: {e}")),
    };
    let mut line = [0u8; 32];
    for (index, chunk) in prepared.workload.text.chunks(32).enumerate() {
        image
            .expand_line_into(index as u32 * 32, &mut line)
            .unwrap_or_else(|e| panic!("{name} line {index} must expand under {id}: {e}"));
        assert_eq!(
            &line[..chunk.len()],
            chunk,
            "{name} line {index} miscompares under {id}"
        );
    }
    image
}

/// One campaign job: all memory-model cells of a (workload, codec) pair,
/// replayed in a single pass over the trace the suite captured.
fn run_pair(prepared: &Prepared, id: CodecId) -> Vec<CodecCell> {
    let image = build_checked(prepared, id);
    let configs: Vec<SystemConfig> = MemoryModel::ALL
        .into_iter()
        .map(|memory| {
            SystemConfig::new()
                .with_cache_bytes(CACHE_BYTES)
                .with_memory(memory)
        })
        .collect();
    let comparisons = Simulation::replay_sweep(&image, &prepared.workload.trace, &configs)
        .unwrap_or_else(|e| panic!("{} sweep under {id}: {e}", prepared.workload.name));
    let cost = image.codec().cost();
    MemoryModel::ALL
        .into_iter()
        .zip(comparisons)
        .map(|(memory, cmp)| CodecCell {
            workload: prepared.workload.name,
            codec: id,
            memory,
            compression_ratio: image.compression_ratio(),
            relative_performance: cmp.relative_execution_time(),
            miss_rate: cmp.miss_rate(),
            memory_traffic: cmp.memory_traffic_ratio(),
            refill_cycles: cmp.ccrp.refill_cycles,
            table_bits: cost.table_bits,
            effective_decode_rate: cost
                .effective_rate(ccrp::RefillConfig::default().decode_bytes_per_cycle),
        })
        .collect()
}

/// Runs the full matrix: every workload × [`CodecId::ALL`] ×
/// [`MemoryModel::ALL`]. Results depend only on the workload set —
/// `options.jobs` changes wall time, never cells.
pub fn run(options: CodecsOptions) -> CodecsReport {
    let started = Instant::now();
    let suite = suite_with_jobs(options.jobs);
    let pairs: Vec<(&Prepared, CodecId)> = suite
        .iter()
        .flat_map(|p| CodecId::ALL.map(|id| (p, id)))
        .collect();
    let cells = parallel_map(options.jobs, &pairs, |&(prepared, id)| {
        run_pair(prepared, id)
    })
    .into_iter()
    .flat_map(|(cells, _)| cells)
    .collect();
    CodecsReport {
        options,
        cells,
        total_wall: started.elapsed(),
    }
}

impl CodecsReport {
    /// The deterministic half of the report: identical across job counts
    /// and machines.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ccrp-bench-codecs/1")),
            ("cache_bytes", Json::U64(u64::from(CACHE_BYTES))),
            (
                "codecs",
                Json::Arr(
                    CodecId::ALL
                        .map(|id| Json::str(id.name()))
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
                                ("codec", Json::str(c.codec.name())),
                                ("memory", Json::str(c.memory.name())),
                                ("compression_ratio", Json::F64(c.compression_ratio)),
                                ("relative_performance", Json::F64(c.relative_performance)),
                                ("miss_rate", Json::F64(c.miss_rate)),
                                ("memory_traffic", Json::F64(c.memory_traffic)),
                                ("refill_cycles", Json::U64(c.refill_cycles)),
                                ("table_bits", Json::U64(c.table_bits)),
                                (
                                    "effective_decode_rate",
                                    Json::U64(u64::from(c.effective_decode_rate)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for CodecsReport {
    /// [`results_json`](CodecsReport::results_json) plus the
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
        let serial = run(CodecsOptions { jobs: 1 });
        let parallel = run(CodecsOptions { jobs: 4 });
        assert_eq!(
            serial.cells.len(),
            8 * CodecId::ALL.len() * MemoryModel::ALL.len()
        );
        assert_eq!(serial.cells, parallel.cells);
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact()
        );
        assert_envelope(&parallel, parallel.results_json(), 4);
    }

    #[test]
    fn frontier_shape_holds() {
        let report = run(CodecsOptions::default());
        for prepared_cells in report
            .cells
            .chunks(CodecId::ALL.len() * MemoryModel::ALL.len())
        {
            let ratio_of = |id: CodecId| {
                prepared_cells
                    .iter()
                    .find(|c| c.codec == id)
                    .expect("cell present")
                    .compression_ratio
            };
            // §5's promise: positional codes beat the plain byte code.
            assert!(
                ratio_of(CodecId::Positional) <= ratio_of(CodecId::ByteHuffman) + 1e-9,
                "{}",
                prepared_cells[0].workload
            );
            // LZW's serial decoder is rate-limited; the Huffman decoders
            // run at the full configured rate.
            for cell in prepared_cells {
                match cell.codec {
                    CodecId::Lzw => assert_eq!(cell.effective_decode_rate, 1),
                    _ => assert_eq!(cell.effective_decode_rate, 2),
                }
            }
        }
    }
}
