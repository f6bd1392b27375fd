//! Ablations of the design choices the paper discusses but does not
//! tabulate: block alignment (Figure 1), LAT encoding (§3.2), and
//! decoder throughput (§3.4).

use ccrp::{CompactLatEntry, CompressedImage, COMPACT_ENTRY_BYTES, RECORDS_PER_ENTRY};
use ccrp_compress::BlockAlignment;
use ccrp_sim::{MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::{preselected_code, preselected_positional_code};

use crate::suite::{Prepared, Suite};

/// Stored-size comparison of byte- vs word-aligned compressed blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentRow {
    /// Workload name.
    pub name: &'static str,
    /// Original text bytes.
    pub original: u32,
    /// Stored bytes (blocks + LAT) with byte-aligned blocks.
    pub byte_aligned: u32,
    /// Stored bytes (blocks + LAT) with word-aligned blocks.
    pub word_aligned: u32,
}

/// Figure 1's trade-off, measured: "Byte alignment provides slightly
/// better compression while word alignment simplifies accessing
/// hardware."
///
/// # Panics
///
/// Panics if an image fails to build (impossible for suite workloads).
pub fn alignment_ablation(suite: &Suite) -> Vec<AlignmentRow> {
    let code = preselected_code();
    suite
        .iter()
        .map(|p| {
            let byte =
                CompressedImage::build(0, &p.workload.text, code.clone(), BlockAlignment::Byte)
                    .expect("suite text compresses");
            AlignmentRow {
                name: p.workload.name,
                original: byte.original_bytes(),
                byte_aligned: byte.total_stored_bytes(false),
                word_aligned: p.image.total_stored_bytes(false),
            }
        })
        .collect()
}

/// LAT-encoding comparison (§3.2): the naive one-pointer-per-line table
/// against the paper's grouped 8-byte entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatRow {
    /// Workload name.
    pub name: &'static str,
    /// Original text bytes.
    pub original: u32,
    /// Bytes for a naive 4-byte pointer per 32-byte line (12.5%).
    pub naive_bytes: u32,
    /// Bytes for the grouped entry (8 bytes per 8 lines, 3.125%).
    pub grouped_bytes: u32,
}

/// Computes both LAT encodings' overhead for every workload.
pub fn lat_ablation(suite: &Suite) -> Vec<LatRow> {
    suite
        .iter()
        .map(|p| {
            let lines = p.image.line_count() as u32;
            LatRow {
                name: p.workload.name,
                original: p.image.original_bytes(),
                naive_bytes: lines * 4,
                grouped_bytes: lines.div_ceil(RECORDS_PER_ENTRY as u32) * 8,
            }
        })
        .collect()
}

/// Decoder-rate sensitivity (§3.4): relative performance as the decoder
/// retires 1, 2, 4, or 8 bytes per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecoderRow {
    /// Memory model.
    pub memory: MemoryModel,
    /// Decoder bytes per cycle.
    pub bytes_per_cycle: u32,
    /// Relative performance at a 256-byte cache (worst case for refills).
    pub relative: f64,
}

/// The decode rates swept by the ablation.
pub const DECODE_RATES: [u32; 4] = [1, 2, 4, 8];

/// Runs the decoder-rate sweep for one workload at a 256-byte cache.
///
/// # Panics
///
/// Panics on simulator configuration errors.
pub fn decoder_ablation(prepared: &Prepared) -> Vec<DecoderRow> {
    let mut rows = Vec::new();
    for memory in MemoryModel::ALL {
        for &rate in &DECODE_RATES {
            let config = SystemConfig::new()
                .with_cache_bytes(256)
                .with_memory(memory)
                .with_decode_bytes_per_cycle(rate);
            let cmp = Simulation::new(config)
                .compare(&prepared.image, &prepared.workload.trace)
                .expect("paper configurations are valid");
            rows.push(DecoderRow {
                memory,
                bytes_per_cycle: rate,
                relative: cmp.relative_execution_time(),
            });
        }
    }
    rows
}

/// §5 extension study: the positional (per-byte-position) preselected
/// code against the paper's single preselected code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionalRow {
    /// Workload name.
    pub name: &'static str,
    /// Compressed bits per byte under the single preselected code.
    pub single_bits_per_byte: f64,
    /// Compressed bits per byte under the positional preselected code.
    pub positional_bits_per_byte: f64,
}

/// Measures both preselected codes over every workload text.
pub fn positional_extension(suite: &Suite) -> Vec<PositionalRow> {
    let single = preselected_code();
    let positional = preselected_positional_code();
    suite
        .iter()
        .map(|p| {
            let text = &p.workload.text;
            let bytes = text.len() as f64;
            PositionalRow {
                name: p.workload.name,
                single_bits_per_byte: single.encoded_bits(text) as f64 / bytes,
                positional_bits_per_byte: positional.encoded_bits(text) as f64 / bytes,
            }
        })
        .collect()
}

/// §5 extension study: the compact (word-granular, 7-byte) LAT entry
/// against the paper's 8-byte entry, with addressing equivalence checked
/// entry by entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactLatRow {
    /// Workload name.
    pub name: &'static str,
    /// Standard LAT bytes (8 B / 8 lines, 3.125%).
    pub standard_bytes: u32,
    /// Compact LAT bytes (7 B / 8 lines, 2.73%).
    pub compact_bytes: u32,
}

/// Converts every workload's LAT to the compact encoding, verifying
/// block addresses match exactly.
///
/// # Panics
///
/// Panics if a word-aligned image produces a non-word-aligned LAT entry
/// or the encodings disagree — both would be bugs in `ccrp`.
pub fn compact_lat_extension(suite: &Suite) -> Vec<CompactLatRow> {
    suite
        .iter()
        .map(|p| {
            let mut compact_bytes = 0u32;
            for entry in p.image.lat().iter() {
                let compact =
                    CompactLatEntry::from_standard(entry).expect("word-aligned images convert");
                for i in 0..RECORDS_PER_ENTRY {
                    assert_eq!(
                        compact.block_address(i),
                        entry.block_address(i),
                        "{}: compact LAT addressing must be equivalent",
                        p.workload.name
                    );
                }
                // Round-trip through the in-memory format too.
                assert_eq!(CompactLatEntry::decode(compact.encode()), compact);
                compact_bytes += COMPACT_ENTRY_BYTES as u32;
            }
            CompactLatRow {
                name: p.workload.name,
                standard_bytes: p.image.lat().storage_bytes(),
                compact_bytes,
            }
        })
        .collect()
}

/// §5's closing question — "whether or not this [bandwidth reduction]
/// can have a significant impact on the performance of multiprocessor
/// systems" — answered with a shared-bus saturation model: cores that
/// one 4-byte-per-cycle instruction bus sustains before their combined
/// fetch demand exceeds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusRow {
    /// Workload name.
    pub name: &'static str,
    /// Bus demand of one standard core, bytes per cycle.
    pub standard_demand: f64,
    /// Bus demand of one CCRP core, bytes per cycle.
    pub ccrp_demand: f64,
    /// Cores sustained at 4 B/cycle bus capacity, standard.
    pub standard_cores: f64,
    /// Cores sustained at 4 B/cycle bus capacity, CCRP.
    pub ccrp_cores: f64,
}

/// Computes per-core instruction-bus demand at a 256-byte cache on
/// burst EPROM (the bandwidth-hungry corner) for both processor types.
///
/// # Panics
///
/// Panics on simulator configuration errors.
pub fn bus_bandwidth_study(suite: &Suite) -> Vec<BusRow> {
    const BUS_BYTES_PER_CYCLE: f64 = 4.0;
    let config = SystemConfig::new()
        .with_cache_bytes(256)
        .with_memory(MemoryModel::BurstEprom);
    suite
        .iter()
        .map(|p| {
            let std_run = Simulation::new(config)
                .standard(&p.workload.trace)
                .expect("paper configurations are valid");
            let ccrp_run = Simulation::new(config)
                .ccrp(&p.image, &p.workload.trace)
                .expect("paper configurations are valid");
            let standard_demand = std_run.bytes_from_memory as f64 / std_run.total_cycles();
            let ccrp_demand = ccrp_run.bytes_from_memory as f64 / ccrp_run.total_cycles();
            BusRow {
                name: p.workload.name,
                standard_demand,
                ccrp_demand,
                standard_cores: BUS_BYTES_PER_CYCLE / standard_demand,
                ccrp_cores: BUS_BYTES_PER_CYCLE / ccrp_demand,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite;

    #[test]
    fn byte_alignment_stores_less() {
        for row in alignment_ablation(suite()) {
            assert!(row.byte_aligned <= row.word_aligned, "{}", row.name);
            assert!(row.byte_aligned < row.original, "{}", row.name);
        }
    }

    #[test]
    fn grouped_lat_is_four_times_smaller() {
        for row in lat_ablation(suite()) {
            // 12.5% vs 3.125% of original size.
            assert!((f64::from(row.naive_bytes) / f64::from(row.original) - 0.125).abs() < 0.01);
            let grouped = f64::from(row.grouped_bytes) / f64::from(row.original);
            assert!((grouped - 0.03125).abs() < 0.01, "{}: {grouped}", row.name);
        }
    }

    #[test]
    fn positional_code_never_loses_much_and_usually_wins() {
        let rows = positional_extension(suite());
        let mut wins = 0;
        for row in &rows {
            assert!(
                row.positional_bits_per_byte <= row.single_bits_per_byte + 0.05,
                "{}: positional {:.3} vs single {:.3}",
                row.name,
                row.positional_bits_per_byte,
                row.single_bits_per_byte
            );
            if row.positional_bits_per_byte < row.single_bits_per_byte {
                wins += 1;
            }
        }
        assert!(
            wins >= rows.len() - 1,
            "positional should win nearly everywhere: {wins}/{}",
            rows.len()
        );
    }

    #[test]
    fn compact_lat_equivalent_and_smaller() {
        for row in compact_lat_extension(suite()) {
            assert!(row.compact_bytes < row.standard_bytes, "{}", row.name);
            assert_eq!(
                f64::from(row.compact_bytes) / f64::from(row.standard_bytes),
                7.0 / 8.0,
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn ccrp_sustains_more_cores_on_a_shared_bus() {
        for row in bus_bandwidth_study(suite()) {
            assert!(
                row.ccrp_cores > row.standard_cores,
                "{}: {:.1} vs {:.1} cores",
                row.name,
                row.ccrp_cores,
                row.standard_cores
            );
        }
    }

    #[test]
    fn faster_decoders_monotonically_help() {
        let rows = decoder_ablation(suite().get("espresso"));
        for memory in MemoryModel::ALL {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.memory == memory)
                .map(|r| r.relative)
                .collect();
            for pair in series.windows(2) {
                assert!(pair[1] <= pair[0] + 1e-12, "{memory:?}: {series:?}");
            }
        }
        // On fast memory the decoder is the bottleneck, so the rate
        // matters; §3.4 calls the decode speed "a major limiting factor".
        let burst: Vec<f64> = rows
            .iter()
            .filter(|r| r.memory == MemoryModel::BurstEprom)
            .map(|r| r.relative)
            .collect();
        assert!(
            burst[0] - burst[3] > 0.05,
            "decoder rate should matter on fast memory"
        );
    }
}
