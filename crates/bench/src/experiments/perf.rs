//! Tables 1–8 (relative performance vs cache size) and Figure 9
//! (relative performance vs miss rate).

use ccrp_sim::MemoryModel;

/// The cache sizes of §4.2.1.
pub const CACHE_SIZES: [u32; 5] = [256, 512, 1024, 2048, 4096];

/// One table cell: a (workload, cache, memory) configuration's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPoint {
    /// Instruction-cache bytes.
    pub cache_bytes: u32,
    /// Memory model.
    pub memory: MemoryModel,
    /// The paper's "Relative Performance": CCRP time / standard time.
    pub relative_performance: f64,
    /// Instruction-cache miss rate, 0..=1.
    pub miss_rate: f64,
    /// The paper's "Memory Traffic": CCRP bytes / standard bytes.
    pub memory_traffic: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Experiment, ExperimentResults, SweepOptions};

    fn tables_1_8_rows() -> Vec<(&'static str, Vec<PerfPoint>)> {
        let ExperimentResults::Tables1To8(tables) =
            run(Experiment::Tables1To8, &SweepOptions::default()).results
        else {
            unreachable!("a Tables 1–8 sweep folds into Tables 1–8 rows");
        };
        tables
    }

    fn figure9_points() -> Vec<(&'static str, PerfPoint)> {
        let ExperimentResults::Fig9(points) =
            run(Experiment::Fig9, &SweepOptions::default()).results
        else {
            unreachable!("a Figure 9 sweep folds into Figure 9 points");
        };
        points
    }

    #[test]
    fn eprom_wins_fast_memory_loses() {
        let tables = tables_1_8_rows();
        assert_eq!(tables.len(), 8);
        for (name, points) in &tables {
            for p in points {
                match p.memory {
                    MemoryModel::Eprom => assert!(
                        p.relative_performance <= 1.01,
                        "{name} EPROM {}B: {:.3}",
                        p.cache_bytes,
                        p.relative_performance
                    ),
                    _ => assert!(
                        p.relative_performance >= 0.999,
                        "{name} {:?} {}B: {:.3}",
                        p.memory,
                        p.cache_bytes,
                        p.relative_performance
                    ),
                }
                assert!(
                    p.memory_traffic < 1.0,
                    "{name}: traffic {:.3}",
                    p.memory_traffic
                );
            }
        }
    }

    #[test]
    fn miss_rates_decline_with_cache_size() {
        for (name, points) in tables_1_8_rows() {
            let eprom: Vec<&PerfPoint> = points
                .iter()
                .filter(|p| p.memory == MemoryModel::Eprom)
                .collect();
            for pair in eprom.windows(2) {
                assert!(
                    pair[1].miss_rate <= pair[0].miss_rate + 1e-12,
                    "{name}: miss rate rose from {}B to {}B",
                    pair[0].cache_bytes,
                    pair[1].cache_bytes
                );
            }
        }
    }

    #[test]
    fn figure9_correlation_signs() {
        // "for slow memories, the compressed code model will outperform
        // standard code more at higher miss rates while the opposite is
        // true for faster memory" (§4.2.3).
        let points = figure9_points();
        let corr = |memory: MemoryModel| {
            let sel: Vec<(f64, f64)> = points
                .iter()
                .filter(|(_, p)| p.memory == memory && p.miss_rate > 1e-4)
                .map(|(_, p)| (p.miss_rate, p.relative_performance))
                .collect();
            let n = sel.len() as f64;
            let mx = sel.iter().map(|p| p.0).sum::<f64>() / n;
            let my = sel.iter().map(|p| p.1).sum::<f64>() / n;
            let cov: f64 = sel.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
            let vx: f64 = sel.iter().map(|p| (p.0 - mx).powi(2)).sum();
            let vy: f64 = sel.iter().map(|p| (p.1 - my).powi(2)).sum();
            cov / (vx * vy).sqrt()
        };
        assert!(
            corr(MemoryModel::Eprom) < -0.5,
            "EPROM: {:.2}",
            corr(MemoryModel::Eprom)
        );
        assert!(
            corr(MemoryModel::BurstEprom) > 0.5,
            "Burst: {:.2}",
            corr(MemoryModel::BurstEprom)
        );
        assert!(
            corr(MemoryModel::ScDram) > 0.5,
            "DRAM: {:.2}",
            corr(MemoryModel::ScDram)
        );
    }

    #[test]
    fn dram_tracks_burst_eprom() {
        // §4.2.1: "The DRAM memory model produces quite similar results
        // to the Burst EPROM memory model".
        let points: Vec<PerfPoint> = figure9_points()
            .into_iter()
            .filter(|&(name, _)| name == "matrix25A")
            .map(|(_, point)| point)
            .collect();
        for &cache in &CACHE_SIZES {
            let by = |m: MemoryModel| {
                points
                    .iter()
                    .find(|p| p.memory == m && p.cache_bytes == cache)
                    .expect("swept")
                    .relative_performance
            };
            let burst = by(MemoryModel::BurstEprom);
            let dram = by(MemoryModel::ScDram);
            assert!(
                (burst - dram).abs() < 0.05,
                "cache {cache}: burst {burst:.3} vs dram {dram:.3}"
            );
        }
    }
}
