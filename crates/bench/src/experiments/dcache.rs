//! Tables 11–13: the effect of a data cache on CCRP relative
//! performance (1 KB instruction cache, data-cache miss rates from 0% to
//! 100%).

use ccrp_sim::MemoryModel;

/// The data-cache miss rates of §4.2.4, in percent.
pub const DCACHE_MISS_PCTS: [u32; 5] = [0, 2, 10, 25, 100];

/// One row of Tables 11–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcacheRow {
    /// Memory model for this block.
    pub memory: MemoryModel,
    /// Data-cache miss rate in percent.
    pub dcache_miss_pct: u32,
    /// Relative performance at a 1024-byte instruction cache.
    pub relative: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Experiment, ExperimentResults, SweepOptions};

    fn tables_11_13_rows() -> Vec<(&'static str, Vec<DcacheRow>)> {
        let ExperimentResults::Tables11To13(tables) =
            run(Experiment::Tables11To13, &SweepOptions::default()).results
        else {
            unreachable!("a Tables 11–13 sweep folds into Tables 11–13 rows");
        };
        tables
    }

    #[test]
    fn data_stalls_dilute_the_gap() {
        // §4.2.4: "As the data cache miss rate increases, the effect of
        // the CCRP on performance is reduced" — relative performance
        // moves monotonically toward 1.0.
        for (name, rows) in tables_11_13_rows() {
            for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                let gaps: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.memory == memory)
                    .map(|r| (r.relative - 1.0).abs())
                    .collect();
                assert_eq!(gaps.len(), DCACHE_MISS_PCTS.len());
                for pair in gaps.windows(2) {
                    assert!(
                        pair[1] <= pair[0] + 1e-12,
                        "{name} {memory:?}: gap grew with data misses: {gaps:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_percent_matches_pure_instruction_behaviour() {
        // At 0% data-cache misses, data accesses are free and the whole
        // difference is instruction-side; the gap must be the widest of
        // the sweep.
        for (_, rows) in tables_11_13_rows() {
            let zero = rows
                .iter()
                .find(|r| r.memory == MemoryModel::Eprom && r.dcache_miss_pct == 0)
                .expect("0% row exists");
            let hundred = rows
                .iter()
                .find(|r| r.memory == MemoryModel::Eprom && r.dcache_miss_pct == 100)
                .expect("100% row exists");
            assert!((zero.relative - 1.0).abs() >= (hundred.relative - 1.0).abs() - 1e-12);
        }
    }
}
