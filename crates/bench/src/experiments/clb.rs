//! Tables 9–10: the effect of CLB size (4, 8, 16 entries) on relative
//! performance for NASA7 and espresso.

use ccrp_sim::MemoryModel;

/// The CLB capacities of §4.2.2.
pub const CLB_SIZES: [usize; 3] = [16, 8, 4];

/// One row of Table 9/10: a cache size with relative performance per
/// CLB capacity (ordered as [`CLB_SIZES`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClbRow {
    /// Memory model for this block of rows.
    pub memory: MemoryModel,
    /// Instruction-cache bytes.
    pub cache_bytes: u32,
    /// Relative performance for 16/8/4 CLB entries.
    pub relative: [f64; 3],
    /// CLB miss rate (of cache-miss probes) for 16/8/4 entries.
    pub clb_miss_rate: [f64; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, Experiment, ExperimentResults, SweepOptions};

    fn tables_9_10_rows() -> Vec<(&'static str, Vec<ClbRow>)> {
        let ExperimentResults::Tables9To10(tables) =
            run(Experiment::Tables9To10, &SweepOptions::default()).results
        else {
            unreachable!("a Tables 9–10 sweep folds into Tables 9–10 rows");
        };
        tables
    }

    #[test]
    fn smaller_clb_never_helps() {
        for (name, rows) in tables_9_10_rows() {
            for row in &rows {
                // relative[0] is the 16-entry CLB; shrinking the CLB can
                // only add LAT reads, so CCRP time (and thus the ratio)
                // must not decrease.
                assert!(
                    row.relative[1] >= row.relative[0] - 1e-12
                        && row.relative[2] >= row.relative[1] - 1e-12,
                    "{name} {:?} {}B: {:?}",
                    row.memory,
                    row.cache_bytes,
                    row.relative
                );
                assert!(
                    row.clb_miss_rate[2] >= row.clb_miss_rate[0] - 1e-12,
                    "{name}: CLB miss rate fell when shrinking"
                );
            }
        }
    }

    #[test]
    fn variations_are_minor_as_paper_observes() {
        // §4.2.2: "These programs show only minor variations with
        // respect to CLB size over this range."
        for (name, rows) in tables_9_10_rows() {
            for row in &rows {
                let spread = row.relative[2] - row.relative[0];
                assert!(
                    spread < 0.08,
                    "{name} {:?} {}B: spread {spread:.3}",
                    row.memory,
                    row.cache_bytes
                );
            }
        }
    }
}
