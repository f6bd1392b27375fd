//! The analytical data-cache model of §4.2.4.
//!
//! "Data cache hits are assumed to take no additional cycles. Data cache
//! misses add 4 cycles per access. A miss rate is multiplied by the
//! number of data accesses to predict the overall performance." Most
//! experiments run with no data cache at all — a 100% miss rate.

/// Analytical data-memory cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCacheModel {
    /// Fraction of data accesses that miss, 0..=1. 1.0 models the common
    /// embedded configuration with no data cache.
    pub miss_rate: f64,
    /// Cycles added per missing access (4 in the paper: one random DRAM
    /// word access).
    pub miss_penalty: u64,
}

impl DataCacheModel {
    /// No data cache: every access is a 4-cycle DRAM word read (the
    /// configuration of Tables 1–10).
    pub const NONE: DataCacheModel = DataCacheModel {
        miss_rate: 1.0,
        miss_penalty: 4,
    };

    /// A data cache with the given miss rate and the paper's 4-cycle
    /// penalty (Tables 11–13 sweep 0%, 2%, 10%, 25%, 100%).
    ///
    /// # Panics
    ///
    /// Panics if `miss_rate` is outside 0..=1.
    pub fn with_miss_rate(miss_rate: f64) -> Self {
        // panic-ok: documented contract — the rate is a probability.
        assert!(
            (0.0..=1.0).contains(&miss_rate),
            "miss rate {miss_rate} out of range"
        );
        Self {
            miss_rate,
            miss_penalty: 4,
        }
    }

    /// Expected stall cycles for `accesses` data references.
    pub fn stall_cycles(&self, accesses: u64) -> f64 {
        self.miss_rate * self.miss_penalty as f64 * accesses as f64
    }
}

impl Default for DataCacheModel {
    fn default() -> Self {
        Self::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cache_costs_four_per_access() {
        assert_eq!(DataCacheModel::NONE.stall_cycles(1000), 4000.0);
    }

    #[test]
    fn perfect_cache_costs_nothing() {
        assert_eq!(DataCacheModel::with_miss_rate(0.0).stall_cycles(12345), 0.0);
    }

    #[test]
    fn partial_miss_rates_scale_linearly() {
        let m = DataCacheModel::with_miss_rate(0.25);
        assert_eq!(m.stall_cycles(100), 100.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rate_panics() {
        DataCacheModel::with_miss_rate(1.5);
    }
}
