//! The three instruction-memory models of §4.2.1, timed in 40 ns
//! processor cycles.
//!
//! * **EPROM** — standard ~100 ns EPROMs: every word read costs 3 cycles,
//!   with no burst advantage.
//! * **Burst EPROM** — 3 cycles for the first word of a burst, then 1
//!   cycle per subsequent sequential word.
//! * **Static-column DRAM** — 4 cycles for the first word (70 ns 4 Mb
//!   parts), 1 cycle per subsequent word, and a 2-cycle precharge after
//!   each burst during which the device cannot start a new access.

use ccrp::{Burst, MemoryTiming};

/// Which §4.2.1 memory model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Standard EPROM: 3 cycles per word, no bursts.
    Eprom,
    /// Burst-mode EPROM: 3 cycles first word, 1 per subsequent word.
    BurstEprom,
    /// Static-column DRAM: 4 + 1/word, 2-cycle precharge between bursts.
    ScDram,
}

impl MemoryModel {
    /// All three models, in the paper's presentation order.
    pub const ALL: [MemoryModel; 3] = [
        MemoryModel::Eprom,
        MemoryModel::BurstEprom,
        MemoryModel::ScDram,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            MemoryModel::Eprom => "EPROM",
            MemoryModel::BurstEprom => "Burst EPROM",
            MemoryModel::ScDram => "DRAM",
        }
    }

    /// Builds a fresh timing instance (DRAM models carry precharge
    /// state; a new instance starts idle).
    pub fn timing(self) -> MemorySim {
        MemorySim {
            model: self,
            ready_at: 0,
        }
    }
}

/// A stateful timing instance of one [`MemoryModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySim {
    model: MemoryModel,
    /// Earliest cycle the next access may start (DRAM precharge).
    ready_at: u64,
}

impl MemorySim {
    /// The model this instance simulates.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Cycles past `now` before the next access may start: 0 when the
    /// instance is idle, with no earlier burst's precharge still
    /// running. A burst issued to an idle instance is timed as a fresh
    /// instance times it at `now`, and leaves the same lag, whatever
    /// bursts came before; under every model, since only DRAM's
    /// precharge outlives a burst.
    pub(crate) fn lag(&self, now: u64) -> u64 {
        self.ready_at.saturating_sub(now)
    }

    /// Leaves the instance busy for `lag` cycles past `now`, as a refill
    /// that left that lag behind would have.
    pub(crate) fn set_lag(&mut self, now: u64, lag: u64) {
        self.ready_at = now + lag;
    }
}

impl MemoryTiming for MemorySim {
    fn read_burst(&mut self, words: u32, now: u64) -> Burst {
        // panic-ok: documented contract — a burst reads at least one word.
        debug_assert!(words > 0, "zero-word burst");
        match self.model {
            // Every word is an independent 3-cycle access.
            MemoryModel::Eprom => Burst {
                first: now + 3,
                interval: 3,
            },
            MemoryModel::BurstEprom => Burst {
                first: now + 3,
                interval: 1,
            },
            MemoryModel::ScDram => {
                let burst = Burst {
                    first: now.max(self.ready_at) + 4,
                    interval: 1,
                };
                self.ready_at = burst.last(words) + 2;
                burst
            }
        }
    }
}

/// Cycles for a standard processor's 8-word (32-byte) line refill,
/// starting from an idle memory. Useful as a reference constant in tests
/// and reports: EPROM 24, Burst EPROM 10, DRAM 11.
pub fn standard_refill_cycles(model: MemoryModel) -> u64 {
    model.timing().read_burst(8, 0).last(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every word's arrival cycle of a `words`-word read at `now`.
    fn arrivals(timing: &mut MemorySim, words: u32, now: u64) -> Vec<u64> {
        let burst = timing.read_burst(words, now);
        (0..words).map(|i| burst.arrival(i)).collect()
    }

    #[test]
    fn paper_refill_constants() {
        assert_eq!(standard_refill_cycles(MemoryModel::Eprom), 24);
        assert_eq!(standard_refill_cycles(MemoryModel::BurstEprom), 10);
        assert_eq!(standard_refill_cycles(MemoryModel::ScDram), 11);
    }

    #[test]
    fn eprom_has_no_burst_advantage() {
        let mut t = MemoryModel::Eprom.timing();
        assert_eq!(arrivals(&mut t, 4, 100), vec![103, 106, 109, 112]);
    }

    #[test]
    fn burst_eprom_streams() {
        let mut t = MemoryModel::BurstEprom.timing();
        assert_eq!(arrivals(&mut t, 4, 100), vec![103, 104, 105, 106]);
    }

    #[test]
    fn dram_precharge_delays_back_to_back_bursts() {
        let mut t = MemoryModel::ScDram.timing();
        assert_eq!(arrivals(&mut t, 2, 0), vec![4, 5]);
        // Immediately following access must wait for precharge (ready 7):
        // the one case the sweep kernel's refill memo times directly.
        assert_eq!(t.lag(5), 2);
        assert_eq!(arrivals(&mut t, 1, 5), vec![11]);
        // A distant access is unaffected.
        assert_eq!(arrivals(&mut t, 1, 1000), vec![1004]);
    }

    #[test]
    fn arrivals_are_monotone() {
        for model in MemoryModel::ALL {
            let a = arrivals(&mut model.timing(), 8, 17);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "{model:?}");
            assert!(a[0] > 17);
        }
    }

    #[test]
    fn names_match_tables() {
        assert_eq!(MemoryModel::Eprom.name(), "EPROM");
        assert_eq!(MemoryModel::BurstEprom.name(), "Burst EPROM");
    }

    proptest! {
        /// A burst issued to an idle instance (`now` at or past its
        /// precharge) is timed as a fresh instance times it at `now`, and
        /// leaves the same lag, whatever bursts came before: the premise
        /// of the sweep kernel's refill memo, under every model.
        #[test]
        fn bursts_issued_to_an_idle_memory_ignore_earlier_bursts(
            earlier in proptest::collection::vec((1u32..=9, 0u64..40), 0..24),
            words in 1u32..=9,
            gap in 0u64..40,
        ) {
            for model in MemoryModel::ALL {
                let mut timing = model.timing();
                let mut now = 0;
                for &(words, gap) in &earlier {
                    now += gap;
                    timing.read_burst(words, now);
                }
                now += gap;
                let now = now.max(timing.ready_at);
                prop_assert_eq!(timing.lag(now), 0);
                let mut fresh = model.timing();
                prop_assert_eq!(
                    timing.read_burst(words, now),
                    fresh.read_burst(words, now),
                    "{:?}",
                    model
                );
                prop_assert_eq!(timing.lag(now), fresh.lag(now), "{:?}", model);
            }
        }
    }
}
