//! A small, seedable PRNG shared by the workspace's seeded campaigns.
//!
//! SplitMix64: fault plans, generated difftest programs and attestation
//! samples are each a pure function of one seed, so a failing case
//! reproduces from the single integer a report prints. Hand-rolled so
//! no crate needs an RNG dependency; statistical quality is ample for
//! all three. The same golden-ratio increment is used by the campaign
//! runners to derive per-trial seeds.

/// SplitMix64 generator (Steele, Lea & Flood; public-domain constants).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`. All values are valid seeds.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift reduction; the tiny modulo bias is irrelevant
        // for program generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `lo..=hi` (returns `lo` when the range is empty).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den` (`false` when `den == 0`).
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        den != 0 && self.below(den) < num
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        items.get(self.below(items.len() as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_are_the_published_ones() {
        // The reference implementation's first outputs for seed 0.
        let mut rng = SplitMix64::new(0);
        let outputs = [(); 4].map(|()| rng.next_u64());
        assert_eq!(
            outputs,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC
            ]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let v = rng.range(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.range(5, 2), 5);
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = SplitMix64::new(1);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            if let Some(&v) = rng.pick(&items) {
                seen[v - 1] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(rng.pick::<u32>(&[]).is_none());
    }
}
