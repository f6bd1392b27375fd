//! Length-limited Huffman codes via the package-merge algorithm
//! (Larmore & Hirschberg's coin-collector formulation).
//!
//! The paper's *Bounded Huffman* code caps symbol lengths at 16 bits so
//! the two-bytes-per-cycle decode hardware stays shallow: "A modified
//! Huffman encoding scheme was implemented such that no byte is
//! represented by a code symbol of more than 16 bits" (§2.2).

use crate::error::CompressError;
use crate::histogram::ByteHistogram;
use crate::huffman::{huffman_lengths, sorted_symbols};

/// The length bound used throughout the paper's experiments.
pub const PAPER_MAX_LEN: u8 = 16;

/// Computes optimal code lengths subject to `max_len`, for every byte
/// with a nonzero count.
///
/// When the unbounded Huffman code already fits `max_len`, those are the
/// lengths, and they come from one two-queue pass. Otherwise the bound
/// binds and package-merge runs, in O(n·L) time and space for n distinct
/// bytes and bound L: each of the L levels of the coin-collector keeps
/// only its merged weights and one is-package flag per entry, and the
/// selection is read back from the flags.
///
/// The shortcut is exact, not only equally cheap. Package-merge's levels
/// converge to the two-queue order, leaves sorted by `(count, byte)`
/// ahead of packages of equal weight, with package j made of entries 2j
/// and 2j+1 of the level below. So when the Huffman tree fits the bound,
/// it is the tree package-merge's walk-back descends.
///
/// # Errors
///
/// * [`CompressError::EmptyHistogram`] if no byte occurs;
/// * [`CompressError::LengthTooLong`] if `max_len` is too small to code
///   the alphabet (needs `2^max_len >=` distinct symbols) or over 32.
///
/// # Examples
///
/// ```
/// use ccrp_compress::{bounded_lengths, ByteHistogram, PAPER_MAX_LEN};
///
/// let hist = ByteHistogram::of(b"the quick brown fox jumps over the lazy dog");
/// let lengths = bounded_lengths(&hist, PAPER_MAX_LEN)?;
/// assert!(lengths.iter().all(|&l| l <= PAPER_MAX_LEN));
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
pub fn bounded_lengths(histogram: &ByteHistogram, max_len: u8) -> Result<[u8; 256], CompressError> {
    if max_len == 0 || max_len > 32 {
        return Err(CompressError::LengthTooLong { length: max_len });
    }
    let mut buffer = [(0, 0); 256];
    let symbols = sorted_symbols(histogram.counts(), &mut buffer);
    let n = symbols.len();
    if n == 0 {
        return Err(CompressError::EmptyHistogram);
    }
    if (max_len as u32) < 32 && n as u64 > (1u64 << max_len) {
        return Err(CompressError::LengthTooLong { length: max_len });
    }
    let huffman = huffman_lengths(symbols);
    if huffman.iter().all(|&l| l <= max_len) {
        return Ok(huffman);
    }

    let items: Vec<u64> = symbols.iter().map(|&(_, count)| count).collect();

    // Coin-collector: level `max_len` holds bare items; each shallower
    // level merges the items with pairs packaged from the level below.
    // Package j of a level is entries 2j and 2j+1 of the level below, so
    // a level only records which of its entries are packages.
    let mut weights = items.clone();
    let mut is_package = vec![vec![false; n]];
    for _level in (1..max_len).rev() {
        let packages = weights.len() / 2;
        let mut merged = Vec::with_capacity(n + packages);
        let mut flags = Vec::with_capacity(n + packages);
        let (mut i, mut j) = (0, 0);
        while i < n || j < packages {
            let package = (j < packages).then(|| weights[2 * j] + weights[2 * j + 1]);
            match package {
                // An item goes before a package of equal weight.
                Some(weight) if i == n || weight < items[i] => {
                    merged.push(weight);
                    flags.push(true);
                    j += 1;
                }
                _ => {
                    merged.push(items[i]);
                    flags.push(false);
                    i += 1;
                }
            }
        }
        weights = merged;
        is_package.push(flags);
    }

    // Walk back from level 1, selecting its cheapest 2(n-1) entries. The
    // items selected at a level are a prefix of the sorted symbols, and
    // each gains one bit; the p packages selected there select the first
    // 2p entries of the level below.
    let mut lengths = [0u8; 256];
    let mut take = 2 * (n - 1);
    for flags in is_package.iter().rev() {
        let packages = flags.iter().take(take).filter(|&&p| p).count();
        let items_taken = take.min(flags.len()) - packages;
        for &(sym, _) in symbols.iter().take(items_taken) {
            lengths[sym as usize] += 1;
        }
        take = 2 * packages;
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::traditional_lengths;
    use proptest::prelude::*;

    /// The original contents-vector package-merge, kept as the oracle
    /// for [`bounded_lengths`]: every package carries a count of each
    /// item it contains.
    #[derive(Debug, Clone)]
    struct Package {
        weight: u64,
        /// Count of each original item contained in this package, indexed by
        /// position in the sorted symbol list.
        contents: Vec<u16>,
    }

    fn reference_lengths(
        histogram: &ByteHistogram,
        max_len: u8,
    ) -> Result<[u8; 256], CompressError> {
        if max_len == 0 || max_len > 32 {
            return Err(CompressError::LengthTooLong { length: max_len });
        }
        let mut symbols: Vec<(u8, u64)> = (0u16..256)
            .map(|b| (b as u8, histogram.count(b as u8)))
            .filter(|&(_, c)| c > 0)
            .collect();
        let n = symbols.len();
        let mut lengths = [0u8; 256];
        match n {
            0 => return Err(CompressError::EmptyHistogram),
            1 => {
                lengths[symbols[0].0 as usize] = 1;
                return Ok(lengths);
            }
            _ => {}
        }
        if (max_len as u32) < 32 && n as u64 > (1u64 << max_len) {
            return Err(CompressError::LengthTooLong { length: max_len });
        }

        symbols.sort_by_key(|&(sym, count)| (count, sym));
        let items: Vec<Package> = symbols
            .iter()
            .enumerate()
            .map(|(i, &(_, count))| {
                let mut contents = vec![0u16; n];
                contents[i] = 1;
                Package {
                    weight: count,
                    contents,
                }
            })
            .collect();

        // Coin-collector: level `max_len` holds bare items; each shallower
        // level merges the items with pairs packaged from the level below.
        let mut current: Vec<Package> = items.clone();
        for _level in (1..max_len).rev() {
            let mut packaged: Vec<Package> = Vec::with_capacity(current.len() / 2);
            let mut iter = current.chunks_exact(2);
            for pair in &mut iter {
                let mut contents = pair[0].contents.clone();
                for (a, b) in contents.iter_mut().zip(&pair[1].contents) {
                    *a += b;
                }
                packaged.push(Package {
                    weight: pair[0].weight + pair[1].weight,
                    contents,
                });
            }
            // Merge packaged pairs with the original items, keeping sorted
            // order by weight (both inputs are already sorted).
            let mut merged = Vec::with_capacity(items.len() + packaged.len());
            let (mut i, mut j) = (0, 0);
            while i < items.len() && j < packaged.len() {
                if items[i].weight <= packaged[j].weight {
                    merged.push(items[i].clone());
                    i += 1;
                } else {
                    merged.push(packaged[j].clone());
                    j += 1;
                }
            }
            merged.extend_from_slice(&items[i..]);
            merged.extend_from_slice(&packaged[j..]);
            current = merged;
        }

        // Select the cheapest 2(n-1) level-1 packages; each inclusion of an
        // item deepens its code by one bit.
        let take = 2 * (n - 1);
        // panic-ok: debug-build invariant of the package-merge construction.
        debug_assert!(
            current.len() >= take,
            "package-merge produced too few packages"
        );
        let mut depth = vec![0u16; n];
        for package in current.iter().take(take) {
            for (d, c) in depth.iter_mut().zip(&package.contents) {
                *d += c;
            }
        }
        for (i, &(sym, _)) in symbols.iter().enumerate() {
            lengths[sym as usize] = depth[i] as u8;
        }
        Ok(lengths)
    }

    fn kraft(lengths: &[u8; 256]) -> f64 {
        lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum()
    }

    fn weighted_bits(lengths: &[u8; 256], h: &ByteHistogram) -> u64 {
        (0u16..256)
            .map(|b| u64::from(lengths[b as usize]) * h.count(b as u8))
            .sum()
    }

    fn skewed_histogram(n: u8) -> ByteHistogram {
        let mut h = ByteHistogram::new();
        let mut w = 1u64;
        let mut prev = 1u64;
        for sym in 0..n {
            for _ in 0..w {
                h.update(&[sym]);
            }
            let next = w + prev;
            prev = w;
            w = next;
        }
        h
    }

    #[test]
    fn respects_bound_and_kraft() {
        let h = skewed_histogram(24); // unbounded Huffman would exceed 16
        let unbounded = traditional_lengths(&h).unwrap();
        assert!(unbounded.iter().copied().max().unwrap() > 16);
        let bounded = bounded_lengths(&h, 16).unwrap();
        assert!(bounded.iter().all(|&l| l <= 16));
        let k = kraft(&bounded);
        assert!(k <= 1.0 + 1e-12, "kraft {k}");
    }

    #[test]
    fn matches_huffman_when_bound_is_loose() {
        // With a generous bound, package-merge returns Huffman's lengths
        // themselves, not only a code of equal cost.
        let h = ByteHistogram::of(b"abracadabra alakazam");
        let huffman = traditional_lengths(&h).unwrap();
        assert_eq!(bounded_lengths(&h, 32), Ok(huffman));
        assert_eq!(reference_lengths(&h, 32), Ok(huffman));
    }

    #[test]
    fn matches_reference_on_every_small_histogram() {
        // Every weight vector of 2-6 symbols with weights 1..=4, at every
        // bound from the smallest that fits the alphabet to 8: ties
        // everywhere, and both sides of the point where the bound binds.
        let mut binding = 0;
        for n in 2..=6u32 {
            for code in 0..4u32.pow(n) {
                let counts: Vec<(u8, u64)> = (0..n)
                    .map(|sym| (sym as u8, u64::from(code / 4u32.pow(sym) % 4 + 1)))
                    .collect();
                let h = histogram(&counts);
                let huffman = traditional_lengths(&h).unwrap();
                let longest = huffman.iter().copied().max().unwrap();
                for max_len in n.next_power_of_two().trailing_zeros() as u8..=8 {
                    binding += usize::from(longest > max_len);
                    assert_eq!(
                        bounded_lengths(&h, max_len),
                        reference_lengths(&h, max_len),
                        "{counts:?}, bound {max_len}"
                    );
                }
            }
        }
        assert!(binding > 0, "no case made the bound bind");
    }

    #[test]
    fn optimal_among_bounded() {
        // For a small alphabet we can brute-force all monotone length
        // assignments and confirm package-merge is optimal.
        let mut h = ByteHistogram::new();
        for (sym, count) in [(0u8, 40u64), (1, 30), (2, 20), (3, 6), (4, 3), (5, 1)] {
            for _ in 0..count {
                h.update(&[sym]);
            }
        }
        let max_len = 3;
        let got = bounded_lengths(&h, max_len).unwrap();
        let got_cost = weighted_bits(&got, &h);
        // Brute force: all length tuples in 1..=3 satisfying Kraft.
        let mut best = u64::MAX;
        let lens = [1u8, 2, 3];
        for a in lens {
            for b in lens {
                for c in lens {
                    for d in lens {
                        for e in lens {
                            for f in lens {
                                let tuple = [a, b, c, d, e, f];
                                let k: f64 = tuple.iter().map(|&l| 2f64.powi(-i32::from(l))).sum();
                                if k <= 1.0 + 1e-12 {
                                    let cost: u64 = tuple
                                        .iter()
                                        .enumerate()
                                        .map(|(s, &l)| u64::from(l) * h.count(s as u8))
                                        .sum();
                                    best = best.min(cost);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(got_cost, best);
    }

    #[test]
    fn full_alphabet_fits_in_16() {
        let h = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>()).smoothed();
        let lengths = bounded_lengths(&h, PAPER_MAX_LEN).unwrap();
        assert_eq!(lengths.iter().filter(|&&l| l > 0).count(), 256);
        assert!(lengths.iter().all(|&l| l <= 16));
    }

    #[test]
    fn impossible_bound_rejected() {
        let h = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>());
        assert!(matches!(
            bounded_lengths(&h, 7),
            Err(CompressError::LengthTooLong { .. })
        ));
        assert!(bounded_lengths(&h, 8).is_ok());
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            bounded_lengths(&ByteHistogram::new(), 16),
            Err(CompressError::EmptyHistogram)
        ));
    }

    /// A histogram holding `count` copies of each `(byte, count)`.
    fn histogram(counts: &[(u8, u64)]) -> ByteHistogram {
        let mut h = ByteHistogram::new();
        for &(sym, count) in counts {
            h.update(&vec![sym; count as usize]);
        }
        h
    }

    #[test]
    fn errors_match_reference() {
        // Alphabet sizes on both sides of powers of two, all with equal
        // weights, against every bound from 0 to past the 32-bit cap.
        for n in [0usize, 1, 2, 3, 4, 5, 8, 9, 16, 17, 255, 256] {
            let h = ByteHistogram::of(&(0..n).map(|b| b as u8).collect::<Vec<_>>());
            for max_len in 0..=40 {
                assert_eq!(
                    bounded_lengths(&h, max_len),
                    reference_lengths(&h, max_len),
                    "{n} symbols, bound {max_len}"
                );
            }
        }
    }

    fn weight() -> impl Strategy<Value = u64> {
        // Narrow weights make items and packages tie often.
        prop_oneof![1u64..4, 1u64..5000]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_reference_on_random_histograms(
            counts in proptest::collection::vec((any::<u8>(), weight()), 1..=300),
            smooth: bool,
            max_len in 8u8..=32,
        ) {
            let raw = histogram(&counts);
            let h = if smooth { raw.smoothed() } else { raw };
            prop_assert_eq!(bounded_lengths(&h, max_len), reference_lengths(&h, max_len));
        }

        #[test]
        fn matches_reference_on_fibonacci_skew(
            n in 18usize..=27,
            first: u8,
            stride in (0u8..128).prop_map(|s| 2 * s + 1),
            smooth: bool,
            max_len in 8u8..=32,
        ) {
            // Fibonacci weights make the unbounded Huffman tree a chain
            // n - 1 deep, so the 16-bit bound binds. An odd stride keeps
            // the n bytes distinct.
            let mut counts = Vec::new();
            let (mut a, mut b) = (1u64, 1u64);
            for k in 0..n {
                counts.push((first.wrapping_add((k as u8).wrapping_mul(stride)), a));
                (a, b) = (b, a + b);
            }
            let raw = histogram(&counts);
            let unbounded = traditional_lengths(&raw).unwrap();
            prop_assert!(unbounded.iter().copied().max().unwrap() > PAPER_MAX_LEN);
            let h = if smooth { raw.smoothed() } else { raw };
            for bound in [PAPER_MAX_LEN, max_len] {
                prop_assert_eq!(bounded_lengths(&h, bound), reference_lengths(&h, bound));
            }
        }
    }
}
