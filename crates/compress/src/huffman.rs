//! Traditional (unbounded) Huffman code-length construction.

use crate::error::CompressError;
use crate::histogram::ByteHistogram;

/// Computes optimal Huffman code lengths for every byte with a nonzero
/// count. Zero-count bytes get length 0 (no code).
///
/// This is the paper's "Traditional Huffman" method: optimal for the
/// histogram but with worst-case symbol lengths up to 255 bits, which §2.2
/// notes would make decode hardware impractically deep — motivating the
/// Bounded variant in [`bounded_lengths`](crate::bounded_lengths).
///
/// # Errors
///
/// [`CompressError::EmptyHistogram`] when no byte has a nonzero count.
///
/// # Examples
///
/// ```
/// use ccrp_compress::{traditional_lengths, ByteHistogram};
///
/// let lengths = traditional_lengths(&ByteHistogram::of(b"aaab"))?;
/// assert_eq!(lengths[b'a' as usize], 1);
/// assert_eq!(lengths[b'b' as usize], 1);
/// assert_eq!(lengths[b'c' as usize], 0);
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
pub fn traditional_lengths(histogram: &ByteHistogram) -> Result<[u8; 256], CompressError> {
    let mut buffer = [(0, 0); 256];
    let symbols = sorted_symbols(histogram.counts(), &mut buffer);
    if symbols.is_empty() {
        return Err(CompressError::EmptyHistogram);
    }
    Ok(huffman_lengths(symbols))
}

/// The bytes with a nonzero count in `counts`, as `(byte, count)` pairs
/// in ascending `(count, byte)` order, written to the front of `out`:
/// the order both code constructions take their leaves in.
pub(crate) fn sorted_symbols<'a>(
    counts: &[u64; 256],
    out: &'a mut [(u8, u64); 256],
) -> &'a [(u8, u64)] {
    // Packed `count << 8 | byte` keys order as `(count, byte)` for any
    // `u64` count, and no two are equal, so an unstable sort of plain
    // integers gives the one order.
    let mut keys = [0u128; 256];
    let mut n = 0;
    for (byte, &count) in counts.iter().enumerate() {
        if count > 0 {
            keys[n] = u128::from(count) << 8 | byte as u128;
            n += 1;
        }
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    for (slot, &key) in out.iter_mut().zip(&*keys) {
        *slot = (key as u8, (key >> 8) as u64);
    }
    &out[..n]
}

/// Huffman code lengths for `symbols`, in [`sorted_symbols`] order, by
/// the two-queue construction: leaves queue in that order and merged
/// nodes in the order they are made, which is ascending weight, and each
/// merge takes the lighter front, a leaf on equal weight. A heap keyed
/// on weight, then leaves by byte, then merges by creation pops the same
/// nodes, so this is the tree the heap construction builds.
pub(crate) fn huffman_lengths(symbols: &[(u8, u64)]) -> [u8; 256] {
    // Nodes `0..n` are the leaves and node `k >= n` the `k - n`th merge,
    // so a node's parent always has the higher index.
    let n = symbols.len();
    let (mut weight, mut parent) = ([0u64; 511], [0u16; 511]);
    for (w, &(_, count)) in weight.iter_mut().zip(symbols) {
        *w = count;
    }
    let (mut leaf, mut next) = (0, n);
    for k in n..(2 * n).saturating_sub(1) {
        for _ in 0..2 {
            let node = if leaf < n && (next == k || weight[leaf] <= weight[next]) {
                leaf += 1;
                leaf - 1
            } else {
                next += 1;
                next - 1
            };
            weight[k] += weight[node];
            parent[node] = k as u16;
        }
    }
    // Depths from the root, the last node, down. A lone symbol still
    // gets one bit so the decoder can count symbols.
    let (mut depth, mut lengths) = ([0u8; 511], [0u8; 256]);
    for node in (0..(2 * n).saturating_sub(2)).rev() {
        depth[node] = depth[usize::from(parent[node])] + 1;
    }
    for (&(sym, _), &d) in symbols.iter().zip(&depth) {
        lengths[usize::from(sym)] = d.max(1);
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The heap-and-boxed-tree construction, kept as the oracle for
    /// [`traditional_lengths`]: a heap of `(weight, tie, node)`, with
    /// leaves tied by byte and internal nodes by creation after them.
    fn heap_lengths(histogram: &ByteHistogram) -> Result<[u8; 256], CompressError> {
        let mut lengths = [0u8; 256];
        let symbols: Vec<(u8, u64)> = (0u16..256)
            .map(|b| (b as u8, histogram.count(b as u8)))
            .filter(|&(_, c)| c > 0)
            .collect();
        match symbols.len() {
            0 => return Err(CompressError::EmptyHistogram),
            1 => {
                lengths[symbols[0].0 as usize] = 1;
                return Ok(lengths);
            }
            _ => {}
        }

        #[derive(Debug)]
        enum Node {
            Leaf(u8),
            Internal(Box<Node>, Box<Node>),
        }
        let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::new();
        let mut arena: Vec<Node> = Vec::with_capacity(symbols.len() * 2);
        for (i, &(sym, count)) in symbols.iter().enumerate() {
            arena.push(Node::Leaf(sym));
            heap.push(Reverse((count, i as u32, i)));
        }
        let mut tie = symbols.len() as u32;
        let root = loop {
            let Reverse((w1, _, n1)) = heap.pop().unwrap();
            let Some(Reverse((w2, _, n2))) = heap.pop() else {
                break n1;
            };
            let a = std::mem::replace(&mut arena[n1], Node::Leaf(0));
            let b = std::mem::replace(&mut arena[n2], Node::Leaf(0));
            arena.push(Node::Internal(Box::new(a), Box::new(b)));
            heap.push(Reverse((w1 + w2, tie, arena.len() - 1)));
            tie += 1;
        };

        fn walk(node: &Node, depth: u8, lengths: &mut [u8; 256]) {
            match node {
                Node::Leaf(sym) => lengths[*sym as usize] = depth.max(1),
                Node::Internal(a, b) => {
                    walk(a, depth + 1, lengths);
                    walk(b, depth + 1, lengths);
                }
            }
        }
        walk(&arena[root], 0, &mut lengths);
        Ok(lengths)
    }

    #[test]
    fn classic_example() {
        // Frequencies 45,13,12,16,9,5 (CLRS) -> lengths 1,3,3,3,4,4.
        let mut h = ByteHistogram::new();
        for (sym, count) in [
            (b'a', 45u64),
            (b'b', 13),
            (b'c', 12),
            (b'd', 16),
            (b'e', 9),
            (b'f', 5),
        ] {
            for _ in 0..count {
                h.update(&[sym]);
            }
        }
        let lengths = traditional_lengths(&h).unwrap();
        assert_eq!(lengths[b'a' as usize], 1);
        assert_eq!(lengths[b'b' as usize], 3);
        assert_eq!(lengths[b'c' as usize], 3);
        assert_eq!(lengths[b'd' as usize], 3);
        assert_eq!(lengths[b'e' as usize], 4);
        assert_eq!(lengths[b'f' as usize], 4);
    }

    #[test]
    fn empty_is_error() {
        assert!(matches!(
            traditional_lengths(&ByteHistogram::new()),
            Err(CompressError::EmptyHistogram)
        ));
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lengths = traditional_lengths(&ByteHistogram::of(&[9u8; 50])).unwrap();
        assert_eq!(lengths[9], 1);
        assert_eq!(lengths.iter().filter(|&&l| l > 0).count(), 1);
    }

    #[test]
    fn skewed_distribution_goes_deep() {
        // Fibonacci-like weights force a maximally skewed tree.
        let mut h = ByteHistogram::new();
        let mut w = 1u64;
        let mut prev = 1u64;
        for sym in 0..20u8 {
            for _ in 0..w {
                h.update(&[sym]);
            }
            let next = w + prev;
            prev = w;
            w = next;
        }
        let lengths = traditional_lengths(&h).unwrap();
        let max = lengths.iter().copied().max().unwrap();
        assert!(max >= 19, "expected deep tree, got max {max}");
        assert_eq!(Ok(lengths), heap_lengths(&h));
    }

    #[test]
    fn full_alphabet_matches_the_heap() {
        // Equal weights tie at every merge; powers of two tie leaves
        // with merged nodes.
        let equal = ByteHistogram::of(&(0u8..=255).collect::<Vec<_>>());
        let mut powers = ByteHistogram::new();
        for sym in 0..=255u8 {
            powers.update(&vec![sym; 1 << (sym % 8)]);
        }
        for h in [equal, powers] {
            assert_eq!(traditional_lengths(&h), heap_lengths(&h));
            assert_eq!(
                traditional_lengths(&h.smoothed()),
                heap_lengths(&h.smoothed())
            );
        }
    }

    fn weight() -> impl Strategy<Value = u64> {
        // Narrow weights make leaves and merged nodes tie often, powers
        // of two tie a leaf with a merged pair, and wide weights build
        // deep, uneven trees.
        prop_oneof![1u64..4, (0u32..12).prop_map(|e| 1u64 << e), 1u64..5000]
    }

    /// The tuple sort [`sorted_symbols`] made before its packed keys,
    /// kept as the oracle for it.
    fn tuple_sorted(counts: &[u64; 256]) -> Vec<(u8, u64)> {
        let mut symbols: Vec<(u8, u64)> = (0u16..256)
            .map(|b| (b as u8, counts[b as usize]))
            .filter(|&(_, c)| c > 0)
            .collect();
        symbols.sort_unstable_by_key(|&(sym, count)| (count, sym));
        symbols
    }

    #[test]
    fn packed_keys_order_extreme_counts() {
        let mut counts = [0u64; 256];
        counts[0] = u64::MAX;
        counts[1] = u64::MAX;
        counts[2] = u64::MAX - 1;
        counts[255] = 1 << 56;
        counts[7] = 1;
        let mut buffer = [(0, 0); 256];
        let want = [
            (7, 1),
            (255, 1 << 56),
            (2, u64::MAX - 1),
            (0, u64::MAX),
            (1, u64::MAX),
        ];
        assert_eq!(sorted_symbols(&counts, &mut buffer), want);
        assert_eq!(tuple_sorted(&counts), want);
        assert!(sorted_symbols(&[0; 256], &mut buffer).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_keys_sort_as_tuples(
            counts in proptest::collection::vec(
                prop_oneof![
                    Just(0u64),
                    1u64..4,
                    any::<u64>(),
                    (u64::MAX - 3)..=u64::MAX,
                    (48u32..64).prop_map(|e| 1u64 << e),
                ],
                256,
            ),
        ) {
            let counts: [u64; 256] = counts.try_into().unwrap();
            let mut buffer = [(0, 0); 256];
            prop_assert_eq!(sorted_symbols(&counts, &mut buffer), tuple_sorted(&counts).as_slice());
        }

        #[test]
        fn two_queue_matches_the_heap(
            counts in proptest::collection::vec((any::<u8>(), weight()), 1..=300),
            smooth: bool,
        ) {
            let mut raw = ByteHistogram::new();
            for (sym, count) in counts {
                raw.update(&vec![sym; count as usize]);
            }
            let h = if smooth { raw.smoothed() } else { raw };
            prop_assert_eq!(traditional_lengths(&h), heap_lengths(&h));
        }
    }
}
