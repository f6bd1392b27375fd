//! The Cache Line Address Lookaside Buffer (Figure 8).
//!
//! A small fully associative cache of recently used LAT entries, managed
//! LRU — "essentially identical to a TLB" (§2.1). It is probed in
//! parallel with every instruction-cache access, so a CLB hit adds no
//! cycles to a cache miss; a CLB miss adds the LAT-entry read to the
//! refill.
//!
//! [`ClbStack`] answers the same question for every capacity at once:
//! one pass of Mattson et al.'s LRU stack algorithm gives each probe its
//! recency depth, and a CLB of capacity `c` hits exactly when that depth
//! is below `c`.

use crate::error::CcrpError;
use crate::lat::LatEntry;

/// Hit/miss counters for a [`Clb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClbStats {
    /// Probes that found their LAT entry resident.
    pub hits: u64,
    /// Probes that required a LAT read.
    pub misses: u64,
}

impl ClbStats {
    /// Fraction of probes that missed (0 when never probed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A fully associative, LRU-replaced buffer of LAT entries. It holds
/// at most `capacity` entries and never more than the distinct LAT
/// entries it has been given, so a huge capacity costs nothing up front.
///
/// # Examples
///
/// ```
/// use ccrp::{Clb, LatEntry};
///
/// let mut clb = Clb::new(4)?;
/// let entry = LatEntry::new(0x40, [8; 8])?;
/// assert!(clb.probe(7).is_none());   // cold miss
/// clb.insert(7, entry);
/// assert!(clb.probe(7).is_some());   // now resident
/// # Ok::<(), ccrp::CcrpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Clb {
    capacity: usize,
    /// Resident entries, most recently used last.
    slots: Vec<(u32, LatEntry)>,
    stats: ClbStats,
}

impl Clb {
    /// Creates a CLB holding `capacity` LAT entries (the paper evaluates
    /// 4, 8, and 16).
    ///
    /// # Errors
    ///
    /// [`CcrpError::EmptyClb`] for a zero capacity.
    pub fn new(capacity: usize) -> Result<Self, CcrpError> {
        if capacity == 0 {
            return Err(CcrpError::EmptyClb);
        }
        Ok(Self {
            capacity,
            slots: Vec::new(),
            stats: ClbStats::default(),
        })
    }

    /// Number of entries the CLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `lat_index`, updating LRU order and statistics. The scan
    /// starts at the most recently used end, and a hit moves only the
    /// entries used after it.
    pub fn probe(&mut self, lat_index: u32) -> Option<LatEntry> {
        if let Some(pos) = self.slots.iter().rposition(|&(tag, _)| tag == lat_index) {
            let entry = self.slots[pos].1;
            self.slots[pos..].rotate_left(1);
            self.stats.hits += 1;
            Some(entry)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Installs an entry fetched from the in-memory LAT, evicting the
    /// least recently used entry if full. Returns the evicted entry's
    /// LAT index, if the insert displaced one.
    pub fn insert(&mut self, lat_index: u32, entry: LatEntry) -> Option<u32> {
        let mut evicted = None;
        if let Some(pos) = self.slots.iter().position(|&(tag, _)| tag == lat_index) {
            self.slots.remove(pos);
        } else if self.slots.len() == self.capacity {
            evicted = Some(self.slots.remove(0).0);
        }
        self.slots.push((lat_index, entry));
        evicted
    }

    /// Invalidates all entries (keeps statistics).
    pub fn flush(&mut self) {
        self.slots.clear();
    }

    /// Invalidates one entry, returning whether it was resident. The
    /// degradation machinery uses this to force a fresh LAT read on
    /// retry: a corrupt entry cached in the CLB would otherwise make
    /// every re-read fail identically.
    pub fn invalidate(&mut self, lat_index: u32) -> bool {
        if let Some(pos) = self.slots.iter().position(|&(tag, _)| tag == lat_index) {
            self.slots.remove(pos);
            true
        } else {
            false
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> ClbStats {
        self.stats
    }

    /// Currently resident LAT indices, least recently used first.
    pub fn resident(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().map(|&(tag, _)| tag)
    }
}

/// Mattson et al.'s LRU stack over LAT indices: one pass over a probe
/// sequence gives every probe its recency depth, the number of distinct
/// LAT entries probed since its own entry last was. LRU has the
/// inclusion property, so a [`Clb`] of capacity `c` (probed, and filled
/// on every miss) hits exactly when the depth is below `c`: one pass
/// serves every capacity up to the stack's limit.
///
/// # Examples
///
/// ```
/// use ccrp::ClbStack;
///
/// let mut stack = ClbStack::new(16);
/// assert_eq!(stack.touch(3), None);    // first touch: every CLB misses
/// assert_eq!(stack.touch(5), None);
/// assert_eq!(stack.touch(3), Some(1)); // hits a CLB of 2 entries or more
/// assert_eq!(stack.touch(3), Some(0)); // hits any CLB
/// ```
#[derive(Debug, Clone)]
pub struct ClbStack {
    /// LAT indices, most recently used last: the `limit` most recent at
    /// most, and never more than the distinct indices touched.
    tags: Vec<u32>,
    limit: usize,
}

impl ClbStack {
    /// A stack that tracks depths below `limit`, the largest CLB
    /// capacity it is to serve.
    pub fn new(limit: usize) -> Self {
        Self {
            tags: Vec::new(),
            limit,
        }
    }

    /// Touches `lat_index` and returns its depth before the touch (0 when
    /// it was the last index touched), or `None` when it was not among
    /// the `limit` most recent — a miss at every capacity up to `limit`.
    pub fn touch(&mut self, lat_index: u32) -> Option<usize> {
        if let Some(pos) = self.tags.iter().rposition(|&tag| tag == lat_index) {
            let depth = self.tags.len() - 1 - pos;
            self.tags[pos..].rotate_left(1);
            return Some(depth);
        }
        if self.limit > 0 {
            if self.tags.len() == self.limit {
                self.tags.remove(0);
            }
            self.tags.push(lat_index);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(n: u32) -> LatEntry {
        LatEntry::new(n * 64, [4; 8]).expect("valid entry")
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(Clb::new(0), Err(CcrpError::EmptyClb)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut clb = Clb::new(2).unwrap();
        assert_eq!(clb.insert(1, entry(1)), None);
        assert_eq!(clb.insert(2, entry(2)), None);
        // Touch 1, making 2 the LRU victim.
        assert!(clb.probe(1).is_some());
        assert_eq!(clb.insert(3, entry(3)), Some(2));
        assert!(clb.probe(2).is_none(), "2 should be evicted");
        assert!(clb.probe(1).is_some());
        assert!(clb.probe(3).is_some());
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut clb = Clb::new(2).unwrap();
        clb.insert(1, entry(1));
        assert_eq!(clb.insert(1, entry(1)), None, "refresh is not an eviction");
        clb.insert(2, entry(2));
        assert_eq!(clb.resident().count(), 2);
        assert!(clb.probe(1).is_some());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut clb = Clb::new(4).unwrap();
        assert!(clb.probe(9).is_none());
        clb.insert(9, entry(9));
        assert!(clb.probe(9).is_some());
        assert!(clb.probe(9).is_some());
        let s = clb.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut clb = Clb::new(4).unwrap();
        clb.insert(1, entry(1));
        clb.probe(1);
        clb.flush();
        assert!(clb.probe(1).is_none());
        assert_eq!(clb.stats().hits, 1);
    }

    #[test]
    fn larger_clb_holds_bigger_working_set() {
        // The paper's tables 9-10 premise: a 16-entry CLB covers working
        // sets a 4-entry one cannot.
        let indices: Vec<u32> = (0..8).collect();
        for (cap, expect_all_hits) in [(4usize, false), (16, true)] {
            let mut clb = Clb::new(cap).unwrap();
            for &i in &indices {
                clb.insert(i, entry(i));
            }
            let mut all = true;
            for &i in &indices {
                if clb.probe(i).is_none() {
                    all = false;
                    clb.insert(i, entry(i));
                }
            }
            assert_eq!(all, expect_all_hits, "capacity {cap}");
        }
    }

    #[test]
    fn invalidate_removes_one_entry() {
        let mut clb = Clb::new(4).unwrap();
        clb.insert(1, entry(1));
        clb.insert(2, entry(2));
        assert!(clb.invalidate(1));
        assert!(!clb.invalidate(1), "already gone");
        assert!(clb.probe(1).is_none());
        assert!(clb.probe(2).is_some(), "other entries untouched");
    }

    #[test]
    fn single_slot_never_serves_an_aliased_index() {
        // Two LAT indices competing for one slot: after eviction and
        // refetch the slot must serve whichever index was inserted
        // last, never entry 8's records for a probe of entry 0.
        let mut clb = Clb::new(1).unwrap();
        clb.insert(0, entry(0));
        assert_eq!(clb.insert(8, entry(8)), Some(0));
        assert!(clb.probe(0).is_none(), "evicted index must miss");
        assert_eq!(clb.probe(8).unwrap().base(), entry(8).base());
        // Refetching 0 displaces 8 in turn.
        assert_eq!(clb.insert(0, entry(0)), Some(8));
        assert!(clb.probe(8).is_none());
        assert_eq!(clb.probe(0).unwrap().base(), entry(0).base());
    }

    #[test]
    fn miss_rate_zero_when_unprobed() {
        let clb = Clb::new(1).unwrap();
        assert_eq!(clb.stats().miss_rate(), 0.0);
    }

    #[test]
    fn huge_capacity_allocates_with_use() {
        let mut clb = Clb::new(usize::MAX).unwrap();
        assert_eq!(clb.capacity(), usize::MAX);
        for i in 0..40 {
            assert!(clb.probe(i).is_none());
            assert_eq!(clb.insert(i, entry(i)), None);
        }
        assert!(clb.probe(0).is_some(), "nothing is ever evicted");
        assert_eq!(clb.resident().count(), 40);
        assert_eq!(
            clb.stats(),
            ClbStats {
                hits: 1,
                misses: 40
            }
        );
    }

    #[test]
    fn probe_keeps_lru_order() {
        let mut clb = Clb::new(4).unwrap();
        for i in 1..=4 {
            clb.insert(i, entry(i));
        }
        assert!(clb.probe(2).is_some());
        assert_eq!(clb.resident().collect::<Vec<_>>(), [1, 3, 4, 2]);
        assert!(clb.probe(2).is_some(), "a hit on the MRU entry");
        assert_eq!(clb.resident().collect::<Vec<_>>(), [1, 3, 4, 2]);
        assert_eq!(clb.insert(5, entry(5)), Some(1));
    }

    #[test]
    fn zero_limit_stack_never_hits() {
        let mut stack = ClbStack::new(0);
        assert_eq!(stack.touch(1), None);
        assert_eq!(stack.touch(1), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One stack pass predicts every capacity's CLB: on each probe,
        /// `depth < capacity` is the CLB's hit, and the totals are its
        /// statistics. Indices come from a small range, so they are
        /// reused heavily and at every depth.
        #[test]
        fn stack_depths_predict_every_capacity(
            indices in proptest::collection::vec(0u32..24, 1..400),
        ) {
            let mut stack = ClbStack::new(usize::MAX);
            let depths: Vec<Option<usize>> = indices.iter().map(|&i| stack.touch(i)).collect();
            for capacity in 1..=20 {
                let predicted = |depth: &Option<usize>| depth.is_some_and(|d| d < capacity);
                let mut clb = Clb::new(capacity).unwrap();
                for (&index, depth) in indices.iter().zip(&depths) {
                    let hit = clb.probe(index).is_some();
                    if !hit {
                        clb.insert(index, entry(index));
                    }
                    prop_assert_eq!(hit, predicted(depth), "capacity {}", capacity);
                }
                let hits = depths.iter().filter(|depth| predicted(depth)).count() as u64;
                prop_assert_eq!(
                    clb.stats(),
                    ClbStats { hits, misses: indices.len() as u64 - hits }
                );
                // A stack limited to this capacity gives the same outcomes.
                let mut limited = ClbStack::new(capacity);
                for (&index, depth) in indices.iter().zip(&depths) {
                    prop_assert_eq!(
                        limited.touch(index),
                        depth.filter(|&d| d < capacity)
                    );
                }
            }
        }
    }
}
