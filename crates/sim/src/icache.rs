//! The direct-mapped, single-cycle on-chip instruction cache (§3.1):
//! 32-byte lines, 256 bytes to 4 KB, identical for the standard and
//! compressed processors (the CCRP differs only in how misses refill).

use std::error::Error;
use std::fmt;

/// Cache line size in bytes (fixed at the paper's 32).
pub const LINE_BYTES: u32 = 32;

/// Error for invalid cache geometry.
///
/// Marked `#[non_exhaustive]` so later geometry constraints (e.g. an
/// upper bound, or an associativity field) can be reported through the
/// same type without breaking downstream matches or constructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BadCacheSize {
    /// The rejected size in bytes.
    pub bytes: u32,
}

impl BadCacheSize {
    pub(crate) fn new(bytes: u32) -> Self {
        Self { bytes }
    }
}

impl fmt::Display for BadCacheSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache size {} bytes: must be a power of two of at least one {LINE_BYTES}-byte line",
            self.bytes
        )
    }
}

impl Error for BadCacheSize {}

/// Access counters for an [`ICache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (one per instruction fetch).
    pub fetches: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in 0..=1 (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.fetches == 0 {
            0.0
        } else {
            self.misses as f64 / self.fetches as f64
        }
    }
}

/// A direct-mapped instruction cache model (tags only — contents are
/// never stored because the trace supplies correctness; only hit/miss
/// behaviour and timing matter).
///
/// # Examples
///
/// ```
/// use ccrp_sim::ICache;
///
/// let mut cache = ICache::new(256)?;
/// assert!(!cache.access(0x000));       // compulsory miss
/// assert!(cache.access(0x01C));        // same line
/// assert!(!cache.access(0x100));       // conflicts with line 0 (256 B cache)
/// assert!(!cache.access(0x000));       // evicted
/// # Ok::<(), ccrp_sim::BadCacheSize>(())
/// ```
#[derive(Debug, Clone)]
pub struct ICache {
    tags: Vec<Option<u32>>,
    index_mask: u32,
    stats: CacheStats,
}

impl ICache {
    /// Creates a cache of `bytes` total capacity.
    ///
    /// # Errors
    ///
    /// [`BadCacheSize`] unless `bytes` is a power of two and at least one
    /// line.
    pub fn new(bytes: u32) -> Result<Self, BadCacheSize> {
        if !bytes.is_power_of_two() || bytes < LINE_BYTES {
            return Err(BadCacheSize::new(bytes));
        }
        let lines = bytes / LINE_BYTES;
        Ok(Self {
            tags: vec![None; lines as usize],
            index_mask: lines - 1,
            stats: CacheStats::default(),
        })
    }

    /// Number of lines.
    pub fn lines(&self) -> u32 {
        self.tags.len() as u32
    }

    /// Performs one fetch at `address`; returns `true` on a hit. A miss
    /// installs the line (the refill engine's timing is accounted
    /// separately by the system simulator).
    pub fn access(&mut self, address: u32) -> bool {
        self.stats.fetches += 1;
        let line = address / LINE_BYTES;
        let index = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.trailing_ones();
        if self.tags[index] == Some(tag) {
            true
        } else {
            self.tags[index] = Some(tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Records `hits` fetches that are known to hit without touching
    /// the tag array — the compacted-replay fast path for fetches that
    /// stay within the line an immediately preceding [`access`] just
    /// installed or found (see [`FetchRun`](crate::FetchRun)). Only the
    /// fetch counter moves; calling this for an address whose line is
    /// *not* resident would misreport a miss as a hit.
    ///
    /// [`access`]: Self::access
    pub fn record_hits(&mut self, hits: u64) {
        self.stats.fetches += hits;
    }

    /// Invalidates the whole cache (statistics are kept).
    pub fn flush(&mut self) {
        self.tags.fill(None);
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_sizes() {
        assert!(ICache::new(0).is_err());
        assert!(ICache::new(48).is_err());
        assert!(ICache::new(16).is_err());
        assert!(ICache::new(256).is_ok());
        assert!(ICache::new(4096).is_ok());
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = ICache::new(1024).unwrap();
        assert!(!c.access(0x40));
        for offset in 1..32 {
            assert!(c.access(0x40 + offset));
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().fetches, 32);
    }

    #[test]
    fn conflict_misses_in_direct_mapped() {
        let mut c = ICache::new(256).unwrap(); // 8 lines
                                               // Two addresses 256 bytes apart ping-pong one set.
        assert!(!c.access(0x000));
        assert!(!c.access(0x100));
        assert!(!c.access(0x000));
        assert!(!c.access(0x100));
        assert_eq!(c.stats().miss_rate(), 1.0);
    }

    #[test]
    fn bigger_cache_never_more_misses_on_looping_trace() {
        // A loop over 2 KB of code: 4 KB cache holds it; 256 B thrashes.
        let trace: Vec<u32> = (0..5).flat_map(|_| (0..2048u32).step_by(4)).collect();
        let mut small = ICache::new(256).unwrap();
        let mut big = ICache::new(4096).unwrap();
        for &pc in &trace {
            small.access(pc);
            big.access(pc);
        }
        assert!(big.stats().misses < small.stats().misses);
        // Big cache only pays compulsory misses: 2048/32 = 64.
        assert_eq!(big.stats().misses, 64);
    }

    #[test]
    fn flush_forces_misses() {
        let mut c = ICache::new(512).unwrap();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    proptest! {
        #[test]
        fn repeat_access_always_hits(addr: u32, size_exp in 3u32..7) {
            let mut c = ICache::new(32 << size_exp).unwrap();
            c.access(addr);
            prop_assert!(c.access(addr));
        }

        #[test]
        fn miss_rate_bounded(addrs in proptest::collection::vec(0u32..(1<<24), 1..200)) {
            let mut c = ICache::new(1024).unwrap();
            for &a in &addrs {
                c.access(a);
            }
            let rate = c.stats().miss_rate();
            prop_assert!((0.0..=1.0).contains(&rate));
        }
    }
}
