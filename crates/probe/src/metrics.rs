//! Metric registry: named counters and fixed-bucket histograms.
//!
//! [`MetricSet`] is a deterministic aggregate — `BTreeMap`-keyed, merged
//! in cell order by the sweep runner — so metrics output is bit-identical
//! for any worker count, like every other report in the workspace.

use std::collections::BTreeMap;

use crate::{Event, Probe};

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `value <= bounds[i]` (and greater than the
/// previous bound); one overflow bucket counts everything above the last
/// bound. The bounds are fixed at construction so two histograms built
/// from the same metric can always be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` are not strictly ascending. Bounds are compile-time
    /// constants chosen by the caller, so that is a programming error, not
    /// a data error.
    pub fn new(bounds: &[u64]) -> Histogram {
        // panic-ok: the documented ascending-bounds contract.
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Both must share the same bounds.
    ///
    /// # Panics
    ///
    /// If the bounds differ. That is a programming error: the registry
    /// keys histograms by name, and a name always maps to one bucket
    /// layout.
    pub fn merge(&mut self, other: &Histogram) {
        // panic-ok: the documented same-bounds contract.
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The upper bucket bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket sample counts; one longer than [`bounds`](Self::bounds)
    /// (the final element is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// A registry of named counters and histograms.
///
/// Keys are sorted (`BTreeMap`), so iteration — and therefore any JSON
/// rendered from it — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricSet {
    /// Creates an empty registry.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Records `value` into the named histogram, creating it with
    /// `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &[u64], value: u64) {
        if let Some(hist) = self.histograms.get_mut(name) {
            hist.record(value);
        } else {
            let mut hist = Histogram::new(bounds);
            hist.record(value);
            self.histograms.insert(name.to_string(), hist);
        }
    }

    /// The named counter's value, or 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, same-named histograms
    /// merge. Used by the sweep runner to fold per-cell metrics in cell
    /// order, keeping the aggregate `--jobs`-independent.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, &value) in &other.counters {
            self.add(name, value);
        }
        for (name, hist) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(name) {
                mine.merge(hist);
            } else {
                self.histograms.insert(name.clone(), hist.clone());
            }
        }
    }
}

/// Bucket bounds for refill latency in cycles (overflow above 128).
pub const REFILL_LATENCY_BOUNDS: &[u64] = &[2, 4, 8, 12, 16, 20, 24, 32, 48, 64, 96, 128];

/// Bucket bounds for bytes fetched per refill (overflow above 40).
pub const REFILL_BYTES_BOUNDS: &[u64] = &[4, 8, 12, 16, 20, 24, 28, 32, 36, 40];

/// Bucket bounds for CLB entry residency in cycles (overflow above 262144).
pub const CLB_RESIDENCY_BOUNDS: &[u64] = &[16, 64, 256, 1024, 4096, 16384, 65536, 262_144];

/// A [`Probe`] that folds every event into a [`MetricSet`].
///
/// Maintains `events.<kind>` counters for all events, plus:
///
/// * `refill.bytes_total`, `refill.clb_hits`, `refill.bypasses`,
///   `refill.retries` counters and the `refill_latency_cycles` /
///   `refill_bytes` histograms from [`Event::RefillDone`];
/// * `memory.words_total` from [`Event::MemoryBurst`];
/// * the `clb_residency_cycles` histogram, measured from a LAT entry's
///   CLB fill ([`Event::ClbMiss`]) to its eviction ([`Event::ClbEvict`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    metrics: MetricSet,
    clb_filled_at: BTreeMap<u32, u64>,
}

impl MetricsCollector {
    /// Creates a collector with an empty registry.
    pub fn new() -> MetricsCollector {
        MetricsCollector::default()
    }

    /// Borrows the accumulated metrics.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Consumes the collector, returning the accumulated metrics.
    pub fn into_metrics(self) -> MetricSet {
        self.metrics
    }
}

impl Probe for MetricsCollector {
    fn emit(&mut self, cycle: u64, event: Event) {
        self.metrics.add(&format!("events.{}", event.kind()), 1);
        match event {
            Event::RefillDone {
                cycles,
                bytes,
                clb_hit,
                bypass,
                retries,
                ..
            } => {
                self.metrics
                    .observe("refill_latency_cycles", REFILL_LATENCY_BOUNDS, cycles);
                self.metrics
                    .observe("refill_bytes", REFILL_BYTES_BOUNDS, u64::from(bytes));
                self.metrics.add("refill.bytes_total", u64::from(bytes));
                if clb_hit {
                    self.metrics.add("refill.clb_hits", 1);
                }
                if bypass {
                    self.metrics.add("refill.bypasses", 1);
                }
                self.metrics.add("refill.retries", u64::from(retries));
            }
            Event::MemoryBurst { words, .. } => {
                self.metrics.add("memory.words_total", u64::from(words));
            }
            Event::ClbMiss { lat_index } => {
                // A miss is followed by a LAT read and a CLB fill, so the
                // miss cycle marks the start of the entry's residency.
                self.clb_filled_at.insert(lat_index, cycle);
            }
            Event::ClbEvict { lat_index } => {
                if let Some(filled) = self.clb_filled_at.remove(&lat_index) {
                    self.metrics.observe(
                        "clb_residency_cycles",
                        CLB_RESIDENCY_BOUNDS,
                        cycle.saturating_sub(filled),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut hist = Histogram::new(&[4, 8]);
        for value in [1, 4, 5, 9, 100] {
            hist.record(value);
        }
        assert_eq!(hist.counts(), &[2, 1, 2]);
        assert_eq!(hist.count(), 5);
        assert_eq!(hist.sum(), 119);
        assert_eq!(hist.min(), Some(1));
        assert_eq!(hist.max(), Some(100));
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Histogram::new(&[10]);
        a.record(3);
        let mut b = Histogram::new(&[10]);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(3));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn empty_histogram_has_no_extrema() {
        let hist = Histogram::new(&[1]);
        assert_eq!(hist.min(), None);
        assert_eq!(hist.max(), None);
        assert_eq!(hist.mean(), None);
    }

    #[test]
    fn metric_set_counters_and_merge() {
        let mut a = MetricSet::new();
        a.add("x", 2);
        a.observe("h", &[10], 5);
        let mut b = MetricSet::new();
        b.add("x", 3);
        b.add("y", 1);
        b.observe("h", &[10], 50);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let hist = a.histogram("h").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.counts(), &[1, 1]);
    }

    #[test]
    fn merge_is_order_independent_for_totals() {
        let mut left = MetricSet::new();
        left.add("n", 1);
        left.observe("h", &[8], 4);
        let mut right = MetricSet::new();
        right.add("n", 2);
        right.observe("h", &[8], 12);

        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        assert_eq!(ab, ba);
    }

    #[test]
    fn collector_tracks_refills_and_residency() {
        let mut collector = MetricsCollector::new();
        collector.emit(0, Event::ClbMiss { lat_index: 3 });
        collector.emit(
            20,
            Event::RefillDone {
                address: 0x40,
                cycles: 18,
                bytes: 24,
                clb_hit: false,
                bypass: false,
                retries: 0,
            },
        );
        collector.emit(500, Event::ClbEvict { lat_index: 3 });

        let metrics = collector.metrics();
        assert_eq!(metrics.counter("events.refill"), 1);
        assert_eq!(metrics.counter("refill.bytes_total"), 24);
        let residency = metrics.histogram("clb_residency_cycles").unwrap();
        assert_eq!(residency.count(), 1);
        assert_eq!(residency.max(), Some(500));
        assert_eq!(
            metrics.histogram("refill_latency_cycles").unwrap().sum(),
            18
        );
    }

    #[test]
    fn evict_without_fill_is_ignored() {
        let mut collector = MetricsCollector::new();
        collector.emit(10, Event::ClbEvict { lat_index: 9 });
        assert!(collector
            .metrics()
            .histogram("clb_residency_cycles")
            .is_none());
        assert_eq!(collector.metrics().counter("events.clb_evict"), 1);
    }
}
