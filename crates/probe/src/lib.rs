//! Typed, cycle-stamped instrumentation for the CCRP memory hierarchy.
//!
//! The paper's whole argument rests on *where cycles and bus bytes go*
//! (Figure 4's refill path, Tables 1–8's miss/traffic breakdowns), but
//! end-of-run aggregates cannot show a single refill, CLB eviction, or
//! retry-backoff episode. This crate defines the observation layer the
//! rest of the workspace emits into:
//!
//! * [`Event`] — the typed hierarchy events: cache misses, refill
//!   start/completion, CLB hit/miss/evict, memory bursts, integrity
//!   failures and retry backoffs. Only the cycle model emits them: the
//!   refill engine (`ccrp::RefillEngine::refill_probed`) and the
//!   simulator's miss paths in `ccrp-sim`;
//! * [`Probe`] — the sink trait. Emitters are generic over it, so the
//!   no-op [`NullProbe`] monomorphizes to nothing: probe-off runs are
//!   bit-identical to uninstrumented ones;
//! * [`EventLog`] — a recording probe, the input to the Chrome
//!   trace-event exporter in `ccrp-bench`;
//! * [`MetricSet`] — a registry of named counters and fixed-bucket
//!   histograms, fed by the [`MetricsCollector`] probe.
//!
//! Timestamps are **simulated cycles**, never wall clock, so every
//! export downstream is deterministic and worker-count-independent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;

pub use metrics::{Histogram, MetricSet, MetricsCollector};

/// One typed event in the cache/refill/memory hierarchy.
///
/// Every event is emitted together with the simulated cycle at which it
/// happened (see [`Probe::emit`]); durations are carried in the event
/// itself where one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// An instruction-cache access missed.
    CacheMiss {
        /// The fetched instruction address.
        address: u32,
    },
    /// A line refill began (stamped at the miss cycle).
    RefillStart {
        /// First address of the line being refilled.
        address: u32,
    },
    /// A line refill completed (stamped at the completion cycle).
    RefillDone {
        /// First address of the refilled line.
        address: u32,
        /// Total refill latency in cycles, including every retry.
        cycles: u64,
        /// Bytes moved over the instruction-memory bus.
        bytes: u32,
        /// Whether the LAT entry was already in the CLB.
        clb_hit: bool,
        /// Whether the line was stored uncompressed.
        bypass: bool,
        /// Re-reads the degradation policy needed (0 normally).
        retries: u32,
    },
    /// A CLB probe found its LAT entry resident.
    ClbHit {
        /// The probed LAT-entry index.
        lat_index: u32,
    },
    /// A CLB probe missed (a LAT read follows).
    ClbMiss {
        /// The probed LAT-entry index.
        lat_index: u32,
    },
    /// Inserting a LAT entry evicted the least recently used one.
    ClbEvict {
        /// The evicted LAT-entry index.
        lat_index: u32,
    },
    /// A burst read on the instruction-memory bus (stamped at the cycle
    /// the burst was issued).
    MemoryBurst {
        /// 32-bit words transferred.
        words: u32,
        /// Cycle the last word arrived.
        done: u64,
    },
    /// A runtime integrity cross-check failed (corrupt LAT entry, CRC
    /// mismatch, or undecodable block).
    IntegrityFailure {
        /// The instruction address being refilled.
        address: u32,
    },
    /// The degradation policy scheduled a retry with exponential backoff.
    RetryBackoff {
        /// The instruction address being refilled.
        address: u32,
        /// Which retry this is (1-based).
        attempt: u32,
        /// Idle cycles charged before the re-read.
        backoff_cycles: u64,
    },
}

impl Event {
    /// The event's stable kind name, used as the Chrome trace-event name
    /// and the metric key prefix.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CacheMiss { .. } => "cache_miss",
            Event::RefillStart { .. } => "refill_start",
            Event::RefillDone { .. } => "refill",
            Event::ClbHit { .. } => "clb_hit",
            Event::ClbMiss { .. } => "clb_miss",
            Event::ClbEvict { .. } => "clb_evict",
            Event::MemoryBurst { .. } => "memory_burst",
            Event::IntegrityFailure { .. } => "integrity_failure",
            Event::RetryBackoff { .. } => "retry_backoff",
        }
    }
}

/// An [`Event`] plus the simulated cycle it was emitted at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// The event itself.
    pub event: Event,
}

/// A sink for hierarchy events.
///
/// Emitters take `&mut impl Probe`, so a [`NullProbe`] caller pays
/// nothing: the empty `emit` inlines away.
pub trait Probe {
    /// Receives `event`, stamped at simulated `cycle`.
    fn emit(&mut self, cycle: u64, event: Event);
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn emit(&mut self, _cycle: u64, _event: Event) {}
}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn emit(&mut self, cycle: u64, event: Event) {
        (**self).emit(cycle, event);
    }
}

/// Fan-out: both probes see every event, in tuple order.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn emit(&mut self, cycle: u64, event: Event) {
        self.0.emit(cycle, event);
        self.1.emit(cycle, event);
    }
}

/// A probe that records every event in emission order — the input to the
/// Chrome trace-event exporter.
///
/// # Examples
///
/// ```
/// use ccrp_probe::{Event, EventLog, Probe};
///
/// let mut log = EventLog::new();
/// log.emit(7, Event::CacheMiss { address: 0x40 });
/// assert_eq!(log.events().len(), 1);
/// assert_eq!(log.events()[0].cycle, 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TimedEvent>,
    limit: Option<usize>,
    dropped: u64,
}

impl EventLog {
    /// Creates an empty, unbounded log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Creates a log that keeps at most `limit` events; later events are
    /// counted in [`dropped`](Self::dropped) instead of stored, so a
    /// bounded trace of a long run still reports its true event count.
    pub fn with_limit(limit: usize) -> EventLog {
        EventLog {
            limit: Some(limit),
            ..EventLog::default()
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// The recorded events of one [`kind`](Event::kind), in emission
    /// order — the shape invariant checkers consume ("every refill",
    /// "every burst") without re-matching variants.
    pub fn events_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TimedEvent> {
        self.events
            .iter()
            .filter(move |timed| timed.event.kind() == kind)
    }

    /// Events discarded by the [`with_limit`](Self::with_limit) cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the log, recorded events and [`dropped`](Self::dropped)
    /// count alike, keeping its limit and its storage, so one log can
    /// record a run of short episodes without allocating for each.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl Probe for EventLog {
    fn emit(&mut self, cycle: u64, event: Event) {
        if self.limit.is_some_and(|cap| self.events.len() >= cap) {
            self.dropped += 1;
        } else {
            self.events.push(TimedEvent { cycle, event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_silent() {
        let mut probe = NullProbe;
        probe.emit(0, Event::CacheMiss { address: 0 });
    }

    #[test]
    fn events_of_kind_filters_in_order() {
        let mut log = EventLog::new();
        log.emit(1, Event::ClbMiss { lat_index: 1 });
        log.emit(2, Event::ClbHit { lat_index: 1 });
        log.emit(3, Event::ClbHit { lat_index: 2 });
        let hits: Vec<u64> = log.events_of_kind("clb_hit").map(|t| t.cycle).collect();
        assert_eq!(hits, vec![2, 3]);
        assert_eq!(log.events_of_kind("refill").count(), 0);
    }

    #[test]
    fn event_log_records_in_order() {
        let mut log = EventLog::new();
        log.emit(3, Event::ClbMiss { lat_index: 1 });
        log.emit(9, Event::ClbHit { lat_index: 1 });
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].cycle < events[1].cycle);
        assert_eq!(events[1].event, Event::ClbHit { lat_index: 1 });
    }

    #[test]
    fn bounded_log_counts_drops() {
        let mut log = EventLog::with_limit(1);
        log.emit(0, Event::CacheMiss { address: 0 });
        log.emit(1, Event::CacheMiss { address: 32 });
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn cleared_log_records_afresh() {
        let mut log = EventLog::with_limit(1);
        log.emit(0, Event::CacheMiss { address: 0 });
        log.emit(1, Event::CacheMiss { address: 32 });
        log.clear();
        assert_eq!(log, EventLog::with_limit(1));
        log.emit(2, Event::ClbHit { lat_index: 3 });
        log.emit(3, Event::ClbHit { lat_index: 4 });
        assert_eq!(log.events().len(), 1);
        assert_eq!(log.events()[0].cycle, 2);
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn tuple_probe_fans_out() {
        let mut pair = (EventLog::new(), EventLog::new());
        pair.emit(5, Event::IntegrityFailure { address: 64 });
        assert_eq!(pair.0.events(), pair.1.events());
        assert_eq!(pair.0.events().len(), 1);
    }

    #[test]
    fn mut_ref_probe_forwards() {
        let mut log = EventLog::new();
        {
            let fwd: &mut EventLog = &mut log;
            fwd.emit(1, Event::ClbEvict { lat_index: 4 });
        }
        assert_eq!(log.events().len(), 1);
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(Event::CacheMiss { address: 0 }.kind(), "cache_miss");
        assert_eq!(
            Event::MemoryBurst { words: 2, done: 5 }.kind(),
            "memory_burst"
        );
    }
}
