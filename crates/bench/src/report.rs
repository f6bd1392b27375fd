//! Shared report serialization: the [`ToJson`] trait plus the metrics
//! and Chrome trace-event exporters.
//!
//! Every structured result type in the workspace — simulator counters,
//! metric registries, sweep, matrix and campaign reports — serializes
//! through one trait, so the JSON layout of a type is defined exactly
//! once instead of per call site. All output goes through
//! [`crate::json::Json`], which sorts object keys at write time;
//! combined with the deterministic inputs this keeps every exported
//! file bit-identical across runs and worker counts.
//!
//! Every report's full document is built by one crate-private
//! function, `envelope`: its `results_json()` plus the run-specific
//! `jobs` and `timing` keys, the only two a committed `BENCH_*.json`
//! may differ in from a fresh run.
//!
//! The trace exporter follows the Chrome trace-event format (the JSON
//! that `chrome://tracing` and Perfetto load): `RefillDone` and
//! `MemoryBurst` become complete (`"ph": "X"`) events with a duration,
//! everything else becomes a thread-scoped instant (`"ph": "i"`).
//! Timestamps are simulated cycles, not wall time, so a trace is a pure
//! function of the workload and configuration.

use std::time::Duration;

use ccrp::ClbStats;
use ccrp_probe::{Event, Histogram, MetricSet, TimedEvent};
use ccrp_sim::{CacheStats, RunStats};

use crate::json::Json;

/// Conversion into the workspace's JSON value tree.
///
/// Implemented by every structured result type so reports are built by
/// composing `to_json` calls instead of hand-formatting fields at each
/// call site.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// A report's full document: `results` (its `results_json()`, equal
/// for any worker count) plus the run-specific `jobs` count and
/// `timing` object. `ci/bench_reproduces.py` removes exactly these two
/// keys before comparing a fresh document with a committed one.
pub(crate) fn envelope(mut results: Json, jobs: usize, timing: Json) -> Json {
    results.insert("jobs", Json::U64(jobs as u64));
    results.insert("timing", timing);
    results
}

/// A campaign's outcome table, `{key: {outcome: trials}}`: for each
/// `(name, key)` of `keys`, how many of `trials` (key and outcome
/// pairs) filed under `key` ended in each of `outcomes`.
pub(crate) fn outcome_table<K: PartialEq, O: Copy + PartialEq>(
    keys: impl IntoIterator<Item = (&'static str, K)>,
    outcomes: &[O],
    name_of: fn(O) -> &'static str,
    trials: impl Iterator<Item = (K, O)> + Clone,
) -> Json {
    let table = keys.into_iter().map(|(key_name, key)| {
        let counts = outcomes.iter().map(|&outcome| {
            let filed = trials.clone().filter(|(k, o)| *k == key && *o == outcome);
            let n = Json::U64(filed.count() as u64);
            (name_of(outcome).to_string(), n)
        });
        (key_name.to_string(), Json::Obj(counts.collect()))
    });
    Json::Obj(table.collect())
}

/// A wall-clock duration as whole microseconds, the unit of every
/// `timing` section.
pub(crate) fn duration_json(d: Duration) -> Json {
    Json::U64(d.as_micros() as u64)
}

/// Asserts `report`'s full document is [`envelope`] over `results` with
/// `jobs` workers, whatever its timing.
#[cfg(test)]
pub(crate) fn assert_envelope(report: &impl ToJson, results: Json, jobs: usize) {
    let mut full = report.to_json();
    assert_eq!(full.remove("jobs"), Some(Json::U64(jobs as u64)));
    assert!(full.remove("timing").is_some(), "timing missing");
    assert_eq!(full.to_compact(), results.to_compact());
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fetches", Json::U64(self.fetches)),
            ("misses", Json::U64(self.misses)),
        ])
    }
}

impl ToJson for ClbStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::U64(self.hits)),
            ("misses", Json::U64(self.misses)),
        ])
    }
}

impl ToJson for RunStats {
    // The cache counters stay flattened into the top level — this layout
    // is what the committed BENCH_*.json files contain, so it must not
    // change shape.
    fn to_json(&self) -> Json {
        Json::obj([
            ("instructions", Json::U64(self.instructions)),
            ("data_accesses", Json::U64(self.data_accesses)),
            ("fetches", Json::U64(self.cache.fetches)),
            ("misses", Json::U64(self.cache.misses)),
            ("refill_cycles", Json::U64(self.refill_cycles)),
            ("bytes_from_memory", Json::U64(self.bytes_from_memory)),
            ("data_stall_cycles", Json::F64(self.data_stall_cycles)),
            ("total_cycles", Json::F64(self.total_cycles())),
            ("clb", self.clb.map_or(Json::Null, |clb| clb.to_json())),
        ])
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let u64s = |values: &[u64]| Json::Arr(values.iter().map(|&v| Json::U64(v)).collect());
        Json::obj([
            ("bounds", u64s(self.bounds())),
            ("counts", u64s(self.counts())),
            ("count", Json::U64(self.count())),
            ("sum", Json::U64(self.sum())),
            ("min", self.min().map_or(Json::Null, Json::U64)),
            ("max", self.max().map_or(Json::Null, Json::U64)),
            ("mean", self.mean().map_or(Json::Null, Json::F64)),
        ])
    }
}

impl ToJson for MetricSet {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters()
                        .map(|(name, value)| (name.to_string(), Json::U64(value)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms()
                        .map(|(name, hist)| (name.to_string(), hist.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The trace-event category a probe event files under.
fn category(event: &Event) -> &'static str {
    match event {
        Event::CacheMiss { .. } => "cache",
        Event::RefillStart { .. } | Event::RefillDone { .. } => "refill",
        Event::ClbHit { .. } | Event::ClbMiss { .. } | Event::ClbEvict { .. } => "clb",
        Event::MemoryBurst { .. } => "memory",
        Event::IntegrityFailure { .. } | Event::RetryBackoff { .. } => "fault",
        _ => "other",
    }
}

/// One probe event as a trace-event object on thread `tid`.
fn trace_event(tid: u64, timed: &TimedEvent) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::str(timed.event.kind())),
        ("cat".to_string(), Json::str(category(&timed.event))),
        ("pid".to_string(), Json::U64(0)),
        ("tid".to_string(), Json::U64(tid)),
    ];
    let mut push = |key: &str, value: Json| pairs.push((key.to_string(), value));
    let address = |a: u32| Json::Str(format!("{a:#x}"));
    match timed.event {
        Event::RefillDone {
            address: a,
            cycles,
            bytes,
            clb_hit,
            bypass,
            retries,
        } => {
            // A complete event spanning the refill: it started `cycles`
            // before the line was ready.
            push("ph", Json::str("X"));
            push("ts", Json::U64(timed.cycle.saturating_sub(cycles)));
            push("dur", Json::U64(cycles));
            push(
                "args",
                Json::obj([
                    ("address", address(a)),
                    ("bytes", Json::U64(u64::from(bytes))),
                    ("clb_hit", Json::Bool(clb_hit)),
                    ("bypass", Json::Bool(bypass)),
                    ("retries", Json::U64(u64::from(retries))),
                ]),
            );
        }
        Event::MemoryBurst { words, done } => {
            push("ph", Json::str("X"));
            push("ts", Json::U64(timed.cycle));
            push("dur", Json::U64(done.saturating_sub(timed.cycle)));
            push("args", Json::obj([("words", Json::U64(u64::from(words)))]));
        }
        ref event => {
            push("ph", Json::str("i"));
            push("s", Json::str("t"));
            push("ts", Json::U64(timed.cycle));
            let args = match *event {
                Event::CacheMiss { address: a }
                | Event::RefillStart { address: a }
                | Event::IntegrityFailure { address: a } => Json::obj([("address", address(a))]),
                Event::ClbHit { lat_index }
                | Event::ClbMiss { lat_index }
                | Event::ClbEvict { lat_index } => {
                    Json::obj([("lat_index", Json::U64(u64::from(lat_index)))])
                }
                Event::RetryBackoff {
                    address: a,
                    attempt,
                    backoff_cycles,
                } => Json::obj([
                    ("address", address(a)),
                    ("attempt", Json::U64(u64::from(attempt))),
                    ("backoff_cycles", Json::U64(backoff_cycles)),
                ]),
                _ => Json::obj([]),
            };
            push("args", args);
        }
    }
    Json::Obj(pairs)
}

/// Exports probe event streams as a Chrome trace-event JSON document.
///
/// Each `(name, events)` track becomes one thread (a `thread_name`
/// metadata record followed by its events, in stream order) under a
/// single process, so Perfetto and `chrome://tracing` show the tracks
/// side by side on a shared simulated-cycle timebase.
pub fn chrome_trace(tracks: &[(&str, &[TimedEvent])]) -> Json {
    let mut events = Vec::new();
    for (tid, (name, track)) in tracks.iter().enumerate() {
        let tid = tid as u64;
        events.push(Json::obj([
            ("ph", Json::str("M")),
            ("pid", Json::U64(0)),
            ("tid", Json::U64(tid)),
            ("name", Json::str("thread_name")),
            ("args", Json::obj([("name", Json::str(name))])),
        ]));
        events.extend(track.iter().map(|timed| trace_event(tid, timed)));
    }
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_layout_is_stable() {
        // The exact key set the committed BENCH files contain.
        let stats = RunStats {
            instructions: 100,
            data_accesses: 30,
            cache: CacheStats {
                fetches: 100,
                misses: 7,
            },
            refill_cycles: 70,
            bytes_from_memory: 224,
            data_stall_cycles: 1.5,
            clb: Some(ClbStats { hits: 5, misses: 2 }),
        };
        let compact = stats.to_json().to_compact();
        assert_eq!(
            compact,
            "{\"bytes_from_memory\":224,\"clb\":{\"hits\":5,\"misses\":2},\
             \"data_accesses\":30,\"data_stall_cycles\":1.5,\"fetches\":100,\
             \"instructions\":100,\"misses\":7,\"refill_cycles\":70,\
             \"total_cycles\":171.5}"
        );
        let no_clb = RunStats { clb: None, ..stats };
        assert!(no_clb.to_json().to_compact().contains("\"clb\":null"));
    }

    #[test]
    fn metric_set_serializes_counters_and_histograms() {
        let mut metrics = MetricSet::new();
        metrics.add("events.refill", 3);
        metrics.observe("latency", &[4, 8], 6);
        let json = metrics.to_json();
        let compact = json.to_compact();
        assert!(compact.contains("\"events.refill\":3"));
        assert!(compact.contains("\"bounds\":[4,8]"));
        assert!(compact.contains("\"counts\":[0,1,0]"));
        assert!(compact.contains("\"mean\":6"));

        let empty = MetricSet::new().to_json().to_compact();
        assert_eq!(empty, "{\"counters\":{},\"histograms\":{}}");
    }

    #[test]
    fn chrome_trace_shapes_complete_and_instant_events() {
        let events = [
            TimedEvent {
                cycle: 10,
                event: Event::CacheMiss { address: 0x40 },
            },
            TimedEvent {
                cycle: 30,
                event: Event::RefillDone {
                    address: 0x40,
                    cycles: 20,
                    bytes: 24,
                    clb_hit: false,
                    bypass: false,
                    retries: 0,
                },
            },
            TimedEvent {
                cycle: 12,
                event: Event::MemoryBurst { words: 2, done: 18 },
            },
        ];
        let trace = chrome_trace(&[("ccrp", &events)]);
        let text = trace.to_compact();
        // Parses back (well-formed), carries the three events plus the
        // thread-name metadata record.
        let parsed = Json::parse(&text).expect("trace parses");
        let Some(Json::Arr(items)) = parsed.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(items.len(), 4);
        assert!(text.contains("\"thread_name\""));
        // The refill is a complete event back-dated to its start cycle.
        assert!(text.contains("\"dur\":20"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":10"));
        // The miss is an instant.
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"address\":\"0x40\""));
    }
}
