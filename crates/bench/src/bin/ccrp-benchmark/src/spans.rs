//! An in-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each crate's public functions.
//! They stay in memory while the run lasts and are written once, at exit,
//! as Chrome trace-event JSON (loads in Perfetto). A layer's time is its
//! *self* time: the span's duration minus the part of it that child
//! spans cover.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ccrp_bench::json::Json;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `asm.assemble`.
    pub name: String,
    /// The benchmark operation the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
}

/// Records nested spans on the calling thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            op: self.op,
            start,
            end: start,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        value
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time in nanoseconds, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| self_time((span.start, span.end), &mut kids))
            .collect()
    }

    /// Total self time per span name, in milliseconds, and the number of
    /// distinct operations each name occurred in.
    pub fn self_ms_by_name(&self) -> BTreeMap<String, (f64, usize)> {
        let mut totals: BTreeMap<String, (f64, Vec<u64>)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self.self_times()) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.0 += ns as f64 / 1e6;
            if entry.1.last() != Some(&span.op) {
                entry.1.push(span.op);
            }
        }
        totals
            .into_iter()
            .map(|(name, (ms, mut ops))| {
                ops.sort_unstable();
                ops.dedup();
                (name, (ms, ops.len()))
            })
            .collect()
    }

    /// The spans as Chrome trace-event JSON: one complete (`"X"`) event
    /// per span, with its id, parent and operation in `args`.
    pub fn chrome_trace(&self) -> Json {
        let micros = |ns: u64| Json::F64(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .map(|span| {
                let category = span.name.split('.').next().unwrap_or("");
                Json::obj([
                    ("name", Json::str(&span.name)),
                    ("cat", Json::str(category)),
                    ("ph", Json::str("X")),
                    ("ts", micros(span.start)),
                    ("dur", micros(span.end - span.start)),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::U64(span.id as u64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                            ("op", Json::U64(span.op)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time of a span covering `span` whose children cover `children`:
/// the span's duration minus the union of the children's intervals,
/// clipped to the span. Children may nest or overlap one another.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for &(start, end) in children.iter() {
        let start = start.max(reach);
        let end = end.min(span.1);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.1 - span.0) - covered
}

/// What recording one span costs, measured by recording many empty ones:
/// the traced run multiplies it by its span count to report its own
/// overhead.
pub fn per_span_cost() -> Duration {
    const SPANS: u32 = 20_000;
    let mut recorder = Recorder::new();
    let started = Instant::now();
    for _ in 0..SPANS {
        recorder.span("calibrate", |_| ());
    }
    started.elapsed() / SPANS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        // Parent 0..100; children 10..30 and 20..50 overlap (40 covered),
        // 40..45 nests inside the second, 90..120 runs past the parent's
        // end (10 covered).
        let mut children = [(20, 50), (10, 30), (40, 45), (90, 120)];
        assert_eq!(self_time((0, 100), &mut children), 100 - 40 - 10);
        assert_eq!(self_time((0, 100), &mut []), 100);
        // A child starting before the parent is clipped too.
        assert_eq!(self_time((50, 60), &mut [(40, 55)]), 5);
    }

    #[test]
    fn recorder_nests_spans_and_attributes_self_time() {
        let mut recorder = Recorder::new();
        recorder.set_op(7);
        recorder.span("outer", |r| {
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            r.span("inner", |_| ());
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
        let selfs = recorder.self_times();
        let outer = spans[0].end - spans[0].start;
        let inner: u64 = spans[1..].iter().map(|s| s.end - s.start).sum();
        assert_eq!(selfs[0], outer - inner);
        let by_name = recorder.self_ms_by_name();
        assert_eq!(by_name["inner"].1, 1, "both inner spans belong to op 7");
        assert!(by_name["inner"].0 >= 2.0);
        let trace = recorder.chrome_trace().to_compact();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"X\""));
    }
}
