//! Trace capture for the trace-once, replay-many sweep engine.
//!
//! An [`AccessTrace`] is a compact, replayable form of one workload's
//! instruction-fetch stream. Capturing it costs one pass over the
//! per-fetch `(pc, data_access_count)` trace; replaying it through the
//! timing models (see [`Simulation`](crate::Simulation)) reproduces the
//! exact [`RunStats`](crate::RunStats) of a direct simulation, for
//! *every* system configuration, without re-executing the workload.
//!
//! # Run compaction
//!
//! The trace is stored as [`FetchRun`]s: maximal sequences of
//! consecutive fetches that stay within one 32-byte cache line
//! ([`LINE_BYTES`]). Compaction is lossless for every model this crate
//! simulates, because the i-cache is direct-mapped and nothing else
//! touches it between fetches:
//!
//! * after the first fetch of a run installs (or finds) the line, the
//!   remaining fetches of the run are guaranteed hits — a miss, refill,
//!   CLB access, or memory burst can only happen at a run's first fetch;
//! * per-entry counter updates (instructions, cycles, data accesses)
//!   are sums, so a run of `n` fetches folds into the first fetch plus
//!   `n - 1` hit cycles;
//! * the data-side model is analytic over the *total* data-access
//!   count, so per-run sums suffice.
//!
//! Splitting a run early is also harmless: the second part's first
//! fetch simply hits (the line is still resident), so capture may break
//! oversized runs without changing replayed statistics.
//!
//! # On-disk form
//!
//! [`AccessTrace::to_bytes`] reuses `ccrp-core`'s snapshot framing
//! (magic, version, fingerprint, and a CRC-32 over header and payload
//! — see [`ccrp::write_frame`]), so a `.trace` file is rejected with a
//! typed [`TraceError`] on any corruption, truncation, or version
//! mismatch — never a panic. The payload is delta-encoded: each run
//! stores the zigzag-LEB128 delta of its first PC from the previous
//! run's, plus LEB128 fetch and data counts.

use std::error::Error;
use std::fmt;

use ccrp::{read_frame, write_frame, ByteReader, SnapshotError};

use crate::icache::LINE_BYTES;

/// Version of the `.trace` payload layout inside the snapshot frame.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// A maximal sequence of consecutive fetches within one cache line —
/// the unit of compacted replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRun {
    /// PC of the run's first fetch (the only one that can miss).
    pub first_pc: u32,
    /// Number of fetches in the run (always at least 1).
    pub fetches: u32,
    /// Total data accesses issued by the run's fetches.
    pub data: u32,
}

impl FetchRun {
    /// The cache line the whole run stays within.
    pub fn line(&self) -> u32 {
        self.first_pc / LINE_BYTES
    }

    /// A run of the one fetch `(pc, data)`.
    fn starting_at(pc: u32, data: u8) -> FetchRun {
        FetchRun {
            first_pc: pc,
            fetches: 1,
            data: u32::from(data),
        }
    }

    /// Whether a fetch at `pc` may join this run: it stays in the run's
    /// line and the run holds fewer than `u32::MAX` fetches. With the
    /// data ceiling — the run's data total must fit a `u32` too — this
    /// is the one compaction rule every capture applies (a split run
    /// replays identically, see the module docs).
    #[inline]
    fn admits(&self, pc: u32) -> bool {
        // Same line: the PCs differ only below the line size, a power
        // of two, which the build checks.
        const _: () = assert!(LINE_BYTES.is_power_of_two()); // panic-ok: compile time only
        (pc ^ self.first_pc) < LINE_BYTES && self.fetches != u32::MAX
    }
}

/// The run a streamed capture is still growing: the last run of its
/// trace, kept by the capture until it is finished, plus the current
/// fetch's PC and data count (saturating at 255, as
/// `ccrp_emu::ProgramTrace`'s does).
///
/// [`AccessTrace::stream_fetch`] and [`AccessTrace::stream_data`] grow
/// it under the compaction rule of [`AccessTrace::capture`], handing
/// each finished run to the trace, and [`AccessTrace::close_run`]
/// hands over the last one — so the trace ends equal to `capture` of
/// the same `(pc, data count)` stream. A fetch joins the run when it
/// arrives (same line, fetch ceiling); its data accesses are added as
/// they come, and the one that would carry the run's data total past
/// `u32::MAX` moves the fetch to a run of its own, which is where
/// `capture` would have put it.
#[derive(Debug, Clone, Copy)]
pub struct OpenRun {
    run: FetchRun,
    pc: u32,
    data: u8,
    /// Whether a fetch has arrived. Before one, `run` admits no fetch.
    started: bool,
}

impl Default for OpenRun {
    fn default() -> Self {
        OpenRun {
            run: FetchRun {
                first_pc: 0,
                fetches: u32::MAX,
                data: 0,
            },
            pc: 0,
            data: 0,
            started: false,
        }
    }
}

/// Errors from loading a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The snapshot frame was rejected (bad magic, truncation, CRC
    /// mismatch).
    Frame(SnapshotError),
    /// The frame is intact but its payload version is unknown.
    UnsupportedVersion {
        /// The version found in the frame header.
        found: u32,
    },
    /// The frame is intact but the payload violates the trace layout.
    Malformed {
        /// What constraint the payload violated.
        what: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Frame(e) => write!(f, "trace frame: {e}"),
            TraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "trace version {found} unsupported (expected {TRACE_FORMAT_VERSION})"
                )
            }
            TraceError::Malformed { what } => write!(f, "malformed trace payload: {what}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for TraceError {
    fn from(e: SnapshotError) -> Self {
        TraceError::Frame(e)
    }
}

/// A run-compacted instruction-fetch trace (see the module docs for the
/// compaction argument and the on-disk form).
///
/// # Examples
///
/// ```
/// use ccrp_sim::AccessTrace;
///
/// // Four fetches in line 0, one in line 1: two runs.
/// let trace = AccessTrace::capture([(0u32, 0u8), (4, 1), (8, 0), (12, 0), (32, 2)]);
/// assert_eq!(trace.runs().len(), 2);
/// assert_eq!(trace.fetches(), 5);
/// assert_eq!(trace.data_accesses(), 3);
///
/// let bytes = trace.to_bytes(0xC0FFEE);
/// let (loaded, fingerprint) = AccessTrace::from_bytes(&bytes)?;
/// assert_eq!(loaded, trace);
/// assert_eq!(fingerprint, 0xC0FFEE);
/// # Ok::<(), ccrp_sim::TraceError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessTrace {
    runs: Vec<FetchRun>,
    fetches: u64,
    data: u64,
}

impl AccessTrace {
    /// Captures a trace from a per-fetch `(pc, data_access_count)`
    /// stream — the same shape `ccrp-emu` records and the live
    /// simulators consume. A trace can also grow fetch by fetch while a
    /// program runs, through its [`Extend`] impl; both routes compact
    /// identically.
    pub fn capture(fetches: impl IntoIterator<Item = (u32, u8)>) -> Self {
        let mut trace = AccessTrace::default();
        trace.extend(fetches);
        trace
    }

    /// Appends one fetch, extending the last run when the compaction
    /// rule lets it.
    #[inline]
    fn push(&mut self, pc: u32, data: u8) {
        if let Some(run) = self.runs.last_mut() {
            if run.admits(pc) {
                if let Some(total) = run.data.checked_add(u32::from(data)) {
                    run.fetches += 1;
                    run.data = total;
                    self.fetches += 1;
                    self.data += u64::from(data);
                    return;
                }
            }
        }
        self.push_run(FetchRun::starting_at(pc, data));
    }

    /// Appends a finished run.
    #[inline]
    fn push_run(&mut self, run: FetchRun) {
        self.fetches += u64::from(run.fetches);
        self.data += u64::from(run.data);
        self.runs.push(run);
    }

    /// Streams a fetch at `pc` into `open` (see [`OpenRun`]): the fetch
    /// joins the open run, or the run is handed to this trace and a new
    /// one starts at the fetch.
    #[inline]
    pub fn stream_fetch(&mut self, open: &mut OpenRun, pc: u32) {
        if open.run.admits(pc) {
            open.run.fetches += 1;
        } else {
            self.start_run(open, pc);
        }
        open.pc = pc;
        open.data = 0;
    }

    /// Streams a data access of the current fetch into `open` (see
    /// [`OpenRun`]).
    #[inline]
    pub fn stream_data(&mut self, open: &mut OpenRun) {
        if open.data == u8::MAX {
            return;
        }
        match open.run.data.checked_add(1) {
            Some(total) => open.run.data = total,
            None => self.split_run(open),
        }
        open.data += 1;
    }

    /// Hands `open`'s run, if a fetch started one, to this trace: the
    /// end of a streamed capture.
    pub fn close_run(&mut self, open: OpenRun) {
        if open.started {
            self.push_run(open.run);
        }
    }

    /// Hands the open run, if any, to the trace and starts one at `pc`.
    #[cold]
    #[inline(never)]
    fn start_run(&mut self, open: &mut OpenRun, pc: u32) {
        self.close_run(*open);
        open.run = FetchRun::starting_at(pc, 0);
        open.started = true;
    }

    /// Moves the current fetch, whose next data access would carry the
    /// open run's data total past `u32::MAX`, to a run of its own.
    #[cold]
    #[inline(never)]
    fn split_run(&mut self, open: &mut OpenRun) {
        if !open.started {
            // Accesses before the first fetch belong to no run.
            open.run.data = 0;
            return;
        }
        let before = u32::from(open.data);
        self.push_run(FetchRun {
            fetches: open.run.fetches - 1,
            data: open.run.data - before,
            ..open.run
        });
        open.run = FetchRun {
            first_pc: open.pc,
            fetches: 1,
            data: before + 1,
        };
    }

    /// The compacted runs, in fetch order.
    pub fn runs(&self) -> &[FetchRun] {
        &self.runs
    }

    /// Total fetches captured (the workload's dynamic instruction
    /// count).
    pub fn fetches(&self) -> u64 {
        self.fetches
    }

    /// Total data accesses captured.
    pub fn data_accesses(&self) -> u64 {
        self.data
    }

    /// Whether the trace holds no fetches.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Serializes to the versioned, CRC-framed on-disk form.
    /// `fingerprint` identifies the traced workload (the CLI uses a
    /// CRC-32 of the workload name) and is returned verbatim by
    /// [`from_bytes`](Self::from_bytes).
    pub fn to_bytes(&self, fingerprint: u32) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16 + self.runs.len() * 4);
        put_varint(&mut payload, self.runs.len() as u64);
        put_varint(&mut payload, self.fetches);
        put_varint(&mut payload, self.data);
        let mut prev_pc = 0i64;
        for run in &self.runs {
            let pc = i64::from(run.first_pc);
            put_varint(&mut payload, zigzag(pc - prev_pc));
            prev_pc = pc;
            put_varint(&mut payload, u64::from(run.fetches));
            put_varint(&mut payload, u64::from(run.data));
        }
        write_frame(TRACE_FORMAT_VERSION, fingerprint, &payload)
    }

    /// Loads a trace serialized by [`to_bytes`](Self::to_bytes),
    /// returning it together with the stored fingerprint.
    ///
    /// # Errors
    ///
    /// [`TraceError::Frame`] when the frame is corrupt or truncated
    /// (every byte is covered by the frame CRC), `UnsupportedVersion`
    /// for an unknown payload version, and `Malformed` when the payload
    /// violates the trace layout (zero-length runs, PC overflow,
    /// inconsistent totals, trailing bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<(Self, u32), TraceError> {
        let (header, payload) = read_frame(bytes)?;
        if header.version != TRACE_FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: header.version,
            });
        }
        let mut reader = ByteReader::new(payload);
        let run_count = read_varint(&mut reader)?;
        if run_count > payload.len() as u64 {
            // Each run needs at least 3 payload bytes; reject absurd
            // counts before reserving memory for them.
            return Err(TraceError::Malformed {
                what: "run count exceeds payload size",
            });
        }
        let fetches = read_varint(&mut reader)?;
        let data = read_varint(&mut reader)?;
        let mut runs = Vec::with_capacity(run_count as usize);
        let mut prev_pc = 0i64;
        let (mut fetch_sum, mut data_sum) = (0u64, 0u64);
        for _ in 0..run_count {
            let pc = prev_pc
                .checked_add(unzigzag(read_varint(&mut reader)?))
                .ok_or(TraceError::Malformed {
                    what: "PC delta overflows",
                })?;
            let first_pc = u32::try_from(pc).map_err(|_| TraceError::Malformed {
                what: "PC outside the 32-bit address space",
            })?;
            prev_pc = pc;
            let run_fetches = read_varint(&mut reader)?;
            let run_fetches = u32::try_from(run_fetches).map_err(|_| TraceError::Malformed {
                what: "run fetch count overflows",
            })?;
            if run_fetches == 0 {
                return Err(TraceError::Malformed {
                    what: "zero-length run",
                });
            }
            let run_data = read_varint(&mut reader)?;
            let run_data = u32::try_from(run_data).map_err(|_| TraceError::Malformed {
                what: "run data count overflows",
            })?;
            fetch_sum = fetch_sum.saturating_add(u64::from(run_fetches));
            data_sum = data_sum.saturating_add(u64::from(run_data));
            runs.push(FetchRun {
                first_pc,
                fetches: run_fetches,
                data: run_data,
            });
        }
        if !reader.is_exhausted() {
            return Err(TraceError::Malformed {
                what: "trailing bytes after the last run",
            });
        }
        if fetch_sum != fetches || data_sum != data {
            return Err(TraceError::Malformed {
                what: "run totals disagree with the header",
            });
        }
        Ok((
            AccessTrace {
                runs,
                fetches,
                data,
            },
            header.fingerprint,
        ))
    }
}

/// Appends per-fetch `(pc, data_access_count)` pairs, compacting them
/// into the current run exactly as [`AccessTrace::capture`] does — so a
/// trace grown in pieces equals one captured from the whole stream.
impl Extend<(u32, u8)> for AccessTrace {
    fn extend<I: IntoIterator<Item = (u32, u8)>>(&mut self, fetches: I) {
        for (pc, data) in fetches {
            self.push(pc, data);
        }
    }
}

/// Zigzag-encodes a signed delta so small magnitudes stay short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint; at most 10 bytes encode a `u64`.
fn read_varint(reader: &mut ByteReader<'_>) -> Result<u64, TraceError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = reader.read_u8()?;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            break;
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(TraceError::Malformed {
        what: "varint overflows 64 bits",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capture_compacts_line_runs() {
        // 32 sequential fetches in line 0, then a jump to line 4.
        let mut fetches: Vec<(u32, u8)> = (0..32u32).map(|pc| (pc, 0)).collect();
        fetches.push((0x80, 1));
        let trace = AccessTrace::capture(fetches);
        assert_eq!(trace.runs().len(), 2);
        assert_eq!(trace.runs()[0].fetches, 32);
        assert_eq!(
            trace.runs()[1],
            FetchRun {
                first_pc: 0x80,
                fetches: 1,
                data: 1
            }
        );
        assert_eq!(trace.fetches(), 33);
        assert_eq!(trace.data_accesses(), 1);
    }

    #[test]
    fn halfword_stride_capture_compacts_by_line() {
        // An RVC-style fetch stream advances the PC by 2 bytes, so one
        // 32-byte line holds 16 fetches — the compaction key is
        // pc / LINE_BYTES, never a 4-byte instruction index.
        let fetches: Vec<(u32, u8)> = (0..64u32).step_by(2).map(|pc| (pc, 0)).collect();
        let trace = AccessTrace::capture(fetches);
        assert_eq!(trace.runs().len(), 2);
        for (index, run) in trace.runs().iter().enumerate() {
            assert_eq!(
                *run,
                FetchRun {
                    first_pc: index as u32 * LINE_BYTES,
                    fetches: 16,
                    data: 0
                }
            );
        }
        assert_eq!(trace.fetches(), 32);
    }

    #[test]
    fn runs_may_start_at_any_halfword() {
        // A branch landing on the last halfword of line 1 (0x3E), then
        // falling through into line 2: the run splits exactly at the
        // line crossing even though no PC is word-aligned, and the
        // halfword PCs survive the on-disk round-trip.
        let trace = AccessTrace::capture([(0x3E, 0), (0x40, 1), (0x42, 0)]);
        assert_eq!(trace.runs().len(), 2);
        assert_eq!(
            trace.runs()[0],
            FetchRun {
                first_pc: 0x3E,
                fetches: 1,
                data: 0
            }
        );
        assert_eq!(
            trace.runs()[1],
            FetchRun {
                first_pc: 0x40,
                fetches: 2,
                data: 1
            }
        );
        let bytes = trace.to_bytes(3);
        let (loaded, _) = AccessTrace::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = AccessTrace::capture(std::iter::empty());
        assert!(trace.is_empty());
        let bytes = trace.to_bytes(7);
        let (loaded, fp) = AccessTrace::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, trace);
        assert_eq!(fp, 7);
    }

    #[test]
    fn extreme_pcs_round_trip() {
        let trace = AccessTrace::capture([(u32::MAX, u8::MAX), (0, 0), (u32::MAX - 3, 1)]);
        let bytes = trace.to_bytes(u32::MAX);
        let (loaded, fp) = AccessTrace::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, trace);
        assert_eq!(fp, u32::MAX);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let trace = AccessTrace::capture((0..256u32).step_by(4).map(|pc| (pc * 3, (pc % 7) as u8)));
        let bytes = trace.to_bytes(0xDEAD_BEEF);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut stomped = bytes.clone();
                stomped[i] ^= flip;
                assert!(
                    AccessTrace::from_bytes(&stomped).is_err(),
                    "flip {flip:#x} at byte {i} accepted"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let trace = AccessTrace::capture([(0u32, 0u8), (64, 1)]);
        let bytes = trace.to_bytes(1);
        for len in 0..bytes.len() {
            assert!(AccessTrace::from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        let bytes = ccrp::write_frame(TRACE_FORMAT_VERSION + 9, 0, &[0, 0, 0]);
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion { found }) if found == TRACE_FORMAT_VERSION + 9
        ));
    }

    #[test]
    fn malformed_payloads_are_typed() {
        // Zero-length run.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // one run
        put_varint(&mut payload, 0); // fetches
        put_varint(&mut payload, 0); // data
        put_varint(&mut payload, zigzag(0));
        put_varint(&mut payload, 0); // run fetches == 0
        put_varint(&mut payload, 0);
        let bytes = ccrp::write_frame(TRACE_FORMAT_VERSION, 0, &payload);
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::Malformed { .. })
        ));

        // Totals disagreeing with the runs.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 99); // claimed fetches
        put_varint(&mut payload, 0);
        put_varint(&mut payload, zigzag(0));
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 0);
        let bytes = ccrp::write_frame(TRACE_FORMAT_VERSION, 0, &payload);
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::Malformed {
                what: "run totals disagree with the header"
            })
        ));

        // PC outside the 32-bit address space.
        let mut payload = Vec::new();
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 0);
        put_varint(&mut payload, zigzag(i64::from(u32::MAX) + 1));
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 0);
        let bytes = ccrp::write_frame(TRACE_FORMAT_VERSION, 0, &payload);
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::Malformed {
                what: "PC outside the 32-bit address space"
            })
        ));
    }

    proptest! {
        #[test]
        fn round_trip_is_lossless(
            fetches in proptest::collection::vec((0u32..1 << 20, 0u8..8), 0..400),
            fingerprint: u32,
        ) {
            let trace = AccessTrace::capture(fetches.iter().copied());
            prop_assert_eq!(trace.fetches(), fetches.len() as u64);
            let bytes = trace.to_bytes(fingerprint);
            let (loaded, fp) = AccessTrace::from_bytes(&bytes).unwrap();
            prop_assert_eq!(loaded, trace);
            prop_assert_eq!(fp, fingerprint);
        }

        #[test]
        fn extending_fetch_by_fetch_equals_capture(
            fetches in proptest::collection::vec((0u32..256, 0u8..4), 0..200),
        ) {
            let mut grown = AccessTrace::default();
            for &fetch in &fetches {
                grown.extend([fetch]);
            }
            prop_assert_eq!(grown, AccessTrace::capture(fetches.iter().copied()));
        }

        #[test]
        fn streaming_equals_capture(
            events in proptest::collection::vec(prop_oneof![
                (0u32..256).prop_map(Some),
                (0u32..1).prop_map(|_| None),
            ], 0..600),
        ) {
            // `Some(pc)` is a fetch, `None` a data access of the latest
            // fetch; accesses before the first fetch belong to none.
            let mut trace = AccessTrace::default();
            let mut open = OpenRun::default();
            let mut fetches: Vec<(u32, u8)> = Vec::new();
            for event in &events {
                match *event {
                    Some(pc) => {
                        trace.stream_fetch(&mut open, pc);
                        fetches.push((pc, 0));
                    }
                    None => {
                        trace.stream_data(&mut open);
                        if let Some((_, data)) = fetches.last_mut() {
                            *data = data.saturating_add(1);
                        }
                    }
                }
            }
            trace.close_run(open);
            prop_assert_eq!(trace, AccessTrace::capture(fetches));
        }

        #[test]
        fn streaming_splits_at_the_ceilings_as_push_does(
            fetches in prop_oneof![Just(1), Just(u32::MAX - 2), Just(u32::MAX - 1), Just(u32::MAX)],
            data in prop_oneof![Just(0), Just(u32::MAX - 300), Just(u32::MAX - 1), Just(u32::MAX)],
            next in proptest::collection::vec((0x100u32..0x148, 0u8..=255), 0..6),
        ) {
            // The same last run, held by the trace for `push` and open
            // for streaming, then the same fetches.
            let last = FetchRun { first_pc: 0x100, fetches, data };
            let mut pushed = AccessTrace::default();
            pushed.push_run(last);
            pushed.extend(next.iter().copied());
            let mut streamed = AccessTrace::default();
            let mut open = OpenRun { run: last, pc: 0x100, data: 0, started: true };
            for &(pc, data) in &next {
                streamed.stream_fetch(&mut open, pc);
                for _ in 0..data {
                    streamed.stream_data(&mut open);
                }
            }
            streamed.close_run(open);
            prop_assert_eq!(streamed, pushed);
        }

        #[test]
        fn varints_round_trip(values in proptest::collection::vec(any::<u64>(), 1..64)) {
            let mut buf = Vec::new();
            for &v in &values {
                put_varint(&mut buf, v);
            }
            let mut reader = ByteReader::new(&buf);
            for &v in &values {
                prop_assert_eq!(read_varint(&mut reader).unwrap(), v);
            }
            prop_assert!(reader.is_exhausted());
        }
    }
}
