//! The cache-line refill engine and its cycle-accurate timing model.
//!
//! On an instruction-cache miss (§3.4): the CLB is probed (in parallel
//! with the cache, so a hit costs nothing); on a CLB miss the 8-byte LAT
//! entry is first read from instruction memory; then the compressed block
//! streams in over the 32-bit bus while the decoder expands it at 2 bytes
//! per cycle, stalling whenever the bits for the next symbols have not
//! arrived yet. Bypassed (uncompressed) blocks refill exactly like a
//! standard processor's.

use ccrp_compress::LineCodec;
use ccrp_probe::{Event, NullProbe, Probe};

use crate::addr::LINE_SIZE;
use crate::clb::{Clb, ClbStats};
use crate::error::CcrpError;
use crate::image::{CompressedImage, LineLocation};
use crate::lat::{LatEntry, RECORDS_PER_ENTRY};

/// When the words of one memory burst arrive: word `i` at
/// `first + i * interval`. Every memory of §4.2.1 is affine in this
/// way — a random access to the first word, then a fixed cost per
/// sequential word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Arrival cycle of the burst's first word.
    pub first: u64,
    /// Cycles between the arrivals of consecutive words.
    pub interval: u64,
}

impl Burst {
    /// Arrival cycle of word `index` (0-based) of the burst.
    pub fn arrival(self, index: u32) -> u64 {
        self.first + self.interval * u64::from(index)
    }

    /// Arrival cycle of the last word of a `words`-word burst.
    pub fn last(self, words: u32) -> u64 {
        self.arrival(words.saturating_sub(1))
    }
}

/// Timing oracle for the instruction memory: the three models of §4.2.1
/// (EPROM, burst EPROM, static-column DRAM) implement this in `ccrp-sim`.
pub trait MemoryTiming {
    /// Starts a read of `words` consecutive 32-bit words at cycle `now`
    /// (a new random access; bursts never span calls) and returns when
    /// each word arrives. Every burst reads at least one word.
    fn read_burst(&mut self, words: u32, now: u64) -> Burst;
}

/// Most bus words one block spans: a block never exceeds 32 bytes, so
/// even one starting at the last byte of a word reaches only 9.
const MAX_BLOCK_WORDS: usize = 9;

/// The decoder's input thresholds for one compressed line: for each bus
/// word `w` of the block's burst, the first output byte that needs word
/// `w` or a later one. They come from the codec's exact
/// [`bit_profile`](LineCodec::bit_profile), mapped onto the bus words
/// the block spans (the block's byte offset within its first word
/// included). Only the first `words` words are needed by any byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WordThresholds {
    /// Bus words any output byte needs.
    words: u8,
    /// `first_byte[w]`: the first output byte needing word `w` or later.
    first_byte: [u8; MAX_BLOCK_WORDS],
}

impl WordThresholds {
    /// The thresholds of `line` (the original bytes of a compressed
    /// line) whose `stored_len`-byte block sits at physical address
    /// `physical`.
    pub(crate) fn of(codec: &dyn LineCodec, line: &[u8], physical: u32, stored_len: u32) -> Self {
        let mut profile = [0u64; LINE_SIZE as usize];
        codec.bit_profile(line, &mut profile);
        let byte_offset = u64::from(physical % 4);
        let last_word = block_words(physical, stored_len).min(MAX_BLOCK_WORDS as u32) - 1;
        let mut thresholds = Self::default();
        for (byte, bits) in (0u8..).zip(profile) {
            // Last compressed byte needed, relative to the block start.
            let last_input_byte = (bits.max(1) - 1) / 8;
            let word = ((byte_offset + last_input_byte) / 4).min(u64::from(last_word)) as u8;
            // The profile is cumulative, so each byte needs a word no
            // earlier than the byte before it did.
            while thresholds.words <= word {
                thresholds.first_byte[usize::from(thresholds.words)] = byte;
                thresholds.words += 1;
            }
        }
        thresholds
    }

    /// Completion cycle of the pipelined decoder, for a block whose
    /// words arrive per `burst` and a decode starting at `start`.
    ///
    /// The decoder retires `rate` original bytes per cycle (the
    /// configured rate already clamped to the codec's modeled
    /// [`max_bytes_per_cycle`](ccrp_compress::CodecCost)), in
    /// G = ⌈32/rate⌉ groups, but can only consume compressed bits that
    /// have arrived. Group `k` waits for the word its last byte needs
    /// and then takes one cycle: `t = max(t, arrival) + 1` from
    /// `t = start`. Unrolled in max-plus terms, the fold ends at
    /// `max(start + G, max_k(arrival_k + G − k))`. The bytes' words are
    /// monotone and arrivals grow with the word, so the largest term for
    /// word `w` belongs to the first group reaching it, ⌊b_w/rate⌋ for
    /// threshold `b_w`:
    ///
    /// `max(start + G, burst.first + max_w(interval·w + G − ⌊b_w/rate⌋))`
    ///
    /// This is the fold's value exactly, not an estimate.
    pub(crate) fn completion(&self, rate: u32, burst: Burst, start: u64) -> u64 {
        let rate = rate.max(1);
        let groups = u64::from(LINE_SIZE.div_ceil(rate));
        self.first_byte
            .iter()
            .take(usize::from(self.words))
            .zip(0u32..)
            .fold(start + groups, |done, (&byte, word)| {
                let group = u64::from(u32::from(byte) / rate);
                done.max(burst.arrival(word) + groups - group)
            })
    }
}

/// Bus words a `stored_len`-byte block at `physical` occupies: the bus
/// moves whole words, so the words its bytes span.
fn block_words(physical: u32, stored_len: u32) -> u32 {
    let last_byte = physical + stored_len.max(1) - 1;
    (last_byte / 4) - (physical / 4) + 1
}

/// What the refill engine does when it detects corruption (a LAT entry
/// disagreeing with the layout, a CRC mismatch, a block that fails to
/// decode). Modeled on how embedded memory controllers degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Propagate the underlying error to the caller unchanged (the
    /// strict default: fail fast, let software decide).
    #[default]
    Abort,
    /// Invalidate the cached LAT entry and re-read everything from
    /// instruction memory, up to `attempts` extra tries with exponential
    /// backoff (`1 << try` cycles) charged to the timing model — the
    /// right call when corruption may be a transient bus upset. Escalates
    /// to [`CcrpError::MachineCheck`] when the budget is exhausted.
    Retry {
        /// Extra attempts after the first failed read.
        attempts: u32,
    },
    /// Raise [`CcrpError::MachineCheck`] immediately, as hardware whose
    /// only recourse is a machine-check exception would.
    Trap,
}

/// How hard the refill engine looks for corruption on each refill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrityCheck {
    /// Cross-check the (possibly CLB-cached) LAT entry against the
    /// image layout. Free in hardware terms — the comparators already
    /// exist — and catches table corruption before a bogus fetch.
    #[default]
    Fast,
    /// [`Fast`](IntegrityCheck::Fast), plus actually decode the stored
    /// block (surfacing decode errors and, when the image carries CRC
    /// records, CRC mismatches) and expand from the decoded bytes.
    Full,
}

/// Configuration of the refill engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefillConfig {
    /// CLB capacity in LAT entries (the paper sweeps 4/8/16; default 16).
    pub clb_entries: usize,
    /// Decoder throughput in original bytes per cycle (the paper's
    /// decoder retires 2 by decoding one byte on each clock edge).
    pub decode_bytes_per_cycle: u32,
    /// What to do on detected corruption.
    pub policy: DegradePolicy,
    /// How much corruption detection to do per refill.
    pub integrity: IntegrityCheck,
}

impl Default for RefillConfig {
    fn default() -> Self {
        Self {
            clb_entries: 16,
            decode_bytes_per_cycle: 2,
            policy: DegradePolicy::default(),
            integrity: IntegrityCheck::default(),
        }
    }
}

/// What one refill cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefillOutcome {
    /// Cycle at which the expanded line is fully in the cache.
    pub ready_at: u64,
    /// Bytes moved over the instruction-memory bus (block + any LAT
    /// entry read), counting whole words and every retry's traffic.
    pub bytes_fetched: u32,
    /// Whether the LAT entry was already in the CLB (first attempt).
    pub clb_hit: bool,
    /// Whether the block was stored uncompressed.
    pub bypass: bool,
    /// Re-reads a [`DegradePolicy::Retry`] engine needed (0 otherwise).
    pub retries: u32,
}

/// Running totals of one refill attempt, kept outside the `Result` so a
/// failed attempt still reports the cycles and bus traffic it burned —
/// the retry path charges those to the next attempt's start time.
#[derive(Debug, Clone, Copy)]
struct AttemptProgress {
    time: u64,
    bytes: u32,
    clb_hit: bool,
    bypass: bool,
}

/// The code-expanding refill engine (cache side of Figure 4).
#[derive(Debug, Clone)]
pub struct RefillEngine {
    clb: Clb,
    decode_rate: u32,
    policy: DegradePolicy,
    integrity: IntegrityCheck,
}

impl RefillEngine {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// [`CcrpError::EmptyClb`] for a zero-entry CLB; a zero decode rate
    /// is also reported as [`CcrpError::BadBlockLength`] (no throughput).
    pub fn new(config: RefillConfig) -> Result<Self, CcrpError> {
        if config.decode_bytes_per_cycle == 0 {
            return Err(CcrpError::BadBlockLength { length: 0 });
        }
        Ok(Self {
            clb: Clb::new(config.clb_entries)?,
            decode_rate: config.decode_bytes_per_cycle,
            policy: config.policy,
            integrity: config.integrity,
        })
    }

    /// CLB hit/miss statistics.
    pub fn clb_stats(&self) -> ClbStats {
        self.clb.stats()
    }

    /// Whether `error` is something the degradation policy covers:
    /// detected corruption, as opposed to caller mistakes like an
    /// out-of-range address.
    fn is_corruption(error: &CcrpError) -> bool {
        matches!(
            error,
            CcrpError::Integrity { .. } | CcrpError::CrcMismatch { .. } | CcrpError::Compress(_)
        )
    }

    /// Refills the cache line holding CPU address `address` from `image`,
    /// starting at cycle `now`, degrading per the configured
    /// [`DegradePolicy`] when corruption is detected.
    ///
    /// # Errors
    ///
    /// [`CcrpError::AddressOutOfRange`] for addresses outside the
    /// program (never degraded — it is a caller mistake, not
    /// corruption); detected-corruption errors per the policy: the
    /// underlying [`CcrpError::Integrity`] / [`CcrpError::CrcMismatch`] /
    /// decode error under [`DegradePolicy::Abort`], or
    /// [`CcrpError::MachineCheck`] under [`DegradePolicy::Trap`] and
    /// under [`DegradePolicy::Retry`] once the budget is exhausted.
    pub fn refill(
        &mut self,
        image: &CompressedImage,
        address: u32,
        now: u64,
        memory: &mut dyn MemoryTiming,
    ) -> Result<RefillOutcome, CcrpError> {
        self.refill_probed(image, address, now, memory, &mut NullProbe)
    }

    /// [`refill`](Self::refill), reporting every step to `probe`:
    /// [`Event::RefillStart`]/[`Event::RefillDone`], the CLB probe
    /// outcome and any eviction, each memory burst, and any
    /// [`Event::IntegrityFailure`]/[`Event::RetryBackoff`] on the
    /// degradation path. The computation is identical — `refill` is this
    /// method with [`NullProbe`], which monomorphizes the emits away.
    ///
    /// # Errors
    ///
    /// As [`refill`](Self::refill).
    pub fn refill_probed<P: Probe>(
        &mut self,
        image: &CompressedImage,
        address: u32,
        now: u64,
        memory: &mut dyn MemoryTiming,
        probe: &mut P,
    ) -> Result<RefillOutcome, CcrpError> {
        // Locate the line once: every attempt reads the same layout, and
        // the retry path invalidates its CLB entry.
        let location = image.locate(address)?;
        probe.emit(now, Event::RefillStart { address });
        let max_retries = match self.policy {
            DegradePolicy::Retry { attempts } => attempts,
            _ => 0,
        };
        let mut retries = 0u32;
        let mut carried_bytes = 0u32;
        let mut start = now;
        loop {
            let mut progress = AttemptProgress {
                time: start,
                bytes: 0,
                clb_hit: false,
                bypass: false,
            };
            match self.refill_attempt(image, address, &location, memory, &mut progress, probe) {
                Ok(ready_at) => {
                    let outcome = RefillOutcome {
                        ready_at,
                        bytes_fetched: carried_bytes + progress.bytes,
                        clb_hit: retries == 0 && progress.clb_hit,
                        bypass: progress.bypass,
                        retries,
                    };
                    probe.emit(
                        ready_at,
                        Event::RefillDone {
                            address,
                            cycles: ready_at.saturating_sub(now),
                            bytes: outcome.bytes_fetched,
                            clb_hit: outcome.clb_hit,
                            bypass: outcome.bypass,
                            retries,
                        },
                    );
                    return Ok(outcome);
                }
                Err(e) if Self::is_corruption(&e) => {
                    probe.emit(progress.time, Event::IntegrityFailure { address });
                    match self.policy {
                        DegradePolicy::Abort => return Err(e),
                        DegradePolicy::Trap => return Err(CcrpError::MachineCheck { address }),
                        DegradePolicy::Retry { .. } => {
                            if retries >= max_retries {
                                return Err(CcrpError::MachineCheck { address });
                            }
                            carried_bytes += progress.bytes;
                            // A corrupt LAT entry cached in the CLB would make
                            // every re-read fail identically; force a fresh
                            // in-memory LAT read, then back off exponentially.
                            self.clb.invalidate(location.lat_index);
                            let backoff_cycles = 1u64 << retries.min(16);
                            probe.emit(
                                progress.time,
                                Event::RetryBackoff {
                                    address,
                                    attempt: retries + 1,
                                    backoff_cycles,
                                },
                            );
                            start = progress.time + backoff_cycles;
                            retries += 1;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`refill`](Self::refill) for a line the caller has located, with
    /// the CLB outcome the caller supplies instead of this engine's CLB.
    /// On a CLB miss the LAT entry is read from memory first; either way
    /// the entry is the image's own. The steps after the CLB are the ones
    /// every refill takes, and a detected corruption maps through the
    /// policy: [`DegradePolicy::Abort`] returns it, the others
    /// [`CcrpError::MachineCheck`]. The engine's CLB and statistics are
    /// neither read nor changed.
    ///
    /// This is how the sweep kernel times one configuration's misses
    /// from a CLB outcome taken once per cache size, and it times them
    /// exactly as `refill` would:
    ///
    /// * the image is borrowed immutably and each sweep pass starts a
    ///   fresh engine, so the CLB only ever caches entries read from the
    ///   image's own LAT, which this method reads too;
    /// * every successful refill is therefore a first attempt;
    /// * the first detected corruption ends the run: `Abort` returns the
    ///   error, `Trap` a machine check, and `Retry` a machine check too,
    ///   because re-reading an immutable image fails the same way every
    ///   time;
    /// * so up to a run's first failing miss, its CLB outcomes depend
    ///   only on the cache size and the CLB capacity.
    ///
    /// # Errors
    ///
    /// As [`refill`](Self::refill), except that `Retry` never retries.
    pub fn refill_located(
        &self,
        image: &CompressedImage,
        address: u32,
        location: &LineLocation,
        clb_hit: bool,
        now: u64,
        memory: &mut dyn MemoryTiming,
    ) -> Result<RefillOutcome, CcrpError> {
        let mut progress = AttemptProgress {
            time: now,
            bytes: 0,
            clb_hit,
            bypass: location.bypass,
        };
        let entry = if clb_hit {
            lat_entry(image, location, address)
        } else {
            read_lat_entry(
                image,
                location,
                address,
                memory,
                &mut progress,
                &mut NullProbe,
            )
        };
        let timed = entry.and_then(|entry| {
            self.time_block(
                image,
                address,
                location,
                &entry,
                memory,
                &mut progress,
                &mut NullProbe,
            )
        });
        match timed {
            Ok(ready_at) => Ok(RefillOutcome {
                ready_at,
                bytes_fetched: progress.bytes,
                clb_hit,
                bypass: location.bypass,
                retries: 0,
            }),
            Err(e) if Self::is_corruption(&e) && self.policy != DegradePolicy::Abort => {
                Err(CcrpError::MachineCheck { address })
            }
            Err(e) => Err(e),
        }
    }

    /// One refill attempt of the line at `location`, starting at
    /// `progress.time`: the CLB step (a probe, or on a miss the LAT read
    /// and an insert), then [`time_block`](Self::time_block). Updates
    /// `progress` as it goes so a failure mid-attempt still reports cost.
    fn refill_attempt<P: Probe>(
        &mut self,
        image: &CompressedImage,
        address: u32,
        location: &LineLocation,
        memory: &mut dyn MemoryTiming,
        progress: &mut AttemptProgress,
        probe: &mut P,
    ) -> Result<u64, CcrpError> {
        progress.bypass = location.bypass;
        let now = progress.time;
        let lat_index = location.lat_index;
        let entry = match self.clb.probe(lat_index) {
            Some(entry) => {
                progress.clb_hit = true;
                probe.emit(now, Event::ClbHit { lat_index });
                entry
            }
            None => {
                probe.emit(now, Event::ClbMiss { lat_index });
                let entry = read_lat_entry(image, location, address, memory, progress, probe)?;
                if let Some(evicted) = self.clb.insert(lat_index, entry) {
                    probe.emit(progress.time, Event::ClbEvict { lat_index: evicted });
                }
                entry
            }
        };
        self.time_block(image, address, location, &entry, memory, progress, probe)
    }

    /// The refill steps after the CLB, shared by every refill: cross-check
    /// `entry` against the image layout, burst the block from
    /// `progress.time`, and time its decode. Fast integrity reads the
    /// thresholds the image precomputed; Full decodes the stored block
    /// and recomputes them from the bytes it produced. Returns the cycle
    /// the line is in the cache.
    #[allow(clippy::too_many_arguments)]
    fn time_block<P: Probe>(
        &self,
        image: &CompressedImage,
        address: u32,
        location: &LineLocation,
        entry: &LatEntry,
        memory: &mut dyn MemoryTiming,
        progress: &mut AttemptProgress,
        probe: &mut P,
    ) -> Result<u64, CcrpError> {
        // Cross-check the (possibly stale or corrupt) table entry against
        // the image layout before trusting its pointer on the bus. A
        // caller-made location may name a slot the entry does not have.
        let slot = location.line_in_entry as usize;
        if slot >= RECORDS_PER_ENTRY
            || entry.block_address(slot) != location.physical
            || entry.block_length(slot) != location.stored_len
            || entry.is_uncompressed(slot) != location.bypass
        {
            return Err(CcrpError::Integrity {
                what: "LAT entry disagrees with the image layout",
                address,
            });
        }

        let start = progress.time;
        let words = block_words(location.physical, location.stored_len);
        let burst = memory.read_burst(words, start);
        progress.bytes += words * 4;
        let last_arrival = burst.last(words);
        probe.emit(
            start,
            Event::MemoryBurst {
                words,
                done: last_arrival,
            },
        );
        progress.time = progress.time.max(last_arrival);

        // Expansion buffer for the Full-integrity decode: stack-only,
        // so the per-refill hot path never heap-allocates.
        let mut line_buf = [0u8; LINE_SIZE as usize];
        let ready_at = if location.bypass {
            // Raw line: bytes go straight to the cache as they arrive;
            // the decoder (and its lookup table) is never consulted.
            if matches!(self.integrity, IntegrityCheck::Full) {
                // CRC the stored bytes when the image carries records.
                image.expand_located_into(location, address, &mut line_buf)?;
            }
            last_arrival
        } else {
            let rate = image.codec().cost().effective_rate(self.decode_rate);
            let thresholds = match self.integrity {
                // Timing oracle: the thresholds the image computed from
                // the original bytes, which stand in for the decoder
                // output (bit-exact for an uncorrupted image).
                IntegrityCheck::Fast => image.word_thresholds(location, address)?,
                // Actually run the decoder (surfacing CRC and decode
                // errors) and time the bytes it really produced.
                IntegrityCheck::Full => {
                    image.expand_located_into(location, address, &mut line_buf)?;
                    WordThresholds::of(
                        image.codec(),
                        &line_buf,
                        location.physical,
                        location.stored_len,
                    )
                }
            };
            thresholds.completion(rate, burst, start)
        };
        progress.time = progress.time.max(ready_at);
        Ok(ready_at)
    }
}

/// The image's own LAT entry for the line at `location`.
fn lat_entry(
    image: &CompressedImage,
    location: &LineLocation,
    address: u32,
) -> Result<LatEntry, CcrpError> {
    image
        .lat()
        .entry(location.lat_index)
        .copied()
        .ok_or(CcrpError::Integrity {
            what: "LAT shorter than the program",
            address,
        })
}

/// The CLB-miss step: reads the line's 8-byte LAT entry (2 words) from
/// instruction memory at `progress.time`, before the block fetch can be
/// addressed, and charges it to `progress`.
fn read_lat_entry<P: Probe>(
    image: &CompressedImage,
    location: &LineLocation,
    address: u32,
    memory: &mut dyn MemoryTiming,
    progress: &mut AttemptProgress,
    probe: &mut P,
) -> Result<LatEntry, CcrpError> {
    let now = progress.time;
    let done = memory.read_burst(2, now).last(2);
    probe.emit(now, Event::MemoryBurst { words: 2, done });
    progress.time = done;
    progress.bytes += 8;
    lat_entry(image, location, address)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use ccrp_compress::{
        BlockAlignment, ByteCode, ByteHistogram, LzwLineCodec, PositionalCode, PositionalHistogram,
    };

    /// Memory that delivers the first word after `first` cycles and one
    /// word per cycle after (burst-EPROM-like), counting calls.
    struct TestMemory {
        first: u64,
        calls: Vec<(u32, u64)>,
    }

    impl TestMemory {
        fn new(first: u64) -> Self {
            Self {
                first,
                calls: Vec::new(),
            }
        }
    }

    impl MemoryTiming for TestMemory {
        fn read_burst(&mut self, words: u32, now: u64) -> Burst {
            self.calls.push((words, now));
            Burst {
                first: now + self.first,
                interval: 1,
            }
        }
    }

    /// The thresholds of `image`'s line at `address`, computed afresh.
    fn thresholds(image: &CompressedImage, address: u32) -> WordThresholds {
        let location = image.locate(address).unwrap();
        WordThresholds::of(
            image.codec(),
            image.original_line(address).unwrap(),
            location.physical,
            location.stored_len,
        )
    }

    fn test_image(len: usize) -> CompressedImage {
        let mut text = vec![0u8; len];
        for (i, b) in text.iter_mut().enumerate() {
            *b = match i % 4 {
                0 => (i / 7) as u8,
                1 => 0,
                2 => 0x3C,
                _ => 0x24,
            };
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap()
    }

    #[test]
    fn decode_floor_is_16_cycles() {
        // With all input available instantly, a 2 B/cycle decoder takes
        // exactly 16 cycles past the start.
        let image = test_image(256);
        let instant = Burst {
            first: 0,
            interval: 0,
        };
        let done = thresholds(&image, 0).completion(2, instant, 0);
        assert_eq!(done, 16);
    }

    #[test]
    fn decoder_stalls_on_slow_memory() {
        // One word per 3 cycles (EPROM-like): input arrives at
        // 1.33 B/cycle < 2 B/cycle decode, so memory dominates.
        let image = test_image(256);
        let loc = image.locate(0).unwrap();
        let words = loc.stored_len.div_ceil(4);
        let eprom = Burst {
            first: 3,
            interval: 3,
        };
        let done = thresholds(&image, 0).completion(2, eprom, 0);
        let last = eprom.last(words);
        assert!(done > last, "decoder cannot finish before data arrives");
        assert!(done <= last + 16, "at most one full decode pipeline behind");
    }

    /// The decode timing straight from the codec's bit profile and every
    /// word's arrival cycle, folded one output group at a time — the
    /// computation the closed form replaced, kept as its oracle.
    fn profile_completion(
        codec: &dyn LineCodec,
        line: &[u8],
        byte_offset: u32,
        arrivals: &[u64],
        rate: u32,
        start: u64,
    ) -> u64 {
        let rate = codec.cost().effective_rate(rate) as usize;
        let mut profile = [0u64; 32];
        codec.bit_profile(line, &mut profile);
        let (mut t, mut index) = (start, 0);
        while index < line.len() {
            let group_end = (index + rate).min(line.len());
            let last_input_byte = (profile[group_end - 1].max(1) - 1) / 8;
            let word = (u64::from(byte_offset) + last_input_byte) / 4;
            t = t.max(arrivals[(word as usize).min(arrivals.len() - 1)]) + 1;
            index = group_end;
        }
        t
    }

    #[test]
    fn schedules_time_refills_exactly_like_the_bit_profile() {
        // Every codec, both alignments (byte-aligned blocks start
        // mid-word, and the thresholds fold that offset in), rates that
        // do and do not divide the line, word intervals 1 and 3, and
        // decodes starting before, at and after the first word arrives:
        // the closed form over the image's precomputed thresholds times
        // each compressed line exactly as folding its bit profile does.
        let text: Vec<u8> = (0..4096u32)
            .map(|i| match i % 4 {
                0 => (i / 7 * 37 % 251) as u8,
                1 => (i / 64) as u8 & 3,
                2 => 0x3C,
                _ => 0x24,
            })
            .collect();
        let codecs: [Arc<dyn LineCodec>; 3] = [
            Arc::new(ByteCode::preselected(&ByteHistogram::of(&text)).unwrap()),
            Arc::new(PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap()),
            Arc::new(LzwLineCodec),
        ];
        let bursts = [1, 3].map(|interval| Burst { first: 9, interval });
        let (mut mid_word, mut cases) = (0, 0);
        for codec in codecs {
            for alignment in [BlockAlignment::Word, BlockAlignment::Byte] {
                let image =
                    CompressedImage::build_with_codec(0, &text, Arc::clone(&codec), alignment)
                        .unwrap();
                for address in (0..image.original_bytes()).step_by(32) {
                    let location = image.locate(address).unwrap();
                    if location.bypass {
                        continue;
                    }
                    let words = block_words(location.physical, location.stored_len);
                    let thresholds = image.word_thresholds(&location, address).unwrap();
                    assert_eq!(thresholds, self::thresholds(&image, address));
                    for burst in bursts {
                        let arrivals: Vec<u64> = (0..words).map(|i| burst.arrival(i)).collect();
                        for start in [0, 5, 9, 14, 40] {
                            for rate in [1, 2, 3, 4, 8, 64] {
                                let effective = codec.cost().effective_rate(rate);
                                assert_eq!(
                                    thresholds.completion(effective, burst, start),
                                    profile_completion(
                                        codec.as_ref(),
                                        image.original_line(address).unwrap(),
                                        location.physical % 4,
                                        &arrivals,
                                        rate,
                                        start,
                                    ),
                                    "{:?} {alignment:?} line {address:#x} {burst:?} \
                                     start {start} rate {rate}",
                                    codec.id()
                                );
                                cases += 1;
                            }
                        }
                    }
                    if !location.physical.is_multiple_of(4) {
                        mid_word += 1;
                    }
                }
            }
        }
        assert!(mid_word > 0, "byte alignment puts blocks mid-word");
        assert!(cases > 10_000, "{cases} cases");
    }

    #[test]
    fn clb_hit_skips_lat_read() {
        let image = test_image(512);
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);

        let miss = engine.refill(&image, 0x00, 0, &mut mem).unwrap();
        assert!(!miss.clb_hit);
        // First call reads the 2-word LAT entry.
        assert_eq!(mem.calls[0].0, 2);
        assert_eq!(miss.bytes_fetched % 4, 0);
        assert!(miss.bytes_fetched >= 8);

        // Line 1 shares LAT entry 0 -> CLB hit, only the block is read.
        let hit = engine.refill(&image, 0x20, 100, &mut mem).unwrap();
        assert!(hit.clb_hit);
        assert_eq!(mem.calls.len(), 3);
        assert!(hit.bytes_fetched < miss.bytes_fetched);
        assert_eq!(engine.clb_stats().hits, 1);
        assert_eq!(engine.clb_stats().misses, 1);
    }

    #[test]
    fn compressed_refill_beats_standard_on_slow_memory() {
        // EPROM-like: 3 cycles per word, no burst advantage. A standard
        // refill is 8 words = 24 cycles. The compressed block is fewer
        // words; even with the decode pipe it should win.
        struct Eprom;
        impl MemoryTiming for Eprom {
            fn read_burst(&mut self, _words: u32, now: u64) -> Burst {
                Burst {
                    first: now + 3,
                    interval: 3,
                }
            }
        }
        let image = test_image(256);
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        // Warm the CLB so we compare pure line refills.
        let mut mem = Eprom;
        engine.refill(&image, 0, 0, &mut mem).unwrap();
        let outcome = engine.refill(&image, 0, 0, &mut mem).unwrap();
        assert!(outcome.clb_hit);
        let standard_cycles = 24;
        assert!(
            outcome.ready_at < standard_cycles,
            "compressed refill took {} cycles",
            outcome.ready_at
        );
    }

    #[test]
    fn bypass_refills_like_standard() {
        // Build an image whose lines cannot compress (uniform random
        // bytes against a hostile code).
        let mut text = vec![0u8; 256];
        let mut x = 123u32;
        for b in &mut text {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            *b = (x >> 17) as u8;
        }
        // Code trained on completely different, highly skewed data.
        let code = ByteCode::preselected(&ByteHistogram::of(&vec![0u8; 4096])).unwrap();
        let image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        assert!(image.bypass_count() > 0, "expected bypassed lines");
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);
        engine.refill(&image, 0, 0, &mut mem).unwrap();
        let outcome = engine.refill(&image, 0, 0, &mut mem).unwrap();
        assert!(outcome.bypass);
        // 8 words, first at 3, then one per cycle -> ready at 10.
        assert_eq!(outcome.ready_at, 10);
        assert_eq!(outcome.bytes_fetched, 32);
    }

    #[test]
    fn bypass_lines_never_consult_the_decoder() {
        // Hostile construction: random text against a code trained on
        // all-zero data, so most lines bypass and their stored bytes are
        // the raw program bytes — garbage *as a Huffman stream* for this
        // image's code. If any path (including Full integrity, which
        // decodes stored blocks) ran bypass bytes through the decode
        // table or the bit-walk, these refills would surface decode
        // errors or wrong bytes; instead every line must expand back to
        // the original text by raw copy.
        let mut text = vec![0u8; 256];
        let mut x = 123u32;
        for b in &mut text {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            *b = (x >> 17) as u8;
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&vec![0u8; 4096])).unwrap();
        let image = CompressedImage::build(0, &text, code.clone(), BlockAlignment::Word).unwrap();
        assert!(image.bypass_count() > 0, "expected bypassed lines");

        let mut engine = RefillEngine::new(RefillConfig {
            integrity: IntegrityCheck::Full,
            ..RefillConfig::default()
        })
        .unwrap();
        let mut mem = TestMemory::new(1);
        let mut bypass_seen = 0usize;
        for line in 0..image.line_count() {
            let address = line as u32 * LINE_SIZE;
            let outcome = engine.refill(&image, address, 0, &mut mem).unwrap();
            let chunk = &text[line * LINE_SIZE as usize..][..LINE_SIZE as usize];
            assert_eq!(image.expand_line(address).unwrap().as_slice(), chunk);
            if outcome.bypass {
                bypass_seen += 1;
                // The stored bytes of a bypassed line are the raw text
                // bytes; prove they are NOT decodable as this code's
                // Huffman stream, so the successful refill above can
                // only have come from the raw-copy path.
                let mut decoded = [0u8; LINE_SIZE as usize];
                let decodes = code.decode_into(chunk, &mut decoded).is_ok();
                assert!(
                    !decodes || decoded != chunk,
                    "line {line}: bypass bytes happen to self-decode; \
                     pick a different corpus seed"
                );
            }
        }
        assert_eq!(bypass_seen, image.bypass_count());
    }

    #[test]
    fn out_of_range_is_error() {
        let image = test_image(64);
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(1);
        assert!(matches!(
            engine.refill(&image, 0x1000, 0, &mut mem),
            Err(CcrpError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_decode_rate_rejected() {
        assert!(RefillEngine::new(RefillConfig {
            clb_entries: 4,
            decode_bytes_per_cycle: 0,
            ..RefillConfig::default()
        })
        .is_err());
    }

    /// A LAT length record that disagrees with line 0's real stored size.
    fn lat_lie(image: &CompressedImage) -> u32 {
        if image.locate(0).unwrap().stored_len == 32 {
            31
        } else {
            32
        }
    }

    #[test]
    fn abort_surfaces_lat_corruption() {
        let mut image = test_image(512);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);
        assert!(matches!(
            engine.refill(&image, 0, 0, &mut mem),
            Err(CcrpError::Integrity { .. })
        ));
        // Lines in other LAT entries are unaffected.
        assert!(engine.refill(&image, 0x100, 0, &mut mem).is_ok());
    }

    #[test]
    fn trap_escalates_to_machine_check() {
        let mut image = test_image(512);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let mut engine = RefillEngine::new(RefillConfig {
            policy: DegradePolicy::Trap,
            ..RefillConfig::default()
        })
        .unwrap();
        let mut mem = TestMemory::new(3);
        assert!(matches!(
            engine.refill(&image, 0, 0, &mut mem),
            Err(CcrpError::MachineCheck { address: 0 })
        ));
        // Out-of-range addresses are caller mistakes, never trapped.
        assert!(matches!(
            engine.refill(&image, 0x4000, 0, &mut mem),
            Err(CcrpError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn retry_exhausts_with_backoff_charged_to_memory() {
        let mut image = test_image(512);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let mut engine = RefillEngine::new(RefillConfig {
            policy: DegradePolicy::Retry { attempts: 2 },
            ..RefillConfig::default()
        })
        .unwrap();
        let mut mem = TestMemory::new(3);
        assert!(matches!(
            engine.refill(&image, 0, 0, &mut mem),
            Err(CcrpError::MachineCheck { address: 0 })
        ));
        // Three attempts, each a fresh 2-word LAT read (the CLB entry is
        // invalidated between tries), at strictly increasing cycles.
        assert_eq!(mem.calls.len(), 3);
        for call in &mem.calls {
            assert_eq!(call.0, 2);
        }
        assert!(mem.calls[0].1 < mem.calls[1].1);
        assert!(mem.calls[1].1 < mem.calls[2].1);
    }

    #[test]
    fn retry_recovers_from_stale_clb_entry() {
        let mut image = test_image(512);
        let truth = image.locate(0).unwrap().stored_len;
        let lie = lat_lie(&image);
        let mut engine = RefillEngine::new(RefillConfig {
            policy: DegradePolicy::Retry { attempts: 1 },
            ..RefillConfig::default()
        })
        .unwrap();
        let mut mem = TestMemory::new(3);
        // Corrupt refill fails and leaves the bad entry cached in the CLB.
        image.corrupt_lat_length(0, lie).unwrap();
        assert!(engine.refill(&image, 0, 0, &mut mem).is_err());
        // Repair the table: the next refill hits the stale CLB entry,
        // fails its cross-check, invalidates, re-reads the now-correct
        // LAT, and succeeds — the transient-upset recovery story.
        image.corrupt_lat_length(0, truth).unwrap();
        let outcome = engine.refill(&image, 0, 100, &mut mem).unwrap();
        assert_eq!(outcome.retries, 1);
        assert!(!outcome.clb_hit);
        assert!(outcome.ready_at > 100);
    }

    #[test]
    fn located_refills_time_like_the_stateful_engine() {
        // 18 LAT entries through a 4-entry CLB: hits, misses and
        // evictions. Handed the CLB outcome the stateful engine met,
        // `refill_located` returns its outcome and makes its bursts.
        let image = test_image(18 * 256);
        for integrity in [IntegrityCheck::Fast, IntegrityCheck::Full] {
            let config = RefillConfig {
                clb_entries: 4,
                integrity,
                ..RefillConfig::default()
            };
            let mut stateful = RefillEngine::new(config).unwrap();
            let located = RefillEngine::new(config).unwrap();
            let (mut hits, mut now, mut x) = (0, 0, 1u32);
            for step in 0..200u32 {
                // Mostly a working set of 5 entries, now and then any.
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                let entry = (x >> 16) % if x & 0x300 == 0 { 18 } else { 5 };
                let address = entry * 256 + (x >> 8) % 8 * 32;
                let (mut m1, mut m2) = (TestMemory::new(3), TestMemory::new(3));
                let expected = stateful.refill(&image, address, now, &mut m1).unwrap();
                let location = image.locate(address).unwrap();
                let outcome = located
                    .refill_located(&image, address, &location, expected.clb_hit, now, &mut m2)
                    .unwrap();
                assert_eq!(outcome, expected, "{integrity:?} step {step}");
                assert_eq!(m1.calls, m2.calls, "{integrity:?} step {step}");
                hits += u64::from(expected.clb_hit);
                now = expected.ready_at + 5;
            }
            assert_eq!(stateful.clb_stats().hits, hits);
            assert!(hits > 0 && hits < 200, "{hits} hits");
            assert_eq!(
                located.clb_stats(),
                ClbStats::default(),
                "its CLB is untouched"
            );
        }

        // A corrupt LAT entry fails a first attempt the way the stateful
        // engine's whole refill fails, under every policy.
        let mut image = test_image(512);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let location = image.locate(0).unwrap();
        for policy in [
            DegradePolicy::Abort,
            DegradePolicy::Trap,
            DegradePolicy::Retry { attempts: 2 },
        ] {
            let config = RefillConfig {
                policy,
                ..RefillConfig::default()
            };
            let mut stateful = RefillEngine::new(config).unwrap();
            let located = RefillEngine::new(config).unwrap();
            let expected = stateful.refill(&image, 0, 0, &mut TestMemory::new(3));
            assert!(expected.is_err(), "{policy:?}");
            for clb_hit in [false, true] {
                let outcome = located.refill_located(
                    &image,
                    0,
                    &location,
                    clb_hit,
                    0,
                    &mut TestMemory::new(3),
                );
                assert_eq!(outcome, expected, "{policy:?}, CLB hit {clb_hit}");
            }
        }
    }

    #[test]
    fn located_refill_rejects_a_slot_past_the_entry() {
        let image = test_image(512);
        let location = LineLocation {
            line_in_entry: 8,
            ..image.locate(0).unwrap()
        };
        for policy in [
            DegradePolicy::Abort,
            DegradePolicy::Trap,
            DegradePolicy::Retry { attempts: 2 },
        ] {
            let engine = RefillEngine::new(RefillConfig {
                policy,
                ..RefillConfig::default()
            })
            .unwrap();
            for clb_hit in [false, true] {
                let outcome = engine.refill_located(
                    &image,
                    0,
                    &location,
                    clb_hit,
                    0,
                    &mut TestMemory::new(3),
                );
                let expected = match policy {
                    DegradePolicy::Abort => CcrpError::Integrity {
                        what: "LAT entry disagrees with the image layout",
                        address: 0,
                    },
                    _ => CcrpError::MachineCheck { address: 0 },
                };
                assert_eq!(outcome, Err(expected), "{policy:?}, CLB hit {clb_hit}");
            }
        }
    }

    #[test]
    fn corrupt_lat_entry_survives_clb_eviction() {
        // 18 LAT entries: enough other entries to evict entry 0 from a
        // 16-entry CLB through pure LRU pressure.
        let mut image = test_image(18 * 256);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);

        // Miss path: the LAT read caches the corrupt entry, then the
        // cross-check rejects it.
        let first = engine.refill(&image, 0, 0, &mut mem).unwrap_err();
        assert!(matches!(first, CcrpError::Integrity { .. }));
        assert_eq!(mem.calls.len(), 1, "one LAT read, no block fetch");

        // Hit path: the cached corrupt entry fails identically, without
        // touching memory at all.
        mem.calls.clear();
        let cached = engine.refill(&image, 0, 0, &mut mem).unwrap_err();
        assert_eq!(cached, first);
        assert!(mem.calls.is_empty(), "CLB hit needs no memory traffic");

        // Evict entry 0 by refilling one line in each of 16 other
        // entries, then re-fetch: the fresh LAT read surfaces the same
        // error again — eviction neither masks nor mutates it.
        for entry in 1..=16u32 {
            engine.refill(&image, entry * 256, 0, &mut mem).unwrap();
        }
        mem.calls.clear();
        let refetched = engine.refill(&image, 0, 0, &mut mem).unwrap_err();
        assert_eq!(refetched, first);
        assert_eq!(mem.calls.len(), 1, "evicted entry forces a LAT re-read");
    }

    #[test]
    fn full_integrity_detects_block_corruption_fast_does_not() {
        let pristine = test_image(512);
        // Find a compressed (non-bypass) line and flip a bit mid-block.
        let target = (0..pristine.line_count())
            .find(|&l| !pristine.locate(l as u32 * 32).unwrap().bypass)
            .expect("some line compresses");
        let mut image = pristine.clone();
        image.attach_block_crcs();
        image.corrupt_block_byte(target, 0, 0x10).unwrap();
        let address = target as u32 * 32;

        let mut fast = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);
        // Fast never touches the stored bytes: the LAT still matches the
        // layout, so the corruption sails through (the timing oracle uses
        // the original bytes) — this is exactly the silent-miscompare
        // window the Full check closes.
        assert!(fast.refill(&image, address, 0, &mut mem).is_ok());

        let mut full = RefillEngine::new(RefillConfig {
            integrity: IntegrityCheck::Full,
            ..RefillConfig::default()
        })
        .unwrap();
        let err = full.refill(&image, address, 0, &mut mem).unwrap_err();
        assert!(
            matches!(err, CcrpError::CrcMismatch { .. } | CcrpError::Compress(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn full_integrity_timing_matches_fast_on_pristine_image() {
        let image = test_image(512);
        let mut fast = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut full = RefillEngine::new(RefillConfig {
            integrity: IntegrityCheck::Full,
            ..RefillConfig::default()
        })
        .unwrap();
        for addr in (0..512).step_by(32) {
            let mut m1 = TestMemory::new(3);
            let mut m2 = TestMemory::new(3);
            let a = fast.refill(&image, addr, 0, &mut m1).unwrap();
            let b = full.refill(&image, addr, 0, &mut m2).unwrap();
            assert_eq!(a, b, "addr {addr:#x}");
        }
    }

    #[test]
    fn probed_refill_matches_plain_and_emits_events() {
        use ccrp_probe::EventLog;

        let image = test_image(512);
        let mut plain = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut probed = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut log = EventLog::new();
        for addr in (0..512).step_by(32) {
            let mut m1 = TestMemory::new(3);
            let mut m2 = TestMemory::new(3);
            let a = plain.refill(&image, addr, 0, &mut m1).unwrap();
            let b = probed
                .refill_probed(&image, addr, 0, &mut m2, &mut log)
                .unwrap();
            assert_eq!(a, b, "addr {addr:#x}");
            assert_eq!(m1.calls, m2.calls, "addr {addr:#x}");
        }
        // 16 refills: each has a start, a CLB probe outcome, at least one
        // memory burst, and a completion.
        let count = |kind: &str| {
            log.events()
                .iter()
                .filter(|e| e.event.kind() == kind)
                .count()
        };
        assert_eq!(count("refill_start"), 16);
        assert_eq!(count("refill"), 16);
        assert_eq!(count("clb_hit") + count("clb_miss"), 16);
        assert!(count("memory_burst") >= 16);
        // RefillDone stamps carry the outcome's latency.
        for e in log.events() {
            if let Event::RefillDone { cycles, .. } = e.event {
                assert_eq!(e.cycle, cycles, "start was cycle 0");
            }
        }
    }

    #[test]
    fn probed_refill_reports_eviction_and_retry_events() {
        use ccrp_probe::EventLog;

        // 18 LAT entries through a 16-entry CLB forces evictions.
        let image = test_image(18 * 256);
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut mem = TestMemory::new(3);
        let mut log = EventLog::new();
        for entry in 0..18u32 {
            engine
                .refill_probed(&image, entry * 256, 0, &mut mem, &mut log)
                .unwrap();
        }
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::ClbEvict { .. })));

        // A corrupt LAT entry under Retry emits failure + backoff pairs.
        let mut image = test_image(512);
        image.corrupt_lat_length(0, lat_lie(&image)).unwrap();
        let mut engine = RefillEngine::new(RefillConfig {
            policy: DegradePolicy::Retry { attempts: 2 },
            ..RefillConfig::default()
        })
        .unwrap();
        let mut log = EventLog::new();
        assert!(engine
            .refill_probed(&image, 0, 0, &mut mem, &mut log)
            .is_err());
        let failures = log
            .events()
            .iter()
            .filter(|e| matches!(e.event, Event::IntegrityFailure { .. }))
            .count();
        let backoffs: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::RetryBackoff {
                    attempt,
                    backoff_cycles,
                    ..
                } => Some((attempt, backoff_cycles)),
                _ => None,
            })
            .collect();
        assert_eq!(failures, 3, "initial try + 2 retries all fail");
        assert_eq!(backoffs, vec![(1, 1), (2, 2)], "exponential backoff");
    }

    #[test]
    fn faster_decoder_is_never_slower() {
        let image = test_image(512);
        let eprom = Burst {
            first: 3,
            interval: 3,
        };
        for addr in (0..512).step_by(32) {
            let thresholds = thresholds(&image, addr);
            let d2 = thresholds.completion(2, eprom, 0);
            let d4 = thresholds.completion(4, eprom, 0);
            let d1 = thresholds.completion(1, eprom, 0);
            assert!(d4 <= d2, "4 B/cy must not lose to 2 B/cy");
            assert!(d2 <= d1, "2 B/cy must not lose to 1 B/cy");
        }
    }
}
