//! Pluggable per-line codecs behind the [`LineCodec`] trait.
//!
//! The paper hardwires one decoder — the preselected byte-Huffman code
//! of §2.2 — but §5 proposes "more sophisticated encoding techniques in
//! addition to the block based Huffman coding". This module makes the
//! line codec a first-class axis: anything that can expand one 32-byte
//! cache line from its stored bytes, and that can state its hardware
//! cost (decoder table bits, sustainable expansion rate), can sit
//! behind the refill engine.
//!
//! Three implementations ship:
//!
//! * [`ByteCode`] — the paper's preselected bounded byte-Huffman code
//!   (the default; containers produced before codecs existed decode as
//!   this one). Its lookup-table fast path is untouched.
//! * [`PositionalCode`] — four byte-Huffman sub-codes selected by
//!   `offset mod 4`, exploiting MIPS field structure (§5 extension).
//! * [`LzwLineCodec`] — per-line bounded LZW derived from the
//!   `compress(1)`-style coder in [`crate::lzw`]. Each line is coded
//!   with a fresh dictionary, so any line can still be expanded
//!   independently — but the dictionary never warms up, which is
//!   exactly the paper's argument for why file-based LZW loses to
//!   per-block Huffman on random line access.
//!
//! Every codec also models its decoder hardware: how many bits of table
//! storage the decoder needs and how many output bytes per cycle it can
//! sustain. The refill engine charges the modeled expansion rate, so a
//! serial decoder (LZW's dictionary chase) pays higher refill latency
//! than the parallel Huffman tables — the ratio-vs-latency frontier the
//! codec sweep reports.

use std::fmt;
use std::sync::Arc;

use ccrp_bitstream::{BitReader, BitWriter};

use crate::block::LINE_SIZE;
use crate::code::{decode_line, ByteCode};
use crate::error::CompressError;
use crate::positional::{PositionalCode, POSITIONS};

/// Dictionary codes below this are literal bytes (shared with
/// [`crate::lzw`]'s stream format).
const FIRST_FREE: u32 = 257;
/// The `compress(1)` CLEAR code. A per-line stream never emits it (the
/// dictionary cannot fill within one line), so the decoder rejects it.
const CLEAR: u32 = 256;
/// Per-line streams never outgrow 9-bit codes: a 32-byte line creates at
/// most 31 dictionary entries, so the largest code is `257 + 30 < 512`.
const LINE_WIDTH: u32 = 9;

/// Identifies a line codec on the wire — stored in container header
/// byte 7, which every pre-codec container wrote as zero. That makes
/// zero the byte-Huffman default and keeps old images loadable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// The paper's preselected bounded byte-Huffman code (the default).
    ByteHuffman = 0,
    /// Positional Huffman: four sub-codes selected by `offset mod 4`.
    Positional = 1,
    /// Per-line bounded LZW with a fresh dictionary per line.
    Lzw = 2,
}

impl CodecId {
    /// All codec identifiers, in wire order.
    pub const ALL: [CodecId; 3] = [CodecId::ByteHuffman, CodecId::Positional, CodecId::Lzw];

    /// The wire byte (container header offset 7).
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte (`None` for unassigned values).
    pub fn from_byte(byte: u8) -> Option<CodecId> {
        match byte {
            0 => Some(CodecId::ByteHuffman),
            1 => Some(CodecId::Positional),
            2 => Some(CodecId::Lzw),
            _ => None,
        }
    }

    /// Stable report/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::ByteHuffman => "byte-huffman",
            CodecId::Positional => "positional",
            CodecId::Lzw => "lzw",
        }
    }

    /// Parses a report/CLI name.
    pub fn from_name(name: &str) -> Option<CodecId> {
        CodecId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Size in bytes of the codec-parameter section a container with
    /// this codec carries between the fixed header and the blocks:
    /// positional codes need three more 256-entry length tables beyond
    /// the one in the header's code-table slot; the other codecs need
    /// nothing extra.
    pub fn params_len(self) -> usize {
        match self {
            CodecId::ByteHuffman | CodecId::Lzw => 0,
            CodecId::Positional => (POSITIONS - 1) * 256,
        }
    }
}

impl fmt::Display for CodecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A codec's decoder-hardware cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecCost {
    /// Bits of decoder table/dictionary storage the hardware holds.
    pub table_bits: u64,
    /// The highest expansion rate (output bytes per cycle) the decoder
    /// can sustain regardless of provisioning; `None` when throughput
    /// scales with the configured decode rate (parallel table lookups).
    pub max_bytes_per_cycle: Option<u32>,
}

impl CodecCost {
    /// Clamps a configured decode rate to what this decoder sustains.
    pub fn effective_rate(&self, configured_bytes_per_cycle: u32) -> u32 {
        match self.max_bytes_per_cycle {
            Some(cap) => configured_bytes_per_cycle.min(cap).max(1),
            None => configured_bytes_per_cycle,
        }
    }
}

/// One pluggable line codec: compresses and expands single 32-byte
/// cache lines and models its decoder hardware.
///
/// The block layer ([`crate::block`]) handles the bypass special case —
/// a codec only ever sees lines it actually compressed. Implementations
/// must be deterministic: the same line must encode to the same bytes
/// on every call (the container round-trip and the jobs-independence
/// guarantees depend on it).
pub trait LineCodec: fmt::Debug + Send + Sync {
    /// This codec's wire identifier.
    fn id(&self) -> CodecId;

    /// Exact encoded size of `line` in bits (the compress-or-bypass
    /// decision input).
    fn encoded_bits(&self, line: &[u8]) -> u64;

    /// Appends the encoding of `line` to `writer`.
    fn encode_into(&self, line: &[u8], writer: &mut BitWriter);

    /// Expands `stored` into the caller-owned 32-byte buffer `out`.
    ///
    /// # Errors
    ///
    /// A [`CompressError`] on corrupt input; `out` then holds whatever
    /// was expanded before the failure.
    fn decode_into(&self, stored: &[u8], out: &mut [u8; LINE_SIZE]) -> Result<(), CompressError>;

    /// The decoder timing profile for `line`: entry `i` is the total
    /// number of compressed bits the decoder must have received before
    /// output byte `i` is available. The refill engine maps these bit
    /// positions onto memory-word arrival times. Only the first
    /// `line.len()` entries are written; the caller-owned array keeps
    /// this allocation-free on the refill hot path.
    fn bit_profile(&self, line: &[u8], cumulative_bits: &mut [u64; LINE_SIZE]);

    /// The decoder-hardware cost model.
    fn cost(&self) -> CodecCost;

    /// The 256-byte code-table section of the container header. Huffman
    /// codecs store canonical code lengths here; codecs without a byte
    /// table store zeros.
    fn header_table(&self) -> [u8; 256];

    /// Codec parameters serialized after the fixed header (must be
    /// exactly [`CodecId::params_len`] bytes for [`Self::id`]).
    fn extra_params(&self) -> Vec<u8>;

    /// Decoder table storage in bytes, as charged by the size
    /// accounting ([`CodecCost::table_bits`] rounded up).
    fn table_storage_bytes(&self) -> usize {
        (self.cost().table_bits as usize).div_ceil(8)
    }
}

impl LineCodec for ByteCode {
    fn id(&self) -> CodecId {
        CodecId::ByteHuffman
    }

    fn encoded_bits(&self, line: &[u8]) -> u64 {
        ByteCode::encoded_bits(self, line)
    }

    fn encode_into(&self, line: &[u8], writer: &mut BitWriter) {
        ByteCode::encode_into(self, line, writer);
    }

    fn decode_into(&self, stored: &[u8], out: &mut [u8; LINE_SIZE]) -> Result<(), CompressError> {
        decode_line(stored, out, |_| self)
    }

    fn bit_profile(&self, line: &[u8], cumulative_bits: &mut [u64; LINE_SIZE]) {
        let mut bits = 0u64;
        for (slot, &byte) in cumulative_bits.iter_mut().zip(line) {
            bits += u64::from(self.length_of(byte));
            *slot = bits;
        }
    }

    fn cost(&self) -> CodecCost {
        CodecCost {
            table_bits: u64::from(ByteCode::table_storage_bytes(self)) * 8,
            // The paper's decoder reads the canonical tables in
            // parallel; throughput is whatever the provisioned datapath
            // width gives (§3's 2-bytes-per-cycle default).
            max_bytes_per_cycle: None,
        }
    }

    fn header_table(&self) -> [u8; 256] {
        *self.lengths()
    }

    fn extra_params(&self) -> Vec<u8> {
        Vec::new()
    }
}

impl LineCodec for PositionalCode {
    fn id(&self) -> CodecId {
        CodecId::Positional
    }

    fn encoded_bits(&self, line: &[u8]) -> u64 {
        PositionalCode::encoded_bits(self, line)
    }

    fn encode_into(&self, line: &[u8], writer: &mut BitWriter) {
        PositionalCode::encode_into(self, line, writer);
    }

    fn decode_into(&self, stored: &[u8], out: &mut [u8; LINE_SIZE]) -> Result<(), CompressError> {
        decode_line(stored, out, |i| self.position(i))
    }

    fn bit_profile(&self, line: &[u8], cumulative_bits: &mut [u64; LINE_SIZE]) {
        let mut bits = 0u64;
        for (i, (slot, &byte)) in cumulative_bits.iter_mut().zip(line).enumerate() {
            bits += u64::from(self.length_of(byte, i));
            *slot = bits;
        }
    }

    fn cost(&self) -> CodecCost {
        let table_bits: u64 = (0..POSITIONS)
            .map(|p| u64::from(ByteCode::table_storage_bytes(self.position(p))) * 8)
            .sum();
        CodecCost {
            table_bits,
            // A fixed four-way mux in front of the same parallel table
            // hardware: throughput still scales with provisioning.
            max_bytes_per_cycle: None,
        }
    }

    fn header_table(&self) -> [u8; 256] {
        *self.position(0).lengths()
    }

    fn extra_params(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity((POSITIONS - 1) * 256);
        for p in 1..POSITIONS {
            out.extend_from_slice(self.position(p).lengths());
        }
        out
    }
}

/// Per-line bounded LZW: the `compress(1)`-style coder of [`crate::lzw`]
/// restarted with an empty dictionary on every 32-byte line, so the
/// refill engine can still expand any line independently. Codes are a
/// fixed 9 bits (the dictionary cannot outgrow them within one line)
/// and the CLEAR code is never emitted.
///
/// The codec is parameter-free: no tables travel in the container, and
/// two instances are interchangeable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LzwLineCodec;

impl LzwLineCodec {
    /// A per-line LZW codec (stateless).
    pub fn new() -> LzwLineCodec {
        LzwLineCodec
    }
}

/// The LZW encoder over one line ([`lzw_line_codes`]): yields each
/// emitted code with the number of input bytes it covers — the shared
/// core of [`LzwLineCodec`]'s size, stream, and timing views, run once
/// per view without allocating.
///
/// The dictionary is tiny (at most 31 entries for a 32-byte line), so a
/// linear scan over packed `code << 8 | byte` keys beats hashing. A
/// longer slice lies outside the codec's contract; the coder stays total
/// on it, adding no entry once its [`LINE_SIZE`] slots are full.
struct LzwCodes<'a> {
    /// The bytes not yet coded.
    rest: &'a [u8],
    /// Entry `i` is code `FIRST_FREE + i`: its prefix code and last byte.
    keys: [u32; LINE_SIZE],
    /// Entries in use.
    entries: usize,
}

/// The codes of `line` with the bytes each covers, starting from an
/// empty dictionary.
fn lzw_line_codes(line: &[u8]) -> LzwCodes<'_> {
    LzwCodes {
        rest: line,
        keys: [0; LINE_SIZE],
        entries: 0,
    }
}

impl Iterator for LzwCodes<'_> {
    type Item = (u32, usize);

    fn next(&mut self) -> Option<(u32, usize)> {
        let (&first, tail) = self.rest.split_first()?;
        let mut code = u32::from(first);
        let mut run = 1;
        for &byte in tail {
            let key = code << 8 | u32::from(byte);
            let known = self.keys.iter().take(self.entries).position(|&k| k == key);
            match known {
                Some(index) => {
                    code = FIRST_FREE + index as u32;
                    run += 1;
                }
                None => {
                    if let Some(slot) = self.keys.get_mut(self.entries) {
                        *slot = key;
                        self.entries += 1;
                    }
                    break;
                }
            }
        }
        self.rest = self.rest.get(run..).unwrap_or_default();
        Some((code, run))
    }
}

/// Walks one dictionary chain into `out[*filled..]`, returning the
/// phrase's first byte (the byte the KwKwK rule appends).
fn lzw_expand_into(
    dict: &[(u32, u8)],
    code: u32,
    out: &mut [u8; LINE_SIZE],
    filled: &mut usize,
) -> Result<u8, CompressError> {
    let mut phrase = [0u8; LINE_SIZE];
    let mut len = 0usize;
    let mut cursor = code;
    loop {
        if len >= LINE_SIZE {
            // A phrase longer than a line cannot come from a valid
            // per-line stream.
            return Err(CompressError::BadLzwCode { code });
        }
        if cursor < 256 {
            phrase[len] = cursor as u8;
            len += 1;
            break;
        }
        let index = (cursor - FIRST_FREE) as usize;
        let &(prefix, byte) = dict
            .get(index)
            .ok_or(CompressError::BadLzwCode { code: cursor })?;
        phrase[len] = byte;
        len += 1;
        cursor = prefix;
    }
    phrase[..len].reverse();
    if *filled + len > out.len() {
        // Expanding past the line boundary means the stream is corrupt.
        return Err(CompressError::BadLzwCode { code });
    }
    out[*filled..*filled + len].copy_from_slice(&phrase[..len]);
    *filled += len;
    Ok(phrase[0])
}

impl LineCodec for LzwLineCodec {
    fn id(&self) -> CodecId {
        CodecId::Lzw
    }

    fn encoded_bits(&self, line: &[u8]) -> u64 {
        lzw_line_codes(line).count() as u64 * u64::from(LINE_WIDTH)
    }

    fn encode_into(&self, line: &[u8], writer: &mut BitWriter) {
        for (code, _) in lzw_line_codes(line) {
            writer.write_bits(code, LINE_WIDTH);
        }
    }

    fn decode_into(&self, stored: &[u8], out: &mut [u8; LINE_SIZE]) -> Result<(), CompressError> {
        let mut reader = BitReader::new(stored);
        // Entry `i` is code `FIRST_FREE + i`: its prefix code and last
        // byte. Every code after the first adds one entry and at least
        // one byte, so a line adds at most `LINE_SIZE - 1`.
        let mut dict = [(0u32, 0u8); LINE_SIZE];
        let mut entries = 0usize;
        let mut filled = 0usize;
        let mut prev: Option<u32> = None;
        while filled < out.len() {
            let code = reader.read_bits(LINE_WIDTH)?;
            if code == CLEAR {
                return Err(CompressError::BadLzwCode { code });
            }
            let next_code = FIRST_FREE + entries as u32;
            match prev {
                None => {
                    // The first code of a fresh dictionary must be a
                    // literal.
                    if code >= 256 {
                        return Err(CompressError::BadLzwCode { code });
                    }
                    out[filled] = code as u8;
                    filled += 1;
                }
                Some(prev_code) => {
                    let known = &dict[..entries];
                    let first = if code < next_code {
                        lzw_expand_into(known, code, out, &mut filled)?
                    } else if code == next_code {
                        // KwKwK: the new string is the previous one
                        // followed by its own first byte.
                        let first = lzw_expand_into(known, prev_code, out, &mut filled)?;
                        if filled >= out.len() {
                            return Err(CompressError::BadLzwCode { code });
                        }
                        out[filled] = first;
                        filled += 1;
                        first
                    } else {
                        return Err(CompressError::BadLzwCode { code });
                    };
                    dict[entries] = (prev_code, first);
                    entries += 1;
                }
            }
            prev = Some(code);
        }
        Ok(())
    }

    fn bit_profile(&self, line: &[u8], cumulative_bits: &mut [u64; LINE_SIZE]) {
        let mut bits = 0u64;
        let mut slots = cumulative_bits.iter_mut();
        for (_, run) in lzw_line_codes(line) {
            // Every byte a code covers becomes available only once the
            // whole code has arrived.
            bits += u64::from(LINE_WIDTH);
            for slot in slots.by_ref().take(run) {
                *slot = bits;
            }
        }
    }

    fn cost(&self) -> CodecCost {
        CodecCost {
            // Dictionary RAM for the 31 possible per-line entries:
            // a 9-bit prefix code plus an 8-bit suffix byte each.
            table_bits: 31 * 17,
            // The dictionary chase is serial — one output byte per
            // cycle, no matter how wide the datapath is provisioned.
            max_bytes_per_cycle: Some(1),
        }
    }

    fn header_table(&self) -> [u8; 256] {
        [0u8; 256]
    }

    fn extra_params(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Reconstructs a codec from its container serialization: the codec id
/// (header byte 7), the 256-byte code-table section, and the
/// codec-parameter section.
///
/// # Errors
///
/// [`CompressError::BadCodecParams`] when `extra_params` is not exactly
/// [`CodecId::params_len`] bytes, and any code-construction error for
/// corrupt length tables.
pub fn codec_from_container(
    id: CodecId,
    header_table: &[u8; 256],
    extra_params: &[u8],
) -> Result<Arc<dyn LineCodec>, CompressError> {
    if extra_params.len() != id.params_len() {
        return Err(CompressError::BadCodecParams {
            length: extra_params.len(),
        });
    }
    match id {
        CodecId::ByteHuffman => Ok(Arc::new(ByteCode::from_lengths(*header_table)?)),
        CodecId::Positional => {
            let mut tables = [[0u8; 256]; POSITIONS];
            tables[0] = *header_table;
            for p in 1..POSITIONS {
                tables[p].copy_from_slice(&extra_params[(p - 1) * 256..p * 256]);
            }
            let codes = [
                ByteCode::from_lengths(tables[0])?,
                ByteCode::from_lengths(tables[1])?,
                ByteCode::from_lengths(tables[2])?,
                ByteCode::from_lengths(tables[3])?,
            ];
            Ok(Arc::new(PositionalCode::from_codes(codes)))
        }
        CodecId::Lzw => Ok(Arc::new(LzwLineCodec)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::ByteHistogram;
    use crate::positional::PositionalHistogram;
    use proptest::prelude::*;

    fn sample_line(seed: u32) -> [u8; LINE_SIZE] {
        let mut x = seed | 1;
        let mut line = [0u8; LINE_SIZE];
        for slot in &mut line {
            x = x.wrapping_mul(48271);
            *slot = (x >> 16) as u8;
        }
        line
    }

    fn codecs() -> Vec<Arc<dyn LineCodec>> {
        let text: Vec<u8> = (0..2048u32)
            .flat_map(|w| (w | 0x2400_0000).to_le_bytes())
            .collect();
        vec![
            Arc::new(ByteCode::preselected(&ByteHistogram::of(&text)).unwrap()),
            Arc::new(PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap()),
            Arc::new(LzwLineCodec),
        ]
    }

    #[test]
    fn ids_roundtrip_through_wire_bytes_and_names() {
        for id in CodecId::ALL {
            assert_eq!(CodecId::from_byte(id.byte()), Some(id));
            assert_eq!(CodecId::from_name(id.name()), Some(id));
        }
        assert_eq!(CodecId::from_byte(9), None);
        assert_eq!(CodecId::from_name("zstd"), None);
    }

    #[test]
    fn every_codec_roundtrips_lines() {
        for codec in codecs() {
            for seed in 0..32 {
                let line = sample_line(seed);
                let mut w = BitWriter::new();
                codec.encode_into(&line, &mut w);
                assert_eq!(w.bit_len(), codec.encoded_bits(&line), "{:?}", codec.id());
                let stored = w.into_bytes();
                let mut out = [0u8; LINE_SIZE];
                codec.decode_into(&stored, &mut out).unwrap();
                assert_eq!(out, line, "{:?}", codec.id());
            }
        }
    }

    #[test]
    fn bit_profiles_are_monotone_and_end_at_encoded_bits() {
        for codec in codecs() {
            let line = sample_line(77);
            let mut profile = [0u64; LINE_SIZE];
            codec.bit_profile(&line, &mut profile);
            assert!(profile.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(*profile.last().unwrap(), codec.encoded_bits(&line));
        }
    }

    #[test]
    fn container_serialization_roundtrips_every_codec() {
        for codec in codecs() {
            let table = codec.header_table();
            let params = codec.extra_params();
            assert_eq!(params.len(), codec.id().params_len());
            let back = codec_from_container(codec.id(), &table, &params).unwrap();
            assert_eq!(back.id(), codec.id());
            let line = sample_line(3);
            let mut w = BitWriter::new();
            codec.encode_into(&line, &mut w);
            let mut out = [0u8; LINE_SIZE];
            back.decode_into(&w.into_bytes(), &mut out).unwrap();
            assert_eq!(out, line);
        }
    }

    #[test]
    fn bad_params_length_is_rejected() {
        let table = [0u8; 256];
        let err = codec_from_container(CodecId::Positional, &table, &[]).unwrap_err();
        assert!(matches!(err, CompressError::BadCodecParams { length: 0 }));
    }

    #[test]
    fn lzw_rejects_clear_and_out_of_range_codes() {
        let mut w = BitWriter::new();
        w.write_bits(CLEAR, LINE_WIDTH);
        let mut out = [0u8; LINE_SIZE];
        assert!(matches!(
            LzwLineCodec.decode_into(&w.into_bytes(), &mut out),
            Err(CompressError::BadLzwCode { .. })
        ));

        let mut w = BitWriter::new();
        w.write_bits(400, LINE_WIDTH); // non-literal first code
        assert!(matches!(
            LzwLineCodec.decode_into(&w.into_bytes(), &mut out),
            Err(CompressError::BadLzwCode { .. })
        ));
    }

    #[test]
    fn lzw_truncated_stream_is_rejected() {
        let line = sample_line(5);
        let mut w = BitWriter::new();
        LzwLineCodec.encode_into(&line, &mut w);
        let stored = w.into_bytes();
        let mut out = [0u8; LINE_SIZE];
        assert!(LzwLineCodec
            .decode_into(&stored[..stored.len() / 2], &mut out)
            .is_err());
    }

    #[test]
    fn lzw_kwkwk_line_roundtrips() {
        let line = [b'a'; LINE_SIZE];
        let mut w = BitWriter::new();
        LzwLineCodec.encode_into(&line, &mut w);
        let mut out = [0u8; LINE_SIZE];
        LzwLineCodec.decode_into(&w.into_bytes(), &mut out).unwrap();
        assert_eq!(out, line);
    }

    #[test]
    fn lzw_cost_is_serial() {
        let cost = LzwLineCodec.cost();
        assert_eq!(cost.max_bytes_per_cycle, Some(1));
        assert_eq!(cost.effective_rate(4), 1);
        assert_eq!(cost.effective_rate(1), 1);
        let huffman = codecs().remove(0).cost();
        assert_eq!(huffman.effective_rate(4), 4);
    }

    /// The reference per-line coder the stack coder replaced: a `Vec`
    /// dictionary of (prefix code, byte) pairs and a `Vec` of codes.
    fn reference_line_codes(line: &[u8]) -> Vec<(u32, usize)> {
        let mut dict: Vec<(u32, u8)> = Vec::new();
        let mut out = Vec::new();
        let mut current: Option<(u32, usize)> = None;
        for &byte in line {
            let Some((code, run)) = current else {
                current = Some((u32::from(byte), 1));
                continue;
            };
            if let Some(index) = dict.iter().position(|&(p, b)| p == code && b == byte) {
                current = Some((FIRST_FREE + index as u32, run + 1));
            } else {
                out.push((code, run));
                dict.push((code, byte));
                current = Some((u32::from(byte), 1));
            }
        }
        out.extend(current);
        out
    }

    /// Lines of every length up to [`LINE_SIZE`] over an alphabet of one
    /// to four symbols, or over all 256, so that both the dictionary
    /// path and the literal path run. Half the small alphabets start
    /// below 33, where literals share their low byte with the
    /// dictionary codes 257–288.
    fn any_line() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..=LINE_SIZE),
            (
                1u8..=4,
                prop_oneof![0u8..33, any::<u8>()],
                proptest::collection::vec(any::<u8>(), 0..=LINE_SIZE)
            )
                .prop_map(|(symbols, base, raw)| {
                    raw.iter().map(|r| base.wrapping_add(r % symbols)).collect()
                }),
        ]
    }

    #[test]
    fn lzw_stays_total_past_a_line() {
        // Outside the contract, but never a panic: the dictionary stops
        // growing once its slots are full.
        for len in [LINE_SIZE + 1, 3 * LINE_SIZE, 1000] {
            let line: Vec<u8> = (0..len).map(|i| (i % 3) as u8).collect();
            let covered: usize = lzw_line_codes(&line).map(|(_, run)| run).sum();
            assert_eq!(covered, len);
            let mut profile = [0u64; LINE_SIZE];
            LzwLineCodec.bit_profile(&line, &mut profile);
            assert!(LzwLineCodec.encoded_bits(&line) >= profile[LINE_SIZE - 1]);
        }
        assert_eq!(lzw_line_codes(&[]).count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lzw_stack_coder_matches_the_reference(line in any_line()) {
            let codes: Vec<(u32, usize)> = lzw_line_codes(&line).collect();
            prop_assert_eq!(codes, reference_line_codes(&line));
        }
    }

    proptest! {
        #[test]
        fn lzw_roundtrips_arbitrary_lines(line in proptest::collection::vec(any::<u8>(), LINE_SIZE)) {
            let mut fixed = [0u8; LINE_SIZE];
            fixed.copy_from_slice(&line);
            let mut w = BitWriter::new();
            LzwLineCodec.encode_into(&fixed, &mut w);
            let mut out = [0u8; LINE_SIZE];
            LzwLineCodec.decode_into(&w.into_bytes(), &mut out).unwrap();
            prop_assert_eq!(out, fixed);
        }

        #[test]
        fn lzw_matches_whole_stream_coder_on_sizes(line in proptest::collection::vec(0u8..8, LINE_SIZE)) {
            // The per-line coder is the lzw.rs coder with a fresh
            // dictionary and fixed 9-bit codes; on one line the
            // whole-stream coder also stays at width 9, so the sizes
            // must agree.
            let mut fixed = [0u8; LINE_SIZE];
            fixed.copy_from_slice(&line);
            let whole = crate::lzw::compress(&fixed);
            prop_assert_eq!(
                LzwLineCodec.encoded_bits(&fixed).div_ceil(8),
                whole.len() as u64
            );
        }
    }
}
