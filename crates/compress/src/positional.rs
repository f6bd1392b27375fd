//! Positional Huffman coding — one code per byte position within the
//! instruction word.
//!
//! This implements the first of the paper's proposed extensions (§5:
//! "We also intend to try more sophisticated encoding techniques in
//! addition to the block based Huffman coding"). MIPS words have strong
//! positional structure in little-endian storage: byte 3 holds the major
//! opcode and `rs`, byte 2 mixes `rt` with register fields, bytes 0–1
//! hold immediates. Conditioning the code on `offset mod 4` captures
//! that structure while the decoder stays a fixed four-way mux of
//! hardwired tables — barely more hardware than the paper's single
//! preselected decoder.
//!
//! Like the bounded code, every positional sub-code is length-limited to
//! 16 bits.

use ccrp_bitstream::BitWriter;

use crate::bounded::{bounded_lengths, PAPER_MAX_LEN};
use crate::code::ByteCode;
use crate::error::CompressError;
use crate::histogram::ByteHistogram;

/// Number of byte positions within an instruction word.
pub const POSITIONS: usize = 4;

/// Four per-position byte histograms, accumulated from word-aligned text.
#[derive(Debug, Clone, Default)]
pub struct PositionalHistogram {
    positions: [ByteHistogram; POSITIONS],
}

impl PositionalHistogram {
    /// An all-zero histogram set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds word-aligned `text` (byte `i` counts toward position
    /// `i mod 4`).
    pub fn update(&mut self, text: &[u8]) {
        for (i, &b) in text.iter().enumerate() {
            self.positions[i % POSITIONS].update(&[b]);
        }
    }

    /// Builds the histogram set of `text` in one call.
    pub fn of(text: &[u8]) -> Self {
        let mut h = Self::new();
        h.update(text);
        h
    }

    /// The histogram for one position (positions cycle mod 4, matching
    /// how bytes are attributed during [`update`](Self::update)).
    pub fn position(&self, position: usize) -> &ByteHistogram {
        &self.positions[position % POSITIONS]
    }

    /// Merges another histogram set (corpus pooling).
    pub fn merge(&mut self, other: &PositionalHistogram) {
        for (a, b) in self.positions.iter_mut().zip(&other.positions) {
            *a += b;
        }
    }
}

/// A positional prefix code: four bounded canonical codes selected by
/// `offset mod 4`.
///
/// A compressed line expands through [`LineCodec::decode_into`], the
/// same whole-line table decode as [`ByteCode`]'s, with the sub-code
/// for output byte `i` chosen by `i mod 4`.
///
/// # Examples
///
/// ```
/// use ccrp_compress::{LineCodec, PositionalCode, PositionalHistogram, LINE_SIZE};
///
/// let text: Vec<u8> = (0..4096u32).flat_map(|w| (w | 0x2400_0000).to_le_bytes()).collect();
/// let code = PositionalCode::preselected(&PositionalHistogram::of(&text))?;
/// // The positional code exploits per-position structure a single
/// // byte code cannot see.
/// assert!(code.encoded_bits(&text) < 8 * text.len() as u64);
/// let mut line = [0u8; LINE_SIZE];
/// line.copy_from_slice(&text[..LINE_SIZE]);
/// let mut back = [0u8; LINE_SIZE];
/// code.decode_into(&code.encode(&line), &mut back)?;
/// assert_eq!(back, line);
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
///
/// [`LineCodec::decode_into`]: crate::LineCodec::decode_into
#[derive(Debug, Clone)]
pub struct PositionalCode {
    codes: [ByteCode; POSITIONS],
}

impl PositionalCode {
    /// Builds a preselected positional code from a corpus histogram set:
    /// each position's histogram is smoothed (all 256 symbols decodable)
    /// and bounded to 16 bits.
    ///
    /// # Errors
    ///
    /// Propagates code-construction failures (impossible after
    /// smoothing a non-degenerate histogram).
    pub fn preselected(histograms: &PositionalHistogram) -> Result<Self, CompressError> {
        let build = |h: &ByteHistogram| -> Result<ByteCode, CompressError> {
            ByteCode::from_lengths(bounded_lengths(&h.smoothed(), PAPER_MAX_LEN)?)
        };
        Ok(Self {
            codes: [
                build(histograms.position(0))?,
                build(histograms.position(1))?,
                build(histograms.position(2))?,
                build(histograms.position(3))?,
            ],
        })
    }

    /// Wraps four already-built sub-codes (the container loader's entry
    /// point; `codes[p]` handles word offset `p`).
    pub fn from_codes(codes: [ByteCode; POSITIONS]) -> Self {
        Self { codes }
    }

    /// The sub-code used at one position (positions cycle mod 4).
    pub fn position(&self, position: usize) -> &ByteCode {
        &self.codes[position % POSITIONS]
    }

    /// Code length in bits for `byte` at word offset `position`.
    pub fn length_of(&self, byte: u8, position: usize) -> u8 {
        self.codes[position % POSITIONS].length_of(byte)
    }

    /// Exact compressed size of word-aligned `data` in bits.
    pub fn encoded_bits(&self, data: &[u8]) -> u64 {
        data.iter()
            .enumerate()
            .map(|(i, &b)| u64::from(self.length_of(b, i)))
            .sum()
    }

    /// Appends the code for each byte of word-aligned `data`.
    ///
    /// # Panics
    ///
    /// Panics (via [`ByteCode::encode_into`]'s documented contract) if a
    /// byte has no codeword — impossible for preselected positional
    /// codes, which are smoothed complete at every position.
    pub fn encode_into(&self, data: &[u8], writer: &mut BitWriter) {
        for (i, &b) in data.iter().enumerate() {
            // Reuse the canonical encoder one byte at a time.
            self.codes[i % POSITIONS].encode_into(&[b], writer);
        }
    }

    /// Encodes word-aligned `data` into a fresh byte vector.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(data.len());
        self.encode_into(data, &mut w);
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::LINE_SIZE;
    use crate::codec::LineCodec;
    use proptest::prelude::*;

    /// Checks that each line of word-aligned `text`, the last one zero
    /// padded, expands back through [`LineCodec::decode_into`].
    fn assert_lines_round_trip(code: &PositionalCode, text: &[u8]) {
        for chunk in text.chunks(LINE_SIZE) {
            let mut line = [0u8; LINE_SIZE];
            line[..chunk.len()].copy_from_slice(chunk);
            let mut back = [0u8; LINE_SIZE];
            code.decode_into(&code.encode(&line), &mut back).unwrap();
            assert_eq!(back, line);
        }
    }

    /// Synthetic "code" with strong positional structure: high bytes
    /// skewed like opcodes, low bytes like immediates.
    fn structured_text(words: usize, seed: u32) -> Vec<u8> {
        let mut x = seed | 1;
        let mut out = Vec::with_capacity(words * 4);
        for _ in 0..words {
            x = x.wrapping_mul(48271);
            let opcode = [0x8Fu32, 0x27, 0xAF, 0x00, 0x24][x as usize % 5];
            let word = (opcode << 24) | (u32::from(x as u16) & 0x00FF);
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    #[test]
    fn beats_single_code_on_positional_structure() {
        let text = structured_text(8192, 7);
        let single = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let positional = PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap();
        let single_bits = single.encoded_bits(&text);
        let positional_bits = positional.encoded_bits(&text);
        assert!(
            positional_bits < single_bits,
            "positional {positional_bits} vs single {single_bits}"
        );
    }

    #[test]
    fn roundtrip_structured() {
        let text = structured_text(1024, 3);
        let code = PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap();
        assert_lines_round_trip(&code, &text);
    }

    #[test]
    fn positional_histogram_separates_positions() {
        let mut text = Vec::new();
        for _ in 0..100 {
            text.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD]);
        }
        let h = PositionalHistogram::of(&text);
        assert_eq!(h.position(0).count(0xAA), 100);
        assert_eq!(h.position(0).count(0xBB), 0);
        assert_eq!(h.position(3).count(0xDD), 100);
    }

    #[test]
    fn merge_pools() {
        let mut a = PositionalHistogram::of(&[1, 2, 3, 4]);
        let b = PositionalHistogram::of(&[1, 2, 3, 4]);
        a.merge(&b);
        assert_eq!(a.position(0).count(1), 2);
    }

    #[test]
    fn all_subcodes_bounded_and_complete() {
        let text = structured_text(2048, 11);
        let code = PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap();
        for p in 0..POSITIONS {
            assert!(code.position(p).max_length() <= 16);
            assert!(code.position(p).is_complete_alphabet());
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random(words in proptest::collection::vec(any::<u32>(), 1..500)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let code = PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap();
            assert_lines_round_trip(&code, &text);
        }

        #[test]
        fn never_worse_than_sum_of_subcode_entropy(words in proptest::collection::vec(any::<u32>(), 16..200)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let h = PositionalHistogram::of(&text);
            let code = PositionalCode::preselected(&h).unwrap();
            // Each sub-code is within one bit/byte of its position's
            // (smoothed) entropy; crude but effective sanity bound.
            let bits = code.encoded_bits(&text) as f64 / text.len() as f64;
            prop_assert!(bits <= 17.0);
        }
    }
}
