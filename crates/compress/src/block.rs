//! Cache-line block compression (Figure 1 of the paper).
//!
//! Each 32-byte instruction block is compressed independently so the
//! refill engine can expand any line on demand, and
//! [`compress_line_into`] appends each stored block to one packed ROM,
//! back to back, as the Line Address Table expects. Blocks that would
//! grow are stored raw ("the original block encoding"), guaranteeing no
//! block exceeds its original size — the paper's two-code special case
//! that "only requires a bypass capability in the decoder".

use ccrp_bitstream::BitWriter;

use crate::codec::LineCodec;
use crate::error::CompressError;

/// The paper's instruction-cache line size in bytes.
pub const LINE_SIZE: usize = 32;

/// Alignment of compressed blocks in instruction memory (Figure 1):
/// "Byte alignment provides slightly better compression while word
/// alignment simplifies accessing hardware."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BlockAlignment {
    /// Blocks start on any byte boundary.
    Byte,
    /// Blocks start on 4-byte boundaries (the simulated hardware default).
    #[default]
    Word,
}

impl BlockAlignment {
    /// Rounds a byte size up to this alignment.
    pub fn round_up(self, bytes: usize) -> usize {
        match self {
            BlockAlignment::Byte => bytes,
            BlockAlignment::Word => (bytes + 3) & !3,
        }
    }
}

/// The stored size of a line whose encoding takes `bits` bits: its
/// whole bytes rounded up to `alignment`, or [`LINE_SIZE`] when that
/// would not shrink the line, which is then stored raw (the bypass).
fn block_len(bits: u64, alignment: BlockAlignment) -> usize {
    alignment.round_up(bits.div_ceil(8) as usize).min(LINE_SIZE)
}

/// Compresses one cache line with `codec` and appends its stored block
/// to `packed`: the encoding padded to `alignment`, or the line itself
/// when that would not shrink it below [`LINE_SIZE`] (stored raw, the
/// bypass). Returns whether the line was stored raw.
///
/// # Panics
///
/// Panics if `line` is not exactly [`LINE_SIZE`] bytes.
pub fn compress_line_into(
    codec: &dyn LineCodec,
    line: &[u8],
    alignment: BlockAlignment,
    packed: &mut Vec<u8>,
) -> bool {
    assert_eq!(line.len(), LINE_SIZE, "cache lines are {LINE_SIZE} bytes"); // panic-ok: documented contract
    let bytes = block_len(codec.encoded_bits(line), alignment);
    if bytes == LINE_SIZE {
        packed.extend_from_slice(line);
        return true;
    }
    let mut w = BitWriter::with_capacity(bytes);
    codec.encode_into(line, &mut w);
    let end = packed.len() + bytes;
    packed.extend_from_slice(&w.into_bytes());
    packed.resize(end, 0);
    false
}

/// Expands one stored block (written by [`compress_line_into`])
/// directly into `out` — the allocation-free expansion the refill hot
/// path uses. A raw block (`bypass`) is a straight copy; the decoder
/// (and its lookup table) is never consulted for it.
///
/// # Errors
///
/// [`CompressError::BadStoredLength`] for a raw block that is not
/// [`LINE_SIZE`] bytes; otherwise decode failures on corrupt data, with
/// `out` holding the bytes expanded before the failure.
pub fn decompress_line_into(
    codec: &dyn LineCodec,
    stored: &[u8],
    bypass: bool,
    out: &mut [u8; LINE_SIZE],
) -> Result<(), CompressError> {
    if !bypass {
        return codec.decode_into(stored, out);
    }
    let length = stored.len();
    *out = stored
        .try_into()
        .map_err(|_| CompressError::BadStoredLength { length })?;
    Ok(())
}

/// Total stored bytes of `text` compressed line by line with
/// [`compress_line_into`], a final partial line zero padded first (zero
/// is the `nop` encoding on MIPS, matching how linkers pad text
/// sections): the sum of its aligned block sizes, excluding the Line
/// Address Table and code table, from each line's encoded bits, without
/// encoding a line.
pub fn stored_size(codec: &dyn LineCodec, text: &[u8], alignment: BlockAlignment) -> usize {
    text.chunks(LINE_SIZE)
        .map(|chunk| {
            let mut line = [0u8; LINE_SIZE];
            line[..chunk.len()].copy_from_slice(chunk);
            block_len(codec.encoded_bits(&line), alignment)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::ByteCode;
    use crate::codec::LzwLineCodec;
    use crate::histogram::ByteHistogram;
    use crate::positional::{PositionalCode, PositionalHistogram};
    use proptest::prelude::*;

    /// The block [`compress_line_into`] stores for `line`, and whether
    /// it is raw.
    fn store(codec: &dyn LineCodec, line: &[u8], alignment: BlockAlignment) -> (Vec<u8>, bool) {
        let mut block = Vec::new();
        let raw = compress_line_into(codec, line, alignment, &mut block);
        (block, raw)
    }

    /// Expands a stored block through [`decompress_line_into`].
    fn expand(codec: &dyn LineCodec, stored: &[u8], raw: bool) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        decompress_line_into(codec, stored, raw, &mut out).unwrap();
        out
    }

    fn sample_code() -> ByteCode {
        // Trained on skewed data so common bytes compress well.
        let mut data = vec![0u8; 2000];
        data.extend(std::iter::repeat_n(0x24, 500));
        data.extend(std::iter::repeat_n(0x8F, 300));
        data.extend((0u16..256).map(|b| b as u8));
        ByteCode::preselected(&ByteHistogram::of(&data)).unwrap()
    }

    #[test]
    fn compressible_line_shrinks_and_roundtrips() {
        let code = sample_code();
        let line = [0u8; LINE_SIZE];
        let (block, raw) = store(&code, &line, BlockAlignment::Word);
        assert!(!raw);
        assert!(block.len() < LINE_SIZE);
        assert_eq!(block.len() % 4, 0);
        assert_eq!(expand(&code, &block, raw), line);
    }

    #[test]
    fn incompressible_line_bypasses() {
        let code = sample_code();
        // Bytes chosen from the rare end of the histogram.
        let mut line = [0u8; LINE_SIZE];
        for (i, b) in line.iter_mut().enumerate() {
            *b = 128 + (i as u8 * 3);
        }
        let (block, raw) = store(&code, &line, BlockAlignment::Word);
        assert!(raw);
        assert_eq!(block, line);
        assert_eq!(expand(&code, &block, raw), line);
    }

    #[test]
    fn byte_alignment_never_larger_than_word() {
        let code = sample_code();
        let line = [0x24u8; LINE_SIZE];
        let (b, _) = store(&code, &line, BlockAlignment::Byte);
        let (w, _) = store(&code, &line, BlockAlignment::Word);
        assert!(b.len() <= w.len());
    }

    #[test]
    #[should_panic(expected = "cache lines are 32 bytes")]
    fn wrong_line_size_panics() {
        compress_line_into(&sample_code(), &[0; 16], BlockAlignment::Word, &mut vec![]);
    }

    proptest! {
        #[test]
        fn stored_size_sums_the_stored_lines(
            text in proptest::collection::vec(0u8..24, 0..300),
            raw in proptest::collection::vec(any::<u8>(), 0..70),
        ) {
            // Compressible text, then bytes that mostly are not, so some
            // lines bypass; the length leaves a partial last line. Each
            // block appends to the last and expands back on its own.
            let text = [text, raw].concat();
            let codecs: [&dyn LineCodec; 3] = [
                &sample_code(),
                &PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap(),
                &LzwLineCodec,
            ];
            for codec in codecs {
                for alignment in [BlockAlignment::Byte, BlockAlignment::Word] {
                    let mut padded = text.clone();
                    padded.resize(text.len().next_multiple_of(LINE_SIZE), 0);
                    let mut packed = Vec::new();
                    for line in padded.chunks_exact(LINE_SIZE) {
                        let start = packed.len();
                        let raw = compress_line_into(codec, line, alignment, &mut packed);
                        prop_assert_eq!(&expand(codec, &packed[start..], raw)[..], line);
                    }
                    prop_assert_eq!(stored_size(codec, &text, alignment), packed.len());
                }
            }
        }

        #[test]
        fn any_line_roundtrips_and_never_grows(line in proptest::collection::vec(any::<u8>(), LINE_SIZE)) {
            let code = sample_code();
            for alignment in [BlockAlignment::Byte, BlockAlignment::Word] {
                let (block, raw) = store(&code, &line, alignment);
                prop_assert!(block.len() <= LINE_SIZE);
                prop_assert_eq!(&expand(&code, &block, raw)[..], &line[..]);
            }
        }
    }
}
