//! Cache-line block compression (Figure 1 of the paper).
//!
//! Each 32-byte instruction block is compressed independently so the
//! refill engine can expand any line on demand. Blocks that would grow
//! are stored raw ("the original block encoding"), guaranteeing no block
//! exceeds its original size — the paper's two-code special case that
//! "only requires a bypass capability in the decoder".

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

/// One compressed cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLine {
    data: Vec<u8>,
    bypass: bool,
}

impl CompressedLine {
    /// Reconstructs a stored line from container bytes (used when
    /// loading a serialized compressed image).
    ///
    /// # Panics
    ///
    /// Panics on stored sizes the LAT cannot represent: a bypassed line
    /// must be exactly [`LINE_SIZE`] bytes, a compressed one 1..32. Use
    /// [`from_stored_checked`](Self::from_stored_checked) when the sizes
    /// come from untrusted (possibly corrupt) container bytes.
    pub fn from_stored(data: Vec<u8>, bypass: bool) -> Self {
        match Self::from_stored_checked(data, bypass) {
            Ok(line) => line,
            Err(e) => panic!("{e}"), // panic-ok: documented constructor contract
        }
    }

    /// Non-panicking [`from_stored`](Self::from_stored): the loader's
    /// entry point for sizes read from untrusted container bytes.
    ///
    /// # Errors
    ///
    /// [`CompressError::BadStoredLength`] when the stored size is not
    /// representable (bypassed lines must be exactly [`LINE_SIZE`]
    /// bytes, compressed ones 1..32).
    pub fn from_stored_checked(data: Vec<u8>, bypass: bool) -> Result<Self, CompressError> {
        let valid = if bypass {
            data.len() == LINE_SIZE
        } else {
            (1..LINE_SIZE).contains(&data.len())
        };
        if !valid {
            return Err(CompressError::BadStoredLength {
                length: data.len(),
                bypass,
            });
        }
        Ok(Self { data, bypass })
    }

    /// The stored bytes (compressed stream, or the raw line when
    /// bypassed), padded to the chosen alignment.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Whether the line is stored uncompressed.
    pub fn is_bypass(&self) -> bool {
        self.bypass
    }

    /// Stored size in bytes (after alignment padding).
    pub fn stored_len(&self) -> usize {
        self.data.len()
    }
}

/// The stored size of a line whose encoding takes `bits` bits: its
/// whole bytes rounded up to `alignment`, or [`LINE_SIZE`] when that
/// would not shrink the line, which is then stored raw (the bypass).
fn block_len(bits: u64, alignment: BlockAlignment) -> usize {
    alignment.round_up(bits.div_ceil(8) as usize).min(LINE_SIZE)
}

/// Compresses one cache line with `codec`, bypassing if compression
/// would not shrink it below [`LINE_SIZE`] after `alignment` padding.
///
/// # Panics
///
/// Panics if `line` is not exactly [`LINE_SIZE`] bytes.
pub fn compress_line(
    codec: &dyn LineCodec,
    line: &[u8],
    alignment: BlockAlignment,
) -> CompressedLine {
    assert_eq!(line.len(), LINE_SIZE, "cache lines are {LINE_SIZE} bytes"); // panic-ok: documented contract
    let bytes = block_len(codec.encoded_bits(line), alignment);
    if bytes == LINE_SIZE {
        return CompressedLine {
            data: line.to_vec(),
            bypass: true,
        };
    }
    let mut w = BitWriter::with_capacity(bytes);
    codec.encode_into(line, &mut w);
    let mut data = w.into_bytes();
    data.resize(bytes, 0);
    CompressedLine {
        data,
        bypass: false,
    }
}

/// Decompresses a line produced by [`compress_line`] directly into
/// `out` — the allocation-free expansion the refill hot path uses.
/// Bypassed lines are a straight copy of the stored bytes; the decoder
/// (and its lookup table) is never consulted for them.
///
/// # Errors
///
/// Propagates decode failures on corrupt data; `out` then holds the
/// bytes expanded before the failure.
pub fn decompress_line_into(
    codec: &dyn LineCodec,
    line: &CompressedLine,
    out: &mut [u8; LINE_SIZE],
) -> Result<(), CompressError> {
    if line.bypass {
        out.copy_from_slice(&line.data[..LINE_SIZE]);
        return Ok(());
    }
    codec.decode_into(&line.data, out)
}

/// The lines of `text`: whole [`LINE_SIZE`] chunks, and a final
/// partial one zero padded to [`LINE_SIZE`] (zero is the `nop` encoding
/// on MIPS, matching how linkers pad text sections).
fn padded_lines(text: &[u8]) -> impl Iterator<Item = [u8; LINE_SIZE]> + '_ {
    text.chunks(LINE_SIZE).map(|chunk| {
        let mut line = [0u8; LINE_SIZE];
        line[..chunk.len()].copy_from_slice(chunk);
        line
    })
}

/// Compresses a whole text segment line by line, a final partial line
/// zero padded first.
pub fn compress_image(
    codec: &dyn LineCodec,
    text: &[u8],
    alignment: BlockAlignment,
) -> Vec<CompressedLine> {
    padded_lines(text)
        .map(|line| compress_line(codec, &line, alignment))
        .collect()
}

/// Total stored bytes of `text` compressed by [`compress_image`] (the
/// sum of its aligned block sizes), excluding the Line Address Table
/// and code table: the size alone, from each line's encoded bits,
/// without encoding a line.
pub fn stored_size(codec: &dyn LineCodec, text: &[u8], alignment: BlockAlignment) -> usize {
    padded_lines(text)
        .map(|line| block_len(codec.encoded_bits(&line), alignment))
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

    /// Expands `line` through [`decompress_line_into`].
    fn expand(codec: &dyn LineCodec, line: &CompressedLine) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        decompress_line_into(codec, line, &mut out).unwrap();
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
        let c = compress_line(&code, &line, BlockAlignment::Word);
        assert!(!c.is_bypass());
        assert!(c.stored_len() < LINE_SIZE);
        assert_eq!(c.stored_len() % 4, 0);
        assert_eq!(expand(&code, &c), line);
    }

    #[test]
    fn incompressible_line_bypasses() {
        let code = sample_code();
        // Bytes chosen from the rare end of the histogram.
        let mut line = [0u8; LINE_SIZE];
        for (i, b) in line.iter_mut().enumerate() {
            *b = 128 + (i as u8 * 3);
        }
        let c = compress_line(&code, &line, BlockAlignment::Word);
        assert!(c.is_bypass());
        assert_eq!(c.stored_len(), LINE_SIZE);
        assert_eq!(expand(&code, &c), line);
    }

    #[test]
    fn byte_alignment_never_larger_than_word() {
        let code = sample_code();
        let line = [0x24u8; LINE_SIZE];
        let b = compress_line(&code, &line, BlockAlignment::Byte);
        let w = compress_line(&code, &line, BlockAlignment::Word);
        assert!(b.stored_len() <= w.stored_len());
    }

    #[test]
    fn image_compression_covers_partial_tail() {
        let code = sample_code();
        let text = vec![0u8; 100]; // 3 lines + 4-byte tail
        let lines = compress_image(&code, &text, BlockAlignment::Word);
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert_eq!(expand(&code, line), [0u8; LINE_SIZE]);
        }
        assert!(stored_size(&code, &text, BlockAlignment::Word) < 128);
    }

    #[test]
    #[should_panic(expected = "cache lines are 32 bytes")]
    fn wrong_line_size_panics() {
        compress_line(&sample_code(), &[0u8; 16], BlockAlignment::Word);
    }

    proptest! {
        #[test]
        fn stored_size_sums_the_stored_lines(
            text in proptest::collection::vec(0u8..24, 0..300),
            raw in proptest::collection::vec(any::<u8>(), 0..70),
        ) {
            // Compressible text, then bytes that mostly are not, so some
            // lines bypass; the length leaves a partial last line.
            let text = [text, raw].concat();
            let codecs: [&dyn LineCodec; 3] = [
                &sample_code(),
                &PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap(),
                &LzwLineCodec,
            ];
            for codec in codecs {
                for alignment in [BlockAlignment::Byte, BlockAlignment::Word] {
                    let lines = compress_image(codec, &text, alignment);
                    let sum: usize = lines.iter().map(CompressedLine::stored_len).sum();
                    prop_assert_eq!(stored_size(codec, &text, alignment), sum);
                }
            }
        }

        #[test]
        fn any_line_roundtrips_and_never_grows(line in proptest::collection::vec(any::<u8>(), LINE_SIZE)) {
            let code = sample_code();
            for alignment in [BlockAlignment::Byte, BlockAlignment::Word] {
                let c = compress_line(&code, &line, alignment);
                prop_assert!(c.stored_len() <= LINE_SIZE);
                prop_assert_eq!(&expand(&code, &c)[..], &line[..]);
            }
        }
    }
}
