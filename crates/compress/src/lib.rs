//! The CCRP compression stack.
//!
//! Implements every compression method evaluated in Figure 5 of
//! Wolfe & Chanin (MICRO-25 1992):
//!
//! * [`lzw`] — a Unix-`compress`-style LZW codec, the paper's file-based
//!   reference point;
//! * [`traditional_lengths`] / [`ByteCode::traditional`] — classic
//!   Huffman over byte frequencies, by the two-queue construction;
//! * [`bounded_lengths`] / [`ByteCode::bounded`] — length-limited
//!   (≤16-bit) Huffman, making the decode hardware practical: the
//!   traditional lengths when they fit, package-merge when the bound
//!   binds;
//! * [`ByteCode::preselected`] — a single bounded code built from a
//!   program corpus, so the decoder can be hardwired and no code table
//!   ships with each program;
//! * [`block`] — independent compression of 32-byte cache lines with a
//!   raw-store bypass, packed back to back into one ROM: the form the
//!   CCRP refill engine consumes;
//! * [`PositionalCode`] — an *extension* implementing §5's proposed
//!   "more sophisticated encoding techniques": one bounded code per
//!   byte position within the instruction word.
//!
//! Decoding is table-driven: every [`ByteCode`] carries a
//! [`DecodeTable`] — a single-level 2^[`LOOKUP_BITS`] LUT modeling the
//! paper's hardwired decoder — and a line expands through
//! [`LineCodec::decode_into`], with the canonical bit walk
//! ([`ByteCode::decode_symbol_reference`]) for a symbol the table
//! cannot resolve.
//!
//! # Examples
//!
//! Compress a cache line with a corpus-trained preselected code,
//! appending its block to a packed ROM:
//!
//! ```
//! use ccrp_compress::{block, ByteCode, ByteHistogram, BlockAlignment};
//!
//! let corpus = ByteHistogram::of(&vec![0u8; 1000]); // stand-in corpus
//! let code = ByteCode::preselected(&corpus)?;
//! let line = [0u8; block::LINE_SIZE];
//! let mut rom = Vec::new();
//! let raw = block::compress_line_into(&code, &line, BlockAlignment::Word, &mut rom);
//! assert!(!raw && rom.len() < block::LINE_SIZE);
//! let mut back = [0u8; block::LINE_SIZE];
//! block::decompress_line_into(&code, &rom, raw, &mut back)?;
//! assert_eq!(back, line);
//! # Ok::<(), ccrp_compress::CompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
mod bounded;
mod code;
pub mod codec;
mod error;
mod histogram;
mod huffman;
pub mod lzw;
mod positional;
mod table;

pub use block::{BlockAlignment, LINE_SIZE};
pub use bounded::{bounded_lengths, PAPER_MAX_LEN};
pub use code::ByteCode;
pub use codec::{codec_from_container, CodecCost, CodecId, LineCodec, LzwLineCodec};
pub use error::CompressError;
pub use histogram::ByteHistogram;
pub use huffman::traditional_lengths;
pub use positional::{PositionalCode, PositionalHistogram, POSITIONS};
pub use table::{DecodeTable, LOOKUP_BITS};

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure-5 ordering: on realistic code bytes, LZW beats
    /// traditional Huffman, which beats bounded, which beats a
    /// preselected code trained on *different* material — all of which
    /// still compress.
    #[test]
    fn method_ordering_on_codelike_data() {
        // Synthesize something code-like: strongly repeating word
        // patterns with a skewed byte distribution.
        let mut data = Vec::new();
        let mut x = 7u32;
        for i in 0..8192u32 {
            x = x.wrapping_mul(2654435761).wrapping_add(1);
            let imm = (x >> 20) as u8;
            let word = match i % 4 {
                0 => 0x2402_0000u32 | u32::from(imm),
                1 => 0x8FBF_0000u32 | u32::from(imm & 0x3C),
                2 => 0x0085_1021,
                _ => 0xAFA4_0000u32 | u32::from(imm & 0x1C),
            };
            data.extend_from_slice(&word.to_le_bytes());
        }
        let hist = ByteHistogram::of(&data);

        let lzw_size = lzw::compress(&data).len();
        let trad = ByteCode::traditional(&hist).unwrap();
        let trad_size = trad.encoded_bits(&data).div_ceil(8) as usize;
        let bnd = ByteCode::bounded(&hist).unwrap();
        let bnd_size = bnd.encoded_bits(&data).div_ceil(8) as usize;

        // A preselected code trained on slightly different material.
        let mut other = data.clone();
        other.rotate_left(1); // shifts the byte-position mix
        let pre = ByteCode::preselected(&ByteHistogram::of(&other)).unwrap();
        let pre_size = pre.encoded_bits(&data).div_ceil(8) as usize;

        assert!(lzw_size < trad_size, "lzw {lzw_size} vs trad {trad_size}");
        assert!(trad_size <= bnd_size);
        assert!(bnd_size <= pre_size);
        assert!(pre_size < data.len(), "preselected must still compress");
    }
}
