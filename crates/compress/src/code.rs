use ccrp_bitstream::{BitReader, BitWriter};

use crate::block::LINE_SIZE;
use crate::bounded::{bounded_lengths, PAPER_MAX_LEN};
use crate::error::CompressError;
use crate::histogram::ByteHistogram;
use crate::huffman::traditional_lengths;
use crate::table::{DecodeTable, LOOKUP_BITS};

/// A canonical prefix code over bytes.
///
/// Construction assigns codewords in canonical order (shorter first,
/// ties by symbol value), so a code is fully described by its length
/// table — which is what the paper stores alongside per-program codes and
/// what a hardwired decoder implements for the preselected code.
///
/// A compressed line expands through [`LineCodec::decode_into`].
///
/// # Examples
///
/// ```
/// use ccrp_compress::{ByteCode, ByteHistogram, LineCodec, LINE_SIZE};
///
/// let line = *b"mississippi mississippi mississi";
/// let code = ByteCode::traditional(&ByteHistogram::of(&line))?;
/// let compressed = code.encode(&line);
/// let mut back = [0u8; LINE_SIZE];
/// code.decode_into(&compressed, &mut back)?;
/// assert_eq!(back, line);
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
///
/// [`LineCodec::decode_into`]: crate::LineCodec::decode_into
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteCode {
    lengths: [u8; 256],
    codes: [u32; 256],
    max_len: u8,
    /// Decode acceleration: for each length, the first canonical code
    /// value, the first index into `ordered`, and the symbol count.
    first_code: [u32; 33],
    first_index: [u16; 33],
    counts: [u16; 33],
    ordered: Vec<u8>,
    /// Fast-path LUT (the software model of the paper's hardwired
    /// decoder); built once here so every decode shares it.
    table: DecodeTable,
}

impl ByteCode {
    /// Builds the canonical code for a length table.
    ///
    /// # Errors
    ///
    /// [`CompressError::InvalidCodeLengths`] if the lengths over-fill the
    /// code space (Kraft sum above 1), [`CompressError::LengthTooLong`]
    /// for lengths above 32, and [`CompressError::EmptyHistogram`] if all
    /// lengths are zero.
    pub fn from_lengths(lengths: [u8; 256]) -> Result<Self, CompressError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(CompressError::EmptyHistogram);
        }
        if max_len > 32 {
            return Err(CompressError::LengthTooLong { length: max_len });
        }
        // Kraft check, scaled by 2^max_len to stay in integers.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l))
            .sum();
        if kraft > 1u64 << max_len {
            return Err(CompressError::InvalidCodeLengths { kraft, max_len });
        }

        let mut counts = [0u16; 33];
        for &l in lengths.iter().filter(|&&l| l > 0) {
            counts[l as usize] += 1;
        }
        let mut first_code = [0u32; 33];
        let mut first_index = [0u16; 33];
        // Wider than a code: after the last length of a complete code it
        // reaches 2^max_len, which is 2^32 for a 32-bit code. Each
        // `first_code` entry stays below 2^32, since the Kraft check
        // leaves code space for every length that follows.
        let mut code = 0u64;
        let mut index = 0u16;
        #[allow(clippy::needless_range_loop)] // len is both value and index
        for len in 1..=max_len as usize {
            code <<= 1;
            first_code[len] = code as u32;
            first_index[len] = index;
            code += u64::from(counts[len]);
            index += counts[len];
        }

        // Canonical assignment, symbols sorted by (length, value), in one
        // pass: each length's next code and next `ordered` slot start at
        // its `first_code` and `first_index`.
        let mut ordered = vec![0u8; usize::from(index)];
        let mut codes = [0u32; 256];
        let (mut next_code, mut next_index) = (first_code, first_index);
        for (sym, &len) in lengths.iter().enumerate().filter(|&(_, &l)| l > 0) {
            let len = usize::from(len);
            codes[sym] = next_code[len];
            // Wraps only past the last code of a complete 32-bit code,
            // and that value is never used.
            next_code[len] = next_code[len].wrapping_add(1);
            ordered[usize::from(next_index[len])] = sym as u8;
            next_index[len] += 1;
        }

        let table = DecodeTable::build(&lengths, &codes)?;
        Ok(Self {
            lengths,
            codes,
            max_len,
            first_code,
            first_index,
            counts,
            ordered,
            table,
        })
    }

    /// The paper's Traditional Huffman code for `histogram`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures (empty histogram).
    pub fn traditional(histogram: &ByteHistogram) -> Result<Self, CompressError> {
        Self::from_lengths(traditional_lengths(histogram)?)
    }

    /// The paper's Bounded Huffman code (≤16-bit symbols) for `histogram`.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn bounded(histogram: &ByteHistogram) -> Result<Self, CompressError> {
        Self::from_lengths(bounded_lengths(histogram, PAPER_MAX_LEN)?)
    }

    /// A *Preselected* Bounded Huffman code: bounded, built from a
    /// (typically multi-program) histogram smoothed so every byte value
    /// decodes — required because the code will be applied to programs
    /// outside its training corpus.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn preselected(corpus_histogram: &ByteHistogram) -> Result<Self, CompressError> {
        Self::from_lengths(bounded_lengths(
            &corpus_histogram.smoothed(),
            PAPER_MAX_LEN,
        )?)
    }

    /// Code length in bits for `byte` (0 when the byte has no code).
    pub fn length_of(&self, byte: u8) -> u8 {
        self.lengths[byte as usize]
    }

    /// The longest codeword in the table.
    pub fn max_length(&self) -> u8 {
        self.max_len
    }

    /// The length table (canonical codes are reconstructible from it).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Whether every byte value has a codeword (required of preselected
    /// codes).
    pub fn is_complete_alphabet(&self) -> bool {
        self.lengths.iter().all(|&l| l > 0)
    }

    /// Bytes needed to store this code table alongside a program: 5 bits
    /// per symbol length for bounded codes (lengths 0..=16), 8 bits for
    /// codes that may exceed 16 bits. The preselected code is hardwired
    /// and costs nothing — callers simply skip this term.
    pub fn table_storage_bytes(&self) -> u32 {
        if self.max_len <= 16 {
            (256 * 5_u32).div_ceil(8)
        } else {
            256
        }
    }

    /// Exact compressed size of `data` in bits (without actually encoding).
    pub fn encoded_bits(&self, data: &[u8]) -> u64 {
        data.iter()
            .map(|&b| u64::from(self.lengths[b as usize]))
            .sum()
    }

    /// Appends the code for each byte of `data` to `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains a byte with no codeword; callers encode
    /// only data drawn from the code's alphabet (guaranteed for
    /// per-program codes, and by completeness for preselected codes).
    pub fn encode_into(&self, data: &[u8], writer: &mut BitWriter) {
        for &b in data {
            let len = self.lengths[b as usize];
            // panic-ok: documented contract — encoders only see alphabet bytes.
            assert!(len > 0, "byte {b:#04x} has no codeword");
            writer.write_bits(self.codes[b as usize], u32::from(len));
        }
    }

    /// Encodes `data` into a fresh byte vector (zero-padded final byte).
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(data.len());
        self.encode_into(data, &mut w);
        w.into_bytes()
    }

    /// The fast-path lookup table (the software model of the paper's
    /// hardwired decoder).
    pub fn decode_table(&self) -> &DecodeTable {
        &self.table
    }

    /// Decodes a single symbol by the canonical bit walk over the
    /// `first_code`/`first_index` tables — one bit per iteration, the
    /// direct software transcription of canonical-Huffman decoding.
    ///
    /// This is the exact reference for the table-driven line decode
    /// behind [`LineCodec::decode_into`] (identical bytes *and*
    /// identical errors at identical bit positions), its slow path for
    /// a symbol the table cannot resolve, and the baseline the
    /// `decoder_bench` target measures the table against.
    ///
    /// # Errors
    ///
    /// [`CompressError::Truncated`] if the stream ends mid-symbol or
    /// [`CompressError::BadSymbol`] on a pattern with no symbol.
    ///
    /// [`LineCodec::decode_into`]: crate::LineCodec::decode_into
    pub fn decode_symbol_reference(&self, reader: &mut BitReader<'_>) -> Result<u8, CompressError> {
        let start = reader.bit_pos();
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            code = (code << 1) | u32::from(reader.read_bit()?);
            let offset = code.wrapping_sub(self.first_code[len]);
            if offset < u32::from(self.counts[len]) {
                let index = self.first_index[len] as usize + offset as usize;
                return Ok(self.ordered[index]);
            }
        }
        Err(CompressError::BadSymbol { at_bit: start })
    }
}

/// Expands one stored line, taking output byte `i` from the code
/// `code_at(i)`: the whole-line decode behind [`LineCodec::decode_into`]
/// for [`ByteCode`] and [`PositionalCode`].
///
/// The first [`LINE_SIZE`] stored bytes are copied into a zero-padded
/// stack buffer, from which each symbol's [`LOOKUP_BITS`] window is one
/// unaligned load, with no per-symbol check for the end of the stream.
/// A compressed line is stored in fewer bytes than that, so the buffer
/// holds all of it. A symbol the table cannot resolve from real bits
/// (a codeword longer than the window, a pattern no codeword prefixes,
/// or a match that runs past the copied bytes) is decoded from its bit
/// position by the exact walk, [`ByteCode::decode_symbol_reference`],
/// over all of `stored`. So the bytes written and the error returned,
/// bit position included, are those of the exact walk alone, run
/// symbol after symbol from the first bit of `stored`, for every block
/// length.
///
/// [`LineCodec::decode_into`]: crate::LineCodec::decode_into
/// [`PositionalCode`]: crate::PositionalCode
pub(crate) fn decode_line<'c>(
    stored: &[u8],
    out: &mut [u8; LINE_SIZE],
    code_at: impl Fn(usize) -> &'c ByteCode,
) -> Result<(), CompressError> {
    // Eight bytes of zeros past the copied ones, so the load at any
    // position before the end of the copied bits stays in bounds.
    let mut padded = [0u8; LINE_SIZE + 8];
    let copied = stored.len().min(LINE_SIZE);
    padded[..copied].copy_from_slice(&stored[..copied]);
    let table_bits = copied * 8;
    let mut pos = 0;
    for (i, slot) in out.iter_mut().enumerate() {
        let code = code_at(i);
        if pos < table_bits {
            // `pos / 8 < LINE_SIZE`, so its eight bytes are in `padded`.
            let mut word = [0u8; 8];
            word.copy_from_slice(&padded[pos / 8..pos / 8 + 8]);
            let window = (u64::from_be_bytes(word) << (pos % 8)) >> (64 - LOOKUP_BITS);
            if let Some((symbol, len)) = code.table.lookup(window as u32) {
                let end = pos + usize::from(len);
                if end <= table_bits {
                    *slot = symbol;
                    pos = end;
                    continue;
                }
            }
        }
        let mut reader = BitReader::new(stored);
        reader.skip(pos as u64)?;
        *slot = code.decode_symbol_reference(&mut reader)?;
        pos = reader.bit_pos() as usize;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LineCodec;
    use proptest::prelude::*;

    /// Decodes `count` symbols from the start of `bytes` by the exact
    /// walk: a stream of any length, where a line decode takes 32.
    fn walk(code: &ByteCode, bytes: &[u8], count: usize) -> Result<Vec<u8>, CompressError> {
        let mut reader = BitReader::new(bytes);
        (0..count)
            .map(|_| code.decode_symbol_reference(&mut reader))
            .collect()
    }

    #[test]
    fn canonical_order_is_monotone() {
        let code = ByteCode::traditional(&ByteHistogram::of(b"aaaabbbccd")).unwrap();
        // 'a' is most frequent -> shortest code.
        assert!(code.length_of(b'a') <= code.length_of(b'b'));
        assert!(code.length_of(b'b') <= code.length_of(b'd'));
    }

    #[test]
    fn rejects_overfull_lengths() {
        let mut lengths = [0u8; 256];
        lengths[0] = 1;
        lengths[1] = 1;
        lengths[2] = 1; // 3 codes of length 1 cannot exist
        assert!(matches!(
            ByteCode::from_lengths(lengths),
            Err(CompressError::InvalidCodeLengths { .. })
        ));
    }

    #[test]
    fn rejects_all_zero() {
        assert!(matches!(
            ByteCode::from_lengths([0u8; 256]),
            Err(CompressError::EmptyHistogram)
        ));
    }

    #[test]
    fn incomplete_code_decodes_assigned_patterns() {
        // lengths {a:1, b:2} leaves pattern 11 unassigned.
        let mut lengths = [0u8; 256];
        lengths[b'a' as usize] = 1;
        lengths[b'b' as usize] = 2;
        let code = ByteCode::from_lengths(lengths).unwrap();
        let line = [*b"ab"; LINE_SIZE / 2].concat();
        let mut out = [0u8; LINE_SIZE];
        code.decode_into(&code.encode(&line), &mut out).unwrap();
        assert_eq!(out[..], line[..]);
        // 0b11... decodes to nothing.
        let err = code.decode_into(&[0b1100_0000], &mut out).unwrap_err();
        assert!(matches!(err, CompressError::BadSymbol { at_bit: 0 }));
    }

    #[test]
    fn truncated_stream_errors() {
        let code = ByteCode::traditional(&ByteHistogram::of(b"abcdefgh")).unwrap();
        let enc = code.encode(&b"abcdefgh".repeat(LINE_SIZE / 8));
        let err = code
            .decode_into(&enc[..1], &mut [0u8; LINE_SIZE])
            .unwrap_err();
        assert!(matches!(err, CompressError::Truncated(_)));
    }

    #[test]
    fn encoded_bits_matches_actual() {
        let data = b"some sample data with repetition repetition repetition";
        let code = ByteCode::bounded(&ByteHistogram::of(data)).unwrap();
        let bits = code.encoded_bits(data);
        let mut w = BitWriter::new();
        code.encode_into(data, &mut w);
        assert_eq!(w.bit_len(), bits);
    }

    #[test]
    fn preselected_covers_foreign_bytes() {
        let corpus = ByteHistogram::of(b"only lowercase text");
        let code = ByteCode::preselected(&corpus).unwrap();
        assert!(code.is_complete_alphabet());
        let foreign = [0u8, 255, 17, 128];
        let enc = code.encode(&foreign);
        assert_eq!(walk(&code, &enc, 4).unwrap(), foreign);
    }

    /// [`ByteCode::from_lengths`] as it was before its one-pass
    /// assignment, kept as the oracle for it: one pass over the 256
    /// symbols per code length. Its two running code values wrap past
    /// the end of a complete 32-bit code as release builds did, where
    /// debug builds panicked on the overflow.
    fn per_length_from_lengths(lengths: [u8; 256]) -> Result<ByteCode, CompressError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len == 0 {
            return Err(CompressError::EmptyHistogram);
        }
        if max_len > 32 {
            return Err(CompressError::LengthTooLong { length: max_len });
        }
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (max_len - l))
            .sum();
        if kraft > 1u64 << max_len {
            return Err(CompressError::InvalidCodeLengths { kraft, max_len });
        }
        let mut counts = [0u16; 33];
        for &l in lengths.iter().filter(|&&l| l > 0) {
            counts[l as usize] += 1;
        }
        let (mut first_code, mut first_index) = ([0u32; 33], [0u16; 33]);
        let (mut code, mut index) = (0u32, 0u16);
        #[allow(clippy::needless_range_loop)] // len is both value and index
        for len in 1..=max_len as usize {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code = code.wrapping_add(u32::from(counts[len]));
            index += counts[len];
        }
        let mut ordered = Vec::with_capacity(index as usize);
        let mut codes = [0u32; 256];
        let mut next = first_code;
        #[allow(clippy::needless_range_loop)] // len is both value and index
        for len in 1..=max_len as usize {
            for sym in 0u16..256 {
                if lengths[sym as usize] as usize == len {
                    codes[sym as usize] = next[len];
                    next[len] = next[len].wrapping_add(1);
                    ordered.push(sym as u8);
                }
            }
        }
        let table = DecodeTable::build(&lengths, &codes)?;
        Ok(ByteCode {
            lengths,
            codes,
            max_len,
            first_code,
            first_index,
            counts,
            ordered,
            table,
        })
    }

    /// Length tables with 1–256 coded symbols and lengths 1–32 that fit
    /// the code space: each drawn length is lengthened until it fits
    /// what earlier symbols left, and the symbol is left uncoded when
    /// even 32 bits do not fit.
    fn kraft_valid_lengths() -> impl Strategy<Value = [u8; 256]> {
        (
            1usize..=256,
            any::<u8>(),
            (0u8..128).prop_map(|s| 2 * s + 1),
            proptest::collection::vec(prop_oneof![1u8..=12, 1u8..=32, 24u8..=32], 256),
        )
            .prop_map(|(symbols, first, stride, drawn)| {
                let mut lengths = [0u8; 256];
                // Code space left, in units of 2^-32.
                let mut space = 1u64 << 32;
                for (k, &len) in drawn.iter().enumerate().take(symbols) {
                    let sym = first.wrapping_add((k as u8).wrapping_mul(stride));
                    if let Some(len) = (len..=32).find(|&l| 1u64 << (32 - l) <= space) {
                        lengths[usize::from(sym)] = len;
                        space -= 1u64 << (32 - len);
                    }
                }
                lengths
            })
    }

    #[test]
    fn complete_32_bit_code_builds() {
        // Lengths 1, 2, ..., 31, 32, 32 fill the code space exactly, so
        // the running code value reaches 2^32 after the last length.
        let mut lengths = [0u8; 256];
        for (sym, len) in (1..=32).chain([32]).enumerate() {
            lengths[sym] = len;
        }
        let code = ByteCode::from_lengths(lengths).unwrap();
        assert_eq!(code.max_length(), 32);
        let symbols: Vec<u8> = (0..33).rev().collect();
        assert_eq!(walk(&code, &code.encode(&symbols), 33).unwrap(), symbols);
    }

    #[test]
    fn table_storage_sizes() {
        let bounded = ByteCode::bounded(&ByteHistogram::of(b"abc")).unwrap();
        assert_eq!(bounded.table_storage_bytes(), 160);
    }

    proptest! {
        #[test]
        fn roundtrip_traditional(data in proptest::collection::vec(any::<u8>(), 1..2000)) {
            let code = ByteCode::traditional(&ByteHistogram::of(&data)).unwrap();
            let enc = code.encode(&data);
            prop_assert_eq!(walk(&code, &enc, data.len()).unwrap(), data);
        }

        #[test]
        fn roundtrip_bounded(data in proptest::collection::vec(any::<u8>(), 1..2000)) {
            let code = ByteCode::bounded(&ByteHistogram::of(&data)).unwrap();
            prop_assert!(code.max_length() <= 16);
            let enc = code.encode(&data);
            prop_assert_eq!(walk(&code, &enc, data.len()).unwrap(), data);
        }

        #[test]
        fn one_pass_assignment_matches_the_per_length_loop(lengths in kraft_valid_lengths()) {
            prop_assert_eq!(ByteCode::from_lengths(lengths), per_length_from_lengths(lengths));
        }

        #[test]
        fn one_pass_assignment_rejects_as_the_per_length_loop(
            lengths in proptest::collection::vec(prop_oneof![Just(0u8), 1u8..=8, any::<u8>()], 256),
        ) {
            let lengths: [u8; 256] = lengths.try_into().unwrap();
            prop_assert_eq!(ByteCode::from_lengths(lengths), per_length_from_lengths(lengths));
        }

        #[test]
        fn bounded_never_beats_traditional(data in proptest::collection::vec(any::<u8>(), 1..1000)) {
            let h = ByteHistogram::of(&data);
            let t = ByteCode::traditional(&h).unwrap();
            let b = ByteCode::bounded(&h).unwrap();
            prop_assert!(t.encoded_bits(&data) <= b.encoded_bits(&data));
        }

        #[test]
        fn entropy_lower_bounds_huffman(data in proptest::collection::vec(any::<u8>(), 1..1000)) {
            let h = ByteHistogram::of(&data);
            let code = ByteCode::traditional(&h).unwrap();
            let avg_bits = code.encoded_bits(&data) as f64 / data.len() as f64;
            prop_assert!(avg_bits + 1e-9 >= h.entropy_bits());
            prop_assert!(avg_bits <= h.entropy_bits() + 1.0);
        }
    }
}
