//! Differential testing of the whole-line table decode against the
//! canonical bit-walk reference.
//!
//! [`LineCodec::decode_into`] for [`ByteCode`] and [`PositionalCode`]
//! (a lookup per symbol from a zero-padded window, with the bit walk
//! for a symbol the table cannot resolve) and [`exact_line`] (only
//! [`ByteCode::decode_symbol_reference`], symbol after symbol) must be
//! observationally identical on *every* block — well-formed lines,
//! truncated lines, lines followed by more bytes, garbage, and foreign
//! bytes pushed through a mismatched preselected code. Identical means:
//! the same bytes written and the same `Result`, the error variant and
//! its bit position included. That identity is what lets the committed
//! BENCH files (simulated cycle counts included) reproduce
//! byte-for-byte on the table decoder.

use ccrp_bitstream::{BitReader, BitWriter};
use ccrp_compress::{
    ByteCode, ByteHistogram, CompressError, LineCodec, PositionalCode, LINE_SIZE, LOOKUP_BITS,
    POSITIONS,
};
use proptest::prelude::*;

/// The exact line decode: one [`ByteCode::decode_symbol_reference`]
/// walk per output byte, the code for byte `i` being `code_at(i)`, from
/// a [`BitReader`] over the stored block. It uses no lookup table.
fn exact_line<'c>(
    code_at: impl Fn(usize) -> &'c ByteCode,
    stored: &[u8],
    out: &mut [u8; LINE_SIZE],
) -> Result<(), CompressError> {
    let mut reader = BitReader::new(stored);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = code_at(i).decode_symbol_reference(&mut reader)?;
    }
    Ok(())
}

/// Checks that `codec` expands `stored` as [`exact_line`] does: the
/// same `Result`, error position included, and the same bytes written
/// before it, from a buffer that starts out the same.
fn assert_line_matches_exact<'c>(
    codec: &dyn LineCodec,
    code_at: impl Fn(usize) -> &'c ByteCode,
    stored: &[u8],
) {
    let (mut got, mut want) = ([0xA5; LINE_SIZE], [0xA5; LINE_SIZE]);
    let result = codec.decode_into(stored, &mut got);
    assert_eq!(
        result,
        exact_line(code_at, stored, &mut want),
        "{stored:02x?}"
    );
    assert_eq!(got, want, "{stored:02x?}");
}

/// A bounded code from a seeded random histogram; seeds cover skews
/// from near-uniform (short codes, all fast path) to heavy-headed
/// (long codes past [`LOOKUP_BITS`], exercising the slow-path marker).
fn seeded_code(seed: u64) -> ByteCode {
    let mut state = seed | 1;
    let mut sample = Vec::new();
    for byte in 0u16..=255 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Exponential-ish weights: a few very hot symbols, a long tail.
        let weight = 1 + ((state >> 48) as usize >> ((byte / 16) % 12));
        sample.extend(std::iter::repeat_n(byte as u8, weight));
    }
    ByteCode::bounded(&ByteHistogram::of(&sample)).expect("seeded code builds")
}

/// The parameters of one [`line_code`]: `(kind, deepest, first, stride,
/// seed)`.
type CodeParams = (u8, u8, u8, u8, u64);

/// One code for the whole-line tests, by `kind`:
/// - trained on `text` as it is, so bytes outside it have no codeword;
/// - trained on `text` smoothed, so every byte has one;
/// - a chain of lengths 1, 2, ..., `deepest` - 1, `deepest`, `deepest`
///   over bytes spread by an odd `stride` from `first`, whose longest
///   codewords run past the window;
/// - [`seeded_code`]`(seed)`, heavy-headed;
/// - the preselected code of a corpus of code-like words, to which the
///   garbage blocks are foreign bytes: the paper's hardwired decoder
///   meeting a program outside its training corpus;
/// - the one-symbol code of `first`, whose one codeword is `0`.
fn line_code(text: &[u8], (kind, deepest, first, stride, seed): CodeParams) -> ByteCode {
    match kind % 6 {
        0 => ByteCode::bounded(&ByteHistogram::of(text)).expect("text is not empty"),
        1 => ByteCode::preselected(&ByteHistogram::of(text)).expect("smoothed"),
        2 => {
            let mut lengths = [0u8; 256];
            for (k, len) in (1..=deepest).chain([deepest]).enumerate() {
                lengths[usize::from(first.wrapping_add((k as u8).wrapping_mul(stride)))] = len;
            }
            ByteCode::from_lengths(lengths).expect("a complete chain")
        }
        3 => seeded_code(seed),
        4 => {
            let corpus: Vec<u8> = (0..4096u32)
                .flat_map(|i| (0x2402_0000u32 | (i & 0xFF)).to_le_bytes())
                .collect();
            ByteCode::preselected(&ByteHistogram::of(&corpus)).expect("smoothed")
        }
        _ => {
            let mut lengths = [0u8; 256];
            lengths[usize::from(first)] = 1;
            ByteCode::from_lengths(lengths).expect("one codeword fits")
        }
    }
}

/// Draws the parameters of one [`line_code`].
fn line_code_params() -> impl Strategy<Value = CodeParams> {
    (
        any::<u8>(),
        (LOOKUP_BITS as u8 + 1)..=32,
        any::<u8>(),
        (0u8..128).prop_map(|s| 2 * s + 1),
        any::<u64>(),
    )
}

/// A line the codes can encode: byte `i` is drawn from the bytes
/// `code_at(i)` has a codeword for.
fn encodable_line<'c>(code_at: impl Fn(usize) -> &'c ByteCode, picks: &[u16]) -> [u8; LINE_SIZE] {
    std::array::from_fn(|i| {
        let alphabet: Vec<u8> = (0..=255).filter(|&b| code_at(i).length_of(b) > 0).collect();
        alphabet[usize::from(picks[i]) % alphabet.len()]
    })
}

/// The blocks each whole-line case decodes: the encoded line cut after
/// every bit (the dropped bits of a partial last byte zeroed), the line
/// followed by `tail` (longer than a line once the two pass
/// [`LINE_SIZE`] bytes), and `garbage` alone.
fn blocks(encoded: &[u8], tail: &[u8], garbage: &[u8]) -> Vec<Vec<u8>> {
    let mut blocks: Vec<Vec<u8>> = (0..=encoded.len() * 8)
        .map(|bits| {
            let mut cut = encoded[..bits.div_ceil(8)].to_vec();
            if let Some(last) = cut.last_mut().filter(|_| bits % 8 != 0) {
                *last &= 0xFF << (8 - bits % 8);
            }
            cut
        })
        .collect();
    blocks.push([encoded, tail].concat());
    blocks.push(garbage.to_vec());
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ByteCode`'s whole-line decode writes the same bytes and returns
    /// the same `Result` as the exact walk, on valid blocks, their
    /// truncations, blocks longer than a line, and garbage.
    #[test]
    fn byte_code_lines_decode_as_the_exact_walk(
        text in proptest::collection::vec(any::<u8>(), 1..200),
        params in line_code_params(),
        picks in proptest::collection::vec(any::<u16>(), LINE_SIZE),
        tail in proptest::collection::vec(any::<u8>(), 0..100),
        garbage in proptest::collection::vec(any::<u8>(), 0..=96),
    ) {
        let code = line_code(&text, params);
        let line = encodable_line(|_| &code, &picks);
        let encoded = code.encode(&line);
        for block in blocks(&encoded, &tail, &garbage) {
            assert_line_matches_exact(&code, |_| &code, &block);
        }
        let mut out = [0; LINE_SIZE];
        prop_assert_eq!(LineCodec::decode_into(&code, &encoded, &mut out), Ok(()));
        prop_assert_eq!(out, line);
    }

    /// The same for `PositionalCode`, whose four sub-codes each take
    /// their own kind.
    #[test]
    fn positional_lines_decode_as_the_exact_walk(
        text in proptest::collection::vec(any::<u8>(), 1..200),
        params in proptest::collection::vec(line_code_params(), POSITIONS),
        picks in proptest::collection::vec(any::<u16>(), LINE_SIZE),
        tail in proptest::collection::vec(any::<u8>(), 0..100),
        garbage in proptest::collection::vec(any::<u8>(), 0..=96),
    ) {
        let codes: [ByteCode; POSITIONS] = std::array::from_fn(|p| line_code(&text, params[p]));
        let positional = PositionalCode::from_codes(codes);
        let code_at = |i: usize| positional.position(i);
        let line = encodable_line(code_at, &picks);
        let mut writer = BitWriter::new();
        LineCodec::encode_into(&positional, &line, &mut writer);
        let encoded = writer.into_bytes();
        for block in blocks(&encoded, &tail, &garbage) {
            assert_line_matches_exact(&positional, code_at, &block);
        }
        let mut out = [0; LINE_SIZE];
        prop_assert_eq!(LineCodec::decode_into(&positional, &encoded, &mut out), Ok(()));
        prop_assert_eq!(out, line);
    }
}

/// The degenerate 1-symbol code: a single length-1 codeword leaves half
/// the lookup window on the slow-path marker and the other half mapping
/// to the lone symbol. Table construction must succeed (never panic),
/// and the line decode must agree with the walk on hits and on the
/// `BadSymbol` miss.
#[test]
fn one_symbol_code_builds_and_decodes() {
    let mut lengths = [0u8; 256];
    lengths[b'x' as usize] = 1;
    let code = ByteCode::from_lengths(lengths).expect("1-symbol code builds");
    assert!(!code.is_complete_alphabet());
    assert!(code.decode_table().fast_fraction() > 0.0);

    // The codeword is `0`: four zero bytes decode to 32 'x's.
    let mut out = [0u8; LINE_SIZE];
    assert_eq!(LineCodec::decode_into(&code, &[0; 4], &mut out), Ok(()));
    assert_eq!(out, [b'x'; LINE_SIZE]);
    assert_line_matches_exact(&code, |_| &code, &[0; 4]);

    // A `1` bit is no codeword at all: `BadSymbol` at bit 0.
    assert_eq!(
        LineCodec::decode_into(&code, &[0x80], &mut out),
        Err(CompressError::BadSymbol { at_bit: 0 })
    );
    assert_line_matches_exact(&code, |_| &code, &[0x80]);
}

/// A bounded code whose longest codewords exceed the lookup window
/// still expands every line as the walk does — the marker entries
/// route those codewords to the walk.
#[test]
fn codes_longer_than_the_window_round_trip() {
    // Skewed enough that bounded() assigns lengths past LOOKUP_BITS.
    let mut sample = Vec::new();
    for byte in 0u16..=255 {
        let weight = 1usize << (14 - (byte / 20).min(13));
        sample.extend(std::iter::repeat_n(byte as u8, weight));
    }
    let code = ByteCode::bounded(&ByteHistogram::of(&sample)).unwrap();
    assert!(
        u32::from(code.max_length()) > LOOKUP_BITS,
        "corpus must force codes past the window (max {})",
        code.max_length()
    );
    let symbols: Vec<u8> = (0..=255).collect();
    for line in symbols.chunks_exact(LINE_SIZE) {
        let encoded = code.encode(line);
        let mut out = [0u8; LINE_SIZE];
        assert_eq!(LineCodec::decode_into(&code, &encoded, &mut out), Ok(()));
        assert_eq!(out[..], *line);
        assert_line_matches_exact(&code, |_| &code, &encoded);
    }
}
