//! Differential testing of the table-driven fast decoder against the
//! canonical bit-walk reference.
//!
//! [`ByteCode::decode_symbol`] (LUT fast path with bit-walk fallback)
//! and [`ByteCode::decode_symbol_reference`] (the pre-table decoder)
//! must be observationally identical on *every* input — well-formed
//! streams, corrupt streams, truncated streams, and foreign-program
//! bytes pushed through a mismatched preselected code. Identical means:
//! the same symbols in the same order, the same error variant at the
//! same bit position, and the same reader position after every step.
//! That identity is what lets the committed BENCH files (simulated
//! cycle counts included) reproduce byte-for-byte across the decoder
//! swap.

use ccrp_bitstream::{BitReader, BitWriter};
use ccrp_compress::{
    ByteCode, ByteHistogram, CompressError, LineCodec, PositionalCode, LINE_SIZE, LOOKUP_BITS,
    POSITIONS,
};
use proptest::prelude::*;

/// Decodes `count` symbols through both paths in lock step, asserting
/// identical results (Ok symbol or error value) and identical reader
/// positions after every symbol.
fn assert_paths_identical(code: &ByteCode, bytes: &[u8], count: usize) {
    let mut fast = BitReader::new(bytes);
    let mut reference = BitReader::new(bytes);
    for step in 0..count {
        let a = code.decode_symbol(&mut fast);
        let b = code.decode_symbol_reference(&mut reference);
        assert_eq!(
            a,
            b,
            "paths diverged at symbol {step} (bit {})",
            reference.bit_pos()
        );
        assert_eq!(fast.bit_pos(), reference.bit_pos());
        if a.is_err() {
            break;
        }
    }
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

proptest! {
    /// Round-trip: encoded well-formed streams decode identically (and
    /// correctly) on both paths.
    #[test]
    fn round_trip_streams_decode_identically(
        seed in any::<u64>(),
        symbols in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let code = seeded_code(seed);
        let bytes = code.encode(&symbols);
        assert_paths_identical(&code, &bytes, symbols.len());
        // And the fast path is actually *right*, not just consistent.
        prop_assert_eq!(code.decode(&bytes, symbols.len()).unwrap(), symbols);
    }

    /// Corrupt streams: arbitrary garbage bytes produce the same symbols
    /// or the same structured error at the same bit position.
    #[test]
    fn corrupt_streams_decode_identically(
        seed in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        count in 0usize..64,
    ) {
        assert_paths_identical(&seeded_code(seed), &bytes, count);
    }

    /// Truncated streams: cutting a valid stream mid-codeword must
    /// surface the same `Truncated`/`BadSymbol` error from both paths.
    /// The zero-padded lookup window must never fabricate a symbol the
    /// bit-walk would refuse.
    #[test]
    fn truncated_streams_fail_identically(
        seed in any::<u64>(),
        symbols in proptest::collection::vec(any::<u8>(), 1..64),
        cut_bits in any::<u16>(),
    ) {
        let code = seeded_code(seed);
        let bytes = code.encode(&symbols);
        let total_bits = bytes.len() * 8;
        let keep_bits = cut_bits as usize % total_bits.max(1);
        let mut cut = bytes[..keep_bits.div_ceil(8)].to_vec();
        if !keep_bits.is_multiple_of(8) {
            if let Some(last) = cut.last_mut() {
                // Zero the dropped tail bits of the final partial byte.
                *last &= 0xFFu8 << (8 - keep_bits % 8);
            }
        }
        assert_paths_identical(&code, &cut, symbols.len());
    }

    /// Foreign-program bytes through a preselected code: a code trained
    /// on one corpus decoding bytes from a *different* program is the
    /// paper's deployment scenario for the hardwired decoder, and a rich
    /// source of slow-path hits and BadSymbol exits.
    #[test]
    fn foreign_bytes_through_preselected_code(
        foreign in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        // Train on synthetic "code-like" material with a skewed head.
        let mut corpus = Vec::new();
        for i in 0..4096u32 {
            corpus.extend_from_slice(&(0x2402_0000u32 | (i & 0xFF)).to_le_bytes());
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&corpus)).unwrap();
        assert_paths_identical(&code, &foreign, foreign.len());
    }
}

/// The degenerate 1-symbol code: a single length-1 codeword leaves half
/// the lookup window on the slow-path marker and the other half mapping
/// to the lone symbol. Table construction must succeed (never panic),
/// and both decode paths must agree on hits and on the `BadSymbol` miss.
#[test]
fn one_symbol_code_builds_and_decodes() {
    let mut lengths = [0u8; 256];
    lengths[b'x' as usize] = 1;
    let code = ByteCode::from_lengths(lengths).expect("1-symbol code builds");
    assert!(!code.is_complete_alphabet());
    assert!(code.decode_table().fast_fraction() > 0.0);

    // Codeword is `0`: a zero byte decodes to eight 'x's on both paths.
    assert_eq!(code.decode(&[0x00], 8).unwrap(), vec![b'x'; 8]);
    assert_paths_identical(&code, &[0x00], 8);

    // A `1` bit is no codeword at all: identical BadSymbol at bit 0.
    let err = code.decode(&[0x80], 1).unwrap_err();
    assert_eq!(err, CompressError::BadSymbol { at_bit: 0 });
    assert_paths_identical(&code, &[0x80], 1);
}

/// Codes whose longest codeword exceeds the lookup window still decode
/// every symbol identically — the marker entries route those codewords
/// to the reference walk.
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
    let bytes = code.encode(&symbols);
    assert_eq!(code.decode(&bytes, symbols.len()).unwrap(), symbols);
    assert_paths_identical(&code, &bytes, symbols.len());
}

/// The line decode [`LineCodec::decode_into`] ran before the whole-line
/// window, kept as its reference: one [`ByteCode::decode_symbol`] per
/// output byte, the code for byte `i` being `code_at(i)`, from a
/// [`BitReader`] over the stored block.
fn exact_line<'c>(
    code_at: impl Fn(usize) -> &'c ByteCode,
    stored: &[u8],
    out: &mut [u8; LINE_SIZE],
) -> Result<(), CompressError> {
    let mut reader = BitReader::new(stored);
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = code_at(i).decode_symbol(&mut reader)?;
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

/// One code for the whole-line tests, by `kind`: trained on `text` as
/// it is, so bytes outside it have no codeword; trained on `text`
/// smoothed, so every byte has one; or a chain of lengths 1, 2, ...,
/// `deepest` - 1, `deepest`, `deepest` over bytes spread by an odd
/// stride from `first`, whose longest codewords run past the window.
fn line_code(kind: u8, text: &[u8], deepest: u8, first: u8, stride: u8) -> ByteCode {
    match kind % 3 {
        0 => ByteCode::bounded(&ByteHistogram::of(text)).expect("text is not empty"),
        1 => ByteCode::preselected(&ByteHistogram::of(text)).expect("smoothed"),
        _ => {
            let mut lengths = [0u8; 256];
            for (k, len) in (1..=deepest).chain([deepest]).enumerate() {
                lengths[usize::from(first.wrapping_add((k as u8).wrapping_mul(stride)))] = len;
            }
            ByteCode::from_lengths(lengths).expect("a complete chain")
        }
    }
}

/// The parameters of one [`line_code`].
fn line_code_params() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    (
        any::<u8>(),
        (LOOKUP_BITS as u8 + 1)..=32,
        any::<u8>(),
        (0u8..128).prop_map(|s| 2 * s + 1),
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

/// The blocks each whole-line case decodes: the encoded line, every
/// truncation of it, the line followed by `tail` (longer than a line
/// once the two pass [`LINE_SIZE`] bytes), and `garbage` alone.
fn blocks(encoded: &[u8], tail: &[u8], garbage: &[u8]) -> Vec<Vec<u8>> {
    let mut blocks: Vec<Vec<u8>> = (0..=encoded.len())
        .map(|cut| encoded[..cut].to_vec())
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
        (kind, deepest, first, stride) in line_code_params(),
        picks in proptest::collection::vec(any::<u16>(), LINE_SIZE),
        tail in proptest::collection::vec(any::<u8>(), 0..100),
        garbage in proptest::collection::vec(any::<u8>(), 0..=40),
    ) {
        let code = line_code(kind, &text, deepest, first, stride);
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
        garbage in proptest::collection::vec(any::<u8>(), 0..=40),
    ) {
        let codes: [ByteCode; POSITIONS] = std::array::from_fn(|p| {
            let (kind, deepest, first, stride) = params[p];
            line_code(kind, &text, deepest, first, stride)
        });
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
