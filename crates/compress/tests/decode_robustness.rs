//! Decoder robustness: every line decoder must terminate with `Ok` or
//! a structured [`CompressError`] on *arbitrary* stored bytes — never
//! panic, never loop. The container loader and the refill engine feed
//! these decoders bytes read straight from (possibly corrupt) ROM, so
//! this property is what keeps a bad block from taking the processor
//! down with it.

use ccrp_compress::block::decompress_line_into;
use ccrp_compress::{
    bounded_lengths, ByteCode, ByteHistogram, CompressError, CompressedLine, LineCodec,
    LzwLineCodec, PositionalCode, PositionalHistogram, LINE_SIZE, PAPER_MAX_LEN,
};
use proptest::prelude::*;

/// A skewed sample over all 256 bytes with a heavy head, whose bounded
/// code has symbol lengths all the way up to the paper's 16-bit cap.
fn stress_sample() -> Vec<u8> {
    let mut sample = Vec::new();
    for byte in 0u16..=255 {
        let weight = 1 + (1usize << (12 - (byte / 24).min(12)));
        sample.extend(std::iter::repeat_n(byte as u8, weight));
    }
    sample
}

/// The bounded code of [`stress_sample`].
fn stress_code() -> ByteCode {
    ByteCode::bounded(&ByteHistogram::of(&stress_sample())).expect("stress code builds")
}

proptest! {
    #[test]
    fn decode_of_arbitrary_bytes_terminates_structurally(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let positional =
            PositionalCode::preselected(&PositionalHistogram::of(&stress_sample())).unwrap();
        let codecs: [&dyn LineCodec; 3] = [&stress_code(), &positional, &LzwLineCodec];
        for codec in codecs {
            match codec.decode_into(&bytes, &mut [0u8; LINE_SIZE]) {
                Ok(())
                | Err(
                    CompressError::Truncated { .. }
                    | CompressError::BadSymbol { .. }
                    | CompressError::BadLzwCode { .. },
                ) => {}
                Err(other) => prop_assert!(false, "{}: unexpected error class: {other}", codec.id()),
            }
        }
    }

    #[test]
    fn lengths_respect_the_paper_bound(seed in any::<u64>()) {
        // Random histograms never produce a symbol longer than 16 bits.
        let mut state = seed | 1;
        let mut sample = Vec::new();
        for byte in 0u16..=255 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let weight = (state >> 56) as usize;
            sample.extend(std::iter::repeat_n(byte as u8, weight));
        }
        if sample.is_empty() {
            sample.push(0);
        }
        let lengths = bounded_lengths(&ByteHistogram::of(&sample), PAPER_MAX_LEN).unwrap();
        prop_assert!(lengths.iter().all(|&l| l <= PAPER_MAX_LEN));
    }

    #[test]
    fn stored_line_expansion_never_panics(
        stored in proptest::collection::vec(any::<u8>(), 1..=32),
        bypass in any::<bool>(),
    ) {
        // The per-line wrapper: arbitrary stored bytes either expand to
        // exactly one 32-byte line or fail with a structured error.
        let code = stress_code();
        let bypass = bypass && stored.len() == 32;
        if let Ok(line) = CompressedLine::from_stored_checked(stored, bypass) {
            match decompress_line_into(&code, &line, &mut [0u8; LINE_SIZE]) {
                Ok(()) => {}
                Err(
                    CompressError::Truncated { .. }
                    | CompressError::BadSymbol { .. }
                    | CompressError::BadStoredLength { .. },
                ) => {}
                Err(other) => prop_assert!(false, "unexpected error class: {other}"),
            }
        }
    }
}
