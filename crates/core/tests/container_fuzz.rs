//! Container robustness: arbitrary corruption of a serialized image
//! must surface as a clean error or a loadable-but-different image —
//! never a panic. A ROM loader lives on this property.

use ccrp::CompressedImage;
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
use proptest::prelude::*;

fn sample_container() -> Vec<u8> {
    let mut text = vec![0u8; 2048];
    let mut x = 3u32;
    for (i, byte) in text.iter_mut().enumerate() {
        x = x.wrapping_mul(48271);
        *byte = if i % 3 == 0 { (x >> 27) as u8 } else { 0x24 };
    }
    let code = ByteCode::preselected(&ByteHistogram::of(&text)).expect("code builds");
    CompressedImage::build(0, &text, code, BlockAlignment::Word)
        .expect("builds")
        .to_bytes()
}

proptest! {
    #[test]
    fn single_byte_corruption_never_panics(
        index in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut bytes = sample_container();
        let index = index % bytes.len();
        bytes[index] ^= flip;
        // Either a clean parse error, or a structurally valid image —
        // whose accessors must also hold up.
        if let Ok(image) = CompressedImage::from_bytes(&bytes) {
            let _ = image.compression_ratio();
            let _ = image.verify();
            for line in 0..image.line_count().min(4) {
                let _ = image.expand_line(image.text_base() + line as u32 * 32);
            }
        }
    }

    #[test]
    fn truncation_never_panics(keep in 0usize..4096) {
        let bytes = sample_container();
        let keep = keep % (bytes.len() + 1);
        prop_assert!(CompressedImage::from_bytes(&bytes[..keep]).is_err() || keep == bytes.len());
    }

    #[test]
    fn random_garbage_never_parses(noise in proptest::collection::vec(any::<u8>(), 0..600)) {
        // Without the magic, parsing must fail immediately.
        if noise.len() < 4 || &noise[0..4] != b"CCRP" {
            prop_assert!(CompressedImage::from_bytes(&noise).is_err());
        }
    }
}

/// A loaded container saves back to exactly the bytes it was loaded
/// from: the image keeps the block section it was given, rather than
/// re-packing the blocks its (possibly corrupt) LAT locates.
#[test]
fn loadable_corruptions_save_back_verbatim() {
    let pristine = sample_container();
    let mut loaded = 0;
    for offset in 0..pristine.len() {
        for mask in [0x01, 0x10, 0x80, 0xFF] {
            let mut bytes = pristine.clone();
            bytes[offset] ^= mask;
            if let Ok(image) = CompressedImage::from_bytes(&bytes) {
                loaded += 1;
                assert!(image.to_bytes() == bytes, "byte {offset} ^ {mask:#04x}");
            }
        }
    }
    assert!(loaded > pristine.len(), "only {loaded} corruptions load");
}

/// Block corruption flips one ROM byte in place: the line's physical
/// address plus the offset, and no other.
#[test]
fn block_corruption_flips_exactly_one_packed_byte() {
    let image = CompressedImage::from_bytes(&sample_container()).expect("loads");
    for line in 0..image.line_count() {
        let loc = image.locate(line as u32 * 32).expect("locates");
        for k in [0, loc.stored_len as usize - 1] {
            let mut corrupt = image.clone();
            corrupt.corrupt_block_byte(line, k, 0x5A).expect("corrupts");
            let mut expected = image.packed_blocks().to_vec();
            expected[loc.physical as usize + k] ^= 0x5A;
            assert_eq!(corrupt.packed_blocks(), expected, "line {line} byte {k}");
        }
    }
}
