//! Challenge-response attestation over v2 containers.
//!
//! A verifier that shipped a compressed ROM wants evidence the deployed
//! image still holds the bytes it shipped — without downloading it
//! back. The protocol: the verifier picks a random nonce; the device
//! walks a nonce-selected sample of its lines, decompressing each
//! through the real Huffman path, and folds the decompressed bytes'
//! CRC-32, the *stored* per-block CRC record, and the line index into
//! one 64-bit digest. The verifier recomputes the digest from its
//! pristine copy and compares. Because the walk decodes the stored
//! blocks (rather than trusting the CRC records alone), a corrupted
//! block surfaces either as a decode-time CRC mismatch or as a digest
//! that cannot match the pristine image.

use ccrp::{crc32, CcrpError, CompressedImage, SplitMix64};

/// Hard cap on lines sampled per challenge, keeping attestation cost
/// bounded no matter what the request asks for.
pub const MAX_ATTEST_SAMPLES: u32 = 256;

/// Computes the challenge digest for `nonce` over up to `samples`
/// nonce-selected lines of a v2 image.
///
/// Both sides of the protocol call this: the device on its deployed
/// image, the verifier on its pristine copy.
///
/// # Errors
///
/// - [`CcrpError::BadContainer`] when the image carries no block CRC
///   records (a v1 image) or has no lines.
/// - Any expansion error (e.g. [`CcrpError::CrcMismatch`]) from walking
///   a corrupted block.
pub fn attest_digest(
    image: &CompressedImage,
    nonce: u64,
    samples: u32,
) -> Result<(u64, u32), CcrpError> {
    let crcs = image.block_crcs().ok_or(CcrpError::BadContainer {
        what: "attestation requires a version-2 container",
    })?;
    let lines = image.line_count();
    if lines == 0 {
        return Err(CcrpError::BadContainer {
            what: "attestation requires a non-empty container",
        });
    }
    let sampled = samples.clamp(1, MAX_ATTEST_SAMPLES);
    // The nonce expands into the line sample.
    let mut rng = SplitMix64::new(nonce);
    let mut digest = nonce ^ 0xA076_1D64_78BD_642F;
    let mut buf = [0u8; 32];
    for _ in 0..sampled {
        let line = (rng.next_u64() % lines as u64) as u32;
        image.expand_line_into(line * 32 + image.text_base(), &mut buf)?;
        let expanded_crc = crc32(&buf);
        let stored_crc = crcs.get(line as usize).copied().unwrap_or(0);
        digest ^= (u64::from(expanded_crc) << 32) | u64::from(stored_crc);
        digest = digest
            .rotate_left(17)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(line));
    }
    Ok((digest, sampled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    fn v2_image() -> CompressedImage {
        let text: Vec<u8> = (0..4096u32).map(|i| (i % 61) as u8).collect();
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let mut image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        image.attach_block_crcs();
        image
    }

    #[test]
    fn digest_is_deterministic_and_nonce_sensitive() {
        let image = v2_image();
        let (a, sampled) = attest_digest(&image, 42, 16).unwrap();
        let (b, _) = attest_digest(&image, 42, 16).unwrap();
        let (c, _) = attest_digest(&image, 43, 16).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(sampled, 16);
    }

    #[test]
    fn v1_image_is_rejected() {
        let text = vec![0x24u8; 128];
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let v1 = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        assert!(matches!(
            attest_digest(&v1, 1, 4),
            Err(CcrpError::BadContainer { .. })
        ));
    }

    #[test]
    fn corruption_changes_or_fails_the_digest() {
        let pristine = v2_image();
        let (expected, _) = attest_digest(&pristine, 7, MAX_ATTEST_SAMPLES).unwrap();
        let mut corrupt = v2_image();
        corrupt.corrupt_block_byte(0, 0, 0xFF).unwrap();
        // With 256 samples over a 128-line image, line 0 is sampled with
        // overwhelming probability; either the decode trips its CRC or
        // the digest diverges.
        match attest_digest(&corrupt, 7, MAX_ATTEST_SAMPLES) {
            Ok((digest, _)) => assert_ne!(digest, expected),
            Err(CcrpError::CrcMismatch { .. }) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn sample_count_is_clamped() {
        let image = v2_image();
        let (_, sampled) = attest_digest(&image, 1, 0).unwrap();
        assert_eq!(sampled, 1);
        let (_, sampled) = attest_digest(&image, 1, u32::MAX).unwrap();
        assert_eq!(sampled, MAX_ATTEST_SAMPLES);
    }
}
