//! On-disk container for compressed program images.
//!
//! What an embedded build flow burns into the instruction ROM plus the
//! metadata a loader/debugger needs. Layout (all integers little-endian,
//! as on the DECstation):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CCRP"
//! 4       2     format version (1 or 2)
//! 6       1     alignment (0 = byte, 1 = word)
//! 7       1     codec id (0 = byte-Huffman, 1 = positional, 2 = LZW)
//! 8       4     text base (CPU address)
//! 12      4     original text bytes (multiple of 32)
//! 16      4     packed block bytes
//! 20      4     LAT base (physical address of the table)
//! 24      256   code table: canonical length of each byte value
//! 280     —     codec parameters (positional: 3×256 more length tables)
//! …       —     packed compressed blocks
//! …       —     encoded LAT (8 bytes per entry)
//! ```
//!
//! Byte 7 was written as a reserved zero before codecs existed, which is
//! exactly the byte-Huffman codec id — every pre-codec container still
//! loads, version-aware, as byte-Huffman with an empty codec-parameter
//! section. Byte-Huffman and LZW containers carry no codec parameters,
//! so their layout is bit-identical to the pre-codec format.
//!
//! Version 2 appends an integrity section after the LAT — a CRC-32 over
//! the header and codec parameters, then one CRC-32 per stored block:
//!
//! ```text
//! …       4     header CRC-32 (over bytes 0..280+params)
//! …       4×N   per-block CRC-32, one per cache line
//! ```
//!
//! Everything before the integrity section is laid out identically, so a
//! v2 container is a v1 container plus trailing records and version-1
//! readers of old images keep working. The per-block CRCs are what turn
//! a flipped ROM bit that still decodes into *valid wrong bytes* — a
//! silent miscompare — into a detected [`CcrpError::CrcMismatch`].
//!
//! Deserialization rebuilds the original text by running every block
//! through the decoder, so a loaded image is verified by construction.
//! It keeps the block section as its ROM, so saving it writes the
//! section back verbatim.

use ccrp_compress::{codec_from_container, BlockAlignment, CodecId};

use crate::crc::crc32;
use crate::error::CcrpError;
use crate::fault::ContainerLayout;
use crate::image::CompressedImage;
use crate::lat::ENTRY_BYTES;

const MAGIC: &[u8; 4] = b"CCRP";
const VERSION: u16 = 1;
const VERSION_V2: u16 = 2;
const HEADER_BYTES: usize = 280;

/// Parses the section byte-ranges out of a serialized container without
/// decoding any block (the basis for [`ContainerLayout::of`]).
pub(crate) fn layout_of(bytes: &[u8]) -> Result<ContainerLayout, CcrpError> {
    let bad = |what: &'static str| CcrpError::BadContainer { what };
    if bytes.len() < HEADER_BYTES {
        return Err(bad("shorter than the fixed header"));
    }
    if &bytes[0..4] != MAGIC {
        return Err(bad("magic is not \"CCRP\""));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION && version != VERSION_V2 {
        return Err(bad("unsupported format version"));
    }
    let codec = CodecId::from_byte(bytes[7]).ok_or_else(|| bad("unknown codec id"))?;
    let word =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    let original_bytes = word(12) as usize;
    let block_bytes = word(16) as usize;
    if !original_bytes.is_multiple_of(32) {
        return Err(bad("original size is not a whole number of lines"));
    }
    let lines = original_bytes / 32;
    let lat_entries = lines.div_ceil(crate::lat::RECORDS_PER_ENTRY);
    // The header fields are attacker-controlled: every section end is
    // computed with checked arithmetic and rejected against the actual
    // buffer *before* any caller trusts a range or sizes an allocation,
    // so a pathological header can neither wrap the offsets (32-bit
    // hosts) nor drive a `Vec::with_capacity` beyond the input size.
    let oversize = || bad("header-declared sizes exceed the container");
    let bounded = |end: usize| {
        if end > bytes.len() {
            Err(oversize())
        } else {
            Ok(end)
        }
    };
    let params_end = bounded(
        HEADER_BYTES
            .checked_add(codec.params_len())
            .ok_or_else(oversize)?,
    )?;
    let blocks_end = bounded(params_end.checked_add(block_bytes).ok_or_else(oversize)?)?;
    let lat_bytes = lat_entries.checked_mul(ENTRY_BYTES).ok_or_else(oversize)?;
    let lat_end = bounded(blocks_end.checked_add(lat_bytes).ok_or_else(oversize)?)?;
    let crc_bytes = if version == VERSION_V2 {
        lines
            .checked_mul(4)
            .and_then(|records| records.checked_add(4))
            .ok_or_else(oversize)?
    } else {
        0
    };
    let crc_end = bounded(lat_end.checked_add(crc_bytes).ok_or_else(oversize)?)?;
    let blocks = params_end..blocks_end;
    let lat = blocks_end..lat_end;
    let crc = lat_end..crc_end;
    if bytes.len() != crc.end {
        return Err(bad("container length disagrees with header"));
    }
    Ok(ContainerLayout {
        total: crc.end,
        header: 0..24,
        code_table: 24..HEADER_BYTES,
        codec_params: HEADER_BYTES..params_end,
        codec,
        blocks,
        lat,
        crc,
        version,
    })
}

impl CompressedImage {
    /// Serializes the image to the container format. The codec id lands
    /// in header byte 7 (zero — the historical reserved value — for the
    /// default byte-Huffman codec, so pre-codec readers and images
    /// interoperate).
    pub fn to_bytes(&self) -> Vec<u8> {
        let blocks = self.packed_blocks();
        let lat = self.lat().encode();
        let params = self.codec().extra_params();
        let mut out = Vec::with_capacity(HEADER_BYTES + params.len() + blocks.len() + lat.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(match self.alignment() {
            BlockAlignment::Byte => 0,
            BlockAlignment::Word => 1,
        });
        out.push(self.codec().id().byte());
        out.extend_from_slice(&self.text_base().to_le_bytes());
        out.extend_from_slice(&self.original_bytes().to_le_bytes());
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.lat_base().to_le_bytes());
        out.extend_from_slice(&self.codec().header_table());
        out.extend_from_slice(&params);
        out.extend_from_slice(blocks);
        out.extend_from_slice(&lat);
        out
    }

    /// Serializes the image to the version-2 container format: identical
    /// to [`to_bytes`](Self::to_bytes) up through the LAT, with the
    /// header CRC-32 (covering the fixed header plus any codec
    /// parameters) and per-block CRC-32 records appended.
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        let mut out = self.to_bytes();
        out[4..6].copy_from_slice(&VERSION_V2.to_le_bytes());
        let protected = HEADER_BYTES + self.codec().id().params_len();
        out.extend_from_slice(&crc32(&out[..protected]).to_le_bytes());
        for record in self.block_crc_records() {
            out.extend_from_slice(&record.to_le_bytes());
        }
        out
    }

    /// Parses a container produced by [`to_bytes`](Self::to_bytes) or
    /// [`to_bytes_v2`](Self::to_bytes_v2), decompressing every block to
    /// rebuild (and thereby verify) the original program text. Version-2
    /// containers additionally have the header and every stored block
    /// checked against their CRC-32 records, and the loaded image keeps
    /// those records for runtime integrity checks.
    ///
    /// # Errors
    ///
    /// [`CcrpError::BadContainer`] on malformed input (wrong magic,
    /// truncated sections, inconsistent sizes, header CRC mismatch),
    /// [`CcrpError::CrcMismatch`] when a stored block fails its CRC
    /// record, and decode errors on corrupt block data.
    pub fn from_bytes(bytes: &[u8]) -> Result<CompressedImage, CcrpError> {
        let bad = |what: &'static str| CcrpError::BadContainer { what };
        let layout = layout_of(bytes)?;
        let alignment = match bytes[6] {
            0 => BlockAlignment::Byte,
            1 => BlockAlignment::Word,
            _ => return Err(bad("unknown alignment code")),
        };
        let word = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let text_base = word(8);
        let original_bytes = word(12) as usize;
        let lat_base = word(20);
        if !text_base.is_multiple_of(crate::addr::BYTES_PER_ENTRY) {
            return Err(bad("text base not aligned to a 256-byte LAT group"));
        }
        let lines = original_bytes / 32;

        let block_crcs = if layout.version == VERSION_V2 {
            let crc_section = &bytes[layout.crc.clone()];
            if crc32(&bytes[..layout.codec_params.end]) != word(layout.crc.start) {
                return Err(bad("header CRC mismatch"));
            }
            Some(
                crc_section[4..]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect::<Vec<u32>>(),
            )
        } else {
            None
        };

        let mut table = [0u8; 256];
        table.copy_from_slice(&bytes[24..HEADER_BYTES]);
        let codec =
            codec_from_container(layout.codec, &table, &bytes[layout.codec_params.clone()])?;

        CompressedImage::from_parts(
            text_base,
            alignment,
            codec,
            &bytes[layout.blocks.clone()],
            &bytes[layout.lat.clone()],
            lines,
            lat_base,
            block_crcs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_compress::{ByteCode, ByteHistogram};

    fn sample_image(alignment: BlockAlignment) -> CompressedImage {
        let mut text = vec![0u8; 1024];
        let mut x = 9u32;
        for (i, b) in text.iter_mut().enumerate() {
            x = x.wrapping_mul(48271);
            *b = if i % 3 == 0 { (x >> 27) as u8 } else { 0x24 };
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).expect("code");
        CompressedImage::build(0x400, &text, code, alignment).expect("builds")
    }

    #[test]
    fn roundtrip_both_alignments() {
        for alignment in [BlockAlignment::Word, BlockAlignment::Byte] {
            let image = sample_image(alignment);
            let bytes = image.to_bytes();
            let back = CompressedImage::from_bytes(&bytes).expect("parses");
            assert_eq!(back.text_base(), image.text_base());
            assert_eq!(back.original_bytes(), image.original_bytes());
            assert_eq!(back.alignment(), image.alignment());
            assert_eq!(back.lat_base(), image.lat_base());
            assert_eq!(back.compressed_code_bytes(), image.compressed_code_bytes());
            back.verify().expect("loaded image verifies");
            // Bit-identical re-serialization.
            assert_eq!(back.to_bytes(), bytes);
            // Identical expansion of every line.
            for line in 0..image.line_count() {
                let addr = image.text_base() + line as u32 * 32;
                assert_eq!(
                    back.expand_line(addr).unwrap(),
                    image.expand_line(addr).unwrap()
                );
            }
        }
    }

    #[test]
    fn rejects_corruption() {
        let image = sample_image(BlockAlignment::Word);
        let good = image.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            CompressedImage::from_bytes(&bad_magic),
            Err(CcrpError::BadContainer { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(CompressedImage::from_bytes(&bad_version).is_err());

        let truncated = &good[..good.len() - 1];
        assert!(CompressedImage::from_bytes(truncated).is_err());

        assert!(CompressedImage::from_bytes(&good[..10]).is_err());

        // Flipping a bit inside a compressed block must surface as a
        // decode error or a changed (non-verifying) image — never a
        // silently wrong success that still matches the original.
        let mut bad_block = good.clone();
        bad_block[HEADER_BYTES + 3] ^= 0x40;
        match CompressedImage::from_bytes(&bad_block) {
            Err(_) => {}
            Ok(loaded) => {
                let differs = (0..image.line_count()).any(|line| {
                    let addr = image.text_base() + line as u32 * 32;
                    loaded.expand_line(addr).ok() != image.expand_line(addr).ok()
                });
                assert!(differs, "corruption must not load back identical");
            }
        }
    }

    /// A minimal syntactically plausible header over `body` extra bytes,
    /// with attacker-chosen size fields.
    fn hostile_header(original_bytes: u32, block_bytes: u32, version: u16, body: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; HEADER_BYTES + body];
        bytes[0..4].copy_from_slice(MAGIC);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        bytes[6] = 1; // word alignment
        bytes[12..16].copy_from_slice(&original_bytes.to_le_bytes());
        bytes[16..20].copy_from_slice(&block_bytes.to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_adversarial_length_fields_before_allocation() {
        // Sizes wildly exceeding the buffer must bounce off the bounds
        // check in `layout_of` — the parse never reaches the point where
        // header-declared line counts size an allocation.
        let cases = [
            // Huge block section on a tiny container.
            hostile_header(32, u32::MAX, VERSION, 8),
            // Huge line count (LAT + v2 CRC sections follow from it).
            hostile_header(u32::MAX - 31, 0, VERSION, 8),
            hostile_header(u32::MAX - 31, 0, VERSION_V2, 8),
            // Both maxed: on 32-bit hosts the unchecked sum would wrap.
            hostile_header(0xFFFF_FFE0, u32::MAX, VERSION_V2, 0),
            // Plausible-looking sizes that still overshoot the buffer.
            hostile_header(4096, 4096, VERSION, 64),
        ];
        for bytes in cases {
            assert!(
                matches!(
                    layout_of(&bytes),
                    Err(CcrpError::BadContainer {
                        what: "header-declared sizes exceed the container"
                    })
                ),
                "pathological header must be rejected by the bounds check"
            );
            assert!(CompressedImage::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn rejects_undersized_declared_sections() {
        // Sections that fit the buffer but do not exactly tile it are a
        // length disagreement, not an oversize.
        let bytes = hostile_header(32, 4, VERSION, 100);
        assert!(matches!(
            layout_of(&bytes),
            Err(CcrpError::BadContainer {
                what: "container length disagrees with header"
            })
        ));
    }

    #[test]
    fn v2_roundtrip_carries_crcs() {
        let image = sample_image(BlockAlignment::Word);
        let v1 = image.to_bytes();
        let v2 = image.to_bytes_v2();
        // v2 is v1 (with a bumped version field) plus the CRC section.
        assert_eq!(v2.len(), v1.len() + 4 + 4 * image.line_count());
        assert_eq!(&v2[6..v1.len()], &v1[6..]);
        let back = CompressedImage::from_bytes(&v2).expect("v2 parses");
        back.verify().expect("loaded v2 image verifies");
        assert!(back.block_crcs().is_some());
        assert_eq!(back.to_bytes_v2(), v2);
        // Old (v1) images still load, just without integrity records.
        assert!(CompressedImage::from_bytes(&v1)
            .expect("v1 parses")
            .block_crcs()
            .is_none());
    }

    #[test]
    fn v2_detects_block_corruption_v1_may_not() {
        let image = sample_image(BlockAlignment::Word);
        let mut v2 = image.to_bytes_v2();
        // Stomp the final byte of the packed section: trailing alignment
        // padding, which the bit-serial decoder never reads — only the
        // CRC record can see this one.
        let offset = HEADER_BYTES + image.compressed_code_bytes() as usize - 1;
        v2[offset] ^= 0xFF;
        assert!(matches!(
            CompressedImage::from_bytes(&v2),
            Err(CcrpError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn v2_detects_header_corruption() {
        let image = sample_image(BlockAlignment::Word);
        let mut v2 = image.to_bytes_v2();
        // Flip a high bit of the text base: the result is still
        // 256-aligned, so only the header CRC can flag it.
        v2[11] ^= 0x40;
        assert!(matches!(
            CompressedImage::from_bytes(&v2),
            Err(CcrpError::BadContainer {
                what: "header CRC mismatch"
            })
        ));
    }

    #[test]
    fn rejects_misaligned_text_base() {
        let image = sample_image(BlockAlignment::Word);
        let mut bytes = image.to_bytes();
        bytes[8] = 0x20; // text base 0x420: not 256-aligned
        assert!(matches!(
            CompressedImage::from_bytes(&bytes),
            Err(CcrpError::BadContainer { .. })
        ));
    }
}
