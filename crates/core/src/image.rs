//! The compressed program image: packed compressed blocks plus the
//! in-memory Line Address Table (Figure 4's "Instruction Memory | LAT").

use std::sync::Arc;

use ccrp_compress::{block, BlockAlignment, ByteCode, CompressedLine, LineCodec};

use crate::addr::{self, BYTES_PER_ENTRY, LINES_PER_ENTRY, LINE_SIZE};
use crate::crc::crc32;
use crate::error::CcrpError;
use crate::lat::{LatEntry, LineAddressTable, RECORDS_PER_ENTRY};
use crate::refill::WordThresholds;

/// Where a program line lives in compressed instruction memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineLocation {
    /// LAT index relative to the program start (the CLB tag).
    pub lat_index: u32,
    /// Which of the entry's eight blocks (the address's `L` field).
    pub line_in_entry: u32,
    /// Physical byte address of the stored block.
    pub physical: u32,
    /// Stored length in bytes (32 when bypassed).
    pub stored_len: u32,
    /// Whether the block is stored uncompressed.
    pub bypass: bool,
}

impl LineLocation {
    /// The program-wide line number: the line's index from the program
    /// start, `lat_index × 8 + line_in_entry`.
    pub fn global_line(&self) -> usize {
        (self.lat_index * LINES_PER_ENTRY + self.line_in_entry) as usize
    }
}

/// A program compressed for CCRP execution.
///
/// Blocks are packed contiguously from physical address 0 of the
/// instruction ROM; the encoded LAT follows the last block (its location
/// is the refill engine's LAT base register). The original text is
/// retained for verification, and the bit-exact decoder timing model
/// reads per-line word thresholds computed from it once, when the image
/// is built or loaded.
///
/// # Examples
///
/// ```
/// use ccrp::CompressedImage;
/// use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
///
/// let text = vec![0u8; 512]; // 16 lines of nops
/// let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
/// let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
/// assert!(image.compressed_code_bytes() < 512);
/// assert_eq!(image.expand_line(0x40)?, [0u8; 32]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompressedImage {
    codec: Arc<dyn LineCodec>,
    alignment: BlockAlignment,
    lines: Vec<CompressedLine>,
    block_addresses: Vec<u32>,
    lat: LineAddressTable,
    lat_base: u32,
    original_text: Vec<u8>,
    text_base: u32,
    block_crcs: Option<Vec<u32>>,
    /// The decoder's input thresholds per line (empty for bypassed
    /// lines, which never reach the decoder).
    thresholds: Vec<WordThresholds>,
}

/// Computes every compressed line's [`WordThresholds`] from the
/// original text, in line order.
fn thresholds(
    codec: &dyn LineCodec,
    lines: &[CompressedLine],
    block_addresses: &[u32],
    original_text: &[u8],
) -> Vec<WordThresholds> {
    lines
        .iter()
        .zip(block_addresses)
        .zip(original_text.chunks_exact(LINE_SIZE as usize))
        .map(|((line, &physical), original)| {
            if line.is_bypass() {
                WordThresholds::default()
            } else {
                WordThresholds::of(codec, original, physical, line.stored_len() as u32)
            }
        })
        .collect()
}

impl CompressedImage {
    /// Compresses `text` (starting at CPU address `text_base`) with
    /// `code`.
    ///
    /// # Errors
    ///
    /// * [`CcrpError::MisalignedTextBase`] unless `text_base` is
    ///   256-byte aligned (LAT entries cover aligned 256-byte groups);
    /// * [`CcrpError::BaseOverflow`] if the packed blocks exceed the
    ///   24-bit physical space.
    pub fn build(
        text_base: u32,
        text: &[u8],
        code: ByteCode,
        alignment: BlockAlignment,
    ) -> Result<Self, CcrpError> {
        Self::build_with_codec(text_base, text, Arc::new(code), alignment)
    }

    /// [`build`](Self::build) with any [`LineCodec`] — the paper's
    /// byte-Huffman decoder is just the default backend.
    ///
    /// # Errors
    ///
    /// As for [`build`](Self::build).
    pub fn build_with_codec(
        text_base: u32,
        text: &[u8],
        codec: Arc<dyn LineCodec>,
        alignment: BlockAlignment,
    ) -> Result<Self, CcrpError> {
        if !text_base.is_multiple_of(BYTES_PER_ENTRY) {
            return Err(CcrpError::MisalignedTextBase { base: text_base });
        }
        // Pad to a whole number of lines (zero = `nop`, as linkers do).
        let mut original_text = text.to_vec();
        let padded = original_text.len().div_ceil(LINE_SIZE as usize) * LINE_SIZE as usize;
        original_text.resize(padded, 0);

        let lines = block::compress_image(codec.as_ref(), &original_text, alignment);
        let mut block_addresses = Vec::with_capacity(lines.len());
        let mut cursor: u32 = 0;
        for line in &lines {
            block_addresses.push(cursor);
            cursor =
                cursor
                    .checked_add(line.stored_len() as u32)
                    .ok_or(CcrpError::BaseOverflow {
                        address: u64::from(u32::MAX),
                    })?;
        }
        if u64::from(cursor) >= (1 << 24) {
            return Err(CcrpError::BaseOverflow {
                address: u64::from(cursor),
            });
        }

        let mut entries = Vec::with_capacity(lines.len().div_ceil(RECORDS_PER_ENTRY));
        for (group_index, group) in lines.chunks(RECORDS_PER_ENTRY).enumerate() {
            let base = block_addresses[group_index * RECORDS_PER_ENTRY];
            let mut lengths = [LINE_SIZE; RECORDS_PER_ENTRY];
            for (slot, line) in lengths.iter_mut().zip(group) {
                *slot = line.stored_len() as u32;
            }
            entries.push(LatEntry::new(base, lengths)?);
        }
        let lat = LineAddressTable::new(entries);
        // The LAT sits word aligned just past the last block.
        let lat_base = (cursor + 3) & !3;
        let thresholds = thresholds(codec.as_ref(), &lines, &block_addresses, &original_text);

        Ok(Self {
            codec,
            alignment,
            lines,
            block_addresses,
            lat,
            lat_base,
            original_text,
            text_base,
            block_crcs: None,
            thresholds,
        })
    }

    /// Computes and attaches per-block CRC-32 integrity records (what a
    /// version-2 container stores). With records attached,
    /// [`expand_line`](Self::expand_line) and [`verify`](Self::verify)
    /// check every stored block against its CRC, turning silent
    /// miscompares into [`CcrpError::CrcMismatch`].
    pub fn attach_block_crcs(&mut self) {
        self.block_crcs = Some(self.block_crc_records());
    }

    /// The attached per-block CRC records, if any (always present on
    /// images loaded from version-2 containers).
    pub fn block_crcs(&self) -> Option<&[u32]> {
        self.block_crcs.as_deref()
    }

    /// CRC-32 of every stored block's current bytes, in line order.
    pub fn block_crc_records(&self) -> Vec<u32> {
        self.lines.iter().map(|l| crc32(l.data())).collect()
    }

    /// The line codec used for compression (byte-Huffman unless the
    /// image was built or loaded with a non-default codec).
    pub fn codec(&self) -> &dyn LineCodec {
        self.codec.as_ref()
    }

    /// The block alignment the image was packed with.
    pub fn alignment(&self) -> BlockAlignment {
        self.alignment
    }

    /// CPU address of the first instruction.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// Original program size in bytes (padded to whole lines).
    pub fn original_bytes(&self) -> u32 {
        self.original_text.len() as u32
    }

    /// Number of 32-byte cache lines in the program.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// The Line Address Table.
    pub fn lat(&self) -> &LineAddressTable {
        &self.lat
    }

    /// Physical address of the in-memory LAT (the LAT base register).
    pub fn lat_base(&self) -> u32 {
        self.lat_base
    }

    /// Bytes of packed compressed blocks (excluding LAT and code table).
    pub fn compressed_code_bytes(&self) -> u32 {
        self.lines.iter().map(|l| l.stored_len() as u32).sum()
    }

    /// Total instruction-memory footprint: blocks + LAT, plus the stored
    /// code table when `with_code_table` (per-program codes ship their
    /// table; the hardwired preselected code does not).
    pub fn total_stored_bytes(&self, with_code_table: bool) -> u32 {
        let table = if with_code_table {
            self.codec.table_storage_bytes() as u32
        } else {
            0
        };
        self.compressed_code_bytes() + self.lat.storage_bytes() + table
    }

    /// Compression ratio: stored size (blocks + LAT) over original size.
    /// Below 1.0 means the program shrank.
    pub fn compression_ratio(&self) -> f64 {
        f64::from(self.total_stored_bytes(false)) / f64::from(self.original_bytes())
    }

    /// Number of blocks stored uncompressed.
    pub fn bypass_count(&self) -> usize {
        self.lines.iter().filter(|l| l.is_bypass()).count()
    }

    /// Locates the stored block holding CPU address `address`.
    ///
    /// # Errors
    ///
    /// [`CcrpError::AddressOutOfRange`] outside the program text.
    pub fn locate(&self, address: u32) -> Result<LineLocation, CcrpError> {
        let offset = address
            .checked_sub(self.text_base)
            .ok_or(CcrpError::AddressOutOfRange { address })?;
        let global_line = (offset / LINE_SIZE) as usize;
        if global_line >= self.lines.len() {
            return Err(CcrpError::AddressOutOfRange { address });
        }
        let parts = addr::decompose(offset);
        let line = &self.lines[global_line];
        Ok(LineLocation {
            lat_index: parts.lat_index,
            line_in_entry: parts.line_in_entry,
            physical: self.block_addresses[global_line],
            stored_len: line.stored_len() as u32,
            bypass: line.is_bypass(),
        })
    }

    /// The original 32 bytes of the line covering `address`.
    ///
    /// # Errors
    ///
    /// [`CcrpError::AddressOutOfRange`] outside the program text.
    pub fn original_line(&self, address: u32) -> Result<&[u8], CcrpError> {
        let loc = self.locate(address)?;
        let start = loc.global_line() * LINE_SIZE as usize;
        Ok(&self.original_text[start..start + LINE_SIZE as usize])
    }

    /// Runs the decompressor on the stored block covering `address`,
    /// expanding the 32-byte cache line directly into `out` — the
    /// allocation-free path the refill engine and the emulator's
    /// compressed-ROM fetch use. When CRC records are attached
    /// (version-2 containers), the stored bytes are checked against
    /// their record first.
    ///
    /// # Errors
    ///
    /// Address-range, [`CcrpError::CrcMismatch`], or (for corrupt
    /// images) decode failures; `out` holds the bytes expanded before a
    /// decode failure.
    pub fn expand_line_into(&self, address: u32, out: &mut [u8; 32]) -> Result<(), CcrpError> {
        self.expand_located_into(&self.locate(address)?, address, out)
    }

    /// [`expand_line_into`](Self::expand_line_into) for a line the
    /// caller already located (the refill engine locates once per
    /// refill).
    pub(crate) fn expand_located_into(
        &self,
        loc: &LineLocation,
        address: u32,
        out: &mut [u8; 32],
    ) -> Result<(), CcrpError> {
        let global = loc.global_line();
        let stored = self
            .lines
            .get(global)
            .ok_or(CcrpError::AddressOutOfRange { address })?;
        if let Some(crcs) = &self.block_crcs {
            let record = crcs.get(global).copied().ok_or(CcrpError::Integrity {
                what: "CRC record table shorter than line count",
                address,
            })?;
            if crc32(stored.data()) != record {
                return Err(CcrpError::CrcMismatch {
                    line: global as u32,
                });
            }
        }
        Ok(block::decompress_line_into(
            self.codec.as_ref(),
            stored,
            out,
        )?)
    }

    /// The decoder's input thresholds for the located compressed line —
    /// computed at build or load time from the bytes
    /// [`original_line`](Self::original_line) returns.
    pub(crate) fn word_thresholds(
        &self,
        loc: &LineLocation,
        address: u32,
    ) -> Result<WordThresholds, CcrpError> {
        self.thresholds
            .get(loc.global_line())
            .copied()
            .ok_or(CcrpError::AddressOutOfRange { address })
    }

    /// [`expand_line_into`](Self::expand_line_into), returning the
    /// expanded line by value.
    ///
    /// # Errors
    ///
    /// As for [`expand_line_into`](Self::expand_line_into).
    pub fn expand_line(&self, address: u32) -> Result<[u8; 32], CcrpError> {
        let mut out = [0u8; 32];
        self.expand_line_into(address, &mut out)?;
        Ok(out)
    }

    /// The packed compressed blocks, exactly as laid out in instruction
    /// memory (block `i` occupies `block_addresses[i]..+stored_len`).
    pub fn packed_blocks(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.compressed_code_bytes() as usize);
        for line in &self.lines {
            out.extend_from_slice(line.data());
        }
        out
    }

    /// Rebuilds an image from its serialized parts (the `container`
    /// module's loader). The original text is reconstructed by running
    /// every block through the decoder; when `block_crcs` is given
    /// (version-2 containers), each stored block is checked against its
    /// record before decoding.
    ///
    /// # Errors
    ///
    /// [`CcrpError::BadContainer`] on structural inconsistencies,
    /// [`CcrpError::CrcMismatch`] on integrity-record mismatches, and
    /// decode errors on corrupt block data.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        text_base: u32,
        alignment: BlockAlignment,
        codec: Arc<dyn LineCodec>,
        blocks: &[u8],
        lat_bytes: &[u8],
        line_count: usize,
        lat_base: u32,
        block_crcs: Option<Vec<u32>>,
    ) -> Result<CompressedImage, CcrpError> {
        use crate::lat::RECORDS_PER_ENTRY;
        let lat = LineAddressTable::from_encoded(lat_bytes)?;
        if lat.len() != line_count.div_ceil(RECORDS_PER_ENTRY) {
            return Err(CcrpError::BadContainer {
                what: "LAT entry count mismatch",
            });
        }
        if let Some(crcs) = &block_crcs {
            if crcs.len() != line_count {
                return Err(CcrpError::BadContainer {
                    what: "CRC record count mismatch",
                });
            }
        }
        let mut lines = Vec::with_capacity(line_count);
        let mut block_addresses = Vec::with_capacity(line_count);
        let mut original_text = Vec::with_capacity(line_count * LINE_SIZE as usize);
        let mut expanded = [0u8; LINE_SIZE as usize];
        for global in 0..line_count {
            let entry =
                lat.entry((global / RECORDS_PER_ENTRY) as u32)
                    .ok_or(CcrpError::BadContainer {
                        what: "LAT entry count mismatch",
                    })?;
            let slot = global % RECORDS_PER_ENTRY;
            let physical = entry.block_address(slot) as usize;
            let stored = entry.block_length(slot) as usize;
            let data = blocks
                .get(physical..physical + stored)
                .ok_or(CcrpError::BadContainer {
                    what: "block outside the packed section",
                })?;
            if let Some(crcs) = &block_crcs {
                if crc32(data) != crcs[global] {
                    return Err(CcrpError::CrcMismatch {
                        line: global as u32,
                    });
                }
            }
            let line = ccrp_compress::CompressedLine::from_stored_checked(
                data.to_vec(),
                entry.is_uncompressed(slot),
            )?;
            block::decompress_line_into(codec.as_ref(), &line, &mut expanded)?;
            original_text.extend_from_slice(&expanded);
            block_addresses.push(physical as u32);
            lines.push(line);
        }
        let thresholds = thresholds(codec.as_ref(), &lines, &block_addresses, &original_text);
        let image = CompressedImage {
            codec,
            alignment,
            lines,
            block_addresses,
            lat,
            lat_base,
            original_text,
            text_base,
            block_crcs,
            thresholds,
        };
        Ok(image)
    }

    /// Consistency check: the container-header invariants must hold (LAT
    /// entry count matches the line count, base pointers monotonically
    /// non-decreasing and in-bounds of the packed section), every
    /// LAT-computed block address must equal the packed layout's, every
    /// line must expand to the original bytes, and — when CRC records
    /// are attached — every stored block must match its record. Used by
    /// tests, the image inspector, and fault campaigns.
    ///
    /// # Errors
    ///
    /// The first inconsistency found: [`CcrpError::Integrity`] for
    /// structural/layout mismatches, [`CcrpError::CrcMismatch`] for
    /// integrity-record failures, or a decode error.
    pub fn verify(&self) -> Result<(), CcrpError> {
        if self.lat.len() != self.lines.len().div_ceil(RECORDS_PER_ENTRY) {
            return Err(CcrpError::Integrity {
                what: "LAT entry count disagrees with line count",
                address: self.text_base,
            });
        }
        let packed = self.compressed_code_bytes();
        let mut prev_base = 0u32;
        for index in 0..self.lat.len() {
            let entry = self.lat.entry(index as u32).ok_or(CcrpError::Integrity {
                what: "LAT entry missing",
                address: self.text_base + index as u32 * BYTES_PER_ENTRY,
            })?;
            if entry.base() < prev_base || entry.base() > packed {
                return Err(CcrpError::Integrity {
                    what: "LAT base pointers not monotonically in-bounds",
                    address: self.text_base + index as u32 * BYTES_PER_ENTRY,
                });
            }
            prev_base = entry.base();
        }
        for global in 0..self.lines.len() {
            let address = self.text_base + global as u32 * LINE_SIZE;
            let loc = self.locate(address)?;
            let entry = self.lat.entry(loc.lat_index).ok_or(CcrpError::Integrity {
                what: "LAT entry missing",
                address,
            })?;
            let computed = entry.block_address(loc.line_in_entry as usize);
            if computed != loc.physical
                || entry.block_length(loc.line_in_entry as usize) != loc.stored_len
            {
                return Err(CcrpError::Integrity {
                    what: "LAT entry disagrees with packed layout",
                    address,
                });
            }
            if computed + loc.stored_len > packed {
                return Err(CcrpError::Integrity {
                    what: "block extends past the packed section",
                    address,
                });
            }
            let expanded = self.expand_line(address)?;
            if expanded[..] != *self.original_line(address)? {
                return Err(CcrpError::Integrity {
                    what: "expanded line differs from original text",
                    address,
                });
            }
        }
        Ok(())
    }

    /// Fault injection: overwrites the LAT length record for
    /// `global_line` with `stored_len` (1..=32 bytes), leaving the
    /// packed blocks untouched — the corruption a flipped ROM bit in
    /// the table region would cause. [`verify`](Self::verify) detects
    /// the resulting layout mismatch; tests and robustness checks use
    /// this to exercise that path, since the normal constructors only
    /// ever produce self-consistent images.
    ///
    /// # Errors
    ///
    /// [`CcrpError::AddressOutOfRange`] for a line outside the program,
    /// or [`CcrpError::BadBlockLength`] for a length outside 1..=32.
    pub fn corrupt_lat_length(
        &mut self,
        global_line: usize,
        stored_len: u32,
    ) -> Result<(), CcrpError> {
        if global_line >= self.lines.len() {
            return Err(CcrpError::AddressOutOfRange {
                address: self.text_base + global_line as u32 * LINE_SIZE,
            });
        }
        let lat_index = global_line / RECORDS_PER_ENTRY;
        let slot = global_line % RECORDS_PER_ENTRY;
        let entry = self
            .lat
            .entry(lat_index as u32)
            .ok_or(CcrpError::Integrity {
                what: "LAT shorter than the line count",
                address: self.text_base + global_line as u32 * LINE_SIZE,
            })?;
        let mut lengths = [0u32; RECORDS_PER_ENTRY];
        for (record, length) in lengths.iter_mut().enumerate() {
            *length = entry.block_length(record);
        }
        lengths[slot] = stored_len;
        let corrupted = LatEntry::new(entry.base(), lengths)?;
        self.lat.set_entry(lat_index, corrupted);
        Ok(())
    }

    /// Fault injection: XORs `xor` into byte `byte_offset` of the stored
    /// block for `global_line` — the corruption a flipped ROM bit in the
    /// packed-blocks region would cause. Unlike
    /// [`corrupt_lat_length`](Self::corrupt_lat_length) this is visible
    /// to [`expand_line`](Self::expand_line) and thus to the emulator's
    /// demand-expansion path; depending on where the bit lands it
    /// surfaces as a decode error, a [`CcrpError::CrcMismatch`] (with
    /// records attached), or — without CRCs — a silent miscompare.
    ///
    /// # Errors
    ///
    /// [`CcrpError::AddressOutOfRange`] for a line outside the program,
    /// [`CcrpError::Integrity`] for an offset outside the stored block.
    pub fn corrupt_block_byte(
        &mut self,
        global_line: usize,
        byte_offset: usize,
        xor: u8,
    ) -> Result<(), CcrpError> {
        let address = self.text_base + global_line as u32 * LINE_SIZE;
        let line = self
            .lines
            .get(global_line)
            .ok_or(CcrpError::AddressOutOfRange { address })?;
        let mut data = line.data().to_vec();
        let byte = data.get_mut(byte_offset).ok_or(CcrpError::Integrity {
            what: "corruption offset outside the stored block",
            address,
        })?;
        *byte ^= xor;
        self.lines[global_line] = CompressedLine::from_stored_checked(data, line.is_bypass())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_compress::ByteHistogram;

    fn code_for(text: &[u8]) -> ByteCode {
        ByteCode::preselected(&ByteHistogram::of(text)).expect("code builds")
    }

    fn sample_text(len: usize) -> Vec<u8> {
        // Realistic mix: skewed bytes with occasional high-entropy runs.
        let mut text = Vec::with_capacity(len);
        let mut x = 1u32;
        for i in 0..len {
            x = x.wrapping_mul(48271);
            text.push(match i % 4 {
                0 => (x >> 24) as u8, // varying low byte
                1 => 0x00,
                2 => (i as u8) & 0x1F,
                _ => 0x24,
            });
        }
        text
    }

    #[test]
    fn build_and_verify() {
        let text = sample_text(4096);
        let image =
            CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Word).unwrap();
        image.verify().unwrap();
        assert_eq!(image.line_count(), 128);
        assert_eq!(image.lat().len(), 16);
        assert!(image.compression_ratio() < 1.0 + 3.2 / 100.0);
    }

    #[test]
    fn lat_overhead_is_3_125_percent() {
        let text = sample_text(2560);
        let image =
            CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Word).unwrap();
        let overhead = f64::from(image.lat().storage_bytes()) / f64::from(image.original_bytes());
        assert!((overhead - 0.03125).abs() < 1e-9);
    }

    #[test]
    fn partial_final_group() {
        // 5 lines -> one full LAT entry is still emitted with padding.
        let text = sample_text(5 * 32);
        let image =
            CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Word).unwrap();
        assert_eq!(image.line_count(), 5);
        assert_eq!(image.lat().len(), 1);
        image.verify().unwrap();
    }

    #[test]
    fn partial_final_line_padded() {
        let text = sample_text(40); // 1 line + 8 bytes
        let image =
            CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Word).unwrap();
        assert_eq!(image.line_count(), 2);
        assert_eq!(image.original_bytes(), 64);
        let line = image.original_line(32).unwrap();
        assert_eq!(&line[8..], &[0u8; 24]);
    }

    #[test]
    fn nonzero_text_base() {
        let text = sample_text(512);
        let image =
            CompressedImage::build(0x400, &text, code_for(&text), BlockAlignment::Word).unwrap();
        image.verify().unwrap();
        assert!(image.locate(0x3FF).is_err());
        assert!(image.locate(0x400).is_ok());
        assert!(image.locate(0x400 + 512).is_err());
        let loc = image.locate(0x400).unwrap();
        assert_eq!(loc.lat_index, 0);
    }

    #[test]
    fn misaligned_base_rejected() {
        let text = sample_text(64);
        assert!(matches!(
            CompressedImage::build(0x20, &text, code_for(&text), BlockAlignment::Byte),
            Err(CcrpError::MisalignedTextBase { .. })
        ));
    }

    #[test]
    fn byte_alignment_is_no_larger() {
        let text = sample_text(8192);
        let word = CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Word).unwrap();
        let byte = CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Byte).unwrap();
        byte.verify().unwrap();
        assert!(byte.compressed_code_bytes() <= word.compressed_code_bytes());
    }

    #[test]
    fn lat_base_follows_blocks() {
        let text = sample_text(1024);
        let image =
            CompressedImage::build(0, &text, code_for(&text), BlockAlignment::Byte).unwrap();
        assert!(image.lat_base() >= image.compressed_code_bytes());
        assert_eq!(image.lat_base() % 4, 0);
    }
}
