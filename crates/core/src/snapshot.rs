//! CRC-framed binary snapshot container and panic-free byte codecs.
//!
//! Checkpointable machine state (the emulator's `ArchState`) and
//! captured `.trace` files serialize through this module: a fixed 28-byte
//! header — magic, format version, program fingerprint, payload length,
//! and two CRC-32 words (one over the payload, one over the header
//! itself, both via [`crc32`](crate::crc32)) — followed by the payload.
//! A stomped checkpoint file is therefore rejected with a typed
//! [`SnapshotError`] before any field of it is trusted; readers never
//! panic on malformed input.
//!
//! Layout (all integers little-endian):
//!
//! | offset | size | field                           |
//! |--------|------|---------------------------------|
//! | 0      | 4    | magic `"CCKP"`                  |
//! | 4      | 4    | format version                  |
//! | 8      | 4    | program fingerprint             |
//! | 12     | 8    | payload length in bytes         |
//! | 20     | 4    | CRC-32 of the payload           |
//! | 24     | 4    | CRC-32 of header bytes `0..24`  |
//! | 28     | ...  | payload                         |

use std::error::Error;
use std::fmt;

use crate::crc::crc32;

/// The four magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CCKP";

/// Size of the fixed frame header preceding the payload.
pub const SNAPSHOT_HEADER_BYTES: usize = 28;

/// Why snapshot bytes were rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The buffer does not begin with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Fewer bytes than a field (or the whole header/payload) needs.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The header's own CRC-32 did not match its bytes.
    HeaderCrc,
    /// The payload CRC-32 recorded in the header did not match the
    /// payload bytes.
    PayloadCrc,
    /// The frame's format version is not one the reader supports.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A structurally invalid payload field (a CRC collision, or a
    /// writer bug).
    Malformed {
        /// Which field was invalid.
        what: &'static str,
    },
    /// Valid frame, but bytes remain after the declared payload.
    TrailingBytes {
        /// How many bytes past the frame end.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot does not start with CCKP magic"),
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} bytes, have {have}")
            }
            SnapshotError::HeaderCrc => write!(f, "snapshot header CRC-32 mismatch"),
            SnapshotError::PayloadCrc => write!(f, "snapshot payload CRC-32 mismatch"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot payload: {what}"),
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot payload")
            }
        }
    }
}

impl Error for SnapshotError {}

/// The parsed fixed header of a snapshot frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version of the payload encoding.
    pub version: u32,
    /// Identity hash of the program the snapshot belongs to.
    pub fingerprint: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// CRC-32 of the payload bytes.
    pub payload_crc: u32,
    /// CRC-32 of the 24 header bytes preceding this field.
    pub header_crc: u32,
}

/// Frames `payload` with a checksummed header.
pub fn write_frame(version: u32, fingerprint: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAPSHOT_HEADER_BYTES + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&out);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates and splits a frame into its header and payload.
///
/// Checks, in order: magic, header length, header CRC, payload length,
/// payload CRC, and that nothing trails the payload — so corruption
/// anywhere in the file surfaces as a typed error, never as a
/// half-trusted field.
///
/// # Errors
///
/// Every [`SnapshotError`] variant except `UnsupportedVersion` and
/// `Malformed` (version and payload interpretation are the caller's).
pub fn read_frame(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER_BYTES {
        return Err(SnapshotError::Truncated {
            needed: SNAPSHOT_HEADER_BYTES,
            have: bytes.len(),
        });
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut reader = ByteReader::new(&bytes[4..SNAPSHOT_HEADER_BYTES]);
    let header = SnapshotHeader {
        version: reader.read_u32()?,
        fingerprint: reader.read_u32()?,
        payload_len: reader.read_u64()?,
        payload_crc: reader.read_u32()?,
        header_crc: reader.read_u32()?,
    };
    if crc32(&bytes[..SNAPSHOT_HEADER_BYTES - 4]) != header.header_crc {
        return Err(SnapshotError::HeaderCrc);
    }
    let needed = SNAPSHOT_HEADER_BYTES as u64 + header.payload_len;
    if (bytes.len() as u64) < needed {
        return Err(SnapshotError::Truncated {
            needed: needed as usize,
            have: bytes.len(),
        });
    }
    if bytes.len() as u64 > needed {
        return Err(SnapshotError::TrailingBytes {
            extra: (bytes.len() as u64 - needed) as usize,
        });
    }
    let payload = &bytes[SNAPSHOT_HEADER_BYTES..];
    if crc32(payload) != header.payload_crc {
        return Err(SnapshotError::PayloadCrc);
    }
    Ok((header, payload))
}

/// Little-endian payload writer; the mirror of [`ByteReader`].
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    bytes: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, value: i32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes (length is NOT prefixed; callers write it).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Panic-free little-endian payload reader: every read reports
/// truncation as [`SnapshotError::Truncated`] instead of indexing out
/// of bounds.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// True when everything was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(len).ok_or(SnapshotError::Truncated {
            needed: usize::MAX,
            have: self.remaining(),
        })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                needed: len,
                have: self.remaining(),
            })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of input.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when under 4 bytes remain.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when under 8 bytes remain.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when under 4 bytes remain.
    pub fn read_i32(&mut self) -> Result<i32, SnapshotError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` length prefix, bounds-checked against the bytes
    /// actually remaining so a corrupt length cannot drive a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`]; [`SnapshotError::Malformed`] when
    /// the prefix exceeds the remaining input.
    pub fn read_len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let len = self.read_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapshotError::Malformed { what });
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello checkpoint".to_vec();
        let framed = write_frame(3, 0xDEAD_BEEF, &payload);
        assert_eq!(framed.len(), SNAPSHOT_HEADER_BYTES + payload.len());
        assert_eq!(&framed[..4], b"CCKP");
        let (header, body) = read_frame(&framed).unwrap();
        assert_eq!(header.version, 3);
        assert_eq!(header.fingerprint, 0xDEAD_BEEF);
        assert_eq!(header.payload_len, payload.len() as u64);
        assert_eq!(body, payload.as_slice());
    }

    #[test]
    fn empty_payload_is_fine() {
        let framed = write_frame(1, 0, &[]);
        let (header, body) = read_frame(&framed).unwrap();
        assert_eq!(header.payload_len, 0);
        assert!(body.is_empty());
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let framed = write_frame(1, 42, b"state bytes here");
        for i in 0..framed.len() {
            let mut corrupt = framed.clone();
            corrupt[i] ^= 0x01;
            assert!(
                read_frame(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed() {
        let framed = write_frame(1, 0, b"abcd");
        assert!(matches!(
            read_frame(&framed[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            read_frame(&framed[..framed.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
        let mut long = framed.clone();
        long.push(0);
        assert!(matches!(
            read_frame(&long),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn reader_never_overreads() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert!(matches!(
            r.read_u32(),
            Err(SnapshotError::Truncated { needed: 4, have: 2 })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0x0102_0304);
        w.put_u64(u64::MAX - 1);
        w.put_i32(-5);
        w.put_u64(3);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0x0102_0304);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_i32().unwrap(), -5);
        let len = r.read_len("abc").unwrap();
        assert_eq!(r.take(len).unwrap(), b"abc");
        assert!(r.is_exhausted());
    }

    #[test]
    fn hostile_length_prefix_is_malformed_not_alloc() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.read_len("list"),
            Err(SnapshotError::Malformed { what: "list" })
        ));
    }
}
