//! Length-prefixed framing over a byte stream.
//!
//! Every message — request or response — travels as one frame: a 4-byte
//! little-endian payload length followed by the payload. The reader
//! enforces a maximum frame size *before* allocating, so a hostile
//! length field costs four bytes of parsing, not an allocation; frames
//! arriving truncated (a closed socket mid-payload) and reads that
//! exceed the stream's timeout (a slow-loris writer) surface as typed
//! [`FrameError`]s the connection loop can act on.

use std::fmt;
use std::io::{self, Read, Write};

/// Bytes of the frame length prefix.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream closed cleanly on a frame boundary (no bytes of a new
    /// frame had arrived).
    Closed,
    /// The stream closed mid-frame — a truncated header or payload.
    Truncated,
    /// The header declared a payload larger than the reader's limit.
    /// Nothing beyond the header was read or allocated.
    Oversized {
        /// The declared payload length.
        declared: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// An I/O error, including read timeouts (`WouldBlock` /
    /// `TimedOut`) from a stream deadline — the slow-loris guard.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Truncated => write!(f, "stream closed mid-frame"),
            FrameError::Oversized { declared, max } => {
                write!(
                    f,
                    "declared frame length {declared} exceeds the {max}-byte limit"
                )
            }
            FrameError::Io(e) => write!(f, "frame read failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// Whether this error is a stream read timeout (the peer stopped
    /// writing mid-frame for longer than the configured deadline).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

/// Reads exactly `buf.len()` bytes, distinguishing a clean close before
/// the first byte (`Ok(false)`) from one after it ([`FrameError::Truncated`]).
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated)
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame, rejecting declared lengths above `max_bytes` before
/// any payload allocation.
///
/// # Errors
///
/// [`FrameError`] as documented on each variant.
pub fn read_frame(reader: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    if !read_full(reader, &mut header)? {
        return Err(FrameError::Closed);
    }
    let declared = u32::from_le_bytes(header);
    if declared > max_bytes {
        return Err(FrameError::Oversized {
            declared,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; declared as usize];
    match read_full(reader, &mut payload)? {
        true => Ok(payload),
        false if declared == 0 => Ok(payload),
        false => Err(FrameError::Truncated),
    }
}

/// Writes one frame, header and payload in a single write: on a TCP
/// stream, a header sent alone would leave the payload waiting on the
/// peer's delayed ACK under Nagle's algorithm.
///
/// # Errors
///
/// Propagates the underlying write error; payloads longer than
/// `u32::MAX` are reported as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload too long"))?;
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip() {
        let bytes = frame(b"hello");
        let mut cursor = Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"hello");
        // Clean close on the boundary after the frame.
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn each_frame_is_one_write() {
        /// Counts `write` calls, accepting every byte.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Counting::default();
        for (frames, payload) in [b"hello".as_slice(), b"", &[7; 300]]
            .into_iter()
            .enumerate()
        {
            write_frame(&mut out, payload).unwrap();
            assert_eq!(out.writes, frames + 1);
        }
        let mut cursor = Cursor::new(out.bytes);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor, 1024).unwrap(), [7; 300]);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut cursor = Cursor::new(frame(b""));
        assert_eq!(read_frame(&mut cursor, 16).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"xx");
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::Oversized {
                declared: u32::MAX,
                max
            }) if max == 1 << 20
        ));
    }

    #[test]
    fn truncation_detected_in_header_and_payload() {
        // Two bytes of a header.
        let mut cursor = Cursor::new(vec![9u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
        // Full header, half a payload.
        let mut bytes = 8u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"1234");
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn timeout_classification() {
        let timeout = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        assert!(timeout.is_timeout());
        assert!(!FrameError::Closed.is_timeout());
        assert!(!FrameError::Io(io::Error::other("x")).is_timeout());
    }
}
