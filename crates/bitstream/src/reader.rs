use std::error::Error;
use std::fmt;

/// Error returned when a [`BitReader`] runs past the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadBitsError {
    /// Bit position at which the read was attempted.
    pub at_bit: u64,
    /// Number of bits requested.
    pub requested: u32,
    /// Number of bits available in the stream.
    pub available: u64,
}

impl fmt::Display for ReadBitsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit stream exhausted: requested {} bits at bit {}, only {} bits total",
            self.requested, self.at_bit, self.available
        )
    }
}

impl Error for ReadBitsError {}

/// An MSB-first bit cursor over a byte slice.
///
/// The mirror image of [`BitWriter`](crate::BitWriter): the first bit read
/// is bit 7 of byte 0.
///
/// # Examples
///
/// ```
/// use ccrp_bitstream::BitReader;
///
/// let mut r = BitReader::new(&[0b1011_0001]);
/// assert_eq!(r.read_bits(4).unwrap(), 0b1011);
/// assert_eq!(r.bit_pos(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`, positioned at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, bit_pos: 0 }
    }

    /// Current position in bits from the start of the stream.
    pub fn bit_pos(&self) -> u64 {
        self.bit_pos
    }

    /// Total number of bits in the underlying slice.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Number of bits left to read.
    pub fn remaining(&self) -> u64 {
        self.bit_len() - self.bit_pos
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, ReadBitsError> {
        if self.bit_pos >= self.bit_len() {
            return Err(ReadBitsError {
                at_bit: self.bit_pos,
                requested: 1,
                available: self.bit_len(),
            });
        }
        let byte = self.bytes[(self.bit_pos / 8) as usize];
        let shift = 7 - (self.bit_pos % 8) as u32;
        self.bit_pos += 1;
        Ok((byte >> shift) & 1 == 1)
    }

    /// Reads `count` bits (1..=32), returning them right-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if fewer than `count` bits remain; the
    /// reader position is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 32.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, ReadBitsError> {
        // panic-ok: documented contract — counts come from code tables, not input.
        assert!((1..=32).contains(&count), "bit count {count} out of range");
        if self.remaining() < u64::from(count) {
            return Err(ReadBitsError {
                at_bit: self.bit_pos,
                requested: count,
                available: self.bit_len(),
            });
        }
        let byte_index = (self.bit_pos / 8) as usize;
        let mut word = [0u8; 8];
        match self.bytes.get(byte_index..byte_index + 5) {
            // Away from the tail, load the 5 bytes any mid-byte 32-bit
            // read can touch in one go.
            Some(window) => word[..5].copy_from_slice(window),
            // At the tail, the fewer bytes left hold all `count` bits.
            None => {
                let tail = &self.bytes[byte_index..];
                word[..tail.len()].copy_from_slice(tail);
            }
        }
        let value = (u64::from_be_bytes(word) << (self.bit_pos % 8)) >> (64 - count);
        self.bit_pos += u64::from(count);
        Ok(value as u32)
    }

    /// Skips forward `count` bits.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if fewer than `count` bits remain.
    pub fn skip(&mut self, count: u64) -> Result<(), ReadBitsError> {
        if self.remaining() < count {
            return Err(ReadBitsError {
                at_bit: self.bit_pos,
                requested: count.min(u64::from(u32::MAX)) as u32,
                available: self.bit_len(),
            });
        }
        self.bit_pos += count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_msb_first() {
        let mut r = BitReader::new(&[0b1000_0001, 0xFF]);
        assert!(r.read_bit().unwrap());
        for _ in 0..6 {
            assert!(!r.read_bit().unwrap());
        }
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
    }

    #[test]
    fn error_reports_positions() {
        let mut r = BitReader::new(&[0xAA]);
        r.read_bits(6).unwrap();
        let err = r.read_bits(4).unwrap_err();
        assert_eq!(err.at_bit, 6);
        assert_eq!(err.requested, 4);
        assert_eq!(err.available, 8);
        // Position unchanged after a failed read.
        assert_eq!(r.bit_pos(), 6);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn error_displays() {
        let err = ReadBitsError {
            at_bit: 6,
            requested: 4,
            available: 8,
        };
        let text = err.to_string();
        assert!(text.contains("requested 4 bits"));
    }

    #[test]
    fn skip_moves_cursor() {
        let mut r = BitReader::new(&[0x0F, 0xF0]);
        r.skip(4).unwrap();
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.skip(5).is_err());
        r.skip(4).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn read_full_word() {
        let mut r = BitReader::new(&[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
    }

    /// `count` bits of `bytes` from bit `start`, one bit at a time.
    fn bit_by_bit(bytes: &[u8], start: u64, count: u32) -> u32 {
        (start..start + u64::from(count)).fold(0, |acc, pos| {
            acc << 1 | u32::from(bytes[(pos / 8) as usize] >> (7 - pos % 8) & 1)
        })
    }

    #[test]
    fn reads_match_bit_by_bit_at_every_offset_and_count() {
        // Reads with five bytes to go take the 5-byte window, the rest
        // the tail path.
        for bytes in [
            &[0xA5, 0x3C, 0x0F, 0xF0, 0x81][..],
            &[0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC],
        ] {
            let bits = bytes.len() as u64 * 8;
            for start in 0..bits {
                for count in 1..=(bits - start).min(32) as u32 {
                    let mut r = BitReader::new(bytes);
                    r.skip(start).unwrap();
                    let expected = bit_by_bit(bytes, start, count);
                    assert_eq!(r.read_bits(count).unwrap(), expected, "{start}+{count}");
                    assert_eq!(r.bit_pos(), start + u64::from(count));
                }
            }
        }
    }
}
