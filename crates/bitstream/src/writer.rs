/// An MSB-first bit accumulator that grows a byte vector.
///
/// Bits are packed into bytes starting at the most significant bit, so the
/// first bit written becomes bit 7 of byte 0. The final byte is zero-padded
/// when the stream is not a whole number of bytes.
///
/// # Examples
///
/// ```
/// use ccrp_bitstream::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b01, 2);
/// assert_eq!(w.bit_len(), 3);
/// assert_eq!(w.into_bytes(), vec![0b1010_0000]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    /// Every completed 32-bit word, big-endian.
    bytes: Vec<u8>,
    /// Pending bits, left-aligned: the next bit to emit is bit 63, and
    /// the bits below the `pending` highest are zero.
    acc: u64,
    /// Number of valid bits in `acc`, 0..32 between calls.
    pending: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u32::from(bit), 1);
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// The cost does not depend on `count`: the bits join a 64-bit
    /// accumulator, which hands over a whole word once 32 bits are
    /// pending.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 32, or if `value` has bits set
    /// above `count` (the caller is expected to mask).
    #[inline]
    pub fn write_bits(&mut self, value: u32, count: u32) {
        // panic-ok: documented contract — counts come from code tables, not input.
        assert!((1..=32).contains(&count), "bit count {count} out of range");
        if count < 32 {
            // panic-ok: documented contract — callers mask before writing.
            assert!(
                value < (1u32 << count),
                "value {value:#x} wider than {count} bits"
            );
        }
        // `pending` < 32 and `count` <= 32, so the new bits fit below the
        // pending ones.
        self.acc |= u64::from(value) << (64 - self.pending - count);
        self.pending += count;
        if self.pending >= 32 {
            self.bytes
                .extend_from_slice(&((self.acc >> 32) as u32).to_be_bytes());
            self.acc <<= 32;
            self.pending -= 32;
        }
    }

    /// Appends a whole byte (8 bits).
    #[inline]
    pub fn write_byte(&mut self, byte: u8) {
        self.write_bits(u32::from(byte), 8);
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Number of bytes the stream will occupy once finished (rounded up).
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + self.pending.div_ceil(8) as usize
    }

    /// Pads the final partial byte with zeros and returns the byte vector.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The bit-at-a-time writer the word-wide one replaced, kept as the
    /// oracle it is checked against: one shift into a pending byte per
    /// bit, and a push per completed byte.
    #[derive(Debug, Default)]
    struct BitSerialWriter {
        bytes: Vec<u8>,
        /// Number of valid bits in `partial`, 0..8.
        partial_bits: u32,
        /// Pending bits, right-aligned.
        partial: u8,
        total_bits: u64,
    }

    impl BitSerialWriter {
        fn write_bit(&mut self, bit: bool) {
            self.partial = (self.partial << 1) | u8::from(bit);
            self.partial_bits += 1;
            self.total_bits += 1;
            if self.partial_bits == 8 {
                self.bytes.push(self.partial);
                self.partial = 0;
                self.partial_bits = 0;
            }
        }

        fn write_bits(&mut self, value: u32, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        fn bit_len(&self) -> u64 {
            self.total_bits
        }

        fn byte_len(&self) -> usize {
            self.total_bits.div_ceil(8) as usize
        }

        fn into_bytes(mut self) -> Vec<u8> {
            if self.partial_bits > 0 {
                self.bytes.push(self.partial << (8 - self.partial_bits));
            }
            self.bytes
        }
    }

    /// One call on a writer.
    #[derive(Debug, Clone, Copy)]
    enum Write {
        Bit(bool),
        Bits(u32, u32),
        Byte(u8),
    }

    fn write() -> impl Strategy<Value = Write> {
        prop_oneof![
            any::<bool>().prop_map(Write::Bit),
            (any::<u32>(), 1u32..=32).prop_map(|(v, n)| Write::Bits(v >> (32 - n), n)),
            any::<u8>().prop_map(Write::Byte),
        ]
    }

    /// Replays `writes` on both writers, comparing the lengths after
    /// every call and the bytes at the end.
    fn assert_matches_oracle(writes: &[Write]) {
        let mut w = BitWriter::new();
        let mut oracle = BitSerialWriter::default();
        for (i, &op) in writes.iter().enumerate() {
            match op {
                Write::Bit(b) => {
                    w.write_bit(b);
                    oracle.write_bit(b);
                }
                Write::Bits(v, n) => {
                    w.write_bits(v, n);
                    oracle.write_bits(v, n);
                }
                Write::Byte(b) => {
                    w.write_byte(b);
                    oracle.write_bits(u32::from(b), 8);
                }
            }
            assert_eq!(
                w.bit_len(),
                oracle.bit_len(),
                "bit_len after call {i}: {op:?}"
            );
            assert_eq!(
                w.byte_len(),
                oracle.byte_len(),
                "byte_len after call {i}: {op:?}"
            );
        }
        assert_eq!(w.into_bytes(), oracle.into_bytes(), "{writes:?}");
    }

    proptest! {
        #[test]
        fn matches_the_bit_serial_oracle(writes in proptest::collection::vec(write(), 0..120)) {
            assert_matches_oracle(&writes);
        }
    }

    #[test]
    fn flush_boundaries_match_the_oracle() {
        // Totals just below, at and just above one and two whole words.
        for total in [31u32, 32, 33, 63, 64, 65] {
            // One bit at a time.
            let bits: Vec<Write> = (0..total).map(|i| Write::Bit(i % 3 != 1)).collect();
            assert_matches_oracle(&bits);
            // Whole words, then the rest in one write.
            let mut wide = vec![Write::Bits(0xA5C3_0F96, 32); (total / 32) as usize];
            if total % 32 > 0 {
                wide.push(Write::Bits(0x5A5A_5A5A >> (32 - total % 32), total % 32));
            }
            assert_matches_oracle(&wide);
        }
        // A full-width write over 1 to 7 pending bits.
        for pending in 1..8 {
            let mut writes: Vec<Write> = (0..pending).map(|i| Write::Bit(i % 2 == 0)).collect();
            writes.push(Write::Bits(u32::MAX, 32));
            assert_matches_oracle(&writes);
        }
    }

    #[test]
    fn empty_writer_is_empty() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert_eq!(w.byte_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn partial_byte_is_left_aligned() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        assert_eq!(w.into_bytes(), vec![0b1100_0000]);
    }

    #[test]
    fn write_byte_matches_write_bits() {
        let mut a = BitWriter::new();
        a.write_byte(0xA7);
        let mut b = BitWriter::new();
        b.write_bits(0xA7, 8);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn byte_len_rounds_up() {
        let mut w = BitWriter::new();
        w.write_bits(0x1FF, 9);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn unmasked_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0b100, 2);
    }

    #[test]
    fn full_width_write() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        assert_eq!(w.into_bytes(), vec![0xFF; 4]);
    }
}
