//! An LZW compressor in the style of Unix `compress` ([Welch 1984]).
//!
//! The paper uses `compress` as the reference point for its custom block
//! codes (Figure 5): file-based LZW compresses whole programs well but
//! cannot decompress individual cache lines, which is why the CCRP uses
//! Huffman blocks instead. This module reproduces that reference point.
//!
//! Faithful to `compress(1)` where it matters for output *size*:
//! variable-width codes growing from 9 to 16 bits, a dictionary reset
//! (CLEAR) when full. Header magic bytes are omitted.
//!
//! [Welch 1984]: https://doi.org/10.1109/MC.1984.1659158

use ccrp_bitstream::{BitReader, BitWriter};

use crate::error::CompressError;

const CLEAR: u32 = 256;
const FIRST_FREE: u32 = 257;
const MIN_WIDTH: u32 = 9;
const MAX_WIDTH: u32 = 16;
/// log2 of the dictionary's slot count: 2^17 slots hold the at most
/// 65,279 entries (codes 257..2^16) of one generation at no more than
/// half full, so linear probes stay short and always find a free slot.
const SLOT_BITS: u32 = 17;

/// The compressor's dictionary: an open-addressed table from a string's
/// key, `(prefix code << 8) | appended byte`, to the string's code.
///
/// Each slot holds `key << 32 | code`, or 0 when empty — codes start at
/// [`FIRST_FREE`], so an occupied slot is never 0. Collisions probe
/// linearly.
struct Dictionary {
    slots: Vec<u64>,
}

impl Dictionary {
    fn new() -> Self {
        Self {
            slots: vec![0; 1 << SLOT_BITS],
        }
    }

    /// The code stored under `key`, or `Err` with the empty slot where
    /// `key` belongs.
    fn find(&self, key: u32) -> Result<u32, usize> {
        let mask = (1 << SLOT_BITS) - 1;
        // Fibonacci hashing: the product's top bits pick the slot.
        let mut slot = (key.wrapping_mul(0x9E37_79B9) >> (32 - SLOT_BITS)) as usize;
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                entry if (entry >> 32) as u32 == key => return Ok(entry as u32),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `code` under `key` in `slot`, an empty slot [`find`]
    /// returned for that key.
    ///
    /// [`find`]: Self::find
    fn insert(&mut self, slot: usize, key: u32, code: u32) {
        self.slots[slot] = u64::from(key) << 32 | u64::from(code);
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// Compresses `data` with `compress`-style LZW.
///
/// The dictionary hashes with a fixed multiplier rather than a keyed
/// hash, so input crafted to collide can lengthen probes, to at most
/// the 65,279 entries of one dictionary generation per input byte. Use
/// it on trusted data, such as the program texts Figure 5 measures.
///
/// # Examples
///
/// ```
/// use ccrp_compress::lzw;
///
/// let data = b"abababababababab";
/// let packed = lzw::compress(data);
/// assert!(packed.len() < data.len());
/// assert_eq!(lzw::decompress(&packed)?, data);
/// # Ok::<(), ccrp_compress::CompressError>(())
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = BitWriter::with_capacity(data.len() / 2);
    let Some((&first, rest)) = data.split_first() else {
        return out.into_bytes();
    };
    let mut dict = Dictionary::new();
    let mut next_code = FIRST_FREE;
    let mut width = MIN_WIDTH;
    let mut current = u32::from(first);

    for &byte in rest {
        let key = (current << 8) | u32::from(byte);
        let slot = match dict.find(key) {
            Ok(code) => {
                current = code;
                continue;
            }
            Err(slot) => slot,
        };
        out.write_bits(current, width);
        if next_code < (1 << MAX_WIDTH) {
            dict.insert(slot, key, next_code);
            next_code += 1;
            if next_code > (1 << width) && width < MAX_WIDTH {
                width += 1;
            }
        } else {
            // Dictionary full: emit CLEAR and start over, as block-mode
            // compress does when the ratio degrades. Resetting
            // unconditionally is simpler and close in practice.
            out.write_bits(CLEAR, width);
            dict.clear();
            next_code = FIRST_FREE;
            width = MIN_WIDTH;
        }
        current = u32::from(byte);
    }
    out.write_bits(current, width);
    out.into_bytes()
}

/// Decompresses the output of [`compress`].
///
/// # Errors
///
/// [`CompressError::BadLzwCode`] if the stream references a dictionary
/// entry that does not exist (corrupt input).
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, CompressError> {
    let mut reader = BitReader::new(packed);
    let mut out = Vec::with_capacity(packed.len() * 2);
    // Dictionary entry: (prefix code, appended byte); strings are
    // materialized by walking prefixes.
    let mut dict: Vec<(u32, u8)> = Vec::new();
    let mut width = MIN_WIDTH;
    let mut prev: Option<u32> = None;

    fn expand(dict: &[(u32, u8)], mut code: u32, out: &mut Vec<u8>) -> Result<u8, CompressError> {
        let start = out.len();
        loop {
            if code < 256 {
                out.push(code as u8);
                break;
            }
            let index = (code - FIRST_FREE) as usize;
            let &(prefix, byte) = dict.get(index).ok_or(CompressError::BadLzwCode { code })?;
            out.push(byte);
            code = prefix;
        }
        out[start..].reverse();
        Ok(out[start])
    }

    while reader.remaining() >= u64::from(width) {
        let code = reader.read_bits(width)?;
        if code == CLEAR {
            dict.clear();
            width = MIN_WIDTH;
            prev = None;
            continue;
        }
        let next_code = FIRST_FREE + dict.len() as u32;
        match prev {
            None => {
                if code >= 256 {
                    return Err(CompressError::BadLzwCode { code });
                }
                out.push(code as u8);
            }
            Some(prev_code) => {
                if code < next_code {
                    let first = expand(&dict, code, &mut out)?;
                    if next_code < (1 << MAX_WIDTH) {
                        dict.push((prev_code, first));
                    }
                } else if code == next_code && next_code < (1 << MAX_WIDTH) {
                    // The KwKwK special case: the new string is the
                    // previous one followed by its own first byte.
                    let first = expand(&dict, prev_code, &mut out)?;
                    out.push(first);
                    dict.push((prev_code, first));
                } else {
                    return Err(CompressError::BadLzwCode { code });
                }
            }
        }
        if FIRST_FREE + dict.len() as u32 + 1 > (1 << width) && width < MAX_WIDTH {
            width += 1;
        }
        prev = Some(code);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;

    /// The reference compressor: the same algorithm over a SipHash
    /// `HashMap` dictionary. [`compress`] must emit identical bytes.
    fn oracle(data: &[u8]) -> Vec<u8> {
        let mut out = BitWriter::with_capacity(data.len() / 2);
        let mut dict: HashMap<(u32, u8), u32> = HashMap::new();
        let mut next_code = FIRST_FREE;
        let mut width = MIN_WIDTH;
        let mut current: Option<u32> = None;

        for &byte in data {
            let cur = match current {
                None => {
                    current = Some(u32::from(byte));
                    continue;
                }
                Some(c) => c,
            };
            if let Some(&code) = dict.get(&(cur, byte)) {
                current = Some(code);
                continue;
            }
            out.write_bits(cur, width);
            if next_code < (1 << MAX_WIDTH) {
                dict.insert((cur, byte), next_code);
                next_code += 1;
                if next_code > (1 << width) && width < MAX_WIDTH {
                    width += 1;
                }
            } else {
                out.write_bits(CLEAR, width);
                dict.clear();
                next_code = FIRST_FREE;
                width = MIN_WIDTH;
            }
            current = Some(u32::from(byte));
        }
        if let Some(cur) = current {
            out.write_bits(cur, width);
        }
        out.into_bytes()
    }

    /// `len` bytes from a fixed linear congruential generator.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x1234_5678u32;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
                (x >> 16) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_oracle_through_dictionary_resets() {
        let data = noise(1 << 18);
        let packed = compress(&data);
        // No code is wider than 16 bits, so this many bits hold more
        // codes than one dictionary generation has entries: the stream
        // went through CLEAR at least once.
        assert!(packed.len() * 8 / MAX_WIDTH as usize > 1 << MAX_WIDTH);
        assert!(packed == oracle(&data), "streams differ");
    }

    #[test]
    fn empty_input() {
        assert!(compress(&[]).is_empty());
        assert_eq!(decompress(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_byte() {
        let packed = compress(&[42]);
        assert_eq!(decompress(&packed).unwrap(), vec![42]);
    }

    #[test]
    fn kwkwk_case() {
        // "aaaa..." triggers the code == next_code path immediately.
        let data = vec![b'a'; 100];
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn compresses_repetitive_code() {
        // Something shaped like RISC code: repeating 4-byte patterns.
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.extend_from_slice(&(0x2402_0000u32 | (i % 37)).to_le_bytes());
        }
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 2,
            "expected >50% compression, got {}/{}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn survives_dictionary_reset() {
        // Enough distinct material to fill the 16-bit dictionary.
        let data = noise(1 << 19);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_detected() {
        // A stream that immediately references an undefined entry.
        let mut w = ccrp_bitstream::BitWriter::new();
        w.write_bits(300, 9);
        let err = decompress(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, CompressError::BadLzwCode { .. }));
    }

    proptest! {
        #[test]
        fn roundtrip_random(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).unwrap(), data);
        }

        #[test]
        fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..5000)) {
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).unwrap(), data);
        }

        #[test]
        fn matches_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..5000),
            low in proptest::collection::vec(0u8..4, 0..20000),
        ) {
            prop_assert_eq!(compress(&data), oracle(&data));
            prop_assert_eq!(compress(&low), oracle(&low));
        }
    }
}
