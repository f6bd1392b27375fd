//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the
//! container format's per-block integrity records.
//!
//! A flipped ROM bit inside a compressed block can decode to a *valid*
//! wrong byte sequence — bounded Huffman streams have no redundancy of
//! their own — so version-2 containers store one CRC-32 per stored block
//! (and one over the header) to turn those silent miscompares into
//! detected errors. Table-driven and std-only, eight bytes per step
//! (slicing-by-8): besides the integrity records, every emulator
//! fingerprints its program text with it when it is built.

/// `TABLES[k][b]` is the CRC register after byte `b` and then `k` zero
/// bytes, built at compile time. `TABLES[0]` is the byte-at-a-time
/// table; together they fold eight bytes in with eight independent
/// lookups.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into the CRC register.
fn crc_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC-32 of `bytes` (IEEE: init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
///
/// # Examples
///
/// ```
/// // The classic check value for "123456789".
/// assert_eq!(ccrp::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    chunks
        .remainder()
        .iter()
        .fold(crc, |crc, &b| crc_byte(crc, b))
        ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn eight_byte_steps_match_the_bytewise_register() {
        let data: Vec<u8> = (0u32..300)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..9 {
            for end in start..data.len() {
                let bytes = &data[start..end];
                let bytewise = bytes.iter().fold(0xFFFF_FFFF, |crc, &b| crc_byte(crc, b));
                assert_eq!(crc32(bytes), bytewise ^ 0xFFFF_FFFF, "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn single_bit_flip_always_changes_crc() {
        let data: Vec<u8> = (0u16..64).map(|i| (i * 7) as u8).collect();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
