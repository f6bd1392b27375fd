//! Instruction-address decomposition (Figure 7 of the paper).
//!
//! A 24-bit physical instruction address splits into a 16-bit LAT index,
//! a 3-bit line-within-entry field, and a 5-bit byte offset into the
//! 32-byte cache line.

/// Bits of byte offset within a cache line (32-byte lines).
pub const OFFSET_BITS: u32 = 5;
/// Bits selecting a line within one LAT entry (8 lines per entry).
pub const LINE_BITS: u32 = 3;
/// Bytes per cache line.
pub const LINE_SIZE: u32 = 1 << OFFSET_BITS;
/// Cache lines covered by one LAT entry.
pub const LINES_PER_ENTRY: u32 = 1 << LINE_BITS;
/// Original-program bytes covered by one LAT entry (8 lines × 32 B =
/// 64 instructions).
pub const BYTES_PER_ENTRY: u32 = LINE_SIZE * LINES_PER_ENTRY;

/// The three components of a decomposed instruction address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddressParts {
    /// Index into the Line Address Table (the CLB tag).
    pub lat_index: u32,
    /// Which of the entry's 8 lines holds the address (the `L` field).
    pub line_in_entry: u32,
    /// Byte offset within the 32-byte line.
    pub offset: u32,
}

/// Splits an instruction address into LAT index, line-within-entry, and
/// line offset.
///
/// # Examples
///
/// ```
/// use ccrp::addr::decompose;
///
/// let parts = decompose(0x0000_0143);
/// assert_eq!(parts.lat_index, 0x1);      // byte 0x100 region
/// assert_eq!(parts.line_in_entry, 0x2);  // 0x40 / 32
/// assert_eq!(parts.offset, 0x3);
/// ```
pub fn decompose(address: u32) -> AddressParts {
    AddressParts {
        lat_index: address >> (OFFSET_BITS + LINE_BITS),
        line_in_entry: (address >> OFFSET_BITS) & (LINES_PER_ENTRY - 1),
        offset: address & (LINE_SIZE - 1),
    }
}

/// Reassembles an address from its parts (inverse of [`decompose`]).
pub fn compose(parts: AddressParts) -> u32 {
    (parts.lat_index << (OFFSET_BITS + LINE_BITS))
        | (parts.line_in_entry << OFFSET_BITS)
        | parts.offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_constants() {
        assert_eq!(LINE_SIZE, 32);
        assert_eq!(LINES_PER_ENTRY, 8);
        assert_eq!(BYTES_PER_ENTRY, 256);
    }

    proptest! {
        #[test]
        fn compose_inverts_decompose(addr in 0u32..(1 << 24)) {
            prop_assert_eq!(compose(decompose(addr)), addr);
        }

        #[test]
        fn fields_are_in_range(addr: u32) {
            let p = decompose(addr);
            prop_assert!(p.line_in_entry < LINES_PER_ENTRY);
            prop_assert!(p.offset < LINE_SIZE);
        }
    }
}
