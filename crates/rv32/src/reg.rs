use std::fmt;

use crate::Rv32Error;

/// Conventional RV32 ABI names, indexed by register number.
pub const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// A validated RV32 integer register (`x0`..`x31`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XReg(u8);

/// Named constants for every architectural register.
#[allow(missing_docs)]
impl XReg {
    pub const ZERO: XReg = XReg(0);
    pub const RA: XReg = XReg(1);
    pub const SP: XReg = XReg(2);
    pub const GP: XReg = XReg(3);
    pub const TP: XReg = XReg(4);
    pub const T0: XReg = XReg(5);
    pub const T1: XReg = XReg(6);
    pub const T2: XReg = XReg(7);
    pub const S0: XReg = XReg(8);
    pub const S1: XReg = XReg(9);
    pub const A0: XReg = XReg(10);
    pub const A1: XReg = XReg(11);
    pub const A2: XReg = XReg(12);
    pub const A3: XReg = XReg(13);
    pub const A4: XReg = XReg(14);
    pub const A5: XReg = XReg(15);
    pub const A6: XReg = XReg(16);
    pub const A7: XReg = XReg(17);
    pub const S2: XReg = XReg(18);
    pub const S3: XReg = XReg(19);
    pub const S4: XReg = XReg(20);
    pub const S5: XReg = XReg(21);
    pub const S6: XReg = XReg(22);
    pub const S7: XReg = XReg(23);
    pub const S8: XReg = XReg(24);
    pub const S9: XReg = XReg(25);
    pub const S10: XReg = XReg(26);
    pub const S11: XReg = XReg(27);
    pub const T3: XReg = XReg(28);
    pub const T4: XReg = XReg(29);
    pub const T5: XReg = XReg(30);
    pub const T6: XReg = XReg(31);
}

impl XReg {
    /// Validates a register number.
    ///
    /// # Errors
    ///
    /// [`Rv32Error::FieldOutOfRange`] for numbers above 31.
    pub fn new(number: u8) -> Result<XReg, Rv32Error> {
        if number < 32 {
            Ok(XReg(number))
        } else {
            Err(Rv32Error::FieldOutOfRange {
                field: "register",
                value: i64::from(number),
            })
        }
    }

    /// The register number, 0..=31.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The conventional ABI name.
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 registers in numeric order.
    pub fn all() -> impl Iterator<Item = XReg> {
        (0u8..32).map(XReg)
    }
}

impl fmt::Display for XReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_names() {
        assert_eq!(XReg::SP.number(), 2);
        assert_eq!(XReg::A0.to_string(), "a0");
        assert_eq!(XReg::all().count(), 32);
        assert!(XReg::new(32).is_err());
    }
}
