use std::fmt;
use std::str::FromStr;

use crate::error::IsaError;

/// A general-purpose register of the MIPS R2000 (`$0`–`$31`).
///
/// Register 0 is hardwired to zero. Values are validated at construction:
/// a `Reg` always names a real register.
///
/// # Examples
///
/// ```
/// use ccrp_isa::Reg;
///
/// let sp = Reg::SP;
/// assert_eq!(sp.number(), 29);
/// assert_eq!(sp.to_string(), "$sp");
/// assert_eq!("$t0".parse::<Reg>().unwrap(), Reg::T0);
/// assert_eq!("$8".parse::<Reg>().unwrap(), Reg::T0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// Conventional ABI names for the 32 GPRs, indexed by register number.
pub const ABI_NAMES: [&str; 32] = [
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp", "fp",
    "ra",
];

impl Reg {
    /// `$zero`, hardwired to 0.
    pub const ZERO: Reg = Reg(0);
    /// `$at`, assembler temporary.
    pub const AT: Reg = Reg(1);
    /// `$v0`, result register 0 / syscall number.
    pub const V0: Reg = Reg(2);
    /// `$v1`, result register 1.
    pub const V1: Reg = Reg(3);
    /// `$a0`, argument register 0.
    pub const A0: Reg = Reg(4);
    /// `$a1`, argument register 1.
    pub const A1: Reg = Reg(5);
    /// `$a2`, argument register 2.
    pub const A2: Reg = Reg(6);
    /// `$a3`, argument register 3.
    pub const A3: Reg = Reg(7);
    /// `$t0`, caller-saved temporary.
    pub const T0: Reg = Reg(8);
    /// `$t1`, caller-saved temporary.
    pub const T1: Reg = Reg(9);
    /// `$t2`, caller-saved temporary.
    pub const T2: Reg = Reg(10);
    /// `$t3`, caller-saved temporary.
    pub const T3: Reg = Reg(11);
    /// `$t4`, caller-saved temporary.
    pub const T4: Reg = Reg(12);
    /// `$t5`, caller-saved temporary.
    pub const T5: Reg = Reg(13);
    /// `$t6`, caller-saved temporary.
    pub const T6: Reg = Reg(14);
    /// `$t7`, caller-saved temporary.
    pub const T7: Reg = Reg(15);
    /// `$s0`, callee-saved register.
    pub const S0: Reg = Reg(16);
    /// `$s1`, callee-saved register.
    pub const S1: Reg = Reg(17);
    /// `$s2`, callee-saved register.
    pub const S2: Reg = Reg(18);
    /// `$s3`, callee-saved register.
    pub const S3: Reg = Reg(19);
    /// `$s4`, callee-saved register.
    pub const S4: Reg = Reg(20);
    /// `$s5`, callee-saved register.
    pub const S5: Reg = Reg(21);
    /// `$s6`, callee-saved register.
    pub const S6: Reg = Reg(22);
    /// `$s7`, callee-saved register.
    pub const S7: Reg = Reg(23);
    /// `$t8`, caller-saved temporary.
    pub const T8: Reg = Reg(24);
    /// `$t9`, caller-saved temporary.
    pub const T9: Reg = Reg(25);
    /// `$k0`, reserved for the kernel.
    pub const K0: Reg = Reg(26);
    /// `$k1`, reserved for the kernel.
    pub const K1: Reg = Reg(27);
    /// `$gp`, global pointer.
    pub const GP: Reg = Reg(28);
    /// `$sp`, stack pointer.
    pub const SP: Reg = Reg(29);
    /// `$fp`, frame pointer (also `$s8`).
    pub const FP: Reg = Reg(30);
    /// `$ra`, return address.
    pub const RA: Reg = Reg(31);

    /// The registers a code generator may clobber freely without
    /// breaking the ABI or the assembler: the caller-saved temporaries,
    /// argument, and result registers. Excludes `$at` (reserved for
    /// pseudo-instruction expansion), `$k0`/`$k1` (kernel), and the
    /// callee-saved / pointer registers.
    pub const CALLER_SAVED: [Reg; 16] = [
        Reg::V0,
        Reg::V1,
        Reg::A0,
        Reg::A1,
        Reg::A2,
        Reg::A3,
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
        Reg::T7,
        Reg::T8,
        Reg::T9,
    ];

    /// Builds a register from its number.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::RegisterOutOfRange`] if `number > 31`.
    pub fn new(number: u8) -> Result<Reg, IsaError> {
        if number < 32 {
            Ok(Reg(number))
        } else {
            Err(IsaError::RegisterOutOfRange { number })
        }
    }

    /// Builds a register from the low 5 bits of an instruction field.
    pub fn from_field(field: u32) -> Reg {
        Reg((field & 0x1F) as u8)
    }

    /// The register number, 0..=31.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The conventional ABI name, without the `$` sigil.
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0u8..32).map(Reg)
    }

    /// Looks a register up by name, with or without the `$` sigil: a
    /// number `0`–`31`, an [ABI name](ABI_NAMES), or `s8` (the MIPS
    /// alias of `fp`). Allocates nothing; [`FromStr`] is this lookup
    /// plus the error.
    ///
    /// ```
    /// use ccrp_isa::Reg;
    ///
    /// assert_eq!(Reg::from_name("$t0"), Some(Reg::T0));
    /// assert_eq!(Reg::from_name("29"), Some(Reg::SP));
    /// assert_eq!(Reg::from_name("$s8"), Some(Reg::FP));
    /// assert_eq!(Reg::from_name("$32"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Reg> {
        let body = name.strip_prefix('$').unwrap_or(name);
        // A number (`u8` syntax); no ABI name starts with a digit or `+`.
        if let Some(b'0'..=b'9' | b'+') = body.as_bytes().first() {
            return Reg::new(body.parse().ok()?).ok();
        }
        // The ABI names by their bytes, in register order.
        let n = match body.as_bytes() {
            b"zero" => 0,
            b"at" => 1,
            [b'v', d @ b'0'..=b'1'] => 2 + (d - b'0'),
            [b'a', d @ b'0'..=b'3'] => 4 + (d - b'0'),
            [b't', d @ b'0'..=b'7'] => 8 + (d - b'0'),
            [b's', d @ b'0'..=b'7'] => 16 + (d - b'0'),
            [b't', d @ b'8'..=b'9'] => 24 + (d - b'8'),
            [b'k', d @ b'0'..=b'1'] => 26 + (d - b'0'),
            b"gp" => 28,
            b"sp" => 29,
            b"fp" | b"s8" => 30,
            b"ra" => 31,
            _ => return None,
        };
        Some(Reg(n))
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.abi_name())
    }
}

impl FromStr for Reg {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Reg::from_name(s).ok_or_else(|| match s.strip_prefix('$').unwrap_or(s).parse::<u8>() {
            Ok(number) => IsaError::RegisterOutOfRange { number },
            Err(_) => IsaError::UnknownRegister {
                name: s.to_string(),
            },
        })
    }
}

/// A floating-point register of coprocessor 1 (`$f0`–`$f31`).
///
/// Double-precision values occupy an even/odd register pair, addressed by
/// the even register, exactly as on the R2000's R2010 FPA.
///
/// # Examples
///
/// ```
/// use ccrp_isa::FpReg;
///
/// let f12 = FpReg::new(12).unwrap();
/// assert_eq!(f12.to_string(), "$f12");
/// assert_eq!("$f12".parse::<FpReg>().unwrap(), f12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

impl FpReg {
    /// Builds an FP register from its number.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::RegisterOutOfRange`] if `number > 31`.
    pub fn new(number: u8) -> Result<FpReg, IsaError> {
        if number < 32 {
            Ok(FpReg(number))
        } else {
            Err(IsaError::RegisterOutOfRange { number })
        }
    }

    /// Builds an FP register from the low 5 bits of an instruction field.
    pub fn from_field(field: u32) -> FpReg {
        FpReg((field & 0x1F) as u8)
    }

    /// The register number, 0..=31.
    pub fn number(self) -> u8 {
        self.0
    }

    /// Iterates over all 32 FP registers in numeric order.
    pub fn all() -> impl Iterator<Item = FpReg> {
        (0u8..32).map(FpReg)
    }

    /// Looks an FP register up by name, `f0`–`f31` with or without the
    /// `$` sigil. Allocates nothing; [`FromStr`] is this lookup plus the
    /// error.
    ///
    /// ```
    /// use ccrp_isa::FpReg;
    ///
    /// assert_eq!(FpReg::from_name("$f12"), FpReg::new(12).ok());
    /// assert_eq!(FpReg::from_name("$f32"), None);
    /// assert_eq!(FpReg::from_name("$fp"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<FpReg> {
        FpReg::new(fp_number(name)?).ok()
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$f{}", self.0)
    }
}

impl FromStr for FpReg {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FpReg::from_name(s).ok_or_else(|| match fp_number(s) {
            Some(number) => IsaError::RegisterOutOfRange { number },
            None => IsaError::UnknownRegister {
                name: s.to_string(),
            },
        })
    }
}

/// The number in an `f<n>` name (`$` optional), in range or not.
fn fp_number(name: &str) -> Option<u8> {
    let body = name.strip_prefix('$').unwrap_or(name);
    body.strip_prefix('f')?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_and_abi_names_agree() {
        for reg in Reg::all() {
            let by_num: Reg = format!("${}", reg.number()).parse().unwrap();
            let by_name: Reg = reg.to_string().parse().unwrap();
            assert_eq!(by_num, reg);
            assert_eq!(by_name, reg);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Reg::new(32).is_err());
        assert!(FpReg::new(32).is_err());
        assert!("$32".parse::<Reg>().is_err());
        assert!("$f32".parse::<FpReg>().is_err());
        assert!("$bogus".parse::<Reg>().is_err());
    }

    #[test]
    fn s8_alias() {
        assert_eq!("$s8".parse::<Reg>().unwrap(), Reg::FP);
    }

    #[test]
    fn caller_saved_excludes_reserved_registers() {
        for reg in Reg::CALLER_SAVED {
            assert!(![Reg::ZERO, Reg::AT, Reg::K0, Reg::K1].contains(&reg));
            assert!(![Reg::GP, Reg::SP, Reg::FP, Reg::RA].contains(&reg));
            assert!(!(Reg::S0..=Reg::S7).contains(&reg));
        }
        let mut sorted = Reg::CALLER_SAVED.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), Reg::CALLER_SAVED.len(), "no duplicates");
    }

    #[test]
    fn from_field_masks() {
        assert_eq!(Reg::from_field(0x3F).number(), 31);
        assert_eq!(FpReg::from_field(0x20).number(), 0);
    }

    #[test]
    fn fp_roundtrip() {
        for reg in FpReg::all() {
            assert_eq!(reg.to_string().parse::<FpReg>().unwrap(), reg);
        }
    }

    #[test]
    fn lookups_agree_with_the_name_table_and_errors_keep_their_kind() {
        for (n, name) in ABI_NAMES.iter().enumerate() {
            assert_eq!(Reg::from_name(name), Reg::new(n as u8).ok(), "{name}");
        }
        assert_eq!(Reg::from_name("$08"), Some(Reg::T0));
        for name in [
            "$", "$T0", "$t10", "$v2", "$a4", "$k2", "$f0", "$256", "$-1",
        ] {
            assert_eq!(Reg::from_name(name), None, "{name}");
        }
        assert_eq!(
            "$32".parse::<Reg>(),
            Err(IsaError::RegisterOutOfRange { number: 32 })
        );
        assert_eq!(
            "$256".parse::<Reg>(),
            Err(IsaError::UnknownRegister {
                name: "$256".into()
            })
        );
        assert_eq!(FpReg::from_name("$f007"), FpReg::new(7).ok());
        assert_eq!(
            "$f32".parse::<FpReg>(),
            Err(IsaError::RegisterOutOfRange { number: 32 })
        );
        for name in ["$f", "$fp", "$t0", "$f1x"] {
            assert_eq!(
                name.parse::<FpReg>(),
                Err(IsaError::UnknownRegister { name: name.into() })
            );
        }
    }
}
