//! MIPS R2000 instruction set architecture.
//!
//! The CCRP paper (Wolfe & Chanin, MICRO-25 1992) builds on the MIPS R2000:
//! its experiments compress R2000 object code and replay R2000 instruction
//! traces. This crate is the ISA substrate for the whole reproduction:
//!
//! * [`Reg`] / [`FpReg`] — validated register names,
//! * [`Instruction`] — a decoded, field-validated instruction,
//! * [`Instruction::encode`] / [`decode`] — the 32-bit binary encoding,
//! * [`RawWord`] — raw bit-field access without decoding,
//! * `Display` impls — a disassembler whose output re-assembles.
//!
//! The supported subset is the user-mode integer ISA plus the R2010
//! floating-point coprocessor operations that 1992 MIPS compilers emitted
//! (loads/stores, arithmetic, conversions, compares, and condition
//! branches). Kernel/coprocessor-0 instructions are outside the paper's
//! workloads and are rejected by [`decode`].
//!
//! # Examples
//!
//! Round-tripping a hand-built instruction:
//!
//! ```
//! use ccrp_isa::{decode, AluOp, Instruction, Reg};
//!
//! let inst = Instruction::RAlu {
//!     op: AluOp::Addu,
//!     rd: Reg::V0,
//!     rs: Reg::A0,
//!     rt: Reg::A1,
//! };
//! assert_eq!(decode(inst.encode())?, inst);
//! assert_eq!(inst.to_string(), "addu $v0, $a0, $a1");
//! # Ok::<(), ccrp_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod disasm;
mod encode;
mod error;
mod instr;
mod reg;

pub use decode::{decode, RawWord};
pub use disasm::disassemble_word;
pub use error::IsaError;
pub use instr::{
    AluOp, BranchOp, BranchZOp, Cp1MoveOp, FpCond, FpFmt, FpOp, FpUnaryOp, HiLoOp, IAluOp,
    Instruction, MemOp, MultDivOp, ShiftOp,
};
pub use reg::{FpReg, Reg, ABI_NAMES};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..32).prop_map(|n| Reg::new(n).expect("in range"))
    }

    fn arb_fpreg() -> impl Strategy<Value = FpReg> {
        (0u8..32).prop_map(|n| FpReg::new(n).expect("in range"))
    }

    fn arb_fmt_sd() -> impl Strategy<Value = FpFmt> {
        prop_oneof![Just(FpFmt::Single), Just(FpFmt::Double)]
    }

    prop_compose! {
        fn arb_shamt()(s in 0u8..32) -> u8 { s }
    }

    fn arb_instruction() -> impl Strategy<Value = Instruction> {
        prop_oneof![
            (
                proptest::sample::select(&AluOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                arb_reg()
            )
                .prop_map(|(op, rd, rs, rt)| Instruction::RAlu { op, rd, rs, rt }),
            (
                proptest::sample::select(&ShiftOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                arb_shamt()
            )
                .prop_map(|(op, rd, rt, shamt)| Instruction::Shift {
                    op,
                    rd,
                    rt,
                    shamt
                }),
            (
                proptest::sample::select(&ShiftOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                arb_reg()
            )
                .prop_map(|(op, rd, rt, rs)| Instruction::ShiftV { op, rd, rt, rs }),
            (
                proptest::sample::select(&MultDivOp::ALL[..]),
                arb_reg(),
                arb_reg()
            )
                .prop_map(|(op, rs, rt)| Instruction::MultDiv { op, rs, rt }),
            (proptest::sample::select(&HiLoOp::ALL[..]), arb_reg())
                .prop_map(|(op, reg)| Instruction::HiLo { op, reg }),
            arb_reg().prop_map(|rs| Instruction::Jr { rs }),
            (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instruction::Jalr { rd, rs }),
            (0u32..(1 << 20)).prop_map(|code| Instruction::Syscall { code }),
            (0u32..(1 << 20)).prop_map(|code| Instruction::Break { code }),
            (
                proptest::sample::select(&IAluOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                any::<u16>()
            )
                .prop_map(|(op, rt, rs, imm)| Instruction::IAlu { op, rt, rs, imm }),
            (arb_reg(), any::<u16>()).prop_map(|(rt, imm)| Instruction::Lui { rt, imm }),
            (
                proptest::sample::select(&BranchOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                any::<i16>()
            )
                .prop_map(|(op, rs, rt, offset)| Instruction::Branch {
                    op,
                    rs,
                    rt,
                    offset
                }),
            (
                proptest::sample::select(&BranchZOp::ALL[..]),
                arb_reg(),
                any::<i16>()
            )
                .prop_map(|(op, rs, offset)| Instruction::BranchZ { op, rs, offset }),
            (any::<bool>(), 0u32..(1 << 26))
                .prop_map(|(link, target)| Instruction::Jump { link, target }),
            (
                proptest::sample::select(&MemOp::ALL[..]),
                arb_reg(),
                arb_reg(),
                any::<i16>()
            )
                .prop_map(|(op, rt, base, offset)| Instruction::Mem {
                    op,
                    rt,
                    base,
                    offset
                }),
            (any::<bool>(), arb_fpreg(), arb_reg(), any::<i16>()).prop_map(
                |(store, ft, base, offset)| Instruction::FpMem {
                    store,
                    ft,
                    base,
                    offset
                }
            ),
            (
                proptest::sample::select(&Cp1MoveOp::ALL[..]),
                arb_reg(),
                arb_fpreg()
            )
                .prop_map(|(op, rt, fs)| Instruction::Cp1Move { op, rt, fs }),
            (
                proptest::sample::select(&FpOp::ALL[..]),
                arb_fmt_sd(),
                arb_fpreg(),
                arb_fpreg(),
                arb_fpreg()
            )
                .prop_map(|(op, fmt, fd, fs, ft)| Instruction::FpArith {
                    op,
                    fmt,
                    fd,
                    fs,
                    ft
                }),
            (
                proptest::sample::select(&FpUnaryOp::ALL[..]),
                arb_fmt_sd(),
                arb_fpreg(),
                arb_fpreg()
            )
                .prop_map(|(op, fmt, fd, fs)| Instruction::FpUnary { op, fmt, fd, fs }),
            (arb_fpreg(), arb_fpreg(), 0usize..6).prop_map(|(fd, fs, pair)| {
                let (to, from) = [
                    (FpFmt::Single, FpFmt::Double),
                    (FpFmt::Single, FpFmt::Word),
                    (FpFmt::Double, FpFmt::Single),
                    (FpFmt::Double, FpFmt::Word),
                    (FpFmt::Word, FpFmt::Single),
                    (FpFmt::Word, FpFmt::Double),
                ][pair];
                Instruction::FpCvt { to, from, fd, fs }
            }),
            (
                proptest::sample::select(&FpCond::ALL[..]),
                arb_fmt_sd(),
                arb_fpreg(),
                arb_fpreg()
            )
                .prop_map(|(cond, fmt, fs, ft)| Instruction::FpCmp {
                    cond,
                    fmt,
                    fs,
                    ft
                }),
            (any::<bool>(), any::<i16>())
                .prop_map(|(on_true, offset)| Instruction::Bc1 { on_true, offset }),
        ]
    }

    proptest! {
        /// encode → decode is the identity on every constructible instruction.
        #[test]
        fn encode_decode_roundtrip(inst in arb_instruction()) {
            let word = inst.encode();
            let back = decode(word).expect("encoded instruction must decode");
            prop_assert_eq!(back, inst);
        }

        /// decode → encode is the identity on every word that decodes and
        /// whose don't-care fields are zero (canonical words).
        #[test]
        fn decode_encode_roundtrip(inst in arb_instruction()) {
            let word = inst.encode();
            let reencoded = decode(word).expect("decodes").encode();
            prop_assert_eq!(reencoded, word);
        }
    }
}
