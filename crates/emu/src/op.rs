//! The emulator's decoded form of one text word.
//!
//! [`Op`] has one variant per operation, so executing a word is one
//! `match` on its tag. Register numbers are plain `u8`s, immediates are
//! already sign- or zero-extended, `lui`'s is already shifted, branch
//! offsets are already scaled to bytes, and FP ops are already split by
//! format. Formats the decoder rejects (word-format arithmetic,
//! same-format conversions) have no variant at all.

use ccrp_isa::{
    decode, AluOp, BranchOp, BranchZOp, Cp1MoveOp, FpCond, FpFmt, FpOp, FpUnaryOp, HiLoOp, IAluOp,
    Instruction, MemOp, MultDivOp, ShiftOp,
};

/// One decoded text word. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Nothing decoded here: a data word, an invalid encoding, or a word
    /// of a ROM line not yet expanded. Fetching it takes the slow path.
    Undecoded,
    Add {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Addu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Sub {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Subu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    And {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Or {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Xor {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Nor {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Slt {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Sltu {
        rd: u8,
        rs: u8,
        rt: u8,
    },
    Sll {
        rd: u8,
        rt: u8,
        shamt: u8,
    },
    Srl {
        rd: u8,
        rt: u8,
        shamt: u8,
    },
    Sra {
        rd: u8,
        rt: u8,
        shamt: u8,
    },
    Sllv {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Srlv {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Srav {
        rd: u8,
        rt: u8,
        rs: u8,
    },
    Mult {
        rs: u8,
        rt: u8,
    },
    Multu {
        rs: u8,
        rt: u8,
    },
    Div {
        rs: u8,
        rt: u8,
    },
    Divu {
        rs: u8,
        rt: u8,
    },
    Mfhi {
        rd: u8,
    },
    Mthi {
        rs: u8,
    },
    Mflo {
        rd: u8,
    },
    Mtlo {
        rs: u8,
    },
    Jr {
        rs: u8,
    },
    Jalr {
        rd: u8,
        rs: u8,
    },
    Syscall,
    Break {
        code: u32,
    },
    /// `addi`, with the immediate sign-extended.
    Addi {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `addiu`, with the immediate sign-extended.
    Addiu {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `slti`, with the immediate sign-extended.
    Slti {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `sltiu`, with the immediate sign-extended (compared unsigned).
    Sltiu {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `andi`, with the immediate zero-extended.
    Andi {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `ori`, with the immediate zero-extended.
    Ori {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `xori`, with the immediate zero-extended.
    Xori {
        rt: u8,
        rs: u8,
        imm: u32,
    },
    /// `lui`, with the immediate already in the upper halfword.
    Lui {
        rt: u8,
        value: u32,
    },
    /// Branch offsets are in bytes from the delay slot.
    Beq {
        rs: u8,
        rt: u8,
        offset: u32,
    },
    Bne {
        rs: u8,
        rt: u8,
        offset: u32,
    },
    Blez {
        rs: u8,
        offset: u32,
    },
    Bgtz {
        rs: u8,
        offset: u32,
    },
    Bltz {
        rs: u8,
        offset: u32,
    },
    Bgez {
        rs: u8,
        offset: u32,
    },
    Bltzal {
        rs: u8,
        offset: u32,
    },
    Bgezal {
        rs: u8,
        offset: u32,
    },
    /// Jump targets are the byte address within the current 256 MiB
    /// region.
    J {
        target: u32,
    },
    Jal {
        target: u32,
    },
    /// Memory offsets are sign-extended byte offsets.
    Lb {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lbu {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lh {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lhu {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lw {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lwl {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lwr {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Sb {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Sh {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Sw {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Swl {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Swr {
        rt: u8,
        base: u8,
        offset: u32,
    },
    Lwc1 {
        ft: u8,
        base: u8,
        offset: u32,
    },
    Swc1 {
        ft: u8,
        base: u8,
        offset: u32,
    },
    Mfc1 {
        rt: u8,
        fs: u8,
    },
    Mtc1 {
        rt: u8,
        fs: u8,
    },
    Cfc1 {
        rt: u8,
    },
    Ctc1 {
        rt: u8,
    },
    AddS {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    SubS {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    MulS {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    DivS {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    AddD {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    SubD {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    MulD {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    DivD {
        fd: u8,
        fs: u8,
        ft: u8,
    },
    AbsS {
        fd: u8,
        fs: u8,
    },
    NegS {
        fd: u8,
        fs: u8,
    },
    MovS {
        fd: u8,
        fs: u8,
    },
    AbsD {
        fd: u8,
        fs: u8,
    },
    NegD {
        fd: u8,
        fs: u8,
    },
    MovD {
        fd: u8,
        fs: u8,
    },
    /// `cvt.s.d`: conversions are named destination first.
    CvtSD {
        fd: u8,
        fs: u8,
    },
    CvtSW {
        fd: u8,
        fs: u8,
    },
    CvtDS {
        fd: u8,
        fs: u8,
    },
    CvtDW {
        fd: u8,
        fs: u8,
    },
    CvtWS {
        fd: u8,
        fs: u8,
    },
    CvtWD {
        fd: u8,
        fs: u8,
    },
    CEqS {
        fs: u8,
        ft: u8,
    },
    CLtS {
        fs: u8,
        ft: u8,
    },
    CLeS {
        fs: u8,
        ft: u8,
    },
    CEqD {
        fs: u8,
        ft: u8,
    },
    CLtD {
        fs: u8,
        ft: u8,
    },
    CLeD {
        fs: u8,
        ft: u8,
    },
    /// `bc1t` and `bc1f`, offsets in bytes from the delay slot.
    Bc1t {
        offset: u32,
    },
    Bc1f {
        offset: u32,
    },
}

impl Op {
    /// Decodes one text word; [`Op::Undecoded`] when it does not decode.
    pub(crate) fn decode(word: u32) -> Op {
        decode(word).map_or(Op::Undecoded, Op::from)
    }
}

/// A branch's signed word offset, scaled to bytes.
fn scaled(offset: i16) -> u32 {
    (i32::from(offset) << 2) as u32
}

impl From<Instruction> for Op {
    fn from(inst: Instruction) -> Op {
        match inst {
            Instruction::RAlu { op, rd, rs, rt } => {
                let (rd, rs, rt) = (rd.number(), rs.number(), rt.number());
                match op {
                    AluOp::Add => Op::Add { rd, rs, rt },
                    AluOp::Addu => Op::Addu { rd, rs, rt },
                    AluOp::Sub => Op::Sub { rd, rs, rt },
                    AluOp::Subu => Op::Subu { rd, rs, rt },
                    AluOp::And => Op::And { rd, rs, rt },
                    AluOp::Or => Op::Or { rd, rs, rt },
                    AluOp::Xor => Op::Xor { rd, rs, rt },
                    AluOp::Nor => Op::Nor { rd, rs, rt },
                    AluOp::Slt => Op::Slt { rd, rs, rt },
                    AluOp::Sltu => Op::Sltu { rd, rs, rt },
                }
            }
            Instruction::Shift { op, rd, rt, shamt } => {
                let (rd, rt) = (rd.number(), rt.number());
                match op {
                    ShiftOp::Sll => Op::Sll { rd, rt, shamt },
                    ShiftOp::Srl => Op::Srl { rd, rt, shamt },
                    ShiftOp::Sra => Op::Sra { rd, rt, shamt },
                }
            }
            Instruction::ShiftV { op, rd, rt, rs } => {
                let (rd, rt, rs) = (rd.number(), rt.number(), rs.number());
                match op {
                    ShiftOp::Sll => Op::Sllv { rd, rt, rs },
                    ShiftOp::Srl => Op::Srlv { rd, rt, rs },
                    ShiftOp::Sra => Op::Srav { rd, rt, rs },
                }
            }
            Instruction::MultDiv { op, rs, rt } => {
                let (rs, rt) = (rs.number(), rt.number());
                match op {
                    MultDivOp::Mult => Op::Mult { rs, rt },
                    MultDivOp::Multu => Op::Multu { rs, rt },
                    MultDivOp::Div => Op::Div { rs, rt },
                    MultDivOp::Divu => Op::Divu { rs, rt },
                }
            }
            Instruction::HiLo { op, reg } => {
                let reg = reg.number();
                match op {
                    HiLoOp::Mfhi => Op::Mfhi { rd: reg },
                    HiLoOp::Mthi => Op::Mthi { rs: reg },
                    HiLoOp::Mflo => Op::Mflo { rd: reg },
                    HiLoOp::Mtlo => Op::Mtlo { rs: reg },
                }
            }
            Instruction::Jr { rs } => Op::Jr { rs: rs.number() },
            Instruction::Jalr { rd, rs } => Op::Jalr {
                rd: rd.number(),
                rs: rs.number(),
            },
            Instruction::Syscall { .. } => Op::Syscall,
            Instruction::Break { code } => Op::Break { code },
            Instruction::IAlu { op, rt, rs, imm } => {
                let (rt, rs) = (rt.number(), rs.number());
                let signed = imm as i16 as i32 as u32;
                let unsigned = u32::from(imm);
                match op {
                    IAluOp::Addi => Op::Addi {
                        rt,
                        rs,
                        imm: signed,
                    },
                    IAluOp::Addiu => Op::Addiu {
                        rt,
                        rs,
                        imm: signed,
                    },
                    IAluOp::Slti => Op::Slti {
                        rt,
                        rs,
                        imm: signed,
                    },
                    IAluOp::Sltiu => Op::Sltiu {
                        rt,
                        rs,
                        imm: signed,
                    },
                    IAluOp::Andi => Op::Andi {
                        rt,
                        rs,
                        imm: unsigned,
                    },
                    IAluOp::Ori => Op::Ori {
                        rt,
                        rs,
                        imm: unsigned,
                    },
                    IAluOp::Xori => Op::Xori {
                        rt,
                        rs,
                        imm: unsigned,
                    },
                }
            }
            Instruction::Lui { rt, imm } => Op::Lui {
                rt: rt.number(),
                value: u32::from(imm) << 16,
            },
            Instruction::Branch { op, rs, rt, offset } => {
                let (rs, rt, offset) = (rs.number(), rt.number(), scaled(offset));
                match op {
                    BranchOp::Beq => Op::Beq { rs, rt, offset },
                    BranchOp::Bne => Op::Bne { rs, rt, offset },
                }
            }
            Instruction::BranchZ { op, rs, offset } => {
                let (rs, offset) = (rs.number(), scaled(offset));
                match op {
                    BranchZOp::Blez => Op::Blez { rs, offset },
                    BranchZOp::Bgtz => Op::Bgtz { rs, offset },
                    BranchZOp::Bltz => Op::Bltz { rs, offset },
                    BranchZOp::Bgez => Op::Bgez { rs, offset },
                    BranchZOp::Bltzal => Op::Bltzal { rs, offset },
                    BranchZOp::Bgezal => Op::Bgezal { rs, offset },
                }
            }
            Instruction::Jump { link, target } => {
                let target = target << 2;
                if link {
                    Op::Jal { target }
                } else {
                    Op::J { target }
                }
            }
            Instruction::Mem {
                op,
                rt,
                base,
                offset,
            } => {
                let (rt, base) = (rt.number(), base.number());
                let offset = offset as i32 as u32;
                match op {
                    MemOp::Lb => Op::Lb { rt, base, offset },
                    MemOp::Lbu => Op::Lbu { rt, base, offset },
                    MemOp::Lh => Op::Lh { rt, base, offset },
                    MemOp::Lhu => Op::Lhu { rt, base, offset },
                    MemOp::Lw => Op::Lw { rt, base, offset },
                    MemOp::Lwl => Op::Lwl { rt, base, offset },
                    MemOp::Lwr => Op::Lwr { rt, base, offset },
                    MemOp::Sb => Op::Sb { rt, base, offset },
                    MemOp::Sh => Op::Sh { rt, base, offset },
                    MemOp::Sw => Op::Sw { rt, base, offset },
                    MemOp::Swl => Op::Swl { rt, base, offset },
                    MemOp::Swr => Op::Swr { rt, base, offset },
                }
            }
            Instruction::FpMem {
                store,
                ft,
                base,
                offset,
            } => {
                let (ft, base) = (ft.number(), base.number());
                let offset = offset as i32 as u32;
                if store {
                    Op::Swc1 { ft, base, offset }
                } else {
                    Op::Lwc1 { ft, base, offset }
                }
            }
            Instruction::Cp1Move { op, rt, fs } => {
                let (rt, fs) = (rt.number(), fs.number());
                match op {
                    Cp1MoveOp::Mfc1 => Op::Mfc1 { rt, fs },
                    Cp1MoveOp::Mtc1 => Op::Mtc1 { rt, fs },
                    Cp1MoveOp::Cfc1 => Op::Cfc1 { rt },
                    Cp1MoveOp::Ctc1 => Op::Ctc1 { rt },
                }
            }
            Instruction::FpArith {
                op,
                fmt,
                fd,
                fs,
                ft,
            } => {
                let (fd, fs, ft) = (fd.number(), fs.number(), ft.number());
                match (fmt, op) {
                    (FpFmt::Single, FpOp::Add) => Op::AddS { fd, fs, ft },
                    (FpFmt::Single, FpOp::Sub) => Op::SubS { fd, fs, ft },
                    (FpFmt::Single, FpOp::Mul) => Op::MulS { fd, fs, ft },
                    (FpFmt::Single, FpOp::Div) => Op::DivS { fd, fs, ft },
                    (FpFmt::Double, FpOp::Add) => Op::AddD { fd, fs, ft },
                    (FpFmt::Double, FpOp::Sub) => Op::SubD { fd, fs, ft },
                    (FpFmt::Double, FpOp::Mul) => Op::MulD { fd, fs, ft },
                    (FpFmt::Double, FpOp::Div) => Op::DivD { fd, fs, ft },
                    (FpFmt::Word, _) => Op::Undecoded,
                }
            }
            Instruction::FpUnary { op, fmt, fd, fs } => {
                let (fd, fs) = (fd.number(), fs.number());
                match (fmt, op) {
                    (FpFmt::Single, FpUnaryOp::Abs) => Op::AbsS { fd, fs },
                    (FpFmt::Single, FpUnaryOp::Neg) => Op::NegS { fd, fs },
                    (FpFmt::Single, FpUnaryOp::Mov) => Op::MovS { fd, fs },
                    (FpFmt::Double, FpUnaryOp::Abs) => Op::AbsD { fd, fs },
                    (FpFmt::Double, FpUnaryOp::Neg) => Op::NegD { fd, fs },
                    (FpFmt::Double, FpUnaryOp::Mov) => Op::MovD { fd, fs },
                    (FpFmt::Word, _) => Op::Undecoded,
                }
            }
            Instruction::FpCvt { to, from, fd, fs } => {
                let (fd, fs) = (fd.number(), fs.number());
                match (to, from) {
                    (FpFmt::Single, FpFmt::Double) => Op::CvtSD { fd, fs },
                    (FpFmt::Single, FpFmt::Word) => Op::CvtSW { fd, fs },
                    (FpFmt::Double, FpFmt::Single) => Op::CvtDS { fd, fs },
                    (FpFmt::Double, FpFmt::Word) => Op::CvtDW { fd, fs },
                    (FpFmt::Word, FpFmt::Single) => Op::CvtWS { fd, fs },
                    (FpFmt::Word, FpFmt::Double) => Op::CvtWD { fd, fs },
                    (FpFmt::Single, FpFmt::Single)
                    | (FpFmt::Double, FpFmt::Double)
                    | (FpFmt::Word, FpFmt::Word) => Op::Undecoded,
                }
            }
            Instruction::FpCmp { cond, fmt, fs, ft } => {
                let (fs, ft) = (fs.number(), ft.number());
                match (fmt, cond) {
                    (FpFmt::Single, FpCond::Eq) => Op::CEqS { fs, ft },
                    (FpFmt::Single, FpCond::Lt) => Op::CLtS { fs, ft },
                    (FpFmt::Single, FpCond::Le) => Op::CLeS { fs, ft },
                    (FpFmt::Double, FpCond::Eq) => Op::CEqD { fs, ft },
                    (FpFmt::Double, FpCond::Lt) => Op::CLtD { fs, ft },
                    (FpFmt::Double, FpCond::Le) => Op::CLeD { fs, ft },
                    (FpFmt::Word, _) => Op::Undecoded,
                }
            }
            Instruction::Bc1 { on_true, offset } => {
                let offset = scaled(offset);
                if on_true {
                    Op::Bc1t { offset }
                } else {
                    Op::Bc1f { offset }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_fits_in_eight_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 8);
    }

    #[test]
    fn words_that_do_not_decode_are_undecoded() {
        assert_eq!(Op::decode(0xFFFF_FFFF), Op::Undecoded);
        // `add.w $f0, $f0, $f0`: word-format arithmetic is rejected.
        assert_eq!(Op::decode(0x4680_0000), Op::Undecoded);
    }

    #[test]
    fn immediates_and_offsets_arrive_extended() {
        // addiu $t0, $t0, -1
        assert_eq!(
            Op::decode(0x2508_FFFF),
            Op::Addiu {
                rt: 8,
                rs: 8,
                imm: u32::MAX
            }
        );
        // ori $t0, $t0, 0xFFFF
        assert_eq!(
            Op::decode(0x3508_FFFF),
            Op::Ori {
                rt: 8,
                rs: 8,
                imm: 0xFFFF
            }
        );
        // lui $t0, 0x1234
        assert_eq!(
            Op::decode(0x3C08_1234),
            Op::Lui {
                rt: 8,
                value: 0x1234_0000
            }
        );
        // bne $t0, $zero, -2 (words)
        assert_eq!(
            Op::decode(0x1500_FFFE),
            Op::Bne {
                rs: 8,
                rt: 0,
                offset: (-8i32) as u32
            }
        );
    }
}
