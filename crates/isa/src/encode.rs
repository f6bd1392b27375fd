use crate::instr::Instruction;

const OP_SPECIAL: u32 = 0x00;
const OP_REGIMM: u32 = 0x01;
const OP_COP1: u32 = 0x11;
const OP_LWC1: u32 = 0x31;
const OP_SWC1: u32 = 0x39;

fn r_type(rs: u32, rt: u32, rd: u32, shamt: u32, funct: u32) -> u32 {
    (OP_SPECIAL << 26) | (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) | funct
}

fn i_type(op: u32, rs: u32, rt: u32, imm: u16) -> u32 {
    (op << 26) | (rs << 21) | (rt << 16) | u32::from(imm)
}

impl Instruction {
    /// Encodes this instruction as its 32-bit R2000 machine word.
    ///
    /// Every constructible [`Instruction`] has a valid encoding, so this
    /// cannot fail. The inverse is [`decode`](crate::decode).
    ///
    /// # Examples
    ///
    /// ```
    /// use ccrp_isa::{Instruction, Reg};
    ///
    /// let jr_ra = Instruction::Jr { rs: Reg::RA };
    /// assert_eq!(jr_ra.encode(), 0x03E0_0008);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a field value violates its documented range (`shamt > 31`,
    /// `code >= 2^20`, or a 26-bit jump `target` overflow), or if an
    /// [`FpCvt`](Instruction::FpCvt) converts a format to itself; these
    /// are programmer errors, not data errors. The assembler checks each
    /// before it encodes, and [`decode`](crate::decode) builds none.
    pub fn encode(&self) -> u32 {
        match *self {
            Instruction::RAlu { op, rd, rs, rt } => r_type(
                rs.number().into(),
                rt.number().into(),
                rd.number().into(),
                0,
                op.funct(),
            ),
            Instruction::Shift { op, rd, rt, shamt } => {
                // panic-ok: the documented field-range contract.
                assert!(shamt < 32, "shift amount {shamt} out of range");
                r_type(
                    0,
                    rt.number().into(),
                    rd.number().into(),
                    shamt.into(),
                    op.funct_imm(),
                )
            }
            Instruction::ShiftV { op, rd, rt, rs } => r_type(
                rs.number().into(),
                rt.number().into(),
                rd.number().into(),
                0,
                op.funct_var(),
            ),
            Instruction::MultDiv { op, rs, rt } => {
                r_type(rs.number().into(), rt.number().into(), 0, 0, op.funct())
            }
            Instruction::HiLo { op, reg } => {
                if op.is_from() {
                    r_type(0, 0, reg.number().into(), 0, op.funct())
                } else {
                    r_type(reg.number().into(), 0, 0, 0, op.funct())
                }
            }
            Instruction::Jr { rs } => r_type(rs.number().into(), 0, 0, 0, 0x08),
            Instruction::Jalr { rd, rs } => {
                r_type(rs.number().into(), 0, rd.number().into(), 0, 0x09)
            }
            Instruction::Syscall { code } => {
                // panic-ok: the documented field-range contract.
                assert!(code < (1 << 20), "syscall code {code} out of range");
                (OP_SPECIAL << 26) | (code << 6) | 0x0C
            }
            Instruction::Break { code } => {
                // panic-ok: the documented field-range contract.
                assert!(code < (1 << 20), "break code {code} out of range");
                (OP_SPECIAL << 26) | (code << 6) | 0x0D
            }
            Instruction::IAlu { op, rt, rs, imm } => {
                i_type(op.opcode(), rs.number().into(), rt.number().into(), imm)
            }
            Instruction::Lui { rt, imm } => i_type(0x0F, 0, rt.number().into(), imm),
            Instruction::Branch { op, rs, rt, offset } => i_type(
                op.opcode(),
                rs.number().into(),
                rt.number().into(),
                offset as u16,
            ),
            Instruction::BranchZ { op, rs, offset } => {
                use crate::instr::BranchZOp::*;
                let (opcode, rt_field) = match op {
                    Blez => (0x06, 0x00),
                    Bgtz => (0x07, 0x00),
                    Bltz => (OP_REGIMM, 0x00),
                    Bgez => (OP_REGIMM, 0x01),
                    Bltzal => (OP_REGIMM, 0x10),
                    Bgezal => (OP_REGIMM, 0x11),
                };
                i_type(opcode, rs.number().into(), rt_field, offset as u16)
            }
            Instruction::Jump { link, target } => {
                // panic-ok: the documented field-range contract.
                assert!(target < (1 << 26), "jump target {target:#x} out of range");
                let op = if link { 0x03 } else { 0x02 };
                (op << 26) | target
            }
            Instruction::Mem {
                op,
                rt,
                base,
                offset,
            } => i_type(
                op.opcode(),
                base.number().into(),
                rt.number().into(),
                offset as u16,
            ),
            Instruction::FpMem {
                store,
                ft,
                base,
                offset,
            } => {
                let op = if store { OP_SWC1 } else { OP_LWC1 };
                i_type(op, base.number().into(), ft.number().into(), offset as u16)
            }
            Instruction::Cp1Move { op, rt, fs } => {
                (OP_COP1 << 26)
                    | (op.rs_field() << 21)
                    | (u32::from(rt.number()) << 16)
                    | (u32::from(fs.number()) << 11)
            }
            Instruction::FpArith {
                op,
                fmt,
                fd,
                fs,
                ft,
            } => {
                (OP_COP1 << 26)
                    | (fmt.field() << 21)
                    | (u32::from(ft.number()) << 16)
                    | (u32::from(fs.number()) << 11)
                    | (u32::from(fd.number()) << 6)
                    | op.funct()
            }
            Instruction::FpUnary { op, fmt, fd, fs } => {
                (OP_COP1 << 26)
                    | (fmt.field() << 21)
                    | (u32::from(fs.number()) << 11)
                    | (u32::from(fd.number()) << 6)
                    | op.funct()
            }
            Instruction::FpCvt { to, from, fd, fs } => {
                use crate::instr::FpFmt::*;
                // panic-ok: the documented distinct-format contract.
                assert!(to != from, "cvt with identical formats");
                let funct = match to {
                    Single => 0x20,
                    Double => 0x21,
                    Word => 0x24,
                };
                (OP_COP1 << 26)
                    | (from.field() << 21)
                    | (u32::from(fs.number()) << 11)
                    | (u32::from(fd.number()) << 6)
                    | funct
            }
            Instruction::FpCmp { cond, fmt, fs, ft } => {
                (OP_COP1 << 26)
                    | (fmt.field() << 21)
                    | (u32::from(ft.number()) << 16)
                    | (u32::from(fs.number()) << 11)
                    | cond.funct()
            }
            Instruction::Bc1 { on_true, offset } => {
                let rt = u32::from(on_true);
                (OP_COP1 << 26) | (0x08 << 21) | (rt << 16) | u32::from(offset as u16)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::instr::*;
    use crate::reg::{FpReg, Reg};

    #[test]
    fn known_encodings() {
        // Cross-checked against the MIPS R2000 manual encodings.
        let cases: Vec<(Instruction, u32)> = vec![
            (
                Instruction::RAlu {
                    op: AluOp::Addu,
                    rd: Reg::V0,
                    rs: Reg::A0,
                    rt: Reg::A1,
                },
                0x0085_1021,
            ),
            (
                Instruction::IAlu {
                    op: IAluOp::Addiu,
                    rt: Reg::SP,
                    rs: Reg::SP,
                    imm: 0xFFE0,
                },
                0x27BD_FFE0,
            ),
            (
                Instruction::Lui {
                    rt: Reg::GP,
                    imm: 0x1000,
                },
                0x3C1C_1000,
            ),
            (
                Instruction::Mem {
                    op: MemOp::Lw,
                    rt: Reg::RA,
                    base: Reg::SP,
                    offset: 28,
                },
                0x8FBF_001C,
            ),
            (
                Instruction::Mem {
                    op: MemOp::Sw,
                    rt: Reg::A0,
                    base: Reg::SP,
                    offset: 0,
                },
                0xAFA4_0000,
            ),
            (
                Instruction::Jump {
                    link: true,
                    target: 0x10_0040 >> 2,
                },
                0x0C04_0010,
            ),
            (Instruction::Jr { rs: Reg::RA }, 0x03E0_0008),
            (
                Instruction::Branch {
                    op: BranchOp::Bne,
                    rs: Reg::T0,
                    rt: Reg::ZERO,
                    offset: -3,
                },
                0x1500_FFFD,
            ),
            (Instruction::Syscall { code: 0 }, 0x0000_000C),
            (
                Instruction::FpArith {
                    op: FpOp::Mul,
                    fmt: FpFmt::Double,
                    fd: FpReg::new(4).unwrap(),
                    fs: FpReg::new(2).unwrap(),
                    ft: FpReg::new(0).unwrap(),
                },
                0x4620_1102,
            ),
        ];
        for (inst, word) in cases {
            assert_eq!(inst.encode(), word, "{inst:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shift amount")]
    fn oversized_shamt_panics() {
        Instruction::Shift {
            op: ShiftOp::Sll,
            rd: Reg::T0,
            rt: Reg::T0,
            shamt: 32,
        }
        .encode();
    }

    #[test]
    #[should_panic(expected = "jump target")]
    fn oversized_target_panics() {
        Instruction::Jump {
            link: false,
            target: 1 << 26,
        }
        .encode();
    }
}
