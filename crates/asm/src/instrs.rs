//! Mnemonic-level encoding: real R2000 instructions and the pseudo
//! instructions 1992-era MIPS assemblers accepted (`li`, `la`, `move`,
//! compound branches, `mul`, `l.d`, ...).

use std::collections::BTreeMap;

use ccrp_isa::{
    AluOp, BranchOp, BranchZOp, Cp1MoveOp, FpCond, FpFmt, FpOp, FpReg, FpUnaryOp, HiLoOp, IAluOp,
    Instruction, MemOp, MultDivOp, Reg, ShiftOp,
};

use crate::error::{AsmError, AsmErrorKind};
use crate::expr::Expr;
use crate::parser::Operand;

/// An instruction name, resolved once when its line is parsed. Both
/// passes dispatch on it; a name that resolves to nothing stays
/// [`Unknown`](Mnemonic::Unknown) until pass 1 reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mnemonic {
    Alu(AluOp),
    IAlu(IAluOp),
    Shift(ShiftOp),
    ShiftV(ShiftOp),
    /// `mult`/`multu`, and `div`/`divu` in both their forms.
    MultDiv(MultDivOp),
    HiLo(HiLoOp),
    BranchZ(BranchZOp),
    Cp1Move(Cp1MoveOp),
    Mem(MemOp),
    /// `lwc1`/`l.s` and `swc1`/`s.s`.
    FpMem {
        store: bool,
    },
    /// `l.d`/`s.d`: two word accesses to an even/odd register pair.
    FpMemPair {
        store: bool,
    },
    FpArith(FpOp, FpFmt),
    FpUnary(FpUnaryOp, FpFmt),
    FpCmp(FpCond, FpFmt),
    /// `cvt.<to>.<from>`; the same format twice sizes in pass 1 but is
    /// rejected in pass 2.
    FpCvt {
        to: FpFmt,
        from: FpFmt,
    },
    Nop,
    Move,
    Not,
    /// `neg` (`sub`) and `negu` (`subu`).
    Neg(AluOp),
    /// `rem` (`div`) and `remu` (`divu`).
    Rem(MultDivOp),
    Mul,
    Jr,
    Jalr,
    Syscall,
    Break,
    Lui,
    /// `beq`/`bne`.
    Branch(BranchOp),
    /// `beqz`/`bnez`.
    BranchZero(BranchOp),
    B,
    Bal,
    /// `blt`/`bgt`/`ble`/`bge` and their `u` forms: `slt` into `$at`
    /// (operands swapped for `bgt`/`ble`), then `branch` on `$at`.
    SetBranch {
        slt: AluOp,
        swap: bool,
        branch: BranchOp,
    },
    Jump {
        link: bool,
    },
    Bc1 {
        on_true: bool,
    },
    Li,
    La,
    Unknown,
}

/// `name` lower-cased into `buf`, or `None` when it is longer than any
/// mnemonic or directive. Names are ASCII (the tokenizer's identifier
/// bytes), so this is a full case fold.
pub(crate) fn fold_case<'b>(name: &str, buf: &'b mut [u8; 8]) -> Option<&'b [u8]> {
    let folded = buf.get_mut(..name.len())?;
    folded.copy_from_slice(name.as_bytes());
    folded.make_ascii_lowercase();
    Some(folded)
}

impl Mnemonic {
    /// Resolves `name`, in any letter case, without allocating.
    pub(crate) fn resolve(name: &str) -> Mnemonic {
        use Mnemonic::*;
        let mut buf = [0; 8];
        let Some(name) = fold_case(name, &mut buf) else {
            return Unknown;
        };
        let set_branch = |slt, swap, branch| SetBranch { slt, swap, branch };
        match name {
            b"add" => Alu(AluOp::Add),
            b"addu" => Alu(AluOp::Addu),
            b"sub" => Alu(AluOp::Sub),
            b"subu" => Alu(AluOp::Subu),
            b"and" => Alu(AluOp::And),
            b"or" => Alu(AluOp::Or),
            b"xor" => Alu(AluOp::Xor),
            b"nor" => Alu(AluOp::Nor),
            b"slt" => Alu(AluOp::Slt),
            b"sltu" => Alu(AluOp::Sltu),
            b"addi" => IAlu(IAluOp::Addi),
            b"addiu" => IAlu(IAluOp::Addiu),
            b"slti" => IAlu(IAluOp::Slti),
            b"sltiu" => IAlu(IAluOp::Sltiu),
            b"andi" => IAlu(IAluOp::Andi),
            b"ori" => IAlu(IAluOp::Ori),
            b"xori" => IAlu(IAluOp::Xori),
            b"sll" => Shift(ShiftOp::Sll),
            b"srl" => Shift(ShiftOp::Srl),
            b"sra" => Shift(ShiftOp::Sra),
            b"sllv" => ShiftV(ShiftOp::Sll),
            b"srlv" => ShiftV(ShiftOp::Srl),
            b"srav" => ShiftV(ShiftOp::Sra),
            b"mult" => MultDiv(MultDivOp::Mult),
            b"multu" => MultDiv(MultDivOp::Multu),
            b"div" => MultDiv(MultDivOp::Div),
            b"divu" => MultDiv(MultDivOp::Divu),
            b"mfhi" => HiLo(HiLoOp::Mfhi),
            b"mthi" => HiLo(HiLoOp::Mthi),
            b"mflo" => HiLo(HiLoOp::Mflo),
            b"mtlo" => HiLo(HiLoOp::Mtlo),
            b"blez" => BranchZ(BranchZOp::Blez),
            b"bgtz" => BranchZ(BranchZOp::Bgtz),
            b"bltz" => BranchZ(BranchZOp::Bltz),
            b"bgez" => BranchZ(BranchZOp::Bgez),
            b"bltzal" => BranchZ(BranchZOp::Bltzal),
            b"bgezal" => BranchZ(BranchZOp::Bgezal),
            b"mfc1" => Cp1Move(Cp1MoveOp::Mfc1),
            b"mtc1" => Cp1Move(Cp1MoveOp::Mtc1),
            b"cfc1" => Cp1Move(Cp1MoveOp::Cfc1),
            b"ctc1" => Cp1Move(Cp1MoveOp::Ctc1),
            b"lb" => Mem(MemOp::Lb),
            b"lh" => Mem(MemOp::Lh),
            b"lwl" => Mem(MemOp::Lwl),
            b"lw" => Mem(MemOp::Lw),
            b"lbu" => Mem(MemOp::Lbu),
            b"lhu" => Mem(MemOp::Lhu),
            b"lwr" => Mem(MemOp::Lwr),
            b"sb" => Mem(MemOp::Sb),
            b"sh" => Mem(MemOp::Sh),
            b"swl" => Mem(MemOp::Swl),
            b"sw" => Mem(MemOp::Sw),
            b"swr" => Mem(MemOp::Swr),
            b"lwc1" | b"l.s" => FpMem { store: false },
            b"swc1" | b"s.s" => FpMem { store: true },
            b"l.d" => FpMemPair { store: false },
            b"s.d" => FpMemPair { store: true },
            b"nop" => Nop,
            b"move" => Move,
            b"not" => Not,
            b"neg" => Neg(AluOp::Sub),
            b"negu" => Neg(AluOp::Subu),
            b"rem" => Rem(MultDivOp::Div),
            b"remu" => Rem(MultDivOp::Divu),
            b"mul" => Mul,
            b"jr" => Jr,
            b"jalr" => Jalr,
            b"syscall" => Syscall,
            b"break" => Break,
            b"lui" => Lui,
            b"beq" => Branch(BranchOp::Beq),
            b"bne" => Branch(BranchOp::Bne),
            b"beqz" => BranchZero(BranchOp::Beq),
            b"bnez" => BranchZero(BranchOp::Bne),
            b"b" => B,
            b"bal" => Bal,
            b"blt" => set_branch(AluOp::Slt, false, BranchOp::Bne),
            b"bgt" => set_branch(AluOp::Slt, true, BranchOp::Bne),
            b"ble" => set_branch(AluOp::Slt, true, BranchOp::Beq),
            b"bge" => set_branch(AluOp::Slt, false, BranchOp::Beq),
            b"bltu" => set_branch(AluOp::Sltu, false, BranchOp::Bne),
            b"bgtu" => set_branch(AluOp::Sltu, true, BranchOp::Bne),
            b"bleu" => set_branch(AluOp::Sltu, true, BranchOp::Beq),
            b"bgeu" => set_branch(AluOp::Sltu, false, BranchOp::Beq),
            b"j" => Jump { link: false },
            b"jal" => Jump { link: true },
            b"bc1t" => Bc1 { on_true: true },
            b"bc1f" => Bc1 { on_true: false },
            b"li" => Li,
            b"la" => La,
            _ => resolve_fp(name).unwrap_or(Unknown),
        }
    }
}

/// `<op>.<fmt>`, `c.<cond>.<fmt>` and `cvt.<to>.<from>`.
fn resolve_fp(name: &[u8]) -> Option<Mnemonic> {
    let fmt_of = |suffix: &[u8]| match suffix {
        b"s" => Some(FpFmt::Single),
        b"d" => Some(FpFmt::Double),
        b"w" => Some(FpFmt::Word),
        _ => None,
    };
    let dot = name.iter().rposition(|&b| b == b'.')?;
    let (stem, fmt) = (&name[..dot], fmt_of(&name[dot + 1..])?);
    if let Some(to) = stem.strip_prefix(b"cvt.") {
        return Some(Mnemonic::FpCvt {
            to: fmt_of(to)?,
            from: fmt,
        });
    }
    if fmt == FpFmt::Word {
        return None;
    }
    Some(match stem {
        b"add" => Mnemonic::FpArith(FpOp::Add, fmt),
        b"sub" => Mnemonic::FpArith(FpOp::Sub, fmt),
        b"mul" => Mnemonic::FpArith(FpOp::Mul, fmt),
        b"div" => Mnemonic::FpArith(FpOp::Div, fmt),
        b"abs" => Mnemonic::FpUnary(FpUnaryOp::Abs, fmt),
        b"mov" => Mnemonic::FpUnary(FpUnaryOp::Mov, fmt),
        b"neg" => Mnemonic::FpUnary(FpUnaryOp::Neg, fmt),
        b"c.eq" => Mnemonic::FpCmp(FpCond::Eq, fmt),
        b"c.lt" => Mnemonic::FpCmp(FpCond::Lt, fmt),
        b"c.le" => Mnemonic::FpCmp(FpCond::Le, fmt),
        _ => return None,
    })
}

/// What one instruction expands to: one machine word, or two for most
/// pseudo instructions.
pub(crate) type Expansion = (Instruction, Option<Instruction>);

/// One source instruction as both passes see it, with uniform operand
/// error reporting.
pub(crate) struct Instr<'s, 'a> {
    pub(crate) mnemonic: Mnemonic,
    /// The name as written; errors report it lower-cased.
    pub(crate) name: &'a str,
    pub(crate) ops: &'s [Operand<'a>],
    pub(crate) line: usize,
}

impl<'s, 'a> Instr<'s, 'a> {
    fn error(&self, kind: AsmErrorKind) -> AsmError {
        AsmError::new(self.line, kind)
    }

    /// The name as the error messages spell it.
    pub(crate) fn folded_name(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    fn bad(&self, expected: &'static str) -> AsmError {
        self.error(AsmErrorKind::BadOperands {
            mnemonic: self.folded_name(),
            expected,
        })
    }

    fn count(&self, n: usize, expected: &'static str) -> Result<(), AsmError> {
        if self.ops.len() == n {
            Ok(())
        } else {
            Err(self.bad(expected))
        }
    }

    fn reg(&self, i: usize, expected: &'static str) -> Result<Reg, AsmError> {
        match self.ops.get(i) {
            Some(Operand::Reg(r)) => Ok(*r),
            _ => Err(self.bad(expected)),
        }
    }

    fn fp(&self, i: usize, expected: &'static str) -> Result<FpReg, AsmError> {
        match self.ops.get(i) {
            Some(Operand::Fp(f)) => Ok(*f),
            _ => Err(self.bad(expected)),
        }
    }

    fn expr(&self, i: usize, expected: &'static str) -> Result<&'s Expr<'a>, AsmError> {
        match self.ops.get(i) {
            Some(Operand::Expr(e)) => Ok(e),
            _ => Err(self.bad(expected)),
        }
    }

    /// Whether this instruction ends a basic block with a delay slot,
    /// i.e. the assembler must insert a `nop` after it in reorder mode.
    pub(crate) fn is_control_transfer(&self) -> bool {
        use Mnemonic::*;
        matches!(
            self.mnemonic,
            Jump { .. }
                | Jr
                | Jalr
                | Branch(_)
                | BranchZ(_)
                | BranchZero(_)
                | B
                | Bal
                | SetBranch { .. }
                | Bc1 { .. }
        )
    }

    /// Number of machine words this instruction will occupy, *excluding*
    /// any reorder-mode delay-slot `nop`.
    ///
    /// Pass 1 of the assembler uses this to lay out addresses before
    /// symbols are resolved, so the result must not depend on symbol
    /// values; `li` sizes are decided by the literal form of the operand.
    ///
    /// # Errors
    ///
    /// Returns [`AsmErrorKind::UnknownMnemonic`] for unrecognized names and
    /// operand-shape errors for malformed uses whose size is ambiguous.
    pub(crate) fn plan_words(&self) -> Result<usize, AsmError> {
        use Mnemonic::*;
        match self.mnemonic {
            SetBranch { .. } | La | Mul | Rem(_) | FpMemPair { .. } => Ok(2),
            Li => {
                self.count(2, "li rt, imm")?;
                let expr = self.expr(1, "li rt, imm")?;
                if !expr.is_constant() {
                    return Ok(2);
                }
                let v = expr.eval(&BTreeMap::new(), self.line)?;
                Ok(if (-32768..=0xFFFF).contains(&v) { 1 } else { 2 })
            }
            MultDiv(MultDivOp::Div | MultDivOp::Divu) if self.ops.len() == 3 => Ok(2),
            // The absolute-address form (`lw $t0, sym`) expands via $at.
            Mem(_) | FpMem { .. } if matches!(self.ops.get(1), Some(Operand::Expr(_))) => Ok(2),
            Unknown => Err(self.error(AsmErrorKind::UnknownMnemonic(self.folded_name()))),
            _ => Ok(1),
        }
    }

    /// Encodes this instruction at address `addr` into one or two machine
    /// instructions.
    ///
    /// # Errors
    ///
    /// Reports unknown mnemonics, operand-shape mismatches, out-of-range
    /// immediates, undefined symbols, and unreachable branch targets, all
    /// tagged with the instruction's line.
    pub(crate) fn encode(
        &self,
        addr: u32,
        symbols: &BTreeMap<String, u32>,
    ) -> Result<Expansion, AsmError> {
        use Mnemonic::*;
        let line = self.line;
        let one = |inst| Ok((inst, None));
        let two = |a, b| Ok((a, Some(b)));
        match self.mnemonic {
            Alu(op) => {
                self.count(3, "rd, rs, rt")?;
                one(Instruction::RAlu {
                    op,
                    rd: self.reg(0, "rd, rs, rt")?,
                    rs: self.reg(1, "rd, rs, rt")?,
                    rt: self.reg(2, "rd, rs, rt")?,
                })
            }
            IAlu(op) => {
                self.count(3, "rt, rs, imm")?;
                let rt = self.reg(0, "rt, rs, imm")?;
                let rs = self.reg(1, "rt, rs, imm")?;
                let expr = self.expr(2, "rt, rs, imm")?;
                let imm = if op.sign_extends() {
                    eval_i16(expr, symbols, line, "16-bit signed immediate")? as u16
                } else {
                    eval_u16(expr, symbols, line, "16-bit unsigned immediate")?
                };
                one(Instruction::IAlu { op, rt, rs, imm })
            }
            Shift(op) => {
                self.count(3, "rd, rt, shamt")?;
                let shamt = self.expr(2, "rd, rt, shamt")?;
                let shamt = eval_range(shamt, symbols, line, 0, 31, "shift amount")? as u8;
                one(Instruction::Shift {
                    op,
                    rd: self.reg(0, "rd, rt, shamt")?,
                    rt: self.reg(1, "rd, rt, shamt")?,
                    shamt,
                })
            }
            ShiftV(op) => {
                self.count(3, "rd, rt, rs")?;
                one(Instruction::ShiftV {
                    op,
                    rd: self.reg(0, "rd, rt, rs")?,
                    rt: self.reg(1, "rd, rt, rs")?,
                    rs: self.reg(2, "rd, rt, rs")?,
                })
            }
            HiLo(op) => {
                self.count(1, "reg")?;
                one(Instruction::HiLo {
                    op,
                    reg: self.reg(0, "reg")?,
                })
            }
            BranchZ(op) => {
                self.count(2, "rs, target")?;
                let rs = self.reg(0, "rs, target")?;
                let offset = branch_offset(self.expr(1, "rs, target")?, addr, symbols, line)?;
                one(Instruction::BranchZ { op, rs, offset })
            }
            Cp1Move(op) => {
                self.count(2, "rt, fs")?;
                one(Instruction::Cp1Move {
                    op,
                    rt: self.reg(0, "rt, fs")?,
                    fs: self.fp(1, "rt, fs")?,
                })
            }
            Nop => {
                self.count(0, "no operands")?;
                one(Instruction::NOP)
            }
            Move | Not => {
                self.count(2, "rd, rs")?;
                one(Instruction::RAlu {
                    op: if self.mnemonic == Move {
                        AluOp::Addu
                    } else {
                        AluOp::Nor
                    },
                    rd: self.reg(0, "rd, rs")?,
                    rs: self.reg(1, "rd, rs")?,
                    rt: Reg::ZERO,
                })
            }
            Neg(op) => {
                self.count(2, "rd, rs")?;
                one(Instruction::RAlu {
                    op,
                    rd: self.reg(0, "rd, rs")?,
                    rs: Reg::ZERO,
                    rt: self.reg(1, "rd, rs")?,
                })
            }
            MultDiv(op @ (MultDivOp::Div | MultDivOp::Divu)) if self.ops.len() != 2 => {
                self.count(3, "rd, rs, rt")?;
                self.mult_div_then(op, HiLoOp::Mflo)
            }
            MultDiv(op) => {
                self.count(2, "rs, rt")?;
                one(Instruction::MultDiv {
                    op,
                    rs: self.reg(0, "rs, rt")?,
                    rt: self.reg(1, "rs, rt")?,
                })
            }
            Rem(op) => {
                self.count(3, "rd, rs, rt")?;
                self.mult_div_then(op, HiLoOp::Mfhi)
            }
            Mul => {
                self.count(3, "rd, rs, rt")?;
                self.mult_div_then(MultDivOp::Mult, HiLoOp::Mflo)
            }
            Jr => {
                self.count(1, "rs")?;
                one(Instruction::Jr {
                    rs: self.reg(0, "rs")?,
                })
            }
            Jalr => match self.ops.len() {
                1 => one(Instruction::Jalr {
                    rd: Reg::RA,
                    rs: self.reg(0, "rs")?,
                }),
                2 => one(Instruction::Jalr {
                    rd: self.reg(0, "rd, rs")?,
                    rs: self.reg(1, "rd, rs")?,
                }),
                _ => Err(self.bad("rs or rd, rs")),
            },
            Syscall | Break => {
                let code = match self.ops.len() {
                    0 => 0,
                    1 => {
                        let code = self.expr(0, "code")?;
                        eval_range(code, symbols, line, 0, (1 << 20) - 1, "code")? as u32
                    }
                    _ => return Err(self.bad("optional code")),
                };
                one(if self.mnemonic == Syscall {
                    Instruction::Syscall { code }
                } else {
                    Instruction::Break { code }
                })
            }
            Lui => {
                self.count(2, "rt, imm")?;
                let rt = self.reg(0, "rt, imm")?;
                let imm = eval_u16(self.expr(1, "rt, imm")?, symbols, line, "lui immediate")?;
                one(Instruction::Lui { rt, imm })
            }
            Branch(op) => {
                self.count(3, "rs, rt, target")?;
                let target = self.expr(2, "rs, rt, target")?;
                let offset = branch_offset(target, addr, symbols, line)?;
                one(Instruction::Branch {
                    op,
                    rs: self.reg(0, "rs, rt, target")?,
                    rt: self.reg(1, "rs, rt, target")?,
                    offset,
                })
            }
            BranchZero(op) => {
                self.count(2, "rs, target")?;
                let offset = branch_offset(self.expr(1, "rs, target")?, addr, symbols, line)?;
                one(Instruction::Branch {
                    op,
                    rs: self.reg(0, "rs, target")?,
                    rt: Reg::ZERO,
                    offset,
                })
            }
            B | Bal | Bc1 { .. } => {
                self.count(1, "target")?;
                let offset = branch_offset(self.expr(0, "target")?, addr, symbols, line)?;
                one(match self.mnemonic {
                    B => Instruction::Branch {
                        op: BranchOp::Beq,
                        rs: Reg::ZERO,
                        rt: Reg::ZERO,
                        offset,
                    },
                    Bc1 { on_true } => Instruction::Bc1 { on_true, offset },
                    _ => Instruction::BranchZ {
                        op: BranchZOp::Bgezal,
                        rs: Reg::ZERO,
                        offset,
                    },
                })
            }
            SetBranch { slt, swap, branch } => {
                self.count(3, "rs, rt, target")?;
                let rs = self.reg(0, "rs, rt, target")?;
                let rt = self.reg(1, "rs, rt, target")?;
                let (a, b) = if swap { (rt, rs) } else { (rs, rt) };
                // The branch word sits 4 bytes after the slt.
                let target = self.expr(2, "rs, rt, target")?;
                let offset = branch_offset(target, addr.wrapping_add(4), symbols, line)?;
                two(
                    Instruction::RAlu {
                        op: slt,
                        rd: Reg::AT,
                        rs: a,
                        rt: b,
                    },
                    Instruction::Branch {
                        op: branch,
                        rs: Reg::AT,
                        rt: Reg::ZERO,
                        offset,
                    },
                )
            }
            Jump { link } => {
                self.count(1, "target")?;
                let target = jump_target(self.expr(0, "target")?, symbols, line)?;
                one(Instruction::Jump { link, target })
            }
            Li => {
                self.count(2, "rt, imm")?;
                let rt = self.reg(0, "rt, imm")?;
                let expr = self.expr(1, "rt, imm")?;
                if !expr.is_constant() {
                    return encode_la(rt, expr, symbols, line);
                }
                let (min, max) = (i64::from(i32::MIN), i64::from(u32::MAX));
                let v = eval_range(expr, symbols, line, min, max, "32-bit immediate")?;
                let short = |op| Instruction::IAlu {
                    op,
                    rt,
                    rs: Reg::ZERO,
                    imm: v as u16,
                };
                match v {
                    0..=0xFFFF => one(short(IAluOp::Ori)),
                    -32768..=-1 => one(short(IAluOp::Addiu)),
                    _ => two(
                        Instruction::Lui {
                            rt,
                            imm: (v as u32 >> 16) as u16,
                        },
                        Instruction::IAlu {
                            op: IAluOp::Ori,
                            rt,
                            rs: rt,
                            imm: v as u16,
                        },
                    ),
                }
            }
            La => {
                self.count(2, "rt, address")?;
                let rt = self.reg(0, "rt, address")?;
                encode_la(rt, self.expr(1, "rt, address")?, symbols, line)
            }
            Mem(op) => {
                self.count(2, "rt, offset(base)")?;
                let rt = self.reg(0, "rt, offset(base)")?;
                self.memory_access(symbols, "rt, offset(base)", |base, offset| {
                    Instruction::Mem {
                        op,
                        rt,
                        base,
                        offset,
                    }
                })
            }
            FpMem { store } => {
                self.count(2, "ft, offset(base)")?;
                let ft = self.fp(0, "ft, offset(base)")?;
                self.memory_access(symbols, "ft, offset(base)", |base, offset| {
                    Instruction::FpMem {
                        store,
                        ft,
                        base,
                        offset,
                    }
                })
            }
            FpMemPair { store } => {
                self.count(2, "ft, offset(base)")?;
                let ft = self.fp(0, "ft, offset(base)")?;
                if ft.number() % 2 != 0 {
                    return Err(self.error(AsmErrorKind::ValueOutOfRange {
                        what: "even FP register for double access",
                        value: i64::from(ft.number()),
                    }));
                }
                let Some(Operand::Mem { offset, base }) = self.ops.get(1) else {
                    return Err(self.bad("ft, offset(base)"));
                };
                let off = eval_range(offset, symbols, line, -32768, 32763, "memory offset")? as i16;
                // An even register below 32 has its odd partner in range.
                let ft_hi = FpReg::from_field(u32::from(ft.number()) + 1);
                let word = |ft, offset| Instruction::FpMem {
                    store,
                    ft,
                    base: *base,
                    offset,
                };
                two(word(ft, off), word(ft_hi, off + 4))
            }
            FpArith(op, fmt) => {
                self.count(3, "fd, fs, ft")?;
                one(Instruction::FpArith {
                    op,
                    fmt,
                    fd: self.fp(0, "fd, fs, ft")?,
                    fs: self.fp(1, "fd, fs, ft")?,
                    ft: self.fp(2, "fd, fs, ft")?,
                })
            }
            FpUnary(op, fmt) => {
                self.count(2, "fd, fs")?;
                one(Instruction::FpUnary {
                    op,
                    fmt,
                    fd: self.fp(0, "fd, fs")?,
                    fs: self.fp(1, "fd, fs")?,
                })
            }
            FpCmp(cond, fmt) => {
                self.count(2, "fs, ft")?;
                one(Instruction::FpCmp {
                    cond,
                    fmt,
                    fs: self.fp(0, "fs, ft")?,
                    ft: self.fp(1, "fs, ft")?,
                })
            }
            FpCvt { to, from } if to != from => {
                self.count(2, "fd, fs")?;
                one(Instruction::FpCvt {
                    to,
                    from,
                    fd: self.fp(0, "fd, fs")?,
                    fs: self.fp(1, "fd, fs")?,
                })
            }
            FpCvt { .. } | Unknown => {
                Err(self.error(AsmErrorKind::UnknownMnemonic(self.folded_name())))
            }
        }
    }

    /// `op rs, rt` followed by `move-from-hi/lo rd` (3-operand `div`,
    /// `rem`, `mul`).
    fn mult_div_then(&self, op: MultDivOp, from: HiLoOp) -> Result<Expansion, AsmError> {
        Ok((
            Instruction::MultDiv {
                op,
                rs: self.reg(1, "rd, rs, rt")?,
                rt: self.reg(2, "rd, rs, rt")?,
            },
            Some(Instruction::HiLo {
                op: from,
                reg: self.reg(0, "rd, rs, rt")?,
            }),
        ))
    }

    /// A load or store whose second operand is `offset(base)`, or an
    /// absolute address reached through `$at` (`lui $at, %hi` then the
    /// access at `%lo($at)`).
    fn memory_access(
        &self,
        symbols: &BTreeMap<String, u32>,
        expected: &'static str,
        access: impl Fn(Reg, i16) -> Instruction,
    ) -> Result<Expansion, AsmError> {
        match self.ops.get(1) {
            Some(Operand::Mem { offset, base }) => {
                let off = eval_i16(offset, symbols, self.line, "memory offset")?;
                Ok((access(*base, off), None))
            }
            Some(Operand::Expr(e)) => {
                let (hi, lo) = hi_lo_of(e, symbols, self.line)?;
                let lui = Instruction::Lui {
                    rt: Reg::AT,
                    imm: hi,
                };
                Ok((lui, Some(access(Reg::AT, lo))))
            }
            _ => Err(self.bad(expected)),
        }
    }
}

fn eval_range(
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
    lo: i64,
    hi: i64,
    what: &'static str,
) -> Result<i64, AsmError> {
    let v = expr.eval(symbols, line)?;
    if v < lo || v > hi {
        return Err(AsmError::new(
            line,
            AsmErrorKind::ValueOutOfRange { what, value: v },
        ));
    }
    Ok(v)
}

fn eval_i16(
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
    what: &'static str,
) -> Result<i16, AsmError> {
    Ok(eval_range(expr, symbols, line, -32768, 32767, what)? as i16)
}

fn eval_u16(
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
    what: &'static str,
) -> Result<u16, AsmError> {
    Ok(eval_range(expr, symbols, line, 0, 0xFFFF, what)? as u16)
}

/// Computes a 16-bit branch word offset.
///
/// Convention: a symbol-bearing expression is an absolute target address;
/// a pure constant is the literal word offset (matching the
/// disassembler's output, so disassembly re-assembles bit-identically).
fn branch_offset(
    expr: &Expr<'_>,
    branch_addr: u32,
    symbols: &BTreeMap<String, u32>,
    line: usize,
) -> Result<i16, AsmError> {
    if expr.is_constant() {
        return eval_i16(expr, symbols, line, "branch offset");
    }
    let target = expr.eval(symbols, line)? as u32;
    if !target.is_multiple_of(4) {
        return Err(AsmError::new(line, AsmErrorKind::MisalignedTarget(target)));
    }
    let diff = i64::from(target) - i64::from(branch_addr) - 4;
    let words = diff / 4;
    if diff % 4 != 0 || !(-32768..=32767).contains(&words) {
        return Err(AsmError::new(
            line,
            AsmErrorKind::BranchOutOfRange {
                from: branch_addr,
                to: target,
            },
        ));
    }
    Ok(words as i16)
}

fn jump_target(
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
) -> Result<u32, AsmError> {
    let target = expr.eval(symbols, line)? as u32;
    if !target.is_multiple_of(4) {
        return Err(AsmError::new(line, AsmErrorKind::MisalignedTarget(target)));
    }
    let field = target >> 2;
    if field >= (1 << 26) {
        return Err(AsmError::new(
            line,
            AsmErrorKind::ValueOutOfRange {
                what: "26-bit jump target",
                value: i64::from(target),
            },
        ));
    }
    Ok(field)
}

fn encode_la(
    rt: Reg,
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
) -> Result<Expansion, AsmError> {
    let (hi, lo) = hi_lo_of(expr, symbols, line)?;
    Ok((
        Instruction::Lui { rt, imm: hi },
        Some(Instruction::IAlu {
            op: IAluOp::Addiu,
            rt,
            rs: rt,
            imm: lo as u16,
        }),
    ))
}

/// The `%hi`/`%lo` pair of an address: `(hi << 16) + sign_extend(lo)`
/// reconstructs it.
fn hi_lo_of(
    expr: &Expr<'_>,
    symbols: &BTreeMap<String, u32>,
    line: usize,
) -> Result<(u16, i16), AsmError> {
    let v = expr.eval(symbols, line)? as u32;
    let hi = (v.wrapping_add(0x8000) >> 16) as u16;
    let lo = v as u16 as i16;
    Ok((hi, lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_in_any_case_and_longer_names_are_unknown() {
        assert_eq!(Mnemonic::resolve("ADDU"), Mnemonic::Alu(AluOp::Addu));
        assert_eq!(
            Mnemonic::resolve("C.Eq.D"),
            Mnemonic::FpCmp(FpCond::Eq, FpFmt::Double)
        );
        assert_eq!(
            Mnemonic::resolve("cvt.w.s"),
            Mnemonic::FpCvt {
                to: FpFmt::Word,
                from: FpFmt::Single
            }
        );
        for name in [
            "addu.s", "add.w", "c.eq.w", "cvt.x.s", "c.un.d", "syscalls", "", ".",
        ] {
            assert_eq!(Mnemonic::resolve(name), Mnemonic::Unknown, "{name}");
        }
    }

    #[test]
    fn every_table_mnemonic_resolves_to_its_op() {
        for op in AluOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::Alu(op));
        }
        for op in IAluOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::IAlu(op));
        }
        for op in ShiftOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic_imm()), Mnemonic::Shift(op));
            assert_eq!(Mnemonic::resolve(op.mnemonic_var()), Mnemonic::ShiftV(op));
        }
        for op in MultDivOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::MultDiv(op));
        }
        for op in HiLoOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::HiLo(op));
        }
        for op in BranchZOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::BranchZ(op));
        }
        for op in Cp1MoveOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::Cp1Move(op));
        }
        for op in MemOp::ALL {
            assert_eq!(Mnemonic::resolve(op.mnemonic()), Mnemonic::Mem(op));
        }
        for fmt in [FpFmt::Single, FpFmt::Double] {
            let suffix = if fmt == FpFmt::Single { "s" } else { "d" };
            for op in FpOp::ALL {
                let name = format!("{}.{suffix}", op.mnemonic());
                assert_eq!(Mnemonic::resolve(&name), Mnemonic::FpArith(op, fmt));
            }
            for op in FpUnaryOp::ALL {
                let name = format!("{}.{suffix}", op.mnemonic());
                assert_eq!(Mnemonic::resolve(&name), Mnemonic::FpUnary(op, fmt));
            }
            for cond in FpCond::ALL {
                let name = format!("c.{}.{suffix}", cond.mnemonic());
                assert_eq!(Mnemonic::resolve(&name), Mnemonic::FpCmp(cond, fmt));
            }
        }
    }
}
