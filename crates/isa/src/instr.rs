use crate::reg::{FpReg, Reg};

/// Three-operand register ALU operations (`SPECIAL` funct group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Signed add, traps on overflow (`add`).
    Add,
    /// Unsigned add (`addu`).
    Addu,
    /// Signed subtract, traps on overflow (`sub`).
    Sub,
    /// Unsigned subtract (`subu`).
    Subu,
    /// Bitwise AND (`and`).
    And,
    /// Bitwise OR (`or`).
    Or,
    /// Bitwise XOR (`xor`).
    Xor,
    /// Bitwise NOR (`nor`).
    Nor,
    /// Set on less than, signed (`slt`).
    Slt,
    /// Set on less than, unsigned (`sltu`).
    Sltu,
}

impl AluOp {
    /// All operations in this group.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Addu,
        AluOp::Sub,
        AluOp::Subu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// The `funct` field value for this operation.
    pub fn funct(self) -> u32 {
        match self {
            AluOp::Add => 0x20,
            AluOp::Addu => 0x21,
            AluOp::Sub => 0x22,
            AluOp::Subu => 0x23,
            AluOp::And => 0x24,
            AluOp::Or => 0x25,
            AluOp::Xor => 0x26,
            AluOp::Nor => 0x27,
            AluOp::Slt => 0x2A,
            AluOp::Sltu => 0x2B,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Addu => "addu",
            AluOp::Sub => "sub",
            AluOp::Subu => "subu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Shift operations; used for both immediate and variable forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Shift left logical (`sll` / `sllv`).
    Sll,
    /// Shift right logical (`srl` / `srlv`).
    Srl,
    /// Shift right arithmetic (`sra` / `srav`).
    Sra,
}

impl ShiftOp {
    /// All shift kinds.
    pub const ALL: [ShiftOp; 3] = [ShiftOp::Sll, ShiftOp::Srl, ShiftOp::Sra];

    /// The `funct` value for the shift-by-immediate form.
    pub fn funct_imm(self) -> u32 {
        match self {
            ShiftOp::Sll => 0x00,
            ShiftOp::Srl => 0x02,
            ShiftOp::Sra => 0x03,
        }
    }

    /// The `funct` value for the shift-by-register form.
    pub fn funct_var(self) -> u32 {
        self.funct_imm() + 4
    }

    /// Mnemonic for the shift-by-immediate form.
    pub fn mnemonic_imm(self) -> &'static str {
        match self {
            ShiftOp::Sll => "sll",
            ShiftOp::Srl => "srl",
            ShiftOp::Sra => "sra",
        }
    }

    /// Mnemonic for the shift-by-register form.
    pub fn mnemonic_var(self) -> &'static str {
        match self {
            ShiftOp::Sll => "sllv",
            ShiftOp::Srl => "srlv",
            ShiftOp::Sra => "srav",
        }
    }
}

/// Multiply/divide operations writing `HI`/`LO`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultDivOp {
    /// Signed multiply (`mult`).
    Mult,
    /// Unsigned multiply (`multu`).
    Multu,
    /// Signed divide (`div`).
    Div,
    /// Unsigned divide (`divu`).
    Divu,
}

impl MultDivOp {
    /// All multiply/divide kinds.
    pub const ALL: [MultDivOp; 4] = [
        MultDivOp::Mult,
        MultDivOp::Multu,
        MultDivOp::Div,
        MultDivOp::Divu,
    ];

    /// The `funct` field value.
    pub fn funct(self) -> u32 {
        match self {
            MultDivOp::Mult => 0x18,
            MultDivOp::Multu => 0x19,
            MultDivOp::Div => 0x1A,
            MultDivOp::Divu => 0x1B,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MultDivOp::Mult => "mult",
            MultDivOp::Multu => "multu",
            MultDivOp::Div => "div",
            MultDivOp::Divu => "divu",
        }
    }
}

/// Moves between GPRs and the `HI`/`LO` multiply result registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HiLoOp {
    /// `mfhi rd` — read `HI`.
    Mfhi,
    /// `mthi rs` — write `HI`.
    Mthi,
    /// `mflo rd` — read `LO`.
    Mflo,
    /// `mtlo rs` — write `LO`.
    Mtlo,
}

impl HiLoOp {
    /// All `HI`/`LO` move kinds.
    pub const ALL: [HiLoOp; 4] = [HiLoOp::Mfhi, HiLoOp::Mthi, HiLoOp::Mflo, HiLoOp::Mtlo];

    /// The `funct` field value.
    pub fn funct(self) -> u32 {
        match self {
            HiLoOp::Mfhi => 0x10,
            HiLoOp::Mthi => 0x11,
            HiLoOp::Mflo => 0x12,
            HiLoOp::Mtlo => 0x13,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            HiLoOp::Mfhi => "mfhi",
            HiLoOp::Mthi => "mthi",
            HiLoOp::Mflo => "mflo",
            HiLoOp::Mtlo => "mtlo",
        }
    }

    /// Whether this is a move *from* `HI`/`LO` into a GPR.
    pub fn is_from(self) -> bool {
        matches!(self, HiLoOp::Mfhi | HiLoOp::Mflo)
    }
}

/// Immediate-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IAluOp {
    /// Add immediate, signed with overflow trap (`addi`).
    Addi,
    /// Add immediate unsigned (`addiu`).
    Addiu,
    /// Set on less than immediate, signed (`slti`).
    Slti,
    /// Set on less than immediate, unsigned (`sltiu`).
    Sltiu,
    /// AND immediate, zero-extended (`andi`).
    Andi,
    /// OR immediate, zero-extended (`ori`).
    Ori,
    /// XOR immediate, zero-extended (`xori`).
    Xori,
}

impl IAluOp {
    /// All immediate ALU kinds.
    pub const ALL: [IAluOp; 7] = [
        IAluOp::Addi,
        IAluOp::Addiu,
        IAluOp::Slti,
        IAluOp::Sltiu,
        IAluOp::Andi,
        IAluOp::Ori,
        IAluOp::Xori,
    ];

    /// The major opcode field value.
    pub fn opcode(self) -> u32 {
        match self {
            IAluOp::Addi => 0x08,
            IAluOp::Addiu => 0x09,
            IAluOp::Slti => 0x0A,
            IAluOp::Sltiu => 0x0B,
            IAluOp::Andi => 0x0C,
            IAluOp::Ori => 0x0D,
            IAluOp::Xori => 0x0E,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IAluOp::Addi => "addi",
            IAluOp::Addiu => "addiu",
            IAluOp::Slti => "slti",
            IAluOp::Sltiu => "sltiu",
            IAluOp::Andi => "andi",
            IAluOp::Ori => "ori",
            IAluOp::Xori => "xori",
        }
    }

    /// Whether the immediate is sign-extended (vs zero-extended) at runtime.
    pub fn sign_extends(self) -> bool {
        !matches!(self, IAluOp::Andi | IAluOp::Ori | IAluOp::Xori)
    }
}

/// Two-register compare-and-branch operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch on equal (`beq`).
    Beq,
    /// Branch on not equal (`bne`).
    Bne,
}

impl BranchOp {
    /// All compare-and-branch kinds.
    pub const ALL: [BranchOp; 2] = [BranchOp::Beq, BranchOp::Bne];

    /// The major opcode field value.
    pub fn opcode(self) -> u32 {
        match self {
            BranchOp::Beq => 0x04,
            BranchOp::Bne => 0x05,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
        }
    }
}

/// Compare-against-zero branch operations (major opcodes and REGIMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchZOp {
    /// Branch on less than or equal to zero (`blez`).
    Blez,
    /// Branch on greater than zero (`bgtz`).
    Bgtz,
    /// Branch on less than zero (`bltz`).
    Bltz,
    /// Branch on greater than or equal to zero (`bgez`).
    Bgez,
    /// Branch on less than zero and link (`bltzal`).
    Bltzal,
    /// Branch on greater than or equal to zero and link (`bgezal`).
    Bgezal,
}

impl BranchZOp {
    /// All compare-against-zero branch kinds.
    pub const ALL: [BranchZOp; 6] = [
        BranchZOp::Blez,
        BranchZOp::Bgtz,
        BranchZOp::Bltz,
        BranchZOp::Bgez,
        BranchZOp::Bltzal,
        BranchZOp::Bgezal,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchZOp::Blez => "blez",
            BranchZOp::Bgtz => "bgtz",
            BranchZOp::Bltz => "bltz",
            BranchZOp::Bgez => "bgez",
            BranchZOp::Bltzal => "bltzal",
            BranchZOp::Bgezal => "bgezal",
        }
    }
}

/// Load/store operations on the integer unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Load byte, sign-extended (`lb`).
    Lb,
    /// Load halfword, sign-extended (`lh`).
    Lh,
    /// Load word left, unaligned support (`lwl`).
    Lwl,
    /// Load word (`lw`).
    Lw,
    /// Load byte unsigned (`lbu`).
    Lbu,
    /// Load halfword unsigned (`lhu`).
    Lhu,
    /// Load word right, unaligned support (`lwr`).
    Lwr,
    /// Store byte (`sb`).
    Sb,
    /// Store halfword (`sh`).
    Sh,
    /// Store word left (`swl`).
    Swl,
    /// Store word (`sw`).
    Sw,
    /// Store word right (`swr`).
    Swr,
}

impl MemOp {
    /// All load/store kinds.
    pub const ALL: [MemOp; 12] = [
        MemOp::Lb,
        MemOp::Lh,
        MemOp::Lwl,
        MemOp::Lw,
        MemOp::Lbu,
        MemOp::Lhu,
        MemOp::Lwr,
        MemOp::Sb,
        MemOp::Sh,
        MemOp::Swl,
        MemOp::Sw,
        MemOp::Swr,
    ];

    /// The major opcode field value.
    pub fn opcode(self) -> u32 {
        match self {
            MemOp::Lb => 0x20,
            MemOp::Lh => 0x21,
            MemOp::Lwl => 0x22,
            MemOp::Lw => 0x23,
            MemOp::Lbu => 0x24,
            MemOp::Lhu => 0x25,
            MemOp::Lwr => 0x26,
            MemOp::Sb => 0x28,
            MemOp::Sh => 0x29,
            MemOp::Swl => 0x2A,
            MemOp::Sw => 0x2B,
            MemOp::Swr => 0x2E,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Lb => "lb",
            MemOp::Lh => "lh",
            MemOp::Lwl => "lwl",
            MemOp::Lw => "lw",
            MemOp::Lbu => "lbu",
            MemOp::Lhu => "lhu",
            MemOp::Lwr => "lwr",
            MemOp::Sb => "sb",
            MemOp::Sh => "sh",
            MemOp::Swl => "swl",
            MemOp::Sw => "sw",
            MemOp::Swr => "swr",
        }
    }

    /// Whether the operation writes memory (vs reading it).
    pub fn is_store(self) -> bool {
        matches!(
            self,
            MemOp::Sb | MemOp::Sh | MemOp::Swl | MemOp::Sw | MemOp::Swr
        )
    }
}

/// Moves between the integer unit and coprocessor 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cp1MoveOp {
    /// Move word from FP register to GPR (`mfc1`).
    Mfc1,
    /// Move word from GPR to FP register (`mtc1`).
    Mtc1,
    /// Move control word from coprocessor 1 (`cfc1`).
    Cfc1,
    /// Move control word to coprocessor 1 (`ctc1`).
    Ctc1,
}

impl Cp1MoveOp {
    /// All coprocessor-1 move kinds.
    pub const ALL: [Cp1MoveOp; 4] = [
        Cp1MoveOp::Mfc1,
        Cp1MoveOp::Mtc1,
        Cp1MoveOp::Cfc1,
        Cp1MoveOp::Ctc1,
    ];

    /// The `rs`-slot sub-opcode used in the COP1 encoding.
    pub fn rs_field(self) -> u32 {
        match self {
            Cp1MoveOp::Mfc1 => 0x00,
            Cp1MoveOp::Cfc1 => 0x02,
            Cp1MoveOp::Mtc1 => 0x04,
            Cp1MoveOp::Ctc1 => 0x06,
        }
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cp1MoveOp::Mfc1 => "mfc1",
            Cp1MoveOp::Mtc1 => "mtc1",
            Cp1MoveOp::Cfc1 => "cfc1",
            Cp1MoveOp::Ctc1 => "ctc1",
        }
    }
}

/// Floating-point operand format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpFmt {
    /// Single precision (`.s`, fmt field 16).
    Single,
    /// Double precision (`.d`, fmt field 17).
    Double,
    /// 32-bit fixed point (`.w`, fmt field 20); valid only for conversions.
    Word,
}

impl FpFmt {
    /// The `fmt` field value in the COP1 encoding.
    pub fn field(self) -> u32 {
        match self {
            FpFmt::Single => 16,
            FpFmt::Double => 17,
            FpFmt::Word => 20,
        }
    }

    /// The mnemonic suffix (`s`, `d`, or `w`).
    pub fn suffix(self) -> &'static str {
        match self {
            FpFmt::Single => "s",
            FpFmt::Double => "d",
            FpFmt::Word => "w",
        }
    }
}

/// Three-operand floating-point arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Floating add (`add.fmt`).
    Add,
    /// Floating subtract (`sub.fmt`).
    Sub,
    /// Floating multiply (`mul.fmt`).
    Mul,
    /// Floating divide (`div.fmt`).
    Div,
}

impl FpOp {
    /// All FP arithmetic kinds.
    pub const ALL: [FpOp; 4] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div];

    /// The `funct` field value.
    pub fn funct(self) -> u32 {
        match self {
            FpOp::Add => 0x00,
            FpOp::Sub => 0x01,
            FpOp::Mul => 0x02,
            FpOp::Div => 0x03,
        }
    }

    /// The mnemonic stem (without format suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "add",
            FpOp::Sub => "sub",
            FpOp::Mul => "mul",
            FpOp::Div => "div",
        }
    }
}

/// Single-operand floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpUnaryOp {
    /// Absolute value (`abs.fmt`).
    Abs,
    /// Move (`mov.fmt`).
    Mov,
    /// Negate (`neg.fmt`).
    Neg,
}

impl FpUnaryOp {
    /// All FP unary kinds.
    pub const ALL: [FpUnaryOp; 3] = [FpUnaryOp::Abs, FpUnaryOp::Mov, FpUnaryOp::Neg];

    /// The `funct` field value.
    pub fn funct(self) -> u32 {
        match self {
            FpUnaryOp::Abs => 0x05,
            FpUnaryOp::Mov => 0x06,
            FpUnaryOp::Neg => 0x07,
        }
    }

    /// The mnemonic stem (without format suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpUnaryOp::Abs => "abs",
            FpUnaryOp::Mov => "mov",
            FpUnaryOp::Neg => "neg",
        }
    }
}

/// Floating-point compare conditions (subset used by R2000 compilers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCond {
    /// Equal (`c.eq.fmt`).
    Eq,
    /// Less than (`c.lt.fmt`).
    Lt,
    /// Less than or equal (`c.le.fmt`).
    Le,
}

impl FpCond {
    /// All supported compare conditions.
    pub const ALL: [FpCond; 3] = [FpCond::Eq, FpCond::Lt, FpCond::Le];

    /// The `funct` field value.
    pub fn funct(self) -> u32 {
        match self {
            FpCond::Eq => 0x32,
            FpCond::Lt => 0x3C,
            FpCond::Le => 0x3E,
        }
    }

    /// The condition mnemonic stem (e.g. `eq` in `c.eq.d`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpCond::Eq => "eq",
            FpCond::Lt => "lt",
            FpCond::Le => "le",
        }
    }
}

/// A decoded MIPS R2000 instruction.
///
/// This is the abstract, field-validated form; the 32-bit binary encoding
/// is produced by [`Instruction::encode`] and recovered by
/// [`decode`](crate::decode). Every variant corresponds to a user-mode
/// R2000/R2010 instruction that 1992-era MIPS compilers emitted.
///
/// # Examples
///
/// ```
/// use ccrp_isa::{decode, AluOp, Instruction, Reg};
///
/// let inst = Instruction::RAlu {
///     op: AluOp::Addu,
///     rd: Reg::V0,
///     rs: Reg::A0,
///     rt: Reg::A1,
/// };
/// let word = inst.encode();
/// assert_eq!(decode(word)?, inst);
/// # Ok::<(), ccrp_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register-register ALU operation: `op rd, rs, rt`.
    RAlu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs: Reg,
        /// Second source register.
        rt: Reg,
    },
    /// Shift by immediate: `op rd, rt, shamt`.
    Shift {
        /// The shift kind.
        op: ShiftOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rt: Reg,
        /// Shift amount, 0..=31.
        shamt: u8,
    },
    /// Shift by register: `opv rd, rt, rs`.
    ShiftV {
        /// The shift kind.
        op: ShiftOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rt: Reg,
        /// Register holding the shift amount.
        rs: Reg,
    },
    /// Multiply or divide into `HI`/`LO`: `op rs, rt`.
    MultDiv {
        /// The operation.
        op: MultDivOp,
        /// First operand.
        rs: Reg,
        /// Second operand.
        rt: Reg,
    },
    /// Move between a GPR and `HI`/`LO`.
    HiLo {
        /// The move kind.
        op: HiLoOp,
        /// The GPR read or written.
        reg: Reg,
    },
    /// Jump register: `jr rs`.
    Jr {
        /// Register holding the target address.
        rs: Reg,
    },
    /// Jump and link register: `jalr rd, rs`.
    Jalr {
        /// Register receiving the return address (usually `$ra`).
        rd: Reg,
        /// Register holding the target address.
        rs: Reg,
    },
    /// System call trap: `syscall`.
    Syscall {
        /// The 20-bit code field (ignored by hardware, kept for fidelity).
        code: u32,
    },
    /// Breakpoint trap: `break`.
    Break {
        /// The 20-bit code field.
        code: u32,
    },
    /// Immediate ALU operation: `op rt, rs, imm`.
    IAlu {
        /// The operation.
        op: IAluOp,
        /// Destination register.
        rt: Reg,
        /// Source register.
        rs: Reg,
        /// 16-bit immediate (raw encoding; interpretation depends on `op`).
        imm: u16,
    },
    /// Load upper immediate: `lui rt, imm`.
    Lui {
        /// Destination register.
        rt: Reg,
        /// Immediate placed in the upper halfword.
        imm: u16,
    },
    /// Two-register branch: `op rs, rt, offset`.
    Branch {
        /// The comparison.
        op: BranchOp,
        /// First compared register.
        rs: Reg,
        /// Second compared register.
        rt: Reg,
        /// Signed word offset from the delay-slot instruction.
        offset: i16,
    },
    /// Compare-against-zero branch: `op rs, offset`.
    BranchZ {
        /// The comparison.
        op: BranchZOp,
        /// Compared register.
        rs: Reg,
        /// Signed word offset from the delay-slot instruction.
        offset: i16,
    },
    /// Absolute jump: `j target` or `jal target`.
    Jump {
        /// Whether the return address is written to `$ra` (`jal`).
        link: bool,
        /// The 26-bit word-address target field.
        target: u32,
    },
    /// Integer load or store: `op rt, offset(base)`.
    Mem {
        /// The access kind.
        op: MemOp,
        /// Data register.
        rt: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Floating-point load or store word: `lwc1`/`swc1 ft, offset(base)`.
    FpMem {
        /// `true` for `swc1`, `false` for `lwc1`.
        store: bool,
        /// FP data register.
        ft: FpReg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i16,
    },
    /// Move between a GPR and coprocessor 1.
    Cp1Move {
        /// The move kind.
        op: Cp1MoveOp,
        /// The GPR side of the transfer.
        rt: Reg,
        /// The FP register (or control register number) side.
        fs: FpReg,
    },
    /// Three-operand FP arithmetic: `op.fmt fd, fs, ft`.
    FpArith {
        /// The operation.
        op: FpOp,
        /// Operand format (`.s` or `.d`).
        fmt: FpFmt,
        /// Destination FP register.
        fd: FpReg,
        /// First source FP register.
        fs: FpReg,
        /// Second source FP register.
        ft: FpReg,
    },
    /// Single-operand FP operation: `op.fmt fd, fs`.
    FpUnary {
        /// The operation.
        op: FpUnaryOp,
        /// Operand format (`.s` or `.d`).
        fmt: FpFmt,
        /// Destination FP register.
        fd: FpReg,
        /// Source FP register.
        fs: FpReg,
    },
    /// Format conversion: `cvt.to.from fd, fs`.
    FpCvt {
        /// Destination format.
        to: FpFmt,
        /// Source format.
        from: FpFmt,
        /// Destination FP register.
        fd: FpReg,
        /// Source FP register.
        fs: FpReg,
    },
    /// FP compare setting the coprocessor condition bit: `c.cond.fmt fs, ft`.
    FpCmp {
        /// The condition.
        cond: FpCond,
        /// Operand format (`.s` or `.d`).
        fmt: FpFmt,
        /// First compared FP register.
        fs: FpReg,
        /// Second compared FP register.
        ft: FpReg,
    },
    /// Branch on coprocessor-1 condition: `bc1t`/`bc1f offset`.
    Bc1 {
        /// Branch when the condition bit is set (`bc1t`) vs clear (`bc1f`).
        on_true: bool,
        /// Signed word offset from the delay-slot instruction.
        offset: i16,
    },
}

impl Instruction {
    /// The canonical no-operation instruction (`sll $zero, $zero, 0`).
    pub const NOP: Instruction = Instruction::Shift {
        op: ShiftOp::Sll,
        rd: Reg::ZERO,
        rt: Reg::ZERO,
        shamt: 0,
    };

    /// Whether this instruction writes data memory.
    pub fn is_store(&self) -> bool {
        match self {
            Instruction::Mem { op, .. } => op.is_store(),
            Instruction::FpMem { store, .. } => *store,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_is_all_zero_when_encoded() {
        assert_eq!(Instruction::NOP.encode(), 0);
    }

    #[test]
    fn store_classification() {
        let sw = Instruction::Mem {
            op: MemOp::Sw,
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        let lw = Instruction::Mem {
            op: MemOp::Lw,
            rt: Reg::T0,
            base: Reg::SP,
            offset: 0,
        };
        assert!(sw.is_store());
        assert!(!lw.is_store());
        let swc1 = Instruction::FpMem {
            store: true,
            ft: FpReg::new(0).unwrap(),
            base: Reg::SP,
            offset: 4,
        };
        assert!(swc1.is_store());
    }

    #[test]
    fn op_tables_are_consistent() {
        for op in AluOp::ALL {
            assert!(!op.mnemonic().is_empty());
        }
        for op in MemOp::ALL {
            assert_eq!(op.is_store(), op.mnemonic().starts_with('s'));
        }
        for op in HiLoOp::ALL {
            assert_eq!(op.is_from(), op.mnemonic().starts_with("mf"));
        }
    }
}
