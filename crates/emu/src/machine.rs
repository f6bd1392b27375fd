use std::collections::VecDeque;

use ccrp::{crc32, CompressedImage, DegradePolicy, StepBudget};
use ccrp_asm::ProgramImage;
use ccrp_isa::{
    decode, AluOp, BranchOp, BranchZOp, Cp1MoveOp, FpCond, FpFmt, FpOp, FpReg, FpUnaryOp, HiLoOp,
    IAluOp, Instruction, MemOp, MultDivOp, Reg, ShiftOp,
};

use crate::error::EmuError;
use crate::memory::Memory;
use crate::state::ArchState;
use crate::trace::TraceSink;

/// The initial stack pointer of every machine, MIPS and RV32 alike:
/// near the top of the paper's 24-bit physical address space, growing
/// down.
pub const INITIAL_SP: u32 = 0x00F0_0000;

/// Configuration for a [`Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    /// Instruction budget; exceeding it is an error so runaway workloads
    /// fail loudly.
    pub max_steps: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            max_steps: 200_000_000,
        }
    }
}

/// Result of running a program to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed (including delay slots).
    pub instructions: u64,
    /// The code passed to the exit syscall (0 for plain exit).
    pub exit_code: i32,
}

/// Compressed-ROM state for demand line expansion: decoded instructions
/// come from the ROM's expanded lines, so in-ROM corruption is visible to
/// the fetch path as a machine check.
#[derive(Debug, Clone)]
pub(crate) struct CompressedRom {
    pub(crate) image: CompressedImage,
    /// One flag per cache line: whether it has been expanded and decoded.
    pub(crate) expanded: Vec<bool>,
}

/// Expands line `line` of `rom` and decodes its eight words into their
/// slots of `decoded`, the machine's pre-decoded text.
///
/// # Errors
///
/// The line's first address, when the line does not expand.
pub(crate) fn expand_rom_line(
    rom: &CompressedImage,
    line: usize,
    decoded: &mut [Option<Instruction>],
) -> Result<(), u32> {
    let line_addr = rom.text_base() + line as u32 * 32;
    let mut bytes = [0u8; 32];
    rom.expand_line_into(line_addr, &mut bytes)
        .map_err(|_| line_addr)?;
    let words = bytes
        .chunks_exact(4)
        .map(|w| decode(u32::from_le_bytes([w[0], w[1], w[2], w[3]])).ok());
    for (slot, word) in decoded.iter_mut().skip(line * 8).zip(words) {
        *slot = word;
    }
    Ok(())
}

/// Identifies a program image for checkpoint compatibility checks:
/// content CRCs mixed with the layout parameters, so a checkpoint taken
/// on one program (or the same bytes loaded elsewhere) is rejected when
/// restored into another.
fn program_fingerprint(image: &ProgramImage) -> u32 {
    crc32(image.text_bytes())
        ^ crc32(image.data_bytes()).rotate_left(1)
        ^ image.text_base().wrapping_mul(0x9E37_79B9)
        ^ image.entry().wrapping_mul(0x85EB_CA6B)
}

/// A functional MIPS R2000 + R2010 (FPA) emulator.
///
/// Faithful in the ways that matter to the CCRP experiments: branch delay
/// slots, little-endian memory (the DECstation configuration), the
/// overflow-trapping arithmetic ops, and SPIM-style syscalls for I/O. It
/// is *not* cycle accurate — timing is the job of `ccrp-sim`, which replays
/// the traces this emulator captures.
///
/// # Examples
///
/// ```
/// use ccrp_asm::assemble;
/// use ccrp_emu::{Machine, NullSink};
///
/// let image = assemble("
///     main:
///         li  $a0, 6
///         li  $t0, 7
///         mul $a0, $a0, $t0
///         li  $v0, 1      # print_int
///         syscall
///         li  $v0, 10     # exit
///         syscall
/// ")?;
/// let mut machine = Machine::new(&image);
/// let summary = machine.run(&mut NullSink)?;
/// assert_eq!(machine.output(), "42");
/// assert_eq!(summary.exit_code, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// Everything the program can observe — the checkpointable part.
    pub(crate) state: ArchState,
    pub(crate) text_base: u32,
    /// Pre-decoded text segment; `None` entries are data words (jump
    /// tables), invalid encodings, or words of a ROM line not yet
    /// expanded, so a `Some` entry needs no ROM check when fetched.
    /// Derived state: rebuilt from memory / the ROM on restore, never
    /// serialized.
    pub(crate) decoded: Vec<Option<Instruction>>,
    /// Compressed instruction ROM for demand line expansion, when the
    /// machine was built with [`with_compressed_text`]
    /// (Self::with_compressed_text) under a demand policy.
    pub(crate) rom: Option<CompressedRom>,
    pub(crate) config: MachineConfig,
    /// Identifies the loaded program, so a checkpoint taken on one
    /// program is rejected when restored into another.
    pub(crate) fingerprint: u32,
}

impl Machine {
    /// Builds a machine loaded with `image`, default configuration.
    pub fn new(image: &ProgramImage) -> Self {
        Self::with_config(image, MachineConfig::default())
    }

    /// Builds a machine loaded with `image`.
    pub fn with_config(image: &ProgramImage, config: MachineConfig) -> Self {
        let decoded = image.text_words().map(|w| decode(w).ok()).collect();
        Self::load(image, config, decoded)
    }

    /// Builds a machine loaded with `image` whose fetches read
    /// `decoded`, the pre-decoded text.
    fn load(
        image: &ProgramImage,
        config: MachineConfig,
        decoded: Vec<Option<Instruction>>,
    ) -> Self {
        let mut mem = Memory::new();
        mem.load(image.text_base(), image.text_bytes());
        if !image.data_bytes().is_empty() {
            mem.load(image.data_base(), image.data_bytes());
        }
        // Map the top stack page so leaf functions can spill immediately.
        mem.write_u32(INITIAL_SP, 0);
        let mut regs = [0u32; 32];
        regs[Reg::SP.number() as usize] = INITIAL_SP;
        regs[Reg::GP.number() as usize] = image.data_base();
        // Returning from `main` jumps to an address outside text, which
        // reports BadFetch; workloads exit via syscall instead.
        regs[Reg::RA.number() as usize] = 0x00FF_FFF0;
        let brk = image.data_base() + image.data_bytes().len() as u32;
        Self {
            state: ArchState {
                regs,
                hi: 0,
                lo: 0,
                fpr: [0; 32],
                fp_cond: false,
                pc: image.entry(),
                next_pc: image.entry().wrapping_add(4),
                brk: (brk + 7) & !7,
                exit: None,
                steps: 0,
                output: String::new(),
                input: VecDeque::new(),
                mem,
            },
            text_base: image.text_base(),
            decoded,
            rom: None,
            config,
            fingerprint: program_fingerprint(image),
        }
    }

    /// Builds a machine whose instruction stream comes from a compressed
    /// instruction ROM instead of the pre-decoded program text. Data
    /// accesses still see the program image's memory; only instruction
    /// fetch goes through the ROM.
    ///
    /// `policy` chooses only when lines are expanded; the refill engine
    /// alone times re-reads and backoff. Under [`DegradePolicy::Abort`]
    /// every line is expanded (and checked) eagerly at construction, so
    /// a corrupt ROM fails here. Under [`DegradePolicy::Trap`] and
    /// [`DegradePolicy::Retry`] each line is expanded once, on its first
    /// fetch; a corrupt line raises [`EmuError::MachineCheck`] at that
    /// fetch. An in-memory image reads the same bytes every time, so a
    /// re-read could not recover it.
    ///
    /// # Errors
    ///
    /// [`EmuError::RomMismatch`] when `rom`'s text base or size does not
    /// cover `image`'s text; [`EmuError::MachineCheck`] when eager
    /// expansion hits corruption.
    pub fn with_compressed_text(
        image: &ProgramImage,
        rom: &CompressedImage,
        policy: DegradePolicy,
        config: MachineConfig,
    ) -> Result<Self, EmuError> {
        if rom.text_base() != image.text_base()
            || (rom.original_bytes() as usize) < image.text_bytes().len()
        {
            return Err(EmuError::RomMismatch);
        }
        // Nothing is decoded until its ROM line is expanded.
        let mut machine = Self::load(
            image,
            config,
            vec![None; (rom.original_bytes() / 4) as usize],
        );
        match policy {
            DegradePolicy::Abort => {
                // Fail-fast: expand and decode the whole ROM up front.
                for line in 0..rom.line_count() {
                    expand_rom_line(rom, line, &mut machine.decoded)
                        .map_err(|pc| EmuError::MachineCheck { pc })?;
                }
            }
            DegradePolicy::Trap | DegradePolicy::Retry { .. } => {
                machine.rom = Some(CompressedRom {
                    image: rom.clone(),
                    expanded: vec![false; rom.line_count()],
                });
            }
        }
        Ok(machine)
    }

    /// Queues integers for the `read_int` syscall to return in order.
    pub fn push_input(&mut self, values: impl IntoIterator<Item = i32>) {
        self.state.input.extend(values);
    }

    /// Everything the program printed so far.
    pub fn output(&self) -> &str {
        &self.state.output
    }

    /// Current value of a general-purpose register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.state.regs[reg.number() as usize]
    }

    /// Sets a general-purpose register (writes to `$zero` are ignored).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if reg != Reg::ZERO {
            self.state.regs[reg.number() as usize] = value;
        }
    }

    /// The address of the next instruction to execute.
    pub fn pc(&self) -> u32 {
        self.state.pc
    }

    /// The multiply/divide `hi` result register.
    pub fn hi(&self) -> u32 {
        self.state.hi
    }

    /// The multiply/divide `lo` result register.
    pub fn lo(&self) -> u32 {
        self.state.lo
    }

    /// The CP1 condition flag set by `c.eq.s`-family compares.
    pub fn fp_cond(&self) -> bool {
        self.state.fp_cond
    }

    /// Raw bits of an FP register.
    pub fn fp_bits(&self, reg: FpReg) -> u32 {
        self.state.fpr[reg.number() as usize]
    }

    /// The single-precision value in `reg`.
    pub fn fp_single(&self, reg: FpReg) -> f32 {
        f32::from_bits(self.fp_bits(reg))
    }

    /// The double-precision value in the even/odd pair starting at `reg`.
    ///
    /// Doubles live in even pairs on the R2010; the pair is addressed by
    /// the even number, so the low register-number bit is ignored. A
    /// hand-encoded odd register therefore reads the enclosing pair
    /// rather than faulting — arbitrary instruction words must never
    /// panic the emulator.
    pub fn fp_double(&self, reg: FpReg) -> f64 {
        let n = (reg.number() & !1) as usize;
        let lo = self.state.fpr[n] as u64;
        let hi = self.state.fpr[n + 1] as u64;
        f64::from_bits((hi << 32) | lo)
    }

    fn set_fp_double(&mut self, reg: FpReg, value: f64) {
        let n = (reg.number() & !1) as usize;
        let bits = value.to_bits();
        self.state.fpr[n] = bits as u32;
        self.state.fpr[n + 1] = (bits >> 32) as u32;
    }

    /// Whether the program has exited, and with what code.
    pub fn exit_code(&self) -> Option<i32> {
        self.state.exit
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.state.steps
    }

    /// Direct read access to memory, for assertions in tests.
    pub fn read_word(&self, addr: u32) -> Option<u32> {
        self.state.mem.read_u32(addr)
    }

    /// Runs until the program exits via syscall.
    ///
    /// # Errors
    ///
    /// Any [`EmuError`] fault, including exceeding the configured step
    /// budget.
    pub fn run(&mut self, sink: &mut impl TraceSink) -> Result<RunSummary, EmuError> {
        self.run_budgeted(sink, &mut StepBudget::unlimited())
    }

    /// Runs until the program exits via syscall, charging `budget` one
    /// unit per retired instruction on top of the configured
    /// `max_steps` ceiling.
    ///
    /// This is the guard rail for programs that cannot be trusted to
    /// terminate — hostile service uploads, or difftest programs should
    /// the generator's termination-by-construction invariant ever be
    /// violated. Fuel exhaustion is deterministic (it depends only on
    /// the program), while an attached cancellation flag lets a
    /// watchdog thread stop the run on a wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`EmuError::BudgetExhausted`] when `budget` trips; otherwise as
    /// [`run`](Self::run).
    pub fn run_budgeted(
        &mut self,
        sink: &mut impl TraceSink,
        budget: &mut StepBudget,
    ) -> Result<RunSummary, EmuError> {
        while self.state.exit.is_none() {
            if self.state.steps >= self.config.max_steps {
                return Err(EmuError::StepLimitExceeded {
                    limit: self.config.max_steps,
                });
            }
            if let Err(exhausted) = budget.charge(1) {
                return Err(EmuError::BudgetExhausted {
                    steps: self.state.steps,
                    cancelled: exhausted.cancelled,
                });
            }
            self.step(sink)?;
        }
        Ok(RunSummary {
            instructions: self.state.steps,
            // panic-ok: the loop above only exits once `exit` is set.
            exit_code: self.state.exit.expect("loop exits only when set"),
        })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`EmuError`] fault raised by the instruction.
    pub fn step(&mut self, sink: &mut impl TraceSink) -> Result<(), EmuError> {
        let pc = self.state.pc;
        let inst = self.fetch(pc)?;
        sink.instruction(pc);
        self.state.steps += 1;
        self.state.pc = self.state.next_pc;
        self.state.next_pc = self.state.next_pc.wrapping_add(4);
        self.execute(inst, pc, sink)
    }

    /// Fetches the decoded instruction at `pc`: one bounds-checked index
    /// when it is decoded, which a ROM line is only once expanded.
    /// Everything else (faults and demand expansion) goes through
    /// [`fetch_slow`](Self::fetch_slow).
    #[inline]
    fn fetch(&mut self, pc: u32) -> Result<Instruction, EmuError> {
        if pc.is_multiple_of(4) && pc >= self.text_base {
            if let Some(Some(inst)) = self.decoded.get(((pc - self.text_base) / 4) as usize) {
                return Ok(*inst);
            }
        }
        self.fetch_slow(pc)
    }

    /// The fetch path for a `pc` with no decoded instruction: a bad
    /// address, a ROM line not yet expanded, or a word that does not
    /// decode.
    #[cold]
    #[inline(never)]
    fn fetch_slow(&mut self, pc: u32) -> Result<Instruction, EmuError> {
        if !pc.is_multiple_of(4) || pc < self.text_base {
            return Err(EmuError::BadFetch { pc });
        }
        self.ensure_line_expanded(pc)?;
        let index = ((pc - self.text_base) / 4) as usize;
        match self.decoded.get(index) {
            Some(Some(inst)) => Ok(*inst),
            Some(None) => {
                let word = self.state.mem.read_u32(pc).unwrap_or(0);
                Err(EmuError::IllegalInstruction { pc, word })
            }
            None => Err(EmuError::BadFetch { pc }),
        }
    }

    /// Demand expansion of the compressed cache line holding `pc`. No-op
    /// without a ROM, for already expanded lines, and for addresses past
    /// the ROM (the subsequent decoded-table lookup reports those as
    /// [`EmuError::BadFetch`]).
    fn ensure_line_expanded(&mut self, pc: u32) -> Result<(), EmuError> {
        let Some(rom) = &mut self.rom else {
            return Ok(());
        };
        let line = ((pc - self.text_base) / 32) as usize;
        if rom.expanded.get(line).copied() != Some(false) {
            return Ok(());
        }
        expand_rom_line(&rom.image, line, &mut self.decoded)
            .map_err(|pc| EmuError::MachineCheck { pc })?;
        rom.expanded[line] = true;
        Ok(())
    }

    fn load_addr(
        &mut self,
        base: Reg,
        offset: i16,
        align: u32,
        pc: u32,
        sink: &mut impl TraceSink,
        store: bool,
    ) -> Result<u32, EmuError> {
        let addr = self.reg(base).wrapping_add(offset as i32 as u32);
        if align > 1 && !addr.is_multiple_of(align) {
            return Err(EmuError::UnalignedAccess { addr, align, pc });
        }
        sink.data_access(addr, store);
        Ok(addr)
    }

    fn read_u32(&self, addr: u32, pc: u32) -> Result<u32, EmuError> {
        self.state
            .mem
            .read_u32(addr)
            .ok_or(EmuError::UnmappedRead { addr, pc })
    }

    fn branch(&mut self, taken: bool, offset: i16) {
        if taken {
            // `next_pc` currently points one past the delay slot; the
            // target is relative to the delay-slot address.
            self.state.next_pc = self.state.pc.wrapping_add((i32::from(offset) << 2) as u32);
        }
    }

    fn execute(
        &mut self,
        inst: Instruction,
        pc: u32,
        sink: &mut impl TraceSink,
    ) -> Result<(), EmuError> {
        match inst {
            Instruction::RAlu { op, rd, rs, rt } => {
                let a = self.reg(rs);
                let b = self.reg(rt);
                let value = match op {
                    AluOp::Add => match (a as i32).checked_add(b as i32) {
                        Some(v) => v as u32,
                        None => return Err(EmuError::ArithmeticOverflow { pc }),
                    },
                    AluOp::Addu => a.wrapping_add(b),
                    AluOp::Sub => match (a as i32).checked_sub(b as i32) {
                        Some(v) => v as u32,
                        None => return Err(EmuError::ArithmeticOverflow { pc }),
                    },
                    AluOp::Subu => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Nor => !(a | b),
                    AluOp::Slt => u32::from((a as i32) < (b as i32)),
                    AluOp::Sltu => u32::from(a < b),
                };
                self.set_reg(rd, value);
            }
            Instruction::Shift { op, rd, rt, shamt } => {
                let v = self.reg(rt);
                let s = u32::from(shamt);
                let value = match op {
                    ShiftOp::Sll => v << s,
                    ShiftOp::Srl => v >> s,
                    ShiftOp::Sra => ((v as i32) >> s) as u32,
                };
                self.set_reg(rd, value);
            }
            Instruction::ShiftV { op, rd, rt, rs } => {
                let v = self.reg(rt);
                let s = self.reg(rs) & 0x1F;
                let value = match op {
                    ShiftOp::Sll => v << s,
                    ShiftOp::Srl => v >> s,
                    ShiftOp::Sra => ((v as i32) >> s) as u32,
                };
                self.set_reg(rd, value);
            }
            Instruction::MultDiv { op, rs, rt } => {
                let a = self.reg(rs);
                let b = self.reg(rt);
                match op {
                    MultDivOp::Mult => {
                        let p = i64::from(a as i32) * i64::from(b as i32);
                        self.state.lo = p as u32;
                        self.state.hi = (p >> 32) as u32;
                    }
                    MultDivOp::Multu => {
                        let p = u64::from(a) * u64::from(b);
                        self.state.lo = p as u32;
                        self.state.hi = (p >> 32) as u32;
                    }
                    MultDivOp::Div => {
                        if b == 0 {
                            return Err(EmuError::DivideByZero { pc });
                        }
                        let (a, b) = (a as i32, b as i32);
                        self.state.lo = a.wrapping_div(b) as u32;
                        self.state.hi = a.wrapping_rem(b) as u32;
                    }
                    MultDivOp::Divu => {
                        if b == 0 {
                            return Err(EmuError::DivideByZero { pc });
                        }
                        self.state.lo = a / b;
                        self.state.hi = a % b;
                    }
                }
            }
            Instruction::HiLo { op, reg } => match op {
                HiLoOp::Mfhi => self.set_reg(reg, self.state.hi),
                HiLoOp::Mflo => self.set_reg(reg, self.state.lo),
                HiLoOp::Mthi => self.state.hi = self.reg(reg),
                HiLoOp::Mtlo => self.state.lo = self.reg(reg),
            },
            Instruction::Jr { rs } => self.state.next_pc = self.reg(rs),
            Instruction::Jalr { rd, rs } => {
                let target = self.reg(rs);
                self.set_reg(rd, self.state.next_pc);
                self.state.next_pc = target;
            }
            Instruction::Syscall { .. } => self.syscall(pc, sink)?,
            Instruction::Break { code } => return Err(EmuError::BreakTrap { pc, code }),
            Instruction::IAlu { op, rt, rs, imm } => {
                let a = self.reg(rs);
                let se = imm as i16 as i32 as u32;
                let ze = u32::from(imm);
                let value = match op {
                    IAluOp::Addi => match (a as i32).checked_add(se as i32) {
                        Some(v) => v as u32,
                        None => return Err(EmuError::ArithmeticOverflow { pc }),
                    },
                    IAluOp::Addiu => a.wrapping_add(se),
                    IAluOp::Slti => u32::from((a as i32) < (se as i32)),
                    IAluOp::Sltiu => u32::from(a < se),
                    IAluOp::Andi => a & ze,
                    IAluOp::Ori => a | ze,
                    IAluOp::Xori => a ^ ze,
                };
                self.set_reg(rt, value);
            }
            Instruction::Lui { rt, imm } => self.set_reg(rt, u32::from(imm) << 16),
            Instruction::Branch { op, rs, rt, offset } => {
                let taken = match op {
                    BranchOp::Beq => self.reg(rs) == self.reg(rt),
                    BranchOp::Bne => self.reg(rs) != self.reg(rt),
                };
                self.branch(taken, offset);
            }
            Instruction::BranchZ { op, rs, offset } => {
                let v = self.reg(rs) as i32;
                let taken = match op {
                    BranchZOp::Blez => v <= 0,
                    BranchZOp::Bgtz => v > 0,
                    BranchZOp::Bltz | BranchZOp::Bltzal => v < 0,
                    BranchZOp::Bgez | BranchZOp::Bgezal => v >= 0,
                };
                if op.links() {
                    self.set_reg(Reg::RA, self.state.next_pc);
                }
                self.branch(taken, offset);
            }
            Instruction::Jump { link, target } => {
                if link {
                    self.set_reg(Reg::RA, self.state.next_pc);
                }
                self.state.next_pc = (self.state.next_pc & 0xF000_0000) | (target << 2);
            }
            Instruction::Mem {
                op,
                rt,
                base,
                offset,
            } => {
                self.data_op(op, rt, base, offset, pc, sink)?;
            }
            Instruction::FpMem {
                store,
                ft,
                base,
                offset,
            } => {
                let addr = self.load_addr(base, offset, 4, pc, sink, store)?;
                if store {
                    self.state.mem.write_u32(addr, self.fp_bits(ft));
                } else {
                    let v = self.read_u32(addr, pc)?;
                    self.state.fpr[ft.number() as usize] = v;
                }
            }
            Instruction::Cp1Move { op, rt, fs } => match op {
                Cp1MoveOp::Mfc1 => self.set_reg(rt, self.fp_bits(fs)),
                Cp1MoveOp::Mtc1 => self.state.fpr[fs.number() as usize] = self.reg(rt),
                // Control register moves: only the condition bit of FCR31
                // is modeled.
                Cp1MoveOp::Cfc1 => self.set_reg(rt, u32::from(self.state.fp_cond) << 23),
                Cp1MoveOp::Ctc1 => self.state.fp_cond = self.reg(rt) & (1 << 23) != 0,
            },
            Instruction::FpArith {
                op,
                fmt,
                fd,
                fs,
                ft,
            } => match fmt {
                FpFmt::Single => {
                    let a = self.fp_single(fs);
                    let b = self.fp_single(ft);
                    let v = match op {
                        FpOp::Add => a + b,
                        FpOp::Sub => a - b,
                        FpOp::Mul => a * b,
                        FpOp::Div => a / b,
                    };
                    self.state.fpr[fd.number() as usize] = v.to_bits();
                }
                FpFmt::Double => {
                    let a = self.fp_double(fs);
                    let b = self.fp_double(ft);
                    let v = match op {
                        FpOp::Add => a + b,
                        FpOp::Sub => a - b,
                        FpOp::Mul => a * b,
                        FpOp::Div => a / b,
                    };
                    self.set_fp_double(fd, v);
                }
                // panic-ok: the decoder never emits word-format FP arithmetic.
                FpFmt::Word => unreachable!("decoder rejects word-format arithmetic"),
            },
            Instruction::FpUnary { op, fmt, fd, fs } => match fmt {
                FpFmt::Single => {
                    let a = self.fp_single(fs);
                    let v = match op {
                        FpUnaryOp::Abs => a.abs(),
                        FpUnaryOp::Neg => -a,
                        FpUnaryOp::Mov => a,
                    };
                    self.state.fpr[fd.number() as usize] = v.to_bits();
                }
                FpFmt::Double => {
                    let a = self.fp_double(fs);
                    let v = match op {
                        FpUnaryOp::Abs => a.abs(),
                        FpUnaryOp::Neg => -a,
                        FpUnaryOp::Mov => a,
                    };
                    self.set_fp_double(fd, v);
                }
                // panic-ok: the decoder never emits word-format unary ops.
                FpFmt::Word => unreachable!("decoder rejects word-format unary ops"),
            },
            Instruction::FpCvt { to, from, fd, fs } => {
                // cvt.w truncates toward zero, matching C casts (compilers
                // programmed the FCSR rounding mode accordingly).
                match (to, from) {
                    (FpFmt::Single, FpFmt::Double) => {
                        let v = self.fp_double(fs) as f32;
                        self.state.fpr[fd.number() as usize] = v.to_bits();
                    }
                    (FpFmt::Single, FpFmt::Word) => {
                        let v = self.fp_bits(fs) as i32 as f32;
                        self.state.fpr[fd.number() as usize] = v.to_bits();
                    }
                    (FpFmt::Double, FpFmt::Single) => {
                        let v = f64::from(self.fp_single(fs));
                        self.set_fp_double(fd, v);
                    }
                    (FpFmt::Double, FpFmt::Word) => {
                        let v = f64::from(self.fp_bits(fs) as i32);
                        self.set_fp_double(fd, v);
                    }
                    (FpFmt::Word, FpFmt::Single) => {
                        let v = self.fp_single(fs).trunc() as i32;
                        self.state.fpr[fd.number() as usize] = v as u32;
                    }
                    (FpFmt::Word, FpFmt::Double) => {
                        let v = self.fp_double(fs).trunc() as i32;
                        self.state.fpr[fd.number() as usize] = v as u32;
                    }
                    // panic-ok: the decoder never emits same-format conversions.
                    _ => unreachable!("decoder rejects same-format conversions"),
                }
            }
            Instruction::FpCmp { cond, fmt, fs, ft } => {
                let result = match fmt {
                    FpFmt::Single => {
                        let (a, b) = (self.fp_single(fs), self.fp_single(ft));
                        match cond {
                            FpCond::Eq => a == b,
                            FpCond::Lt => a < b,
                            FpCond::Le => a <= b,
                        }
                    }
                    FpFmt::Double => {
                        let (a, b) = (self.fp_double(fs), self.fp_double(ft));
                        match cond {
                            FpCond::Eq => a == b,
                            FpCond::Lt => a < b,
                            FpCond::Le => a <= b,
                        }
                    }
                    // panic-ok: the decoder never emits word-format compares.
                    FpFmt::Word => unreachable!("decoder rejects word-format compares"),
                };
                self.state.fp_cond = result;
            }
            Instruction::Bc1 { on_true, offset } => {
                self.branch(self.state.fp_cond == on_true, offset);
            }
        }
        Ok(())
    }

    fn data_op(
        &mut self,
        op: MemOp,
        rt: Reg,
        base: Reg,
        offset: i16,
        pc: u32,
        sink: &mut impl TraceSink,
    ) -> Result<(), EmuError> {
        let align = match op {
            MemOp::Lw | MemOp::Sw => 4,
            MemOp::Lh | MemOp::Lhu | MemOp::Sh => 2,
            _ => 1,
        };
        let store = op.is_store();
        let addr = self.load_addr(base, offset, align, pc, sink, store)?;
        match op {
            MemOp::Lb => {
                let v = self
                    .state
                    .mem
                    .read_u8(addr)
                    .ok_or(EmuError::UnmappedRead { addr, pc })?;
                self.set_reg(rt, v as i8 as i32 as u32);
            }
            MemOp::Lbu => {
                let v = self
                    .state
                    .mem
                    .read_u8(addr)
                    .ok_or(EmuError::UnmappedRead { addr, pc })?;
                self.set_reg(rt, u32::from(v));
            }
            MemOp::Lh => {
                let v = self
                    .state
                    .mem
                    .read_u16(addr)
                    .ok_or(EmuError::UnmappedRead { addr, pc })?;
                self.set_reg(rt, v as i16 as i32 as u32);
            }
            MemOp::Lhu => {
                let v = self
                    .state
                    .mem
                    .read_u16(addr)
                    .ok_or(EmuError::UnmappedRead { addr, pc })?;
                self.set_reg(rt, u32::from(v));
            }
            MemOp::Lw => {
                let v = self.read_u32(addr, pc)?;
                self.set_reg(rt, v);
            }
            MemOp::Sb => self.state.mem.write_u8(addr, self.reg(rt) as u8),
            MemOp::Sh => self.state.mem.write_u16(addr, self.reg(rt) as u16),
            MemOp::Sw => self.state.mem.write_u32(addr, self.reg(rt)),
            // Little-endian LWL/LWR/SWL/SWR (unaligned access pairs).
            MemOp::Lwl => {
                let m = (addr & 3) + 1; // bytes loaded into the TOP of rt
                let mut v = self.reg(rt);
                for i in 0..m {
                    let b = self
                        .state
                        .mem
                        .read_u8(addr - m + 1 + i)
                        .ok_or(EmuError::UnmappedRead { addr, pc })?;
                    let byte_pos = 4 - m + i;
                    v = (v & !(0xFF << (8 * byte_pos))) | (u32::from(b) << (8 * byte_pos));
                }
                self.set_reg(rt, v);
            }
            MemOp::Lwr => {
                let k = 4 - (addr & 3); // bytes loaded into the BOTTOM of rt
                let mut v = self.reg(rt);
                for i in 0..k {
                    let b = self
                        .state
                        .mem
                        .read_u8(addr + i)
                        .ok_or(EmuError::UnmappedRead { addr, pc })?;
                    v = (v & !(0xFF << (8 * i))) | (u32::from(b) << (8 * i));
                }
                self.set_reg(rt, v);
            }
            MemOp::Swl => {
                let m = (addr & 3) + 1;
                let v = self.reg(rt);
                for i in 0..m {
                    let byte = (v >> (8 * (4 - m + i))) as u8;
                    self.state.mem.write_u8(addr - m + 1 + i, byte);
                }
            }
            MemOp::Swr => {
                let k = 4 - (addr & 3);
                let v = self.reg(rt);
                for i in 0..k {
                    self.state.mem.write_u8(addr + i, (v >> (8 * i)) as u8);
                }
            }
        }
        Ok(())
    }

    /// SPIM-compatible system services.
    fn syscall(&mut self, pc: u32, sink: &mut impl TraceSink) -> Result<(), EmuError> {
        use std::fmt::Write as _;
        let number = self.reg(Reg::V0);
        let a0 = self.reg(Reg::A0);
        match number {
            1 => {
                // panic-ok: fmt::Write to a String is infallible.
                write!(self.state.output, "{}", a0 as i32).expect("write to String cannot fail");
            }
            2 => {
                // panic-ok: 12 < 32, and fmt::Write to a String is infallible.
                let v = self.fp_single(FpReg::new(12).expect("f12 in range"));
                // panic-ok: fmt::Write to a String is infallible.
                write!(self.state.output, "{v}").expect("write to String cannot fail");
            }
            3 => {
                // panic-ok: 12 < 32, and fmt::Write to a String is infallible.
                let v = self.fp_double(FpReg::new(12).expect("f12 in range"));
                // panic-ok: fmt::Write to a String is infallible.
                write!(self.state.output, "{v}").expect("write to String cannot fail");
            }
            4 => {
                let mut addr = a0;
                loop {
                    let b = self
                        .state
                        .mem
                        .read_u8(addr)
                        .ok_or(EmuError::UnmappedRead { addr, pc })?;
                    sink.data_access(addr, false);
                    if b == 0 {
                        break;
                    }
                    self.state.output.push(b as char);
                    addr = addr.wrapping_add(1);
                }
            }
            5 => {
                let v = self.state.input.pop_front().unwrap_or(0);
                self.set_reg(Reg::V0, v as u32);
            }
            9 => {
                // The heap may grow up to, but not into, the stack's
                // page: a request whose break would wrap past 2^32 or
                // extend into that page is refused with -1 and maps
                // nothing, so no single step maps unbounded memory.
                let old = self.state.brk;
                let stack_page = INITIAL_SP & !0xFFF;
                match old.checked_add(a0) {
                    Some(brk) if brk <= stack_page || a0 == 0 => {
                        self.state.brk = brk;
                        // Touch the region so subsequent reads are mapped.
                        let mut a = old & !0xFFF;
                        while a < brk {
                            self.state.mem.write_u8(a, 0);
                            a = a.saturating_add(0x1000);
                        }
                        self.set_reg(Reg::V0, old);
                    }
                    _ => self.set_reg(Reg::V0, -1i32 as u32),
                }
            }
            10 => self.state.exit = Some(0),
            11 => self.state.output.push((a0 & 0xFF) as u8 as char),
            17 => self.state.exit = Some(a0 as i32),
            other => return Err(EmuError::UnknownSyscall { pc, number: other }),
        }
        Ok(())
    }
}
