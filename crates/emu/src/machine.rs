use std::collections::VecDeque;

use ccrp::{crc32, CompressedImage, DegradePolicy, StepBudget};
use ccrp_asm::ProgramImage;
use ccrp_isa::{FpReg, Reg};

use crate::error::EmuError;
use crate::memory::Memory;
use crate::op::Op;
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
/// slots of `decoded`, the machine's decoded text.
///
/// # Errors
///
/// The line's first address, when the line does not expand.
pub(crate) fn expand_rom_line(
    rom: &CompressedImage,
    line: usize,
    decoded: &mut [Op],
) -> Result<(), u32> {
    let line_addr = rom.text_base() + line as u32 * 32;
    let mut bytes = [0u8; 32];
    rom.expand_line_into(line_addr, &mut bytes)
        .map_err(|_| line_addr)?;
    let words = bytes
        .chunks_exact(4)
        .map(|w| Op::decode(u32::from_le_bytes([w[0], w[1], w[2], w[3]])));
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
    /// The decoded text segment, one [`Op`] per word. Data words (jump
    /// tables), invalid encodings and words of a ROM line not yet
    /// expanded are [`Op::Undecoded`], so any other entry needs no ROM
    /// check when fetched. Derived state: rebuilt from memory / the ROM
    /// on restore, never serialized.
    pub(crate) decoded: Vec<Op>,
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
        let decoded = image.text_words().map(Op::decode).collect();
        Self::load(image, config, decoded)
    }

    /// Builds a machine loaded with `image` whose fetches read
    /// `decoded`, the decoded text.
    fn load(image: &ProgramImage, config: MachineConfig, decoded: Vec<Op>) -> Self {
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
    /// instruction ROM instead of the decoded program text. Data
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
            vec![Op::Undecoded; (rom.original_bytes() / 4) as usize],
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
        // An unlimited budget without a cancellation flag never trips,
        // and nothing reads what it was charged: the run charges none.
        self.run_until(sink, None)
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
        self.run_until(sink, Some(budget))
    }

    /// The run loop of [`run`](Self::run) and
    /// [`run_budgeted`](Self::run_budgeted). It ends in the state
    /// [`step`](Self::step) would leave: each instruction checks the
    /// step limit, then charges the budget, then executes, so a fault, a
    /// limit trip or a budget trip lands at the same step either way.
    #[inline(always)]
    fn run_until(
        &mut self,
        sink: &mut impl TraceSink,
        mut budget: Option<&mut StepBudget>,
    ) -> Result<RunSummary, EmuError> {
        let limit = self.config.max_steps;
        // The PC pair and the step count live in locals; they are
        // written back before every slow path (a syscall, `fetch_slow`)
        // and when the run ends, fault or not.
        let mut pc = self.state.pc;
        let mut next_pc = self.state.next_pc;
        let mut steps = self.state.steps;
        let outcome = loop {
            if let Some(code) = self.state.exit {
                break Ok(code);
            }
            if steps >= limit {
                break Err(EmuError::StepLimitExceeded { limit });
            }
            if let Some(budget) = budget.as_deref_mut() {
                if let Err(exhausted) = budget.charge(1) {
                    break Err(EmuError::BudgetExhausted {
                        steps,
                        cancelled: exhausted.cancelled,
                    });
                }
            }
            let mut op = self.decoded_at(pc);
            if matches!(op, Op::Undecoded) {
                self.state.pc = pc;
                self.state.next_pc = next_pc;
                self.state.steps = steps;
                op = match self.fetch_slow(pc) {
                    Ok(op) => op,
                    Err(fault) => break Err(fault),
                };
            }
            sink.instruction(pc);
            steps += 1;
            let fetched = pc;
            pc = next_pc;
            next_pc = pc.wrapping_add(4);
            if matches!(op, Op::Syscall) {
                self.state.pc = pc;
                self.state.next_pc = next_pc;
                self.state.steps = steps;
            }
            match self.execute(op, fetched, pc, sink) {
                Ok(next) => next_pc = next,
                Err(fault) => break Err(fault),
            }
        };
        self.state.pc = pc;
        self.state.next_pc = next_pc;
        self.state.steps = steps;
        outcome.map(|exit_code| RunSummary {
            instructions: steps,
            exit_code,
        })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`EmuError`] fault raised by the instruction.
    pub fn step(&mut self, sink: &mut impl TraceSink) -> Result<(), EmuError> {
        let pc = self.state.pc;
        let mut op = self.decoded_at(pc);
        if matches!(op, Op::Undecoded) {
            op = self.fetch_slow(pc)?;
        }
        sink.instruction(pc);
        self.state.steps += 1;
        let delay = self.state.next_pc;
        self.state.pc = delay;
        // A fault leaves the fall-through successor in place.
        self.state.next_pc = delay.wrapping_add(4);
        self.state.next_pc = self.execute(op, pc, delay, sink)?;
        Ok(())
    }

    /// The decoded op at `pc`: one bounds-checked index, which a ROM
    /// line fills only once expanded. [`Op::Undecoded`] for everything
    /// that needs [`fetch_slow`](Self::fetch_slow) — a PC outside the
    /// text or misaligned, demand expansion, a word that does not
    /// decode. A PC below the text base wraps to an index past the end.
    #[inline(always)]
    fn decoded_at(&self, pc: u32) -> Op {
        if pc.is_multiple_of(4) {
            let index = (pc.wrapping_sub(self.text_base) / 4) as usize;
            if let Some(&op) = self.decoded.get(index) {
                return op;
            }
        }
        Op::Undecoded
    }

    /// The fetch path for a `pc` with no decoded op: a bad address, a
    /// ROM line not yet expanded, or a word that does not decode.
    #[cold]
    #[inline(never)]
    fn fetch_slow(&mut self, pc: u32) -> Result<Op, EmuError> {
        if !pc.is_multiple_of(4) || pc < self.text_base {
            return Err(EmuError::BadFetch { pc });
        }
        self.ensure_line_expanded(pc)?;
        let index = ((pc - self.text_base) / 4) as usize;
        match self.decoded.get(index) {
            Some(Op::Undecoded) => Err(self.illegal(pc)),
            Some(&op) => Ok(op),
            None => Err(EmuError::BadFetch { pc }),
        }
    }

    /// The fault for executing the word at `pc`, which does not decode.
    fn illegal(&self, pc: u32) -> EmuError {
        let word = self.state.mem.read_u32(pc).unwrap_or(0);
        EmuError::IllegalInstruction { pc, word }
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

    /// General-purpose register `n` (taken mod 32).
    #[inline(always)]
    fn gpr(&self, n: u8) -> u32 {
        self.state.regs[usize::from(n & 31)]
    }

    /// Writes general-purpose register `n` (taken mod 32); `$zero`
    /// stays zero.
    #[inline(always)]
    fn set_gpr(&mut self, n: u8, value: u32) {
        self.state.regs[usize::from(n & 31)] = value;
        self.state.regs[0] = 0;
    }

    /// The single-precision value in FP register `n`.
    #[inline(always)]
    fn single(&self, n: u8) -> f32 {
        f32::from_bits(self.state.fpr[usize::from(n & 31)])
    }

    #[inline(always)]
    fn set_single(&mut self, n: u8, value: f32) {
        self.state.fpr[usize::from(n & 31)] = value.to_bits();
    }

    /// The double in the even/odd pair holding FP register `n` (see
    /// [`fp_double`](Self::fp_double)).
    #[inline(always)]
    fn double(&self, n: u8) -> f64 {
        let n = usize::from(n & 30);
        let lo = u64::from(self.state.fpr[n]);
        let hi = u64::from(self.state.fpr[n + 1]);
        f64::from_bits((hi << 32) | lo)
    }

    #[inline(always)]
    fn set_double(&mut self, n: u8, value: f64) {
        let n = usize::from(n & 30);
        let bits = value.to_bits();
        self.state.fpr[n] = bits as u32;
        self.state.fpr[n + 1] = (bits >> 32) as u32;
    }

    /// The effective address of a data access: checked for alignment,
    /// then reported to `sink` before the access itself can fault.
    #[inline(always)]
    fn data_addr(
        &self,
        base: u8,
        offset: u32,
        align: u32,
        pc: u32,
        sink: &mut impl TraceSink,
        store: bool,
    ) -> Result<u32, EmuError> {
        let addr = self.gpr(base).wrapping_add(offset);
        if addr & (align - 1) != 0 {
            return Err(EmuError::UnalignedAccess { addr, align, pc });
        }
        sink.data_access(addr, store);
        Ok(addr)
    }

    #[inline(always)]
    fn load_u8(&self, addr: u32, pc: u32) -> Result<u8, EmuError> {
        self.state
            .mem
            .read_u8(addr)
            .ok_or(EmuError::UnmappedRead { addr, pc })
    }

    #[inline(always)]
    fn load_u16(&self, addr: u32, pc: u32) -> Result<u16, EmuError> {
        self.state
            .mem
            .read_u16(addr)
            .ok_or(EmuError::UnmappedRead { addr, pc })
    }

    #[inline(always)]
    fn load_u32(&self, addr: u32, pc: u32) -> Result<u32, EmuError> {
        self.state
            .mem
            .read_u32(addr)
            .ok_or(EmuError::UnmappedRead { addr, pc })
    }

    /// Executes `op`, fetched at `pc`, whose delay slot is at `delay`,
    /// and returns the address of the instruction after the delay
    /// slot: `delay + 4`, or a taken branch's or a jump's target. The
    /// one execute both [`step`](Self::step) and
    /// [`run_budgeted`](Self::run_budgeted) inline.
    #[inline(always)]
    fn execute(
        &mut self,
        op: Op,
        pc: u32,
        delay: u32,
        sink: &mut impl TraceSink,
    ) -> Result<u32, EmuError> {
        let fall = delay.wrapping_add(4);
        match op {
            Op::Undecoded => return Err(self.illegal(pc)),
            Op::Add { rd, rs, rt } => {
                match (self.gpr(rs) as i32).checked_add(self.gpr(rt) as i32) {
                    Some(v) => self.set_gpr(rd, v as u32),
                    None => return Err(EmuError::ArithmeticOverflow { pc }),
                }
            }
            Op::Addu { rd, rs, rt } => self.set_gpr(rd, self.gpr(rs).wrapping_add(self.gpr(rt))),
            Op::Sub { rd, rs, rt } => {
                match (self.gpr(rs) as i32).checked_sub(self.gpr(rt) as i32) {
                    Some(v) => self.set_gpr(rd, v as u32),
                    None => return Err(EmuError::ArithmeticOverflow { pc }),
                }
            }
            Op::Subu { rd, rs, rt } => self.set_gpr(rd, self.gpr(rs).wrapping_sub(self.gpr(rt))),
            Op::And { rd, rs, rt } => self.set_gpr(rd, self.gpr(rs) & self.gpr(rt)),
            Op::Or { rd, rs, rt } => self.set_gpr(rd, self.gpr(rs) | self.gpr(rt)),
            Op::Xor { rd, rs, rt } => self.set_gpr(rd, self.gpr(rs) ^ self.gpr(rt)),
            Op::Nor { rd, rs, rt } => self.set_gpr(rd, !(self.gpr(rs) | self.gpr(rt))),
            Op::Slt { rd, rs, rt } => {
                self.set_gpr(rd, u32::from((self.gpr(rs) as i32) < (self.gpr(rt) as i32)));
            }
            Op::Sltu { rd, rs, rt } => self.set_gpr(rd, u32::from(self.gpr(rs) < self.gpr(rt))),
            Op::Sll { rd, rt, shamt } => self.set_gpr(rd, self.gpr(rt) << (shamt & 31)),
            Op::Srl { rd, rt, shamt } => self.set_gpr(rd, self.gpr(rt) >> (shamt & 31)),
            Op::Sra { rd, rt, shamt } => {
                self.set_gpr(rd, ((self.gpr(rt) as i32) >> (shamt & 31)) as u32);
            }
            Op::Sllv { rd, rt, rs } => self.set_gpr(rd, self.gpr(rt) << (self.gpr(rs) & 31)),
            Op::Srlv { rd, rt, rs } => self.set_gpr(rd, self.gpr(rt) >> (self.gpr(rs) & 31)),
            Op::Srav { rd, rt, rs } => {
                self.set_gpr(rd, ((self.gpr(rt) as i32) >> (self.gpr(rs) & 31)) as u32);
            }
            Op::Mult { rs, rt } => {
                let p = i64::from(self.gpr(rs) as i32) * i64::from(self.gpr(rt) as i32);
                self.state.lo = p as u32;
                self.state.hi = (p >> 32) as u32;
            }
            Op::Multu { rs, rt } => {
                let p = u64::from(self.gpr(rs)) * u64::from(self.gpr(rt));
                self.state.lo = p as u32;
                self.state.hi = (p >> 32) as u32;
            }
            Op::Div { rs, rt } => {
                let (a, b) = (self.gpr(rs) as i32, self.gpr(rt) as i32);
                if b == 0 {
                    return Err(EmuError::DivideByZero { pc });
                }
                self.state.lo = a.wrapping_div(b) as u32;
                self.state.hi = a.wrapping_rem(b) as u32;
            }
            Op::Divu { rs, rt } => {
                let (a, b) = (self.gpr(rs), self.gpr(rt));
                if b == 0 {
                    return Err(EmuError::DivideByZero { pc });
                }
                self.state.lo = a / b;
                self.state.hi = a % b;
            }
            Op::Mfhi { rd } => self.set_gpr(rd, self.state.hi),
            Op::Mthi { rs } => self.state.hi = self.gpr(rs),
            Op::Mflo { rd } => self.set_gpr(rd, self.state.lo),
            Op::Mtlo { rs } => self.state.lo = self.gpr(rs),
            Op::Jr { rs } => return Ok(self.gpr(rs)),
            Op::Jalr { rd, rs } => {
                let target = self.gpr(rs);
                self.set_gpr(rd, fall);
                return Ok(target);
            }
            Op::Syscall => self.syscall(pc, sink)?,
            Op::Break { code } => return Err(EmuError::BreakTrap { pc, code }),
            Op::Addi { rt, rs, imm } => match (self.gpr(rs) as i32).checked_add(imm as i32) {
                Some(v) => self.set_gpr(rt, v as u32),
                None => return Err(EmuError::ArithmeticOverflow { pc }),
            },
            Op::Addiu { rt, rs, imm } => self.set_gpr(rt, self.gpr(rs).wrapping_add(imm)),
            Op::Slti { rt, rs, imm } => {
                self.set_gpr(rt, u32::from((self.gpr(rs) as i32) < (imm as i32)));
            }
            Op::Sltiu { rt, rs, imm } => self.set_gpr(rt, u32::from(self.gpr(rs) < imm)),
            Op::Andi { rt, rs, imm } => self.set_gpr(rt, self.gpr(rs) & imm),
            Op::Ori { rt, rs, imm } => self.set_gpr(rt, self.gpr(rs) | imm),
            Op::Xori { rt, rs, imm } => self.set_gpr(rt, self.gpr(rs) ^ imm),
            Op::Lui { rt, value } => self.set_gpr(rt, value),
            Op::Beq { rs, rt, offset } => {
                if self.gpr(rs) == self.gpr(rt) {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bne { rs, rt, offset } => {
                if self.gpr(rs) != self.gpr(rt) {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Blez { rs, offset } => {
                if self.gpr(rs) as i32 <= 0 {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bgtz { rs, offset } => {
                if self.gpr(rs) as i32 > 0 {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bltz { rs, offset } => {
                if (self.gpr(rs) as i32) < 0 {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bgez { rs, offset } => {
                if self.gpr(rs) as i32 >= 0 {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            // The linking forms read `rs` before writing `$ra`.
            Op::Bltzal { rs, offset } => {
                let taken = (self.gpr(rs) as i32) < 0;
                self.set_gpr(31, fall);
                if taken {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bgezal { rs, offset } => {
                let taken = self.gpr(rs) as i32 >= 0;
                self.set_gpr(31, fall);
                if taken {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::J { target } => return Ok((fall & 0xF000_0000) | target),
            Op::Jal { target } => {
                self.set_gpr(31, fall);
                return Ok((fall & 0xF000_0000) | target);
            }
            Op::Lb { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, false)?;
                let v = self.load_u8(addr, pc)?;
                self.set_gpr(rt, v as i8 as i32 as u32);
            }
            Op::Lbu { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, false)?;
                let v = self.load_u8(addr, pc)?;
                self.set_gpr(rt, u32::from(v));
            }
            Op::Lh { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 2, pc, sink, false)?;
                let v = self.load_u16(addr, pc)?;
                self.set_gpr(rt, v as i16 as i32 as u32);
            }
            Op::Lhu { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 2, pc, sink, false)?;
                let v = self.load_u16(addr, pc)?;
                self.set_gpr(rt, u32::from(v));
            }
            Op::Lw { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 4, pc, sink, false)?;
                let v = self.load_u32(addr, pc)?;
                self.set_gpr(rt, v);
            }
            // Little-endian LWL/LWR/SWL/SWR (unaligned access pairs).
            Op::Lwl { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, false)?;
                let m = (addr & 3) + 1; // bytes loaded into the TOP of rt
                let mut v = self.gpr(rt);
                for i in 0..m {
                    let b = self
                        .state
                        .mem
                        .read_u8(addr - m + 1 + i)
                        .ok_or(EmuError::UnmappedRead { addr, pc })?;
                    let byte_pos = 4 - m + i;
                    v = (v & !(0xFF << (8 * byte_pos))) | (u32::from(b) << (8 * byte_pos));
                }
                self.set_gpr(rt, v);
            }
            Op::Lwr { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, false)?;
                let k = 4 - (addr & 3); // bytes loaded into the BOTTOM of rt
                let mut v = self.gpr(rt);
                for i in 0..k {
                    let b = self
                        .state
                        .mem
                        .read_u8(addr + i)
                        .ok_or(EmuError::UnmappedRead { addr, pc })?;
                    v = (v & !(0xFF << (8 * i))) | (u32::from(b) << (8 * i));
                }
                self.set_gpr(rt, v);
            }
            Op::Sb { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, true)?;
                self.state.mem.write_u8(addr, self.gpr(rt) as u8);
            }
            Op::Sh { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 2, pc, sink, true)?;
                self.state.mem.write_u16(addr, self.gpr(rt) as u16);
            }
            Op::Sw { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 4, pc, sink, true)?;
                self.state.mem.write_u32(addr, self.gpr(rt));
            }
            Op::Swl { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, true)?;
                let m = (addr & 3) + 1;
                let v = self.gpr(rt);
                for i in 0..m {
                    let byte = (v >> (8 * (4 - m + i))) as u8;
                    self.state.mem.write_u8(addr - m + 1 + i, byte);
                }
            }
            Op::Swr { rt, base, offset } => {
                let addr = self.data_addr(base, offset, 1, pc, sink, true)?;
                let k = 4 - (addr & 3);
                let v = self.gpr(rt);
                for i in 0..k {
                    self.state.mem.write_u8(addr + i, (v >> (8 * i)) as u8);
                }
            }
            Op::Lwc1 { ft, base, offset } => {
                let addr = self.data_addr(base, offset, 4, pc, sink, false)?;
                self.state.fpr[usize::from(ft & 31)] = self.load_u32(addr, pc)?;
            }
            Op::Swc1 { ft, base, offset } => {
                let addr = self.data_addr(base, offset, 4, pc, sink, true)?;
                let bits = self.state.fpr[usize::from(ft & 31)];
                self.state.mem.write_u32(addr, bits);
            }
            Op::Mfc1 { rt, fs } => self.set_gpr(rt, self.state.fpr[usize::from(fs & 31)]),
            Op::Mtc1 { rt, fs } => self.state.fpr[usize::from(fs & 31)] = self.gpr(rt),
            // Control register moves: only the condition bit of FCR31 is
            // modeled.
            Op::Cfc1 { rt } => self.set_gpr(rt, u32::from(self.state.fp_cond) << 23),
            Op::Ctc1 { rt } => self.state.fp_cond = self.gpr(rt) & (1 << 23) != 0,
            Op::AddS { fd, fs, ft } => self.set_single(fd, self.single(fs) + self.single(ft)),
            Op::SubS { fd, fs, ft } => self.set_single(fd, self.single(fs) - self.single(ft)),
            Op::MulS { fd, fs, ft } => self.set_single(fd, self.single(fs) * self.single(ft)),
            Op::DivS { fd, fs, ft } => self.set_single(fd, self.single(fs) / self.single(ft)),
            Op::AddD { fd, fs, ft } => self.set_double(fd, self.double(fs) + self.double(ft)),
            Op::SubD { fd, fs, ft } => self.set_double(fd, self.double(fs) - self.double(ft)),
            Op::MulD { fd, fs, ft } => self.set_double(fd, self.double(fs) * self.double(ft)),
            Op::DivD { fd, fs, ft } => self.set_double(fd, self.double(fs) / self.double(ft)),
            Op::AbsS { fd, fs } => self.set_single(fd, self.single(fs).abs()),
            Op::NegS { fd, fs } => self.set_single(fd, -self.single(fs)),
            Op::MovS { fd, fs } => self.set_single(fd, self.single(fs)),
            Op::AbsD { fd, fs } => self.set_double(fd, self.double(fs).abs()),
            Op::NegD { fd, fs } => self.set_double(fd, -self.double(fs)),
            Op::MovD { fd, fs } => self.set_double(fd, self.double(fs)),
            // cvt.w truncates toward zero, matching C casts (compilers
            // programmed the FCSR rounding mode accordingly).
            Op::CvtSD { fd, fs } => self.set_single(fd, self.double(fs) as f32),
            Op::CvtSW { fd, fs } => {
                self.set_single(fd, self.state.fpr[usize::from(fs & 31)] as i32 as f32);
            }
            Op::CvtDS { fd, fs } => self.set_double(fd, f64::from(self.single(fs))),
            Op::CvtDW { fd, fs } => {
                self.set_double(fd, f64::from(self.state.fpr[usize::from(fs & 31)] as i32));
            }
            Op::CvtWS { fd, fs } => {
                self.state.fpr[usize::from(fd & 31)] = self.single(fs).trunc() as i32 as u32;
            }
            Op::CvtWD { fd, fs } => {
                self.state.fpr[usize::from(fd & 31)] = self.double(fs).trunc() as i32 as u32;
            }
            Op::CEqS { fs, ft } => self.state.fp_cond = self.single(fs) == self.single(ft),
            Op::CLtS { fs, ft } => self.state.fp_cond = self.single(fs) < self.single(ft),
            Op::CLeS { fs, ft } => self.state.fp_cond = self.single(fs) <= self.single(ft),
            Op::CEqD { fs, ft } => self.state.fp_cond = self.double(fs) == self.double(ft),
            Op::CLtD { fs, ft } => self.state.fp_cond = self.double(fs) < self.double(ft),
            Op::CLeD { fs, ft } => self.state.fp_cond = self.double(fs) <= self.double(ft),
            Op::Bc1t { offset } => {
                if self.state.fp_cond {
                    return Ok(delay.wrapping_add(offset));
                }
            }
            Op::Bc1f { offset } => {
                if !self.state.fp_cond {
                    return Ok(delay.wrapping_add(offset));
                }
            }
        }
        Ok(fall)
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
