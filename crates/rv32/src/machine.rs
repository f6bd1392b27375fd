//! Functional RV32IM(+C) emulator core with trace capture.
//!
//! The RV32 counterpart of `ccrp-emu`'s MIPS [`Machine`]: executes an
//! [`Rv32Image`] (either base-encoding or RVC text — the fetch path
//! expands 16-bit forms on the fly), records `(pc, data-access)`
//! streams through the shared [`TraceSink`] interface, and optionally
//! fetches from a CCRP [`CompressedImage`] ROM with demand-driven line
//! expansion — including instructions that straddle a 32-byte line
//! boundary, which cannot happen on MIPS but is routine with RVC.
//!
//! Environment calls follow the SPIM-style convention the MIPS side
//! uses, keyed on `a7`: 1 = print integer (`a0`), 11 = print character,
//! 10 = exit(0), 17 = exit with code (`a0`).
//!
//! [`Machine`]: ccrp_emu::Machine

use ccrp::CompressedImage;
use ccrp_emu::{IsaCore, Memory, TraceSink, INITIAL_SP};

use crate::instr::{AluImmOp, AluOp, BranchOp, LoadOp, MulOp, Rv32Instr, ShiftImmOp, StoreOp};
use crate::{decode32, rvc, Rv32Fault, Rv32Image, XReg};

/// Construction-time knobs, mirroring `ccrp-emu`'s `MachineConfig`.
/// The stack starts at [`INITIAL_SP`], as on MIPS.
#[derive(Debug, Clone)]
pub struct Rv32Config {
    /// Hard ceiling on retired instructions before [`Rv32Fault::StepLimit`].
    pub max_steps: u64,
}

impl Default for Rv32Config {
    fn default() -> Self {
        Self {
            max_steps: 200_000_000,
        }
    }
}

/// A compressed instruction ROM the fetch path expands on demand.
struct Rom {
    image: CompressedImage,
    /// Which 32-byte lines have been expanded into the text buffer.
    ready: Vec<bool>,
}

/// The RV32 emulator core. See the module docs.
pub struct Rv32Machine {
    regs: [u32; 32],
    pc: u32,
    mem: Memory,
    text: Vec<u8>,
    /// Decoded-instruction cache, one slot per halfword.
    decoded: Vec<Option<(Rv32Instr, u32)>>,
    rom: Option<Rom>,
    output: String,
    exit: Option<i32>,
    steps: u64,
    config: Rv32Config,
}

impl Rv32Machine {
    /// A machine executing `image` from plain (uncompressed) ROM.
    pub fn new(image: &Rv32Image) -> Self {
        Self::with_config(image, Rv32Config::default())
    }

    /// [`new`](Self::new) with explicit configuration.
    pub fn with_config(image: &Rv32Image, config: Rv32Config) -> Self {
        let text = image.text().to_vec();
        let mut machine = Self::empty(text.len(), config);
        machine.mem.load(0, &text);
        machine.text = text;
        machine
    }

    /// A machine fetching from the compressed ROM `rom`, which must
    /// compress exactly `image`'s text. Lines are expanded on first
    /// fetch; an expansion failure surfaces as [`Rv32Fault::RomFault`].
    ///
    /// # Errors
    ///
    /// A description of the mismatch when `rom` does not cover the
    /// image's text segment.
    pub fn with_compressed_text(
        image: &Rv32Image,
        rom: &CompressedImage,
        config: Rv32Config,
    ) -> Result<Self, String> {
        if rom.text_base() != image.text_base() {
            return Err(format!(
                "ROM text base {:#x} != image text base {:#x}",
                rom.text_base(),
                image.text_base()
            ));
        }
        // The CCRP builder pads text to whole 32-byte lines, so the ROM
        // may cover more than the image; it must never cover less.
        if rom.original_bytes() < image.text_size() {
            return Err(format!(
                "ROM covers {} bytes, image text is {} bytes",
                rom.original_bytes(),
                image.text_size()
            ));
        }
        let len = image.text().len();
        let mut machine = Self::empty(len, config);
        machine.text = vec![0; len];
        machine.rom = Some(Rom {
            image: rom.clone(),
            ready: vec![false; len.div_ceil(32)],
        });
        // Data reads of text go through `mem`, so preload the real
        // bytes there: CCRP compresses the fetch path, not the bus the
        // data side reads constants over.
        machine.mem.load(0, image.text());
        Ok(machine)
    }

    fn empty(text_len: usize, config: Rv32Config) -> Self {
        let mut regs = [0u32; 32];
        regs[XReg::SP.number() as usize] = INITIAL_SP;
        Self {
            regs,
            pc: 0,
            mem: Memory::new(),
            text: Vec::new(),
            decoded: vec![None; text_len.div_ceil(2)],
            rom: None,
            output: String::new(),
            exit: None,
            steps: 0,
            config,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Value of `reg`.
    pub fn reg(&self, reg: XReg) -> u32 {
        self.regs[reg.number() as usize]
    }

    /// Sets `reg` (writes to `zero` are discarded, as in hardware).
    pub fn set_reg(&mut self, reg: XReg, value: u32) {
        if reg != XReg::ZERO {
            self.regs[reg.number() as usize] = value;
        }
    }

    /// `Some(code)` once the program has exited.
    pub fn exit_code(&self) -> Option<i32> {
        self.exit
    }

    /// Retired-instruction count.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Console output so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The aligned memory word at `addr`, when mapped.
    pub fn read_word(&self, addr: u32) -> Option<u32> {
        self.mem.read_u32(addr)
    }

    /// Runs to exit (or fault), reporting events to `sink`.
    ///
    /// The run ends in the state [`step`](Self::step) would leave: each
    /// instruction checks the step limit before its fetch, so a fault or
    /// a limit trip lands at the same step either way.
    ///
    /// # Errors
    ///
    /// The first [`Rv32Fault`] raised, including [`Rv32Fault::StepLimit`]
    /// when `max_steps` run out.
    pub fn run(&mut self, sink: &mut impl TraceSink) -> Result<(), Rv32Fault> {
        let limit = self.config.max_steps;
        // The PC and the step count live in locals, written back when
        // the run ends, fault or not.
        let mut pc = self.pc;
        let mut steps = self.steps;
        let outcome = loop {
            if self.exit.is_some() {
                break Ok(());
            }
            if steps >= limit {
                break Err(Rv32Fault::StepLimit);
            }
            let (instr, len) = match self.decoded_at(pc) {
                Some(hit) => hit,
                None => match self.fetch_slow(pc) {
                    Ok(decoded) => decoded,
                    Err(fault) => break Err(fault),
                },
            };
            sink.instruction(pc);
            steps += 1;
            match self.execute(instr, len, pc, sink) {
                Ok(next) => pc = next,
                Err(fault) => break Err(fault),
            }
        };
        self.pc = pc;
        self.steps = steps;
        outcome
    }

    /// Ensures the 32-byte line holding text offset `off` is expanded.
    fn ensure_line(&mut self, off: usize) -> Result<(), Rv32Fault> {
        let Some(rom) = self.rom.as_mut() else {
            return Ok(());
        };
        let line = off / 32;
        if rom.ready[line] {
            return Ok(());
        }
        let mut buf = [0u8; 32];
        rom.image
            .expand_line_into(line as u32 * 32, &mut buf)
            .map_err(|_| Rv32Fault::RomFault { line: line as u32 })?;
        let start = line * 32;
        let end = (start + 32).min(self.text.len());
        self.text[start..end].copy_from_slice(&buf[..end - start]);
        rom.ready[line] = true;
        Ok(())
    }

    /// The decoded instruction at `pc` and its length, when an earlier
    /// fetch decoded it; `None` sends the fetch to
    /// [`fetch_slow`](Self::fetch_slow).
    #[inline(always)]
    fn decoded_at(&self, pc: u32) -> Option<(Rv32Instr, u32)> {
        if !pc.is_multiple_of(2) {
            return None;
        }
        self.decoded.get(pc as usize / 2).copied().flatten()
    }

    /// Fetches and decodes the instruction at `pc`, expanding its ROM
    /// lines on demand, and records it for later fetches.
    #[cold]
    #[inline(never)]
    fn fetch_slow(&mut self, pc: u32) -> Result<(Rv32Instr, u32), Rv32Fault> {
        let off = pc as usize;
        if !pc.is_multiple_of(2) || off + 2 > self.text.len() {
            return Err(Rv32Fault::BadFetch { pc });
        }
        self.ensure_line(off)?;
        let low = u16::from_le_bytes([self.text[off], self.text[off + 1]]);
        let decoded = if rvc::instr_bytes(low) == 4 {
            if off + 4 > self.text.len() {
                return Err(Rv32Fault::BadFetch { pc });
            }
            // A 32-bit instruction at offset 30 mod 32 straddles two
            // cache lines; both must be resident before decode.
            self.ensure_line(off + 2)?;
            let word = u32::from_le_bytes([
                self.text[off],
                self.text[off + 1],
                self.text[off + 2],
                self.text[off + 3],
            ]);
            let instr = decode32(word).map_err(|_| Rv32Fault::IllegalInstruction { pc, word })?;
            (instr, 4)
        } else {
            let word = rvc::expand(low).map_err(|_| Rv32Fault::IllegalInstruction {
                pc,
                word: u32::from(low),
            })?;
            let instr = decode32(word).map_err(|_| Rv32Fault::IllegalInstruction { pc, word })?;
            (instr, 2)
        };
        self.decoded[off / 2] = Some(decoded);
        Ok(decoded)
    }

    /// Executes one instruction, reporting events to `sink`.
    ///
    /// # Errors
    ///
    /// The fault that stopped the instruction; the machine state is the
    /// pre-instruction state except for the retired-step counter.
    pub fn step(&mut self, sink: &mut impl TraceSink) -> Result<(), Rv32Fault> {
        if self.exit.is_some() {
            return Err(Rv32Fault::Exited);
        }
        if self.steps >= self.config.max_steps {
            return Err(Rv32Fault::StepLimit);
        }
        let pc = self.pc;
        let (instr, len) = match self.decoded_at(pc) {
            Some(hit) => hit,
            None => self.fetch_slow(pc)?,
        };
        sink.instruction(pc);
        self.steps += 1;
        self.pc = self.execute(instr, len, pc, sink)?;
        Ok(())
    }

    /// Executes `instr`, `len` bytes long and fetched at `pc`, and
    /// returns the next PC. The one execute both [`step`](Self::step)
    /// and [`run`](Self::run) inline.
    #[inline(always)]
    fn execute(
        &mut self,
        instr: Rv32Instr,
        len: u32,
        pc: u32,
        sink: &mut impl TraceSink,
    ) -> Result<u32, Rv32Fault> {
        let mut next = pc.wrapping_add(len);
        match instr {
            Rv32Instr::Lui { rd, imm20 } => self.set_reg(rd, imm20 << 12),
            Rv32Instr::Auipc { rd, imm20 } => self.set_reg(rd, pc.wrapping_add(imm20 << 12)),
            Rv32Instr::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(len));
                next = pc.wrapping_add(offset as u32);
            }
            Rv32Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(len));
                next = target;
            }
            Rv32Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i32) < (b as i32),
                    BranchOp::Bge => (a as i32) >= (b as i32),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                if taken {
                    next = pc.wrapping_add(offset as u32);
                }
            }
            Rv32Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.load(pc, op, addr)?;
                sink.data_access(addr, false);
                self.set_reg(rd, value);
            }
            Rv32Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.reg(rs2);
                self.store(pc, op, addr, value)?;
                sink.data_access(addr, true);
            }
            Rv32Instr::AluImm { op, rd, rs1, imm } => {
                let a = self.reg(rs1);
                let b = imm as u32;
                let value = match op {
                    AluImmOp::Addi => a.wrapping_add(b),
                    AluImmOp::Slti => u32::from((a as i32) < imm),
                    AluImmOp::Sltiu => u32::from(a < b),
                    AluImmOp::Xori => a ^ b,
                    AluImmOp::Ori => a | b,
                    AluImmOp::Andi => a & b,
                };
                self.set_reg(rd, value);
            }
            Rv32Instr::ShiftImm { op, rd, rs1, shamt } => {
                let a = self.reg(rs1);
                let value = match op {
                    ShiftImmOp::Slli => a << shamt,
                    ShiftImmOp::Srli => a >> shamt,
                    ShiftImmOp::Srai => ((a as i32) >> shamt) as u32,
                };
                self.set_reg(rd, value);
            }
            Rv32Instr::Alu { op, rd, rs1, rs2 } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let value = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Sll => a << (b & 31),
                    AluOp::Slt => u32::from((a as i32) < (b as i32)),
                    AluOp::Sltu => u32::from(a < b),
                    AluOp::Xor => a ^ b,
                    AluOp::Srl => a >> (b & 31),
                    AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                };
                self.set_reg(rd, value);
            }
            Rv32Instr::Mul { op, rd, rs1, rs2 } => {
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let (sa, sb) = (a as i32, b as i32);
                let value = match op {
                    MulOp::Mul => a.wrapping_mul(b),
                    MulOp::Mulh => ((i64::from(sa) * i64::from(sb)) >> 32) as u32,
                    MulOp::Mulhsu => ((i64::from(sa) * i64::from(b)) >> 32) as u32,
                    MulOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
                    // RISC-V division never traps: the spec pins the
                    // divide-by-zero and overflow results.
                    MulOp::Div => match (sa, sb) {
                        (_, 0) => u32::MAX,
                        (i32::MIN, -1) => i32::MIN as u32,
                        _ => (sa / sb) as u32,
                    },
                    MulOp::Divu => match b {
                        0 => u32::MAX,
                        _ => a / b,
                    },
                    MulOp::Rem => match (sa, sb) {
                        (_, 0) => a,
                        (i32::MIN, -1) => 0,
                        _ => (sa % sb) as u32,
                    },
                    MulOp::Remu => match b {
                        0 => a,
                        _ => a % b,
                    },
                };
                self.set_reg(rd, value);
            }
            Rv32Instr::Ecall => self.ecall(pc)?,
            Rv32Instr::Ebreak => return Err(Rv32Fault::Breakpoint { pc }),
            Rv32Instr::Fence => {}
        }
        Ok(next)
    }

    #[inline]
    fn load(&mut self, pc: u32, op: LoadOp, addr: u32) -> Result<u32, Rv32Fault> {
        let unmapped = Rv32Fault::UnmappedLoad { pc, addr };
        let misaligned = Rv32Fault::MisalignedAccess { pc, addr };
        match op {
            LoadOp::Lb => self
                .mem
                .read_u8(addr)
                .map(|b| b as i8 as i32 as u32)
                .ok_or(unmapped),
            LoadOp::Lbu => self.mem.read_u8(addr).map(u32::from).ok_or(unmapped),
            LoadOp::Lh | LoadOp::Lhu => {
                if !addr.is_multiple_of(2) {
                    return Err(misaligned);
                }
                let half = self.mem.read_u16(addr).ok_or(unmapped)?;
                Ok(match op {
                    LoadOp::Lh => half as i16 as i32 as u32,
                    _ => u32::from(half),
                })
            }
            LoadOp::Lw => {
                if !addr.is_multiple_of(4) {
                    return Err(misaligned);
                }
                self.mem.read_u32(addr).ok_or(unmapped)
            }
        }
    }

    #[inline]
    fn store(&mut self, pc: u32, op: StoreOp, addr: u32, value: u32) -> Result<(), Rv32Fault> {
        match op {
            StoreOp::Sb => self.mem.write_u8(addr, value as u8),
            StoreOp::Sh => {
                if !addr.is_multiple_of(2) {
                    return Err(Rv32Fault::MisalignedAccess { pc, addr });
                }
                self.mem.write_u16(addr, value as u16);
            }
            StoreOp::Sw => {
                if !addr.is_multiple_of(4) {
                    return Err(Rv32Fault::MisalignedAccess { pc, addr });
                }
                self.mem.write_u32(addr, value);
            }
        }
        Ok(())
    }

    fn ecall(&mut self, pc: u32) -> Result<(), Rv32Fault> {
        let code = self.reg(XReg::A7);
        let a0 = self.reg(XReg::A0);
        match code {
            1 => self.output.push_str(&(a0 as i32).to_string()),
            11 => self.output.push((a0 as u8) as char),
            10 => self.exit = Some(0),
            17 => self.exit = Some(a0 as i32),
            _ => return Err(Rv32Fault::BadSyscall { pc, code }),
        }
        Ok(())
    }
}

impl IsaCore for Rv32Machine {
    const GPR_NAMES: [&'static str; 32] = crate::ABI_NAMES;

    type Fault = Rv32Fault;

    fn pc(&self) -> u32 {
        Rv32Machine::pc(self)
    }

    fn gprs(&self) -> &[u32; 32] {
        &self.regs
    }

    fn exit_code(&self) -> Option<i32> {
        Rv32Machine::exit_code(self)
    }

    fn steps(&self) -> u64 {
        Rv32Machine::steps(self)
    }

    fn output(&self) -> &str {
        Rv32Machine::output(self)
    }

    fn read_word(&self, addr: u32) -> Option<u32> {
        Rv32Machine::read_word(self, addr)
    }

    fn step_traced(&mut self, mut sink: &mut dyn TraceSink) -> Result<(), Self::Fault> {
        self.step(&mut sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Encoding, Rv32Asm};
    use ccrp_emu::NullSink;

    fn count_to_five(encoding: Encoding) -> Rv32Machine {
        let mut asm = Rv32Asm::new();
        let top = asm.label();
        asm.li(XReg::T0, 5);
        asm.li(XReg::T1, 0);
        asm.bind(top);
        asm.push(Rv32Instr::AluImm {
            op: AluImmOp::Addi,
            rd: XReg::T1,
            rs1: XReg::T1,
            imm: 1,
        });
        asm.push(Rv32Instr::AluImm {
            op: AluImmOp::Addi,
            rd: XReg::T0,
            rs1: XReg::T0,
            imm: -1,
        });
        asm.branch_to(BranchOp::Bne, XReg::T0, XReg::ZERO, top);
        asm.push(Rv32Instr::Alu {
            op: AluOp::Add,
            rd: XReg::A0,
            rs1: XReg::T1,
            rs2: XReg::ZERO,
        });
        asm.li(XReg::A7, 1);
        asm.push(Rv32Instr::Ecall);
        asm.li(XReg::A7, 10);
        asm.push(Rv32Instr::Ecall);
        let image = asm.assemble(encoding).unwrap();
        let mut machine = Rv32Machine::new(&image);
        machine.run(&mut NullSink).unwrap();
        machine
    }

    #[test]
    fn loops_print_and_exit_in_both_encodings() {
        for encoding in [Encoding::Rv32I, Encoding::Rv32C] {
            let machine = count_to_five(encoding);
            assert_eq!(machine.output(), "5");
            assert_eq!(machine.exit_code(), Some(0));
        }
    }

    #[test]
    fn division_edge_cases_follow_the_spec() {
        let cases = [
            (MulOp::Div, 7i32, 0i32, u32::MAX),
            (MulOp::Div, i32::MIN, -1, i32::MIN as u32),
            (MulOp::Rem, 7, 0, 7),
            (MulOp::Rem, i32::MIN, -1, 0),
            (MulOp::Divu, -1i32, 0, u32::MAX),
            (MulOp::Remu, 13, 0, 13),
        ];
        for (op, a, b, want) in cases {
            let mut asm = Rv32Asm::new();
            asm.li(XReg::T0, a);
            asm.li(XReg::T1, b);
            asm.push(Rv32Instr::Mul {
                op,
                rd: XReg::A0,
                rs1: XReg::T0,
                rs2: XReg::T1,
            });
            asm.li(XReg::A7, 17);
            asm.push(Rv32Instr::Ecall);
            let image = asm.assemble(Encoding::Rv32I).unwrap();
            let mut machine = Rv32Machine::new(&image);
            machine.run(&mut NullSink).unwrap();
            assert_eq!(machine.exit_code(), Some(want as i32), "{op:?} {a}/{b}");
        }
    }

    #[test]
    fn misaligned_and_unmapped_accesses_fault() {
        let mut asm = Rv32Asm::new();
        asm.li(XReg::T0, 0x0020_0001);
        asm.push(Rv32Instr::Load {
            op: LoadOp::Lw,
            rd: XReg::T1,
            rs1: XReg::T0,
            offset: 0,
        });
        let image = asm.assemble(Encoding::Rv32I).unwrap();
        let mut machine = Rv32Machine::new(&image);
        assert!(matches!(
            machine.run(&mut NullSink),
            Err(Rv32Fault::MisalignedAccess { .. })
        ));

        let mut asm = Rv32Asm::new();
        asm.li(XReg::T0, 0x0060_0000);
        asm.push(Rv32Instr::Load {
            op: LoadOp::Lw,
            rd: XReg::T1,
            rs1: XReg::T0,
            offset: 0,
        });
        let image = asm.assemble(Encoding::Rv32I).unwrap();
        let mut machine = Rv32Machine::new(&image);
        assert!(matches!(
            machine.run(&mut NullSink),
            Err(Rv32Fault::UnmappedLoad { .. })
        ));
    }
}
