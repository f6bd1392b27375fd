//! Seeded random RV32 program generator for the lockstep difftest.
//!
//! The RV32 counterpart of the MIPS `ProgGen` in `ccrp-difftest`:
//! emits valid, terminating programs as [`Rv32Asm`] item streams, so
//! one generated program assembles into *both* encodings
//! ([`Encoding::Rv32I`] and [`Encoding::Rv32C`]) of the same
//! instruction sequence. Invariants, enforced by construction:
//!
//! * **Termination** — control flow is forward-only except for counted
//!   loops whose counters (`s1`–`s3`, one per nesting depth, never
//!   touched by random instructions) strictly decrease to a
//!   `blt zero, counter` back-edge. A forward branch may jump *into* a
//!   loop body past its counter init, but the counters only ever hold
//!   values in `0..=8`, so every back-edge still runs out.
//! * **No faults** — loads and stores are confined to a scratch buffer
//!   the prologue fully initialises, with offsets aligned to the
//!   access width. RISC-V integer division never traps (`x/0` and the
//!   overflow corner have defined results), so `div`/`rem` need no
//!   guards at all — a pleasant contrast with the MIPS generator.
//! * **Encoding-independent state** — no `auipc` and no link-writing
//!   jumps, so no register ever holds a PC-derived value. The final
//!   architectural state of the RV32I and RV32C assemblies of one
//!   program is therefore identical even though their PCs differ
//!   mid-run, which is what the cross-encoding equivalence check in
//!   the difftest leans on.
//!
//! [`Encoding::Rv32I`]: crate::Encoding::Rv32I
//! [`Encoding::Rv32C`]: crate::Encoding::Rv32C

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instr::{AluImmOp, AluOp, BranchOp, LoadOp, MulOp, Rv32Instr, ShiftImmOp, StoreOp};
use crate::{Encoding, Label, Rv32Asm, Rv32Error, Rv32Image, XReg};

/// Base of the 256-byte scratch buffer all loads/stores target. Same
/// address as the MIPS difftest scratch: below the default stack in
/// the paper's 24-bit physical space.
pub const SCRATCH_BASE: u32 = 0x00EF_FF00;

/// Scratch buffer size in bytes; the prologue stores to every word.
pub const SCRATCH_SIZE: u32 = 256;

/// Maximum loop-nesting depth (one counter register per level).
const MAX_LOOP_DEPTH: usize = 2;

/// Loop counter registers by nesting depth; reserved for loop control.
const LOOP_COUNTERS: [XReg; 3] = [XReg::S1, XReg::S2, XReg::S3];

/// Destination pool for random instructions: caller-saved registers
/// only, excluding `a7` (the ecall selector is always written by the
/// atomic print/exit groups immediately before their `ecall`) and the
/// reserved `ra`/`sp`/`s0`–`s3`. Weighted toward the RVC-reachable
/// `a0`–`a5` so compressed assemblies stay dense.
const POOL: [XReg; 13] = [
    XReg::T0,
    XReg::T1,
    XReg::T2,
    XReg::T3,
    XReg::T4,
    XReg::T5,
    XReg::T6,
    XReg::A0,
    XReg::A1,
    XReg::A2,
    XReg::A3,
    XReg::A4,
    XReg::A5,
];

/// A generated RV32 program: the item stream plus both assemblies.
#[derive(Debug, Clone)]
pub struct GeneratedRv32Program {
    /// The encoding-independent item stream.
    pub asm: Rv32Asm,
}

impl GeneratedRv32Program {
    /// Assembles the program under `encoding`.
    ///
    /// # Errors
    ///
    /// Propagates [`Rv32Error`] from assembly; generated programs are
    /// constructed to be encodable, so an error here is a generator
    /// bug.
    pub fn assemble(&self, encoding: Encoding) -> Result<Rv32Image, Rv32Error> {
        self.asm.assemble(encoding)
    }
}

/// The seeded generator. One instance emits one program.
#[derive(Debug)]
pub struct Rv32ProgGen {
    rng: StdRng,
    asm: Rv32Asm,
}

impl Rv32ProgGen {
    /// Generates the program for `seed`: a pure function of the seed.
    pub fn generate(seed: u64) -> GeneratedRv32Program {
        let mut gen = Rv32ProgGen {
            rng: StdRng::seed_from_u64(seed ^ 0x5059_4F47), // "PYOG"
            asm: Rv32Asm::new(),
        };
        gen.emit_all();
        GeneratedRv32Program { asm: gen.asm }
    }

    fn emit_all(&mut self) {
        let exit = self.asm.label();
        self.prologue();
        self.body(exit);
        self.asm.bind(exit);
        self.asm.li(XReg::A7, 10);
        self.asm.push(Rv32Instr::Ecall);
    }

    /// Scratch base into `s0`, random seeds into the pool, then one
    /// store per scratch word so every later load sees defined memory.
    fn prologue(&mut self) {
        self.asm.li(XReg::S0, SCRATCH_BASE as i32);
        for reg in POOL {
            let value = self.rng.gen::<u32>() as i32;
            self.asm.li(reg, value);
        }
        for off in (0..SCRATCH_SIZE).step_by(4) {
            let reg = self.pool_reg();
            self.asm.push(Rv32Instr::Store {
                op: StoreOp::Sw,
                rs2: reg,
                rs1: XReg::S0,
                offset: off as i32,
            });
        }
    }

    /// The random block/loop body between the prologue and exit.
    fn body(&mut self, exit: Label) {
        let blocks = if self.rng.gen_bool(0.125) {
            // Occasionally much larger, to cover deep CLB eviction.
            12 + self.rng.gen_range(0..12usize)
        } else {
            5 + self.rng.gen_range(0..8usize)
        };
        // Plan counted loops over block ranges first so forward
        // branches can target any strictly later block label. Each
        // entry is `(loop label, nesting depth)`.
        let block_labels: Vec<Label> = (0..blocks).map(|_| self.asm.label()).collect();
        let mut opens: Vec<Vec<(Label, usize)>> = vec![Vec::new(); blocks];
        let mut closes: Vec<Vec<(Label, usize)>> = vec![Vec::new(); blocks];
        let mut stack: Vec<(Label, usize)> = Vec::new();
        for i in 0..blocks {
            if stack.len() < MAX_LOOP_DEPTH && self.rng.gen_bool(0.25) {
                let span = 1 + self.rng.gen_range(0..2usize);
                let mut end = (i + span - 1).min(blocks - 1);
                if let Some(&(_, outer_end)) = stack.last() {
                    end = end.min(outer_end);
                }
                let head = self.asm.label();
                opens[i].push((head, stack.len()));
                stack.push((head, end));
            }
            while let Some(&(head, end)) = stack.last() {
                if end == i {
                    closes[i].push((head, stack.len() - 1));
                    stack.pop();
                } else {
                    break;
                }
            }
        }
        for i in 0..blocks {
            for &(head, depth) in &opens[i].clone() {
                let counter = LOOP_COUNTERS[depth.min(2)];
                let iters = self.rng.gen_range(2..=6);
                self.asm.li(counter, iters);
                self.asm.bind(head);
            }
            self.asm.bind(block_labels[i]);
            let count = 10 + self.rng.gen_range(0..23usize);
            for _ in 0..count {
                self.instruction();
            }
            if self.rng.gen_bool(1.0 / 6.0) {
                self.print_int();
            }
            if self.rng.gen_bool(0.5) {
                self.forward_branch(i, &block_labels, exit);
            }
            for &(head, depth) in &closes[i].clone() {
                let counter = LOOP_COUNTERS[depth.min(2)];
                self.asm.push(Rv32Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd: counter,
                    rs1: counter,
                    imm: -1,
                });
                // `bgtz counter` spelled as `blt zero, counter`.
                self.asm.branch_to(BranchOp::Blt, XReg::ZERO, counter, head);
            }
        }
    }

    /// One random instruction (occasionally a two-instruction group).
    fn instruction(&mut self) {
        match self.rng.gen_range(0..100u32) {
            0..=29 => {
                const OPS: [AluOp; 10] = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Sll,
                    AluOp::Srl,
                    AluOp::Sra,
                    AluOp::Slt,
                    AluOp::Sltu,
                ];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                let (rd, rs1, rs2) = (self.pool_reg(), self.src_reg(), self.src_reg());
                self.asm.push(Rv32Instr::Alu { op, rd, rs1, rs2 });
            }
            30..=47 => {
                const OPS: [AluImmOp; 6] = [
                    AluImmOp::Addi,
                    AluImmOp::Andi,
                    AluImmOp::Ori,
                    AluImmOp::Xori,
                    AluImmOp::Slti,
                    AluImmOp::Sltiu,
                ];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                let (rd, rs1) = (self.pool_reg(), self.src_reg());
                let imm = self.rng.gen_range(-2048..2048);
                self.asm.push(Rv32Instr::AluImm { op, rd, rs1, imm });
            }
            48..=57 => {
                const OPS: [ShiftImmOp; 3] = [ShiftImmOp::Slli, ShiftImmOp::Srli, ShiftImmOp::Srai];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                let (rd, rs1) = (self.pool_reg(), self.src_reg());
                let shamt = self.rng.gen_range(0..32u8);
                self.asm.push(Rv32Instr::ShiftImm { op, rd, rs1, shamt });
            }
            58..=63 => {
                let rd = self.pool_reg();
                let imm20 = self.rng.gen_range(0..0x10_0000u32);
                self.asm.push(Rv32Instr::Lui { rd, imm20 });
            }
            64..=79 => self.mem_op(),
            // RISC-V division and remainder are total functions —
            // divide-by-zero and `i32::MIN / -1` have architected
            // results — so the whole M extension is fault-free.
            80..=89 => {
                const OPS: [MulOp; 8] = [
                    MulOp::Mul,
                    MulOp::Mulh,
                    MulOp::Mulhsu,
                    MulOp::Mulhu,
                    MulOp::Div,
                    MulOp::Divu,
                    MulOp::Rem,
                    MulOp::Remu,
                ];
                let op = OPS[self.rng.gen_range(0..OPS.len())];
                let (rd, rs1, rs2) = (self.pool_reg(), self.src_reg(), self.src_reg());
                self.asm.push(Rv32Instr::Mul { op, rd, rs1, rs2 });
            }
            _ => {
                // `mv rd, rs` — compressible, keeps register traffic up.
                let (rd, rs1) = (self.pool_reg(), self.src_reg());
                self.asm.push(Rv32Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs1,
                    imm: 0,
                });
            }
        }
    }

    /// A load or store on the scratch buffer, offset aligned to the
    /// access width (the emulator faults on misalignment).
    fn mem_op(&mut self) {
        let (rd, rs2) = (self.pool_reg(), self.src_reg());
        match self.rng.gen_range(0..8u32) {
            0 | 1 => {
                let offset = 4 * self.rng.gen_range(0..SCRATCH_SIZE as i32 / 4);
                self.asm.push(Rv32Instr::Load {
                    op: LoadOp::Lw,
                    rd,
                    rs1: XReg::S0,
                    offset,
                });
            }
            2 | 3 => {
                let offset = 4 * self.rng.gen_range(0..SCRATCH_SIZE as i32 / 4);
                self.asm.push(Rv32Instr::Store {
                    op: StoreOp::Sw,
                    rs2,
                    rs1: XReg::S0,
                    offset,
                });
            }
            4 => {
                let op = if self.rng.gen_bool(0.5) {
                    LoadOp::Lh
                } else {
                    LoadOp::Lhu
                };
                let offset = 2 * self.rng.gen_range(0..SCRATCH_SIZE as i32 / 2);
                self.asm.push(Rv32Instr::Load {
                    op,
                    rd,
                    rs1: XReg::S0,
                    offset,
                });
            }
            5 => {
                let offset = 2 * self.rng.gen_range(0..SCRATCH_SIZE as i32 / 2);
                self.asm.push(Rv32Instr::Store {
                    op: StoreOp::Sh,
                    rs2,
                    rs1: XReg::S0,
                    offset,
                });
            }
            6 => {
                let op = if self.rng.gen_bool(0.5) {
                    LoadOp::Lb
                } else {
                    LoadOp::Lbu
                };
                let offset = self.rng.gen_range(0..SCRATCH_SIZE as i32);
                self.asm.push(Rv32Instr::Load {
                    op,
                    rd,
                    rs1: XReg::S0,
                    offset,
                });
            }
            _ => {
                let offset = self.rng.gen_range(0..SCRATCH_SIZE as i32);
                self.asm.push(Rv32Instr::Store {
                    op: StoreOp::Sb,
                    rs2,
                    rs1: XReg::S0,
                    offset,
                });
            }
        }
    }

    /// A `print_int` of a random pool register: output diverges
    /// whenever register state has, giving the co-simulator a second,
    /// externally-visible comparison channel.
    fn print_int(&mut self) {
        let src = self.pool_reg();
        self.asm.push(Rv32Instr::AluImm {
            op: AluImmOp::Addi,
            rd: XReg::A0,
            rs1: src,
            imm: 0,
        });
        self.asm.li(XReg::A7, 1);
        self.asm.push(Rv32Instr::Ecall);
    }

    /// A conditional forward branch from block `i` to a strictly later
    /// block label (or the exit).
    fn forward_branch(&mut self, i: usize, block_labels: &[Label], exit: Label) {
        let blocks = block_labels.len();
        let target = if i + 1 >= blocks || self.rng.gen_bool(1.0 / 6.0) {
            exit
        } else {
            block_labels[self.rng.gen_range(i + 1..blocks)]
        };
        const OPS: [BranchOp; 6] = [
            BranchOp::Beq,
            BranchOp::Bne,
            BranchOp::Blt,
            BranchOp::Bge,
            BranchOp::Bltu,
            BranchOp::Bgeu,
        ];
        let op = OPS[self.rng.gen_range(0..OPS.len())];
        let (rs1, rs2) = (self.src_reg(), self.src_reg());
        self.asm.branch_to(op, rs1, rs2, target);
    }

    /// A destination register: always from the caller-saved pool.
    fn pool_reg(&mut self) -> XReg {
        POOL[self.rng.gen_range(0..POOL.len())]
    }

    /// A source register: usually the pool, sometimes `zero` or the
    /// scratch base (reads of `s0` are fine; writes are not).
    fn src_reg(&mut self) -> XReg {
        if self.rng.gen_bool(0.125) {
            XReg::ZERO
        } else if self.rng.gen_bool(1.0 / 15.0) {
            XReg::S0
        } else {
            self.pool_reg()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Rv32Config, Rv32Machine};
    use ccrp_emu::NullSink;

    #[test]
    fn generation_is_deterministic() {
        let a = Rv32ProgGen::generate(99);
        let b = Rv32ProgGen::generate(99);
        assert_eq!(
            a.assemble(Encoding::Rv32I).unwrap(),
            b.assemble(Encoding::Rv32I).unwrap()
        );
        let c = Rv32ProgGen::generate(100);
        assert_ne!(
            a.assemble(Encoding::Rv32I).unwrap(),
            c.assemble(Encoding::Rv32I).unwrap()
        );
    }

    #[test]
    fn programs_terminate_cleanly_in_both_encodings() {
        for seed in 0..50 {
            let gen = Rv32ProgGen::generate(seed);
            let image_i = gen.assemble(Encoding::Rv32I).unwrap();
            let image_c = gen.assemble(Encoding::Rv32C).unwrap();
            assert!(
                image_c.text_size() < image_i.text_size(),
                "seed {seed}: C assembly not smaller"
            );
            let config = Rv32Config {
                max_steps: 2_000_000,
            };
            let mut outputs = Vec::new();
            for image in [&image_i, &image_c] {
                let mut machine = Rv32Machine::with_config(image, config.clone());
                machine
                    .run(&mut NullSink)
                    .unwrap_or_else(|e| panic!("seed {seed}: run faulted: {e}"));
                assert_eq!(machine.exit_code(), Some(0), "seed {seed}");
                let regs: Vec<u32> = XReg::all().map(|r| machine.reg(r)).collect();
                outputs.push((machine.output().to_string(), regs));
            }
            // No PC-derived state: both encodings agree on everything
            // architecturally visible at exit.
            assert_eq!(outputs[0], outputs[1], "seed {seed}: encodings diverge");
        }
    }

    #[test]
    fn scratch_stays_inside_the_initialised_window() {
        // Structural guarantee, spot-checked: every memory operand in
        // a large sample uses `s0` plus an in-range aligned offset.
        for seed in 0..20 {
            let gen = Rv32ProgGen::generate(seed);
            let image = gen.assemble(Encoding::Rv32I).unwrap();
            let text = image.text();
            let mut at = 0;
            while at + 4 <= text.len() {
                let word = u32::from_le_bytes([text[at], text[at + 1], text[at + 2], text[at + 3]]);
                if let Ok(
                    Rv32Instr::Load { rs1, offset, .. } | Rv32Instr::Store { rs1, offset, .. },
                ) = crate::decode32(word)
                {
                    assert_eq!(rs1, XReg::S0, "seed {seed}: off-scratch base");
                    assert!(
                        (0..SCRATCH_SIZE as i32).contains(&offset),
                        "seed {seed}: offset {offset} out of scratch"
                    );
                }
                at += 4;
            }
        }
    }
}
