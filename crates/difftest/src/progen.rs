//! ISA-aware random program generator.
//!
//! Emits valid, terminating MIPS R2000 assembly for the workspace
//! assembler, sized so a compressed build spans several Line Address
//! Table entries (each entry covers 256 bytes of text). The generator
//! enforces, by construction:
//!
//! * **Termination** — control flow is forward-only except for counted
//!   loops whose counters (`$s1`–`$s3`, one per nesting depth, never
//!   touched by random instructions) strictly decrease to a `bgtz`
//!   back-edge. A forward branch may jump *into* a loop body past its
//!   counter init, but the counter registers only ever hold values in
//!   `0..=8`, so every back-edge still runs out.
//! * **No traps** — only non-trapping ALU ops (`addu`/`addiu`/`subu`,
//!   never `add`/`sub`), divides guarded by a freshly-written non-zero
//!   divisor, loads confined to a scratch buffer the prologue fully
//!   initialises, and naturally-aligned offsets per access width.
//! * **Delay-slot legality** — every branch, jump, and call is followed
//!   by an explicitly emitted single-word filler under `.set
//!   noreorder`; fillers are never themselves control transfers.
//! * **ABI hygiene** — random instructions only write the caller-saved
//!   pool ([`Reg::CALLER_SAVED`]); `$s0` holds the scratch-buffer base,
//!   `$ra` is written only by `jal` to leaf functions that contain no
//!   calls of their own.

use ccrp::SplitMix64;
use ccrp_isa::{FpReg, Reg};

/// Base address of the 256-byte scratch buffer all loads/stores target.
/// Sits below the stack ([`ccrp_emu::INITIAL_SP`]) in the paper's 24-bit
/// physical space; the prologue stores to every word so loads never see
/// unmapped memory.
pub const SCRATCH_BASE: u32 = 0x00EF_FF00;

/// Size of the scratch buffer in bytes.
pub const SCRATCH_SIZE: u32 = 256;

/// A generated program: assembly source plus shrinking metadata.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// Source lines (labels, directives, and instructions).
    pub lines: Vec<String>,
    /// Indices into [`lines`](Self::lines) the shrinker may try to
    /// delete: the random instruction mix, but not labels, loop
    /// control, the scratch-buffer setup, or the exit sequence.
    /// (Deleting one line of a guarded group — say a divide's divisor
    /// write — is allowed; the shrinker re-validates every candidate by
    /// re-running it, so a now-faulting program is simply rejected.)
    pub removable: Vec<usize>,
}

impl GeneratedProgram {
    /// The assembly source as one string.
    pub fn source(&self) -> String {
        let mut out = String::with_capacity(self.lines.iter().map(|line| line.len() + 1).sum());
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Maximum loop-nesting depth (one counter register per level).
const MAX_LOOP_DEPTH: usize = 2;

/// Loop counter registers by nesting depth; reserved for loop control.
const LOOP_COUNTERS: [Reg; 3] = [Reg::S1, Reg::S2, Reg::S3];

/// The seeded generator. One instance emits one program.
#[derive(Debug)]
pub struct ProgGen {
    rng: SplitMix64,
    lines: Vec<String>,
    removable: Vec<usize>,
    /// Number of leaf functions emitted after the exit sequence.
    functions: usize,
    /// Whether the instruction mix may emit `jal`. False inside
    /// function bodies: a call there could overwrite the live `$ra`
    /// (worst case `jal` to the enclosing function itself, which then
    /// returns to its own call site forever), breaking termination.
    calls_allowed: bool,
}

impl ProgGen {
    /// Generates the program for `seed`. The result is a pure function
    /// of the seed.
    pub fn generate(seed: u64) -> GeneratedProgram {
        let mut gen = ProgGen {
            rng: SplitMix64::new(seed),
            lines: Vec::new(),
            removable: Vec::new(),
            functions: 0,
            calls_allowed: true,
        };
        gen.emit_all();
        GeneratedProgram {
            lines: gen.lines,
            removable: gen.removable,
        }
    }

    fn emit_all(&mut self) {
        self.functions = self.rng.below(3) as usize;
        self.push(".text");
        self.push(".set noreorder");
        self.push("main:");
        self.prologue();
        self.body();
        self.push("exit:");
        self.push("    ori $v0, $zero, 10");
        self.push("    syscall");
        for f in 0..self.functions {
            self.function(f);
        }
    }

    /// Fixed (non-removable) scratch base, then removable random
    /// register seeding and buffer initialisation. The 64 stores cover
    /// every word of the scratch buffer so any later load is defined.
    fn prologue(&mut self) {
        self.push(format!("    lui $s0, {}", SCRATCH_BASE >> 16));
        self.push(format!("    ori $s0, $s0, {}", SCRATCH_BASE & 0xFFFF));
        for reg in Reg::CALLER_SAVED {
            let value = self.rng.next_u64() as u32 as i32;
            self.push_removable(format!("    li {reg}, {value}"));
        }
        for off in (0..SCRATCH_SIZE).step_by(4) {
            let reg = self.pool_reg();
            // The stores that define the buffer are structural, not
            // removable: a shrunk program must still satisfy the
            // loads-see-initialised-memory invariant by construction.
            self.push(format!("    sw {reg}, {off}($s0)"));
        }
    }

    /// The random block/loop body between the prologue and `exit`.
    fn body(&mut self) {
        let blocks = if self.rng.chance(1, 8) {
            // Occasionally much larger, to cover deep CLB eviction.
            12 + self.rng.below(12) as usize
        } else {
            5 + self.rng.below(8) as usize
        };
        // Plan counted loops over block ranges first so forward
        // branches can target any strictly later block label. Each
        // entry is `(loop id, nesting depth)`.
        let mut opens: Vec<Vec<(usize, usize)>> = vec![Vec::new(); blocks];
        let mut closes: Vec<Vec<(usize, usize)>> = vec![Vec::new(); blocks];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut next_loop = 0usize;
        for i in 0..blocks {
            if stack.len() < MAX_LOOP_DEPTH && self.rng.chance(1, 4) {
                let span = 1 + self.rng.below(2) as usize;
                let mut end = (i + span - 1).min(blocks - 1);
                if let Some(&(_, outer_end)) = stack.last() {
                    end = end.min(outer_end);
                }
                opens[i].push((next_loop, stack.len()));
                stack.push((next_loop, end));
                next_loop += 1;
            }
            while let Some(&(id, end)) = stack.last() {
                if end == i {
                    closes[i].push((id, stack.len() - 1));
                    stack.pop();
                } else {
                    break;
                }
            }
        }
        for (i, (block_opens, block_closes)) in opens.into_iter().zip(closes).enumerate() {
            for (id, depth) in block_opens {
                let counter = LOOP_COUNTERS[depth.min(2)];
                let iters = self.rng.range(2, 6);
                self.push(format!("    ori {counter}, $zero, {iters}"));
                self.push(format!("loop{id}:"));
            }
            self.push(format!("L{i}:"));
            let count = 10 + self.rng.below(23);
            for _ in 0..count {
                self.instruction();
            }
            if self.rng.chance(1, 6) {
                self.print_int();
            }
            if self.rng.chance(1, 2) {
                self.forward_branch(i, blocks);
            }
            for (id, depth) in block_closes {
                let counter = LOOP_COUNTERS[depth.min(2)];
                self.push(format!("    addiu {counter}, {counter}, -1"));
                self.push(format!("    bgtz {counter}, loop{id}"));
                let filler = self.filler();
                self.push(filler);
            }
        }
    }

    /// A leaf function: straight-line work, `jr $ra`, delay filler.
    fn function(&mut self, index: usize) {
        self.push(format!("fn{index}:"));
        self.calls_allowed = false;
        let count = 4 + self.rng.below(9);
        for _ in 0..count {
            self.instruction();
        }
        self.calls_allowed = true;
        self.push("    jr $ra");
        let filler = self.filler();
        self.push(filler);
    }

    /// One random instruction group (1–3 removable source lines).
    fn instruction(&mut self) {
        let roll = self.rng.below(100);
        let last = match roll {
            0..=29 => self.r_alu(),
            30..=47 => self.i_alu(),
            48..=57 => self.shift_imm(),
            58..=62 => self.shift_var(),
            63..=66 => {
                let rt = self.pool_reg();
                let imm = self.rng.below(0x1_0000);
                format!("    lui {rt}, {imm}")
            }
            67..=78 => self.mem_op(),
            79..=83 => return self.mult_div(),
            84..=87 => self.hi_lo(),
            88..=95 => self.fp_op(),
            96..=97 if self.functions > 0 && self.calls_allowed => {
                let f = self.rng.below(self.functions as u64);
                self.push_removable(format!("    jal fn{f}"));
                self.filler()
            }
            _ => "    nop".to_string(),
        };
        self.push_removable(last);
    }

    fn r_alu(&mut self) -> String {
        const OPS: [&str; 8] = ["addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"];
        let op = self.pick_str(&OPS);
        let rd = self.pool_reg();
        let rs = self.src_reg();
        let rt = self.src_reg();
        format!("    {op} {rd}, {rs}, {rt}")
    }

    fn i_alu(&mut self) -> String {
        // (mnemonic, signed immediate?)
        const OPS: [(&str, bool); 6] = [
            ("addiu", true),
            ("andi", false),
            ("ori", false),
            ("xori", false),
            ("slti", true),
            ("sltiu", true),
        ];
        let idx = self.rng.below(OPS.len() as u64) as usize;
        let (op, signed) = OPS[idx.min(OPS.len() - 1)];
        let rt = self.pool_reg();
        let rs = self.src_reg();
        if signed {
            let imm = self.rng.next_u64() as u16 as i16;
            format!("    {op} {rt}, {rs}, {imm}")
        } else {
            let imm = self.rng.below(0x1_0000);
            format!("    {op} {rt}, {rs}, {imm}")
        }
    }

    fn shift_imm(&mut self) -> String {
        const OPS: [&str; 3] = ["sll", "srl", "sra"];
        let op = self.pick_str(&OPS);
        let rd = self.pool_reg();
        let rt = self.src_reg();
        let shamt = self.rng.below(32);
        format!("    {op} {rd}, {rt}, {shamt}")
    }

    fn shift_var(&mut self) -> String {
        const OPS: [&str; 3] = ["sllv", "srlv", "srav"];
        let op = self.pick_str(&OPS);
        let rd = self.pool_reg();
        let rt = self.src_reg();
        let rs = self.src_reg();
        format!("    {op} {rd}, {rt}, {rs}")
    }

    /// A load or store on the scratch buffer, offset aligned to the
    /// access width. The partial-word ops (`lwl`/`lwr`/`swl`/`swr`)
    /// never reach past the containing word, so any offset in range
    /// keeps them inside the buffer.
    fn mem_op(&mut self) -> String {
        const OPS: [(&str, u32, bool); 12] = [
            ("lw", 4, false),
            ("sw", 4, true),
            ("lh", 2, false),
            ("lhu", 2, false),
            ("sh", 2, true),
            ("lb", 1, false),
            ("lbu", 1, false),
            ("sb", 1, true),
            ("lwl", 1, false),
            ("lwr", 1, false),
            ("swl", 1, true),
            ("swr", 1, true),
        ];
        let idx = self.rng.below(OPS.len() as u64) as usize;
        let (op, align, store) = OPS[idx.min(OPS.len() - 1)];
        let slots = SCRATCH_SIZE / align;
        let off = self.rng.below(u64::from(slots)) as u32 * align;
        let rt = if store {
            self.src_reg()
        } else {
            self.pool_reg()
        };
        format!("    {op} {rt}, {off}($s0)")
    }

    /// `mult`/`multu` freely; `div`/`divu` behind a freshly-written
    /// non-zero, positive divisor (rules out both divide-by-zero and
    /// the `i32::MIN / -1` overflow corner). Two-operand `div` is the
    /// raw single-word instruction in this assembler, writing hi/lo.
    fn mult_div(&mut self) {
        let rs = self.src_reg();
        match self.rng.below(4) {
            0 => {
                let line = format!("    mult {rs}, {}", self.src_reg());
                self.push_removable(line);
            }
            1 => {
                let line = format!("    multu {rs}, {}", self.src_reg());
                self.push_removable(line);
            }
            n => {
                let op = if n == 2 { "div" } else { "divu" };
                let guard = self.pool_reg();
                let k = self.rng.range(1, 0xFFFF);
                let dest = self.pool_reg();
                let take = if self.rng.chance(1, 2) {
                    "mflo"
                } else {
                    "mfhi"
                };
                self.push_removable(format!("    ori {guard}, $zero, {k}"));
                self.push_removable(format!("    {op} {rs}, {guard}"));
                self.push_removable(format!("    {take} {dest}"));
            }
        }
    }

    fn hi_lo(&mut self) -> String {
        match self.rng.below(4) {
            0 => format!("    mfhi {}", self.pool_reg()),
            1 => format!("    mflo {}", self.pool_reg()),
            2 => format!("    mthi {}", self.src_reg()),
            _ => format!("    mtlo {}", self.src_reg()),
        }
    }

    /// Single-precision CP1 traffic: moves, arithmetic (divide-by-zero
    /// is IEEE-defined, not a trap), and comparisons feeding `fp_cond`.
    fn fp_op(&mut self) -> String {
        let fd = self.fp_reg();
        let fs = self.fp_reg();
        let ft = self.fp_reg();
        match self.rng.below(10) {
            0 | 1 => format!("    mtc1 {}, {fd}", self.src_reg()),
            2 => format!("    mfc1 {}, {fs}", self.pool_reg()),
            3 => format!("    add.s {fd}, {fs}, {ft}"),
            4 => format!("    sub.s {fd}, {fs}, {ft}"),
            5 => format!("    mul.s {fd}, {fs}, {ft}"),
            6 => format!("    div.s {fd}, {fs}, {ft}"),
            7 => {
                const OPS: [&str; 3] = ["abs.s", "neg.s", "mov.s"];
                format!("    {} {fd}, {fs}", self.pick_str(&OPS))
            }
            _ => {
                const OPS: [&str; 3] = ["c.eq.s", "c.lt.s", "c.le.s"];
                format!("    {} {fs}, {ft}", self.pick_str(&OPS))
            }
        }
    }

    /// A SPIM `print_int` of a random pool register: output diverges
    /// whenever register state has, giving the co-simulator a second,
    /// externally-visible comparison channel.
    fn print_int(&mut self) {
        let src = self.pool_reg();
        self.push_removable("    ori $v0, $zero, 1");
        self.push_removable(format!("    addu $a0, {src}, $zero"));
        self.push_removable("    syscall");
    }

    /// A conditional forward branch from block `i` to a strictly later
    /// block label (or `exit`), plus its delay filler.
    fn forward_branch(&mut self, i: usize, blocks: usize) {
        let target = if i + 1 >= blocks || self.rng.chance(1, 6) {
            "exit".to_string()
        } else {
            format!("L{}", self.rng.range(i as u64 + 1, blocks as u64 - 1))
        };
        let line = match self.rng.below(10) {
            0 => format!("    beq {}, {}, {target}", self.src_reg(), self.src_reg()),
            1 => format!("    bne {}, {}, {target}", self.src_reg(), self.src_reg()),
            2 => format!("    beqz {}, {target}", self.src_reg()),
            3 => format!("    bnez {}, {target}", self.src_reg()),
            4 => {
                const OPS: [&str; 4] = ["bgtz", "blez", "bltz", "bgez"];
                format!("    {} {}, {target}", self.pick_str(&OPS), self.src_reg())
            }
            5 | 6 => {
                const OPS: [&str; 6] = ["blt", "bgt", "ble", "bge", "bltu", "bgeu"];
                format!(
                    "    {} {}, {}, {target}",
                    self.pick_str(&OPS),
                    self.src_reg(),
                    self.src_reg()
                )
            }
            _ => {
                let op = if self.rng.chance(1, 2) {
                    "bc1t"
                } else {
                    "bc1f"
                };
                format!("    {op} {target}")
            }
        };
        self.push_removable(line);
        let filler = self.filler();
        self.push_removable(filler);
    }

    /// A safe single-word non-control instruction for a delay slot.
    fn filler(&mut self) -> String {
        match self.rng.below(4) {
            0 => "    nop".to_string(),
            1 => format!(
                "    addiu {}, {}, {}",
                self.pool_reg(),
                self.src_reg(),
                self.rng.next_u64() as u16 as i16
            ),
            2 => format!(
                "    xori {}, {}, {}",
                self.pool_reg(),
                self.src_reg(),
                self.rng.below(0x1_0000)
            ),
            _ => format!(
                "    sll {}, {}, {}",
                self.pool_reg(),
                self.src_reg(),
                self.rng.below(32)
            ),
        }
    }

    /// A destination register: always from the caller-saved pool.
    fn pool_reg(&mut self) -> Reg {
        *self.rng.pick(&Reg::CALLER_SAVED).unwrap_or(&Reg::T0)
    }

    /// A source register: usually the pool, sometimes `$zero` or the
    /// scratch base (reads of `$s0` are fine; writes are not).
    fn src_reg(&mut self) -> Reg {
        if self.rng.chance(1, 8) {
            Reg::ZERO
        } else if self.rng.chance(1, 15) {
            Reg::S0
        } else {
            self.pool_reg()
        }
    }

    fn fp_reg(&mut self) -> FpReg {
        FpReg::from_field(self.rng.below(12) as u32)
    }

    fn pick_str(&mut self, items: &[&'static str]) -> &'static str {
        self.rng.pick(items).copied().unwrap_or("nop")
    }

    fn push(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    fn push_removable(&mut self, line: impl Into<String>) {
        self.removable.push(self.lines.len());
        self.lines.push(line.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_asm::assemble;
    use ccrp_emu::{Machine, MachineConfig, NullSink};

    #[test]
    fn generation_is_deterministic() {
        let a = ProgGen::generate(99);
        let b = ProgGen::generate(99);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.removable, b.removable);
        let c = ProgGen::generate(100);
        assert_ne!(a.lines, c.lines);
    }

    #[test]
    fn removable_indices_are_valid_and_structural_lines_are_kept() {
        let gen = ProgGen::generate(5);
        for &i in &gen.removable {
            let line = &gen.lines[i];
            assert!(
                !line.ends_with(':') && !line.starts_with('.'),
                "labels/directives must not be removable: {line}"
            );
        }
    }

    #[test]
    fn programs_assemble_terminate_and_span_multiple_lat_entries() {
        for seed in 0..50 {
            let gen = ProgGen::generate(seed);
            let image = assemble(&gen.source())
                .unwrap_or_else(|e| panic!("seed {seed}: assembly failed: {e}"));
            assert!(
                image.text_size() >= 512,
                "seed {seed}: text {}B spans fewer than 2 LAT entries",
                image.text_size()
            );
            let mut machine = Machine::with_config(
                &image,
                MachineConfig {
                    max_steps: 2_000_000,
                },
            );
            let summary = machine
                .run(&mut NullSink)
                .unwrap_or_else(|e| panic!("seed {seed}: run faulted: {e:?}"));
            assert_eq!(summary.exit_code, 0, "seed {seed}");
        }
    }
}
