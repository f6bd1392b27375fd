//! RV32 ports of the paper's eight traced benchmarks.
//!
//! Each port is an integer/fixed-point re-expression of the same
//! computation the MIPS kernel in `ccrp-workloads` performs: same
//! names, same paper-derived static text sizes, same
//! trace-then-replay role in the experiments. Built via [`Rv32Asm`],
//! every workload assembles into **both** encodings — plain RV32I and
//! RV32C — of one instruction stream, which is what lets the
//! `isa-compare` sweep put "CCRP on RV32I", "RVC alone", and
//! "CCRP *over* RVC" on one axis.
//!
//! Every kernel is self-checking: a pure-Rust mirror computes the
//! expected printed answer with the same wrapping arithmetic, and
//! [`Rv32Workload::build`] refuses to return a workload whose emulated
//! output (in either encoding) disagrees. As on the MIPS side, the
//! kernel occupies the front of the padded text, so every traced
//! address falls inside it; the [`generate_filler`] padding after the
//! exit `ecall` never executes.

use std::error::Error;
use std::fmt;

use ccrp_emu::{ProgramTrace, TraceSink};

use crate::codegen::generate_filler;
use crate::instr::{AluImmOp, AluOp, BranchOp, LoadOp, MulOp, Rv32Instr, ShiftImmOp, StoreOp};
use crate::machine::Rv32Machine;
use crate::{Encoding, Rv32Asm, Rv32Error, Rv32Fault, Rv32Image, XReg};

/// Base address of the workload data region (arrays, grids, scratch).
/// Kernels store before they load, so pages map on demand.
pub const DATA_BASE: u32 = 0x0010_0000;

/// Errors while building an RV32 workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum Rv32WorkloadError {
    /// The kernel failed to assemble (a bug in this crate).
    Asm(Rv32Error),
    /// The kernel faulted during trace capture.
    Emu(Rv32Fault),
    /// The kernel ran but printed the wrong answer.
    WrongOutput {
        /// Which workload and encoding failed.
        name: String,
        /// What it should have printed.
        expected: String,
        /// What it printed.
        actual: String,
    },
}

impl fmt::Display for Rv32WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rv32WorkloadError::Asm(e) => write!(f, "rv32 kernel failed to assemble: {e}"),
            Rv32WorkloadError::Emu(e) => write!(f, "rv32 kernel faulted: {e}"),
            Rv32WorkloadError::WrongOutput {
                name,
                expected,
                actual,
            } => write!(
                f,
                "rv32 workload `{name}` printed `{actual}`, expected `{expected}`"
            ),
        }
    }
}

impl Error for Rv32WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Rv32WorkloadError::Asm(e) => Some(e),
            Rv32WorkloadError::Emu(e) => Some(e),
            Rv32WorkloadError::WrongOutput { .. } => None,
        }
    }
}

impl From<Rv32Error> for Rv32WorkloadError {
    fn from(e: Rv32Error) -> Self {
        Rv32WorkloadError::Asm(e)
    }
}

impl From<Rv32Fault> for Rv32WorkloadError {
    fn from(e: Rv32Fault) -> Self {
        Rv32WorkloadError::Emu(e)
    }
}

/// A built RV32 benchmark: both encodings of the padded program plus
/// the trace each one produced.
///
/// `T` is the form the traces are kept in: the per-fetch
/// [`ProgramTrace`], as [`Rv32Workload::build`] returns it, or any other
/// sink the runs streamed into ([`Rv32Workload::build_into`]).
#[derive(Debug, Clone)]
pub struct BuiltRv32Workload<T = ProgramTrace> {
    /// Display name, matching the MIPS side and the paper's tables.
    pub name: &'static str,
    /// The padded RV32I program (kernel first, filler after the exit).
    pub image_i: Rv32Image,
    /// The same program assembled with RVC compression.
    pub image_c: Rv32Image,
    /// Trace captured executing `image_i`.
    pub trace_i: T,
    /// Trace captured executing `image_c` (same instruction sequence,
    /// denser PCs).
    pub trace_c: T,
    /// The verified printed output.
    pub output: String,
}

/// The eight benchmarks, mirroring `TracedWorkload` on the MIPS side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rv32Workload {
    /// Eight-queens backtracking search.
    Eightq,
    /// Integer matrix multiply.
    Matrix25A,
    /// Livermore loop 1, fixed-point.
    Lloop01,
    /// Mesh relaxation sweeps.
    Tomcatv,
    /// Seven small vector kernels.
    Nasa7,
    /// A single vector kernel, multiple passes.
    Nasa1,
    /// Branchy logic-minimizer-style dispatcher.
    Espresso,
    /// Huge straight-line basic block.
    Fpppp,
}

impl Rv32Workload {
    /// All workloads in the paper's table order (same as the MIPS
    /// `TracedWorkload::ALL`, so cross-ISA tables line up row by row).
    pub const ALL: [Rv32Workload; 8] = [
        Rv32Workload::Nasa7,
        Rv32Workload::Matrix25A,
        Rv32Workload::Fpppp,
        Rv32Workload::Espresso,
        Rv32Workload::Nasa1,
        Rv32Workload::Eightq,
        Rv32Workload::Tomcatv,
        Rv32Workload::Lloop01,
    ];

    /// The name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Rv32Workload::Eightq => "eightq",
            Rv32Workload::Matrix25A => "matrix25A",
            Rv32Workload::Lloop01 => "lloopO1",
            Rv32Workload::Tomcatv => "tomcatv",
            Rv32Workload::Nasa7 => "NASA7",
            Rv32Workload::Nasa1 => "NASA1",
            Rv32Workload::Espresso => "espresso",
            Rv32Workload::Fpppp => "fpppp",
        }
    }

    /// Target size of the padded RV32I text in bytes — the same
    /// figures the MIPS side uses, so static-compression comparisons
    /// start from equal-sized programs.
    pub fn paper_text_bytes(self) -> u32 {
        match self {
            Rv32Workload::Eightq => 4020,
            Rv32Workload::Matrix25A => 36766,
            Rv32Workload::Lloop01 => 4020,
            Rv32Workload::Tomcatv => 24576,
            Rv32Workload::Nasa7 => 90112,
            Rv32Workload::Nasa1 => 61440,
            Rv32Workload::Espresso => 176052,
            Rv32Workload::Fpppp => 122880,
        }
    }

    /// Stable per-workload padding seed (same values as the MIPS side;
    /// [`generate_filler`] mixes in its own ISA tag).
    fn seed(self) -> u64 {
        match self {
            Rv32Workload::Eightq => 0xE1,
            Rv32Workload::Matrix25A => 0xA2,
            Rv32Workload::Lloop01 => 0x13,
            Rv32Workload::Tomcatv => 0x7C,
            Rv32Workload::Nasa7 => 0x77,
            Rv32Workload::Nasa1 => 0x71,
            Rv32Workload::Espresso => 0xE5,
            Rv32Workload::Fpppp => 0xF4,
        }
    }

    /// The kernel as an encoding-independent item stream.
    fn kernel(self) -> Rv32Asm {
        match self {
            Rv32Workload::Eightq => eightq_kernel(),
            Rv32Workload::Matrix25A => matrix_kernel(),
            Rv32Workload::Lloop01 => lloop_kernel(),
            Rv32Workload::Tomcatv => tomcatv_kernel(),
            Rv32Workload::Nasa7 => nasa7_kernel(),
            Rv32Workload::Nasa1 => nasa1_kernel(),
            Rv32Workload::Espresso => espresso_kernel(),
            Rv32Workload::Fpppp => fpppp_kernel(),
        }
    }

    /// What the kernel must print, computed by the pure-Rust mirror.
    pub fn expected_output(self) -> String {
        match self {
            Rv32Workload::Eightq => eightq_mirror(),
            Rv32Workload::Matrix25A => matrix_mirror(),
            Rv32Workload::Lloop01 => lloop_mirror(),
            Rv32Workload::Tomcatv => tomcatv_mirror(),
            Rv32Workload::Nasa7 => nasa7_mirror(),
            Rv32Workload::Nasa1 => nasa1_mirror(),
            Rv32Workload::Espresso => espresso_mirror(),
            Rv32Workload::Fpppp => fpppp_mirror(),
        }
    }

    /// Assembles the padded program under `encoding` without running
    /// it (the static-corpus path, which only needs bytes).
    ///
    /// # Errors
    ///
    /// [`Rv32WorkloadError::Asm`] on kernel bugs.
    pub fn padded_image(self, encoding: Encoding) -> Result<Rv32Image, Rv32WorkloadError> {
        Ok(self.padded_asm()?.assemble(encoding)?)
    }

    fn padded_asm(self) -> Result<Rv32Asm, Rv32WorkloadError> {
        let mut asm = self.kernel();
        let kernel_bytes = asm.assemble(Encoding::Rv32I)?.text_size() as usize;
        let target = (self.paper_text_bytes() as usize).div_ceil(4) * 4;
        if kernel_bytes < target {
            let deficit = target - kernel_bytes;
            let mut filler = generate_filler(self.seed(), deficit);
            filler.truncate(deficit / 4);
            for instr in filler {
                asm.push(instr);
            }
        }
        Ok(asm)
    }

    /// Assembles both encodings, executes each under the emulator
    /// capturing per-fetch traces, and checks both printed answers
    /// against the Rust mirror — [`build_into`](Self::build_into) with
    /// [`ProgramTrace`] sinks.
    ///
    /// # Errors
    ///
    /// Assembly or emulation failures, or a wrong self-check answer —
    /// all of which indicate bugs in this crate, surfaced loudly.
    pub fn build(self) -> Result<BuiltRv32Workload, Rv32WorkloadError> {
        self.build_into()
    }

    /// As [`build`](Self::build), but each run's events go to a fresh
    /// sink of type `S`, which the workload keeps as that encoding's
    /// trace.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn build_into<S: TraceSink + Default>(
        self,
    ) -> Result<BuiltRv32Workload<S>, Rv32WorkloadError> {
        let asm = self.padded_asm()?;
        let image_i = asm.assemble(Encoding::Rv32I)?;
        let image_c = asm.assemble(Encoding::Rv32C)?;
        let expected = self.expected_output();
        let capture = |image: &Rv32Image, tag: &str| {
            let mut trace = S::default();
            let mut machine = Rv32Machine::new(image);
            machine.run(&mut trace).map_err(Rv32WorkloadError::Emu)?;
            if machine.output() != expected {
                return Err(Rv32WorkloadError::WrongOutput {
                    name: format!("{} ({tag})", self.name()),
                    expected: expected.clone(),
                    actual: machine.output().to_string(),
                });
            }
            Ok(trace)
        };
        let trace_i = capture(&image_i, "rv32i")?;
        let trace_c = capture(&image_c, "rv32c")?;
        Ok(BuiltRv32Workload {
            name: self.name(),
            image_i,
            image_c,
            trace_i,
            trace_c,
            output: expected,
        })
    }
}

// ---------------------------------------------------------------------------
// Instruction-building shorthand.
// ---------------------------------------------------------------------------

fn addi(rd: XReg, rs1: XReg, imm: i32) -> Rv32Instr {
    Rv32Instr::AluImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    }
}

fn imm_op(op: AluImmOp, rd: XReg, rs1: XReg, imm: i32) -> Rv32Instr {
    Rv32Instr::AluImm { op, rd, rs1, imm }
}

fn mv(rd: XReg, rs1: XReg) -> Rv32Instr {
    addi(rd, rs1, 0)
}

fn alu(op: AluOp, rd: XReg, rs1: XReg, rs2: XReg) -> Rv32Instr {
    Rv32Instr::Alu { op, rd, rs1, rs2 }
}

fn mul(op: MulOp, rd: XReg, rs1: XReg, rs2: XReg) -> Rv32Instr {
    Rv32Instr::Mul { op, rd, rs1, rs2 }
}

fn shift(op: ShiftImmOp, rd: XReg, rs1: XReg, shamt: u8) -> Rv32Instr {
    Rv32Instr::ShiftImm { op, rd, rs1, shamt }
}

fn lw(rd: XReg, offset: i32, rs1: XReg) -> Rv32Instr {
    Rv32Instr::Load {
        op: LoadOp::Lw,
        rd,
        rs1,
        offset,
    }
}

fn sw(rs2: XReg, offset: i32, rs1: XReg) -> Rv32Instr {
    Rv32Instr::Store {
        op: StoreOp::Sw,
        rs2,
        rs1,
        offset,
    }
}

/// `print_int(src)` then nothing else: `a0 = src; a7 = 1; ecall`.
fn print_int(asm: &mut Rv32Asm, src: XReg) {
    asm.push(mv(XReg::A0, src));
    asm.li(XReg::A7, 1);
    asm.push(Rv32Instr::Ecall);
}

/// Clean exit: `a7 = 10; ecall`.
fn exit(asm: &mut Rv32Asm) {
    asm.li(XReg::A7, 10);
    asm.push(Rv32Instr::Ecall);
}

/// A counted down-loop skeleton: `counter = n; loop { body; counter -= 1 }
/// while counter != 0`.
fn counted_loop(asm: &mut Rv32Asm, counter: XReg, n: i32, body: impl FnOnce(&mut Rv32Asm)) {
    asm.li(counter, n);
    let head = asm.label();
    asm.bind(head);
    body(asm);
    asm.push(addi(counter, counter, -1));
    asm.branch_to(BranchOp::Bne, counter, XReg::ZERO, head);
}

// ---------------------------------------------------------------------------
// lloopO1 — Livermore loop 1, fixed-point:
//   x[k] = q + y[k]*(r*z[k+10] + t*z[k+11]),  k = 0..400
// ---------------------------------------------------------------------------

const LLOOP_N: i32 = 400;
const LLOOP_Q: i32 = 1001;
const LLOOP_R: i32 = 3;
const LLOOP_T: i32 = 7;

fn lloop_kernel() -> Rv32Asm {
    let base = DATA_BASE as i32;
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S0, base);
    // z[k] = 3k + 1 for k in 0..412.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::T2, 1);
    counted_loop(&mut asm, XReg::T0, LLOOP_N + 12, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 3));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // y[k] = 2k + 7 for k in 0..400.
    asm.li(XReg::T1, base + 0x2000);
    asm.li(XReg::T2, 7);
    counted_loop(&mut asm, XReg::T0, LLOOP_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 2));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // Main loop.
    asm.push(mv(XReg::T1, XReg::S0)); // &z[k]
    asm.li(XReg::T2, base + 0x2000); // &y[k]
    asm.li(XReg::T3, base + 0x4000); // &x[k]
    asm.li(XReg::A1, LLOOP_R);
    asm.li(XReg::A2, LLOOP_T);
    asm.li(XReg::A3, LLOOP_Q);
    counted_loop(&mut asm, XReg::T0, LLOOP_N, |asm| {
        asm.push(lw(XReg::T4, 40, XReg::T1)); // z[k+10]
        asm.push(lw(XReg::T5, 44, XReg::T1)); // z[k+11]
        asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::A1));
        asm.push(mul(MulOp::Mul, XReg::T5, XReg::T5, XReg::A2));
        asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::T5));
        asm.push(lw(XReg::T6, 0, XReg::T2)); // y[k]
        asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::T6));
        asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::A3));
        asm.push(sw(XReg::T4, 0, XReg::T3));
        asm.push(addi(XReg::T1, XReg::T1, 4));
        asm.push(addi(XReg::T2, XReg::T2, 4));
        asm.push(addi(XReg::T3, XReg::T3, 4));
    });
    // Checksum.
    asm.li(XReg::T3, base + 0x4000);
    asm.li(XReg::A4, 0);
    counted_loop(&mut asm, XReg::T0, LLOOP_N, |asm| {
        asm.push(lw(XReg::T4, 0, XReg::T3));
        asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
        asm.push(addi(XReg::T3, XReg::T3, 4));
    });
    print_int(&mut asm, XReg::A4);
    exit(&mut asm);
    asm
}

fn lloop_mirror() -> String {
    let n = LLOOP_N as usize;
    let z: Vec<i32> = (0..n + 12)
        .map(|k| (3 * k as i32).wrapping_add(1))
        .collect();
    let y: Vec<i32> = (0..n).map(|k| (2 * k as i32).wrapping_add(7)).collect();
    let mut sum = 0i32;
    for k in 0..n {
        let x = z[k + 10]
            .wrapping_mul(LLOOP_R)
            .wrapping_add(z[k + 11].wrapping_mul(LLOOP_T))
            .wrapping_mul(y[k])
            .wrapping_add(LLOOP_Q);
        sum = sum.wrapping_add(x);
    }
    sum.to_string()
}

// ---------------------------------------------------------------------------
// NASA1 — one vector kernel, several passes: x[i] = 3*x[i] + y[i].
// ---------------------------------------------------------------------------

const NASA1_N: i32 = 256;
const NASA1_PASSES: i32 = 8;

fn nasa1_kernel() -> Rv32Asm {
    let base = DATA_BASE as i32;
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S0, base);
    // x[i] = 5i + 3.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::T2, 3);
    counted_loop(&mut asm, XReg::T0, NASA1_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 5));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // y[i] = i*i + 1 (an up-counter in a1 feeds the square).
    asm.li(XReg::T1, base + 0x1000);
    asm.li(XReg::A1, 0);
    counted_loop(&mut asm, XReg::T0, NASA1_N, |asm| {
        asm.push(mul(MulOp::Mul, XReg::T4, XReg::A1, XReg::A1));
        asm.push(addi(XReg::T4, XReg::T4, 1));
        asm.push(sw(XReg::T4, 0, XReg::T1));
        asm.push(addi(XReg::A1, XReg::A1, 1));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // Passes.
    asm.li(XReg::A2, 3);
    asm.li(XReg::A5, NASA1_PASSES);
    let pass = asm.label();
    asm.bind(pass);
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::T2, base + 0x1000);
    counted_loop(&mut asm, XReg::T0, NASA1_N, |asm| {
        asm.push(lw(XReg::T4, 0, XReg::T1));
        asm.push(lw(XReg::T5, 0, XReg::T2));
        asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::A2));
        asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::T5));
        asm.push(sw(XReg::T4, 0, XReg::T1));
        asm.push(addi(XReg::T1, XReg::T1, 4));
        asm.push(addi(XReg::T2, XReg::T2, 4));
    });
    asm.push(addi(XReg::A5, XReg::A5, -1));
    asm.branch_to(BranchOp::Bne, XReg::A5, XReg::ZERO, pass);
    // Checksum over x.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::A4, 0);
    counted_loop(&mut asm, XReg::T0, NASA1_N, |asm| {
        asm.push(lw(XReg::T4, 0, XReg::T1));
        asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    print_int(&mut asm, XReg::A4);
    exit(&mut asm);
    asm
}

fn nasa1_mirror() -> String {
    let n = NASA1_N as usize;
    let mut x: Vec<i32> = (0..n).map(|i| (5 * i as i32).wrapping_add(3)).collect();
    let y: Vec<i32> = (0..n)
        .map(|i| (i as i32).wrapping_mul(i as i32).wrapping_add(1))
        .collect();
    for _ in 0..NASA1_PASSES {
        for i in 0..n {
            x[i] = x[i].wrapping_mul(3).wrapping_add(y[i]);
        }
    }
    x.iter().fold(0i32, |s, &v| s.wrapping_add(v)).to_string()
}

// ---------------------------------------------------------------------------
// matrix25A — N×N integer matrix multiply, row-major, stride pointers.
// ---------------------------------------------------------------------------

const MAT_N: i32 = 20;
const MAT_STRIDE: i32 = MAT_N * 4;

fn matrix_kernel() -> Rv32Asm {
    let base = DATA_BASE as i32;
    let mut asm = Rv32Asm::new();
    // s1 = a, s2 = b, s3 = &c[next].
    asm.li(XReg::S1, base);
    asm.li(XReg::S2, base + 0x1000);
    asm.li(XReg::S3, base + 0x2000);
    // a[k] = 7k + 3, b[k] = 5k + 1, linear over all N*N entries.
    asm.push(mv(XReg::T1, XReg::S1));
    asm.li(XReg::T2, 3);
    counted_loop(&mut asm, XReg::T0, MAT_N * MAT_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 7));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    asm.push(mv(XReg::T1, XReg::S2));
    asm.li(XReg::T2, 1);
    counted_loop(&mut asm, XReg::T0, MAT_N * MAT_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 5));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // Triple loop: s4 = current a row, a5 = current b column base.
    asm.push(mv(XReg::S4, XReg::S1));
    asm.push(mv(XReg::A5, XReg::S2));
    counted_loop(&mut asm, XReg::T0, MAT_N, |asm| {
        counted_loop(asm, XReg::T1, MAT_N, |asm| {
            asm.push(mv(XReg::T2, XReg::S4)); // ap = row start
            asm.push(mv(XReg::T3, XReg::A5)); // bp = column start
            asm.li(XReg::A4, 0); // acc
            counted_loop(asm, XReg::T6, MAT_N, |asm| {
                asm.push(lw(XReg::T4, 0, XReg::T2));
                asm.push(lw(XReg::T5, 0, XReg::T3));
                asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::T5));
                asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
                asm.push(addi(XReg::T2, XReg::T2, 4));
                asm.push(addi(XReg::T3, XReg::T3, MAT_STRIDE));
            });
            asm.push(sw(XReg::A4, 0, XReg::S3));
            asm.push(addi(XReg::S3, XReg::S3, 4));
            asm.push(addi(XReg::A5, XReg::A5, 4)); // next column
        });
        asm.push(addi(XReg::S4, XReg::S4, MAT_STRIDE)); // next a row
        asm.push(mv(XReg::A5, XReg::S2)); // rewind b column
    });
    // Checksum over c.
    asm.li(XReg::T1, base + 0x2000);
    asm.li(XReg::A4, 0);
    counted_loop(&mut asm, XReg::T0, MAT_N * MAT_N, |asm| {
        asm.push(lw(XReg::T4, 0, XReg::T1));
        asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    print_int(&mut asm, XReg::A4);
    exit(&mut asm);
    asm
}

fn matrix_mirror() -> String {
    let n = MAT_N as usize;
    let a: Vec<i32> = (0..n * n).map(|k| (7 * k as i32).wrapping_add(3)).collect();
    let b: Vec<i32> = (0..n * n).map(|k| (5 * k as i32).wrapping_add(1)).collect();
    let mut sum = 0i32;
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            sum = sum.wrapping_add(acc);
        }
    }
    sum.to_string()
}

// ---------------------------------------------------------------------------
// tomcatv — Gauss-Seidel-flavoured mesh relaxation on a 16×16 grid.
// ---------------------------------------------------------------------------

const TOM_N: i32 = 16;
const TOM_SWEEPS: i32 = 8;
const TOM_STRIDE: i32 = TOM_N * 4;

fn tomcatv_kernel() -> Rv32Asm {
    let base = DATA_BASE as i32;
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S0, base);
    // g[k] = 13k + 5.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::T2, 5);
    counted_loop(&mut asm, XReg::T0, TOM_N * TOM_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 13));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    // Sweeps over the interior, row-major and in place, so updated
    // west/north neighbours feed the same sweep (Gauss-Seidel order).
    counted_loop(&mut asm, XReg::S1, TOM_SWEEPS, |asm| {
        // p = &g[1][1].
        asm.push(addi(XReg::T1, XReg::S0, TOM_STRIDE + 4));
        counted_loop(asm, XReg::T0, TOM_N - 2, |asm| {
            counted_loop(asm, XReg::A1, TOM_N - 2, |asm| {
                asm.push(lw(XReg::T4, 0, XReg::T1)); // centre
                asm.push(lw(XReg::T5, -4, XReg::T1)); // west
                asm.push(lw(XReg::T6, 4, XReg::T1)); // east
                asm.push(alu(AluOp::Add, XReg::T5, XReg::T5, XReg::T6));
                asm.push(lw(XReg::T6, -TOM_STRIDE, XReg::T1)); // north
                asm.push(alu(AluOp::Add, XReg::T5, XReg::T5, XReg::T6));
                asm.push(lw(XReg::T6, TOM_STRIDE, XReg::T1)); // south
                asm.push(alu(AluOp::Add, XReg::T5, XReg::T5, XReg::T6));
                asm.push(shift(ShiftImmOp::Srai, XReg::T5, XReg::T5, 2));
                asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::T5));
                asm.push(sw(XReg::T4, 0, XReg::T1));
                asm.push(addi(XReg::T1, XReg::T1, 4));
            });
            // Skip the last column of this row and the first of the next.
            asm.push(addi(XReg::T1, XReg::T1, 8));
        });
    });
    // Checksum over the whole grid.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::A4, 0);
    counted_loop(&mut asm, XReg::T0, TOM_N * TOM_N, |asm| {
        asm.push(lw(XReg::T4, 0, XReg::T1));
        asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    print_int(&mut asm, XReg::A4);
    exit(&mut asm);
    asm
}

fn tomcatv_mirror() -> String {
    let n = TOM_N as usize;
    let mut g: Vec<i32> = (0..n * n)
        .map(|k| (13 * k as i32).wrapping_add(5))
        .collect();
    for _ in 0..TOM_SWEEPS {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let at = i * n + j;
                let sum = g[at - 1]
                    .wrapping_add(g[at + 1])
                    .wrapping_add(g[at - n])
                    .wrapping_add(g[at + n]);
                g[at] = g[at].wrapping_add(sum >> 2);
            }
        }
    }
    g.iter().fold(0i32, |s, &v| s.wrapping_add(v)).to_string()
}

// ---------------------------------------------------------------------------
// NASA7 — seven small vector kernels over u and v, repeated.
// ---------------------------------------------------------------------------

const N7_N: i32 = 96;
const N7_OUTER: i32 = 4;

fn nasa7_kernel() -> Rv32Asm {
    let base = DATA_BASE as i32;
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S0, base); // u
    asm.li(XReg::S1, base + 0x1000); // v
                                     // u[i] = 2i + 1, v[i] = 5i + 2.
    asm.push(mv(XReg::T1, XReg::S0));
    asm.li(XReg::T2, 1);
    counted_loop(&mut asm, XReg::T0, N7_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 2));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    asm.push(mv(XReg::T1, XReg::S1));
    asm.li(XReg::T2, 2);
    counted_loop(&mut asm, XReg::T0, N7_N, |asm| {
        asm.push(sw(XReg::T2, 0, XReg::T1));
        asm.push(addi(XReg::T2, XReg::T2, 5));
        asm.push(addi(XReg::T1, XReg::T1, 4));
    });
    asm.li(XReg::S2, 0); // running checksum
    asm.li(XReg::A2, 3); // shared small constant
    counted_loop(&mut asm, XReg::S3, N7_OUTER, |asm| {
        // 1. dot = Σ u[i]*v[i]  → a4.
        asm.push(mv(XReg::T1, XReg::S0));
        asm.push(mv(XReg::T2, XReg::S1));
        asm.li(XReg::A4, 0);
        counted_loop(asm, XReg::T0, N7_N, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(lw(XReg::T5, 0, XReg::T2));
            asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::T5));
            asm.push(alu(AluOp::Add, XReg::A4, XReg::A4, XReg::T4));
            asm.push(addi(XReg::T1, XReg::T1, 4));
            asm.push(addi(XReg::T2, XReg::T2, 4));
        });
        asm.push(alu(AluOp::Xor, XReg::S2, XReg::S2, XReg::A4));
        // 2. scale: u[i] = u[i]*3 + 1.
        asm.push(mv(XReg::T1, XReg::S0));
        counted_loop(asm, XReg::T0, N7_N, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(mul(MulOp::Mul, XReg::T4, XReg::T4, XReg::A2));
            asm.push(addi(XReg::T4, XReg::T4, 1));
            asm.push(sw(XReg::T4, 0, XReg::T1));
            asm.push(addi(XReg::T1, XReg::T1, 4));
        });
        // 3. prefix: v[i] += v[i-1].
        asm.push(addi(XReg::T1, XReg::S1, 4));
        counted_loop(asm, XReg::T0, N7_N - 1, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(lw(XReg::T5, -4, XReg::T1));
            asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::T5));
            asm.push(sw(XReg::T4, 0, XReg::T1));
            asm.push(addi(XReg::T1, XReg::T1, 4));
        });
        // 4. max over u, branchless: m += (m < x) * (x - m)  → a3.
        asm.push(mv(XReg::T1, XReg::S0));
        asm.li(XReg::A3, i32::MIN);
        counted_loop(asm, XReg::T0, N7_N, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(alu(AluOp::Sub, XReg::T5, XReg::T4, XReg::A3));
            asm.push(alu(AluOp::Slt, XReg::T6, XReg::A3, XReg::T4));
            asm.push(mul(MulOp::Mul, XReg::T5, XReg::T5, XReg::T6));
            asm.push(alu(AluOp::Add, XReg::A3, XReg::A3, XReg::T5));
            asm.push(addi(XReg::T1, XReg::T1, 4));
        });
        asm.push(alu(AluOp::Xor, XReg::S2, XReg::S2, XReg::A3));
        // 5. fma: u[i] += v[i]*dot.
        asm.push(mv(XReg::T1, XReg::S0));
        asm.push(mv(XReg::T2, XReg::S1));
        counted_loop(asm, XReg::T0, N7_N, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(lw(XReg::T5, 0, XReg::T2));
            asm.push(mul(MulOp::Mul, XReg::T5, XReg::T5, XReg::A4));
            asm.push(alu(AluOp::Add, XReg::T4, XReg::T4, XReg::T5));
            asm.push(sw(XReg::T4, 0, XReg::T1));
            asm.push(addi(XReg::T1, XReg::T1, 4));
            asm.push(addi(XReg::T2, XReg::T2, 4));
        });
        // 6. stride-2 sum of u → a5.
        asm.push(mv(XReg::T1, XReg::S0));
        asm.li(XReg::A5, 0);
        counted_loop(asm, XReg::T0, N7_N / 2, |asm| {
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(alu(AluOp::Add, XReg::A5, XReg::A5, XReg::T4));
            asm.push(addi(XReg::T1, XReg::T1, 8));
        });
        asm.push(alu(AluOp::Xor, XReg::S2, XReg::S2, XReg::A5));
        // 7. Horner: h = h*3 + u[i] → a5.
        asm.push(mv(XReg::T1, XReg::S0));
        asm.li(XReg::A5, 0);
        counted_loop(asm, XReg::T0, N7_N, |asm| {
            asm.push(mul(MulOp::Mul, XReg::A5, XReg::A5, XReg::A2));
            asm.push(lw(XReg::T4, 0, XReg::T1));
            asm.push(alu(AluOp::Add, XReg::A5, XReg::A5, XReg::T4));
            asm.push(addi(XReg::T1, XReg::T1, 4));
        });
        asm.push(alu(AluOp::Xor, XReg::S2, XReg::S2, XReg::A5));
    });
    print_int(&mut asm, XReg::S2);
    exit(&mut asm);
    asm
}

fn nasa7_mirror() -> String {
    let n = N7_N as usize;
    let mut u: Vec<i32> = (0..n).map(|i| (2 * i as i32).wrapping_add(1)).collect();
    let mut v: Vec<i32> = (0..n).map(|i| (5 * i as i32).wrapping_add(2)).collect();
    let mut check = 0i32;
    for _ in 0..N7_OUTER {
        let mut dot = 0i32;
        for i in 0..n {
            dot = dot.wrapping_add(u[i].wrapping_mul(v[i]));
        }
        check ^= dot;
        for x in u.iter_mut() {
            *x = x.wrapping_mul(3).wrapping_add(1);
        }
        for i in 1..n {
            v[i] = v[i].wrapping_add(v[i - 1]);
        }
        let mut m = i32::MIN;
        for &x in &u {
            let d = x.wrapping_sub(m);
            let t = i32::from(m < x);
            m = m.wrapping_add(d.wrapping_mul(t));
        }
        check ^= m;
        for i in 0..n {
            u[i] = u[i].wrapping_add(v[i].wrapping_mul(dot));
        }
        let mut s = 0i32;
        for i in (0..n).step_by(2) {
            s = s.wrapping_add(u[i]);
        }
        check ^= s;
        let mut h = 0i32;
        for &x in &u {
            h = h.wrapping_mul(3).wrapping_add(x);
        }
        check ^= h;
    }
    check.to_string()
}

// ---------------------------------------------------------------------------
// eightq — eight-queens backtracking search, iterative.
// ---------------------------------------------------------------------------

const QUEENS_N: i32 = 8;

fn eightq_kernel() -> Rv32Asm {
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S0, DATA_BASE as i32); // cur[] array
    asm.li(XReg::S1, 0); // solution count
    asm.li(XReg::T0, 0); // row
    asm.push(sw(XReg::ZERO, 0, XReg::S0)); // cur[0] = 0
    asm.li(XReg::A1, QUEENS_N);
    let main_loop = asm.label();
    let try_place = asm.label();
    let check = asm.label();
    let conflict = asm.label();
    let place = asm.label();
    let descend = asm.label();
    let done = asm.label();
    asm.bind(main_loop);
    // t1 = cur[row].
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T0, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(lw(XReg::T1, 0, XReg::T3));
    asm.branch_to(BranchOp::Blt, XReg::T1, XReg::A1, try_place);
    // Column exhausted: backtrack (or finish at row 0).
    asm.branch_to(BranchOp::Beq, XReg::T0, XReg::ZERO, done);
    asm.push(addi(XReg::T0, XReg::T0, -1));
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T0, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(lw(XReg::T1, 0, XReg::T3));
    asm.push(addi(XReg::T1, XReg::T1, 1));
    asm.push(sw(XReg::T1, 0, XReg::T3));
    asm.jal_to(XReg::ZERO, main_loop);
    // Scan rows 0..row for a conflict with column t1.
    asm.bind(try_place);
    asm.li(XReg::T2, 0); // i
    asm.bind(check);
    asm.branch_to(BranchOp::Beq, XReg::T2, XReg::T0, place);
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T2, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(lw(XReg::T6, 0, XReg::T3)); // cur[i]
    asm.push(alu(AluOp::Sub, XReg::T4, XReg::T6, XReg::T1));
    asm.branch_to(BranchOp::Beq, XReg::T4, XReg::ZERO, conflict);
    asm.push(shift(ShiftImmOp::Srai, XReg::T5, XReg::T4, 31));
    asm.push(alu(AluOp::Xor, XReg::T4, XReg::T4, XReg::T5));
    asm.push(alu(AluOp::Sub, XReg::T4, XReg::T4, XReg::T5)); // |d|
    asm.push(alu(AluOp::Sub, XReg::T5, XReg::T0, XReg::T2)); // row - i
    asm.branch_to(BranchOp::Beq, XReg::T4, XReg::T5, conflict);
    asm.push(addi(XReg::T2, XReg::T2, 1));
    asm.jal_to(XReg::ZERO, check);
    // Conflict: advance this row's column.
    asm.bind(conflict);
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T0, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(addi(XReg::T1, XReg::T1, 1));
    asm.push(sw(XReg::T1, 0, XReg::T3));
    asm.jal_to(XReg::ZERO, main_loop);
    // Safe square: recurse down, or count a full placement.
    asm.bind(place);
    asm.push(addi(XReg::T5, XReg::A1, -1));
    asm.branch_to(BranchOp::Bne, XReg::T0, XReg::T5, descend);
    asm.push(addi(XReg::S1, XReg::S1, 1));
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T0, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(addi(XReg::T1, XReg::T1, 1));
    asm.push(sw(XReg::T1, 0, XReg::T3));
    asm.jal_to(XReg::ZERO, main_loop);
    asm.bind(descend);
    asm.push(addi(XReg::T0, XReg::T0, 1));
    asm.push(shift(ShiftImmOp::Slli, XReg::T3, XReg::T0, 2));
    asm.push(alu(AluOp::Add, XReg::T3, XReg::T3, XReg::S0));
    asm.push(sw(XReg::ZERO, 0, XReg::T3));
    asm.jal_to(XReg::ZERO, main_loop);
    asm.bind(done);
    print_int(&mut asm, XReg::S1);
    exit(&mut asm);
    asm
}

fn eightq_mirror() -> String {
    let n = QUEENS_N;
    let mut cur = [0i32; QUEENS_N as usize];
    let mut row = 0usize;
    let mut count = 0i32;
    loop {
        let c = cur[row];
        if c >= n {
            if row == 0 {
                break;
            }
            row -= 1;
            cur[row] += 1;
            continue;
        }
        let mut conflict = false;
        for (i, &placed) in cur.iter().enumerate().take(row) {
            let d = (placed - c).abs();
            if d == 0 || d == (row - i) as i32 {
                conflict = true;
                break;
            }
        }
        if conflict {
            cur[row] += 1;
        } else if row as i32 == n - 1 {
            count += 1;
            cur[row] += 1;
        } else {
            row += 1;
            cur[row] = 0;
        }
    }
    count.to_string()
}

// ---------------------------------------------------------------------------
// espresso — LCG-driven eight-way dispatcher (branchy integer code).
// ---------------------------------------------------------------------------

const ESP_ITERS: i32 = 4000;
const ESP_MUL: i32 = 1_103_515_245;
const ESP_INC: i32 = 12_345;

fn espresso_kernel() -> Rv32Asm {
    let mut asm = Rv32Asm::new();
    asm.li(XReg::S2, ESP_INC); // x
    asm.li(XReg::S3, 0); // acc
    asm.li(XReg::A1, ESP_MUL);
    asm.li(XReg::A2, ESP_INC);
    asm.li(XReg::A3, 5);
    let cases: Vec<_> = (0..8).map(|_| asm.label()).collect();
    let join = asm.label();
    counted_loop(&mut asm, XReg::T0, ESP_ITERS, |asm| {
        asm.push(mul(MulOp::Mul, XReg::S2, XReg::S2, XReg::A1));
        asm.push(alu(AluOp::Add, XReg::S2, XReg::S2, XReg::A2));
        asm.push(shift(ShiftImmOp::Srli, XReg::T2, XReg::S2, 16));
        asm.push(imm_op(AluImmOp::Andi, XReg::T2, XReg::T2, 7));
        asm.branch_to(BranchOp::Beq, XReg::T2, XReg::ZERO, cases[0]);
        for (k, &case) in cases.iter().enumerate().skip(1).take(6) {
            asm.li(XReg::T3, k as i32);
            asm.branch_to(BranchOp::Beq, XReg::T2, XReg::T3, case);
        }
        // Case 7 falls through: acc = acc*5 + x.
        asm.bind(cases[7]);
        asm.push(mul(MulOp::Mul, XReg::S3, XReg::S3, XReg::A3));
        asm.push(alu(AluOp::Add, XReg::S3, XReg::S3, XReg::S2));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[0]);
        asm.push(alu(AluOp::Add, XReg::S3, XReg::S3, XReg::S2));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[1]);
        asm.push(alu(AluOp::Xor, XReg::S3, XReg::S3, XReg::S2));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[2]);
        asm.push(shift(ShiftImmOp::Slli, XReg::S3, XReg::S3, 1));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[3]);
        asm.push(alu(AluOp::Sub, XReg::S3, XReg::S3, XReg::S2));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[4]);
        asm.push(imm_op(AluImmOp::Andi, XReg::T3, XReg::S2, 255));
        asm.push(alu(AluOp::Or, XReg::S3, XReg::S3, XReg::T3));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[5]);
        asm.push(imm_op(AluImmOp::Ori, XReg::T3, XReg::S2, 3));
        asm.push(alu(AluOp::And, XReg::S3, XReg::S3, XReg::T3));
        asm.jal_to(XReg::ZERO, join);
        asm.bind(cases[6]);
        asm.push(shift(ShiftImmOp::Srli, XReg::T3, XReg::S2, 3));
        asm.push(alu(AluOp::Add, XReg::S3, XReg::S3, XReg::T3));
        asm.bind(join);
    });
    print_int(&mut asm, XReg::S3);
    exit(&mut asm);
    asm
}

fn espresso_mirror() -> String {
    let mut x = ESP_INC as u32;
    let mut acc = 0u32;
    for _ in 0..ESP_ITERS {
        x = x.wrapping_mul(ESP_MUL as u32).wrapping_add(ESP_INC as u32);
        match (x >> 16) & 7 {
            0 => acc = acc.wrapping_add(x),
            1 => acc ^= x,
            2 => acc <<= 1,
            3 => acc = acc.wrapping_sub(x),
            4 => acc |= x & 255,
            5 => acc &= x | 3,
            6 => acc = acc.wrapping_add(x >> 3),
            _ => acc = acc.wrapping_mul(5).wrapping_add(x),
        }
    }
    (acc as i32).to_string()
}

// ---------------------------------------------------------------------------
// fpppp — one huge straight-line block, re-executed in a short loop.
// ---------------------------------------------------------------------------

const FPPPP_OPS: usize = 160;
const FPPPP_ITERS: i32 = 72;

/// The register pool the block computes over (13 registers).
const FPPPP_POOL: [XReg; 13] = [
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

/// The block's op list: `(kind, rd, rs1, rs2)` indices into the pool,
/// from a fixed-seed PCG-style generator shared with the mirror.
fn fpppp_ops() -> Vec<(usize, usize, usize, usize)> {
    let mut state: u64 = 0xF999_ABCD_2468_1357;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..FPPPP_OPS)
        .map(|_| (next() % 6, next() % 13, next() % 13, next() % 13))
        .collect()
}

fn fpppp_kernel() -> Rv32Asm {
    let mut asm = Rv32Asm::new();
    for (i, reg) in FPPPP_POOL.iter().enumerate() {
        asm.li(*reg, (i as i32 + 1).wrapping_mul(0x1E37_79B1));
    }
    let ops = fpppp_ops();
    counted_loop(&mut asm, XReg::S1, FPPPP_ITERS, |asm| {
        for &(kind, rd, rs1, rs2) in &ops {
            let (rd, rs1, rs2) = (FPPPP_POOL[rd], FPPPP_POOL[rs1], FPPPP_POOL[rs2]);
            let instr = match kind {
                0 => alu(AluOp::Add, rd, rs1, rs2),
                1 => alu(AluOp::Sub, rd, rs1, rs2),
                2 => alu(AluOp::Xor, rd, rs1, rs2),
                3 => alu(AluOp::Or, rd, rs1, rs2),
                4 => alu(AluOp::And, rd, rs1, rs2),
                _ => mul(MulOp::Mul, rd, rs1, rs2),
            };
            asm.push(instr);
        }
    });
    // Fold the pool into one checksum.
    asm.li(XReg::S2, 0);
    for reg in FPPPP_POOL {
        asm.push(alu(AluOp::Xor, XReg::S2, XReg::S2, reg));
    }
    print_int(&mut asm, XReg::S2);
    exit(&mut asm);
    asm
}

fn fpppp_mirror() -> String {
    let mut regs = [0u32; 13];
    for (i, reg) in regs.iter_mut().enumerate() {
        *reg = (i as u32 + 1).wrapping_mul(0x1E37_79B1);
    }
    let ops = fpppp_ops();
    for _ in 0..FPPPP_ITERS {
        for &(kind, rd, rs1, rs2) in &ops {
            let (a, b) = (regs[rs1], regs[rs2]);
            regs[rd] = match kind {
                0 => a.wrapping_add(b),
                1 => a.wrapping_sub(b),
                2 => a ^ b,
                3 => a | b,
                4 => a & b,
                _ => a.wrapping_mul(b),
            };
        }
    }
    let check = regs.iter().fold(0u32, |s, &v| s ^ v);
    (check as i32).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_build_check_and_pad_to_paper_sizes() {
        for workload in Rv32Workload::ALL {
            let built = workload
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let target = (workload.paper_text_bytes() as usize).div_ceil(4) * 4;
            assert_eq!(
                built.image_i.text_size() as usize,
                target,
                "{}: I text not padded to paper size",
                built.name
            );
            assert!(
                built.image_c.text_size() < built.image_i.text_size(),
                "{}: RVC text not denser",
                built.name
            );
            assert!(
                built.trace_i.len() >= 10_000,
                "{}: only {} dynamic instructions",
                built.name,
                built.trace_i.len()
            );
            assert_eq!(
                built.trace_i.len(),
                built.trace_c.len(),
                "{}: encodings retired different instruction counts",
                built.name
            );
            assert!(!built.output.is_empty());
        }
    }

    #[test]
    fn names_and_order_match_the_mips_side() {
        let names: Vec<_> = Rv32Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "NASA7",
                "matrix25A",
                "fpppp",
                "espresso",
                "NASA1",
                "eightq",
                "tomcatv",
                "lloopO1"
            ]
        );
    }

    #[test]
    fn eightq_counts_ninety_two_solutions() {
        assert_eq!(eightq_mirror(), "92");
    }
}
