use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use ccrp_asm::{assemble, AsmError, ProgramImage};
use ccrp_emu::{EmuError, Machine, ProgramTrace, TraceSink};

use crate::codegen::{generate_text, CodeProfile};
use crate::programs;

/// Errors while building a workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The kernel source failed to assemble (a bug in this crate).
    Asm(AsmError),
    /// The kernel faulted during trace capture.
    Emu(EmuError),
    /// The kernel ran but printed the wrong answer.
    WrongOutput {
        /// Which workload failed.
        name: &'static str,
        /// What it should have printed.
        expected: String,
        /// What it printed.
        actual: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Asm(e) => write!(f, "workload kernel failed to assemble: {e}"),
            WorkloadError::Emu(e) => write!(f, "workload kernel faulted: {e}"),
            WorkloadError::WrongOutput {
                name,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "workload `{name}` printed `{actual}`, expected `{expected}`"
                )
            }
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Asm(e) => Some(e),
            WorkloadError::Emu(e) => Some(e),
            WorkloadError::WrongOutput { .. } => None,
        }
    }
}

impl From<AsmError> for WorkloadError {
    fn from(e: AsmError) -> Self {
        WorkloadError::Asm(e)
    }
}

impl From<EmuError> for WorkloadError {
    fn from(e: EmuError) -> Self {
        WorkloadError::Emu(e)
    }
}

/// A built benchmark: its executable image, captured trace, and the
/// full-size program text used for the compression experiments.
///
/// `T` is the form the trace is kept in: the emulator's per-fetch
/// [`ProgramTrace`], as [`TracedWorkload::build`] returns it, or any
/// other sink the run streamed into ([`TracedWorkload::build_into`]),
/// typically a compacted form a caller keeps instead.
#[derive(Debug, Clone)]
pub struct Workload<T = ProgramTrace> {
    /// Display name as in the paper's tables.
    pub name: &'static str,
    /// The assembled kernel (the part that executes).
    pub image: ProgramImage,
    /// The instruction/data trace captured by the emulator.
    pub trace: T,
    /// Program text sized like the paper's binary: the kernel followed
    /// by synthesized "library" code, for the static-compression runs.
    /// The executed kernel occupies the front, so every traced address
    /// falls inside it.
    pub text: Vec<u8>,
}

impl Workload {
    /// Dynamic instruction count of the captured trace.
    pub fn dynamic_instructions(&self) -> usize {
        self.trace.len()
    }
}

/// The eight programs the paper traces through the system simulator
/// (Tables 1–13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracedWorkload {
    /// Eight-queens backtracking search.
    Eightq,
    /// 25×25 double matrix multiply.
    Matrix25A,
    /// Livermore loop 1.
    Lloop01,
    /// Mesh relaxation kernel.
    Tomcatv,
    /// The seven NAS kernels.
    Nasa7,
    /// A single NAS-style vector kernel.
    Nasa1,
    /// Branchy logic-minimizer-style dispatcher.
    Espresso,
    /// Huge straight-line FP basic block.
    Fpppp,
}

impl TracedWorkload {
    /// All traced workloads in the paper's table order.
    pub const ALL: [TracedWorkload; 8] = [
        TracedWorkload::Nasa7,
        TracedWorkload::Matrix25A,
        TracedWorkload::Fpppp,
        TracedWorkload::Espresso,
        TracedWorkload::Nasa1,
        TracedWorkload::Eightq,
        TracedWorkload::Tomcatv,
        TracedWorkload::Lloop01,
    ];

    /// The name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            TracedWorkload::Eightq => "eightq",
            TracedWorkload::Matrix25A => "matrix25A",
            TracedWorkload::Lloop01 => "lloopO1",
            TracedWorkload::Tomcatv => "tomcatv",
            TracedWorkload::Nasa7 => "NASA7",
            TracedWorkload::Nasa1 => "NASA1",
            TracedWorkload::Espresso => "espresso",
            TracedWorkload::Fpppp => "fpppp",
        }
    }

    /// Target size of the full program text in bytes. For the Figure-5
    /// programs these are the paper's exact object sizes; for the
    /// SPEC/NAS programs, plausible 1992 binary sizes within the paper's
    /// stated 4 KB–190 KB range.
    pub fn paper_text_bytes(self) -> u32 {
        match self {
            TracedWorkload::Eightq => 4020,
            TracedWorkload::Matrix25A => 36766,
            TracedWorkload::Lloop01 => 4020,
            TracedWorkload::Tomcatv => 24576,
            TracedWorkload::Nasa7 => 90112,
            TracedWorkload::Nasa1 => 61440,
            TracedWorkload::Espresso => 176052,
            TracedWorkload::Fpppp => 122880,
        }
    }

    /// Profile for the synthesized library padding.
    fn profile(self) -> CodeProfile {
        match self {
            TracedWorkload::Eightq | TracedWorkload::Espresso => CodeProfile::integer(),
            TracedWorkload::Fpppp => CodeProfile::constant_heavy(),
            _ => CodeProfile::floating(),
        }
    }

    /// The kernel's MIPS source.
    pub fn source(self) -> String {
        match self {
            TracedWorkload::Eightq => programs::eightq::source(),
            TracedWorkload::Matrix25A => programs::matrix::source(),
            TracedWorkload::Lloop01 => programs::lloop::source(),
            TracedWorkload::Tomcatv => programs::tomcatv::source(),
            TracedWorkload::Nasa7 => programs::nasa7::source(),
            TracedWorkload::Nasa1 => programs::nasa1::source(),
            TracedWorkload::Espresso => programs::espresso::source(),
            TracedWorkload::Fpppp => programs::fpppp::source(),
        }
    }

    /// What the kernel must print (its self-check).
    pub fn expected_output(self) -> String {
        match self {
            TracedWorkload::Eightq => programs::eightq::EXPECTED_OUTPUT.to_string(),
            TracedWorkload::Matrix25A => programs::matrix::EXPECTED_OUTPUT.to_string(),
            TracedWorkload::Lloop01 => programs::lloop::expected_output(),
            TracedWorkload::Tomcatv => programs::tomcatv::expected_output(),
            TracedWorkload::Nasa7 => programs::nasa7::expected_output(),
            TracedWorkload::Nasa1 => programs::nasa1::expected_output(),
            TracedWorkload::Espresso => programs::espresso::expected_output(),
            TracedWorkload::Fpppp => programs::fpppp::expected_output(),
        }
    }

    /// Assembles the kernel without executing it (used by the static
    /// corpus, which only needs bytes).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Asm`] on kernel bugs.
    pub fn assemble_kernel(self) -> Result<ProgramImage, WorkloadError> {
        Ok(assemble(&self.source())?)
    }

    /// Kernel text plus synthesized library padding, sized to
    /// [`paper_text_bytes`](Self::paper_text_bytes). Assembles and pads
    /// afresh on every call, so timing it times that work;
    /// [`build`](Self::build) and the Figure-5 corpus share one cached
    /// copy per process instead.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Asm`] on kernel bugs.
    pub fn padded_text(self) -> Result<Vec<u8>, WorkloadError> {
        Ok(self.pad(&self.assemble_kernel()?))
    }

    /// Pads the assembled kernel's text to the paper's size.
    fn pad(self, image: &ProgramImage) -> Vec<u8> {
        pad_text(
            image.text_bytes(),
            self.paper_text_bytes(),
            self.profile(),
            self.seed(),
        )
    }

    /// The kernel assembled and padded once per process, shared by
    /// [`build_into`](Self::build_into) and the Figure-5 corpus.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Asm`] on kernel bugs.
    pub(crate) fn kernel(self) -> Result<&'static Kernel, WorkloadError> {
        static KERNELS: [OnceLock<Result<Kernel, AsmError>>; TracedWorkload::ALL.len()] =
            [const { OnceLock::new() }; TracedWorkload::ALL.len()];
        KERNELS[self as usize]
            .get_or_init(|| {
                let image = assemble(&self.source())?;
                let text = self.pad(&image);
                Ok(Kernel { image, text })
            })
            .as_ref()
            .map_err(|e| WorkloadError::Asm(e.clone()))
    }

    fn seed(self) -> u64 {
        // Stable per-workload seed (never derived from hashes that could
        // change between Rust releases).
        match self {
            TracedWorkload::Eightq => 0xE1,
            TracedWorkload::Matrix25A => 0xA2,
            TracedWorkload::Lloop01 => 0x13,
            TracedWorkload::Tomcatv => 0x7C,
            TracedWorkload::Nasa7 => 0x77,
            TracedWorkload::Nasa1 => 0x71,
            TracedWorkload::Espresso => 0xE5,
            TracedWorkload::Fpppp => 0xF4,
        }
    }

    /// Assembles the kernel (once per process), executes it under the
    /// emulator capturing the per-fetch trace, checks the printed
    /// answer, and attaches the padded text —
    /// [`build_into`](Self::build_into) with a [`ProgramTrace`] sink.
    ///
    /// # Errors
    ///
    /// Assembly or emulation failures, or a wrong self-check answer —
    /// all of which indicate bugs in this crate, surfaced loudly.
    pub fn build(self) -> Result<Workload, WorkloadError> {
        self.build_into()
    }

    /// As [`build`](Self::build), but the run's events go to a fresh
    /// sink of type `S`, which the workload keeps as its trace — so a
    /// caller that wants a compacted trace can build it while the
    /// kernel runs instead of recording every fetch first.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn build_into<S: TraceSink + Default>(self) -> Result<Workload<S>, WorkloadError> {
        let kernel = self.kernel()?;
        let mut trace = S::default();
        let mut machine = Machine::new(&kernel.image);
        machine.run(&mut trace)?;
        let expected = self.expected_output();
        if machine.output() != expected {
            return Err(WorkloadError::WrongOutput {
                name: self.name(),
                expected,
                actual: machine.output().to_string(),
            });
        }
        Ok(Workload {
            name: self.name(),
            image: kernel.image.clone(),
            trace,
            text: kernel.text.clone(),
        })
    }
}

/// A traced kernel as [`TracedWorkload::kernel`] caches it.
#[derive(Debug)]
pub(crate) struct Kernel {
    /// The assembled kernel.
    pub(crate) image: ProgramImage,
    /// Its text followed by the synthesized library padding.
    pub(crate) text: Vec<u8>,
}

/// Appends synthesized library code after the kernel up to
/// `target_bytes` (rounded up to a word; kernels larger than the target
/// are kept whole).
fn pad_text(kernel: &[u8], target_bytes: u32, profile: CodeProfile, seed: u64) -> Vec<u8> {
    let target = (target_bytes as usize).div_ceil(4) * 4;
    let mut text = kernel.to_vec();
    if text.len() < target {
        let filler = generate_text(&profile, target - text.len(), seed);
        text.extend_from_slice(&filler);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eightq_builds_and_checks() {
        let w = TracedWorkload::Eightq.build().expect("eightq builds");
        assert!(w.dynamic_instructions() > 10_000);
        assert!(w.dynamic_instructions() < 2_000_000);
        assert_eq!(w.text.len(), 4020);
        // Kernel occupies the front of the padded text.
        assert_eq!(&w.text[..w.image.text_bytes().len()], w.image.text_bytes());
    }

    #[test]
    fn traces_stay_inside_kernels() {
        for wl in [TracedWorkload::Eightq, TracedWorkload::Lloop01] {
            let w = wl.build().expect("builds");
            let kernel_end = w.image.text_bytes().len() as u32;
            for (pc, _) in w.trace.iter() {
                assert!(pc < kernel_end, "{}: pc {pc:#x} outside kernel", w.name);
            }
        }
    }

    #[test]
    fn cached_kernels_match_fresh_builds() {
        for wl in TracedWorkload::ALL {
            let kernel = wl.kernel().expect("assembles");
            assert_eq!(kernel.image, wl.assemble_kernel().expect("assembles"));
            assert_eq!(kernel.text, wl.padded_text().expect("assembles"));
        }
    }

    #[test]
    fn names_are_paper_names() {
        let names: Vec<&str> = TracedWorkload::ALL.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"NASA7"));
        assert!(names.contains(&"espresso"));
        assert_eq!(names.len(), 8);
    }
}
