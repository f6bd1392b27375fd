//! Benchmark programs for the CCRP reproduction.
//!
//! The paper evaluates on DECstation 3100 binaries and `pixie` traces we
//! do not have. This crate rebuilds that workload suite:
//!
//! * [`TracedWorkload`] — the eight programs of Tables 1–13, written as
//!   real MIPS kernels, assembled by `ccrp-asm` and executed under
//!   `ccrp-emu` to capture traces. Every kernel prints a self-check
//!   value verified against a Rust replication.
//! * [`figure5_corpus`] — the ten static programs of Figure 5 at the
//!   paper's exact object sizes, with synthesized-but-realistic MIPS
//!   bodies ([`codegen`]).
//! * [`preselected_code`] — the corpus-trained Preselected Bounded
//!   Huffman code used by every performance simulation.
//!
//! # Examples
//!
//! ```no_run
//! use ccrp_workloads::TracedWorkload;
//!
//! let eightq = TracedWorkload::Eightq.build()?;
//! println!(
//!     "{}: {} dynamic instructions over {} bytes of text",
//!     eightq.name,
//!     eightq.dynamic_instructions(),
//!     eightq.text.len(),
//! );
//! # Ok::<(), ccrp_workloads::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
mod corpus;
mod programs;
mod workload;

pub use codegen::{generate_text, CodeProfile};
pub use corpus::{
    corpus_histogram, corpus_positional_histogram, figure5_corpus, preselected_code,
    preselected_positional_code, CorpusProgram,
};
pub use workload::{TracedWorkload, Workload, WorkloadError};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every traced workload assembles, runs, self-checks, and produces
    /// a trace in the paper's 10K–1M dynamic-instruction range.
    #[test]
    fn all_workloads_build() {
        for wl in TracedWorkload::ALL {
            let w = wl.build().unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
            let n = w.dynamic_instructions();
            assert!(
                (10_000..=1_000_000).contains(&n),
                "{}: {n} dynamic instructions outside the paper's range",
                w.name
            );
            assert!(w.text.len() as u32 >= wl.paper_text_bytes());
        }
    }
}
