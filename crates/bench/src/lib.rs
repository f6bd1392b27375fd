//! Experiment harness for the CCRP reproduction.
//!
//! Every table and figure in the evaluation of Wolfe & Chanin
//! (MICRO-25 1992) has a regenerator here: one [`Experiment`] that
//! [`runner::run`] sweeps into structured rows (so tests can assert the
//! paper's claims) and that `ccrp-tools sweep --experiment <name>
//! --tables` prints as the paper's table:
//!
//! | Paper artifact | Experiment | Rows |
//! |---|---|---|
//! | Figure 5 | [`Experiment::Fig5`] (`fig5`) | [`experiments::fig5::Fig5Row`] |
//! | Tables 1–8 | [`Experiment::Tables1To8`] (`tables1_8`) | [`experiments::perf::PerfPoint`] |
//! | Tables 9–10 | [`Experiment::Tables9To10`] (`tables9_10`) | [`experiments::clb::ClbRow`] |
//! | Figure 9 | [`Experiment::Fig9`] (`fig9`) | [`experiments::perf::PerfPoint`] |
//! | Tables 11–13 | [`Experiment::Tables11To13`] (`tables11_13`) | [`experiments::dcache::DcacheRow`] |
//! | §3.2/§3.4/Fig. 1 ablations | — | [`experiments::ablate`] (`cargo bench --bench ablations`) |
//!
//! The expensive part — assembling, executing, and compressing the eight
//! workloads, and capturing each one's fetch trace — happens once per
//! process through [`suite::suite`]. [`runner::run_all`] sweeps several
//! experiments with one replay per workload.
//!
//! The [`runner`] module decomposes each experiment into independent
//! (workload, configuration) cells and sweeps them across a worker
//! pool; [`render`] turns the resulting rows into the paper-style text
//! tables, and [`json::Json`] serializes them into the machine-readable
//! `BENCH_<experiment>.json` results files `ccrp-tools sweep` writes.
//! The [`report`] module is the serialization face of the
//! observability layer: the [`ToJson`] trait covers the simulator's
//! counters, the metric registry and every report, and
//! [`chrome_trace`] exports probe event logs as Chrome trace-event
//! JSON for Perfetto.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod codecs;
pub mod difftest;
pub mod experiments;
pub mod faultsim;
pub mod isa_compare;
pub mod json;
pub mod render;
pub mod report;
pub mod runner;
pub mod servesim;
mod suite;
mod table;

pub use report::{chrome_trace, ToJson};
pub use runner::{available_jobs, Engine, Experiment, SweepOptions, SweepReport};
pub use suite::{suite, suite_with_jobs, Prepared, Suite};
pub use table::Table;

/// Formats a ratio the way the paper's tables print "Relative
/// Performance" (three decimals).
pub fn fmt_rel(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a rate as a percentage with two decimals, as in the paper's
/// "Cache Miss Rate" columns.
pub fn fmt_pct(rate: f64) -> String {
    format!("{:.2}%", rate * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_table_style() {
        assert_eq!(fmt_rel(0.9764), "0.976");
        assert_eq!(fmt_pct(0.0513), "5.13%");
    }
}
