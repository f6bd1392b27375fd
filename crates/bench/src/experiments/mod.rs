//! One module per paper table/figure (plus ablations). The table and
//! figure modules hold the row types and parameters that
//! [`runner`](crate::runner) sweeps and folds into, and the tests that
//! check the paper's claims against a sweep's rows; [`ablate`] computes
//! the ablation studies directly.

pub mod ablate;
pub mod clb;
pub mod dcache;
pub mod fig5;
pub mod perf;
