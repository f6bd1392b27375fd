//! Trace-driven system simulation for the CCRP experiments (§4 of
//! Wolfe & Chanin, MICRO-25 1992).
//!
//! This crate supplies everything around the [`ccrp`] core needed to
//! regenerate the paper's evaluation:
//!
//! * [`ICache`] — the direct-mapped, 32-byte-line on-chip instruction
//!   cache (256 B–4 KB);
//! * [`MemoryModel`] — the EPROM / Burst EPROM / static-column DRAM
//!   timings of §4.2.1, implementing [`ccrp::MemoryTiming`];
//! * [`DataCacheModel`] — the analytical data-side cost of §4.2.4;
//! * [`Simulation`] — the single simulation entry point: a
//!   [`SystemConfig`] plus optional probes and budget, executed over a
//!   live per-fetch trace or a captured [`AccessTrace`], reporting the
//!   paper's three metrics: relative execution time ("Relative
//!   Performance"), instruction-cache miss rate, and relative memory
//!   traffic;
//! * [`AccessTrace`] — a run-compacted, serializable fetch trace that
//!   replays to bit-identical results, so a sweep captures each
//!   workload once and replays it for every configuration
//!   ([`Simulation::replay_sweep`]).
//!
//! A processor runs over a trace in one of two loops, both shared by
//! the standard processor and the CCRP, which differ only in the miss
//! path they plug in: a live trace is stepped fetch by fetch, and a
//! captured one is reduced to the I-cache misses of each cache size and
//! replayed over those misses alone.
//!
//! # Examples
//!
//! ```
//! use ccrp::CompressedImage;
//! use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
//! use ccrp_sim::{AccessTrace, MemoryModel, Simulation, SystemConfig};
//!
//! let text = vec![0u8; 2048];
//! let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
//! let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
//! // A trace looping over the program twice, no data accesses.
//! let trace: Vec<(u32, u8)> =
//!     (0..2).flat_map(|_| (0..2048u32).step_by(4)).map(|pc| (pc, 0)).collect();
//! let config = SystemConfig::new()
//!     .with_cache_bytes(256)
//!     .with_memory(MemoryModel::Eprom);
//! let result = Simulation::new(config).compare(&image, trace)?;
//! assert!(result.memory_traffic_ratio() < 1.0);
//!
//! // Capture once, replay for many configurations: only the misses
//! // replay per configuration.
//! let captured = AccessTrace::capture(
//!     (0..2).flat_map(|_| (0..2048u32).step_by(4)).map(|pc| (pc, 0)),
//! );
//! let configs = [config, config.with_cache_bytes(512)];
//! let cells = Simulation::replay_sweep(&image, &captured, &configs)?;
//! assert_eq!(cells[0], result);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcache;
mod icache;
mod memory;
mod simulation;
mod stepper;
mod system;
mod trace;

pub use ccrp::{BudgetExhausted, StepBudget};
pub use dcache::DataCacheModel;
pub use icache::{BadCacheSize, CacheStats, ICache, LINE_BYTES};
pub use memory::{standard_refill_cycles, MemoryModel, MemorySim};
pub use simulation::{SimSource, Simulation};
pub use system::{Comparison, RunStats, SimError, SystemConfig};
pub use trace::{AccessTrace, FetchRun, OpenRun, TraceError, TRACE_FORMAT_VERSION};
