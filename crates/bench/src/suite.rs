//! Shared experiment context: the eight traced workloads, each executed
//! once under the emulator with its fetch trace captured, and compressed
//! once with the preselected code, cached for every experiment.
//!
//! The suite is where a process captures each workload's trace: the
//! emulator streams each run straight into its run-compacted
//! [`AccessTrace`], with no per-fetch trace in between, so every sweep,
//! matrix and ablation replays the same captured trace and none
//! re-captures it.

use std::sync::OnceLock;

use ccrp::CompressedImage;
use ccrp_compress::BlockAlignment;
use ccrp_sim::AccessTrace;
use ccrp_workloads::{preselected_code, TracedWorkload, Workload};

use crate::capture::StreamCapture;

/// A workload and its compressed image, ready for simulation.
#[derive(Debug)]
pub struct Prepared {
    /// The traced workload, holding its run-compacted fetch trace (no
    /// per-fetch trace is recorded).
    pub workload: Workload<AccessTrace>,
    /// Its text compressed with the preselected code (word-aligned
    /// blocks, as §3.1 simulates).
    pub image: CompressedImage,
}

/// The complete experiment suite.
#[derive(Debug)]
pub struct Suite {
    prepared: Vec<Prepared>,
}

impl Suite {
    /// Builds all eight workloads and their compressed images, using the
    /// machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if a workload kernel fails its self-check — a bug in the
    /// workload crate, not a runtime condition.
    pub fn build() -> Suite {
        Suite::build_with_jobs(crate::runner::available_jobs())
    }

    /// Builds the suite across `jobs` worker threads (1 = serial). Each
    /// workload's assembly, execution, trace capture, and compression is
    /// an independent job; the result order is always
    /// [`TracedWorkload::ALL`]'s.
    ///
    /// # Panics
    ///
    /// As [`build`](Self::build).
    pub fn build_with_jobs(jobs: usize) -> Suite {
        let code = preselected_code();
        let prepared = crate::runner::parallel_map(jobs, &TracedWorkload::ALL, |&wl| {
            let Workload {
                name,
                image,
                trace,
                text,
            } = wl
                .build_into::<StreamCapture>()
                .unwrap_or_else(|e| panic!("{} must build: {e}", wl.name()));
            let workload = Workload {
                name,
                image,
                trace: trace.finish(),
                text,
            };
            let image =
                CompressedImage::build(0, &workload.text, code.clone(), BlockAlignment::Word)
                    .unwrap_or_else(|e| panic!("{} must compress: {e}", wl.name()));
            Prepared { workload, image }
        })
        .into_iter()
        .map(|(prepared, _)| prepared)
        .collect();
        Suite { prepared }
    }

    /// All prepared workloads, in the paper's table order.
    pub fn iter(&self) -> impl Iterator<Item = &Prepared> {
        self.prepared.iter()
    }

    /// Looks up one workload by its paper name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name (a typo in the calling experiment).
    pub fn get(&self, name: &str) -> &Prepared {
        self.prepared
            .iter()
            .find(|p| p.workload.name == name)
            .unwrap_or_else(|| panic!("unknown workload `{name}`"))
    }
}

static SUITE: OnceLock<Suite> = OnceLock::new();

/// The process-wide suite, built on first use (workload construction
/// costs a few seconds; every experiment shares it).
pub fn suite() -> &'static Suite {
    SUITE.get_or_init(Suite::build)
}

/// As [`suite`], but a cold build uses `jobs` worker threads. A suite
/// already cached by an earlier call is returned as-is — the prepared
/// workloads are identical whatever the worker count.
pub fn suite_with_jobs(jobs: usize) -> &'static Suite {
    SUITE.get_or_init(|| Suite::build_with_jobs(jobs))
}
