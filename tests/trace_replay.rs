//! Trace capture/replay integration: the `.trace` container and the
//! trace-replay sweep engine reproduce direct (live) simulation for the
//! paper's workloads, and reject corrupted trace files with typed
//! errors — the properties `ccrp-tools sweep` and the bench gate rest
//! on. The live side always comes from a fresh emulator run, never
//! from the suite, which keeps only the captured trace.

use ccrp::FaultInjector;
use ccrp_bench::experiments::perf::CACHE_SIZES;
use ccrp_bench::experiments::{clb, dcache};
use ccrp_bench::{suite, Prepared};
use ccrp_sim::{AccessTrace, DataCacheModel, MemoryModel, Simulation, SystemConfig, TraceError};
use ccrp_workloads::{TracedWorkload, Workload};

/// Runs `prepared`'s workload under the emulator afresh, for its live
/// per-fetch trace.
fn fresh(prepared: &Prepared) -> Workload {
    TracedWorkload::ALL
        .into_iter()
        .find(|w| w.name() == prepared.workload.name)
        .expect("suite workloads are traced workloads")
        .build()
        .expect("workload builds")
}

/// Captures `live`'s trace, round-trips it through the on-disk
/// container form, and returns the loaded trace.
fn round_tripped(live: &Workload) -> AccessTrace {
    let captured = AccessTrace::capture(live.trace.iter());
    let bytes = captured.to_bytes(ccrp::crc32(live.name.as_bytes()));
    let (loaded, _) = AccessTrace::from_bytes(&bytes).expect("freshly written traces load");
    assert_eq!(loaded.fetches(), captured.fetches());
    loaded
}

/// The suite's captured trace equals a capture of a fresh run, and
/// capture → serialize → load → replay equals direct simulation, for
/// every paper workload under the standard configurations.
#[test]
fn every_workload_replays_serialized_traces_to_direct_results() {
    for prepared in suite().iter() {
        let live = fresh(prepared);
        assert_eq!(
            prepared.workload.trace,
            AccessTrace::capture(live.trace.iter()),
            "{}: the suite's trace is not a capture of a fresh run",
            prepared.workload.name
        );
        let loaded = round_tripped(&live);
        for memory in MemoryModel::ALL {
            for cache_bytes in [256u32, 1024] {
                let config = SystemConfig::new()
                    .with_cache_bytes(cache_bytes)
                    .with_memory(memory);
                let direct = Simulation::new(config)
                    .compare(&prepared.image, live.trace.iter())
                    .expect("paper configurations are valid");
                let replayed = Simulation::new(config)
                    .compare(&prepared.image, &loaded)
                    .expect("paper configurations are valid");
                assert_eq!(
                    replayed, direct,
                    "{} {memory:?} {cache_bytes}B replay diverged",
                    prepared.workload.name
                );
            }
        }
    }
}

/// One cell pinned from each simulating experiment's grid, computed
/// both ways: per-cell re-execution (live trace) against capture-once
/// replay. Fig5 has no simulation cells (it is a static compression
/// study), so four experiments appear here.
#[test]
fn pinned_experiment_cells_agree_across_engines() {
    let s = suite();
    let first = s.iter().next().expect("suite has workloads");
    // (experiment, its grid's first configuration)
    let cells = [
        (
            "tables1_8",
            SystemConfig::new()
                .with_cache_bytes(CACHE_SIZES[0])
                .with_memory(MemoryModel::Eprom),
        ),
        (
            "tables9_10",
            SystemConfig::new()
                .with_cache_bytes(CACHE_SIZES[0])
                .with_memory(MemoryModel::Eprom)
                .with_clb_entries(clb::CLB_SIZES[0]),
        ),
        (
            "fig9",
            SystemConfig::new()
                .with_cache_bytes(CACHE_SIZES[0])
                .with_memory(MemoryModel::ScDram),
        ),
        (
            "tables11_13",
            SystemConfig::new()
                .with_cache_bytes(1024)
                .with_memory(MemoryModel::Eprom)
                .with_dcache(DataCacheModel::with_miss_rate(
                    f64::from(dcache::DCACHE_MISS_PCTS[0]) / 100.0,
                )),
        ),
    ];
    let live = fresh(first);
    let loaded = round_tripped(&live);
    for (experiment, config) in cells {
        let reexec = Simulation::new(config)
            .compare(&first.image, live.trace.iter())
            .expect("paper configurations are valid");
        let replay = Simulation::replay_sweep(&first.image, &loaded, &[config])
            .expect("paper configurations are valid");
        assert_eq!(replay.as_slice(), &[reexec], "{experiment} cell diverged");
    }
}

/// Every corrupted `.trace` file is rejected with a typed error — the
/// CRC-framed container never panics and never silently replays wrong
/// data.
#[test]
fn stomped_trace_files_are_rejected_with_typed_errors() {
    let first = suite().iter().next().expect("suite has workloads");
    let trace = AccessTrace::capture(fresh(first).trace.iter());
    let pristine = trace.to_bytes(0xC0DE_F00D);
    let mut injector = FaultInjector::new(2026);
    let mut rejected = 0;
    for round in 0..256 {
        let plan = injector.plan_raw(pristine.len(), 1 + round % 3);
        let mut stomped = pristine.clone();
        if plan.apply(&mut stomped) == 0 {
            continue; // stomp happened to write the original byte back
        }
        match AccessTrace::from_bytes(&stomped) {
            Err(TraceError::Frame(_))
            | Err(TraceError::UnsupportedVersion { .. })
            | Err(TraceError::Malformed { .. }) => rejected += 1,
            Err(other) => panic!("unexpected error variant: {other}"),
            Ok(_) => panic!("corrupted trace file was accepted"),
        }
    }
    assert!(rejected > 200, "fault plans barely exercised the loader");

    // Truncations are rejected too, at every length.
    for len in 0..pristine.len().min(64) {
        assert!(
            AccessTrace::from_bytes(&pristine[..len]).is_err(),
            "truncation to {len} bytes was accepted"
        );
    }
}
