//! Incremental, checkpointable forms of the two trace-driven simulators.
//!
//! [`StandardSim`] and [`CcrpSim`] carry one trace entry's worth of
//! simulation per [`step`](StandardSim::step): exactly the loop body
//! the [`Simulation`](crate::Simulation) entry point drives — a
//! whole-source execution and an equivalent step loop are the same
//! computation, operation for operation. The compacted
//! [`replay_run_probed`](StandardSim::replay_run_probed) fast path
//! folds a [`FetchRun`] into one step plus a bulk hit update. Both
//! processors' miss paths are the functions [`standard_miss`] and
//! [`ccrp_miss`], which the steppers and the sweep kernel
//! ([`Simulation::replay_sweep`](crate::Simulation::replay_sweep))
//! share.
//!
//! Each stepper snapshots to a plain value ([`StandardSimSnapshot`] /
//! [`CcrpSimSnapshot`]) capturing every piece of cross-step state: cache
//! tags and counters, the memory model's precharge deadline, the CLB
//! (contents, LRU order, counters), and the running [`SimCounters`].
//! Restoring a snapshot and replaying the remaining trace therefore
//! produces results identical to an unbroken run. Only this module's
//! tests restore a stepper today.

use ccrp::{ClbStats, CompressedImage, MemoryTiming, RefillEngine, RefillEngineSnapshot};
use ccrp_probe::{Event, NullProbe, Probe};

use crate::dcache::DataCacheModel;
use crate::icache::{CacheStats, ICache, ICacheSnapshot, LINE_BYTES};
use crate::memory::{MemorySim, MemorySimSnapshot};
use crate::system::{RunStats, SimError, SystemConfig};
use crate::trace::FetchRun;

/// Words in one standard line refill (a whole 32-byte line).
const LINE_WORDS: u32 = LINE_BYTES / 4;

/// The running totals both steppers accumulate — the mutable scalar half
/// of a simulation snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Current simulated cycle.
    pub cycle: u64,
    /// Cycles spent waiting on line refills.
    pub refill_cycles: u64,
    /// Bytes read from instruction memory.
    pub bytes_from_memory: u64,
    /// Trace entries replayed.
    pub instructions: u64,
    /// Data accesses replayed.
    pub data_accesses: u64,
}

impl SimCounters {
    /// Charges a refill issued at the current cycle that leaves the line
    /// in the cache at `ready_at`, having moved `bytes` over the bus.
    fn charge_refill(&mut self, ready_at: u64, bytes: u64) {
        self.refill_cycles += ready_at - self.cycle;
        self.bytes_from_memory += bytes;
        self.cycle = ready_at;
    }

    /// The metrics these totals amount to, with the cache and CLB
    /// counters and the analytic data-side term.
    pub(crate) fn stats(
        &self,
        cache: CacheStats,
        dcache: &DataCacheModel,
        clb: Option<ClbStats>,
    ) -> RunStats {
        RunStats {
            instructions: self.instructions,
            data_accesses: self.data_accesses,
            cache,
            refill_cycles: self.refill_cycles,
            bytes_from_memory: self.bytes_from_memory,
            data_stall_cycles: dcache.stall_cycles(self.data_accesses),
            clb,
        }
    }
}

/// The standard processor's miss path at `pc`, issued at
/// `counters.cycle`: one 8-word line burst.
pub(crate) fn standard_miss<P: Probe>(
    memory: &mut MemorySim,
    pc: u32,
    counters: &mut SimCounters,
    probe: &mut P,
) {
    let now = counters.cycle;
    probe.emit(now, Event::CacheMiss { address: pc });
    let done = memory.read_burst(LINE_WORDS, now).last(LINE_WORDS);
    probe.emit(
        now,
        Event::MemoryBurst {
            words: LINE_WORDS,
            done,
        },
    );
    counters.charge_refill(done, u64::from(LINE_BYTES));
}

/// The CCRP's miss path at `pc`, issued at `counters.cycle`: a refill
/// through `image`'s LAT/CLB/decoder path.
///
/// # Errors
///
/// [`SimError::Ccrp`] when `pc` lies outside the image, or the refill
/// engine reports corruption its policy does not absorb.
pub(crate) fn ccrp_miss<P: Probe>(
    engine: &mut RefillEngine,
    memory: &mut MemorySim,
    image: &CompressedImage,
    pc: u32,
    counters: &mut SimCounters,
    probe: &mut P,
) -> Result<(), SimError> {
    let now = counters.cycle;
    probe.emit(now, Event::CacheMiss { address: pc });
    let outcome = engine.refill_probed(image, pc, now, memory, probe)?;
    counters.charge_refill(outcome.ready_at, u64::from(outcome.bytes_fetched));
    Ok(())
}

/// The standard (uncompressed) processor, one trace entry at a time.
#[derive(Debug, Clone)]
pub struct StandardSim {
    cache: ICache,
    memory: MemorySim,
    dcache: DataCacheModel,
    counters: SimCounters,
}

impl StandardSim {
    /// Builds a stepper for `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry.
    pub fn new(config: &SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            cache: ICache::new(config.cache_bytes)?,
            memory: config.memory.timing(),
            dcache: config.dcache,
            counters: SimCounters::default(),
        })
    }

    /// Replays one trace entry, reporting miss and burst events to
    /// `probe`.
    pub fn step_probed<P: Probe>(&mut self, pc: u32, data: u8, probe: &mut P) {
        self.counters.instructions += 1;
        self.counters.data_accesses += u64::from(data);
        self.counters.cycle += 1;
        if !self.cache.access(pc) {
            standard_miss(&mut self.memory, pc, &mut self.counters, probe);
        }
    }

    /// Replays one trace entry without probing.
    pub fn step(&mut self, pc: u32, data: u8) {
        self.step_probed(pc, data, &mut NullProbe);
    }

    /// Replays one compacted [`FetchRun`] — operation for operation the
    /// same computation as stepping each of the run's fetches, because
    /// only the run's first fetch can miss in the direct-mapped cache
    /// (the remaining fetches stay in the just-accessed line) and every
    /// other per-entry update is a sum. Emits the identical event
    /// stream: misses and bursts occur only at run starts.
    pub fn replay_run_probed<P: Probe>(&mut self, run: FetchRun, probe: &mut P) {
        if run.fetches == 0 {
            return;
        }
        self.step_probed(run.first_pc, 0, probe);
        self.counters.data_accesses += u64::from(run.data);
        let rest = u64::from(run.fetches) - 1;
        self.counters.instructions += rest;
        self.counters.cycle += rest;
        self.cache.record_hits(rest);
    }

    /// The running totals.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Metrics as of the entries replayed so far, identical to what the
    /// whole-trace simulator reports over the same prefix.
    pub fn stats(&self) -> RunStats {
        self.counters.stats(self.cache.stats(), &self.dcache, None)
    }

    /// Captures every piece of cross-step state.
    pub fn snapshot(&self) -> StandardSimSnapshot {
        StandardSimSnapshot {
            cache: self.cache.snapshot(),
            memory: self.memory.snapshot(),
            counters: self.counters,
        }
    }

    /// Restores a [`snapshot`](Self::snapshot); subsequent steps behave
    /// as if the run had never been interrupted.
    pub fn restore(&mut self, snapshot: &StandardSimSnapshot) {
        self.cache.restore(&snapshot.cache);
        self.memory.restore(&snapshot.memory);
        self.counters = snapshot.counters;
    }
}

/// The captured state of a [`StandardSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandardSimSnapshot {
    /// Instruction-cache tags and counters.
    pub cache: ICacheSnapshot,
    /// Memory-model timing state.
    pub memory: MemorySimSnapshot,
    /// Running totals.
    pub counters: SimCounters,
}

/// The CCRP, one trace entry at a time.
#[derive(Debug, Clone)]
pub struct CcrpSim {
    cache: ICache,
    memory: MemorySim,
    engine: RefillEngine,
    dcache: DataCacheModel,
    counters: SimCounters,
}

impl CcrpSim {
    /// Builds a stepper for `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry, [`SimError::Ccrp`]
    /// for an invalid refill configuration.
    pub fn new(config: &SystemConfig) -> Result<Self, SimError> {
        Ok(Self {
            cache: ICache::new(config.cache_bytes)?,
            memory: config.memory.timing(),
            engine: RefillEngine::new(config.refill)?,
            dcache: config.dcache,
            counters: SimCounters::default(),
        })
    }

    /// Replays one trace entry, refilling misses through `image`'s
    /// LAT/CLB/decoder path and reporting the full event stream to
    /// `probe`.
    ///
    /// # Errors
    ///
    /// [`SimError::Ccrp`] when the trace fetches outside the image.
    pub fn step_probed<P: Probe>(
        &mut self,
        image: &CompressedImage,
        pc: u32,
        data: u8,
        probe: &mut P,
    ) -> Result<(), SimError> {
        self.counters.instructions += 1;
        self.counters.data_accesses += u64::from(data);
        self.counters.cycle += 1;
        if !self.cache.access(pc) {
            ccrp_miss(
                &mut self.engine,
                &mut self.memory,
                image,
                pc,
                &mut self.counters,
                probe,
            )?;
        }
        Ok(())
    }

    /// Replays one trace entry without probing.
    ///
    /// # Errors
    ///
    /// As [`step_probed`](Self::step_probed).
    pub fn step(&mut self, image: &CompressedImage, pc: u32, data: u8) -> Result<(), SimError> {
        self.step_probed(image, pc, data, &mut NullProbe)
    }

    /// Replays one compacted [`FetchRun`]; see
    /// [`StandardSim::replay_run_probed`] for the equivalence argument
    /// (it holds unchanged here — the LAT/CLB/decoder refill path is
    /// only entered on a miss, which only the run's first fetch can
    /// take).
    ///
    /// # Errors
    ///
    /// As [`step_probed`](Self::step_probed).
    pub fn replay_run_probed<P: Probe>(
        &mut self,
        image: &CompressedImage,
        run: FetchRun,
        probe: &mut P,
    ) -> Result<(), SimError> {
        if run.fetches == 0 {
            return Ok(());
        }
        self.step_probed(image, run.first_pc, 0, probe)?;
        self.counters.data_accesses += u64::from(run.data);
        let rest = u64::from(run.fetches) - 1;
        self.counters.instructions += rest;
        self.counters.cycle += rest;
        self.cache.record_hits(rest);
        Ok(())
    }

    /// The running totals.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Metrics as of the entries replayed so far, identical to what the
    /// whole-trace simulator reports over the same prefix.
    pub fn stats(&self) -> RunStats {
        self.counters.stats(
            self.cache.stats(),
            &self.dcache,
            Some(self.engine.clb_stats()),
        )
    }

    /// Captures every piece of cross-step state, CLB included.
    pub fn snapshot(&self) -> CcrpSimSnapshot {
        CcrpSimSnapshot {
            cache: self.cache.snapshot(),
            memory: self.memory.snapshot(),
            engine: self.engine.snapshot(),
            counters: self.counters,
        }
    }

    /// Restores a [`snapshot`](Self::snapshot); subsequent steps behave
    /// as if the run had never been interrupted.
    pub fn restore(&mut self, snapshot: &CcrpSimSnapshot) {
        self.cache.restore(&snapshot.cache);
        self.memory.restore(&snapshot.memory);
        self.engine.restore(&snapshot.engine);
        self.counters = snapshot.counters;
    }
}

/// The captured state of a [`CcrpSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcrpSimSnapshot {
    /// Instruction-cache tags and counters.
    pub cache: ICacheSnapshot,
    /// Memory-model timing state.
    pub memory: MemorySimSnapshot,
    /// Refill-engine state (the CLB: contents, LRU order, counters).
    pub engine: RefillEngineSnapshot,
    /// Running totals.
    pub counters: SimCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryModel;
    use crate::simulation::Simulation;
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    fn fixture(code_bytes: usize) -> (CompressedImage, Vec<(u32, u8)>) {
        let mut text = Vec::with_capacity(code_bytes);
        let mut x = 5u32;
        for i in 0..code_bytes {
            x = x.wrapping_mul(48271);
            text.push(match i % 4 {
                0 => (x >> 28) as u8,
                1 => 0,
                2 => 0x42,
                _ => 0x24,
            });
        }
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        let mut trace = Vec::new();
        for _ in 0..4 {
            for pc in (0..code_bytes as u32).step_by(4) {
                trace.push((pc, u8::from(pc % 16 == 0)));
            }
        }
        (image, trace)
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // For every memory model: run to a midpoint, snapshot, keep
        // running the original while a fresh stepper restores and
        // replays the tail — stats must match an unbroken run.
        let (image, trace) = fixture(2048);
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(256).with_memory(model);
            let mid = trace.len() / 3;

            let mut std_sim = StandardSim::new(&config).unwrap();
            let mut ccrp_sim = CcrpSim::new(&config).unwrap();
            for &(pc, data) in &trace[..mid] {
                std_sim.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
            }
            let std_snap = std_sim.snapshot();
            let ccrp_snap = ccrp_sim.snapshot();

            let mut std_resumed = StandardSim::new(&config).unwrap();
            std_resumed.restore(&std_snap);
            let mut ccrp_resumed = CcrpSim::new(&config).unwrap();
            ccrp_resumed.restore(&ccrp_snap);
            for &(pc, data) in &trace[mid..] {
                std_sim.step(pc, data);
                std_resumed.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
                ccrp_resumed.step(&image, pc, data).unwrap();
            }
            assert_eq!(std_sim.stats(), std_resumed.stats(), "{model:?}");
            assert_eq!(ccrp_sim.stats(), ccrp_resumed.stats(), "{model:?}");
            assert_eq!(std_sim.snapshot(), std_resumed.snapshot(), "{model:?}");
            assert_eq!(ccrp_sim.snapshot(), ccrp_resumed.snapshot(), "{model:?}");
        }
    }

    #[test]
    fn stepper_matches_whole_trace_simulator() {
        let (image, trace) = fixture(4096);
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(256).with_memory(model);
            let std_whole = Simulation::new(config)
                .standard(trace.iter().copied())
                .unwrap();
            let ccrp_whole = Simulation::new(config)
                .ccrp(&image, trace.iter().copied())
                .unwrap();
            let mut std_sim = StandardSim::new(&config).unwrap();
            let mut ccrp_sim = CcrpSim::new(&config).unwrap();
            for &(pc, data) in &trace {
                std_sim.step(pc, data);
                ccrp_sim.step(&image, pc, data).unwrap();
            }
            assert_eq!(std_sim.stats(), std_whole, "{model:?}");
            assert_eq!(ccrp_sim.stats(), ccrp_whole, "{model:?}");
        }
    }
}
