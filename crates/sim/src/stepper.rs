//! The two loops that run a processor over a trace, and the two miss
//! paths they share.
//!
//! The standard processor and the CCRP share the I-cache and differ
//! only on a miss (§3.1): the standard processor's miss path is
//! [`standard_miss`], the CCRP's is [`ccrp_miss`]. Whichever processor
//! supplies the miss path, a trace runs through one of two loops:
//!
//! * [`run_live`] steps a live per-fetch source fetch by fetch. It is
//!   the reference every captured run is checked against.
//! * [`MissStream`] walks a captured [`AccessTrace`] once per cache
//!   size, keeping only its misses, and replays a processor over those
//!   misses alone. Every captured run goes through it: the
//!   [`Simulation`](crate::Simulation) execution methods and the sweep
//!   kernel ([`Simulation::replay_sweep`](crate::Simulation::replay_sweep)).
//!
//! The sweep kernel also locates each miss once per cache size and takes
//! its CLB outcome, for every CLB capacity, from one LRU stack pass
//! ([`MissStream::locate`]); its CCRP miss path then skips the CLB walk
//! ([`RefillEngine::refill_located`]). Every timing still walks the
//! misses, but under every memory model the kernel calls
//! `refill_located` once per distinct (line, CLB outcome) issued to an
//! idle memory, and on every later such miss adds the stored cycles and
//! bytes and restores the stored precharge lag; only a miss issued
//! inside a DRAM precharge is timed directly.
//!
//! Both loops report the same [`RunStats`], the same probe events and
//! the same first error, and an attached [`StepBudget`] spends exactly
//! the simulated cycles under either.

use ccrp::{
    ClbStack, ClbStats, CompressedImage, LineLocation, MemoryTiming, RefillEngine, StepBudget,
};
use ccrp_probe::{Event, Probe};

use crate::dcache::DataCacheModel;
use crate::icache::{CacheStats, ICache, LINE_BYTES};
use crate::memory::MemorySim;
use crate::system::{RunStats, SimError};
use crate::trace::AccessTrace;

/// Words in one standard line refill (a whole 32-byte line).
const LINE_WORDS: u32 = LINE_BYTES / 4;

/// The running totals of one processor's run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SimCounters {
    /// Current simulated cycle.
    pub(crate) cycle: u64,
    /// Cycles spent waiting on line refills.
    pub(crate) refill_cycles: u64,
    /// Bytes read from instruction memory.
    pub(crate) bytes_from_memory: u64,
    /// Trace entries replayed.
    pub(crate) instructions: u64,
    /// Data accesses replayed.
    pub(crate) data_accesses: u64,
}

impl SimCounters {
    /// Charges a refill issued at the current cycle that leaves the line
    /// in the cache at `ready_at`, having moved `bytes` over the bus.
    pub(crate) fn charge_refill(&mut self, ready_at: u64, bytes: u64) {
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

/// Charges `cycles` to `budget`, when one is attached and there is
/// anything to charge.
fn charge(budget: &mut Option<&mut StepBudget>, cycles: u64) -> Result<(), SimError> {
    match budget {
        Some(budget) if cycles > 0 => Ok(budget.charge(cycles)?),
        _ => Ok(()),
    }
}

/// The live loop: steps `fetches` one `(pc, data_access_count)` entry
/// at a time through `cache`, calling `miss` — a processor's miss path
/// — on every miss, and accumulating into `counters`. Each fetch is
/// charged to `budget` after it completes: one cycle plus its refill
/// stall.
///
/// # Errors
///
/// The first error `miss` returns, or [`SimError::Budget`] when the
/// budget trips; the fetches before it stay counted.
pub(crate) fn run_live(
    cache: &mut ICache,
    counters: &mut SimCounters,
    fetches: impl IntoIterator<Item = (u32, u8)>,
    mut budget: Option<&mut StepBudget>,
    mut miss: impl FnMut(u32, &mut SimCounters) -> Result<(), SimError>,
) -> Result<(), SimError> {
    for (pc, data) in fetches {
        let before = counters.cycle;
        counters.instructions += 1;
        counters.data_accesses += u64::from(data);
        counters.cycle += 1;
        if !cache.access(pc) {
            miss(pc, counters)?;
        }
        charge(&mut budget, counters.cycle - before)?;
    }
    Ok(())
}

/// One miss of a [`MissStream`].
#[derive(Debug, Clone, Copy)]
struct Miss {
    /// The missing fetch's PC (its run's first).
    pc: u32,
    /// Fetches before it in the trace.
    fetch: u64,
}

/// The misses one I-cache geometry takes over a captured trace, with
/// the trace totals every processor and config on that geometry shares.
/// Between two misses only hits happen, each one cycle, so a miss is
/// issued at cycle `fetch + 1` plus the stalls of the refills before it.
#[derive(Debug)]
pub(crate) struct MissStream {
    misses: Vec<Miss>,
    /// The cache's counters over the whole trace.
    pub(crate) cache: CacheStats,
    data_accesses: u64,
}

impl MissStream {
    /// One tag-only pass of `cache` over `trace`'s runs. Only a run's
    /// first fetch can miss: the rest stay in the line it just
    /// accessed (see [`FetchRun`](crate::FetchRun)).
    pub(crate) fn capture(trace: &AccessTrace, mut cache: ICache) -> Self {
        let mut misses = Vec::new();
        let mut data_accesses = 0;
        for run in trace.runs() {
            if run.fetches == 0 {
                continue;
            }
            let fetch = cache.stats().fetches;
            if !cache.access(run.first_pc) {
                misses.push(Miss {
                    pc: run.first_pc,
                    fetch,
                });
            }
            cache.record_hits(u64::from(run.fetches) - 1);
            data_accesses += u64::from(run.data);
        }
        MissStream {
            misses,
            cache: cache.stats(),
            data_accesses,
        }
    }

    /// Locates every miss in `image` once and gives it its LAT entry's
    /// LRU stack depth, from one [`ClbStack`] pass that serves every CLB
    /// capacity up to `deepest`. The pass grows with the distinct LAT
    /// entries touched, not with `deepest`. It stops at the first miss
    /// outside the image, where every configuration's run fails.
    pub(crate) fn locate(&self, image: &CompressedImage, deepest: usize) -> Vec<LocatedMiss> {
        let mut stack = ClbStack::new(deepest);
        let mut located = Vec::with_capacity(self.misses.len());
        for miss in &self.misses {
            let Ok(location) = image.locate(miss.pc) else {
                break;
            };
            let depth = stack
                .touch(location.lat_index)
                .and_then(|depth| u32::try_from(depth).ok())
                .unwrap_or(LocatedMiss::BEYOND);
            located.push(LocatedMiss { location, depth });
        }
        located
    }

    /// Runs `refill` — a processor's miss path — on every miss in trace
    /// order, passing the miss's index in the stream and its PC, with
    /// `counters.cycle` set to the cycle the miss issues at, and returns
    /// the whole trace's totals.
    ///
    /// An attached `budget` is charged, before each miss's refill, the
    /// cycles of every fetch before that miss, and once at the end the
    /// cycles left: exactly the simulated cycles, tripping before the
    /// same refill (and so after the same probe events) as the live
    /// loop.
    ///
    /// # Errors
    ///
    /// The first error `refill` or the budget returns, with the failing
    /// miss's fetch index (the trace length for the final charge).
    pub(crate) fn replay(
        &self,
        mut budget: Option<&mut StepBudget>,
        mut refill: impl FnMut(usize, u32, &mut SimCounters) -> Result<(), SimError>,
    ) -> Result<SimCounters, (u64, SimError)> {
        let mut counters = SimCounters::default();
        let mut charged = 0;
        for (index, miss) in self.misses.iter().enumerate() {
            let before = miss.fetch + counters.refill_cycles;
            charge(&mut budget, before - charged).map_err(|e| (miss.fetch, e))?;
            charged = before;
            counters.cycle = before + 1;
            refill(index, miss.pc, &mut counters).map_err(|e| (miss.fetch, e))?;
        }
        let cycle = self.cache.fetches + counters.refill_cycles;
        charge(&mut budget, cycle - charged).map_err(|e| (self.cache.fetches, e))?;
        Ok(SimCounters {
            cycle,
            instructions: self.cache.fetches,
            data_accesses: self.data_accesses,
            ..counters
        })
    }
}

/// One miss of a [`MissStream`], located in an image, with the recency
/// depth of its LAT entry: how many distinct entries the misses before it
/// touched since its own entry last was.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocatedMiss {
    /// Where the missing line lives in the image.
    pub(crate) location: LineLocation,
    /// The LRU stack depth, or [`BEYOND`](Self::BEYOND).
    depth: u32,
}

impl LocatedMiss {
    /// The depth of an entry not among the stack's tracked entries.
    const BEYOND: u32 = u32::MAX;

    /// Whether a CLB of `capacity` entries holds this miss's LAT entry:
    /// an LRU buffer hits exactly when the depth is below its capacity.
    pub(crate) fn clb_hit(&self, capacity: usize) -> bool {
        self.depth != Self::BEYOND && usize::try_from(self.depth).is_ok_and(|d| d < capacity)
    }
}
