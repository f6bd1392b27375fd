//! The unified simulation entry point.
//!
//! [`Simulation`] is the one builder every run goes through: a
//! [`SystemConfig`] plus optional probes and an optional
//! [`StepBudget`], executed over either a live per-fetch trace or a
//! captured [`AccessTrace`] (see [`SimSource`]). A live trace runs
//! through the per-fetch loop and a captured one through its miss
//! stream; both loops, and the two processors' miss paths they share,
//! live in the `stepper` module. [`Simulation::replay_sweep`] groups
//! many configurations over one miss stream per cache size.
//!
//! ```
//! use ccrp::CompressedImage;
//! use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
//! use ccrp_sim::{AccessTrace, MemoryModel, Simulation, SystemConfig};
//!
//! let text = vec![0u8; 2048];
//! let code = ByteCode::preselected(&ByteHistogram::of(&text))?;
//! let image = CompressedImage::build(0, &text, code, BlockAlignment::Word)?;
//! let trace: Vec<(u32, u8)> =
//!     (0..2).flat_map(|_| (0..2048u32).step_by(4)).map(|pc| (pc, 0)).collect();
//! let config = SystemConfig::new()
//!     .with_cache_bytes(256)
//!     .with_memory(MemoryModel::Eprom);
//!
//! // Live source: steps the per-fetch trace.
//! let live = Simulation::new(config).compare(&image, trace.iter().copied())?;
//!
//! // Captured source: capture once, replay only the misses for any
//! // number of configs.
//! let captured = AccessTrace::capture(trace.iter().copied());
//! let replayed = Simulation::new(config).compare(&image, &captured)?;
//! assert_eq!(live, replayed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::num::NonZeroU32;

use ccrp::{ClbStats, CompressedImage, RefillEngine, StepBudget};
use ccrp_probe::{NullProbe, Probe};

use crate::icache::{CacheStats, ICache};
use crate::stepper::{ccrp_miss, run_live, standard_miss, MissStream, SimCounters};
use crate::system::{Comparison, RunStats, SimError, SystemConfig};
use crate::trace::AccessTrace;

/// What a [`Simulation`] executes over: a live per-fetch
/// `(pc, data_access_count)` stream, or a captured, run-compacted
/// [`AccessTrace`]. Both produce bit-identical [`RunStats`], event
/// streams and errors; the captured form replays only the misses, so it
/// runs many times faster.
///
/// Any `(u32, u8)` iterator converts into the live form and an
/// `&AccessTrace` into the captured form, so call sites pass either
/// directly to [`Simulation`]'s execution methods.
#[derive(Debug)]
pub enum SimSource<'t, I: IntoIterator<Item = (u32, u8)> = std::iter::Empty<(u32, u8)>> {
    /// Step a per-fetch trace fetch by fetch.
    Live(I),
    /// Replay a captured trace's misses.
    Captured(&'t AccessTrace),
}

impl<'t, I: IntoIterator<Item = (u32, u8)>> From<I> for SimSource<'t, I> {
    fn from(fetches: I) -> Self {
        SimSource::Live(fetches)
    }
}

impl<'t> From<&'t AccessTrace> for SimSource<'t> {
    fn from(trace: &'t AccessTrace) -> Self {
        SimSource::Captured(trace)
    }
}

/// The single entry point for trace-driven system simulation: configure
/// once, optionally attach probes and a budget, then execute.
///
/// * [`standard`](Self::standard) — the uncompressed R2000-style
///   processor;
/// * [`ccrp`](Self::ccrp) — the CCRP, refilling through a
///   [`CompressedImage`]'s LAT/CLB/decoder path;
/// * [`compare`](Self::compare) — both over the same source, one cell
///   of the paper's Tables 1–13;
/// * [`replay_sweep`](Self::replay_sweep) — both processors for *many*
///   configurations from a captured trace, replaying only its misses.
///
/// Probes ([`standard_probed`](Self::standard_probed) /
/// [`ccrp_probed`](Self::ccrp_probed)) observe the same event stream
/// from either source; a budget ([`budgeted`](Self::budgeted)) spends
/// exactly the simulated cycles, so a hostile trace or pathological
/// memory model is bounded by fuel.
pub struct Simulation<'e, SP: Probe = NullProbe, CP: Probe = NullProbe> {
    config: SystemConfig,
    standard_probe: Option<&'e mut SP>,
    ccrp_probe: Option<&'e mut CP>,
    budget: Option<&'e mut StepBudget>,
}

impl<'e> Simulation<'e> {
    /// Starts a simulation of `config` with no probes and no budget.
    pub fn new(config: SystemConfig) -> Self {
        Simulation {
            config,
            standard_probe: None,
            ccrp_probe: None,
            budget: None,
        }
    }

    /// Replays a captured trace through both processors for *every*
    /// configuration — the trace-once, replay-many sweep kernel, equal
    /// to calling [`compare`](Self::compare) per config.
    ///
    /// The two processors share the I-cache and differ only on a miss
    /// (§3.1), and which fetches miss depends on the cache size alone.
    /// So the kernel groups the configs by cache size, then memory
    /// model, then [`RefillConfig`](ccrp::RefillConfig). Per cache size
    /// it walks the runs once, recording each miss's PC and fetch index,
    /// locates each miss in the image once, and takes its CLB outcome
    /// for every CLB capacity from one LRU stack pass
    /// ([`ClbStack`](ccrp::ClbStack)): an LRU buffer of capacity `c` hits
    /// exactly when the entry's recency depth is below `c`. It then times
    /// the standard refill once per memory model, and the CCRP refill
    /// once per (memory model, refill config) with
    /// [`RefillEngine::refill_located`], which takes that CLB outcome
    /// instead of walking a CLB and is exact up to a run's first failing
    /// miss. Each config's [`RunStats`] come from those totals plus its
    /// analytic data-cache term.
    ///
    /// A CCRP refill issued to an idle memory (no precharge left from an
    /// earlier burst) takes cycles past issue, bus bytes and leaves a
    /// lag (cycles past issue until the memory is idle again) that
    /// depend only on the line and the CLB outcome, under all three
    /// models: `refill_located` reads the immutable image, the line's
    /// location and the outcome, and every burst it makes on an idle
    /// memory is timed as on a fresh one. So each timing keeps a memo
    /// per (line, CLB outcome): the first such miss calls
    /// `refill_located`, every later one adds the stored cycles and
    /// bytes and leaves the memory busy for the stored lag. A refill
    /// issued inside a DRAM precharge window (a miss right after a raw
    /// line's refill ended at its last word) is timed directly and not
    /// stored. Errors are never stored, so a failing line is timed again
    /// and fails at the same first miss; and under
    /// [`IntegrityCheck::Full`](ccrp::IntegrityCheck::Full) the decode
    /// and CRC check of an immutable image give the same verdict every
    /// time.
    ///
    /// Hits are never replayed per config: every timing walks the misses
    /// alone, O(cache sizes × (runs + misses × min(deepest CLB, distinct
    /// LAT entries)) + distinct timings × misses), and calls
    /// `refill_located` once per distinct (line, CLB outcome), plus once
    /// per miss issued inside a precharge.
    ///
    /// # Errors
    ///
    /// As [`compare`](Self::compare), and the first error replaying the
    /// configs side by side would meet: an invalid config, the first in
    /// config order, before anything replays; else the failing miss
    /// earliest in the trace, ties going to the earlier config. On
    /// error the whole sweep is abandoned.
    pub fn replay_sweep(
        image: &CompressedImage,
        trace: &AccessTrace,
        configs: &[SystemConfig],
    ) -> Result<Vec<Comparison>, SimError> {
        for config in configs {
            ICache::new(config.cache_bytes)?;
            RefillEngine::new(config.refill)?;
        }
        let mut cells = Vec::with_capacity(configs.len());
        // (fetch index, config index, error) of the first failing miss.
        let mut first_error: Option<(u64, usize, SimError)> = None;
        let indexed: Vec<(usize, &SystemConfig)> = configs.iter().enumerate().collect();
        // One slot per (line, CLB outcome), refilled per timing.
        let mut memo: Vec<Option<TimedRefill>> = Vec::new();
        for (cache_bytes, by_cache) in group_by(indexed, |(_, c)| c.cache_bytes) {
            let stream = MissStream::capture(trace, ICache::new(cache_bytes)?);
            let deepest = by_cache.iter().map(|(_, c)| c.refill.clb_entries).max();
            let located = stream.locate(image, deepest.unwrap_or(0));
            for (model, by_memory) in group_by(by_cache, |(_, c)| c.memory) {
                let mut memory = model.timing();
                let standard = stream
                    .replay(None, |_, pc, counters| {
                        standard_miss(&mut memory, pc, counters, &mut NullProbe);
                        Ok(())
                    })
                    .map_err(|(_, e)| e)?;
                for (refill, group) in group_by(by_memory, |(_, c)| c.refill) {
                    let mut memory = model.timing();
                    let engine = RefillEngine::new(refill)?;
                    let mut clb = ClbStats::default();
                    memo.clear();
                    memo.resize(2 * image.line_count(), None);
                    let ccrp = stream.replay(None, |index, pc, counters| {
                        let (location, clb_hit) = match located.get(index) {
                            Some(miss) => (miss.location, miss.clb_hit(refill.clb_entries)),
                            // Locating stopped at the first miss outside
                            // the image: every config fails there.
                            None => (image.locate(pc)?, false),
                        };
                        if clb_hit {
                            clb.hits += 1;
                        } else {
                            clb.misses += 1;
                        }
                        let now = counters.cycle;
                        let slot = 2 * location.global_line() + usize::from(clb_hit);
                        // Only a refill issued to an idle memory is
                        // looked up or stored.
                        let entry = if memory.lag(now) == 0 {
                            memo.get_mut(slot)
                        } else {
                            None
                        };
                        let (cycles, bytes) = match entry {
                            Some(Some(timed)) => {
                                memory.set_lag(now, u64::from(timed.lag));
                                (u64::from(timed.cycles.get()), u64::from(timed.bytes))
                            }
                            entry => {
                                let outcome = engine.refill_located(
                                    image,
                                    pc,
                                    &location,
                                    clb_hit,
                                    now,
                                    &mut memory,
                                )?;
                                let cycles = outcome.ready_at - now;
                                let bytes = outcome.bytes_fetched;
                                if let Some(entry) = entry {
                                    *entry = TimedRefill::new(cycles, bytes, memory.lag(now));
                                }
                                (cycles, u64::from(bytes))
                            }
                        };
                        counters.charge_refill(now + cycles, bytes);
                        Ok(())
                    });
                    match ccrp {
                        Ok(ccrp) => {
                            cells.extend(group.into_iter().map(|(index, config)| {
                                let comparison = Comparison {
                                    standard: standard.stats(stream.cache, &config.dcache, None),
                                    ccrp: ccrp.stats(stream.cache, &config.dcache, Some(clb)),
                                };
                                (index, comparison)
                            }));
                        }
                        Err((fetch, error)) => {
                            // Groups keep config order: the first is the
                            // earliest config to meet this error.
                            let index = group.first().map_or(usize::MAX, |&(index, _)| index);
                            if first_error
                                .as_ref()
                                .is_none_or(|&(f, i, _)| (fetch, index) < (f, i))
                            {
                                first_error = Some((fetch, index, error));
                            }
                        }
                    }
                }
            }
        }
        if let Some((_, _, error)) = first_error {
            return Err(error);
        }
        cells.sort_by_key(|&(index, _)| index);
        Ok(cells
            .into_iter()
            .map(|(_, comparison)| comparison)
            .collect())
    }
}

/// One CCRP refill issued to an idle memory, as the sweep kernel's memo
/// stores it: cycles past issue until the line is in the cache, bytes
/// moved over the bus, and cycles past issue until the memory is idle
/// again. Eight bytes, so `Option<TimedRefill>` is too.
#[derive(Debug, Clone, Copy)]
struct TimedRefill {
    cycles: NonZeroU32,
    bytes: u16,
    lag: u16,
}

impl TimedRefill {
    /// The stored form of a refill, or `None` for one that does not fit
    /// it (no refill of a 32-byte line comes near; such a refill is
    /// simply timed again).
    fn new(cycles: u64, bytes: u32, lag: u64) -> Option<Self> {
        Some(TimedRefill {
            cycles: NonZeroU32::new(u32::try_from(cycles).ok()?)?,
            bytes: u16::try_from(bytes).ok()?,
            lag: u16::try_from(lag).ok()?,
        })
    }
}

/// Splits `items` into groups sharing a `key`, in order of each key's
/// first appearance; every group keeps its items in order.
fn group_by<T, K: PartialEq>(items: Vec<T>, key: impl Fn(&T) -> K) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for item in items {
        let k = key(&item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups
}

impl<'e, SP: Probe, CP: Probe> Simulation<'e, SP, CP> {
    /// Attaches a cooperative budget charged the simulated cycles, so
    /// refill storms burn fuel proportionally to the time they model.
    /// A live source charges each fetch as it completes (one cycle plus
    /// its refill stall); a captured source charges, before each miss,
    /// the cycles of the fetches before it, and the rest at the end.
    /// Either way a run spends exactly its simulated cycles, and a
    /// budget that trips does so after the same probe events; only the
    /// [`BudgetExhausted::spent`](ccrp::BudgetExhausted::spent) it
    /// reports reflects the coarser charges. [`compare`](Self::compare)
    /// charges both runs to the same budget, standard first.
    #[must_use]
    pub fn budgeted(mut self, budget: &'e mut StepBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Attaches a probe to the standard processor's run, observing
    /// [`Event::CacheMiss`](ccrp_probe::Event::CacheMiss) and
    /// [`Event::MemoryBurst`](ccrp_probe::Event::MemoryBurst).
    #[must_use]
    pub fn standard_probed<P: Probe>(self, probe: &'e mut P) -> Simulation<'e, P, CP> {
        Simulation {
            config: self.config,
            standard_probe: Some(probe),
            ccrp_probe: self.ccrp_probe,
            budget: self.budget,
        }
    }

    /// Attaches a probe to the CCRP's run, observing the full event
    /// stream: misses plus everything
    /// [`RefillEngine::refill_probed`](ccrp::RefillEngine::refill_probed)
    /// emits (refill start/done, CLB hit/miss/evict, memory bursts).
    #[must_use]
    pub fn ccrp_probed<P: Probe>(self, probe: &'e mut P) -> Simulation<'e, SP, P> {
        Simulation {
            config: self.config,
            standard_probe: self.standard_probe,
            ccrp_probe: Some(probe),
            budget: self.budget,
        }
    }

    /// Simulates the standard (uncompressed) processor over `source`.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for invalid cache geometry;
    /// [`SimError::Budget`] when an attached budget trips.
    pub fn standard<'t, I, S>(self, source: S) -> Result<RunStats, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            standard_probe,
            budget,
            ..
        } = self;
        match standard_probe {
            Some(probe) => drive_standard(&config, source.into(), probe, budget),
            None => drive_standard(&config, source.into(), &mut NullProbe, budget),
        }
    }

    /// Simulates the CCRP over `source`, refilling through `image`'s
    /// LAT/CLB/decoder path.
    ///
    /// # Errors
    ///
    /// As [`standard`](Self::standard), plus [`SimError::Ccrp`] when the
    /// trace fetches outside the compressed image.
    pub fn ccrp<'t, I, S>(self, image: &CompressedImage, source: S) -> Result<RunStats, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            ccrp_probe,
            budget,
            ..
        } = self;
        match ccrp_probe {
            Some(probe) => drive_ccrp(&config, image, source.into(), probe, budget),
            None => drive_ccrp(&config, image, source.into(), &mut NullProbe, budget),
        }
    }

    /// Runs both processors over the same source — one cell of the
    /// paper's Tables 1–13. A live source is iterated twice (hence the
    /// `Clone` bound); a captured trace's misses are replayed once per
    /// processor.
    ///
    /// # Errors
    ///
    /// As [`standard`](Self::standard) and [`ccrp`](Self::ccrp).
    pub fn compare<'t, I, S>(
        self,
        image: &CompressedImage,
        source: S,
    ) -> Result<Comparison, SimError>
    where
        I: IntoIterator<Item = (u32, u8)>,
        I::IntoIter: Clone,
        S: Into<SimSource<'t, I>>,
    {
        let Simulation {
            config,
            standard_probe,
            ccrp_probe,
            mut budget,
        } = self;
        let (standard_source, ccrp_source): (
            SimSource<'t, I::IntoIter>,
            SimSource<'t, I::IntoIter>,
        ) = match source.into() {
            SimSource::Live(fetches) => {
                let iter = fetches.into_iter();
                (SimSource::Live(iter.clone()), SimSource::Live(iter))
            }
            SimSource::Captured(trace) => (SimSource::Captured(trace), SimSource::Captured(trace)),
        };
        let standard = match standard_probe {
            Some(probe) => drive_standard(&config, standard_source, probe, budget.as_deref_mut())?,
            None => drive_standard(
                &config,
                standard_source,
                &mut NullProbe,
                budget.as_deref_mut(),
            )?,
        };
        let ccrp = match ccrp_probe {
            Some(probe) => drive_ccrp(&config, image, ccrp_source, probe, budget)?,
            None => drive_ccrp(&config, image, ccrp_source, &mut NullProbe, budget)?,
        };
        // panic-ok: debug-build invariant — both drives replay one trace.
        debug_assert_eq!(
            standard.cache.misses, ccrp.cache.misses,
            "caches see identical streams"
        );
        Ok(Comparison { standard, ccrp })
    }
}

/// Runs one processor over `source` through `cache`, with `miss` as
/// its miss path: a live source through the per-fetch loop, a captured
/// one through its miss stream. Returns the run's totals and cache
/// counters.
fn drive<I: IntoIterator<Item = (u32, u8)>>(
    mut cache: ICache,
    source: SimSource<'_, I>,
    budget: Option<&mut StepBudget>,
    mut miss: impl FnMut(u32, &mut SimCounters) -> Result<(), SimError>,
) -> Result<(SimCounters, CacheStats), SimError> {
    match source {
        SimSource::Live(fetches) => {
            let mut counters = SimCounters::default();
            run_live(&mut cache, &mut counters, fetches, budget, miss)?;
            Ok((counters, cache.stats()))
        }
        SimSource::Captured(trace) => {
            let stream = MissStream::capture(trace, cache);
            let counters = stream
                .replay(budget, |_, pc, counters| miss(pc, counters))
                .map_err(|(_, e)| e)?;
            Ok((counters, stream.cache))
        }
    }
}

/// The standard processor over `source`.
fn drive_standard<P: Probe, I: IntoIterator<Item = (u32, u8)>>(
    config: &SystemConfig,
    source: SimSource<'_, I>,
    probe: &mut P,
    budget: Option<&mut StepBudget>,
) -> Result<RunStats, SimError> {
    let cache = ICache::new(config.cache_bytes)?;
    let mut memory = config.memory.timing();
    let (counters, cache) = drive(cache, source, budget, |pc, counters| {
        standard_miss(&mut memory, pc, counters, probe);
        Ok(())
    })?;
    Ok(counters.stats(cache, &config.dcache, None))
}

/// The CCRP over `source`. Cache geometry is checked before the refill
/// configuration.
fn drive_ccrp<P: Probe, I: IntoIterator<Item = (u32, u8)>>(
    config: &SystemConfig,
    image: &CompressedImage,
    source: SimSource<'_, I>,
    probe: &mut P,
    budget: Option<&mut StepBudget>,
) -> Result<RunStats, SimError> {
    let cache = ICache::new(config.cache_bytes)?;
    let mut engine = RefillEngine::new(config.refill)?;
    let mut memory = config.memory.timing();
    let (counters, cache) = drive(cache, source, budget, |pc, counters| {
        ccrp_miss(&mut engine, &mut memory, image, pc, counters, probe)
    })?;
    Ok(counters.stats(cache, &config.dcache, Some(engine.clb_stats())))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::dcache::DataCacheModel;
    use crate::memory::MemoryModel;
    use ccrp::{BudgetExhausted, CcrpError, DegradePolicy, IntegrityCheck, RefillConfig};
    use ccrp_compress::{
        BlockAlignment, ByteCode, ByteHistogram, LineCodec, LzwLineCodec, PositionalCode,
        PositionalHistogram,
    };
    use ccrp_probe::{Event, EventLog};

    fn fixture_text(code_bytes: usize) -> Vec<u8> {
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
        text
    }

    fn fixture(code_bytes: usize) -> (CompressedImage, Vec<(u32, u8)>) {
        let text = fixture_text(code_bytes);
        let code = ByteCode::preselected(&ByteHistogram::of(&text)).unwrap();
        let image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        let mut trace = Vec::new();
        for _ in 0..8 {
            for pc in (0..code_bytes as u32).step_by(4) {
                trace.push((pc, u8::from(pc % 16 == 0)));
            }
        }
        (image, trace)
    }

    #[test]
    fn captured_source_matches_live_for_every_model() {
        let (image, trace) = fixture(4096);
        let captured = AccessTrace::capture(trace.iter().copied());
        for model in MemoryModel::ALL {
            for cache_bytes in [256u32, 1024] {
                let config = SystemConfig::new()
                    .with_cache_bytes(cache_bytes)
                    .with_memory(model);
                let live = Simulation::new(config)
                    .compare(&image, trace.iter().copied())
                    .unwrap();
                let replayed = Simulation::new(config).compare(&image, &captured).unwrap();
                assert_eq!(live, replayed, "{model:?}/{cache_bytes}");
            }
        }
    }

    #[test]
    fn captured_source_matches_live_for_halfword_strides() {
        // RVC-style traces fetch at 2-byte granularity, so PCs land on
        // arbitrary halfwords; nothing in the capture/replay path may
        // assume the MIPS 4-byte stride.
        let (image, _) = fixture(4096);
        let mut trace = Vec::new();
        for _ in 0..4 {
            for pc in (0..4096u32).step_by(2) {
                trace.push((pc, u8::from(pc % 64 == 30)));
            }
        }
        let captured = AccessTrace::capture(trace.iter().copied());
        for model in MemoryModel::ALL {
            let config = SystemConfig::new().with_cache_bytes(512).with_memory(model);
            let live = Simulation::new(config)
                .compare(&image, trace.iter().copied())
                .unwrap();
            let replayed = Simulation::new(config).compare(&image, &captured).unwrap();
            assert_eq!(live, replayed, "{model:?}");
        }
    }

    /// Xorshift bytes: incompressible, so their lines are stored raw.
    fn noise_text(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// A branchy fetch trace over `code_bytes` of text at PC stride
    /// `stride`: straight-line blocks of 4–19 fetches joined by
    /// pseudo-random jumps, so lines conflict in small caches and LAT
    /// entries churn through small CLBs.
    fn program_trace(code_bytes: u32, stride: u32) -> Vec<(u32, u8)> {
        let mut trace = Vec::new();
        let (mut x, mut pc) = (7u32, 0u32);
        for _ in 0..600 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            for _ in 0..4 + (x >> 28) {
                trace.push((pc, u8::from(pc % 12 == 0)));
                pc = (pc + stride) % code_bytes;
            }
            if x & 0x100 != 0 {
                pc = (x >> 8) % code_bytes / stride * stride;
            }
        }
        trace
    }

    /// Every axis the sweep kernel factors: repeated, out-of-order cache
    /// sizes under every memory model; decode rates and CLB sizes, five
    /// of them from one stack pass under two memories; degradation
    /// policies and full integrity; data-cache models that share one
    /// refill timing.
    fn sweep_configs() -> Vec<SystemConfig> {
        let mut configs = Vec::new();
        for cache_bytes in [1024u32, 256, 4096, 256, 512, 1024] {
            for memory in MemoryModel::ALL {
                configs.push(
                    SystemConfig::new()
                        .with_cache_bytes(cache_bytes)
                        .with_memory(memory),
                );
            }
        }
        for rate in [1, 2, 4] {
            for clb in [1, 16] {
                configs.push(
                    SystemConfig::new()
                        .with_cache_bytes(512)
                        .with_memory(MemoryModel::BurstEprom)
                        .with_decode_bytes_per_cycle(rate)
                        .with_clb_entries(clb),
                );
            }
        }
        for memory in [MemoryModel::BurstEprom, MemoryModel::ScDram] {
            for clb in [2, 4, 8] {
                configs.push(
                    SystemConfig::new()
                        .with_cache_bytes(512)
                        .with_memory(memory)
                        .with_clb_entries(clb),
                );
            }
        }
        for (policy, integrity) in [
            (DegradePolicy::Retry { attempts: 2 }, IntegrityCheck::Fast),
            (DegradePolicy::Trap, IntegrityCheck::Fast),
            (DegradePolicy::Abort, IntegrityCheck::Full),
            (DegradePolicy::Trap, IntegrityCheck::Full),
        ] {
            configs.push(
                SystemConfig::new()
                    .with_cache_bytes(256)
                    .with_memory(MemoryModel::ScDram)
                    .with_refill(RefillConfig {
                        policy,
                        integrity,
                        ..RefillConfig::default()
                    }),
            );
        }
        for miss_rate in [0.0, 0.02, 0.25] {
            configs.push(
                SystemConfig::new()
                    .with_cache_bytes(256)
                    .with_memory(MemoryModel::Eprom)
                    .with_dcache(DataCacheModel::with_miss_rate(miss_rate)),
            );
        }
        configs
    }

    /// Every config's processor pair stepped side by side, fetch by
    /// fetch, through the live loop over `trace` — the oracle for which
    /// error a failing sweep reports: the first invalid config, else
    /// the earliest failing fetch, ties going to the earlier config.
    fn lockstep_sweep(
        image: &CompressedImage,
        trace: &[(u32, u8)],
        configs: &[SystemConfig],
    ) -> Result<Vec<Comparison>, SimError> {
        // Per config: each processor's cache, memory and totals, and
        // the CCRP's refill engine.
        let mut pairs = Vec::new();
        for config in configs {
            let side = || -> Result<_, SimError> {
                let cache = ICache::new(config.cache_bytes)?;
                Ok((cache, config.memory.timing(), SimCounters::default()))
            };
            pairs.push((side()?, side()?, RefillEngine::new(config.refill)?));
        }
        for &fetch in trace {
            for ((cache, memory, counters), ccrp, engine) in &mut pairs {
                run_live(cache, counters, [fetch], None, |pc, counters| {
                    standard_miss(memory, pc, counters, &mut NullProbe);
                    Ok(())
                })?;
                let (cache, memory, counters) = ccrp;
                run_live(cache, counters, [fetch], None, |pc, counters| {
                    ccrp_miss(engine, memory, image, pc, counters, &mut NullProbe)
                })?;
            }
        }
        let stats =
            |(cache, _, counters): &(ICache, _, SimCounters), config: &SystemConfig, clb| {
                counters.stats(cache.stats(), &config.dcache, clb)
            };
        Ok(configs
            .iter()
            .zip(&pairs)
            .map(|(config, (standard, ccrp, engine))| Comparison {
                standard: stats(standard, config, None),
                ccrp: stats(ccrp, config, Some(engine.clb_stats())),
            })
            .collect())
    }

    #[test]
    fn replay_sweep_matches_per_config_compares() {
        let text = fixture_text(4096);
        let huffman: Arc<dyn LineCodec> =
            Arc::new(ByteCode::preselected(&ByteHistogram::of(&text)).unwrap());
        let positional: Arc<dyn LineCodec> =
            Arc::new(PositionalCode::preselected(&PositionalHistogram::of(&text)).unwrap());
        let lzw: Arc<dyn LineCodec> = Arc::new(LzwLineCodec);
        let build = |codec: &Arc<dyn LineCodec>, alignment| {
            CompressedImage::build_with_codec(0, &text, Arc::clone(codec), alignment).unwrap()
        };
        let noise = noise_text(4096);
        let noise_code = ByteCode::preselected(&ByteHistogram::of(&noise)).unwrap();
        let images = [
            ("byte-huffman", build(&huffman, BlockAlignment::Word)),
            ("positional", build(&positional, BlockAlignment::Word)),
            // Its serial decoder caps every configured rate at 1 B/cycle.
            ("lzw", build(&lzw, BlockAlignment::Word)),
            // Blocks start mid-word: the schedule folds the offset in.
            ("byte-aligned", build(&huffman, BlockAlignment::Byte)),
            // A raw refill ends at its burst's last word, so a miss right
            // after it issues inside DRAM's precharge.
            (
                "incompressible",
                CompressedImage::build(0, &noise, noise_code, BlockAlignment::Word).unwrap(),
            ),
        ];
        let (_, byte_aligned) = &images[3];
        let mid_word = |line: u32| {
            !byte_aligned
                .locate(line * 32)
                .unwrap()
                .physical
                .is_multiple_of(4)
        };
        assert!((0..byte_aligned.line_count() as u32).any(mid_word));
        let (_, incompressible) = &images[4];
        assert!(incompressible.bypass_count() > 0);
        let configs = sweep_configs();
        for (name, image) in &images {
            for stride in [4, 2] {
                let trace = program_trace(4096, stride);
                let captured = AccessTrace::capture(trace.iter().copied());
                let swept = Simulation::replay_sweep(image, &captured, &configs).unwrap();
                assert_eq!(swept.len(), configs.len());
                for (config, cell) in configs.iter().zip(&swept) {
                    let direct = Simulation::new(*config)
                        .compare(image, trace.iter().copied())
                        .unwrap();
                    assert_eq!(*cell, direct, "{name}, stride {stride}: {config:?}");
                }
            }
        }
    }

    #[test]
    fn replay_sweep_times_refills_issued_into_a_dram_precharge() {
        // Every line stored raw: a refill ends at its burst's last word,
        // two cycles before DRAM's precharge does.
        let noise = noise_text(4096);
        let code = ByteCode::preselected(&ByteHistogram::of(&noise)).unwrap();
        let image = CompressedImage::build(0, &noise, code, BlockAlignment::Word).unwrap();
        assert_eq!(image.bypass_count(), image.line_count());
        // One fetch per line misses on consecutive fetches, so each such
        // miss issues one cycle into the last refill's precharge; a line
        // fetched through all eight words leaves the next miss an idle
        // memory, and the miss after that one a precharge again. Which
        // lines run through shifts every second pass, so a (line, CLB
        // outcome) is issued idle twice running, and busy in other passes.
        let mut trace = Vec::new();
        for pass in 0..6u32 {
            for line in 0..128u32 {
                let words = if (line + pass / 2) % 3 == 0 { 8 } else { 1 };
                trace.extend((0..words).map(|word| (line * 32 + 4 * word, 0)));
            }
        }
        let mut configs = Vec::new();
        for cache_bytes in [256u32, 1024, 4096] {
            for memory in MemoryModel::ALL {
                for clb in [1, 4, 16] {
                    configs.push(
                        SystemConfig::new()
                            .with_cache_bytes(cache_bytes)
                            .with_memory(memory)
                            .with_clb_entries(clb),
                    );
                }
            }
        }
        // The trace does issue DRAM refills both ways.
        let mut engine = RefillEngine::new(RefillConfig::default()).unwrap();
        let mut memory = MemoryModel::ScDram.timing();
        let (mut idle, mut busy) = (0, 0);
        let cache = &mut ICache::new(256).unwrap();
        run_live(
            cache,
            &mut SimCounters::default(),
            trace.iter().copied(),
            None,
            |pc, counters| {
                if memory.lag(counters.cycle) == 0 {
                    idle += 1;
                } else {
                    busy += 1;
                }
                ccrp_miss(
                    &mut engine,
                    &mut memory,
                    &image,
                    pc,
                    counters,
                    &mut NullProbe,
                )
            },
        )
        .unwrap();
        assert!(idle > 100 && busy > 100, "{idle} idle, {busy} busy");
        let captured = AccessTrace::capture(trace.iter().copied());
        let swept = Simulation::replay_sweep(&image, &captured, &configs).unwrap();
        for (config, cell) in configs.iter().zip(&swept) {
            let direct = Simulation::new(*config)
                .compare(&image, trace.iter().copied())
                .unwrap();
            assert_eq!(*cell, direct, "{config:?}");
        }
    }

    #[test]
    fn invalid_configs_fail_the_sweep_with_the_first_ones_error() {
        let (image, trace) = fixture(1024);
        let captured = AccessTrace::capture(trace.iter().copied());
        let valid = SystemConfig::new().with_cache_bytes(512);
        let bad_cache = valid.with_cache_bytes(100);
        let empty_clb = valid.with_clb_entries(0);
        let zero_rate = valid.with_decode_bytes_per_cycle(0);
        for (configs, expected) in [
            (
                vec![valid, bad_cache, empty_clb],
                SimError::Cache(ICache::new(100).unwrap_err()),
            ),
            (
                vec![valid, empty_clb, bad_cache],
                SimError::Ccrp(CcrpError::EmptyClb),
            ),
            (
                vec![zero_rate, valid, empty_clb],
                SimError::Ccrp(CcrpError::BadBlockLength { length: 0 }),
            ),
        ] {
            let swept = Simulation::replay_sweep(&image, &captured, &configs);
            assert_eq!(swept, Err(expected.clone()), "{configs:?}");
            assert_eq!(swept, lockstep_sweep(&image, &trace, &configs));
        }
    }

    #[test]
    fn failing_refills_report_the_earliest_miss_then_the_earliest_config() {
        let (pristine, mut trace) = fixture(4096);
        let line_of =
            |image: &CompressedImage, line: usize| image.locate(line as u32 * 32).unwrap();
        // A flipped block byte that only Full integrity detects, in a
        // line the trace reaches first, and a LAT length every config
        // rejects, in a later line.
        let early = (1..pristine.line_count())
            .find(|&line| !line_of(&pristine, line).bypass)
            .unwrap();
        let late = early + 16;
        let mut image = pristine.clone();
        image.attach_block_crcs();
        image.corrupt_block_byte(early, 0, 0x10).unwrap();
        let truth = line_of(&image, late).stored_len;
        image
            .corrupt_lat_length(late, if truth == 32 { 31 } else { 32 })
            .unwrap();
        let captured = AccessTrace::capture(trace.iter().copied());
        let fast = SystemConfig::new().with_cache_bytes(1024);
        let full = |policy| {
            SystemConfig::new()
                .with_cache_bytes(512)
                .with_refill(RefillConfig {
                    policy,
                    integrity: IntegrityCheck::Full,
                    ..RefillConfig::default()
                })
        };
        let trap = fast.with_refill(RefillConfig {
            policy: DegradePolicy::Trap,
            ..RefillConfig::default()
        });
        let full_abort = full(DegradePolicy::Abort);
        let full_trap = full(DegradePolicy::Trap);
        for configs in [
            // Full integrity fails earlier in the trace than any Fast
            // config, whatever the config order.
            vec![fast, trap, full_abort, full_trap],
            vec![fast, full_trap, trap, full_abort],
            // Fast configs alone fail at the LAT lie; ties between
            // configs go to the earlier one.
            vec![fast, trap],
            vec![trap, fast],
        ] {
            let swept = Simulation::replay_sweep(&image, &captured, &configs);
            let lockstep = lockstep_sweep(&image, &trace, &configs);
            assert!(swept.is_err(), "{configs:?}");
            assert_eq!(swept, lockstep, "{configs:?}");
        }
        let first = |configs: &[SystemConfig]| {
            Simulation::replay_sweep(&image, &captured, configs).unwrap_err()
        };
        assert!(matches!(
            first(&[fast, trap, full_abort]),
            SimError::Ccrp(CcrpError::CrcMismatch { .. })
        ));
        assert!(matches!(
            first(&[trap, fast]),
            SimError::Ccrp(CcrpError::MachineCheck { .. })
        ));
        assert!(matches!(
            first(&[fast, trap]),
            SimError::Ccrp(CcrpError::Integrity { .. })
        ));

        // A fetch outside the image fails every config at the same miss.
        trace.insert(trace.len() / 2, (0x10_0000, 0));
        let captured = AccessTrace::capture(trace.iter().copied());
        let configs = sweep_configs();
        let swept = Simulation::replay_sweep(&pristine, &captured, &configs);
        assert!(matches!(
            swept,
            Err(SimError::Ccrp(CcrpError::AddressOutOfRange { .. }))
        ));
        assert_eq!(swept, lockstep_sweep(&pristine, &trace, &configs));
    }

    /// The live-vs-captured matrix: every memory model under
    /// `Abort`/`Fast`, `Retry`/`Full` and `Trap`/`Full`, over a pristine
    /// image and one with a corrupted block that only `Full` integrity
    /// detects (so six of the eighteen runs fail over `fixture`'s trace).
    fn source_cases(mut pristine: CompressedImage) -> Vec<(CompressedImage, SystemConfig)> {
        pristine.attach_block_crcs();
        let line = (1..pristine.line_count())
            .find(|&line| !pristine.locate(line as u32 * 32).unwrap().bypass)
            .unwrap();
        let mut corrupted = pristine.clone();
        corrupted.corrupt_block_byte(line, 0, 0x10).unwrap();
        let mut cases = Vec::new();
        for image in [&pristine, &corrupted] {
            for model in MemoryModel::ALL {
                for (policy, integrity) in [
                    (DegradePolicy::Abort, IntegrityCheck::Fast),
                    (DegradePolicy::Retry { attempts: 2 }, IntegrityCheck::Full),
                    (DegradePolicy::Trap, IntegrityCheck::Full),
                ] {
                    let config = SystemConfig::new()
                        .with_cache_bytes(256)
                        .with_memory(model)
                        .with_refill(RefillConfig {
                            policy,
                            integrity,
                            ..RefillConfig::default()
                        });
                    cases.push((image.clone(), config));
                }
            }
        }
        cases
    }

    #[test]
    fn probes_see_identical_streams_from_both_sources() {
        let (image, trace) = fixture(2048);
        let captured = AccessTrace::capture(trace.iter().copied());
        let cases = source_cases(image);
        let mut failures = 0;
        for (image, config) in &cases {
            let mut live_std = EventLog::new();
            let mut live_ccrp = EventLog::new();
            let live = Simulation::new(*config)
                .standard_probed(&mut live_std)
                .ccrp_probed(&mut live_ccrp)
                .compare(image, trace.iter().copied());

            let mut replay_std = EventLog::new();
            let mut replay_ccrp = EventLog::new();
            let replayed = Simulation::new(*config)
                .standard_probed(&mut replay_std)
                .ccrp_probed(&mut replay_ccrp)
                .compare(image, &captured);

            // On a failing run the logs hold the events emitted before
            // the error.
            assert_eq!(live, replayed, "{config:?}");
            assert_eq!(live_std.events(), replay_std.events(), "{config:?}");
            assert_eq!(live_ccrp.events(), replay_ccrp.events(), "{config:?}");
            assert!(
                live_ccrp
                    .events()
                    .iter()
                    .any(|e| matches!(e.event, Event::RefillDone { .. })),
                "{config:?}"
            );
            failures += usize::from(live.is_err());
        }
        assert_eq!(failures, 6);
    }

    #[test]
    fn budget_spend_is_identical_across_sources() {
        // A budget error reports the fuel spent before the trip, which
        // follows each source's charge granularity; the rest must match.
        let forget_spent = |result: Result<RunStats, SimError>| match result {
            Err(SimError::Budget(e)) => Err(SimError::Budget(BudgetExhausted { spent: 0, ..e })),
            other => other,
        };
        let (image, trace) = fixture(2048);
        let captured = AccessTrace::capture(trace.iter().copied());
        let cases = source_cases(image);
        let mut refill_errors = 0;
        for (image, config) in &cases {
            let mut live_budget = StepBudget::unlimited();
            let live = Simulation::new(*config)
                .budgeted(&mut live_budget)
                .compare(image, trace.iter().copied());
            let mut replay_budget = StepBudget::unlimited();
            let replayed = Simulation::new(*config)
                .budgeted(&mut replay_budget)
                .compare(image, &captured);
            assert_eq!(live, replayed, "{config:?}");
            if let Ok(cell) = &live {
                // Fuel equals the simulated cycles either way; only the
                // charge granularity (fetch vs miss) differs.
                let cycles = |run: &RunStats| run.instructions + run.refill_cycles;
                assert_eq!(live_budget.spent(), replay_budget.spent(), "{config:?}");
                assert_eq!(
                    live_budget.spent(),
                    cycles(&cell.standard) + cycles(&cell.ccrp),
                    "{config:?}"
                );
            }
            // Tight budgets stop both sources alike, wherever they run
            // out: on a hit, on a refill, or on the corrupted line.
            for fuel in 0..300 {
                let mut live_budget = StepBudget::limited(fuel);
                let live = Simulation::new(*config)
                    .budgeted(&mut live_budget)
                    .ccrp(image, trace.iter().copied());
                let mut replay_budget = StepBudget::limited(fuel);
                let replayed = Simulation::new(*config)
                    .budgeted(&mut replay_budget)
                    .ccrp(image, &captured);
                refill_errors += usize::from(matches!(live, Err(SimError::Ccrp(_))));
                assert_eq!(
                    forget_spent(live),
                    forget_spent(replayed),
                    "{config:?}, fuel {fuel}"
                );
            }
        }
        assert!(refill_errors > 0, "the sweep reaches the corrupted line");

        // A tight budget trips a replay with a typed error.
        let (image, config) = &cases[0];
        let mut tight = StepBudget::limited(200);
        let err = Simulation::new(*config)
            .budgeted(&mut tight)
            .ccrp(image, &captured)
            .unwrap_err();
        assert!(matches!(err, SimError::Budget(_)));
    }

    #[test]
    fn bad_geometry_is_rejected_before_execution() {
        let (image, _) = fixture(256);
        let config = SystemConfig::new().with_cache_bytes(100);
        let err = Simulation::new(config)
            .compare(&image, std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, SimError::Cache(_)));
        assert!(Simulation::replay_sweep(&image, &AccessTrace::default(), &[config]).is_err());
    }
}
