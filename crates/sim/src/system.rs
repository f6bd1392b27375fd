//! The trace-driven system simulator's (§4.1) configuration, errors and
//! results. [`Simulation`](crate::Simulation) replays an instruction
//! trace through the cache/memory hierarchy twice — once as a standard
//! R2000-style processor, once as a CCRP — and reports the paper's
//! metrics in a [`Comparison`]: relative execution time,
//! instruction-cache miss rate, and relative memory traffic.
//!
//! As in the paper, the pipeline freezes during refills ("We also do not
//! permit the processor pipeline to continue when instruction fetches are
//! delayed") and compulsory misses are included.

use std::error::Error;
use std::fmt;

use ccrp::{BudgetExhausted, CcrpError, ClbStats, RefillConfig};

use crate::dcache::DataCacheModel;
use crate::icache::{BadCacheSize, CacheStats};
use crate::memory::MemoryModel;

/// Configuration of one simulated system.
///
/// `#[non_exhaustive]`: construct it with [`SystemConfig::new`] (or
/// `default()`) and the `with_*` builders, so configs keep working as
/// fields are added:
///
/// ```
/// use ccrp_sim::{MemoryModel, SystemConfig};
///
/// let config = SystemConfig::new()
///     .with_cache_bytes(256)
///     .with_memory(MemoryModel::Eprom)
///     .with_clb_entries(8);
/// assert_eq!(config.refill.clb_entries, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SystemConfig {
    /// Instruction-cache capacity in bytes (256..=4096 in the paper).
    pub cache_bytes: u32,
    /// Instruction-memory model.
    pub memory: MemoryModel,
    /// Refill-engine configuration: CLB capacity, decoder throughput,
    /// degradation policy, integrity checking (CCRP only).
    pub refill: RefillConfig,
    /// Data-side cost model (applies to both processors).
    pub dcache: DataCacheModel,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            cache_bytes: 1024,
            memory: MemoryModel::BurstEprom,
            refill: RefillConfig::default(),
            dcache: DataCacheModel::NONE,
        }
    }
}

impl SystemConfig {
    /// The paper's baseline: 1 KB cache, burst EPROM, 16-entry CLB,
    /// 2 B/cycle decoder, no data-side stalls.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the instruction-cache capacity in bytes.
    #[must_use]
    pub fn with_cache_bytes(mut self, cache_bytes: u32) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Sets the instruction-memory model.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryModel) -> Self {
        self.memory = memory;
        self
    }

    /// Replaces the whole refill-engine configuration.
    #[must_use]
    pub fn with_refill(mut self, refill: RefillConfig) -> Self {
        self.refill = refill;
        self
    }

    /// Sets the CLB capacity in LAT entries (CCRP only).
    #[must_use]
    pub fn with_clb_entries(mut self, clb_entries: usize) -> Self {
        self.refill.clb_entries = clb_entries;
        self
    }

    /// Sets the decoder throughput in bytes per cycle (CCRP only).
    #[must_use]
    pub fn with_decode_bytes_per_cycle(mut self, bytes: u32) -> Self {
        self.refill.decode_bytes_per_cycle = bytes;
        self
    }

    /// Sets the data-side cost model.
    #[must_use]
    pub fn with_dcache(mut self, dcache: DataCacheModel) -> Self {
        self.dcache = dcache;
        self
    }
}

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Invalid cache geometry.
    Cache(BadCacheSize),
    /// A trace address the compressed image cannot serve, or another
    /// CCRP-level failure.
    Ccrp(CcrpError),
    /// A caller-supplied [`StepBudget`](ccrp::StepBudget) ran out before the trace was
    /// fully replayed (the deadline-aware refill guard: simulated
    /// cycles — including refill latency — are what get charged).
    Budget(BudgetExhausted),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cache(e) => write!(f, "{e}"),
            SimError::Ccrp(e) => write!(f, "{e}"),
            SimError::Budget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Cache(e) => Some(e),
            SimError::Ccrp(e) => Some(e),
            SimError::Budget(e) => Some(e),
        }
    }
}

impl From<BudgetExhausted> for SimError {
    fn from(e: BudgetExhausted) -> Self {
        SimError::Budget(e)
    }
}

impl From<BadCacheSize> for SimError {
    fn from(e: BadCacheSize) -> Self {
        SimError::Cache(e)
    }
}

impl From<CcrpError> for SimError {
    fn from(e: CcrpError) -> Self {
        SimError::Ccrp(e)
    }
}

/// Metrics from one processor's run over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Dynamic data-access count.
    pub data_accesses: u64,
    /// Instruction-cache counters.
    pub cache: CacheStats,
    /// Total cycles spent waiting on line refills.
    pub refill_cycles: u64,
    /// Bytes read from instruction memory (lines, plus LAT entries on
    /// the CCRP).
    pub bytes_from_memory: u64,
    /// Analytical data-side stall cycles.
    pub data_stall_cycles: f64,
    /// CLB counters (CCRP runs only).
    pub clb: Option<ClbStats>,
}

impl RunStats {
    /// Total execution cycles: one per instruction (single-issue,
    /// single-cycle hits) plus refill stalls plus data stalls.
    pub fn total_cycles(&self) -> f64 {
        self.instructions as f64 + self.refill_cycles as f64 + self.data_stall_cycles
    }
}

/// Both processors' results over the same trace and configuration — one
/// cell of the paper's Tables 1–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The standard processor's run.
    pub standard: RunStats,
    /// The CCRP's run.
    pub ccrp: RunStats,
}

impl Comparison {
    /// The tables' "Relative Performance" column: CCRP execution time
    /// over standard execution time. Below 1.0 the CCRP is *faster*
    /// (matching the prose: EPROM entries below 1.0 are wins).
    pub fn relative_execution_time(&self) -> f64 {
        self.ccrp.total_cycles() / self.standard.total_cycles()
    }

    /// The instruction-cache miss rate (identical for both processors —
    /// the CCRP's cache sees the same addresses).
    pub fn miss_rate(&self) -> f64 {
        self.standard.cache.miss_rate()
    }

    /// The tables' "Memory Traffic" column: CCRP instruction-memory bytes
    /// over standard bytes.
    pub fn memory_traffic_ratio(&self) -> f64 {
        if self.standard.bytes_from_memory == 0 {
            1.0
        } else {
            self.ccrp.bytes_from_memory as f64 / self.standard.bytes_from_memory as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::Simulation;
    use ccrp::{CompressedImage, StepBudget};
    use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};

    /// A compressible synthetic program plus a looping trace over it.
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
        // Trace: 16 passes over all of the text, 1 data access per 4th pc.
        let mut trace = Vec::new();
        for _ in 0..16 {
            for pc in (0..code_bytes as u32).step_by(4) {
                trace.push((pc, u8::from(pc % 16 == 0)));
            }
        }
        (image, trace)
    }

    fn compare(
        image: &CompressedImage,
        trace: impl IntoIterator<Item = (u32, u8), IntoIter: Clone>,
        config: &SystemConfig,
    ) -> Result<Comparison, SimError> {
        Simulation::new(*config).compare(image, trace)
    }

    #[test]
    fn budgeted_replay_matches_plain_when_fuel_suffices() {
        let (image, trace) = fixture(2048);
        let config = SystemConfig::new().with_cache_bytes(256);
        let plain = Simulation::new(config)
            .ccrp(&image, trace.iter().copied())
            .unwrap();
        let mut budget = StepBudget::limited(u64::MAX / 2);
        let budgeted = Simulation::new(config)
            .budgeted(&mut budget)
            .ccrp(&image, trace.iter().copied())
            .unwrap();
        assert_eq!(budgeted, plain);
        // The charge is cycle-accurate: fuel spent equals the simulated
        // end-to-end cycle count (every entry charges its cycles, min 1).
        assert!(budget.spent() >= plain.instructions);

        let std_plain = Simulation::new(config)
            .standard(trace.iter().copied())
            .unwrap();
        let mut std_budget = StepBudget::unlimited();
        let std_budgeted = Simulation::new(config)
            .budgeted(&mut std_budget)
            .standard(trace.iter().copied())
            .unwrap();
        assert_eq!(std_budgeted, std_plain);
    }

    #[test]
    fn budgeted_replay_trips_on_refill_heavy_traces() {
        let (image, trace) = fixture(2048);
        // EPROM refills are slow; a tiny cycle budget must trip long
        // before the trace ends, and deterministically so.
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);
        let mut budget = StepBudget::limited(200);
        let err = Simulation::new(config)
            .budgeted(&mut budget)
            .ccrp(&image, trace.iter().copied())
            .unwrap_err();
        assert!(matches!(err, SimError::Budget(_)));
        let mut again = StepBudget::limited(200);
        let err2 = Simulation::new(config)
            .budgeted(&mut again)
            .ccrp(&image, trace.iter().copied())
            .unwrap_err();
        assert_eq!(
            format!("{err}"),
            format!("{err2}"),
            "fuel exhaustion is deterministic"
        );
    }

    #[test]
    fn eprom_favors_compressed_code() {
        let (image, trace) = fixture(8192);
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);
        let cmp = compare(&image, trace.iter().copied(), &config).unwrap();
        assert!(
            cmp.relative_execution_time() < 1.0,
            "EPROM should favor CCRP, got {}",
            cmp.relative_execution_time()
        );
        assert!(cmp.memory_traffic_ratio() < 1.0);
    }

    #[test]
    fn burst_eprom_penalizes_compressed_code() {
        let (image, trace) = fixture(8192);
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::BurstEprom);
        let cmp = compare(&image, trace.iter().copied(), &config).unwrap();
        assert!(
            cmp.relative_execution_time() > 1.0,
            "fast memory should favor the standard core, got {}",
            cmp.relative_execution_time()
        );
        // Traffic still shrinks even when time grows.
        assert!(cmp.memory_traffic_ratio() < 1.0);
    }

    #[test]
    fn bigger_cache_lowers_miss_rate_and_converges_to_parity() {
        let (image, trace) = fixture(4096);
        let mut last_rate = f64::INFINITY;
        let mut last_rel_gap = f64::INFINITY;
        for cache_bytes in [256u32, 1024, 4096] {
            let config = SystemConfig::new()
                .with_cache_bytes(cache_bytes)
                .with_memory(MemoryModel::Eprom);
            let cmp = compare(&image, trace.iter().copied(), &config).unwrap();
            assert!(cmp.miss_rate() <= last_rate);
            last_rate = cmp.miss_rate();
            let gap = (cmp.relative_execution_time() - 1.0).abs();
            assert!(
                gap <= last_rel_gap + 1e-12,
                "larger caches mute the difference"
            );
            last_rel_gap = gap;
        }
    }

    #[test]
    fn perfect_cache_means_parity() {
        // With every fetch hitting after warmup and a huge cache, both
        // processors differ only in compulsory misses.
        let (image, trace) = fixture(1024);
        let config = SystemConfig::new()
            .with_cache_bytes(4096)
            .with_memory(MemoryModel::BurstEprom);
        let cmp = compare(&image, trace.iter().copied(), &config).unwrap();
        assert!((cmp.relative_execution_time() - 1.0).abs() < 0.05);
    }

    #[test]
    fn data_cache_dilutes_the_difference() {
        // Table 11's premise: more data-stall cycles shrink the relative
        // gap between the processors.
        let (image, trace) = fixture(8192);
        let base = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);
        let no_data = base.with_dcache(DataCacheModel::with_miss_rate(0.0));
        let full_data = base.with_dcache(DataCacheModel::NONE);
        let tight = compare(&image, trace.iter().copied(), &no_data).unwrap();
        let diluted = compare(&image, trace.iter().copied(), &full_data).unwrap();
        let tight_gap = (tight.relative_execution_time() - 1.0).abs();
        let diluted_gap = (diluted.relative_execution_time() - 1.0).abs();
        assert!(diluted_gap < tight_gap);
    }

    #[test]
    fn stats_are_consistent() {
        let (image, trace) = fixture(2048);
        let config = SystemConfig::default();
        let cmp = compare(&image, trace.iter().copied(), &config).unwrap();
        assert_eq!(cmp.standard.instructions, trace.len() as u64);
        assert_eq!(cmp.ccrp.instructions, trace.len() as u64);
        assert_eq!(cmp.standard.cache.fetches, trace.len() as u64);
        let clb = cmp.ccrp.clb.expect("ccrp run has CLB stats");
        assert_eq!(clb.hits + clb.misses, cmp.ccrp.cache.misses);
        assert_eq!(
            cmp.standard.bytes_from_memory,
            cmp.standard.cache.misses * 32
        );
        assert!(cmp.ccrp.bytes_from_memory < cmp.standard.bytes_from_memory);
    }

    #[test]
    fn probed_run_matches_plain_and_sees_all_misses() {
        use ccrp_probe::{Event, EventLog};

        let (image, trace) = fixture(4096);
        let config = SystemConfig::new()
            .with_cache_bytes(256)
            .with_memory(MemoryModel::Eprom);
        let plain = compare(&image, trace.iter().copied(), &config).unwrap();
        let mut std_log = EventLog::new();
        let mut ccrp_log = EventLog::new();
        let probed = Simulation::new(config)
            .standard_probed(&mut std_log)
            .ccrp_probed(&mut ccrp_log)
            .compare(&image, trace.iter().copied())
            .unwrap();
        assert_eq!(plain, probed, "probes must not perturb the simulation");

        let misses = |log: &EventLog| {
            log.events()
                .iter()
                .filter(|e| matches!(e.event, Event::CacheMiss { .. }))
                .count() as u64
        };
        assert_eq!(misses(&std_log), plain.standard.cache.misses);
        assert_eq!(misses(&ccrp_log), plain.ccrp.cache.misses);
        // The CCRP stream also carries refill and CLB events.
        assert!(ccrp_log
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::RefillDone { .. })));
        assert!(std_log
            .events()
            .iter()
            .all(|e| !matches!(e.event, Event::RefillDone { .. })));
    }

    #[test]
    fn out_of_image_trace_errors() {
        let (image, _) = fixture(256);
        let config = SystemConfig::default();
        let err = Simulation::new(config)
            .ccrp(&image, [(0x0010_0000u32, 0u8)])
            .unwrap_err();
        assert!(matches!(err, SimError::Ccrp(_)));
    }

    #[test]
    fn empty_trace_is_fine() {
        let (image, _) = fixture(256);
        let cmp = compare(&image, std::iter::empty(), &SystemConfig::default()).unwrap();
        assert_eq!(cmp.standard.instructions, 0);
        assert!(cmp.relative_execution_time().is_nan());
    }
}
