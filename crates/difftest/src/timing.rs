//! Refill timing-invariant checker.
//!
//! Drives the cycle-accurate [`RefillEngine`] over every line of a
//! compressed image — twice per line, under a deliberately tiny CLB so
//! both the miss and hit paths are exercised — and checks the probe
//! event stream against the accounting identities the paper's cost
//! model rests on:
//!
//! * **A (bus accounting)** — the bytes a refill reports equal 4× the
//!   words of the memory bursts it issued; cycles charged equal the
//!   `RefillStart` → `RefillDone` span.
//! * **B (bypass path)** — an uncompressed (bypass) line completes the
//!   cycle its last burst word arrives: the decoder is never touched.
//!   A compressed line always finishes strictly later.
//! * **C (CLB path)** — a CLB hit issues exactly one burst (the block);
//!   a miss exactly two (LAT entry + block). Hits never re-read the LAT.
//! * **E (integrity is free of side effects)** — `Fast` and `Full`
//!   integrity produce identical [`RefillOutcome`]s on a pristine image.

use ccrp::{
    Burst, CompressedImage, DegradePolicy, IntegrityCheck, MemoryTiming, RefillConfig,
    RefillEngine, RefillOutcome,
};
use ccrp_probe::{Event, EventLog};

/// A fixed-latency burst memory: word `i` of a burst issued at `now`
/// arrives at `now + LATENCY + i`, the same model the refill engine's
/// own tests use.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearMemory;

/// First-word latency of [`LinearMemory`] in cycles.
pub const FIRST_WORD_LATENCY: u64 = 4;

impl MemoryTiming for LinearMemory {
    fn read_burst(&mut self, _words: u32, now: u64) -> Burst {
        Burst {
            first: now + FIRST_WORD_LATENCY,
            interval: 1,
        }
    }
}

/// Result of a timing-invariant sweep over one image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingReport {
    /// Refills performed (lines × passes × integrity levels).
    pub refills: u64,
    /// Human-readable invariant violations; empty on success.
    pub violations: Vec<String>,
}

impl TimingReport {
    /// True when every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// CLB capacity used by the sweep: small enough that multi-entry images
/// evict, so the hit, miss, *and* re-fetch-after-evict paths all run.
pub const SWEEP_CLB_ENTRIES: usize = 2;

/// Sweeps every line of `image` twice under both integrity levels and
/// checks invariants A–C per refill and E across levels.
pub fn check_refill_invariants(image: &CompressedImage) -> TimingReport {
    let mut report = TimingReport::default();
    let mut outcomes_by_level: Vec<Vec<RefillOutcome>> = Vec::new();
    for integrity in [IntegrityCheck::Fast, IntegrityCheck::Full] {
        match sweep(image, integrity, &mut report) {
            Ok(outcomes) => outcomes_by_level.push(outcomes),
            Err(violation) => report.violations.push(violation),
        }
    }
    if let [fast, full] = outcomes_by_level.as_slice() {
        if fast != full {
            report.violations.push(
                "invariant E: Fast and Full integrity outcomes differ on a pristine image"
                    .to_string(),
            );
        }
    }
    report
}

fn sweep(
    image: &CompressedImage,
    integrity: IntegrityCheck,
    report: &mut TimingReport,
) -> Result<Vec<RefillOutcome>, String> {
    let mut engine = RefillEngine::new(RefillConfig {
        clb_entries: SWEEP_CLB_ENTRIES,
        decode_bytes_per_cycle: 2,
        policy: DegradePolicy::Abort,
        integrity,
    })
    .map_err(|e| format!("refill engine construction failed: {e}"))?;
    let mut memory = LinearMemory;
    let mut outcomes = Vec::with_capacity(2 * image.line_count());
    let mut log = EventLog::new();
    let mut now: u64 = 0;
    for pass in 0..2u32 {
        for line in 0..image.line_count() {
            let address = image.text_base() + line as u32 * 32;
            log.clear();
            let outcome = engine
                .refill_probed(image, address, now, &mut memory, &mut log)
                .map_err(|e| {
                    format!("pristine refill failed at {address:#010x} pass {pass}: {e}")
                })?;
            report.refills += 1;
            check_refill(&log, outcome, address, now, pass, &mut report.violations);
            outcomes.push(outcome);
            now = outcome.ready_at + 1;
        }
    }
    Ok(outcomes)
}

/// Checks invariants A–C for one probed refill.
fn check_refill(
    log: &EventLog,
    outcome: RefillOutcome,
    address: u32,
    now: u64,
    pass: u32,
    violations: &mut Vec<String>,
) {
    let mut fail = |invariant: &str, detail: String| {
        violations.push(format!(
            "invariant {invariant} at {address:#010x} pass {pass}: {detail}"
        ));
    };
    let Some(start) = log.events_of_kind("refill_start").next() else {
        fail("A", "no RefillStart event".to_string());
        return;
    };
    if start.cycle != now {
        fail(
            "A",
            format!(
                "RefillStart at cycle {}, refill issued at {now}",
                start.cycle
            ),
        );
    }
    let Some(done) = log.events_of_kind("refill").last() else {
        fail("A", "no RefillDone event".to_string());
        return;
    };
    let Event::RefillDone {
        cycles,
        bytes,
        clb_hit,
        bypass,
        retries,
        ..
    } = done.event
    else {
        return;
    };
    if done.cycle != outcome.ready_at || cycles != outcome.ready_at.saturating_sub(now) {
        fail(
            "A",
            format!(
                "RefillDone at cycle {} reporting {cycles} cycles; outcome ready_at {}",
                done.cycle, outcome.ready_at
            ),
        );
    }
    if (bytes, clb_hit, bypass, retries)
        != (
            outcome.bytes_fetched,
            outcome.clb_hit,
            outcome.bypass,
            outcome.retries,
        )
    {
        fail(
            "A",
            format!(
                "RefillDone fields {:?} disagree with outcome {outcome:?}",
                done.event
            ),
        );
    }
    let bursts: Vec<(u32, u64)> = log
        .events_of_kind("memory_burst")
        .filter_map(|t| match t.event {
            Event::MemoryBurst { words, done } => Some((words, done)),
            _ => None,
        })
        .collect();
    let burst_words: u32 = bursts.iter().map(|&(words, _)| words).sum();
    if bytes != burst_words * 4 {
        fail(
            "A",
            format!(
                "{bytes} bytes charged, bursts moved {} bytes",
                burst_words * 4
            ),
        );
    }
    let expected_bursts = if clb_hit { 1 } else { 2 };
    if bursts.len() != expected_bursts {
        fail(
            "C",
            format!(
                "clb_hit={clb_hit} refill issued {} bursts, expected {expected_bursts} \
                 (hits must not re-read the LAT)",
                bursts.len()
            ),
        );
    }
    if clb_hit && log.events_of_kind("clb_hit").next().is_none() {
        fail("C", "outcome says CLB hit but no ClbHit event".to_string());
    }
    let Some(&(_, last_arrival)) = bursts.last() else {
        fail("B", "refill issued no memory burst".to_string());
        return;
    };
    if bypass && outcome.ready_at != last_arrival {
        fail(
            "B",
            format!(
                "bypass line ready at {} but last word arrived at {last_arrival} \
                 (bypass must never touch the decoder)",
                outcome.ready_at
            ),
        );
    }
    if !bypass && outcome.ready_at <= last_arrival {
        fail(
            "B",
            format!(
                "compressed line ready at {} not after last arrival {last_arrival}",
                outcome.ready_at
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::build_rom;
    use crate::progen::ProgGen;
    use ccrp_asm::assemble;

    #[test]
    fn pristine_generated_images_satisfy_all_invariants() {
        for seed in 0..8 {
            let image = assemble(&ProgGen::generate(seed).source()).expect("assembles");
            let rom = build_rom(&image).expect("builds");
            let report = check_refill_invariants(&rom);
            assert!(
                report.clean(),
                "seed {seed} violations:\n{}",
                report.violations.join("\n")
            );
            // Two passes × two integrity levels over every line.
            assert_eq!(report.refills, u64::from(rom.line_count() as u32) * 4);
        }
    }

    #[test]
    fn sweep_exercises_both_hit_and_miss_paths() {
        let image = assemble(&ProgGen::generate(1).source()).expect("assembles");
        let rom = build_rom(&image).expect("builds");
        let mut engine = RefillEngine::new(RefillConfig {
            clb_entries: SWEEP_CLB_ENTRIES,
            decode_bytes_per_cycle: 2,
            policy: DegradePolicy::Abort,
            integrity: IntegrityCheck::Fast,
        })
        .expect("engine");
        let mut memory = LinearMemory;
        let (mut hits, mut misses) = (0u32, 0u32);
        let mut now = 0;
        for _ in 0..2 {
            for line in 0..rom.line_count() {
                let address = rom.text_base() + line as u32 * 32;
                let outcome = engine
                    .refill(&rom, address, now, &mut memory)
                    .expect("refills");
                if outcome.clb_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                now = outcome.ready_at + 1;
            }
        }
        assert!(hits > 0, "sweep never hit the CLB");
        assert!(misses > 0, "sweep never missed the CLB");
    }
}
