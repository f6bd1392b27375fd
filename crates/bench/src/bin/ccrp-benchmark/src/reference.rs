//! The reference computation: fixed work, independent of the toolchain,
//! that is timed beside the operations so that their latency can be read
//! in units of the host's current speed.
//!
//! The benchmark's host is a virtual machine whose speed drifts with its
//! neighbours' load, by more between runs than any bound may allow. A
//! chain of cache-resident table lookups, timed between operations,
//! drifts with them: over one ten-minute stretch, the reproduction time
//! of half-minute blocks spread by 26% (interquartile range over median)
//! and the same time divided by this computation's by 6%. See
//! `README.md`.

use std::hint::black_box;
use std::time::Instant;

/// Table entries: 64 KiB, resident in the core's own caches, so the
/// computation follows the core's speed rather than the memory system's.
const WORDS: usize = 1 << 14;
/// Dependent lookups per run: about 50 ms on the baseline host.
const STEPS: u64 = 10_000_000;

/// A chain of `steps` dependent lookups into a pseudo-random table.
fn chase(steps: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let table: Vec<u32> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let (mut index, mut acc) = (0usize, 0u64);
    for _ in 0..steps {
        let word = table[index];
        acc = acc.wrapping_mul(31).wrapping_add(u64::from(word));
        index = (word as usize ^ (acc >> 3) as usize) & (WORDS - 1);
    }
    acc
}

/// Runs the reference computation once; returns its wall time in ms.
pub fn time_ms() -> f64 {
    let started = Instant::now();
    black_box(chase(black_box(STEPS)));
    started.elapsed().as_secs_f64() * 1e3
}
