use std::collections::VecDeque;

use crate::memory::Memory;

/// The complete architectural state of a [`Machine`](crate::Machine):
/// everything the program can observe, separated from the stepping logic
/// and from derived caches (the decoded text, the compressed-ROM
/// expansion flags) that can be rebuilt from the program image.
///
/// Two machines with equal `ArchState` behave identically from that point
/// on, whatever path got them there — this is the unit a
/// [`Checkpoint`](crate::Checkpoint) snapshots and the equality the
/// checkpoint test battery asserts instruction by instruction. FP
/// registers are raw bits, so `Eq` is exact (no NaN ambiguity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// General-purpose registers; index 0 is hardwired zero.
    pub regs: [u32; 32],
    /// Multiply/divide `hi` result register.
    pub hi: u32,
    /// Multiply/divide `lo` result register.
    pub lo: u32,
    /// R2010 FP registers as raw bits (doubles live in even/odd pairs).
    pub fpr: [u32; 32],
    /// The CP1 condition flag set by `c.eq.s`-family compares.
    pub fp_cond: bool,
    /// Address of the next instruction to execute.
    pub pc: u32,
    /// Address after that — distinct from `pc + 4` inside branch delay
    /// slots, which is why it must be part of the snapshot.
    pub next_pc: u32,
    /// Current program break (syscall 9).
    pub brk: u32,
    /// Exit code once the program has exited via syscall.
    pub exit: Option<i32>,
    /// Dynamic instructions retired so far — the checkpoint clock.
    pub steps: u64,
    /// Everything the program printed so far.
    pub output: String,
    /// Integers queued for the `read_int` syscall.
    pub input: VecDeque<i32>,
    /// Byte-addressed paged memory (text, data, stack, heap).
    pub mem: Memory,
}
