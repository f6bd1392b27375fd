/// Receives the dynamic events the CCRP system simulator replays:
/// instruction-fetch addresses and data accesses.
///
/// This plays the role of the `pixie` profiling tool in the paper's
/// methodology — it observes a run and records the address stream the
/// cache simulator consumes.
pub trait TraceSink {
    /// An instruction was fetched (and executed) at `pc`.
    fn instruction(&mut self, pc: u32);
    /// The instruction at the most recent `pc` performed a data access.
    fn data_access(&mut self, addr: u32, store: bool);
}

/// Forwarding impl so trait objects (`&mut dyn TraceSink`) satisfy
/// `impl TraceSink` bounds — the ISA-generic [`IsaCore`] surface steps
/// machines through a `dyn` sink.
///
/// [`IsaCore`]: crate::IsaCore
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn instruction(&mut self, pc: u32) {
        (**self).instruction(pc);
    }
    fn data_access(&mut self, addr: u32, store: bool) {
        (**self).data_access(addr, store);
    }
}

/// Discards all events; used when only architectural results matter.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn instruction(&mut self, _pc: u32) {}
    fn data_access(&mut self, _addr: u32, _store: bool) {}
}

/// A captured execution trace: the instruction-address stream plus, per
/// instruction, how many data accesses it made.
///
/// Capturing once and replaying lets one emulator run feed the dozens of
/// (cache size × memory model × processor) simulations each paper table
/// sweeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramTrace {
    pcs: Vec<u32>,
    data_counts: Vec<u8>,
}

impl ProgramTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when no instructions were recorded.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Total number of data accesses across the run.
    pub fn data_accesses(&self) -> u64 {
        self.data_counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Iterates `(pc, data_access_count)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8)> + Clone + '_ {
        self.pcs
            .iter()
            .copied()
            .zip(self.data_counts.iter().copied())
    }

    /// The instruction-address stream alone.
    pub fn pcs(&self) -> &[u32] {
        &self.pcs
    }
}

impl TraceSink for ProgramTrace {
    fn instruction(&mut self, pc: u32) {
        self.pcs.push(pc);
        self.data_counts.push(0);
    }
    fn data_access(&mut self, _addr: u32, _store: bool) {
        if let Some(last) = self.data_counts.last_mut() {
            *last = last.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_trace_attributes_data_to_instruction() {
        let mut t = ProgramTrace::new();
        t.instruction(0x10);
        t.data_access(0x200, false);
        t.data_access(0x204, false);
        t.instruction(0x14);
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(0x10, 2), (0x14, 0)]);
        assert_eq!(t.data_accesses(), 2);
        assert_eq!(t.len(), 2);
    }
}
