//! Streamed trace capture: compacting a run into an [`AccessTrace`]
//! while the emulator executes it, so the suite and the ISA matrix never
//! hold a per-fetch [`ProgramTrace`](ccrp_emu::ProgramTrace).

use ccrp_emu::TraceSink;
use ccrp_sim::{AccessTrace, OpenRun};

/// A [`TraceSink`] that compacts fetches into an [`AccessTrace`] as they
/// come. It keeps the run the current fetch belongs to in its own
/// fields ([`OpenRun`]) and hands each run to the trace only once it is
/// finished; the trace module applies the compaction rule
/// ([`AccessTrace::stream_fetch`], [`AccessTrace::stream_data`]). So
/// [`finish`](Self::finish) returns exactly what
/// [`AccessTrace::capture`] makes of the same run's `ProgramTrace`.
#[derive(Debug, Default)]
pub struct StreamCapture {
    trace: AccessTrace,
    open: OpenRun,
}

impl StreamCapture {
    /// Hands over the last run and returns the compacted trace.
    pub fn finish(mut self) -> AccessTrace {
        self.trace.close_run(self.open);
        self.trace
    }
}

impl TraceSink for StreamCapture {
    #[inline]
    fn instruction(&mut self, pc: u32) {
        self.trace.stream_fetch(&mut self.open, pc);
    }

    #[inline]
    fn data_access(&mut self, _addr: u32, _store: bool) {
        self.trace.stream_data(&mut self.open);
    }
}

#[cfg(test)]
mod tests {
    use ccrp_emu::ProgramTrace;
    use ccrp_rv32::workloads::Rv32Workload;
    use ccrp_workloads::TracedWorkload;

    use super::*;

    /// Feeds the same event stream to a `ProgramTrace` and a
    /// `StreamCapture`, and checks the streamed trace against capture.
    fn assert_streams_like_capture(events: impl Fn(&mut dyn TraceSink)) {
        let mut recorded = ProgramTrace::new();
        events(&mut recorded);
        let mut streamed = StreamCapture::default();
        events(&mut streamed);
        assert_eq!(streamed.finish(), AccessTrace::capture(recorded.iter()));
    }

    #[test]
    fn a_run_with_no_fetches_is_empty() {
        assert_streams_like_capture(|_| {});
        // Data accesses before any fetch belong to no instruction.
        assert_streams_like_capture(|sink| sink.data_access(0x40, false));
        assert!(StreamCapture::default().finish().is_empty());
    }

    #[test]
    fn data_counts_saturate_like_program_trace() {
        assert_streams_like_capture(|sink| {
            sink.instruction(0x100);
            for i in 0..300 {
                sink.data_access(0x1000 + i, i % 2 == 0);
            }
            sink.instruction(0x104);
            sink.data_access(0x2000, true);
            sink.instruction(0x200);
            for i in 0..256 {
                sink.data_access(0x3000 + i, false);
            }
        });
    }

    #[test]
    fn every_mips_kernel_streams_to_its_captured_trace() {
        for workload in TracedWorkload::ALL {
            let recorded = workload.build().expect("kernel builds");
            let streamed = workload
                .build_into::<StreamCapture>()
                .expect("kernel builds");
            assert_eq!(
                streamed.trace.finish(),
                AccessTrace::capture(recorded.trace.iter()),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn every_rv32_run_streams_to_its_captured_trace() {
        for workload in Rv32Workload::ALL {
            let recorded = workload.build().expect("rv32 workload builds");
            let streamed = workload
                .build_into::<StreamCapture>()
                .expect("rv32 workload builds");
            let name = workload.name();
            assert_eq!(
                streamed.trace_i.finish(),
                AccessTrace::capture(recorded.trace_i.iter()),
                "{name} (rv32i)"
            );
            assert_eq!(
                streamed.trace_c.finish(),
                AccessTrace::capture(recorded.trace_c.iter()),
                "{name} (rv32c)"
            );
        }
    }
}
