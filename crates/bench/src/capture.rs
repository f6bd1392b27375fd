//! Streamed trace capture: compacting a run into an [`AccessTrace`]
//! while the emulator executes it, so the suite and the ISA matrix never
//! hold a per-fetch [`ProgramTrace`](ccrp_emu::ProgramTrace).

use ccrp_emu::TraceSink;
use ccrp_sim::AccessTrace;

/// A [`TraceSink`] that appends each fetch to an [`AccessTrace`] once the
/// next one starts, holding only the current fetch's `(pc, data count)`.
/// Its data count saturates at 255, as `ProgramTrace`'s does, so
/// [`finish`](Self::finish) returns exactly what
/// [`AccessTrace::capture`] makes of the same run's `ProgramTrace`.
#[derive(Debug, Default)]
pub(crate) struct StreamCapture {
    trace: AccessTrace,
    current: Option<(u32, u8)>,
}

impl StreamCapture {
    /// Appends the last fetch and returns the compacted trace.
    pub(crate) fn finish(mut self) -> AccessTrace {
        self.trace.extend(self.current);
        self.trace
    }
}

impl TraceSink for StreamCapture {
    fn instruction(&mut self, pc: u32) {
        self.trace.extend(self.current.replace((pc, 0)));
    }

    fn data_access(&mut self, _addr: u32, _store: bool) {
        if let Some((_, data)) = &mut self.current {
            *data = data.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use ccrp_emu::ProgramTrace;
    use ccrp_rv32::workloads::Rv32Workload;

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
