//! The request dispatcher: bounded inputs, fuel budgets and per-request
//! isolation.
//!
//! [`Service`] is transport-agnostic — the TCP [server](crate::server)
//! drives it, but tests and the hostile-input campaign can call
//! [`Service::handle`] directly. Every request runs under
//! `catch_unwind`: a panicking handler is converted into a typed
//! [`ErrorKind::Internal`] response, and since every upload endpoint
//! parses the container bytes it was sent, no state outlives a request
//! for a panic to poison (the "per-request isolation" contract).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ccrp::{CcrpError, CompressedImage, StepBudget};
use ccrp_asm::assemble;
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
use ccrp_emu::{EmuError, Machine, MachineConfig, NullSink, ProgramTrace};
use ccrp_sim::{MemoryModel, SimError, Simulation, SystemConfig};

use crate::attest::attest_digest;
use crate::proto::{ErrorKind, Request, Response, MAX_RUN_OUTPUT_BYTES};

/// The payload of the panic `Request::Chaos { kind: 0 }` raises, so a
/// process hosting the service can tell that deliberate panic from a
/// real one.
pub const CHAOS_PANIC_MESSAGE: &str = "chaos: deliberate handler panic";

/// Limits and budgets the service enforces on every request.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Largest frame the transport will read (enforced pre-allocation).
    pub max_frame_bytes: u32,
    /// Largest text a `compress` request may submit.
    pub max_text_bytes: usize,
    /// Largest container an upload endpoint may submit.
    pub max_container_bytes: usize,
    /// Largest assembly source `run`/`sweep-cell` may submit.
    pub max_source_bytes: usize,
    /// Default (and maximum) fuel budget for emulation and replay.
    pub default_fuel: u64,
    /// Wall-clock deadline per request; the watchdog sets the cancel
    /// flag when it passes.
    pub deadline: Duration,
    /// Socket read timeout — the slow-loris guard.
    pub read_timeout: Duration,
    /// Bounded request queue depth; requests beyond it are shed.
    pub queue_depth: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Allow [`Request::Chaos`] to actually misbehave (testing only).
    pub enable_chaos: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_frame_bytes: 1 << 20,
            max_text_bytes: 256 << 10,
            max_container_bytes: 1 << 20,
            max_source_bytes: 64 << 10,
            default_fuel: 2_000_000,
            deadline: Duration::from_secs(2),
            read_timeout: Duration::from_millis(250),
            queue_depth: 32,
            workers: 2,
            enable_chaos: false,
        }
    }
}

/// Monotonic counters the service maintains, for reports and the
/// campaign's invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests dispatched (including ones that failed).
    pub requests: u64,
    /// Requests answered with an error response.
    pub failures: u64,
    /// Handler panics converted into `Internal` errors.
    pub panics_caught: u64,
    /// Requests shed before dispatch (queue full or expired while
    /// queued) — counted by [`Service::note_rejected`].
    pub rejected: u64,
}

/// The transport-agnostic request handler.
pub struct Service {
    config: ServiceConfig,
    requests: AtomicU64,
    failures: AtomicU64,
    panics_caught: AtomicU64,
    rejected: AtomicU64,
}

impl Service {
    /// Creates a service with the given limits.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            config,
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Snapshot of the monotonic counters.
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            requests: self.requests.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Counts a request shed before dispatch (queue full, or expired
    /// while queued).
    pub fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one request with no external cancellation (the fuel
    /// budget still bounds execution).
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_cancellable(request, &Arc::new(AtomicBool::new(false)))
    }

    /// Handles one request; `cancel` is the watchdog's deadline flag,
    /// polled by the fuel budget during emulation and replay.
    ///
    /// Never panics: handler panics are caught, counted and converted
    /// to [`ErrorKind::Internal`].
    pub fn handle_cancellable(&self, request: &Request, cancel: &Arc<AtomicBool>) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(request, cancel)));
        let response = match outcome {
            Ok(response) => response,
            Err(_) => {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    kind: ErrorKind::Internal,
                    detail: "request handler panicked".to_owned(),
                }
            }
        };
        if response.error_kind().is_some() {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn dispatch(&self, request: &Request, cancel: &Arc<AtomicBool>) -> Response {
        match request {
            Request::Compress {
                text_base,
                v2,
                text,
            } => self.compress(*text_base, *v2, text),
            Request::Verify { container } => match self.load_image(container) {
                Ok(image) => self.verify(&image),
                Err(response) => response,
            },
            Request::Inspect { container } => match self.load_image(container) {
                Ok(image) => inspect(&image),
                Err(response) => response,
            },
            Request::ExpandLine { container, address } => match self.load_image(container) {
                Ok(image) => expand_line(&image, *address),
                Err(response) => response,
            },
            Request::Run { source, fuel } => self.run(source, *fuel, cancel),
            Request::SweepCell {
                source,
                cache_bytes,
                memory,
                fuel,
            } => self.sweep_cell(source, *cache_bytes, *memory, *fuel, cancel),
            Request::Attest {
                container,
                nonce,
                samples,
            } => match self.load_image(container) {
                Ok(image) => match attest_digest(&image, *nonce, *samples) {
                    Ok((digest, sampled)) => Response::Attested { digest, sampled },
                    Err(e) => error(classify_ccrp(&e), &e),
                },
                Err(response) => response,
            },
            Request::Chaos { kind } => self.chaos(*kind),
        }
    }

    /// Parses a container from the bytes the request carried.
    fn load_image(&self, container: &[u8]) -> Result<CompressedImage, Response> {
        if container.len() > self.config.max_container_bytes {
            return Err(Response::Error {
                kind: ErrorKind::Malformed,
                detail: format!(
                    "container of {} bytes exceeds the {}-byte limit",
                    container.len(),
                    self.config.max_container_bytes
                ),
            });
        }
        CompressedImage::from_bytes(container).map_err(|e| error(classify_ccrp(&e), &e))
    }

    fn compress(&self, text_base: u32, v2: bool, text: &[u8]) -> Response {
        if text.is_empty() {
            return malformed("compress text is empty");
        }
        if text.len() > self.config.max_text_bytes {
            return Response::Error {
                kind: ErrorKind::Malformed,
                detail: format!(
                    "text of {} bytes exceeds the {}-byte limit",
                    text.len(),
                    self.config.max_text_bytes
                ),
            };
        }
        let mut padded = text.to_vec();
        while !padded.len().is_multiple_of(32) {
            padded.push(0);
        }
        let code = match ByteCode::preselected(&ByteHistogram::of(&padded)) {
            Ok(code) => code,
            Err(e) => return error(ErrorKind::Malformed, &e),
        };
        match CompressedImage::build(text_base, &padded, code, BlockAlignment::Word) {
            Ok(image) => Response::Compressed {
                container: if v2 {
                    image.to_bytes_v2()
                } else {
                    image.to_bytes()
                },
            },
            Err(e) => error(ErrorKind::Malformed, &e),
        }
    }

    fn verify(&self, image: &CompressedImage) -> Response {
        match image.verify() {
            Ok(()) => Response::Verified {
                lines: image.line_count() as u32,
                version: if image.block_crcs().is_some() { 2 } else { 1 },
                stored_bytes: image.total_stored_bytes(true),
            },
            Err(e) => error(ErrorKind::IntegrityFailure, &e),
        }
    }

    fn run(&self, source: &str, fuel: u64, cancel: &Arc<AtomicBool>) -> Response {
        let image = match self.assemble_bounded(source) {
            Ok(image) => image,
            Err(response) => return response,
        };
        let mut machine = Machine::with_config(&image, MachineConfig::default());
        let mut budget = self.budget(fuel, cancel);
        match machine.run_budgeted(&mut NullSink, &mut budget) {
            Ok(summary) => Response::Ran {
                steps: summary.instructions,
                exit_code: summary.exit_code,
                output: truncated_output(machine.output()),
            },
            Err(e) => error(classify_emu(&e), &e),
        }
    }

    fn sweep_cell(
        &self,
        source: &str,
        cache_bytes: u32,
        memory: u8,
        fuel: u64,
        cancel: &Arc<AtomicBool>,
    ) -> Response {
        let Some(model) = MemoryModel::ALL.get(usize::from(memory)).copied() else {
            return malformed("memory model index out of range");
        };
        let image = match self.assemble_bounded(source) {
            Ok(image) => image,
            Err(response) => return response,
        };
        let mut machine = Machine::with_config(&image, MachineConfig::default());
        let mut trace = ProgramTrace::new();
        let mut budget = self.budget(fuel, cancel);
        if let Err(e) = machine.run_budgeted(&mut trace, &mut budget) {
            return error(classify_emu(&e), &e);
        }
        let code = match ByteCode::preselected(&ByteHistogram::of(image.text_bytes())) {
            Ok(code) => code,
            Err(e) => return error(ErrorKind::Malformed, &e),
        };
        let rom = match CompressedImage::build(
            image.text_base(),
            image.text_bytes(),
            code,
            BlockAlignment::Word,
        ) {
            Ok(rom) => rom,
            Err(e) => return error(classify_ccrp(&e), &e),
        };
        let config = SystemConfig::new()
            .with_cache_bytes(cache_bytes)
            .with_memory(model);
        let mut standard_budget = self.budget(fuel, cancel);
        let standard = match Simulation::new(config)
            .budgeted(&mut standard_budget)
            .standard(trace.iter())
        {
            Ok(stats) => stats,
            Err(e) => return error(classify_sim(&e), &e),
        };
        let mut ccrp_budget = self.budget(fuel, cancel);
        let ccrp = match Simulation::new(config)
            .budgeted(&mut ccrp_budget)
            .ccrp(&rom, trace.iter())
        {
            Ok(stats) => stats,
            Err(e) => return error(classify_sim(&e), &e),
        };
        let standard_cycles = standard.total_cycles().round() as u64;
        let ccrp_cycles = ccrp.total_cycles().round() as u64;
        let relative_milli = if standard_cycles == 0 {
            0
        } else {
            ((ccrp.total_cycles() / standard.total_cycles()) * 1000.0).round() as u32
        };
        Response::SweptCell {
            standard_cycles,
            ccrp_cycles,
            relative_milli,
        }
    }

    fn chaos(&self, kind: u8) -> Response {
        if !self.config.enable_chaos {
            return malformed("chaos endpoint is disabled");
        }
        match kind {
            // The isolation test fixture: proves catch_unwind turns a
            // handler panic into a typed Internal error.
            0 => std::panic::panic_any(CHAOS_PANIC_MESSAGE), // panic-ok: the isolation fixture itself
            _ => malformed("unknown chaos kind"),
        }
    }

    fn assemble_bounded(&self, source: &str) -> Result<ccrp_asm::ProgramImage, Response> {
        if source.len() > self.config.max_source_bytes {
            return Err(Response::Error {
                kind: ErrorKind::Malformed,
                detail: format!(
                    "source of {} bytes exceeds the {}-byte limit",
                    source.len(),
                    self.config.max_source_bytes
                ),
            });
        }
        assemble(source).map_err(|e| error(ErrorKind::Malformed, &e))
    }

    /// A fuel budget from the request's ask, clamped to the server
    /// default, wired to the watchdog's cancel flag.
    fn budget(&self, requested: u64, cancel: &Arc<AtomicBool>) -> StepBudget {
        let fuel = if requested == 0 {
            self.config.default_fuel
        } else {
            requested.min(self.config.default_fuel)
        };
        StepBudget::limited(fuel).with_cancel(Arc::clone(cancel))
    }
}

/// Expands one line. The image is immutable, so a line that fails to
/// expand fails the same way every time: there is nothing to retry.
fn expand_line(image: &CompressedImage, address: u32) -> Response {
    match image.expand_line(address) {
        Ok(bytes) => Response::Line { bytes },
        Err(e) => error(classify_ccrp(&e), &e),
    }
}

fn inspect(image: &CompressedImage) -> Response {
    Response::Inspected {
        lines: image.line_count() as u32,
        version: if image.block_crcs().is_some() { 2 } else { 1 },
        text_base: image.text_base(),
        original_bytes: image.original_bytes(),
        stored_bytes: image.total_stored_bytes(true),
        bypass_lines: image.bypass_count() as u32,
        ratio_milli: (image.compression_ratio() * 1000.0).round() as u32,
    }
}

fn truncated_output(output: &str) -> Vec<u8> {
    let bytes = output.as_bytes();
    bytes[..bytes.len().min(MAX_RUN_OUTPUT_BYTES)].to_vec()
}

fn malformed(detail: &str) -> Response {
    Response::Error {
        kind: ErrorKind::Malformed,
        detail: detail.to_owned(),
    }
}

fn error(kind: ErrorKind, source: &dyn std::fmt::Display) -> Response {
    Response::Error {
        kind,
        detail: source.to_string(),
    }
}

/// Structural container errors are the client's fault; everything else
/// that surfaces from a *parsed* image is an integrity failure.
fn classify_ccrp(e: &CcrpError) -> ErrorKind {
    match e {
        CcrpError::BadContainer { .. }
        | CcrpError::AddressOutOfRange { .. }
        | CcrpError::MisalignedTextBase { .. }
        | CcrpError::Compress(_) => ErrorKind::Malformed,
        _ => ErrorKind::IntegrityFailure,
    }
}

fn classify_emu(e: &EmuError) -> ErrorKind {
    match e {
        EmuError::BudgetExhausted { .. } | EmuError::StepLimitExceeded { .. } => ErrorKind::Timeout,
        _ => ErrorKind::Fault,
    }
}

fn classify_sim(e: &SimError) -> ErrorKind {
    match e {
        SimError::Budget(_) => ErrorKind::Timeout,
        SimError::Cache(_) => ErrorKind::Malformed,
        _ => ErrorKind::IntegrityFailure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_SRC: &str = "
        main:
            li   $t0, 10
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            li   $v0, 1
            move $a0, $t1
            syscall
            li   $v0, 10
            syscall
        ";

    fn sample_text() -> Vec<u8> {
        (0..2048u32).map(|i| (i % 53) as u8).collect()
    }

    fn v2_container(service: &Service) -> Vec<u8> {
        match service.handle(&Request::Compress {
            text_base: 0,
            v2: true,
            text: sample_text(),
        }) {
            Response::Compressed { container } => container,
            other => panic!("compress failed: {other:?}"),
        }
    }

    #[test]
    fn compress_verify_inspect_expand_roundtrip() {
        let service = Service::new(ServiceConfig::default());
        let container = v2_container(&service);
        match service.handle(&Request::Verify {
            container: container.clone(),
        }) {
            Response::Verified { lines, version, .. } => {
                assert_eq!(lines, 64);
                assert_eq!(version, 2);
            }
            other => panic!("verify failed: {other:?}"),
        }
        match service.handle(&Request::Inspect {
            container: container.clone(),
        }) {
            Response::Inspected {
                lines,
                version,
                original_bytes,
                ..
            } => {
                assert_eq!((lines, version, original_bytes), (64, 2, 2048));
            }
            other => panic!("inspect failed: {other:?}"),
        }
        match service.handle(&Request::ExpandLine {
            container,
            address: 32,
        }) {
            Response::Line { bytes } => {
                let expected: Vec<u8> = (32..64u32).map(|i| (i % 53) as u8).collect();
                assert_eq!(bytes.to_vec(), expected);
            }
            other => panic!("expand failed: {other:?}"),
        }
    }

    #[test]
    fn corrupt_container_gets_typed_error_not_panic() {
        let service = Service::new(ServiceConfig::default());
        let mut container = v2_container(&service);
        // Flip a bit inside the packed blocks.
        let mid = container.len() / 2;
        container[mid] ^= 0x10;
        let response = service.handle(&Request::Verify { container });
        match response {
            Response::Error { kind, .. } => assert!(
                matches!(kind, ErrorKind::IntegrityFailure | ErrorKind::Malformed),
                "unexpected kind {kind:?}"
            ),
            other => panic!("corruption accepted: {other:?}"),
        }
    }

    #[test]
    fn run_executes_and_timeout_is_typed() {
        let service = Service::new(ServiceConfig::default());
        match service.handle(&Request::Run {
            source: SUM_SRC.to_owned(),
            fuel: 0,
        }) {
            Response::Ran {
                output, exit_code, ..
            } => {
                assert_eq!(output, b"55");
                assert_eq!(exit_code, 0);
            }
            other => panic!("run failed: {other:?}"),
        }
        match service.handle(&Request::Run {
            source: "main: b main".to_owned(),
            fuel: 1000,
        }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
            other => panic!("runaway not bounded: {other:?}"),
        }
    }

    #[test]
    fn fuel_is_clamped_to_server_default() {
        let config = ServiceConfig {
            default_fuel: 500,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        // Asking for far more fuel than the server allows still times out.
        match service.handle(&Request::Run {
            source: "main: b main".to_owned(),
            fuel: u64::MAX,
        }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
            other => panic!("clamp failed: {other:?}"),
        }
    }

    #[test]
    fn sweep_cell_reports_both_processors() {
        let service = Service::new(ServiceConfig::default());
        match service.handle(&Request::SweepCell {
            source: SUM_SRC.to_owned(),
            cache_bytes: 1024,
            memory: 1,
            fuel: 0,
        }) {
            Response::SweptCell {
                standard_cycles,
                ccrp_cycles,
                relative_milli,
            } => {
                assert!(standard_cycles > 0);
                assert!(ccrp_cycles > 0);
                assert!(relative_milli > 0);
            }
            other => panic!("sweep failed: {other:?}"),
        }
        // Bad memory-model index is malformed, not a panic.
        assert_eq!(
            service
                .handle(&Request::SweepCell {
                    source: SUM_SRC.to_owned(),
                    cache_bytes: 1024,
                    memory: 9,
                    fuel: 0,
                })
                .error_kind(),
            Some(ErrorKind::Malformed)
        );
    }

    #[test]
    fn attest_round_trips_against_local_digest() {
        let service = Service::new(ServiceConfig::default());
        let container = v2_container(&service);
        let image = CompressedImage::from_bytes(&container).unwrap();
        let (expected, expected_sampled) = attest_digest(&image, 99, 16).unwrap();
        match service.handle(&Request::Attest {
            container,
            nonce: 99,
            samples: 16,
        }) {
            Response::Attested { digest, sampled } => {
                assert_eq!(digest, expected);
                assert_eq!(sampled, expected_sampled);
            }
            other => panic!("attest failed: {other:?}"),
        }
    }

    #[test]
    fn chaos_panic_is_isolated_and_service_stays_usable() {
        let service = Service::new(ServiceConfig {
            enable_chaos: true,
            ..ServiceConfig::default()
        });
        let response = service.handle(&Request::Chaos { kind: 0 });
        assert_eq!(response.error_kind(), Some(ErrorKind::Internal));
        assert_eq!(service.counters().panics_caught, 1);
        assert_eq!(
            service.handle(&Request::Chaos { kind: 1 }).error_kind(),
            Some(ErrorKind::Malformed)
        );
        // The service still answers the next request correctly.
        let container = v2_container(&service);
        assert!(matches!(
            service.handle(&Request::Verify { container }),
            Response::Verified { .. }
        ));
    }

    #[test]
    fn chaos_is_rejected_when_disabled() {
        let service = Service::new(ServiceConfig::default());
        assert_eq!(
            service.handle(&Request::Chaos { kind: 0 }).error_kind(),
            Some(ErrorKind::Malformed)
        );
        assert_eq!(service.counters().panics_caught, 0);
    }

    /// FNV-1a 64, the content key under which the container pairs below
    /// collide.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Two 64-byte images whose line 1, stored raw at container bytes
    /// 312..320, starts with `x1` or `x2`, as containers whose FNV-1a
    /// keys collide.
    fn colliding_containers(x1: u64, x2: u64, v2: bool) -> (Vec<u8>, Vec<u8>) {
        let train: Vec<u8> = (0..64).flat_map(|_| 0..=254u8).collect();
        let code = ByteCode::preselected(&ByteHistogram::of(&train)).unwrap();
        let mut text = vec![0u8; 32];
        text.extend_from_slice(&x1.to_le_bytes());
        text.extend_from_slice(&[0xFF; 24]);
        let mut image = CompressedImage::build(0, &text, code, BlockAlignment::Word).unwrap();
        let pristine = if v2 {
            image.attach_block_crcs();
            image.to_bytes_v2()
        } else {
            image.to_bytes()
        };
        assert_eq!(pristine[312..320], x1.to_le_bytes(), "line 1 is stored raw");
        let mut hostile = pristine.clone();
        hostile[312..320].copy_from_slice(&x2.to_le_bytes());
        assert_eq!(fnv1a(&pristine), fnv1a(&hostile), "the keys collide");
        (pristine, hostile)
    }

    #[test]
    fn a_colliding_upload_is_judged_on_its_own_bytes() {
        let (v1, hostile_v1) =
            colliding_containers(0x1c74_6191_2666_cb8f, 0xf0b1_aa1b_1ef4_a2b0, false);
        assert_eq!(fnv1a(&v1), 0x6f4c_bd32_33ce_ae8d);
        let (v2, hostile_v2) =
            colliding_containers(0xae44_8262_a3f3_c429, 0xb56c_6ea7_1f1f_f059, true);
        assert_eq!(fnv1a(&v2), 0xa480_39dd_0619_0e78);

        let service = Service::new(ServiceConfig::default());
        for container in [v1, v2] {
            assert!(matches!(
                service.handle(&Request::Verify { container }),
                Response::Verified { .. }
            ));
        }
        match service.handle(&Request::Verify {
            container: hostile_v2,
        }) {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::IntegrityFailure),
            other => panic!("corrupt v2 upload accepted: {other:?}"),
        }
        match service.handle(&Request::ExpandLine {
            container: hostile_v1,
            address: 32,
        }) {
            Response::Line { bytes } => {
                assert_eq!(bytes[..8], 0xf0b1_aa1b_1ef4_a2b0u64.to_le_bytes())
            }
            other => panic!("expand failed: {other:?}"),
        }
    }

    #[test]
    fn oversized_inputs_rejected_with_typed_errors() {
        let config = ServiceConfig {
            max_text_bytes: 64,
            max_container_bytes: 64,
            max_source_bytes: 16,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        assert_eq!(
            service
                .handle(&Request::Compress {
                    text_base: 0,
                    v2: false,
                    text: vec![0; 65],
                })
                .error_kind(),
            Some(ErrorKind::Malformed)
        );
        assert_eq!(
            service
                .handle(&Request::Verify {
                    container: vec![0; 65],
                })
                .error_kind(),
            Some(ErrorKind::Malformed)
        );
        assert_eq!(
            service
                .handle(&Request::Run {
                    source: "x".repeat(17),
                    fuel: 0,
                })
                .error_kind(),
            Some(ErrorKind::Malformed)
        );
    }
}
