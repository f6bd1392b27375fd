//! Hostile-client campaigns against a live `ccrp-served` instance.
//!
//! Where [`faultsim`](crate::faultsim) attacks the container *format* in
//! process, this campaign attacks the *service*: a real
//! [`ServerHandle`] is started on a loopback port and a seeded
//! generator throws fourteen kinds of client at it — honest round
//! trips, corrupted v1/v2 uploads, truncated and oversized frames,
//! garbage payloads, slow-loris stalls, runaway programs, attestation
//! challenges over pristine and corrupted images, and deliberate
//! handler panics. Every trial has a deterministic expectation computed
//! *locally* from the same pristine image the server is given, and the
//! trial's outcome records whether the server's observable behaviour
//! matched it:
//!
//! * **as-expected** — the server did exactly what the local oracle
//!   predicted (typed rejection, matching bytes, reaped connection);
//! * **wrong-response** — the server answered, but with the wrong
//!   message (including accepting what the oracle rejects or failing to
//!   reap a stalled connection);
//! * **silent-acceptance** — a corrupted *v2* container verified clean
//!   while its content differs from pristine (the failure the CRC
//!   records exist to prevent);
//! * **v1-silent** — the same silence on a *v1* container (the
//!   documented integrity window; allowed, counted separately);
//! * **transport-error** — the connection failed in a way no trial
//!   script expects (a crash-class failure);
//! * **client-timeout** — the server went quiet past the client's
//!   generous deadline (a hang-class failure).
//!
//! Outcomes are a pure function of `(seed, trial index)`: every request
//! is retried past `Overload` sheds with exponential backoff until the
//! server gives a definitive answer, the campaign server's worker and
//! queue shape is fixed regardless of `--jobs`, and `--jobs` only sets
//! the number of concurrent *clients*. A separate burst phase slams an
//! intentionally tiny server (one worker, two queue slots) with
//! concurrent runaway programs to prove admission control sheds load
//! with typed `Overload` errors and bounded latency; its tallies are
//! timing-class data and stay out of the deterministic results.

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccrp::{CompressedImage, FaultRegion};
use ccrp_compress::{BlockAlignment, ByteCode, ByteHistogram};
use ccrp_served::{
    attest_digest, read_frame, Client, ClientError, ErrorKind, Request, Response, ServerHandle,
    Service, ServiceConfig, ServiceCounters,
};

use crate::difftest::trial_seed;
use crate::faultsim::{Mode, Pristine};
use crate::json::Json;
use crate::report::{duration_json, envelope, ToJson};
use crate::runner::parallel_map;

/// Read timeout on honest campaign clients — generous enough that only
/// a genuinely hung server trips it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a slow-loris client stalls mid-frame: comfortably past the
/// campaign server's 100 ms read timeout, far under [`CLIENT_TIMEOUT`].
const LORIS_STALL: Duration = Duration::from_millis(350);

/// What one hostile client does to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKind {
    /// Honest compress; the returned container must be byte-identical
    /// to a local build of the same (padded) text.
    CompressRoundtrip,
    /// Verify the pristine v2 container; must come back clean.
    VerifyPristine,
    /// Upload a fault-injected v2 container for verification.
    CorruptUploadV2,
    /// Upload a fault-injected v1 container for verification.
    CorruptUploadV1,
    /// Declare a 32-byte frame, send 8 bytes, close. The server must
    /// drop the connection without replying.
    TruncatedFrame,
    /// Declare a `u32::MAX`-byte frame. The server must reject it with
    /// a typed `Malformed` error *before* allocating, then close.
    OversizedLength,
    /// A well-framed garbage payload must get a typed `Malformed`
    /// reply and leave the connection usable for an honest follow-up.
    GarbageFrame,
    /// Stall mid-frame past the server's read timeout; the connection
    /// must be reaped, never answered.
    SlowLoris,
    /// An infinite loop under default fuel must come back as a typed
    /// `Timeout`, not hang the worker.
    RunawayProgram,
    /// Honest assemble-and-run; output must match the program.
    RunOk,
    /// Attestation over the pristine v2 container must match the
    /// locally computed challenge digest.
    AttestPristine,
    /// Attestation over a fault-injected v2 container must match the
    /// local oracle: either the same typed rejection or the same
    /// (non-pristine) digest.
    AttestCorrupt,
    /// Two expand-line requests on one connection: an in-range line
    /// must match pristine bytes, an out-of-range address must be a
    /// typed `Malformed` error.
    ExpandLineReuse,
    /// A chaos request panics the handler; the panic must come back as
    /// a typed `Internal` error and the *same connection* must still
    /// verify the pristine container afterwards.
    ChaosPanic,
}

impl TrialKind {
    /// Every kind, in the order trials cycle through them.
    pub const ALL: [TrialKind; 14] = [
        TrialKind::CompressRoundtrip,
        TrialKind::VerifyPristine,
        TrialKind::CorruptUploadV2,
        TrialKind::CorruptUploadV1,
        TrialKind::TruncatedFrame,
        TrialKind::OversizedLength,
        TrialKind::GarbageFrame,
        TrialKind::SlowLoris,
        TrialKind::RunawayProgram,
        TrialKind::RunOk,
        TrialKind::AttestPristine,
        TrialKind::AttestCorrupt,
        TrialKind::ExpandLineReuse,
        TrialKind::ChaosPanic,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            TrialKind::CompressRoundtrip => "compress-roundtrip",
            TrialKind::VerifyPristine => "verify-pristine",
            TrialKind::CorruptUploadV2 => "corrupt-upload-v2",
            TrialKind::CorruptUploadV1 => "corrupt-upload-v1",
            TrialKind::TruncatedFrame => "truncated-frame",
            TrialKind::OversizedLength => "oversized-length",
            TrialKind::GarbageFrame => "garbage-frame",
            TrialKind::SlowLoris => "slow-loris",
            TrialKind::RunawayProgram => "runaway-program",
            TrialKind::RunOk => "run-ok",
            TrialKind::AttestPristine => "attest-pristine",
            TrialKind::AttestCorrupt => "attest-corrupt",
            TrialKind::ExpandLineReuse => "expand-line-reuse",
            TrialKind::ChaosPanic => "chaos-panic",
        }
    }
}

/// The kind of client trial `trial` plays.
pub fn kind_of(trial: usize) -> TrialKind {
    TrialKind::ALL[trial % TrialKind::ALL.len()]
}

/// The container region corrupt-upload trials inject into.
pub fn region_of(trial: usize) -> FaultRegion {
    FaultRegion::ALL[(trial / TrialKind::ALL.len()) % FaultRegion::ALL.len()]
}

/// How one hostile-client trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The server matched the local oracle exactly.
    AsExpected,
    /// The server answered with the wrong message.
    WrongResponse,
    /// A corrupted v2 container verified clean with divergent content.
    SilentAcceptance,
    /// A corrupted v1 container verified clean with divergent content
    /// (the documented pre-CRC window; allowed).
    V1Silent,
    /// The connection failed in a way the trial script never expects.
    TransportError,
    /// The server went quiet past the client deadline.
    ClientTimeout,
}

impl Outcome {
    /// All outcomes, in report order.
    pub const ALL: [Outcome; 6] = [
        Outcome::AsExpected,
        Outcome::WrongResponse,
        Outcome::SilentAcceptance,
        Outcome::V1Silent,
        Outcome::TransportError,
        Outcome::ClientTimeout,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::AsExpected => "as-expected",
            Outcome::WrongResponse => "wrong-response",
            Outcome::SilentAcceptance => "silent-acceptance",
            Outcome::V1Silent => "v1-silent",
            Outcome::TransportError => "transport-error",
            Outcome::ClientTimeout => "client-timeout",
        }
    }

    /// One-letter code for the compact outcome string.
    pub fn code(self) -> char {
        match self {
            Outcome::AsExpected => 'A',
            Outcome::WrongResponse => 'W',
            Outcome::SilentAcceptance => 'S',
            Outcome::V1Silent => 'V',
            Outcome::TransportError => 'T',
            Outcome::ClientTimeout => 'H',
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServesimOptions {
    /// Hostile-client trials to run.
    pub trials: usize,
    /// Campaign seed; outcomes are a pure function of `(seed, trial)`.
    pub seed: u64,
    /// Concurrent client threads (never affects outcomes).
    pub jobs: usize,
    /// Concurrent runaway programs thrown at the tiny burst server
    /// (`0` skips the burst phase).
    pub burst: usize,
}

impl Default for ServesimOptions {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 42,
            jobs: crate::runner::available_jobs(),
            burst: 32,
        }
    }
}

/// The fixed shape of the campaign server. Independent of `--jobs` so
/// outcomes cannot depend on client concurrency: the queue is deeper
/// than any plausible client count (no sheds on honest load) and fuel,
/// not wall clock, is the binding bound on runaway programs.
fn campaign_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_depth: 64,
        default_fuel: 300_000,
        deadline: Duration::from_secs(10),
        read_timeout: Duration::from_millis(100),
        enable_chaos: true,
        ..ServiceConfig::default()
    }
}

/// Load-shed tallies from the burst phase (timing-class data).
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstReport {
    /// Concurrent runaway programs sent.
    pub sent: usize,
    /// Answered `Ran` (finished before shedding mattered).
    pub ran: usize,
    /// Shed with a typed `Overload`.
    pub overload: usize,
    /// Answered with a typed `Timeout` (fuel or queue deadline).
    pub timeout: usize,
    /// Any other typed response.
    pub other: usize,
    /// Transport-level failures — must be zero: every burst client
    /// gets a typed answer.
    pub transport_errors: usize,
    /// Slowest burst response, microseconds.
    pub p100_us: u64,
    /// 99th-percentile burst response, microseconds.
    pub p99_us: u64,
    /// Burst wall clock.
    pub wall: Duration,
}

/// A finished campaign.
#[derive(Debug)]
pub struct ServesimReport {
    /// The options the campaign ran with.
    pub options: ServesimOptions,
    /// Outcome per trial (`outcomes[i]` = trial `i`).
    pub outcomes: Vec<Outcome>,
    /// Per-trial client latencies, microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Overload retries spent by honest clients (timing-class).
    pub overload_retries: u64,
    /// Campaign-server counters after all trials.
    pub counters: ServiceCounters,
    /// Burst-phase tallies.
    pub burst: BurstReport,
    /// Total wall clock (trials + burst).
    pub total_wall: Duration,
}

/// What the local oracle says about an uploaded container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalVerdict {
    /// Loading or verifying fails with a structured error.
    Reject,
    /// Loads, verifies, and every line matches pristine.
    CleanMatch,
    /// Loads and verifies but metadata or content diverges.
    SilentDiffers,
}

fn local_verdict(fixture: &Pristine, bytes: &[u8]) -> LocalVerdict {
    let loaded = match CompressedImage::from_bytes(bytes) {
        Err(_) => return LocalVerdict::Reject,
        Ok(image) => image,
    };
    if loaded.verify().is_err() {
        return LocalVerdict::Reject;
    }
    if loaded.line_count() != fixture.lines.len() || loaded.text_base() != 0 {
        return LocalVerdict::SilentDiffers;
    }
    let mut buf = [0u8; 32];
    for (line, expected) in fixture.lines.iter().enumerate() {
        match loaded.expand_line_into(line as u32 * 32, &mut buf) {
            Ok(()) if buf == *expected => {}
            _ => return LocalVerdict::SilentDiffers,
        }
    }
    LocalVerdict::CleanMatch
}

fn classify_client_error(error: &ClientError) -> Outcome {
    let timed_out = match error {
        ClientError::Frame(frame) => frame.is_timeout(),
        ClientError::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        _ => false,
    };
    if timed_out {
        Outcome::ClientTimeout
    } else {
        Outcome::TransportError
    }
}

/// Issues one request, riding out `Overload` sheds with backoff until
/// the server gives a definitive answer — which keeps outcomes a pure
/// function of the request bytes, not of client concurrency.
fn call(client: &mut Client, request: &Request, retries: &AtomicU64) -> Result<Response, Outcome> {
    match client.call_with_retry(request, 10) {
        Ok((response, spent)) => {
            retries.fetch_add(u64::from(spent), Ordering::Relaxed);
            Ok(response)
        }
        Err(error) => Err(classify_client_error(&error)),
    }
}

fn connect(addr: SocketAddr) -> Result<Client, Outcome> {
    Client::connect(addr, CLIENT_TIMEOUT).map_err(|_| Outcome::TransportError)
}

/// A raw (un-framed) connection for wire-level hostility.
fn raw_connect(addr: SocketAddr, read_timeout: Duration) -> Result<TcpStream, Outcome> {
    let stream = TcpStream::connect(addr).map_err(|_| Outcome::TransportError)?;
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|_| Outcome::TransportError)?;
    Ok(stream)
}

/// Seeded filler bytes from a 64-bit LCG.
fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 56) as u8
        })
        .collect()
}

fn run_trial(
    addr: SocketAddr,
    fixture: &Pristine,
    seed: u64,
    trial: usize,
    retries: &AtomicU64,
) -> Outcome {
    let ts = trial_seed(seed, trial);
    match kind_of(trial) {
        TrialKind::CompressRoundtrip => compress_roundtrip(addr, ts, retries),
        TrialKind::VerifyPristine => verify_expecting(
            addr,
            fixture,
            fixture.v2.clone(),
            LocalVerdict::CleanMatch,
            true,
            retries,
        ),
        TrialKind::CorruptUploadV2 => {
            let (corrupt, _) = fixture.corrupted(Mode::V2, seed, trial, region_of(trial));
            let verdict = local_verdict(fixture, &corrupt);
            verify_expecting(addr, fixture, corrupt, verdict, true, retries)
        }
        TrialKind::CorruptUploadV1 => {
            let (corrupt, _) = fixture.corrupted(Mode::V1, seed, trial, region_of(trial));
            let verdict = local_verdict(fixture, &corrupt);
            verify_expecting(addr, fixture, corrupt, verdict, false, retries)
        }
        TrialKind::TruncatedFrame => truncated_frame(addr),
        TrialKind::OversizedLength => oversized_length(addr),
        TrialKind::GarbageFrame => garbage_frame(addr, fixture, ts, retries),
        TrialKind::SlowLoris => slow_loris(addr),
        TrialKind::RunawayProgram => runaway_program(addr, retries),
        TrialKind::RunOk => run_ok(addr, ts, retries),
        TrialKind::AttestPristine => attest_pristine(addr, fixture, ts, retries),
        TrialKind::AttestCorrupt => attest_corrupt(addr, fixture, seed, trial, retries),
        TrialKind::ExpandLineReuse => expand_line_reuse(addr, fixture, ts, retries),
        TrialKind::ChaosPanic => chaos_panic(addr, fixture, retries),
    }
}

fn compress_roundtrip(addr: SocketAddr, ts: u64, retries: &AtomicU64) -> Outcome {
    let len = 64 + (ts % 509) as usize;
    let text = seeded_bytes(ts, len);
    let v2 = ts.is_multiple_of(2);
    // The local oracle builds the identical container: compression is a
    // pure function of the padded text.
    let mut padded = text.clone();
    while !padded.len().is_multiple_of(32) {
        padded.push(0);
    }
    let code = ByteCode::preselected(&ByteHistogram::of(&padded)).expect("non-empty text");
    let image =
        CompressedImage::build(0, &padded, code, BlockAlignment::Word).expect("oracle builds");
    let expected = if v2 {
        image.to_bytes_v2()
    } else {
        image.to_bytes()
    };

    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(
        &mut client,
        &Request::Compress {
            text_base: 0,
            v2,
            text,
        },
        retries,
    ) {
        Ok(Response::Compressed { container }) if container == expected => Outcome::AsExpected,
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

/// Sends `container` for verification and scores the reply against the
/// local oracle's verdict.
fn verify_expecting(
    addr: SocketAddr,
    fixture: &Pristine,
    container: Vec<u8>,
    verdict: LocalVerdict,
    v2: bool,
    retries: &AtomicU64,
) -> Outcome {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    let response = match call(&mut client, &Request::Verify { container }, retries) {
        Ok(response) => response,
        Err(outcome) => return outcome,
    };
    match response {
        Response::Verified { lines, version, .. } => match verdict {
            LocalVerdict::CleanMatch => {
                let want_version = if v2 { 2 } else { 1 };
                if lines == fixture.line_count() && version == want_version {
                    Outcome::AsExpected
                } else {
                    Outcome::WrongResponse
                }
            }
            LocalVerdict::Reject => Outcome::WrongResponse,
            LocalVerdict::SilentDiffers => {
                if v2 {
                    Outcome::SilentAcceptance
                } else {
                    Outcome::V1Silent
                }
            }
        },
        Response::Error {
            kind: ErrorKind::Malformed | ErrorKind::IntegrityFailure,
            ..
        } => {
            if verdict == LocalVerdict::Reject {
                Outcome::AsExpected
            } else {
                Outcome::WrongResponse
            }
        }
        _ => Outcome::WrongResponse,
    }
}

fn truncated_frame(addr: SocketAddr) -> Outcome {
    let mut stream = match raw_connect(addr, Duration::from_secs(5)) {
        Ok(stream) => stream,
        Err(outcome) => return outcome,
    };
    let ok = stream.write_all(&32u32.to_le_bytes()).is_ok()
        && stream.write_all(&[0xAB; 8]).is_ok()
        && stream.shutdown(Shutdown::Write).is_ok();
    if !ok {
        return Outcome::TransportError;
    }
    match read_frame(&mut stream, 1 << 20) {
        // The server must drop the half-frame without answering.
        Err(error) if !error.is_timeout() => Outcome::AsExpected,
        Err(_) => Outcome::ClientTimeout,
        Ok(_) => Outcome::WrongResponse,
    }
}

fn oversized_length(addr: SocketAddr) -> Outcome {
    let mut stream = match raw_connect(addr, Duration::from_secs(5)) {
        Ok(stream) => stream,
        Err(outcome) => return outcome,
    };
    if stream.write_all(&u32::MAX.to_le_bytes()).is_err() {
        return Outcome::TransportError;
    }
    // Expect a typed Malformed reply (proving no allocation-then-crash)
    // followed by a close: the stream can never resynchronize.
    let payload = match read_frame(&mut stream, 1 << 20) {
        Ok(payload) => payload,
        Err(error) if error.is_timeout() => return Outcome::ClientTimeout,
        Err(_) => return Outcome::WrongResponse,
    };
    match Response::decode(&payload) {
        Ok(Response::Error {
            kind: ErrorKind::Malformed,
            ..
        }) => {}
        _ => return Outcome::WrongResponse,
    }
    match read_frame(&mut stream, 1 << 20) {
        Err(error) if !error.is_timeout() => Outcome::AsExpected,
        _ => Outcome::WrongResponse,
    }
}

fn garbage_frame(addr: SocketAddr, fixture: &Pristine, ts: u64, retries: &AtomicU64) -> Outcome {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    // 0xFF is never a valid request tag, so decode fails whatever the
    // seeded filler holds.
    let mut payload = vec![0xFFu8];
    payload.extend(seeded_bytes(ts, 6));
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(payload);
    if client.send_raw(&frame).is_err() {
        return Outcome::TransportError;
    }
    match client.read_raw().map(|p| Response::decode(&p)) {
        Ok(Ok(Response::Error {
            kind: ErrorKind::Malformed,
            ..
        })) => {}
        _ => return Outcome::WrongResponse,
    }
    // The frame boundary held, so the connection must still serve an
    // honest request.
    match call(
        &mut client,
        &Request::Inspect {
            container: fixture.v2.clone(),
        },
        retries,
    ) {
        Ok(Response::Inspected { lines, version, .. })
            if lines == fixture.line_count() && version == 2 =>
        {
            Outcome::AsExpected
        }
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

fn slow_loris(addr: SocketAddr) -> Outcome {
    let mut stream = match raw_connect(addr, Duration::from_secs(5)) {
        Ok(stream) => stream,
        Err(outcome) => return outcome,
    };
    let ok = stream.write_all(&64u32.to_le_bytes()).is_ok() && stream.write_all(&[0u8; 10]).is_ok();
    if !ok {
        return Outcome::TransportError;
    }
    thread::sleep(LORIS_STALL);
    match read_frame(&mut stream, 1 << 20) {
        // Reaped: closed or reset, never answered, never left hanging.
        Err(error) if !error.is_timeout() => Outcome::AsExpected,
        Err(_) => Outcome::WrongResponse,
        Ok(_) => Outcome::WrongResponse,
    }
}

fn runaway_program(addr: SocketAddr, retries: &AtomicU64) -> Outcome {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(
        &mut client,
        &Request::Run {
            source: "main: b main".to_owned(),
            fuel: 0,
        },
        retries,
    ) {
        Ok(Response::Error {
            kind: ErrorKind::Timeout,
            ..
        }) => Outcome::AsExpected,
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

fn run_ok(addr: SocketAddr, ts: u64, retries: &AtomicU64) -> Outcome {
    let value = (ts % 90) as u32 + 1;
    let source = format!(
        "main:\n    li $a0, {value}\n    li $v0, 1\n    syscall\n    li $v0, 10\n    syscall\n"
    );
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(&mut client, &Request::Run { source, fuel: 0 }, retries) {
        Ok(Response::Ran {
            exit_code, output, ..
        }) if exit_code == 0 && output == value.to_string().into_bytes() => Outcome::AsExpected,
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

fn attest_pristine(addr: SocketAddr, fixture: &Pristine, ts: u64, retries: &AtomicU64) -> Outcome {
    let samples = 8 + (ts % 57) as u32;
    let (digest, sampled) =
        attest_digest(&fixture.image, ts, samples).expect("pristine v2 attests");
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(
        &mut client,
        &Request::Attest {
            container: fixture.v2.clone(),
            nonce: ts,
            samples,
        },
        retries,
    ) {
        Ok(Response::Attested {
            digest: got,
            sampled: got_sampled,
        }) if got == digest && got_sampled == sampled => Outcome::AsExpected,
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

fn attest_corrupt(
    addr: SocketAddr,
    fixture: &Pristine,
    seed: u64,
    trial: usize,
    retries: &AtomicU64,
) -> Outcome {
    let ts = trial_seed(seed, trial);
    let (corrupt, _) = fixture.corrupted(Mode::V2, seed, trial, region_of(trial));
    let samples = 16u32;
    // The oracle predicts the exact digest (or rejection) the server
    // must produce for these bytes.
    let expected = CompressedImage::from_bytes(&corrupt)
        .map_err(|_| ())
        .and_then(|image| attest_digest(&image, ts, samples).map_err(|_| ()));
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    let response = match call(
        &mut client,
        &Request::Attest {
            container: corrupt,
            nonce: ts,
            samples,
        },
        retries,
    ) {
        Ok(response) => response,
        Err(outcome) => return outcome,
    };
    match (response, expected) {
        (Response::Attested { digest, sampled }, Ok((want_digest, want_sampled)))
            if digest == want_digest && sampled == want_sampled =>
        {
            Outcome::AsExpected
        }
        (
            Response::Error {
                kind: ErrorKind::Malformed | ErrorKind::IntegrityFailure,
                ..
            },
            Err(()),
        ) => Outcome::AsExpected,
        _ => Outcome::WrongResponse,
    }
}

fn expand_line_reuse(
    addr: SocketAddr,
    fixture: &Pristine,
    ts: u64,
    retries: &AtomicU64,
) -> Outcome {
    let line = (ts % u64::from(fixture.line_count())) as u32;
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(
        &mut client,
        &Request::ExpandLine {
            container: fixture.v2.clone(),
            address: line * 32,
        },
        retries,
    ) {
        Ok(Response::Line { bytes }) if bytes == fixture.lines[line as usize] => {}
        Ok(_) => return Outcome::WrongResponse,
        Err(outcome) => return outcome,
    }
    // Same connection, out-of-range address: typed rejection, no drop.
    match call(
        &mut client,
        &Request::ExpandLine {
            container: fixture.v2.clone(),
            address: fixture.line_count() * 32 + 4,
        },
        retries,
    ) {
        Ok(Response::Error {
            kind: ErrorKind::Malformed,
            ..
        }) => Outcome::AsExpected,
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

fn chaos_panic(addr: SocketAddr, fixture: &Pristine, retries: &AtomicU64) -> Outcome {
    let mut client = match connect(addr) {
        Ok(client) => client,
        Err(outcome) => return outcome,
    };
    match call(&mut client, &Request::Chaos { kind: 0 }, retries) {
        Ok(Response::Error {
            kind: ErrorKind::Internal,
            ..
        }) => {}
        Ok(_) => return Outcome::WrongResponse,
        Err(outcome) => return outcome,
    }
    // The panic was contained: the same connection (and the same worker
    // pool) must still answer honestly.
    match call(
        &mut client,
        &Request::Verify {
            container: fixture.v2.clone(),
        },
        retries,
    ) {
        Ok(Response::Verified { lines, version, .. })
            if lines == fixture.line_count() && version == 2 =>
        {
            Outcome::AsExpected
        }
        Ok(_) => Outcome::WrongResponse,
        Err(outcome) => outcome,
    }
}

/// Slams a deliberately tiny server (one worker, two queue slots) with
/// concurrent runaway programs and tallies how it sheds.
fn run_burst(burst: usize) -> BurstReport {
    if burst == 0 {
        return BurstReport::default();
    }
    let config = ServiceConfig {
        workers: 1,
        queue_depth: 2,
        default_fuel: 300_000,
        deadline: Duration::from_secs(10),
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(config));
    let mut server =
        ServerHandle::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let started = Instant::now();
    let results: Vec<(Option<Response>, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..burst)
            .map(|_| {
                scope.spawn(move || {
                    let sent = Instant::now();
                    let response =
                        Client::connect(addr, CLIENT_TIMEOUT)
                            .ok()
                            .and_then(|mut client| {
                                client
                                    .call(&Request::Run {
                                        source: "main: b main".to_owned(),
                                        fuel: 0,
                                    })
                                    .ok()
                            });
                    (response, sent.elapsed().as_micros() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client threads do not panic"))
            .collect()
    });
    let wall = started.elapsed();
    server.shutdown();
    let mut report = BurstReport {
        sent: burst,
        wall,
        ..BurstReport::default()
    };
    let mut latencies: Vec<u64> = Vec::with_capacity(burst);
    for (response, latency_us) in results {
        latencies.push(latency_us);
        match response {
            Some(Response::Ran { .. }) => report.ran += 1,
            Some(Response::Error {
                kind: ErrorKind::Overload,
                ..
            }) => report.overload += 1,
            Some(Response::Error {
                kind: ErrorKind::Timeout,
                ..
            }) => report.timeout += 1,
            Some(_) => report.other += 1,
            None => report.transport_errors += 1,
        }
    }
    latencies.sort_unstable();
    report.p100_us = latencies.last().copied().unwrap_or(0);
    report.p99_us = percentile(&latencies, 99);
    report
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Runs a campaign. Outcomes depend only on `(options.seed, trial)` —
/// `options.jobs` changes wall time, never results.
pub fn run(options: ServesimOptions) -> ServesimReport {
    let started = Instant::now();
    let fixture = Pristine::build();
    let service = Arc::new(Service::new(campaign_config()));
    let mut server =
        ServerHandle::start(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let retries = AtomicU64::new(0);
    let trials: Vec<usize> = (0..options.trials).collect();
    let results = parallel_map(options.jobs, &trials, |&trial| {
        run_trial(addr, &fixture, options.seed, trial, &retries)
    });
    let outcomes: Vec<Outcome> = results.iter().map(|&(outcome, _)| outcome).collect();
    let mut latencies_us: Vec<u64> = results
        .iter()
        .map(|(_, wall)| wall.as_micros() as u64)
        .collect();
    latencies_us.sort_unstable();
    let counters = service.counters();
    server.shutdown();
    let burst = run_burst(options.burst);
    ServesimReport {
        options,
        outcomes,
        latencies_us,
        overload_retries: retries.into_inner(),
        counters,
        burst,
        total_wall: started.elapsed(),
    }
}

impl ServesimReport {
    /// Trials with `outcome`, optionally restricted to one kind.
    pub fn count(&self, outcome: Outcome, kind: Option<TrialKind>) -> usize {
        self.outcomes
            .iter()
            .enumerate()
            .filter(|&(trial, &o)| o == outcome && kind.is_none_or(|k| kind_of(trial) == k))
            .count()
    }

    /// Trials that played `kind`.
    pub fn trials_of(&self, kind: TrialKind) -> usize {
        (0..self.outcomes.len())
            .filter(|&trial| kind_of(trial) == kind)
            .count()
    }

    /// The campaign's pass criterion: the server never gave a wrong
    /// answer, never silently accepted corrupt v2 content, never
    /// dropped or hung a scripted connection, contained exactly the
    /// panics the chaos trials injected, and gave every burst client a
    /// typed answer. The v1 silent window is allowed (and documented).
    pub fn acceptable(&self) -> bool {
        self.count(Outcome::WrongResponse, None) == 0
            && self.count(Outcome::SilentAcceptance, None) == 0
            && self.count(Outcome::TransportError, None) == 0
            && self.count(Outcome::ClientTimeout, None) == 0
            && self.counters.panics_caught == self.trials_of(TrialKind::ChaosPanic) as u64
            && self.burst.transport_errors == 0
    }

    /// The compact per-trial outcome string (`outcomes[i]` = trial `i`).
    pub fn outcome_string(&self) -> String {
        self.outcomes.iter().map(|o| o.code()).collect()
    }

    fn kind_breakdown(&self) -> Json {
        Json::Obj(
            TrialKind::ALL
                .map(|kind| {
                    let counts = Outcome::ALL.map(|outcome| {
                        (
                            outcome.name().to_string(),
                            Json::U64(self.count(outcome, Some(kind)) as u64),
                        )
                    });
                    (
                        kind.name().to_string(),
                        Json::Obj(counts.into_iter().collect()),
                    )
                })
                .into_iter()
                .collect(),
        )
    }

    /// The deterministic half of the report: identical for equal
    /// `(trials, seed)` whatever the job count or machine.
    pub fn results_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ccrp-servesim/1")),
            ("trials", Json::U64(self.options.trials as u64)),
            ("seed", Json::U64(self.options.seed)),
            ("kinds", self.kind_breakdown()),
            ("outcomes", Json::str(&self.outcome_string())),
            (
                "server",
                Json::obj([
                    ("requests", Json::U64(self.counters.requests)),
                    ("failures", Json::U64(self.counters.failures)),
                    ("panics_caught", Json::U64(self.counters.panics_caught)),
                    ("rejected", Json::U64(self.counters.rejected)),
                ]),
            ),
            ("acceptable", Json::Bool(self.acceptable())),
        ])
    }
}

impl ToJson for ServesimReport {
    /// [`results_json`](ServesimReport::results_json) plus the
    /// run-specific job count and every timing-class tally.
    fn to_json(&self) -> Json {
        let burst = Json::obj([
            ("sent", Json::U64(self.burst.sent as u64)),
            ("ran", Json::U64(self.burst.ran as u64)),
            ("overload", Json::U64(self.burst.overload as u64)),
            ("timeout", Json::U64(self.burst.timeout as u64)),
            ("other", Json::U64(self.burst.other as u64)),
            (
                "transport_errors",
                Json::U64(self.burst.transport_errors as u64),
            ),
            ("p99_us", Json::U64(self.burst.p99_us)),
            ("p100_us", Json::U64(self.burst.p100_us)),
            ("wall_us", duration_json(self.burst.wall)),
        ]);
        let timing = Json::obj([
            ("total_wall_us", duration_json(self.total_wall)),
            (
                "latency_p50_us",
                Json::U64(percentile(&self.latencies_us, 50)),
            ),
            (
                "latency_p99_us",
                Json::U64(percentile(&self.latencies_us, 99)),
            ),
            ("overload_retries", Json::U64(self.overload_retries)),
            ("burst", burst),
        ]);
        envelope(self.results_json(), self.options.jobs, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_envelope;

    fn small_campaign(jobs: usize, burst: usize) -> ServesimReport {
        run(ServesimOptions {
            trials: 28,
            seed: 7,
            jobs,
            burst,
        })
    }

    #[test]
    fn outcomes_identical_across_job_counts() {
        let serial = small_campaign(1, 0);
        let parallel = small_campaign(3, 0);
        assert_eq!(serial.outcomes, parallel.outcomes);
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact()
        );
        assert_envelope(&parallel, parallel.results_json(), 3);
    }

    #[test]
    fn campaign_is_acceptable_and_not_vacuous() {
        let report = small_campaign(4, 8);
        assert!(
            report.acceptable(),
            "outcomes: {} json: {}",
            report.outcome_string(),
            report.to_json().to_pretty()
        );
        // Every trial resolved to the expected behaviour (with the v1
        // silent window the only tolerated divergence).
        assert_eq!(
            report.count(Outcome::AsExpected, None) + report.count(Outcome::V1Silent, None),
            28
        );
        // Two full cycles of 14 kinds ran, including both chaos trials.
        assert_eq!(report.trials_of(TrialKind::ChaosPanic), 2);
        assert_eq!(report.counters.panics_caught, 2);
        // The burst really exercised shedding or fuel exhaustion, and
        // every client got a typed answer.
        assert_eq!(report.burst.transport_errors, 0);
        assert_eq!(
            report.burst.ran + report.burst.overload + report.burst.timeout + report.burst.other,
            8
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[5], 50), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }
}
