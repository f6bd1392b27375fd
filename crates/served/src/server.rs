//! The TCP transport: accept loop, bounded admission queue, worker
//! pool, and the deadline watchdog.
//!
//! Threading model (std only — no async runtime):
//!
//! - One **accept thread** polls a non-blocking listener and spawns a
//!   thread per connection.
//! - **Connection threads** read frames under the socket read timeout
//!   (the slow-loris guard), decode requests, and push jobs onto the
//!   bounded queue. A full queue sheds the request immediately with a
//!   typed `Overload` error — admission control, not backpressure.
//! - **Worker threads** drain the queue and run each job through
//!   [`Service::handle_cancellable`]; jobs whose deadline passed while
//!   queued are answered `Timeout` without dispatch.
//! - The **watchdog thread** scans in-flight requests every few
//!   milliseconds and sets the cancel flag of any past its deadline;
//!   the fuel budget inside emulation/replay observes the flag and
//!   aborts with a typed `Timeout`.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::proto::{ErrorKind, Request, Response};
use crate::service::Service;
use crate::wire::{read_frame, write_frame, FrameError};

/// How often the watchdog scans for expired deadlines.
const WATCHDOG_PERIOD: Duration = Duration::from_millis(10);

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One admitted request travelling from a connection thread to a
/// worker.
struct Job {
    request: Request,
    reply: SyncSender<Response>,
    cancel: Arc<AtomicBool>,
    deadline: Instant,
}

/// Bounded MPMC queue: `try_push` sheds instead of blocking (admission
/// control); `pop` blocks workers until a job or shutdown.
struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    fn new(depth: usize) -> JobQueue {
        JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admits `job`, or returns it when the queue is full.
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.lock();
        if jobs.len() >= self.depth {
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job arrives or `shutdown` is set.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Job> {
        let mut jobs = self.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(jobs, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner());
            jobs = guard;
        }
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// In-flight request registry the watchdog scans: `(deadline, cancel)`
/// per dispatched job.
type Inflight = Mutex<Vec<(Instant, Arc<AtomicBool>)>>;

fn lock_inflight(
    inflight: &Inflight,
) -> std::sync::MutexGuard<'_, Vec<(Instant, Arc<AtomicBool>)>> {
    inflight.lock().unwrap_or_else(|p| p.into_inner())
}

/// A running server; dropping it (or calling [`shutdown`]) stops the
/// accept loop, workers, and watchdog.
///
/// [`shutdown`]: ServerHandle::shutdown
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop, worker pool, and watchdog.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(service: Arc<Service>, addr: &str) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(JobQueue::new(service.config().queue_depth));
        let inflight: Arc<Inflight> = Arc::new(Mutex::new(Vec::new()));

        let workers = (0..service.config().workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&shutdown);
                let inflight = Arc::clone(&inflight);
                thread::spawn(move || worker_loop(&service, &queue, &shutdown, &inflight))
            })
            .collect();

        let watchdog = {
            let shutdown = Arc::clone(&shutdown);
            let inflight = Arc::clone(&inflight);
            thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    thread::sleep(WATCHDOG_PERIOD);
                    let now = Instant::now();
                    for (deadline, cancel) in lock_inflight(&inflight).iter() {
                        if now >= *deadline {
                            cancel.store(true, Ordering::Relaxed);
                        }
                    }
                }
            })
        };

        let accept = {
            let service = Arc::clone(&service);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || loop {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let service = Arc::clone(&service);
                        let queue = Arc::clone(&queue);
                        // Connection threads detach; they exit when the
                        // client closes or the read timeout fires.
                        thread::spawn(move || serve_connection(stream, &service, &queue));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => thread::sleep(ACCEPT_POLL),
                }
            })
        };

        Ok(ServerHandle {
            addr,
            service,
            shutdown,
            queue,
            accept: Some(accept),
            workers,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (the ephemeral port after a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Stops accepting, drains the workers, and joins the maintenance
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.wake_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(service: &Service, queue: &JobQueue, shutdown: &AtomicBool, inflight: &Inflight) {
    while let Some(job) = queue.pop(shutdown) {
        if Instant::now() >= job.deadline {
            service.note_rejected();
            let _ = job.reply.send(Response::Error {
                kind: ErrorKind::Timeout,
                detail: "deadline exceeded while queued".to_owned(),
            });
            continue;
        }
        lock_inflight(inflight).push((job.deadline, Arc::clone(&job.cancel)));
        let response = service.handle_cancellable(&job.request, &job.cancel);
        lock_inflight(inflight).retain(|(_, cancel)| !Arc::ptr_eq(cancel, &job.cancel));
        // The connection thread may have given up waiting; a dead
        // channel is fine.
        let _ = job.reply.send(response);
    }
}

fn send_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    write_frame(stream, &response.encode())
}

fn serve_connection(mut stream: TcpStream, service: &Service, queue: &JobQueue) {
    let config = service.config().clone();
    // Replies go out as soon as they are written, as `Client::connect`
    // sets for requests.
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    loop {
        let payload = match read_frame(&mut stream, config.max_frame_bytes) {
            Ok(payload) => payload,
            Err(FrameError::Oversized { declared, max }) => {
                // The stream cannot be resynced past an unread payload:
                // answer, then close.
                let _ = send_response(
                    &mut stream,
                    &Response::Error {
                        kind: ErrorKind::Malformed,
                        detail: format!(
                            "declared frame length {declared} exceeds the {max}-byte limit"
                        ),
                    },
                );
                return;
            }
            // Clean close, truncation, slow-loris timeout, or transport
            // failure: nothing useful to answer.
            Err(_) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // A complete but undecodable frame: the stream is still
                // in sync, so answer and keep the connection.
                let _ = send_response(
                    &mut stream,
                    &Response::Error {
                        kind: ErrorKind::Malformed,
                        detail: format!("undecodable request: {e}"),
                    },
                );
                continue;
            }
        };
        let (tx, rx) = mpsc::sync_channel(1);
        let job = Job {
            request,
            reply: tx,
            cancel: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now() + config.deadline,
        };
        let response = match queue.try_push(job) {
            Ok(()) => {
                // Generous upper bound: the worker answers by the
                // deadline (watchdog + fuel) or shortly after.
                match rx.recv_timeout(config.deadline * 2 + Duration::from_secs(3)) {
                    Ok(response) => response,
                    Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                        Response::Error {
                            kind: ErrorKind::Timeout,
                            detail: "no response before the transport deadline".to_owned(),
                        }
                    }
                }
            }
            Err(_shed) => {
                service.note_rejected();
                Response::Error {
                    kind: ErrorKind::Overload,
                    detail: "request queue is full; retry with backoff".to_owned(),
                }
            }
        };
        if send_response(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Errors a [`Client`] call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed mid-call.
    Frame(FrameError),
    /// Connecting or writing failed.
    Io(io::Error),
    /// The server's reply did not decode.
    Decode(ccrp::SnapshotError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::Decode(e) => write!(f, "bad response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A minimal blocking client over one connection.
pub struct Client {
    stream: TcpStream,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects to `addr` with `read_timeout` on responses.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame_bytes: 64 << 20,
        })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or decode failure.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode()).map_err(ClientError::Io)?;
        let payload =
            read_frame(&mut self.stream, self.max_frame_bytes).map_err(ClientError::Frame)?;
        Response::decode(&payload).map_err(ClientError::Decode)
    }

    /// Like [`call`](Self::call), but retries `Overload` responses with
    /// exponential backoff, sending the request at most `attempts` times
    /// (at least once). Any other response is definitive and returns
    /// immediately. Returns the response and the retries spent.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or decode failure.
    pub fn call_with_retry(
        &mut self,
        request: &Request,
        attempts: u32,
    ) -> Result<(Response, u32), ClientError> {
        let mut response = self.call(request)?;
        let mut retries = 0;
        for attempt in 1..attempts {
            if response.error_kind() != Some(ErrorKind::Overload) {
                break;
            }
            thread::sleep(Duration::from_micros(500u64 << attempt.min(8)));
            response = self.call(request)?;
            retries += 1;
        }
        Ok((response, retries))
    }

    /// Writes raw bytes on the connection (for hostile-input tests).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one raw response frame (for hostile-input tests).
    ///
    /// # Errors
    ///
    /// [`FrameError`] as on any frame read.
    pub fn read_raw(&mut self) -> Result<Vec<u8>, FrameError> {
        read_frame(&mut self.stream, self.max_frame_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn start(config: ServiceConfig) -> ServerHandle {
        ServerHandle::start(Arc::new(Service::new(config)), "127.0.0.1:0")
            .expect("ephemeral bind succeeds")
    }

    fn client(server: &ServerHandle) -> Client {
        Client::connect(server.addr(), Duration::from_secs(10)).expect("connect succeeds")
    }

    #[test]
    fn round_trip_over_tcp() {
        let mut server = start(ServiceConfig::default());
        let mut c = client(&server);
        let response = c
            .call(&Request::Run {
                source: "main: li $a0, 7\n li $v0, 1\n syscall\n li $v0, 10\n syscall".to_owned(),
                fuel: 0,
            })
            .unwrap();
        match response {
            Response::Ran { output, .. } => assert_eq!(output, b"7"),
            other => panic!("unexpected: {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn hostile_sources_are_malformed_and_serving_goes_on() {
        let mut server = start(ServiceConfig::default());
        let mut c = client(&server);
        // 3,000 nested parentheses: 6 KB, enough to overflow a 2 MiB
        // worker stack (and abort the daemon) if nesting were unbounded.
        let depth = 3_000;
        let nested = format!(
            "main: li $a0, {}7{}\n li $v0, 10\n syscall",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        // 23 bytes asking the assembler to zero 64 MiB of data segment.
        let spacious = ".data\n.space 0x4000000".to_owned();
        // Text run into the data segment: the data would overwrite `main`.
        let overlapping = ".space 0x400000\nmain: nop\n.data\nd: .word 5".to_owned();
        for (source, why) in [
            (nested, "more than 256"),
            (spacious, "24-bit segment size"),
            (overlapping, "overlaps data segment"),
        ] {
            match c.call(&Request::Run { source, fuel: 0 }).unwrap() {
                Response::Error { kind, detail } => {
                    assert_eq!(kind, ErrorKind::Malformed);
                    assert!(detail.contains(why), "{detail}");
                }
                other => panic!("unexpected: {other:?}"),
            }
            let response = c
                .call(&Request::Run {
                    source: "main: li $a0, 7\n li $v0, 1\n syscall\n li $v0, 10\n syscall"
                        .to_owned(),
                    fuel: 0,
                })
                .unwrap();
            match response {
                Response::Ran { output, .. } => assert_eq!(output, b"7"),
                other => panic!("unexpected: {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn connection_reuse_and_malformed_frames_keep_the_stream() {
        let mut server = start(ServiceConfig::default());
        let mut c = client(&server);
        // An undecodable (but complete) frame gets Malformed...
        c.send_raw(&{
            let mut b = 3u32.to_le_bytes().to_vec();
            b.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
            b
        })
        .unwrap();
        let reply = Response::decode(&c.read_raw().unwrap()).unwrap();
        assert_eq!(reply.error_kind(), Some(ErrorKind::Malformed));
        // ...and the same connection still serves real requests.
        let response = c.call(&Request::Inspect { container: vec![] }).unwrap();
        assert_eq!(response.error_kind(), Some(ErrorKind::Malformed));
        server.shutdown();
    }

    #[test]
    fn oversized_declared_length_is_rejected_then_closed() {
        let config = ServiceConfig {
            max_frame_bytes: 1024,
            ..ServiceConfig::default()
        };
        let mut server = start(config);
        let mut c = client(&server);
        c.send_raw(&u32::MAX.to_le_bytes()).unwrap();
        let reply = Response::decode(&c.read_raw().unwrap()).unwrap();
        assert_eq!(reply.error_kind(), Some(ErrorKind::Malformed));
        // The server closes after an unresyncable stream.
        assert!(matches!(c.read_raw(), Err(FrameError::Closed)));
        server.shutdown();
    }

    #[test]
    fn slow_loris_connection_is_reaped() {
        let config = ServiceConfig {
            read_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let mut server = start(config);
        let mut c = client(&server);
        // Send a header promising 100 bytes, then stall.
        c.send_raw(&100u32.to_le_bytes()).unwrap();
        thread::sleep(Duration::from_millis(200));
        c.send_raw(&[0u8; 100]).ok();
        // The server closed without answering.
        assert!(matches!(
            c.read_raw(),
            Err(FrameError::Closed) | Err(FrameError::Io(_))
        ));
        server.shutdown();
    }

    #[test]
    fn watchdog_cancels_past_deadline_run() {
        let config = ServiceConfig {
            deadline: Duration::from_millis(100),
            // Enormous fuel: only the watchdog can stop this run.
            default_fuel: u64::MAX,
            ..ServiceConfig::default()
        };
        let mut server = start(config);
        let mut c = client(&server);
        let started = Instant::now();
        let response = c
            .call(&Request::Run {
                source: "main: b main".to_owned(),
                fuel: 0,
            })
            .unwrap();
        assert_eq!(response.error_kind(), Some(ErrorKind::Timeout));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cancellation took {:?}",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_overload() {
        let config = ServiceConfig {
            queue_depth: 1,
            workers: 1,
            ..ServiceConfig::default()
        };
        let mut server = start(config);
        let addr = server.addr();
        // Occupy the single worker with a fuel-bounded long run.
        let busy = thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(60)).unwrap();
            c.call(&Request::Run {
                source: "main: b main".to_owned(),
                fuel: 0,
            })
            .unwrap()
        });
        // Wait until that run is actually dispatched, so the worker is
        // provably busy before the burst.
        while server.service().counters().requests == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        // Burst: one request wins the single queue slot, the rest shed.
        let burst: Vec<_> = (0..3)
            .map(|_| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr, Duration::from_secs(60)).unwrap();
                    c.call(&Request::Inspect { container: vec![] }).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = burst.into_iter().map(|h| h.join().unwrap()).collect();
        let sheds = responses
            .iter()
            .filter(|r| r.error_kind() == Some(ErrorKind::Overload))
            .count();
        assert!(sheds >= 2, "expected at least 2 sheds, got {responses:?}");
        // Every burst request still got a typed response (Malformed for
        // the slot winner's empty container, Timeout if it expired in
        // the queue, Overload for the shed ones).
        for response in &responses {
            assert!(matches!(
                response.error_kind(),
                Some(ErrorKind::Overload | ErrorKind::Timeout | ErrorKind::Malformed)
            ));
        }
        assert!(server.service().counters().rejected >= 2);
        // The saturating run itself ends with a typed Timeout (fuel).
        assert_eq!(busy.join().unwrap().error_kind(), Some(ErrorKind::Timeout));
        // Once drained, retry-with-backoff reaches a definitive answer.
        let mut c = client(&server);
        let (response, _) = c
            .call_with_retry(&Request::Inspect { container: vec![] }, 8)
            .unwrap();
        assert_ne!(response.error_kind(), Some(ErrorKind::Overload));
        server.shutdown();
    }
}
