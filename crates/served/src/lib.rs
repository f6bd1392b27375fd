//! `ccrp-served`: a fault-tolerant compression/simulation service.
//!
//! The paper's toolchain — compressor, verifier, emulator, cache
//! simulator — is a set of libraries. This crate fronts them with a
//! small std-only daemon (threads and channels, no async runtime)
//! speaking a length-prefixed framed protocol over TCP, built to stay
//! up under hostile input:
//!
//! - **Typed protocol** ([`proto`]): `compress`, `verify`, `inspect`,
//!   `expand-line`, `run` (bounded emulation), `sweep-cell` (one cache
//!   simulation cell), and `attest` (challenge-response integrity
//!   digests over v2 containers, after Vetter & Westhoff-style remote
//!   attestation). Failures are structured [`ErrorKind`]s, never
//!   free-form strings alone.
//! - **Bounded everything** ([`wire`], [`ServiceConfig`]): frame
//!   lengths are checked before allocation, per-endpoint input sizes
//!   are capped, execution runs under a [`ccrp::StepBudget`] fuel
//!   limit, and a watchdog thread cancels requests past their
//!   wall-clock deadline through the budget's cancel flag.
//! - **Per-request isolation** ([`Service`]): each request runs under
//!   `catch_unwind`; a panicking handler becomes a typed `Internal`
//!   error. Every upload is parsed from the bytes it carried, so no
//!   state outlives a request.
//! - **Admission control** ([`ServerHandle`]): a bounded job queue
//!   sheds excess load with typed `Overload` errors that clients
//!   retry with exponential backoff ([`Client::call_with_retry`]).
//!
//! The hostile-input campaign that exercises all of this end-to-end
//! lives in `ccrp_bench::servesim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod proto;
pub mod server;
pub mod service;
pub mod wire;

pub use attest::{attest_digest, MAX_ATTEST_SAMPLES};
pub use proto::{ErrorKind, Request, Response, MAX_RUN_OUTPUT_BYTES};
pub use server::{Client, ClientError, ServerHandle};
pub use service::{Service, ServiceConfig, ServiceCounters, CHAOS_PANIC_MESSAGE};
pub use wire::{read_frame, write_frame, FrameError, FRAME_HEADER_BYTES};
