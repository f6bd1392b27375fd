//! `ccrp-tools serve [--addr HOST:PORT] [--addr-file FILE] [--workers N]
//! [--queue N] [--fuel N] [--deadline-ms N] [--max-requests N] [--chaos]`
//!
//! Starts the `ccrp-served` daemon: a threads-and-channels TCP service
//! speaking the length-prefixed framed protocol, with per-request
//! isolation, watchdog deadlines, fuel-bounded execution, and
//! admission control. The bound address is printed (and optionally
//! written to `--addr-file` so scripts can find an ephemeral port).
//!
//! `--max-requests N` stops the server after it has dispatched or shed
//! `N` requests — the hook the tests and smoke scripts use; the default
//! (`0`) serves until the process is killed.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use ccrp_served::{ServerHandle, Service, ServiceConfig};

use crate::args::Args;
use crate::error::{write_file, CliError};

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &[
    "addr",
    "addr-file",
    "workers",
    "queue",
    "fuel",
    "deadline-ms",
    "max-requests",
];
/// Switch names.
pub const SWITCHES: &[&str] = &["chaos"];

/// Runs the subcommand.
///
/// # Errors
///
/// [`CliError::Usage`] for bad numbers and [`CliError::Io`] when the
/// listener cannot bind or the address file cannot be written.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let addr = args.option("addr").unwrap_or("127.0.0.1:0");
    let workers = args.option_u32("workers", 2)?.max(1) as usize;
    let queue_depth = args.option_u32("queue", 32)?.max(1) as usize;
    let default_fuel = match args.option("fuel") {
        None => ServiceConfig::default().default_fuel,
        Some(text) => text
            .parse::<u64>()
            .map_err(|_| CliError::Usage(format!("--fuel: bad number `{text}`")))?,
    };
    let deadline_ms = args.option_u32("deadline-ms", 2000)?.max(1);
    let max_requests = u64::from(args.option_u32("max-requests", 0)?);

    let config = ServiceConfig {
        workers,
        queue_depth,
        default_fuel,
        deadline: Duration::from_millis(u64::from(deadline_ms)),
        enable_chaos: args.switch("chaos"),
        ..ServiceConfig::default()
    };
    let service = Arc::new(Service::new(config));
    let mut server = ServerHandle::start(Arc::clone(&service), addr).map_err(|e| CliError::Io {
        path: addr.to_owned(),
        source: e,
    })?;
    let bound = server.addr();
    writeln!(out, "ccrp-served listening on {bound}").ok();
    if let Some(path) = args.option("addr-file") {
        write_file(path, bound.to_string().as_bytes())?;
    }

    loop {
        let counters = service.counters();
        if max_requests > 0 && counters.requests + counters.rejected >= max_requests {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
    let counters = service.counters();
    writeln!(
        out,
        "served {} request(s), {} failure(s), {} shed, {} panic(s) contained",
        counters.requests, counters.failures, counters.rejected, counters.panics_caught,
    )
    .ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::temp_path;
    use ccrp_served::{Client, ErrorKind, Request, Response};
    use std::net::SocketAddr;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_bad_fuel() {
        let args = Args::parse(&strings(&["--fuel", "lots"]), VALUE_OPTIONS, SWITCHES).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--fuel"));
    }

    #[test]
    fn serves_requests_until_the_cap_then_reports() {
        let addr_file = temp_path("serve_addr.txt");
        let argv = strings(&[
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            &addr_file,
            "--max-requests",
            "2",
            "--fuel",
            "100000",
        ]);
        let server = std::thread::spawn(move || {
            let args = Args::parse(&argv, VALUE_OPTIONS, SWITCHES).unwrap();
            let mut buffer = Vec::new();
            run(&args, &mut buffer).unwrap();
            String::from_utf8(buffer).unwrap()
        });

        // Wait for the daemon to publish its ephemeral address.
        let addr: SocketAddr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(text) if !text.is_empty() => break text.trim().parse().unwrap(),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let request = Request::Compress {
            text_base: 0,
            v2: true,
            text: vec![0x24; 64],
        };
        for _ in 0..2 {
            let (response, _) = client.call_with_retry(&request, 5).unwrap();
            match response {
                Response::Compressed { .. } => {}
                Response::Error {
                    kind: ErrorKind::Timeout,
                    ..
                } => {} // shutdown raced the second reply; still counted
                other => panic!("unexpected response: {other:?}"),
            }
        }

        let output = server.join().unwrap();
        assert!(output.contains("ccrp-served listening on"));
        assert!(output.contains("request(s)"));
        std::fs::remove_file(&addr_file).ok();
    }
}
