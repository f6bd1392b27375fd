//! `ccrp-tools trace <input.s> [--cache N] [--memory eprom|burst|dram]
//! [--clb N] [--dcache-miss PCT] [--code preselected|self]
//! [--alignment byte|word] [--limit N] [--metrics] [--out trace.json]`
//!
//! Assembles and executes a program, then re-runs its instruction trace
//! through the probed standard and CCRP simulators and exports every
//! probe event as a Chrome trace-event JSON document — loadable in
//! Perfetto or `chrome://tracing`, with two threads ("standard" and
//! "ccrp") on a shared simulated-cycle timebase. Timestamps are cycles,
//! not wall time, so the same program and options always produce a
//! byte-identical trace.
//!
//! `--metrics` adds the probe-derived metric registry (refill-latency
//! and bytes-per-refill histograms, CLB residency, event counts) under
//! a top-level `metrics` key; `--limit N` caps each thread at N events
//! (the `otherData` section reports how many were dropped).

use std::io::Write;

use ccrp_bench::json::Json;
use ccrp_bench::{chrome_trace, ToJson};
use ccrp_probe::{EventLog, MetricsCollector};
use ccrp_sim::{MemoryModel, Simulation};

use crate::args::Args;
use crate::error::{write_file, CliError};

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &[
    "cache",
    "memory",
    "clb",
    "dcache-miss",
    "code",
    "alignment",
    "limit",
];
/// Switch names.
pub const SWITCHES: &[&str] = &["metrics"];

fn memory(args: &Args) -> Result<MemoryModel, CliError> {
    Ok(match args.option("memory").unwrap_or("eprom") {
        "eprom" => MemoryModel::Eprom,
        "burst" => MemoryModel::BurstEprom,
        "dram" => MemoryModel::ScDram,
        other => {
            return Err(CliError::Usage(format!(
                "--memory: `{other}` is not eprom|burst|dram"
            )))
        }
    })
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage, I/O, assembly, runtime, or simulation errors.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input assembly file")?;
    let (compressed, trace) = super::simulate::prepare(args, input)?;
    let memory = memory(args)?;
    let cache_bytes = args.option_u32("cache", 1024)?;
    let config = super::simulate::system_config(args, memory, cache_bytes)?;

    let limit = args.option_u32("limit", 0)?;
    let event_log = || {
        if limit == 0 {
            EventLog::new()
        } else {
            EventLog::with_limit(limit as usize)
        }
    };

    let mut standard_log = event_log();
    let standard = Simulation::new(config)
        .standard_probed(&mut standard_log)
        .standard(trace.iter())?;
    // One pass feeds both the event log and the metrics registry.
    let mut probes = (event_log(), MetricsCollector::new());
    let ccrp = Simulation::new(config)
        .ccrp_probed(&mut probes)
        .ccrp(&compressed, trace.iter())?;
    let (ccrp_log, collector) = probes;

    let mut json = chrome_trace(&[
        ("standard", standard_log.events()),
        ("ccrp", ccrp_log.events()),
    ]);
    json.insert(
        "otherData",
        Json::obj([
            ("schema", Json::str("ccrp-trace/1")),
            ("memory", Json::str(memory.name())),
            ("cache_bytes", Json::U64(u64::from(cache_bytes))),
            (
                "stored_pct",
                Json::F64(compressed.compression_ratio() * 100.0),
            ),
            ("standard", standard.to_json()),
            ("ccrp", ccrp.to_json()),
            (
                "dropped_events",
                Json::U64(standard_log.dropped() + ccrp_log.dropped()),
            ),
        ]),
    );
    if args.switch("metrics") {
        json.insert("metrics", collector.metrics().to_json());
    }
    let text = json.to_pretty();

    let events = standard_log.events().len() + ccrp_log.events().len();
    match args.out() {
        Some(path) => {
            write_file(path, text.as_bytes())?;
            writeln!(out, "wrote {events} trace events to {path}").ok();
        }
        None => {
            write!(out, "{text}").ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{temp_path, write_temp};

    fn looped_source() -> String {
        "main: li $t0, 2000\nloop: addiu $t0, $t0, -1\n bnez $t0, loop\n li $v0, 10\n syscall\n"
            .to_string()
    }

    fn parse(raw: &[String]) -> Args {
        Args::parse(raw, VALUE_OPTIONS, SWITCHES).unwrap()
    }

    #[test]
    fn emits_parseable_chrome_trace_with_all_kinds() {
        let src = write_temp("trace_in.s", &looped_source());
        let args = parse(&[
            src.clone(),
            "--cache".into(),
            "256".into(),
            "--memory".into(),
            "eprom".into(),
            "--metrics".into(),
        ]);
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let json = Json::parse(&text).expect("trace output parses as JSON");
        let Some(Json::Arr(events)) = json.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert!(events.len() > 4, "only {} events", events.len());
        for kind in ["\"refill\"", "\"clb\"", "\"memory\"", "\"cache\""] {
            assert!(text.contains(kind), "{kind} events missing");
        }
        assert!(json.get("metrics").is_some());
        assert!(json.get("otherData").is_some());
        std::fs::remove_file(src).ok();
    }

    #[test]
    fn out_writes_file_and_limit_caps_events() {
        let src = write_temp("trace_out.s", &looped_source());
        let path = temp_path("trace.json");
        let args = parse(&[
            src.clone(),
            "--out".into(),
            path.clone(),
            "--limit".into(),
            "3".into(),
        ]);
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        assert!(String::from_utf8(buffer).unwrap().contains("trace events"));
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(&text).expect("file parses");
        let Some(Json::Arr(events)) = json.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        // Two thread_name records plus at most 3 events per thread.
        assert!(events.len() <= 8);
        let Some(dropped) = json.get("otherData").and_then(|o| o.get("dropped_events")) else {
            panic!("dropped_events missing");
        };
        assert!(matches!(dropped, Json::U64(n) if *n > 0));
        std::fs::remove_file(src).ok();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_is_deterministic() {
        let src = write_temp("trace_det.s", &looped_source());
        let args = parse(&[src.clone(), "--cache".into(), "256".into()]);
        let mut first = Vec::new();
        run(&args, &mut first).unwrap();
        let mut second = Vec::new();
        run(&args, &mut second).unwrap();
        assert_eq!(first, second);
        std::fs::remove_file(src).ok();
    }

    #[test]
    fn rejects_all_memory_model() {
        let src = write_temp("trace_bad.s", &looped_source());
        let args = parse(&[src.clone(), "--memory".into(), "all".into()]);
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(src).ok();
    }
}
