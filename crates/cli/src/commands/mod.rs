//! Subcommand implementations. Each takes parsed [`Args`] and a writer
//! so tests can capture output.

use std::io::Write;

use ccrp_bench::json::Json;

use crate::args::Args;
use crate::error::{write_file, CliError};

pub mod asm;
pub mod compress;
pub mod difftest;
pub mod disasm;
pub mod faultsim;
pub mod inspect;
pub mod profile;
pub mod run;
pub mod serve;
pub mod servesim;
pub mod simulate;
pub mod sweep;
pub mod trace;
pub mod trace_capture;
pub mod workloads;

/// Writes a campaign's report to its results file at `path` and, under
/// `--json`, echoes the same document to `out` for pipelines that read
/// stdout instead. Returns whether it echoed: the command then prints
/// nothing else.
fn write_results(
    args: &Args,
    out: &mut dyn Write,
    path: &str,
    report: &Json,
) -> Result<bool, CliError> {
    let text = report.to_pretty();
    write_file(path, text.as_bytes())?;
    if args.json() {
        write!(out, "{text}").ok();
    }
    Ok(args.json())
}
