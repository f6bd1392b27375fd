//! `ccrp-tools`: the command-line face of the CCRP reproduction.
//!
//! One binary covering the embedded development flow the paper describes
//! in §1 — compile on the host, compress with the development-system
//! tool, burn the container, and evaluate the memory-system trade-offs:
//!
//! ```text
//! ccrp-tools asm       prog.s --out prog.bin       # assemble
//! ccrp-tools disasm    prog.bin                    # inspect code
//! ccrp-tools run       prog.s --stats              # execute on the R2000 emulator
//! ccrp-tools compress  prog.s --out prog.ccrp      # the paper's "compression tool"
//! ccrp-tools inspect   prog.ccrp --disasm          # look inside the ROM image
//! ccrp-tools profile   prog.s --top 10             # hottest cache lines
//! ccrp-tools simulate  prog.s --sweep              # standard vs CCRP tables
//! ccrp-tools workloads --verify                    # the paper's benchmark suite
//! ccrp-tools sweep     --jobs 8 --out results/     # parallel experiment sweep
//! ```
//!
//! Library form exists so the subcommands are unit-testable; the binary
//! in `main.rs` is a thin dispatcher.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
pub mod commands;
mod error;

pub use args::{parse_u32, Args};
pub use error::{read_file, read_text, write_file, CliError};

use std::io::Write;

/// Loads program text bytes from `path`: `.s`/`.asm` sources are
/// assembled; anything else is read as a raw little-endian text binary.
///
/// # Errors
///
/// I/O or assembly errors.
pub fn load_text_bytes(path: &str) -> Result<Vec<u8>, CliError> {
    if path.ends_with(".s") || path.ends_with(".asm") {
        let image = ccrp_asm::assemble(&read_text(path)?)?;
        Ok(image.text_bytes().to_vec())
    } else {
        read_file(path)
    }
}

/// The tool's help text.
pub const USAGE: &str = "\
ccrp-tools — Compressed Code RISC Processor toolchain

USAGE: ccrp-tools <command> [options]

COMMANDS:
  asm <in.s> [--out f] [--text-base N] [--data-base N] [--symbols]
      assemble MIPS source to a raw text binary
  disasm <in> [--base N]
      disassemble a .s file or raw text binary
  run <in.s> [--input 1,2,3] [--max-steps N] [--stats]
      [--checkpoint-every N --checkpoint-out FILE] [--resume-from FILE]
      execute on the functional R2000 emulator; --checkpoint-every
      serializes the machine state to --checkpoint-out every N retired
      instructions, --resume-from restores such a file (same program
      only) and continues from the recorded instruction
  compress <in> [--out f.ccrp] [--alignment byte|word] [--code preselected|self]
           [--codec byte-huffman|positional|lzw] [--text-base N] [--crc]
      compress into a CCRP ROM container (--codec: the line-codec
      backend, default byte-huffman; --crc: v2 container with header
      and per-line CRC-32 integrity records)
  inspect <in.ccrp> [--lines N] [--disasm]
      report a container's layout, codec, and LAT
  profile <in.s> [--top N]
      execute and rank the hottest cache lines
  simulate <in.s> [--cache N] [--memory eprom|burst|dram|all] [--clb N]
           [--dcache-miss PCT] [--code preselected|self] [--alignment byte|word] [--sweep]
      compare the standard processor against the CCRP
  trace <in.s> [--cache N] [--memory eprom|burst|dram] [--clb N]
        [--limit N] [--metrics] [--out trace.json]
      export the probed CCRP-vs-standard run as Chrome trace-event JSON
      (load in Perfetto or chrome://tracing; timestamps are simulated
      cycles); --metrics adds the counter/histogram registry
  workloads [--verify]
      list (and self-check) the paper's benchmark programs
  sweep [--experiment fig5|tables1_8|tables9_10|fig9|tables11_13|all]
        [--codecs] [--isa-compare] [--jobs N] [--out DIR]
        [--tables] [--metrics]
      run the paper experiments across a worker pool and write
      machine-readable BENCH_<experiment>.json results files into DIR
      (default: the current directory); each workload executes once
      and one replay of its captured trace covers every configuration
      of every experiment asked for; --tables
      prints the paper-style tables; --codecs runs the codec ×
      memory-model ablation matrix into BENCH_codecs.json instead,
      --isa-compare the cross-ISA matrix into BENCH_isa_compare.json;
      --metrics folds probe-derived histograms into each report
  trace-capture <workload|in.s|file.trace> [--out f.trace]
      capture a workload or assembly program's fetch trace into the
      run-compacted .trace container the sweep engine replays, or
      summarize an existing .trace file
  faultsim [--trials N] [--seed N] [--jobs N] [--out FILE]
      run a seeded fault-injection campaign over the container format,
      write BENCH_faultsim.json, and fail on panics, hangs, or silent
      miscompares in CRC-carrying (v2) containers
  difftest [--programs N] [--seed N] [--jobs N] [--checkpoint-every N]
           [--out FILE]
      run a differential co-simulation campaign: seeded random programs
      executed in lockstep on the plain and compressed machines with
      refill timing invariants checked per program; write
      BENCH_difftest.json and fail on any divergence or violation;
      --checkpoint-every routes every trial through the segmented
      (checkpoint/restore) co-simulator with identical verdicts
  serve [--addr HOST:PORT] [--addr-file FILE] [--workers N] [--queue N]
        [--fuel N] [--deadline-ms N] [--max-requests N] [--chaos]
      start the ccrp-served daemon: a framed TCP service exposing
      compress/verify/inspect/expand-line/run/sweep-cell/attest with
      per-request isolation, watchdog deadlines, fuel budgets, and
      load shedding; --addr-file publishes the bound (ephemeral)
      address, --max-requests stops after N requests (0 = forever)
  servesim [--trials N] [--seed N] [--jobs N] [--burst N] [--out FILE]
      run a seeded hostile-client campaign (corrupt uploads, truncated
      and oversized frames, slow-loris stalls, runaway programs,
      deliberate handler panics) against a real in-process server,
      write BENCH_servesim.json, and fail on wrong responses, silent
      corrupt-v2 acceptance, hangs, or uncontained panics
  help
      print this text

SHARED OPTIONS (every command):
  --out FILE   where the command writes its artifact or results; for
               report-only commands, redirects the report to FILE
  --json       emit the report as machine-readable JSON where the
               command supports it
";

/// One subcommand's dispatch entry.
struct Command {
    name: &'static str,
    value_options: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
    /// Whether the command interprets `--out` itself (an artifact or
    /// results path). When false, `--out` redirects the command's
    /// report to a file via the shared dispatch path.
    owns_out: bool,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "asm",
        value_options: commands::asm::VALUE_OPTIONS,
        switches: commands::asm::SWITCHES,
        run: commands::asm::run,
        owns_out: true,
    },
    Command {
        name: "disasm",
        value_options: commands::disasm::VALUE_OPTIONS,
        switches: commands::disasm::SWITCHES,
        run: commands::disasm::run,
        owns_out: false,
    },
    Command {
        name: "run",
        value_options: commands::run::VALUE_OPTIONS,
        switches: commands::run::SWITCHES,
        run: commands::run::run,
        owns_out: false,
    },
    Command {
        name: "compress",
        value_options: commands::compress::VALUE_OPTIONS,
        switches: commands::compress::SWITCHES,
        run: commands::compress::run,
        owns_out: true,
    },
    Command {
        name: "profile",
        value_options: commands::profile::VALUE_OPTIONS,
        switches: commands::profile::SWITCHES,
        run: commands::profile::run,
        owns_out: false,
    },
    Command {
        name: "inspect",
        value_options: commands::inspect::VALUE_OPTIONS,
        switches: commands::inspect::SWITCHES,
        run: commands::inspect::run,
        owns_out: false,
    },
    Command {
        name: "simulate",
        value_options: commands::simulate::VALUE_OPTIONS,
        switches: commands::simulate::SWITCHES,
        run: commands::simulate::run,
        owns_out: false,
    },
    Command {
        name: "workloads",
        value_options: commands::workloads::VALUE_OPTIONS,
        switches: commands::workloads::SWITCHES,
        run: commands::workloads::run,
        owns_out: false,
    },
    Command {
        name: "difftest",
        value_options: commands::difftest::VALUE_OPTIONS,
        switches: commands::difftest::SWITCHES,
        run: commands::difftest::run,
        owns_out: true,
    },
    Command {
        name: "faultsim",
        value_options: commands::faultsim::VALUE_OPTIONS,
        switches: commands::faultsim::SWITCHES,
        run: commands::faultsim::run,
        owns_out: true,
    },
    Command {
        name: "serve",
        value_options: commands::serve::VALUE_OPTIONS,
        switches: commands::serve::SWITCHES,
        run: commands::serve::run,
        owns_out: false,
    },
    Command {
        name: "servesim",
        value_options: commands::servesim::VALUE_OPTIONS,
        switches: commands::servesim::SWITCHES,
        run: commands::servesim::run,
        owns_out: true,
    },
    Command {
        name: "sweep",
        value_options: commands::sweep::VALUE_OPTIONS,
        switches: commands::sweep::SWITCHES,
        run: commands::sweep::run,
        owns_out: true,
    },
    Command {
        name: "trace",
        value_options: commands::trace::VALUE_OPTIONS,
        switches: commands::trace::SWITCHES,
        run: commands::trace::run,
        owns_out: true,
    },
    Command {
        name: "trace-capture",
        value_options: commands::trace_capture::VALUE_OPTIONS,
        switches: commands::trace_capture::SWITCHES,
        run: commands::trace_capture::run,
        owns_out: true,
    },
];

/// Dispatches one invocation. `argv` excludes the program name.
///
/// Every subcommand accepts the shared `--out`/`--json` options: for
/// commands that don't interpret `--out` themselves, the report is
/// captured here and written to the file instead of `out`.
///
/// # Errors
///
/// Any subcommand error; `main` prints it and exits nonzero.
pub fn dispatch(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage(
            "no command given; try `ccrp-tools help`".into(),
        ));
    };
    let rest = &argv[1..];
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        write!(out, "{USAGE}").ok();
        return Ok(());
    }
    let Some(entry) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        return Err(CliError::Usage(format!(
            "unknown command `{command}`; try `ccrp-tools help`"
        )));
    };
    let args = Args::parse(rest, entry.value_options, entry.switches)?;
    match args.out() {
        Some(path) if !entry.owns_out => {
            let mut captured = Vec::new();
            (entry.run)(&args, &mut captured)?;
            write_file(path, &captured)?;
            writeln!(out, "wrote report to {path}").ok();
            Ok(())
        }
        _ => (entry.run)(&args, out),
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique path in the system temp directory.
    pub fn temp_path(tag: &str) -> String {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("ccrp_tools_{}_{n}_{tag}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Writes `contents` to a fresh temp file and returns its path.
    pub fn write_temp(tag: &str, contents: &str) -> String {
        let path = temp_path(tag);
        std::fs::write(&path, contents).expect("temp file writes");
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_commands() {
        let mut buffer = Vec::new();
        dispatch(&["help".to_string()], &mut buffer).unwrap();
        assert!(String::from_utf8(buffer).unwrap().contains("COMMANDS"));

        let err = dispatch(&["frobnicate".to_string()], &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        assert!(dispatch(&[], &mut Vec::new()).is_err());
    }

    #[test]
    fn full_flow_through_dispatch() {
        // asm -> compress -> inspect -> simulate, all through the public
        // entry point, sharing temp files.
        let src = test_util::write_temp(
            "flow.s",
            "main: li $t0, 500\nloop: addiu $t0, $t0, -1\n bnez $t0, loop\n li $v0, 10\n syscall\n",
        );
        let container = test_util::temp_path("flow.ccrp");

        let mut buffer = Vec::new();
        dispatch(
            &[
                "compress".into(),
                src.clone(),
                "--out".into(),
                container.clone(),
                "--code".into(),
                "self".into(),
            ],
            &mut buffer,
        )
        .unwrap();
        dispatch(&["inspect".into(), container.clone()], &mut buffer).unwrap();
        dispatch(
            &[
                "simulate".into(),
                src.clone(),
                "--memory".into(),
                "eprom".into(),
                "--code".into(),
                "self".into(),
            ],
            &mut buffer,
        )
        .unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("LAT:"));
        assert!(text.contains("rel. perf"));
        std::fs::remove_file(src).ok();
        std::fs::remove_file(container).ok();
    }
}
