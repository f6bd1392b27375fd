//! `ccrp-tools simulate <input.s> [--cache N] [--memory
//! eprom|burst|dram|all] [--clb N] [--dcache-miss PCT] [--code
//! preselected|self] [--sweep]`
//!
//! Assembles a program, captures its trace, compresses it, and compares
//! the standard processor against the CCRP — one row (or a cache sweep)
//! of the paper's tables for *your* program.

use std::io::Write;

use ccrp::CompressedImage;
use ccrp_bench::json::Json;
use ccrp_bench::ToJson;
use ccrp_compress::{ByteCode, ByteHistogram};
use ccrp_emu::{Machine, ProgramTrace};
use ccrp_sim::{DataCacheModel, MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::preselected_code;

use crate::args::Args;
use crate::error::{read_text, CliError};

/// Option names consuming a value.
pub const VALUE_OPTIONS: &[&str] = &["cache", "memory", "clb", "dcache-miss", "code", "alignment"];
/// Switch names.
pub const SWITCHES: &[&str] = &["sweep"];

fn memories(args: &Args) -> Result<Vec<MemoryModel>, CliError> {
    Ok(match args.option("memory").unwrap_or("all") {
        "eprom" => vec![MemoryModel::Eprom],
        "burst" => vec![MemoryModel::BurstEprom],
        "dram" => vec![MemoryModel::ScDram],
        "all" => MemoryModel::ALL.to_vec(),
        other => {
            return Err(CliError::Usage(format!(
                "--memory: `{other}` is not eprom|burst|dram|all"
            )))
        }
    })
}

/// Assembles `input`, executes it for a trace, and compresses its text
/// per the shared `--code`/`--alignment` options. Used by `simulate`
/// and `trace`.
pub(crate) fn prepare(
    args: &Args,
    input: &str,
) -> Result<(CompressedImage, ProgramTrace), CliError> {
    let source = read_text(input)?;
    let image = ccrp_asm::assemble(&source)?;
    let mut machine = Machine::new(&image);
    let mut trace = ProgramTrace::new();
    machine.run(&mut trace)?;

    let alignment = super::compress::parse_alignment(args)?;
    let code = match args.option("code").unwrap_or("preselected") {
        "preselected" => preselected_code().clone(),
        "self" => ByteCode::bounded(&ByteHistogram::of(image.text_bytes()))
            .map_err(ccrp::CcrpError::from)?,
        other => {
            return Err(CliError::Usage(format!(
                "--code: `{other}` is not preselected|self"
            )))
        }
    };
    let compressed = CompressedImage::build(0, image.text_bytes(), code, alignment)?;
    Ok((compressed, trace))
}

/// Builds the system configuration from the simulation options shared
/// by `simulate` and `trace`.
pub(crate) fn system_config(
    args: &Args,
    memory: MemoryModel,
    cache_bytes: u32,
) -> Result<SystemConfig, CliError> {
    let dcache_pct = args.option_u32("dcache-miss", 100)?;
    if dcache_pct > 100 {
        return Err(CliError::Usage("--dcache-miss: percent above 100".into()));
    }
    Ok(SystemConfig::new()
        .with_cache_bytes(cache_bytes)
        .with_memory(memory)
        .with_clb_entries(args.option_u32("clb", 16)? as usize)
        .with_dcache(DataCacheModel::with_miss_rate(
            f64::from(dcache_pct) / 100.0,
        )))
}

/// Runs the subcommand.
///
/// # Errors
///
/// Usage, I/O, assembly, runtime, or simulation errors.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input assembly file")?;
    let (compressed, trace) = prepare(args, input)?;

    let caches: Vec<u32> = if args.switch("sweep") {
        vec![256, 512, 1024, 2048, 4096]
    } else {
        vec![args.option_u32("cache", 1024)?]
    };

    let mut rows = Vec::new();
    for memory in memories(args)? {
        for &cache_bytes in &caches {
            let config = system_config(args, memory, cache_bytes)?;
            let result = Simulation::new(config).compare(&compressed, trace.iter())?;
            rows.push((memory, cache_bytes, result));
        }
    }

    if args.json() {
        let json = Json::obj([
            ("schema", Json::str("ccrp-simulate/1")),
            ("instructions", Json::U64(trace.len() as u64)),
            (
                "stored_pct",
                Json::F64(compressed.compression_ratio() * 100.0),
            ),
            (
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|(memory, cache_bytes, result)| {
                            Json::obj([
                                ("memory", Json::str(memory.name())),
                                ("cache_bytes", Json::U64(u64::from(*cache_bytes))),
                                (
                                    "relative_performance",
                                    Json::F64(result.relative_execution_time()),
                                ),
                                ("miss_rate", Json::F64(result.miss_rate())),
                                ("memory_traffic", Json::F64(result.memory_traffic_ratio())),
                                ("standard", result.standard.to_json()),
                                ("ccrp", result.ccrp.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        write!(out, "{}", json.to_pretty()).ok();
        return Ok(());
    }

    writeln!(
        out,
        "{input}: {} dynamic instructions, stored {:.1}% of original",
        trace.len(),
        compressed.compression_ratio() * 100.0
    )
    .ok();
    writeln!(
        out,
        "{:>12} {:>7} {:>10} {:>10} {:>9}",
        "memory", "cache", "rel. perf", "miss rate", "traffic"
    )
    .ok();
    for (memory, cache_bytes, result) in &rows {
        writeln!(
            out,
            "{:>12} {:>6}B {:>10.3} {:>9.2}% {:>8.1}%",
            memory.name(),
            cache_bytes,
            result.relative_execution_time(),
            result.miss_rate() * 100.0,
            result.memory_traffic_ratio() * 100.0
        )
        .ok();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::write_temp;

    fn looped_source() -> String {
        "main: li $t0, 2000\nloop: addiu $t0, $t0, -1\n bnez $t0, loop\n li $v0, 10\n syscall\n"
            .to_string()
    }

    #[test]
    fn simulates_single_config() {
        let src = write_temp("sim_in.s", &looped_source());
        let args = Args::parse(
            &[
                src.clone(),
                "--memory".into(),
                "eprom".into(),
                "--cache".into(),
                "256".into(),
            ],
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("EPROM"));
        assert!(text.contains("256B"));
        std::fs::remove_file(src).ok();
    }

    #[test]
    fn sweep_prints_all_sizes() {
        let src = write_temp("sim_sweep.s", &looped_source());
        let args = Args::parse(
            &[
                src.clone(),
                "--sweep".into(),
                "--memory".into(),
                "burst".into(),
                "--code".into(),
                "self".into(),
            ],
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        let mut buffer = Vec::new();
        run(&args, &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        for cache in ["256B", "512B", "1024B", "2048B", "4096B"] {
            assert!(text.contains(cache), "{cache} missing");
        }
        std::fs::remove_file(src).ok();
    }

    #[test]
    fn huge_clb_simulates_like_one_that_never_fills() {
        // The CLB grows with the LAT entries it is given, so a capacity
        // of four billion neither allocates up front nor changes a row
        // whose program fits in 16 entries.
        let src = write_temp("sim_clb.s", &looped_source());
        let output = |clb: &str| {
            let args = Args::parse(
                &[
                    src.clone(),
                    "--memory".into(),
                    "eprom".into(),
                    "--clb".into(),
                    clb.into(),
                ],
                VALUE_OPTIONS,
                SWITCHES,
            )
            .unwrap();
            let mut buffer = Vec::new();
            run(&args, &mut buffer).unwrap();
            String::from_utf8(buffer).unwrap()
        };
        assert_eq!(output("4000000000"), output("16"));
        std::fs::remove_file(src).ok();
    }

    #[test]
    fn rejects_bad_memory_and_dcache() {
        let src = write_temp("sim_bad.s", &looped_source());
        let args = Args::parse(
            &[src.clone(), "--memory".into(), "tape".into()],
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        let args = Args::parse(
            &[src.clone(), "--dcache-miss".into(), "150".into()],
            VALUE_OPTIONS,
            SWITCHES,
        )
        .unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
        std::fs::remove_file(src).ok();
    }
}
