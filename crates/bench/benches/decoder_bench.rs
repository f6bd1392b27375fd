//! Host-side decoder throughput: the whole-line table decode
//! ([`block::decompress_line_into`], the expansion the refill engine
//! runs) against the canonical bit-walk reference
//! ([`ByteCode::decode_symbol_reference`], one walk per output byte),
//! expanding the compressed cache lines of the Tables 1–8 workload
//! corpus.
//!
//! Like `micro.rs`, this is a std-only harness (no crates.io access for
//! an external framework): median lines/sec over timed batches after a
//! warmup pass. Results are written as `BENCH_decoder.json` via the
//! suite's deterministic JSON writer (the *numbers* are host-dependent;
//! the schema is not), which `ci/bench_gate.sh` reads to enforce the
//! ≥2× fast-path speedup.
//!
//! Usage: `cargo bench -p ccrp-bench --bench decoder_bench --
//! [--out PATH]` (default `BENCH_decoder.json` in the current
//! directory).

use std::time::Instant;

use ccrp_bench::json::Json;
use ccrp_bitstream::BitReader;
use ccrp_compress::{block, BlockAlignment, ByteCode, LINE_SIZE, LOOKUP_BITS};
use ccrp_workloads::{preselected_code, TracedWorkload};

/// One workload's compressed blocks, split so the decoder measurements
/// cover exactly the lines that exercise the decoder (bypassed lines
/// are raw copies on both paths and would only dilute the comparison).
struct CorpusEntry {
    name: &'static str,
    compressed: Vec<Vec<u8>>,
    bypass_lines: usize,
}

fn build_corpus(code: &ByteCode) -> Vec<CorpusEntry> {
    TracedWorkload::ALL
        .iter()
        .map(|workload| {
            let mut text = workload
                .padded_text()
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            // Zero pad a partial last line, as the image build does.
            text.resize(text.len().next_multiple_of(LINE_SIZE), 0);
            let mut compressed = Vec::new();
            for line in text.chunks_exact(LINE_SIZE) {
                let mut stored = Vec::new();
                if !block::compress_line_into(code, line, BlockAlignment::Word, &mut stored) {
                    compressed.push(stored);
                }
            }
            CorpusEntry {
                name: workload.name(),
                bypass_lines: text.len() / LINE_SIZE - compressed.len(),
                compressed,
            }
        })
        .collect()
}

/// Expands every compressed line of the corpus once through `expand`,
/// returning a checksum so the work cannot be optimized away.
fn expand_corpus(
    corpus: &[CorpusEntry],
    mut expand: impl FnMut(&[u8], &mut [u8; LINE_SIZE]),
) -> (u64, u64) {
    let mut lines = 0u64;
    let mut checksum = 0u64;
    let mut out = [0u8; LINE_SIZE];
    for entry in corpus {
        for line in &entry.compressed {
            expand(line, &mut out);
            lines += 1;
            checksum = checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(out[0]) | u64::from(out[LINE_SIZE - 1]) << 8);
        }
    }
    (lines, checksum)
}

/// Median seconds per full-corpus expansion over `batches` timed passes
/// (after one warmup pass), plus the total line count.
fn measure(
    corpus: &[CorpusEntry],
    mut expand: impl FnMut(&[u8], &mut [u8; LINE_SIZE]),
) -> (u64, f64) {
    const BATCHES: usize = 9;
    let (lines, warm_checksum) = expand_corpus(corpus, &mut expand);
    let mut seconds: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let (_, checksum) = expand_corpus(corpus, &mut expand);
            assert_eq!(checksum, warm_checksum, "expansion must be deterministic");
            start.elapsed().as_secs_f64()
        })
        .collect();
    seconds.sort_by(|a, b| a.total_cmp(b));
    (lines, seconds[BATCHES / 2])
}

fn side_json(lines: u64, seconds: f64) -> Json {
    let lines_per_sec = lines as f64 / seconds;
    Json::obj([
        ("lines_per_sec", Json::F64(lines_per_sec)),
        ("ns_per_line", Json::F64(seconds * 1e9 / lines as f64)),
    ])
}

fn main() {
    let mut out_path = String::from("BENCH_decoder.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            // `cargo bench` passes --bench through to the target.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    let code = preselected_code().clone();
    let corpus = build_corpus(&code);

    let (lines, bitwalk_s) = measure(&corpus, |stored, out| {
        let mut reader = BitReader::new(stored);
        for slot in out.iter_mut() {
            *slot = code
                .decode_symbol_reference(&mut reader)
                .expect("corpus lines decode");
        }
    });
    let (table_lines, table_s) = measure(&corpus, |stored, out| {
        block::decompress_line_into(&code, stored, false, out).expect("corpus lines decode");
    });
    assert_eq!(lines, table_lines);
    let speedup = bitwalk_s / table_s;

    let corpus_json = Json::Arr(
        corpus
            .iter()
            .map(|entry| {
                Json::obj([
                    ("name", Json::str(entry.name)),
                    ("compressed_lines", Json::U64(entry.compressed.len() as u64)),
                    ("bypass_lines", Json::U64(entry.bypass_lines as u64)),
                ])
            })
            .collect(),
    );
    let report = Json::obj([
        ("schema", Json::str("ccrp-bench-decoder/1")),
        ("lookup_bits", Json::U64(u64::from(LOOKUP_BITS))),
        (
            "fast_fraction",
            Json::F64(code.decode_table().fast_fraction()),
        ),
        ("corpus", corpus_json),
        ("lines", Json::U64(lines)),
        ("bitwalk", side_json(lines, bitwalk_s)),
        ("table", side_json(lines, table_s)),
        ("speedup", Json::F64(speedup)),
    ]);
    std::fs::write(&out_path, report.to_pretty()).expect("write results file");

    println!(
        "decoder_bench: {lines} lines  bit-walk {:>10.1} lines/s  table {:>10.1} lines/s  speedup {speedup:.2}x",
        lines as f64 / bitwalk_s,
        lines as f64 / table_s,
    );
    println!("-> {out_path}");
}
