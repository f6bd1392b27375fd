//! Figure 5: "Four Compression Methods" — static compressed size of the
//! ten-program corpus under Unix-compress-style LZW, Traditional
//! Huffman, Bounded Huffman, and the Preselected Bounded Huffman code.
//!
//! As §2.2 specifies, the Huffman methods compress 32-byte blocks
//! (byte-aligned, with the original-encoding bypass) and per-program
//! codes carry their code table; the preselected code's table is
//! hardwired and costs nothing.

use ccrp_compress::{block, lzw, BlockAlignment, ByteCode, ByteHistogram};
use ccrp_workloads::{preselected_code, CorpusProgram};

/// One bar group of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Program name.
    pub name: &'static str,
    /// Original program bytes.
    pub original_bytes: usize,
    /// Unix-compress (LZW) size, percent of original.
    pub compress_pct: f64,
    /// Traditional Huffman blocks + code table, percent.
    pub traditional_pct: f64,
    /// Bounded (≤16-bit) Huffman blocks + code table, percent.
    pub bounded_pct: f64,
    /// Preselected Bounded Huffman blocks (hardwired table), percent.
    pub preselected_pct: f64,
}

fn block_pct(code: &ByteCode, text: &[u8], table_bytes: u32) -> f64 {
    let total = block::stored_size(code, text, BlockAlignment::Byte) + table_bytes as usize;
    total as f64 / text.len() as f64 * 100.0
}

/// Computes one program's Figure 5 bar group — the unit of work the
/// parallel sweep runner distributes.
///
/// # Panics
///
/// Panics if a per-program code cannot be built (impossible for
/// non-empty programs).
pub fn figure5_row(program: &CorpusProgram) -> Fig5Row {
    let hist = ByteHistogram::of(&program.text);
    let traditional = ByteCode::traditional(&hist).expect("non-empty program");
    let bounded = ByteCode::bounded(&hist).expect("non-empty program");
    Fig5Row {
        name: program.name,
        original_bytes: program.text.len(),
        compress_pct: lzw::compress(&program.text).len() as f64 / program.text.len() as f64 * 100.0,
        traditional_pct: block_pct(
            &traditional,
            &program.text,
            traditional.table_storage_bytes(),
        ),
        bounded_pct: block_pct(&bounded, &program.text, bounded.table_storage_bytes()),
        preselected_pct: block_pct(preselected_code(), &program.text, 0),
    }
}

/// The "Weighted Averages" bar group: sizes weighted by original bytes.
pub fn weighted_average(rows: &[Fig5Row]) -> Fig5Row {
    let total: f64 = rows.iter().map(|r| r.original_bytes as f64).sum();
    let avg = |f: fn(&Fig5Row) -> f64| {
        rows.iter()
            .map(|r| f(r) * r.original_bytes as f64)
            .sum::<f64>()
            / total
    };
    Fig5Row {
        name: "Weighted Averages",
        original_bytes: total as usize,
        compress_pct: avg(|r| r.compress_pct),
        traditional_pct: avg(|r| r.traditional_pct),
        bounded_pct: avg(|r| r.bounded_pct),
        preselected_pct: avg(|r| r.preselected_pct),
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run, Experiment, ExperimentResults, SweepOptions};

    #[test]
    fn figure5_reproduces_paper_structure() {
        let ExperimentResults::Fig5 {
            rows,
            weighted: avg,
        } = run(Experiment::Fig5, &SweepOptions::default()).results
        else {
            unreachable!("a Figure 5 sweep folds into Figure 5 rows");
        };
        assert_eq!(rows.len(), 10);
        // The paper's ordering: compress < traditional <= bounded <=
        // preselected, all well under 100%.
        assert!(avg.compress_pct < avg.traditional_pct);
        assert!(avg.traditional_pct <= avg.bounded_pct + 1e-9);
        assert!(avg.bounded_pct <= avg.preselected_pct + 1e-9);
        assert!(
            avg.preselected_pct < 85.0,
            "preselected {:.1}%",
            avg.preselected_pct
        );
        assert!(avg.compress_pct > 50.0, "lzw implausibly strong");
        // Every method shrinks every program (the bypass guarantees the
        // Huffman methods never exceed original + table).
        for r in &rows {
            assert!(r.preselected_pct < 100.0, "{}", r.name);
            assert!(r.bounded_pct < 100.0, "{}", r.name);
        }
    }

    #[test]
    fn lzw_streams_of_the_corpus_are_pinned() {
        // Length and CRC-32 of each program's `lzw::compress` stream, as
        // the reference `HashMap` dictionary (kept as the oracle in
        // `lzw`'s tests) produces it: the open-addressed dictionary
        // must emit the same bytes, not just the same sizes.
        const STREAMS: [(&str, usize, u32); 10] = [
            ("lex", 32618, 0x15fe_88d1),
            ("pswarp", 36029, 0x43d4_8edc),
            ("yacc", 30396, 0x4d18_b192),
            ("who", 39917, 0x6e17_ca85),
            ("eightq", 2836, 0xb510_43e7),
            ("matrix25A", 21164, 0xe033_4c43),
            ("lloopO1", 2512, 0x84e5_ee83),
            ("xlisp", 40077, 0x2634_eb83),
            ("espresso", 100688, 0x5b82_e979),
            ("spim", 85956, 0x428f_1602),
        ];
        let corpus = ccrp_workloads::figure5_corpus();
        assert_eq!(corpus.len(), STREAMS.len());
        for (program, (name, len, crc)) in corpus.iter().zip(STREAMS) {
            assert_eq!(program.name, name);
            let packed = ccrp_compress::lzw::compress(&program.text);
            assert_eq!((packed.len(), ccrp::crc32(&packed)), (len, crc), "{name}");
        }
    }
}
