//! The ten-program static corpus of Figure 5, at the paper's exact
//! object-code sizes, and the Preselected Bounded Huffman code trained
//! on it.

use std::sync::OnceLock;

use ccrp_compress::{ByteCode, ByteHistogram, PositionalCode, PositionalHistogram};

use crate::codegen::{generate_text, CodeProfile};
use crate::workload::TracedWorkload;

/// One Figure-5 program: name, the paper's byte size, and our text.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Program name as printed under Figure 5.
    pub name: &'static str,
    /// The object-code size the paper reports.
    pub paper_bytes: u32,
    /// Synthesized (or kernel-derived) text of exactly that size,
    /// rounded up to a whole word.
    pub text: Vec<u8>,
}

/// The ten Figure-5 programs: lex, pswarp, yacc, who, eightq,
/// matrix25A, lloopO1, xlisp, espresso, spim — built once and cached,
/// like the [`preselected_code`] trained on them.
///
/// Four of them (eightq, matrix25A, lloopO1, espresso) reuse the traced
/// kernels' padded text so the compression and performance experiments
/// see the same bytes; the rest are synthesized with fitting profiles.
///
/// # Panics
///
/// Panics if a kernel fails to assemble — a bug in this crate, not a
/// data condition.
pub fn figure5_corpus() -> &'static [CorpusProgram] {
    static CORPUS: OnceLock<Vec<CorpusProgram>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<CorpusProgram> {
    let kernel_text = |w: TracedWorkload| {
        w.kernel()
            .map(|kernel| kernel.text.clone())
            .unwrap_or_else(|e| panic!("{} kernel must build: {e}", w.name()))
    };
    let synth = |profile: CodeProfile, bytes: u32, seed: u64| {
        generate_text(&profile, (bytes as usize).div_ceil(4) * 4, seed)
    };
    vec![
        CorpusProgram {
            name: "lex",
            paper_bytes: 53172,
            text: synth(CodeProfile::integer(), 53172, 0x1E0),
        },
        CorpusProgram {
            name: "pswarp",
            paper_bytes: 61364,
            text: synth(CodeProfile::floating(), 61364, 0x1E1),
        },
        CorpusProgram {
            name: "yacc",
            paper_bytes: 49076,
            text: synth(CodeProfile::integer(), 49076, 0x1E2),
        },
        CorpusProgram {
            name: "who",
            paper_bytes: 65940,
            text: synth(CodeProfile::integer(), 65940, 0x1E3),
        },
        CorpusProgram {
            name: "eightq",
            paper_bytes: 4020,
            text: kernel_text(TracedWorkload::Eightq),
        },
        CorpusProgram {
            name: "matrix25A",
            paper_bytes: 36766,
            text: kernel_text(TracedWorkload::Matrix25A),
        },
        CorpusProgram {
            name: "lloopO1",
            paper_bytes: 4020,
            text: kernel_text(TracedWorkload::Lloop01),
        },
        CorpusProgram {
            name: "xlisp",
            paper_bytes: 65940,
            text: synth(CodeProfile::integer(), 65940, 0x1E7),
        },
        CorpusProgram {
            name: "espresso",
            paper_bytes: 176052,
            text: kernel_text(TracedWorkload::Espresso),
        },
        CorpusProgram {
            name: "spim",
            paper_bytes: 147360,
            text: synth(CodeProfile::integer(), 147360, 0x1E9),
        },
    ]
}

/// The pooled byte histogram of the whole corpus — the input to the
/// preselected code, exactly as §2.2 constructs it ("A byte frequency
/// histogram was constructed based on all ten of the programs").
pub fn corpus_histogram() -> ByteHistogram {
    let mut h = ByteHistogram::new();
    for program in figure5_corpus() {
        h.update(&program.text);
    }
    h
}

/// The Preselected Bounded Huffman code used by every simulation in the
/// paper's §4 — built once from the corpus and cached (it is the
/// "hardwired" decoder).
pub fn preselected_code() -> &'static ByteCode {
    static CODE: OnceLock<ByteCode> = OnceLock::new();
    CODE.get_or_init(|| {
        ByteCode::preselected(&corpus_histogram()).expect("corpus histogram is non-empty")
    })
}

/// The pooled per-byte-position histograms of the whole corpus — the
/// positional analogue of [`corpus_histogram`], for the §5 extension
/// that trains one code per byte offset within the instruction word.
pub fn corpus_positional_histogram() -> PositionalHistogram {
    let mut h = PositionalHistogram::new();
    for program in figure5_corpus() {
        h.update(&program.text);
    }
    h
}

/// The corpus-trained Preselected Positional code (§5's "more
/// sophisticated encoding techniques") — built once and cached, like
/// [`preselected_code`].
pub fn preselected_positional_code() -> &'static PositionalCode {
    static CODE: OnceLock<PositionalCode> = OnceLock::new();
    CODE.get_or_init(|| {
        PositionalCode::preselected(&corpus_positional_histogram())
            .expect("corpus histogram is non-empty")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_matches_paper_sizes() {
        let corpus = figure5_corpus();
        assert_eq!(corpus.len(), 10);
        let total: u32 = corpus.iter().map(|p| p.paper_bytes).sum();
        // Figure 5 prints 703752 under "Weighted Averages", but the ten
        // per-program sizes legible in the scan sum to 663710 — at least
        // one size is garbled in the source. We carry the legible
        // per-program numbers.
        assert_eq!(total, 663_710);
        for p in corpus {
            let rounded = (p.paper_bytes as usize).div_ceil(4) * 4;
            // Kernel-derived entries may slightly exceed the paper size
            // when the kernel itself is larger; synthesized entries match
            // exactly.
            assert!(p.text.len() >= rounded, "{}", p.name);
            assert!(p.text.len() <= rounded.max(12 * 1024), "{}", p.name);
        }
    }

    #[test]
    fn cached_corpus_equals_a_fresh_build() {
        let fresh = build_corpus();
        assert_eq!(fresh.len(), figure5_corpus().len());
        for (a, b) in fresh.iter().zip(figure5_corpus()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.paper_bytes, b.paper_bytes);
            assert_eq!(a.text, b.text, "{}", a.name);
        }
    }

    #[test]
    fn preselected_code_is_complete_and_bounded() {
        let code = preselected_code();
        assert!(code.is_complete_alphabet());
        assert!(code.max_length() <= 16);
        // Zero (nop / low immediate bytes) must be the shortest code —
        // it dominates R2000 text.
        let zero_len = code.length_of(0);
        assert!(zero_len <= 4, "zero coded in {zero_len} bits");
    }

    #[test]
    fn corpus_compresses_like_code() {
        // Every corpus program must compress under the preselected code
        // (Figure 5 shows 61%–95% of original size).
        let code = preselected_code();
        for p in figure5_corpus() {
            let ratio = code.encoded_bits(&p.text) as f64 / (p.text.len() as f64 * 8.0);
            assert!(ratio < 1.0, "{} ratio {ratio}", p.name);
            assert!(ratio > 0.4, "{} implausibly compressible: {ratio}", p.name);
        }
    }
}
