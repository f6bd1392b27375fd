//! Reproducibility: everything in this repository is deterministic —
//! same inputs, same bytes, same traces, same tables. The calibrated
//! numbers in EXPERIMENTS.md depend on it.

use ccrp_compress::BlockAlignment;
use ccrp_workloads::{
    corpus_histogram, figure5_corpus, generate_text, preselected_code, CodeProfile, TracedWorkload,
};

#[test]
fn codegen_is_stable_across_calls() {
    let a = generate_text(&CodeProfile::floating(), 16 * 1024, 99);
    let b = generate_text(&CodeProfile::floating(), 16 * 1024, 99);
    assert_eq!(a, b);
}

#[test]
fn corpus_and_code_are_stable() {
    let first = figure5_corpus();
    let second = figure5_corpus();
    for (a, b) in first.iter().zip(second) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.text, b.text, "{}", a.name);
    }
    let h1 = corpus_histogram();
    let h2 = corpus_histogram();
    assert_eq!(h1.counts(), h2.counts());
    // The preselected code's length table is therefore fixed.
    let lengths = *preselected_code().lengths();
    assert_eq!(lengths, *preselected_code().lengths());
}

#[test]
fn workload_builds_are_bit_identical() {
    for wl in [TracedWorkload::Eightq, TracedWorkload::Fpppp] {
        let a = wl.build().expect("builds");
        let b = wl.build().expect("builds");
        assert_eq!(a.image.text_bytes(), b.image.text_bytes(), "{}", a.name);
        assert_eq!(a.text, b.text, "{}", a.name);
        assert_eq!(a.trace, b.trace, "{}: traces must be identical", a.name);
    }
}

#[test]
fn compressed_images_are_bit_identical() {
    let w = TracedWorkload::Lloop01.build().expect("builds");
    let code = preselected_code().clone();
    let a = ccrp::CompressedImage::build(0, &w.text, code.clone(), BlockAlignment::Word)
        .expect("builds");
    let b = ccrp::CompressedImage::build(0, &w.text, code, BlockAlignment::Word).expect("builds");
    assert_eq!(a.to_bytes(), b.to_bytes());
}
