//! The paper's quantitative claims, checked against the reproduction's
//! own measurements (the per-table details live in `ccrp-bench`'s module
//! tests; these are the cross-cutting statements of §1, §4.3, and §5).

use ccrp::CompressedImage;
use ccrp_compress::{block, BlockAlignment, ByteCode, ByteHistogram};
use ccrp_sim::{MemoryModel, Simulation, SystemConfig};
use ccrp_workloads::{figure5_corpus, preselected_code, TracedWorkload};

/// §1: "Experimental simulations show that a significant degree of
/// compression can be achieved from a fixed encoding scheme."
#[test]
fn fixed_code_compresses_the_whole_corpus() {
    let code = preselected_code();
    let mut total_original = 0usize;
    let mut total_compressed = 0usize;
    for program in figure5_corpus() {
        total_original += program.text.len();
        total_compressed += block::stored_size(code, &program.text, BlockAlignment::Byte);
    }
    let ratio = total_compressed as f64 / total_original as f64;
    assert!(
        ratio < 0.80,
        "corpus ratio {ratio:.3} not a significant compression"
    );
    assert!(
        ratio > 0.55,
        "corpus ratio {ratio:.3} implausibly strong for byte Huffman"
    );
}

/// §2.2: the worst-case traditional Huffman symbol can be very long,
/// while the bounded code never exceeds 16 bits — the property that
/// makes the decoder hardware practical.
#[test]
fn bounded_code_caps_symbol_length() {
    // A Fibonacci-weighted histogram drives traditional Huffman deep
    // (30 symbols -> 29-bit worst case, still representable in the
    // canonical table; the paper quotes up to 255 bits for a full
    // alphabet).
    let mut h = ByteHistogram::new();
    let (mut a, mut b) = (1u64, 1u64);
    for sym in 0..30u8 {
        for _ in 0..a {
            h.update(&[sym]);
        }
        let next = a + b;
        a = b;
        b = next;
    }
    let traditional = ByteCode::traditional(&h).expect("builds");
    let bounded = ByteCode::bounded(&h).expect("builds");
    assert!(traditional.max_length() > 16);
    assert!(bounded.max_length() <= 16);
}

/// §4.3: "Given a slow memory model like the EPROM model, performance
/// almost always is improved by using compressed code. Using a faster
/// memory model, performance typically suffers only slightly. In most
/// cases the execution time increases by less than ten percent."
#[test]
fn section_4_3_conclusions() {
    let code = preselected_code().clone();
    let mut eprom_wins = 0;
    let mut eprom_total = 0;
    let mut burst_under_10pct = 0;
    let mut burst_total = 0;
    for wl in [
        TracedWorkload::Matrix25A,
        TracedWorkload::Nasa1,
        TracedWorkload::Lloop01,
    ] {
        let w = wl.build().expect("builds");
        let image = CompressedImage::build(0, &w.text, code.clone(), BlockAlignment::Word)
            .expect("compresses");
        for cache_bytes in [256u32, 1024, 4096] {
            for memory in [MemoryModel::Eprom, MemoryModel::BurstEprom] {
                let config = SystemConfig::new()
                    .with_cache_bytes(cache_bytes)
                    .with_memory(memory);
                let rel = Simulation::new(config)
                    .compare(&image, w.trace.iter())
                    .expect("simulates")
                    .relative_execution_time();
                match memory {
                    MemoryModel::Eprom => {
                        eprom_total += 1;
                        if rel <= 1.0 {
                            eprom_wins += 1;
                        }
                    }
                    _ => {
                        burst_total += 1;
                        if rel < 1.10 {
                            burst_under_10pct += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        eprom_wins, eprom_total,
        "EPROM must (almost) always improve"
    );
    assert_eq!(
        burst_under_10pct, burst_total,
        "fast-memory slowdown must stay under ten percent for these programs"
    );
}

/// §4.3: "the memory to instruction cache traffic is significantly
/// reduced in all cases."
#[test]
fn traffic_reduced_in_all_cases() {
    let code = preselected_code().clone();
    for wl in TracedWorkload::ALL {
        let w = wl.build().expect("builds");
        let image = CompressedImage::build(0, &w.text, code.clone(), BlockAlignment::Word)
            .expect("compresses");
        for cache_bytes in [256u32, 4096] {
            let config = SystemConfig::new()
                .with_cache_bytes(cache_bytes)
                .with_memory(MemoryModel::BurstEprom);
            let traffic = Simulation::new(config)
                .compare(&image, w.trace.iter())
                .expect("simulates")
                .memory_traffic_ratio();
            assert!(
                traffic < 1.0,
                "{} at {cache_bytes}B: traffic {traffic:.3}",
                w.name
            );
        }
    }
}

/// §3.2: the LAT overhead the paper quotes — "approximately 3% of
/// original program size" — holds for every workload image.
#[test]
fn lat_overhead_is_three_percent() {
    let code = preselected_code().clone();
    for wl in TracedWorkload::ALL {
        let w = wl.build().expect("builds");
        let image = CompressedImage::build(0, &w.text, code.clone(), BlockAlignment::Word)
            .expect("compresses");
        let overhead = f64::from(image.lat().storage_bytes()) / f64::from(image.original_bytes());
        assert!(
            (overhead - 0.03125).abs() < 0.002,
            "{}: LAT overhead {overhead:.4}",
            w.name
        );
    }
}
