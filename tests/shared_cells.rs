//! The codec and ISA matrices recompute cells Figure 9 already has. At
//! their 1 KB cache, the byte-huffman cells of the codec matrix and the
//! mips-ccrp cells of the ISA matrix simulate Figure 9's configuration
//! on the same workloads, so each must equal Figure 9's 1 KB point value
//! for value. `tests/observability.rs` pins each of the three committed
//! files to the code; this test pins the 48 shared cells to each other,
//! so it needs no sweep.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ccrp_bench::json::Json;

fn load(path: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing `{key}` in {}", value.to_compact()))
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {}", other.to_compact()),
    }
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("expected a string, got {}", other.to_compact()),
    }
}

#[test]
fn matrix_cells_equal_figure9_1kb_points() {
    let fig9 = load("BENCH_fig9.json");
    // (workload, memory) → the four compared values, from Figure 9's
    // results row and its cell's CCRP refill cycles.
    let mut points = BTreeMap::new();
    for (result, cell) in items(field(&fig9, "results"))
        .iter()
        .zip(items(field(&fig9, "cells")))
    {
        let point = field(result, "point");
        if field(point, "cache_bytes") != &Json::U64(1024) {
            continue;
        }
        let workload = text(field(result, "workload"));
        let memory = text(field(point, "memory"));
        assert_eq!(
            text(field(cell, "label")),
            format!("{workload}/{memory}/1024B/clb16"),
            "results and cells out of step"
        );
        let values = [
            field(point, "relative_performance"),
            field(point, "miss_rate"),
            field(point, "memory_traffic"),
            field(field(cell, "ccrp"), "refill_cycles"),
        ];
        points.insert((workload.to_string(), memory.to_string()), values);
    }
    assert_eq!(points.len(), 24, "8 workloads × 3 memory models");

    for (path, key, name) in [
        ("BENCH_codecs.json", "codec", "byte-huffman"),
        ("BENCH_isa_compare.json", "variant", "mips-ccrp"),
    ] {
        let matrix = load(path);
        assert_eq!(field(&matrix, "cache_bytes"), &Json::U64(1024), "{path}");
        let mut shared = 0;
        for cell in items(field(&matrix, "cells")) {
            if text(field(cell, key)) != name {
                continue;
            }
            let workload = text(field(cell, "workload"));
            let memory = text(field(cell, "memory"));
            let values = [
                field(cell, "relative_performance"),
                field(cell, "miss_rate"),
                field(cell, "memory_traffic"),
                field(cell, "refill_cycles"),
            ];
            assert_eq!(
                Some(&values),
                points.get(&(workload.to_string(), memory.to_string())),
                "{path}: {name} {workload}/{memory}"
            );
            shared += 1;
        }
        assert_eq!(shared, 24, "{path}");
    }
}
