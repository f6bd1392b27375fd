//! The results-file oracle: two `BENCH_*.json` documents agree when
//! everything but their host-dependent `jobs` and `timing` sections
//! serializes identically, the rule `ci/bench_gate.sh` applies.

use std::path::Path;

use ccrp_bench::json::Json;

/// Reads a results file and drops its host-dependent sections.
///
/// # Errors
///
/// Describes an unreadable or unparsable file.
pub fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    deterministic(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a results document and drops its `jobs` and `timing` sections.
///
/// # Errors
///
/// The parse error.
pub fn deterministic(text: &str) -> Result<Json, String> {
    let mut doc = Json::parse(text).map_err(|e| e.to_string())?;
    doc.remove("jobs");
    doc.remove("timing");
    Ok(doc)
}

/// The top-level sections in which `actual` differs from `expected`
/// (including sections only one of them has), in sorted order.
pub fn differing_sections(expected: &Json, actual: &Json) -> Vec<String> {
    let (Json::Obj(a), Json::Obj(b)) = (expected, actual) else {
        return if expected.to_compact() == actual.to_compact() {
            Vec::new()
        } else {
            vec!["(document)".to_string()]
        };
    };
    let mut keys: Vec<&String> = a.iter().chain(b).map(|(key, _)| key).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|key| {
            expected.get(key).map(Json::to_compact) != actual.get(key).map(Json::to_compact)
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = r#"{
      "schema": "ccrp-bench-sweep/1",
      "experiment": "tables1_8",
      "results": [{"workload": "eightq", "rows": [{"relative_performance": 0.976}]}],
      "cells": [{"label": "eightq/EPROM/256B/clb16", "ccrp": {"misses": 17050}}],
      "jobs": 4,
      "timing": {"total_wall_us": 352000}
    }"#;

    #[test]
    fn host_sections_are_ignored() {
        let fresh = COMMITTED
            .replace("\"jobs\": 4", "\"jobs\": 2")
            .replace("352000", "1");
        let expected = deterministic(COMMITTED).unwrap();
        let actual = deterministic(&fresh).unwrap();
        assert!(differing_sections(&expected, &actual).is_empty());
    }

    #[test]
    fn a_change_to_one_cell_is_flagged() {
        let expected = deterministic(COMMITTED).unwrap();
        let actual = deterministic(&COMMITTED.replace("17050", "17051")).unwrap();
        assert_eq!(differing_sections(&expected, &actual), ["cells"]);
        let dropped = deterministic(&COMMITTED.replace("\"experiment\": \"tables1_8\",", ""));
        assert_eq!(
            differing_sections(&expected, &dropped.unwrap()),
            ["experiment"]
        );
    }
}
