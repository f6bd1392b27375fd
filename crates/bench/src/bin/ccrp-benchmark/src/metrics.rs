//! The metric registry: every name the benchmark reports, with its unit,
//! and the result one run prints.

use std::collections::BTreeMap;
use std::time::Duration;

use ccrp_bench::json::Json;

use crate::stats;

/// End-to-end metrics, measured with tracing off on every workload.
///
/// The median latency is gated as `op_p50_rel`, over the median time of
/// the reference computation ([`crate::reference`]) timed in the same
/// run, because the host's speed drifts between runs far more than the
/// bounds allow; the latency in ms is printed as a detail. So are the
/// p75 latency and the throughput: a `reproduce` run completes about 25
/// operations, too few for ten to lie beyond p75, and the throughput of
/// a closed loop is its concurrency over the mean latency, which says
/// nothing the median does not and moved about half again as much
/// between runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_rel", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for the
/// layers it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // reproduce: the in-process reproduction.
    ("bench.suite_build_ms", "ms"),
    ("bench.sweep.fig5_ms", "ms"),
    ("bench.sweep.tables1_8_ms", "ms"),
    ("bench.sweep.tables9_10_ms", "ms"),
    ("bench.sweep.fig9_ms", "ms"),
    ("bench.sweep.tables11_13_ms", "ms"),
    ("bench.codecs_ms", "ms"),
    ("bench.isa_compare_ms", "ms"),
    ("bench.render_ms", "ms"),
    ("cli.process_overhead_ms", "ms"),
    // reproduce: the serial stage pass over the eight workloads.
    ("asm.assemble_ms", "ms"),
    ("emu.emulate_ms", "ms"),
    ("emu.minstr_per_s", "Minstr/s"),
    ("workloads.pad_text_ms", "ms"),
    ("rv32.build_ms", "ms"),
    ("rv32.minstr_per_s", "Minstr/s"),
    ("compress.build_image_ms.byte-huffman", "ms"),
    ("compress.build_image_ms.positional", "ms"),
    ("compress.build_image_ms.lzw", "ms"),
    ("compress.encode_mb_per_s", "MB/s"),
    ("compress.lines_decoded_per_s.byte-huffman", "lines/s"),
    ("compress.lines_decoded_per_s.positional", "lines/s"),
    ("compress.lines_decoded_per_s.lzw", "lines/s"),
    ("sim.capture_ms", "ms"),
    ("sim.fetches_per_run", "fetches"),
    ("sim.replay_ms", "ms"),
    ("sim.replay_mruns_per_s", "Mruns/s"),
    // reproduce: modelled results, exact under any host-only change.
    ("sim.icache_misses", "count"),
    ("core.refills", "count"),
    ("core.refill_cycles", "cycles"),
    ("core.clb_miss_rate", "ratio"),
    ("bench.rel_time_geomean", "ratio"),
    ("bench.rom_ratio", "ratio"),
    // difftest: one serial trial at a time, stage by stage.
    ("difftest.progen_ms", "ms"),
    ("difftest.cosim_ms", "ms"),
    ("difftest.cosim_us_per_instr", "us/instr"),
    ("compress.build_rom_ms", "ms"),
    ("difftest.invariants_ms", "ms"),
    ("rv32.assemble_ms", "ms"),
    ("rv32.cosim_ms", "ms"),
    ("rv32.cosim_us_per_instr", "us/instr"),
    ("rv32.build_rom_ms", "ms"),
    ("difftest.instructions", "count"),
    // every workload
    ("trace_overhead_frac", "ratio"),
];

/// What one run measured: operation counts, the oracle's verdict, the
/// registry metrics, and workload-specific details that are printed but
/// not gated.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations started.
    pub attempted: u64,
    /// Operations whose output the oracle rejected.
    pub failed: u64,
    /// Registry metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures, printed with their units but not gated.
    pub details: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records registry metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both registries (a typo here).
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.metrics.insert(name, value);
    }

    /// Records the end-to-end metrics of a closed-loop run — the median
    /// set-up time, the median operation latency over the median time of
    /// the reference computation, and peak memory — and, as details, the
    /// latency percentiles, the reference time, and the operations
    /// completed per second of `window`.
    pub fn set_end_to_end(
        &mut self,
        setup_s: &[f64],
        latencies_ms: &[f64],
        reference_ms: &[f64],
        window: Duration,
        peak_kib: u64,
    ) {
        let p50 = stats::percentile(latencies_ms, 50.0);
        let reference = stats::median(reference_ms);
        self.set("setup_s", stats::median(setup_s));
        self.set("op_p50_rel", p50 / reference);
        self.set("peak_rss_mb", peak_kib as f64 / 1024.0);
        self.detail("op_p50_ms", p50, "ms");
        self.detail("op_p75_ms", stats::percentile(latencies_ms, 75.0), "ms");
        self.detail("reference_ms", reference, "ms");
        self.detail(
            "ops_per_s",
            latencies_ms.len() as f64 / window.as_secs_f64(),
            "1/s",
        );
    }

    /// Records a detail figure.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric of `registry` with its unit (absent ones read 0).
    pub fn result_json(&self, registry: &[(&'static str, &'static str)]) -> Json {
        let metrics = registry
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed(text: &str, extra: &str) -> bool {
        text.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(name.len() <= 64 && allowed(name, ""), "{name}");
            assert!(unit.len() <= 16 && allowed(unit, "/%"), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|item| match (item.get("name"), item.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("malformed `{key}` entry"),
                })
                .collect()
        };
        let owned = |registry: &[(&str, &str)]| -> Vec<(String, String)> {
            registry
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
    }
}
