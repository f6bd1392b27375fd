//! Observability contract tests: the probe layer must never perturb
//! results (probe-off runs reproduce all seven committed sweep and
//! matrix `BENCH_*.json` files that `ci/bench_gate.sh` checks), and the
//! two exporters built on it — the Chrome trace-event document and the
//! metric registry — must be deterministic, worker-count-independent,
//! and golden-snapshotted so drift is loud. Refresh intentionally
//! changed snapshots with
//! `UPDATE_GOLDEN=1 cargo test --test observability`; the committed
//! `BENCH_*.json` files are regenerated with `ccrp-tools sweep`.

use std::path::PathBuf;

use ccrp_bench::codecs::{self, CodecsOptions};
use ccrp_bench::isa_compare::{self, IsaCompareOptions};
use ccrp_bench::json::Json;
use ccrp_bench::{runner, Experiment, SweepOptions, ToJson};
use ccrp_testutil::GoldenDir;

fn repo_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn golden() -> GoldenDir {
    GoldenDir::new(repo_path("tests/golden"), "cargo test --test observability")
}

/// Parses a full sweep report and strips the run metadata (`jobs`,
/// `timing`) that legitimately varies between machines and runs.
fn results_only(text: &str) -> String {
    let mut json = Json::parse(text).expect("report parses as JSON");
    json.remove("jobs");
    json.remove("timing");
    json.to_compact()
}

/// Asserts the committed `file` holds `results` outside `jobs` and
/// `timing`; `regenerate` is the `ccrp-tools` command that rewrites it.
fn assert_reproduces(file: &str, results: &Json, regenerate: &str) {
    let committed =
        std::fs::read_to_string(repo_path(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(
        results_only(&committed),
        results.to_compact(),
        "{file} no longer matches a fresh run; if the change is intended, \
         regenerate it with `{regenerate}`"
    );
}

/// The committed benchmark results are the probe-off reference: a fresh
/// sweep with probes compiled out must reproduce their deterministic
/// sections exactly, proving observability costs nothing when off. The
/// sweep takes the path `ccrp-tools sweep --experiment all` takes: one
/// `run_all` over every experiment, replaying the union of their grids.
#[test]
fn probe_off_sweep_reproduces_committed_bench_files() {
    let reports = runner::run_all(&Experiment::ALL, &SweepOptions::default());
    assert_eq!(reports.len(), Experiment::ALL.len());
    for report in &reports {
        assert_reproduces(
            &format!("BENCH_{}.json", report.experiment.name()),
            &report.results_json(),
            "ccrp-tools sweep --out .",
        );
    }
}

/// The committed codec × memory-model matrix is the one reference for
/// a fresh run (here at 2 workers; `ci/bench_gate.sh` runs 1 and 4).
#[test]
fn codec_matrix_reproduces_committed_bench_file() {
    let report = codecs::run(CodecsOptions { jobs: 2 });
    assert_reproduces(
        "BENCH_codecs.json",
        &report.results_json(),
        "ccrp-tools sweep --codecs --out .",
    );
}

/// The committed cross-ISA matrix is the one reference for a fresh run
/// (here at 2 workers; `ci/bench_gate.sh` runs 1 and 4).
#[test]
fn isa_matrix_reproduces_committed_bench_file() {
    let report = isa_compare::run(IsaCompareOptions { jobs: 2 });
    assert_reproduces(
        "BENCH_isa_compare.json",
        &report.results_json(),
        "ccrp-tools sweep --isa-compare --out .",
    );
}

/// The trace exporter is a pure function of (program, options): its
/// entire JSON document — event order, timestamps, metrics — is
/// golden-stable.
#[test]
fn trace_export_matches_golden() {
    let source = repo_path("tests/fixtures/trace_smoke.s");
    let argv: Vec<String> = [
        "trace",
        source.to_str().expect("fixture path is UTF-8"),
        "--cache",
        "256",
        "--metrics",
    ]
    .map(String::from)
    .to_vec();
    let mut buffer = Vec::new();
    ccrp_cli::dispatch(&argv, &mut buffer).expect("trace command succeeds");
    let text = String::from_utf8(buffer).expect("trace output is UTF-8");

    let json = Json::parse(&text).expect("trace output parses as JSON");
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        panic!("traceEvents missing");
    };
    assert!(!events.is_empty());
    golden().check("trace_smoke.json", &text);
}

/// The metric registry folded into a probed sweep is golden-stable and
/// — because per-cell sets are merged in cell generation order — does
/// not depend on the worker count.
#[test]
fn sweep_metrics_match_golden_and_are_jobs_independent() {
    let options = |jobs| SweepOptions {
        jobs,
        metrics: true,
        ..Default::default()
    };
    let serial = runner::run(Experiment::Tables11To13, &options(1));
    let parallel = runner::run(Experiment::Tables11To13, &options(4));

    assert_eq!(
        results_only(&serial.to_json().to_pretty()),
        results_only(&parallel.to_json().to_pretty()),
        "probed sweep diverged between 1 and 4 workers"
    );

    let metrics = serial.metrics.as_ref().expect("metrics requested");
    assert_eq!(
        metrics.to_json().to_compact(),
        parallel
            .metrics
            .as_ref()
            .expect("metrics requested")
            .to_json()
            .to_compact()
    );
    golden().check("metrics_tables11_13.json", &metrics.to_json().to_pretty());
}
