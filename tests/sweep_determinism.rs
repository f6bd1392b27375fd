//! The parallel sweep runner must be scheduling-independent: for every
//! experiment, `--jobs 8` produces bit-identical rows and byte-identical
//! key-sorted results JSON to `--jobs 1`. Rows carry raw `f64`s compared
//! with `PartialEq`, so "equal" here means bit-identical floating-point
//! results, not approximately close.

use ccrp_bench::json::Json;
use ccrp_bench::{runner, Experiment, SweepOptions, ToJson};

fn options(jobs: usize) -> SweepOptions {
    SweepOptions {
        jobs,
        ..Default::default()
    }
}

#[test]
fn eight_jobs_match_one_job_bit_for_bit() {
    for experiment in Experiment::ALL {
        let serial = runner::run(experiment, &options(1));
        let parallel = runner::run(experiment, &options(8));
        assert_eq!(
            serial.results,
            parallel.results,
            "{}: rows diverged between 1 and 8 workers",
            experiment.name()
        );
        assert_eq!(
            serial.results_json().to_compact(),
            parallel.results_json().to_compact(),
            "{}: results JSON diverged between 1 and 8 workers",
            experiment.name()
        );
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.label, b.label, "{}: cell order", experiment.name());
        }
    }
}

#[test]
fn full_json_differs_from_results_json_only_by_run_metadata() {
    let report = runner::run(Experiment::Fig5, &options(2));
    let mut full = report.to_json();
    assert_eq!(full.remove("jobs"), Some(Json::U64(2)));
    assert!(full.remove("timing").is_some());
    assert_eq!(full.to_compact(), report.results_json().to_compact());
}
