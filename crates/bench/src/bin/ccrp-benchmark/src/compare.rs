//! `ccrp-benchmark compare PARENT.json… -- CHANGE.json…`: judges a change
//! against its parent, per workload and end-to-end metric, from the
//! result files `--out` writes.
//!
//! A metric is *better* when the change wins at least nine pairs in ten
//! and the medians differ by more than the parent's interquartile range;
//! *worse* when the change's median is worse than the parent's by more
//! than the metric's bound in `BENCHMARK.json`; *unresolved* otherwise.

use std::collections::BTreeMap;

use ccrp_bench::json::Json;

use crate::host;
use crate::stats;

/// A comparison's outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the rule above.
    Better,
    /// The change is worse than the bound allows.
    Worse,
    /// Neither.
    Unresolved,
}

/// Judges `change` runs against `parent` runs, pairing them in order;
/// also returns how many pairs the change won.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, usize) {
    let gain = |from: f64, to: f64| {
        if lower_is_better {
            from - to
        } else {
            to - from
        }
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| gain(p, c) > 0.0)
        .count();
    let [q1, parent_median, q3] = stats::quartiles(parent);
    let improvement = gain(parent_median, stats::median(change));
    let verdict = if pairs > 0 && wins * 10 >= pairs * 9 && improvement > q3 - q1 {
        Verdict::Better
    } else if -improvement > bound * parent_median.abs() {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    (verdict, wins)
}

/// Metric values per workload, one map per untraced run.
type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

fn load_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let (Some(Json::Str(workload)), Some(Json::Bool(traced))) =
            (doc.get("workload"), doc.get("trace"))
        else {
            return Err(format!("{path} is not a result file written by --out"));
        };
        if *traced {
            return Err(format!("{path} is a traced run; compare untraced runs"));
        }
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path} has no metrics"));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, metric)| match metric.get("value") {
                Some(Json::F64(x)) => Some((name.clone(), *x)),
                Some(Json::U64(n)) => Some((name.clone(), *n as f64)),
                _ => None,
            })
            .collect();
        runs.entry(workload.clone()).or_default().push(values);
    }
    Ok(runs)
}

/// `(name, lower is better, bound)` of every end-to-end metric in
/// `BENCHMARK.json`.
fn load_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = host::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|metric| {
            match (
                metric.get("name"),
                metric.get("better"),
                metric.get("bound"),
            ) {
                (Some(Json::Str(name)), Some(Json::Str(better)), Some(&Json::F64(bound))) => {
                    Ok((name.clone(), better == "lower", bound))
                }
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// Runs the subcommand on its arguments (everything after `compare`).
///
/// # Errors
///
/// Usage errors and unreadable files.
pub fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: ccrp-benchmark compare PARENT.json... -- CHANGE.json...")?;
    let parent = load_runs(&args[..split])?;
    let change = load_runs(&args[split + 1..])?;
    let bounds = load_bounds()?;
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent p50", "change p50", "delta", "wins"
    );
    for (workload, parent_runs) in &parent {
        let Some(change_runs) = change.get(workload) else {
            continue;
        };
        for (metric, lower_is_better, bound) in &bounds {
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|m| m.get(metric).copied()).collect()
            };
            let (p, c) = (values(parent_runs), values(change_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            let (verdict, wins) = judge(&p, &c, *lower_is_better, *bound);
            println!(
                "{workload:<10} {metric:<12} {pm:>14.4} {cm:>14.4} {:>7.2}% {wins:>3}/{:<2}  {verdict:?}",
                (cm - pm) / pm * 100.0,
                p.len().min(c.len()),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairs_and_spread_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.9).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&parent, &faster, true, 0.08).0, Verdict::Better);
        assert_eq!(judge(&parent, &slower, true, 0.08).0, Verdict::Worse);
        assert_eq!(judge(&parent, &parent, true, 0.08).0, Verdict::Unresolved);
        // Higher-is-better metrics read the other way round.
        assert_eq!(judge(&parent, &slower, false, 0.08).0, Verdict::Better);
        // Winning 8 pairs in 10 is not enough.
        let mut mostly = faster.clone();
        mostly[0] = 200.0;
        mostly[1] = 200.0;
        assert_eq!(judge(&parent, &mostly, true, 0.5), (Verdict::Unresolved, 8));
    }
}
