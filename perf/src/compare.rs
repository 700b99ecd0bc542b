//! `perf compare`: the verdict on every workload and end-to-end metric
//! between two directories of `perf run --out` records.

use crate::metrics::bounds;
use crate::stats::{verdict, win_fraction, Quartiles, Verdict};
use crate::workload::WORKLOADS;
use doram_obs::json::{self, JsonValue};
use std::path::Path;

/// The timed (untraced) records under `dir`, in file-name order.
fn timed_runs(dir: &Path) -> Result<Vec<JsonValue>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let records = doc
            .get("runs")
            .and_then(JsonValue::as_array)
            .unwrap_or_default();
        runs.extend(
            records
                .iter()
                .filter(|r| r.get("trace") == Some(&JsonValue::Bool(false)))
                .cloned(),
        );
    }
    Ok(runs)
}

/// The records of workload `name`.
fn of_workload<'a>(runs: &'a [JsonValue], name: &str) -> Vec<&'a JsonValue> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(JsonValue::as_str) == Some(name))
        .collect()
}

/// Values of `metric` over `runs`.
fn values(runs: &[&JsonValue], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed simulations as a share of those attempted.
fn failed_share(runs: &[&JsonValue]) -> f64 {
    let sum = |key| -> u64 {
        runs.iter()
            .filter_map(|r| r.get(key).and_then(JsonValue::as_u64))
            .sum()
    };
    sum("failed") as f64 / sum("attempted").max(1) as f64
}

/// The one run length (`--seconds`) all `runs` were measured at.
///
/// # Errors
///
/// When records disagree: their fastest-repetition metrics take the
/// minimum over different numbers of repetitions.
fn run_length<'a>(runs: impl Iterator<Item = &'a JsonValue>) -> Result<Option<f64>, String> {
    let mut seconds: Vec<f64> = runs
        .filter_map(|r| r.get("seconds").and_then(JsonValue::as_f64))
        .collect();
    seconds.sort_by(f64::total_cmp);
    seconds.dedup();
    match seconds[..] {
        [] => Ok(None),
        [s] => Ok(Some(s)),
        _ => Err(format!(
            "records were measured at different run lengths ({seconds:?} s); compare needs one"
        )),
    }
}

/// Compares the change's records in `change_dir` against the parent's in
/// `parent_dir`, pairing runs in file order, and prints one row per
/// workload and end-to-end metric.
///
/// # Errors
///
/// An unreadable directory or record, records of different run lengths,
/// or a comparison that fails: a regressed metric, or a higher share of
/// failed runs.
pub fn compare(parent_dir: &Path, change_dir: &Path) -> Result<(), String> {
    let (parent, change) = (timed_runs(parent_dir)?, timed_runs(change_dir)?);
    if let Some(seconds) = run_length(parent.iter().chain(&change))? {
        println!("run length {seconds} s");
    }
    let mut problems = Vec::new();
    println!("workload metric parent_median [q1 q3] change_median [q1 q3] wins verdict");
    for w in WORKLOADS {
        let (p, c) = (of_workload(&parent, w.name), of_workload(&change, w.name));
        if p.is_empty() || c.is_empty() {
            continue;
        }
        for b in bounds() {
            let (pv, cv) = (values(&p, &b.name), values(&c, &b.name));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let v = verdict(&pv, &cv, b.better, b.bound);
            let (pq, cq) = (Quartiles::of(&pv), Quartiles::of(&cv));
            let pairs = pv.len().min(cv.len());
            let wins = (win_fraction(&pv, &cv, b.better) * pairs as f64).round();
            println!(
                "{} {} {} [{} {}] {} [{} {}] {wins}/{pairs} {}",
                w.name,
                b.name,
                pq.median,
                pq.q1,
                pq.q3,
                cq.median,
                cq.q1,
                cq.q3,
                v.name()
            );
            if v == Verdict::Regressed {
                problems.push(format!("{} {} regressed", w.name, b.name));
            }
        }
        let (pf, cf) = (failed_share(&p), failed_share(&c));
        println!("{} failed_share {pf} {cf}", w.name);
        if cf > pf {
            problems.push(format!("{} failed share rose from {pf} to {cf}", w.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_of_different_run_lengths_are_refused() {
        let at = |s: &str| json::parse(&format!("{{\"seconds\":{s}}}")).unwrap();
        let same = [at("25"), at("25"), at("25.0")];
        assert_eq!(run_length(same.iter()), Ok(Some(25.0)));
        assert_eq!(run_length([].iter()), Ok(None));
        assert!(run_length([at("25"), at("10")].iter()).is_err());
    }
}
