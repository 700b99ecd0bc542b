//! Figure 9: normalized execution time of Baseline, D-ORAM, D-ORAM/X,
//! D-ORAM+1 and D-ORAM+1/4.
//!
//! Paper reference points (averages, normalized to Baseline = 1):
//! D-ORAM 0.875, D-ORAM/X 0.775 (the headline 22.5% improvement),
//! D-ORAM+1 0.886, D-ORAM+1/4 0.814.

use super::{fig11, run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_sim::stats::geometric_mean;
use doram_trace::Benchmark;

/// One benchmark's Figure 9 bars (normalized to its Baseline).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Plain D-ORAM (k = 0, c = 7).
    pub doram: f64,
    /// D-ORAM/X: the best c from the Figure 11 sweep.
    pub doram_x: f64,
    /// The c that achieved `doram_x`.
    pub best_c: u32,
    /// D-ORAM+1 (leaf level split onto normal channels).
    pub doram_p1: f64,
    /// D-ORAM+1/4.
    pub doram_p1_c4: f64,
}

/// Runs Figure 9: D-ORAM, its best c (D-ORAM/X) and the Baseline come
/// from the benchmark's Figure 11 sweep.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig9Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let sweep = fig11::row(b, scale)?;
        let norm = |k, c| -> Result<f64, ExperimentError> {
            let r = run_scheme(b, Scheme::DOram { k, c }, scale)?;
            Ok(r.ns_exec_mean() / sweep.baseline_cycles)
        };
        Ok(Fig9Row {
            benchmark: b,
            doram: sweep.norm_by_c[7],
            doram_x: sweep.best_norm(),
            best_c: sweep.best_c(),
            doram_p1: norm(1, 7)?,
            doram_p1_c4: norm(1, 4)?,
        })
    })
}

/// Geometric means of each bar across benchmarks.
pub fn gmeans(rows: &[Fig9Row]) -> [(&'static str, f64); 4] {
    let g = |f: fn(&Fig9Row) -> f64| {
        let v: Vec<f64> = rows.iter().map(f).collect();
        geometric_mean(&v)
    };
    [
        ("D-ORAM", g(|r| r.doram)),
        ("D-ORAM/X", g(|r| r.doram_x)),
        ("D-ORAM+1", g(|r| r.doram_p1)),
        ("D-ORAM+1/4", g(|r| r.doram_p1_c4)),
    ]
}

/// Renders the figure.
pub fn render(rows: &[Fig9Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                fmt3(r.doram),
                format!("{} (c={})", fmt3(r.doram_x), r.best_c),
                fmt3(r.doram_p1),
                fmt3(r.doram_p1_c4),
            ]
        })
        .collect();
    let mut out =
        String::from("Figure 9 — execution time normalized to Baseline (lower is better)\n");
    out.push_str(&render_table(
        &["bench", "D-ORAM", "D-ORAM/X", "D-ORAM+1", "D-ORAM+1/4"],
        &body,
    ));
    out.push('\n');
    for (name, g) in gmeans(rows) {
        out.push_str(&format!("{name:>11} gmean: {}\n", fmt3(g)));
    }
    out.push_str(
        "paper averages: D-ORAM 0.875, D-ORAM/X 0.775, D-ORAM+1 0.886, D-ORAM+1/4 0.814\n",
    );
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig9Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.doram),
                format!("{:.6}", r.doram_x),
                r.best_c.to_string(),
                format!("{:.6}", r.doram_p1),
                format!("{:.6}", r.doram_p1_c4),
            ]
        })
        .collect();
    crate::report::render_csv(
        &[
            "bench",
            "doram",
            "doram_x",
            "best_c",
            "doram_p1",
            "doram_p1_c4",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doram_family_beats_baseline_on_oram_heavy_benchmarks() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        let rows = run(&scale).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // Delegation relieves NS-Apps...
        assert!(r.doram < 1.0, "D-ORAM {}", r.doram);
        // ...and the best sharing setting can only help further.
        assert!(r.doram_x <= r.doram);
        // Splitting one level costs little relative to plain D-ORAM.
        assert!(
            r.doram_p1 < 1.1 * r.doram,
            "+1 {} vs {}",
            r.doram_p1,
            r.doram
        );
        let text = render(&rows);
        assert!(text.contains("D-ORAM/X") && text.contains("paper"));
    }
}
