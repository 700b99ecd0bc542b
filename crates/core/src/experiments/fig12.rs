//! Figure 12: the profiled ratio `r = T25mix / T33` predicts the best
//! secure-channel sharing setting.
//!
//! The paper profiles a different trace segment, computes `r`, and checks
//! it against the experimentally best c from Figure 11: `r > 1` should
//! coincide with best c < 4 (●) and `r < 1` with best c ≥ 4 (■). In the
//! paper, 14 of 15 benchmarks classify correctly (`c2` is the exception,
//! with r ≈ 1).

use super::{fig11, fig8, ExperimentError, Scale};
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One benchmark's prediction check.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Profiled ratio `T25mix / T33` (different trace segment).
    pub ratio: f64,
    /// Best c measured in the Figure 11 sweep.
    pub best_c: u32,
    /// Whether the ratio classifies the benchmark onto the right side.
    pub correct: bool,
}

/// Runs Figure 12: the ratio from the benchmark's Figure 8 profile, the
/// best c from its Figure 11 sweep.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig12Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let ratio = fig8::profile(b, scale)?.ratio();
        let best_c = fig11::row(b, scale)?.best_c();
        let predict_small = ratio > 1.0;
        let actually_small = best_c < 4;
        Ok(Fig12Row {
            benchmark: b,
            ratio,
            best_c,
            correct: predict_small == actually_small,
        })
    })
}

/// Fraction of benchmarks the ratio classifies correctly.
pub fn accuracy(rows: &[Fig12Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().filter(|r| r.correct).count() as f64 / rows.len() as f64
}

/// Renders the figure.
pub fn render(rows: &[Fig12Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                fmt3(r.ratio),
                format!("c={}", r.best_c),
                if r.best_c < 4 {
                    "●(c<4)"
                } else {
                    "■(c>=4)"
                }
                .into(),
                if r.correct { "yes" } else { "NO" }.into(),
            ]
        })
        .collect();
    let mut out = String::from("Figure 12 — T25mix/T33 ratio vs experimentally best c\n");
    out.push_str(&render_table(
        &["bench", "r=T25mix/T33", "best c", "class", "predicted"],
        &body,
    ));
    out.push_str(&format!(
        "\nclassification accuracy: {:.0}% (paper: 14/15 ≈ 93%)\n",
        accuracy(rows) * 100.0
    ));
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig12Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.ratio),
                r.best_c.to_string(),
                (r.correct as u8).to_string(),
            ]
        })
        .collect();
    crate::report::render_csv(&["bench", "ratio", "best_c", "predicted"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_prediction_computed() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        scale.ns_accesses = 600;
        let rows = run(&scale).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].ratio > 0.0);
        let _ = accuracy(&rows);
        assert!(render(&rows).contains("T25mix"));
    }
}
