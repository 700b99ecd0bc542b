//! Figure 10: cost of expanding the Path ORAM tree across channels.
//!
//! Varying k from 1 to 3 grows the tree from 4 GB to 4·2^k GB while
//! adding only +1.02%, +2.01% and +3.29% execution time over plain D-ORAM
//! — the point being that capacity can be added on normal channels almost
//! for free.

use super::{run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One benchmark's +k sweep, normalized to plain D-ORAM (k = 0).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Normalized execution time for k = 0..=3 (k = 0 is 1.0 by
    /// construction).
    pub norm_by_k: [f64; 4],
}

impl Fig10Row {
    /// Percentage overhead of k over plain D-ORAM.
    pub fn overhead_pct(&self, k: usize) -> f64 {
        (self.norm_by_k[k] - 1.0) * 100.0
    }
}

/// Runs the Figure 10 sweep.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig10Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let d0 = run_scheme(b, Scheme::DOram { k: 0, c: 7 }, scale)?.ns_exec_mean();
        let mut norm_by_k = [1.0; 4];
        for k in 1..=3u32 {
            let r = run_scheme(b, Scheme::DOram { k, c: 7 }, scale)?;
            norm_by_k[k as usize] = r.ns_exec_mean() / d0;
        }
        Ok(Fig10Row {
            benchmark: b,
            norm_by_k,
        })
    })
}

/// Mean overhead per k across benchmarks, in percent.
pub fn mean_overheads(rows: &[Fig10Row]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = rows.iter().map(|r| r.overhead_pct(i + 1)).sum::<f64>() / rows.len().max(1) as f64;
    }
    out
}

/// Renders the figure.
pub fn render(rows: &[Fig10Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                fmt3(r.norm_by_k[1]),
                fmt3(r.norm_by_k[2]),
                fmt3(r.norm_by_k[3]),
            ]
        })
        .collect();
    let mut out = String::from(
        "Figure 10 — execution time normalized to D-ORAM when expanding the tree by k levels\n",
    );
    out.push_str(&render_table(&["bench", "k=1", "k=2", "k=3"], &body));
    let m = mean_overheads(rows);
    out.push_str(&format!(
        "\nmean overhead: k=1 {:+.2}%  k=2 {:+.2}%  k=3 {:+.2}%\n",
        m[0], m[1], m[2]
    ));
    out.push_str("paper: +1.02%, +2.01%, +3.29% (tree capacity 8/16/32 GB)\n");
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig10Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.norm_by_k[1]),
                format!("{:.6}", r.norm_by_k[2]),
                format!("{:.6}", r.norm_by_k[3]),
            ]
        })
        .collect();
    crate::report::render_csv(&["bench", "k1", "k2", "k3"], &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_overhead_is_small_and_monotonic_on_average() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        let rows = run(&scale).unwrap();
        let r = &rows[0];
        for k in 1..=3 {
            // The overhead is small — well under 25% even at quick scale.
            assert!(
                r.norm_by_k[k] < 1.25,
                "k={k} overhead too large: {}",
                r.norm_by_k[k]
            );
        }
        let m = mean_overheads(&rows);
        assert!(m[0] <= m[2] + 5.0, "overheads should grow gently with k");
        assert!(render(&rows).contains("k=3"));
    }
}
