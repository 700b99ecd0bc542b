//! Figure 11: secure-channel sharing sweep — execution time when 0..=7
//! NS-Apps may allocate on the secure channel, normalized to Baseline,
//! with 7NS-3ch and 7NS-4ch for comparison.
//!
//! The paper's observation: *different applications prefer different
//! sharing configurations* — some benchmarks are best with c < 4, others
//! with c ≥ 4 — and the profiled ratio of Figure 12 predicts the side.

use super::{run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One benchmark's sweep, all normalized to its Baseline run.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline mean NS execution time (CPU cycles; the normalizer).
    pub baseline_cycles: f64,
    /// Normalized execution time for c = 0..=7.
    pub norm_by_c: [f64; 8],
    /// Normalized 7NS-3ch partition.
    pub ns7_3ch: f64,
    /// Normalized 7NS-4ch partition.
    pub ns7_4ch: f64,
}

impl Fig11Row {
    /// The c minimizing normalized execution time.
    pub fn best_c(&self) -> u32 {
        self.norm_by_c
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(i, _)| i as u32)
            .expect("eight entries")
    }

    /// The best normalized time over c (the D-ORAM/X value of Figure 9).
    pub fn best_norm(&self) -> f64 {
        self.norm_by_c[self.best_c() as usize]
    }
}

/// Runs the Figure 11 sweep (11 simulations per benchmark).
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig11Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| row(b, scale))
}

/// One benchmark's sweep; Figures 9 and 12 read theirs from here.
///
/// # Errors
///
/// Propagates the first simulation error.
pub(crate) fn row(b: Benchmark, scale: &Scale) -> Result<Fig11Row, ExperimentError> {
    let baseline = run_scheme(b, Scheme::Baseline, scale)?.ns_exec_mean();
    let mut norm_by_c = [0.0; 8];
    for (c, slot) in norm_by_c.iter_mut().enumerate() {
        let r = run_scheme(b, Scheme::DOram { k: 0, c: c as u32 }, scale)?;
        *slot = r.ns_exec_mean() / baseline;
    }
    Ok(Fig11Row {
        benchmark: b,
        baseline_cycles: baseline,
        norm_by_c,
        ns7_3ch: run_scheme(b, Scheme::Ns7on3, scale)?.ns_exec_mean() / baseline,
        ns7_4ch: run_scheme(b, Scheme::Ns7on4, scale)?.ns_exec_mean() / baseline,
    })
}

/// Renders the sweep in the paper's layout.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut header = vec!["bench".to_string()];
    header.extend((0..8).map(|c| format!("c={c}")));
    header.push("7NS-3ch".into());
    header.push("7NS-4ch".into());
    header.push("best".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.benchmark.to_string()];
            row.extend(r.norm_by_c.iter().map(|v| fmt3(*v)));
            row.push(fmt3(r.ns7_3ch));
            row.push(fmt3(r.ns7_4ch));
            row.push(format!("c={}", r.best_c()));
            row
        })
        .collect();
    let mut out =
        String::from("Figure 11 — normalized NS execution time vs secure-channel sharing c\n");
    out.push_str(&render_table(&header_refs, &body));
    out
}

/// CSV form of the sweep.
pub fn render_csv(rows: &[Fig11Row]) -> String {
    let header: Vec<String> = ["bench"]
        .into_iter()
        .map(str::to_string)
        .chain((0..8).map(|c| format!("c{c}")))
        .chain(["ns7_3ch".to_string(), "ns7_4ch".to_string()])
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.benchmark.to_string()];
            row.extend(r.norm_by_c.iter().map(|v| format!("{v:.6}")));
            row.push(format!("{:.6}", r.ns7_3ch));
            row.push(format!("{:.6}", r.ns7_4ch));
            row
        })
        .collect();
    crate::report::render_csv(&header_refs, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_best_c_per_benchmark() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        let rows = run(&scale).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.best_c() <= 7);
        assert!(r.best_norm() <= r.norm_by_c[0] && r.best_norm() <= r.norm_by_c[7]);
        assert!(r.baseline_cycles > 0.0);
        let text = render(&rows);
        assert!(text.contains("c=0") && text.contains("best"));
    }
}
