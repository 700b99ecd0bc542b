//! Figure 13: NS-App memory access latency under D-ORAM+1 and D-ORAM/4,
//! normalized to Baseline.
//!
//! The paper reports read latency dropping to about 70% of Baseline and
//! write latency to about 48% — the write win being larger because the
//! Baseline's path write-back phases monopolize the write drains of all
//! four channels.

use super::{run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_trace::Benchmark;

/// One benchmark's latency ratios.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Read latency of D-ORAM+1 / Baseline.
    pub read_p1: f64,
    /// Read latency of D-ORAM/4 / Baseline.
    pub read_c4: f64,
    /// Write latency of D-ORAM+1 / Baseline.
    pub write_p1: f64,
    /// Write latency of D-ORAM/4 / Baseline.
    pub write_c4: f64,
}

/// Runs the Figure 13 comparison.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig13Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let base = run_scheme(b, Scheme::Baseline, scale)?;
        let p1 = run_scheme(b, Scheme::DOram { k: 1, c: 7 }, scale)?;
        let c4 = run_scheme(b, Scheme::DOram { k: 0, c: 4 }, scale)?;
        Ok(Fig13Row {
            benchmark: b,
            read_p1: p1.ns_read_latency.mean() / base.ns_read_latency.mean(),
            read_c4: c4.ns_read_latency.mean() / base.ns_read_latency.mean(),
            write_p1: p1.ns_write_latency.mean() / base.ns_write_latency.mean(),
            write_c4: c4.ns_write_latency.mean() / base.ns_write_latency.mean(),
        })
    })
}

/// Mean ratios across benchmarks: (read+1, read/4, write+1, write/4).
pub fn means(rows: &[Fig13Row]) -> (f64, f64, f64, f64) {
    let n = rows.len().max(1) as f64;
    (
        rows.iter().map(|r| r.read_p1).sum::<f64>() / n,
        rows.iter().map(|r| r.read_c4).sum::<f64>() / n,
        rows.iter().map(|r| r.write_p1).sum::<f64>() / n,
        rows.iter().map(|r| r.write_c4).sum::<f64>() / n,
    )
}

/// Renders the figure.
pub fn render(rows: &[Fig13Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                fmt3(r.read_p1),
                fmt3(r.read_c4),
                fmt3(r.write_p1),
                fmt3(r.write_c4),
            ]
        })
        .collect();
    let mut out = String::from("Figure 13 — NS-App memory latency normalized to Baseline\n");
    out.push_str(&render_table(
        &["bench", "rd +1", "rd /4", "wr +1", "wr /4"],
        &body,
    ));
    let (rp, rc, wp, wc) = means(rows);
    out.push_str(&format!(
        "\nmeans: read +1 {} /4 {}; write +1 {} /4 {}\n",
        fmt3(rp),
        fmt3(rc),
        fmt3(wp),
        fmt3(wc)
    ));
    out.push_str("paper: reads reduced to ~0.70 of Baseline, writes to ~0.48\n");
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig13Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.read_p1),
                format!("{:.6}", r.read_c4),
                format!("{:.6}", r.write_p1),
                format!("{:.6}", r.write_c4),
            ]
        })
        .collect();
    crate::report::render_csv(
        &["bench", "read_p1", "read_c4", "write_p1", "write_c4"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doram_reduces_ns_latency() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        let rows = run(&scale).unwrap();
        let r = &rows[0];
        // Delegation must reduce NS write latency (the Baseline's path
        // write-backs contend hard on every channel).
        assert!(r.write_p1 < 1.0, "write ratio {}", r.write_p1);
        assert!(r.write_c4 < 1.0, "write ratio {}", r.write_c4);
        assert!(render(&rows).contains("wr /4"));
    }
}
