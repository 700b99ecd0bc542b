//! Figure 4: NS-App performance degradation under different co-run
//! scenarios, normalized to the solo run (1NS).
//!
//! Paper reference points: 1S7NS (Path ORAM) averages +90.6% execution
//! time with a worst case of 5.26×; 7NS-3ch averages +57%; 7NS-4ch +43%;
//! the secure-memory model lands between Path ORAM and the partitions.

use super::{run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_sim::stats::geometric_mean;
use doram_trace::Benchmark;

/// Per-benchmark slowdowns relative to 1NS.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// 1S7NS with Path ORAM (the paper's headline interference case).
    pub oram_1s7ns: f64,
    /// 1S7NS under the secure-memory model.
    pub secmem_1s7ns: f64,
    /// 7NS-4ch channel partition.
    pub ns7_4ch: f64,
    /// 7NS-3ch channel partition.
    pub ns7_3ch: f64,
}

/// Best/worst/geometric-mean summary over all rows, per scheme — the
/// three bars the paper plots.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Summary {
    /// Fastest benchmark's slowdown.
    pub best: f64,
    /// Slowest benchmark's slowdown.
    pub worst: f64,
    /// Geometric mean of the slowdowns.
    pub gmean: f64,
}

fn summarize(values: impl Iterator<Item = f64> + Clone) -> Fig4Summary {
    let v: Vec<f64> = values.collect();
    Fig4Summary {
        best: v.iter().copied().fold(f64::INFINITY, f64::min),
        worst: v.iter().copied().fold(0.0, f64::max),
        gmean: geometric_mean(&v),
    }
}

/// Runs the Figure 4 sweep.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<Fig4Row>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let solo = run_scheme(b, Scheme::SoloNs, scale)?.ns_exec_mean();
        let norm = |scheme| -> Result<f64, ExperimentError> {
            Ok(run_scheme(b, scheme, scale)?.ns_exec_mean() / solo)
        };
        Ok(Fig4Row {
            benchmark: b,
            oram_1s7ns: norm(Scheme::Baseline)?,
            secmem_1s7ns: norm(Scheme::SecureMemory)?,
            ns7_4ch: norm(Scheme::Ns7on4)?,
            ns7_3ch: norm(Scheme::Ns7on3)?,
        })
    })
}

/// Summaries per scheme, in the paper's plotting order.
pub fn summaries(rows: &[Fig4Row]) -> [(&'static str, Fig4Summary); 4] {
    [
        (
            "1S7NS(PathORAM)",
            summarize(rows.iter().map(|r| r.oram_1s7ns)),
        ),
        (
            "1S7NS(SecMem)",
            summarize(rows.iter().map(|r| r.secmem_1s7ns)),
        ),
        ("7NS-4ch", summarize(rows.iter().map(|r| r.ns7_4ch))),
        ("7NS-3ch", summarize(rows.iter().map(|r| r.ns7_3ch))),
    ]
}

/// Renders rows plus the best/worst/gmean summary block.
pub fn render(rows: &[Fig4Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                fmt3(r.oram_1s7ns),
                fmt3(r.secmem_1s7ns),
                fmt3(r.ns7_4ch),
                fmt3(r.ns7_3ch),
            ]
        })
        .collect();
    let mut out = String::from("Figure 4 — NS-App slowdown vs 1NS (lower is better)\n");
    out.push_str(&render_table(
        &[
            "bench",
            "1S7NS(ORAM)",
            "1S7NS(SecMem)",
            "7NS-4ch",
            "7NS-3ch",
        ],
        &body,
    ));
    out.push('\n');
    for (name, s) in summaries(rows) {
        out.push_str(&format!(
            "{name:>16}: best {} worst {} gmean {}\n",
            fmt3(s.best),
            fmt3(s.worst),
            fmt3(s.gmean)
        ));
    }
    out.push_str("paper: 1S7NS(ORAM) gmean 1.906 worst 5.26; 7NS-4ch ~1.43; 7NS-3ch ~1.57\n");
    out
}

/// CSV form of the rows.
pub fn render_csv(rows: &[Fig4Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.6}", r.oram_1s7ns),
                format!("{:.6}", r.secmem_1s7ns),
                format!("{:.6}", r.ns7_4ch),
                format!("{:.6}", r.ns7_3ch),
            ]
        })
        .collect();
    crate::report::render_csv(
        &["bench", "oram_1s7ns", "secmem_1s7ns", "ns7_4ch", "ns7_3ch"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        let rows = run(&Scale::quick()).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // Co-run always slower than solo.
            assert!(r.ns7_4ch > 1.0, "{r:?}");
            // Fewer channels hurt more.
            assert!(r.ns7_3ch > r.ns7_4ch, "{r:?}");
            // The ORAM co-run is the worst of the four settings.
            assert!(r.oram_1s7ns > r.ns7_4ch, "{r:?}");
        }
        let s = summaries(&rows);
        assert!(s[0].1.worst >= s[0].1.gmean && s[0].1.gmean >= s[0].1.best);
        let text = render(&rows);
        assert!(text.contains("mummer") && text.contains("gmean"));
    }
}
