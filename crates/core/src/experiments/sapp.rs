//! §V-E: the performance impact of D-ORAM on the S-App itself.
//!
//! The paper argues qualitatively that delegation barely hurts the
//! protected application: the BOB detour adds "tens of nanoseconds" to an
//! access that takes "thousands of nanoseconds" anyway. This experiment
//! makes the claim quantitative in our model: ORAM access latency and
//! achieved access rate under the Baseline (on-chip controller, four
//! shared channels) versus D-ORAM (SD on the secure channel).

use super::{run_scheme, ExperimentError, Scale};
use crate::config::Scheme;
use crate::report::{fmt3, render_table};
use doram_sim::clock::TCK_PICOS;
use doram_trace::Benchmark;

/// One benchmark's S-App comparison.
#[derive(Debug, Clone)]
pub struct SappRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline mean ORAM access latency (ns).
    pub baseline_ns: f64,
    /// D-ORAM mean ORAM access latency as seen end to end (ns), including
    /// the packet round trip over the secure link.
    pub doram_ns: f64,
    /// Real ORAM accesses per million memory cycles, Baseline.
    pub baseline_rate: f64,
    /// Same under D-ORAM.
    pub doram_rate: f64,
}

fn to_ns(mem_cycles: f64) -> f64 {
    mem_cycles * TCK_PICOS as f64 / 1000.0
}

/// Runs the §V-E comparison.
///
/// # Errors
///
/// Propagates the first simulation error.
pub fn run(scale: &Scale) -> Result<Vec<SappRow>, ExperimentError> {
    super::par_over_benchmarks(scale, |b| {
        let base = run_scheme(b, Scheme::Baseline, scale)?;
        let doram = run_scheme(b, Scheme::DOram { k: 0, c: 7 }, scale)?;
        let bo = base.oram.clone().expect("baseline runs ORAM");
        let d = doram.oram.clone().expect("D-ORAM runs ORAM");
        Ok(SappRow {
            benchmark: b,
            baseline_ns: to_ns(bo.access_latency),
            doram_ns: to_ns(d.access_latency),
            baseline_rate: bo.real_accesses as f64 * 1e6 / base.total_mem_cycles as f64,
            doram_rate: d.real_accesses as f64 * 1e6 / doram.total_mem_cycles as f64,
        })
    })
}

/// Renders the comparison.
pub fn render(rows: &[SappRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("{:.0}", r.baseline_ns),
                format!("{:.0}", r.doram_ns),
                fmt3(r.doram_ns / r.baseline_ns),
                format!("{:.0}", r.baseline_rate),
                format!("{:.0}", r.doram_rate),
            ]
        })
        .collect();
    let mut out =
        String::from("S-App impact (§V-E) — ORAM access latency and throughput per scheme\n");
    out.push_str(&render_table(
        &[
            "bench",
            "base ns",
            "d-oram ns",
            "ratio",
            "base acc/Mcyc",
            "d-oram acc/Mcyc",
        ],
        &body,
    ));
    out.push_str(
        "\npaper: the BOB detour costs tens of ns against accesses of thousands of ns;\n\
         under D-ORAM the SD's four dedicated sub-channels typically *shorten* the\n\
         access itself, offsetting the link round trip.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sapp_latency_same_order_of_magnitude() {
        let mut scale = Scale::quick();
        scale.benchmarks = vec![Benchmark::Mummer];
        scale.ns_accesses = 500;
        let rows = run(&scale).unwrap();
        let r = &rows[0];
        assert!(r.baseline_ns > 0.0 && r.doram_ns > 0.0);
        // §V-E's claim: delegation does not blow the S-App up — the
        // end-to-end access stays within 2x of the Baseline's.
        let ratio = r.doram_ns / r.baseline_ns;
        assert!(ratio < 2.0, "ratio {ratio}");
        assert!(r.doram_rate > 0.0);
        assert!(render(&rows).contains("d-oram ns"));
    }
}
