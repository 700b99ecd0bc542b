//! NS-App read-latency distributions per scheme — an exhibit beyond the
//! paper: means tell the Figure 13 story, but the D-ORAM/c policy really
//! plays out in the tail (NS reads queued behind an ORAM path burst).
use doram_core::experiments::{run_scheme, ExperimentError};
use doram_core::report::render_bars;
use doram_core::Scheme;

fn main() {
    let scale = doram_bench::announce("latency_profile");
    let bench = scale.benchmarks[0];
    doram_bench::emit("latency_profile", || {
        let mut out = format!("NS read-latency distribution, {bench} (memory cycles)\n\n");
        let mut p99s = Vec::new();
        for scheme in [
            Scheme::Ns7on4,
            Scheme::Baseline,
            Scheme::DOram { k: 0, c: 7 },
            Scheme::DOram { k: 0, c: 0 },
        ] {
            let r = run_scheme(bench, scheme, &scale)?;
            out.push_str(&format!(
                "{:<12} mean {:>7.1}  p50 {:>5}  p95 {:>5}  p99 {:>5}\n",
                scheme.label(),
                r.ns_read_latency.mean(),
                r.ns_read_percentile(0.50).unwrap_or(0),
                r.ns_read_percentile(0.95).unwrap_or(0),
                r.ns_read_percentile(0.99).unwrap_or(0),
            ));
            p99s.push((
                scheme.label().to_string(),
                r.ns_read_percentile(0.99).unwrap_or(0) as f64,
            ));
        }
        out.push_str("\np99 comparison:\n");
        out.push_str(&render_bars(&p99s, 40));
        Ok::<String, ExperimentError>(out)
    })
    .expect("latency profile failed");
}
