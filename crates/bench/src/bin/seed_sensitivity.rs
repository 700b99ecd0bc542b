//! Seed sensitivity of the headline result: how stable is the D-ORAM
//! vs Baseline ratio across random seeds (trace content, position map,
//! dummy addresses)? Reports mean ± sample standard deviation.

use doram_core::experiments::{run_scheme, ExperimentError, Scale};
use doram_core::Scheme;

fn ratio(bench: doram_trace::Benchmark, scale: &Scale, seed: u64) -> Result<f64, ExperimentError> {
    let scale = &Scale {
        seed,
        ..scale.clone()
    };
    let doram = run_scheme(bench, Scheme::DOram { k: 0, c: 7 }, scale)?;
    let baseline = run_scheme(bench, Scheme::Baseline, scale)?;
    Ok(doram.ns_exec_mean() / baseline.ns_exec_mean())
}

fn main() {
    let scale = doram_bench::announce("seed_sensitivity");
    doram_bench::emit("seed_sensitivity", || {
        let seeds: Vec<u64> = (1..=5).collect();
        let mut out = String::from("D-ORAM / Baseline NS execution-time ratio across seeds\n\n");
        let benches = if scale.benchmarks.len() > 4 {
            // Keep the default run short: one per behaviour class.
            vec![
                doram_trace::Benchmark::Mummer,
                doram_trace::Benchmark::Libq,
                doram_trace::Benchmark::Black,
            ]
        } else {
            scale.benchmarks.clone()
        };
        for b in benches {
            let ratios = seeds
                .iter()
                .map(|&seed| ratio(b, &scale, seed))
                .collect::<Result<Vec<f64>, _>>()?;
            let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
            let var = ratios.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>()
                / (ratios.len() - 1) as f64;
            out.push_str(&format!(
                "{:<8} {:.3} ± {:.3}   (seeds: {})\n",
                b.to_string(),
                mean,
                var.sqrt(),
                ratios
                    .iter()
                    .map(|r| format!("{r:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        out.push_str("\nA spread ≪ the D-ORAM effect size means the shapes are not seed luck.\n");
        Ok::<String, ExperimentError>(out)
    })
    .expect("seed sensitivity failed");
}
