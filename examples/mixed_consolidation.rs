//! Server consolidation with a heterogeneous tenant mix.
//!
//! The paper evaluates homogeneous co-runs (all eight apps the same
//! program); a real consolidated server mixes tenants. This example runs
//! one protected S-App next to seven *different* NS-Apps and shows how
//! D-ORAM's relief is distributed: memory-hungry tenants gain the most,
//! light tenants mostly pay the BOB link.
//!
//! ```text
//! cargo run --release --example mixed_consolidation
//! ```

use doram::core::{Scheme, Simulation, SystemConfig};
use doram::trace::Benchmark;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // The S-App is a (protected) genome aligner; the tenants range from
    // streaming analytics to low-intensity services.
    let sapp = Benchmark::Mummer;
    let tenants = vec![
        Benchmark::Face,   // heavy streaming
        Benchmark::Leslie, // heavy streaming
        Benchmark::Libq,   // medium streaming
        Benchmark::Comm2,  // medium random
        Benchmark::Swapt,  // medium mixed
        Benchmark::Comm4,  // light random
        Benchmark::Black,  // light mixed
    ];

    let run = |scheme: Scheme| -> Result<Vec<u64>, Box<dyn Error>> {
        let cfg = SystemConfig::builder(sapp)
            .scheme(scheme)
            .ns_benchmarks(tenants.clone())
            .ns_accesses(1_500)
            .build()?;
        Ok(Simulation::new(cfg)?.run()?.ns_exec_cpu_cycles)
    };

    let baseline = run(Scheme::Baseline)?;
    let doram = run(Scheme::DOram { k: 0, c: 7 })?;

    println!("per-tenant execution time, D-ORAM normalized to Baseline:\n");
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>8}",
        "tenant", "MPKI", "baseline", "d-oram", "ratio"
    );
    for (i, b) in tenants.iter().enumerate() {
        println!(
            "{:<8} {:>6.1} {:>12} {:>12} {:>8.3}",
            b.spec().name,
            b.spec().mpki,
            baseline[i],
            doram[i],
            doram[i] as f64 / baseline[i] as f64
        );
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    println!(
        "\nmean: {:.3} (delegation helps the mix even though tenants disagree)",
        mean(&doram) / mean(&baseline)
    );
    Ok(())
}
