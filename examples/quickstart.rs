//! Quickstart: simulate the D-ORAM co-run and print the headline numbers.
//!
//! Runs four configurations of the paper's workload shape (1 S-App + 7
//! NS-Apps, all the same benchmark) and reports how much execution time
//! the NS-Apps lose to the S-App's protection under each scheme.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark] [accesses]
//! ```

use doram::core::{Scheme, Simulation, SystemConfig};
use doram::trace::Benchmark;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let bench = args
        .get(1)
        .and_then(|name| Benchmark::ALL.into_iter().find(|b| b.spec().name == *name))
        .unwrap_or(Benchmark::Mummer);
    let accesses: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2_000);

    println!(
        "benchmark: {bench} (MPKI {}), {accesses} accesses/NS-App\n",
        bench.spec().mpki
    );

    let run = |scheme: Scheme| -> Result<f64, Box<dyn Error>> {
        let cfg = SystemConfig::builder(bench)
            .scheme(scheme)
            .ns_accesses(accesses)
            .build()?;
        let report = Simulation::new(cfg)?.run()?;
        Ok(report.ns_exec_mean())
    };

    let solo = run(Scheme::SoloNs)?;
    println!(
        "{:>12}: {solo:>12.0} CPU cycles (the 1NS reference)",
        "solo"
    );
    for scheme in [
        Scheme::Ns7on4,
        Scheme::Baseline,
        Scheme::DOram { k: 0, c: 7 },
        Scheme::DOram { k: 1, c: 4 },
    ] {
        let t = run(scheme)?;
        println!(
            "{:>12}: {t:>12.0} CPU cycles  ({:.2}x solo)",
            scheme.label(),
            t / solo
        );
    }
    println!(
        "\nThe D-ORAM rows should sit between 7NS-4ch (no S-App at all) and\n\
         Baseline (Path ORAM run from the CPU across all four channels)."
    );
    Ok(())
}
