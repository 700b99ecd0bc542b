//! Stash-occupancy characterization of the Path ORAM protocol.
//!
//! Path ORAM's security argument needs the stash to stay small with
//! overwhelming probability (Stefanov et al. prove an exponential tail
//! for Z ≥ 4, and §III-C's ~50% space-efficiency rule exists to keep
//! overflow negligible). This example measures the stash empirically:
//! occupancy distribution under sustained random writes, at several
//! utilization levels, plus the effect of bucket size Z.
//!
//! ```text
//! cargo run --release --example stash_behavior
//! ```

use doram::oram::protocol::PathOram;
use doram::sim::rng::Xoshiro256;
use doram::sim::stats::Histogram;
use std::error::Error;

fn characterize(l_max: u32, z: u32, utilization: f64, accesses: u64) -> (f64, usize, Histogram) {
    let mut oram: PathOram<u64> = PathOram::new(l_max, z, 42);
    let universe = ((oram.geometry().total_blocks() as f64) * utilization) as u64;
    let mut rng = Xoshiro256::seed_from(7);
    let mut hist = Histogram::new(1, 64);
    let mut sum = 0u64;
    for i in 0..accesses {
        oram.write(rng.gen_below(universe.max(1)), i);
        hist.record(oram.stash_len() as u64);
        sum += oram.stash_len() as u64;
    }
    (sum as f64 / accesses as f64, oram.stash_peak(), hist)
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("stash occupancy after each access (L=10 tree, 20k random writes)\n");
    println!(
        "{:>4} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "Z", "utilization", "mean", "p99", "peak", "status"
    );
    for &(z, util) in &[
        (4u32, 0.25f64),
        (4, 0.50), // the paper's operating point
        (4, 0.75),
        (4, 0.95),
        (2, 0.50),
        (6, 0.50),
    ] {
        let (mean, peak, hist) = characterize(10, z, util, 20_000);
        let p99 = hist.quantile(0.99).unwrap_or(0);
        // Judge by the p99 tail: the peak includes a cold-start transient
        // while the first writes populate an empty tree.
        let status = if p99 < 20 { "bounded" } else { "heavy tail" };
        println!(
            "{z:>4} {:>11.0}% {mean:>10.2} {p99:>8} {peak:>8} {status:>8}",
            util * 100.0
        );
    }
    println!(
        "\nAt the paper's Z = 4 / 50%-utilization point the stash stays in the\n\
         single digits — which is why a ~1 mm² on-BOB secure delegator (§III-E)\n\
         can hold it entirely in SRAM. Pushing utilization toward 100% (or\n\
         shrinking Z) makes the tail blow up: that is the overflow failure the\n\
         50% space-efficiency rule avoids."
    );
    Ok(())
}
