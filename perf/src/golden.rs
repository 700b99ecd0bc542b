//! Report digests and the checked-in golden table they must match.

use crate::workload::{Workload, BENCHES};
use doram_core::report::report_json;
use doram_core::RunReport;
use doram_obs::json::{self, JsonValue};
use doram_sim::snapshot::fnv1a64;

/// Seeds the golden table covers; 2 is held out from tuning.
pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];

/// Where `perf bless` writes the table (compiled in by [`expected`]).
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

const GOLDEN_JSON: &str = include_str!("../golden.json");

/// FNV-1a-64 digest of a run's `report_json`: byte-identical reports, and
/// only those, share a digest.
pub fn digest(report: &RunReport) -> u64 {
    fnv1a64(report_json(report).as_bytes())
}

/// The golden digests of `workload` at `seed`, one per batch benchmark,
/// or `None` when the seed is not covered.
pub fn expected(workload: &Workload, seed: u64) -> Option<[u64; 3]> {
    let table = json::parse(GOLDEN_JSON).expect("golden.json parses");
    let entry = table.get(workload.name)?.get(&seed.to_string())?;
    let mut out = [0; 3];
    for (slot, bench) in out.iter_mut().zip(BENCHES) {
        let hex = entry.get(&bench.to_string()).and_then(JsonValue::as_str)?;
        *slot = u64::from_str_radix(hex, 16).ok()?;
    }
    Some(out)
}

/// One workload's golden digests: per seed, one per batch benchmark.
pub type Entry = (Workload, Vec<(u64, [u64; 3])>);

/// Renders the golden table.
pub fn render(table: &[Entry]) -> String {
    let workloads: Vec<String> = table
        .iter()
        .map(|(w, seeds)| {
            let seeds: Vec<String> = seeds
                .iter()
                .map(|(seed, digests)| {
                    let digests: Vec<String> = BENCHES
                        .iter()
                        .zip(digests)
                        .map(|(b, d)| format!("\"{b}\": \"{d:016x}\""))
                        .collect();
                    format!("    \"{seed}\": {{{}}}", digests.join(", "))
                })
                .collect();
            format!("  \"{}\": {{\n{}\n  }}", w.name, seeds.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", workloads.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use doram_core::{Scheme, Simulation, SystemConfig};
    use doram_trace::Benchmark;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digests_are_stable_across_runs_and_sensitive_to_input() {
        let run = |seed| {
            let cfg = SystemConfig::builder(Benchmark::Libq)
                .scheme(Scheme::DOram { k: 0, c: 7 })
                .ns_accesses(300)
                .tree_l_max(12)
                .seed(seed)
                .build()
                .unwrap();
            digest(&Simulation::new(cfg).unwrap().run().unwrap())
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn golden_table_covers_every_workload_and_seed() {
        for w in WORKLOADS {
            for seed in GOLDEN_SEEDS {
                assert!(expected(&w, seed).is_some(), "{} seed {seed}", w.name);
            }
            assert!(expected(&w, 3).is_none());
        }
    }

    #[test]
    fn rendered_table_parses_back() {
        let table = [
            (WORKLOADS[0], vec![(1, [1, 2, 3]), (2, [4, 5, u64::MAX])]),
            (WORKLOADS[1], vec![(1, [7, 8, 9])]),
        ];
        let doc = json::parse(&render(&table)).unwrap();
        let hex = doc
            .get("doram-corun")
            .and_then(|w| w.get("2"))
            .and_then(|s| s.get("comm4"))
            .and_then(JsonValue::as_str);
        assert_eq!(hex, Some("ffffffffffffffff"));
        assert!(doc.get("baseline-oram").and_then(|w| w.get("1")).is_some());
    }
}
