//! Table I: balancing space demand across channels with tree split k.
//!
//! Analytical, plus an empirical cross-check against the planner: the
//! fraction of per-access blocks placed on each channel and the extra
//! messages per access must match the closed forms.

use crate::onchip_oram::{OramFsm, OramJob};
use crate::report::{fmt_pct, render_table};
use doram_oram::plan::{Placement, PlanConfig, Planner};
use doram_oram::split::SplitConfig;
use doram_oram::tree::TreeGeometry;
use doram_sim::rng::Xoshiro256;

/// One Table I row.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Split depth.
    pub k: u32,
    /// Fraction of tree data on channel #0.
    pub ch0_frac: f64,
    /// Fraction of tree data on each normal channel.
    pub per_normal_frac: f64,
    /// Extra packets of each kind (short read / response / write) on
    /// channel #0's link per access: 4k.
    pub ch0_packets: u64,
    /// Extra packets of each kind per normal channel: m ∈ [k, 2k].
    pub per_normal_min: u64,
    /// Upper bound of the same.
    pub per_normal_max: u64,
}

/// Computes Table I for k = 1..=3 with the paper's geometry.
pub fn run() -> Vec<Table1Row> {
    let g = TreeGeometry::paper_default();
    (1..=3)
        .map(|k| {
            let acc = SplitConfig::new(k, 3).space_fractions(&g);
            Table1Row {
                k,
                ch0_frac: acc.secure_frac,
                per_normal_frac: acc.per_normal_frac,
                ch0_packets: acc.ch0_extra_packets_per_kind,
                per_normal_min: acc.per_normal_min,
                per_normal_max: acc.per_normal_max,
            }
        })
        .collect()
}

/// Empirically counts split blocks per channel over `n` random accesses
/// and verifies them against the analytical bounds. Returns per-channel
/// mean split blocks per access for `(ch1, ch2, ch3)`.
pub fn empirical_split_blocks(k: u32, n: u64) -> [f64; 3] {
    let cfg = PlanConfig {
        geometry: TreeGeometry::paper_default(),
        subtree_levels: 7,
        cached_levels: 3,
        split: SplitConfig::new(k, 3),
        tree_units: 4,
    };
    let planner = Planner::new(cfg);
    let mut rng = Xoshiro256::seed_from(11);
    let mut counts = [0u64; 3];
    for _ in 0..n {
        let leaf = rng.gen_below(cfg.geometry.num_leaves());
        for b in planner.plan(leaf).split_blocks() {
            if let Placement::NormalChannel(c) = b.placement {
                counts[c - 1] += 1;
            }
        }
    }
    counts.map(|c| c as f64 / n as f64)
}

/// Renders the table.
pub fn render(rows: &[Table1Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.k.to_string(),
                fmt_pct(r.ch0_frac),
                fmt_pct(r.per_normal_frac),
                format!("{}+{}+{}", r.ch0_packets, r.ch0_packets, r.ch0_packets),
                format!("m∈[{},{}] ×3 kinds", r.per_normal_min, r.per_normal_max),
            ]
        })
        .collect();
    let mut out = String::from("Table I — space demand and extra messages vs split depth k\n");
    out.push_str(&render_table(
        &[
            "k",
            "ch#0 data",
            "ch#1-3 data (each)",
            "ch#0 extra pkts",
            "normal extra pkts",
        ],
        &body,
    ));
    out.push_str("paper: k=1 → 50.0%/16.7%; k=2 → 25.0%/25.0%; k=3 → 12.5%/29.2%\n");
    out
}

/// Uses the FSM end to end to confirm a full access touches exactly
/// `(levels − cached) × Z` blocks (the denominator behind Table I).
pub fn blocks_per_access_check() -> (u64, u64) {
    let cfg = PlanConfig {
        geometry: TreeGeometry::paper_default(),
        subtree_levels: 7,
        cached_levels: 3,
        split: SplitConfig::none(),
        tree_units: 4,
    };
    let fsm = OramFsm::new(cfg, 1, 2);
    let planned = fsm.planner().blocks_per_phase();
    let _ = OramJob::Dummy;
    (planned, 21 * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_rows_match_paper() {
        let rows = run();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].ch0_frac - 0.50).abs() < 1e-3);
        assert!((rows[1].ch0_frac - 0.25).abs() < 1e-3);
        assert!((rows[2].per_normal_frac - 0.292).abs() < 1e-3);
        assert_eq!(rows[1].ch0_packets, 8);
        assert_eq!(rows[2].per_normal_max, 6);
    }

    #[test]
    fn empirical_blocks_within_bounds_and_balanced() {
        for k in 1..=3u32 {
            let per_ch = empirical_split_blocks(k, 400);
            let total: f64 = per_ch.iter().sum();
            assert!((total - (4 * k) as f64).abs() < 1e-9, "total {total}");
            for (i, &m) in per_ch.iter().enumerate() {
                assert!(
                    m >= k as f64 - 1e-9 && m <= 2.0 * k as f64 + 1e-9,
                    "k={k} ch{} m={m} out of [k,2k]",
                    i + 1
                );
            }
            // Means balance to 4k/3 per channel over random paths.
            for &m in &per_ch {
                assert!((m - 4.0 * k as f64 / 3.0).abs() < 0.2 * k as f64, "m={m}");
            }
        }
    }

    #[test]
    fn blocks_per_access_matches_paper_arithmetic() {
        let (planned, expected) = blocks_per_access_check();
        assert_eq!(planned, expected);
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render(&run());
        assert!(text.contains("16.7%") && text.contains("29.2%"));
    }
}
