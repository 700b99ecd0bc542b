//! Property-based tests of the Path ORAM protocol and its layout/split
//! machinery.

use doram_oram::layout::SubtreeLayout;
use doram_oram::plan::{Placement, PlanConfig, Planner};
use doram_oram::protocol::PathOram;
use doram_oram::split::SplitConfig;
use doram_oram::tree::TreeGeometry;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Path ORAM behaves exactly like a key-value map, for any interleaving
    /// of reads and writes.
    #[test]
    fn oram_matches_reference_map(
        ops in prop::collection::vec((0u64..200, prop::option::of(0u64..1000)), 1..400),
        seed in 0u64..1000,
    ) {
        let mut oram = PathOram::new(7, 4, seed);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (block, maybe_write) in ops {
            match maybe_write {
                Some(v) => {
                    let prev = oram.write(block, v);
                    prop_assert_eq!(prev, reference.insert(block, v));
                }
                None => {
                    prop_assert_eq!(oram.read(block), reference.get(&block).copied());
                }
            }
        }
        oram.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// The stash stays small across random write bursts (empirical bound;
    /// Z = 4 keeps it in the tens w.h.p.).
    #[test]
    fn stash_bounded(seed in 0u64..50) {
        let mut oram = PathOram::new(8, 4, seed);
        let universe = oram.geometry().user_blocks();
        for i in 0..4000u64 {
            oram.write((i * 2654435761) % universe, i);
        }
        prop_assert!(oram.stash_peak() < 200, "peak {}", oram.stash_peak());
    }

    /// Subtree-layout serials are a permutation for arbitrary geometry.
    #[test]
    fn layout_serial_bijective(l_max in 1u32..12, s in 1u32..9) {
        let lay = SubtreeLayout::new(TreeGeometry::new(l_max, 4), s);
        let total = lay.geometry().total_buckets();
        let mut seen = vec![false; total as usize];
        for b in 0..total {
            let idx = lay.serial(b) as usize;
            prop_assert!(idx < total as usize);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
    }

    /// Every plan covers each uncached level exactly Z times, and split
    /// blocks land only on normal channels 1..=3.
    #[test]
    fn plans_cover_all_levels(
        leaf_sel in 0u64..u64::MAX,
        k in 0u32..4,
        cached in 0u32..4,
    ) {
        let geometry = TreeGeometry::new(10, 4);
        let cfg = PlanConfig {
            geometry,
            subtree_levels: 4,
            cached_levels: cached,
            split: if k == 0 { SplitConfig::none() } else { SplitConfig::new(k, 3) },
            tree_units: 4,
        };
        let planner = Planner::new(cfg);
        let leaf = leaf_sel % geometry.num_leaves();
        let plan = planner.plan(leaf);

        let mut per_level: HashMap<u32, u32> = HashMap::new();
        for b in &plan.blocks {
            *per_level.entry(b.level).or_default() += 1;
            if b.level >= geometry.levels() - k && k > 0 {
                prop_assert!(matches!(b.placement, Placement::NormalChannel(1..=3)));
            } else {
                prop_assert!(matches!(b.placement, Placement::TreeUnit(0..=3)));
            }
        }
        for level in 0..geometry.levels() {
            let expect = if level < cached { 0 } else { 4 };
            prop_assert_eq!(per_level.get(&level).copied().unwrap_or(0), expect,
                "level {}", level);
        }
    }

    /// Space fractions always sum to 1 across the secure and normal
    /// channels.
    #[test]
    fn split_fractions_sum_to_one(k in 0u32..6, l_max in 6u32..20) {
        let g = TreeGeometry::new(l_max, 4);
        let acc = SplitConfig::new(k.max(1), 3).space_fractions(&g);
        let total = acc.secure_frac + 3.0 * acc.per_normal_frac;
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {}", total);
    }
}
