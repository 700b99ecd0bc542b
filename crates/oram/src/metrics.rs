//! Protocol-quality metrics: bucket occupancy and eviction efficiency.
//!
//! Path ORAM's performance story rests on how full buckets run: sparse
//! buckets near the root and dense ones near the leaves is the expected
//! steady state (blocks sink as far as their path allows). These metrics
//! quantify that distribution for a live [`PathOram`], for tests,
//! examples, and tuning studies.

use crate::protocol::PathOram;

/// Occupancy snapshot of an ORAM's tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyProfile {
    /// Mean occupied slots per bucket, per level (root first). Levels
    /// with no materialized bucket report 0.
    pub mean_per_level: Vec<f64>,
    /// Total resident blocks in the tree.
    pub tree_blocks: u64,
    /// Blocks currently in the stash.
    pub stash_blocks: u64,
    /// Highest stash occupancy ever observed (the high-water mark the
    /// stash bound of Stefanov et al. is measured against).
    pub stash_peak: u64,
    /// Fraction of all tree slots occupied.
    pub utilization: f64,
}

impl OccupancyProfile {
    /// Measures `oram`'s current occupancy.
    pub fn measure<V: Clone>(oram: &PathOram<V>) -> OccupancyProfile {
        let g = *oram.geometry();
        let mut per_level_blocks = vec![0u64; g.levels() as usize];
        let mut tree_blocks = 0u64;
        for (bucket, count) in oram.bucket_occupancy() {
            let level = g.level_of(bucket) as usize;
            per_level_blocks[level] += count as u64;
            tree_blocks += count as u64;
        }
        let mean_per_level = per_level_blocks
            .iter()
            .enumerate()
            .map(|(l, &blocks)| blocks as f64 / (1u64 << l) as f64)
            .collect();
        OccupancyProfile {
            mean_per_level,
            tree_blocks,
            stash_blocks: oram.stash_len() as u64,
            stash_peak: oram.stash_peak() as u64,
            utilization: tree_blocks as f64 / g.total_blocks() as f64,
        }
    }

    /// Whether occupancy increases toward the leaves (the healthy Path
    /// ORAM shape), comparing the top and bottom halves of the tree.
    pub fn bottom_heavy(&self) -> bool {
        let n = self.mean_per_level.len();
        if n < 2 {
            return true;
        }
        let half = n / 2;
        let top: f64 = self.mean_per_level[..half].iter().sum::<f64>() / half as f64;
        let bottom: f64 = self.mean_per_level[half..].iter().sum::<f64>() / (n - half) as f64;
        bottom >= top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::rng::Xoshiro256;

    #[test]
    fn empty_oram_is_empty() {
        let oram: PathOram<u8> = PathOram::new(6, 4, 1);
        let p = OccupancyProfile::measure(&oram);
        assert_eq!(p.tree_blocks, 0);
        assert_eq!(p.stash_blocks, 0);
        assert_eq!(p.utilization, 0.0);
    }

    #[test]
    fn conservation_blocks_never_vanish() {
        let mut oram = PathOram::new(7, 4, 2);
        let mut rng = Xoshiro256::seed_from(3);
        let mut touched = std::collections::HashSet::new();
        for i in 0..3_000u64 {
            let b = rng.gen_below(500);
            touched.insert(b);
            oram.write(b, i);
        }
        let p = OccupancyProfile::measure(&oram);
        assert_eq!(
            p.tree_blocks + p.stash_blocks,
            touched.len() as u64,
            "every written block lives in tree or stash"
        );
        assert!(
            p.stash_peak >= p.stash_blocks,
            "high-water mark below current occupancy"
        );
    }

    #[test]
    fn steady_state_is_bottom_heavy() {
        let mut oram = PathOram::new(8, 4, 4);
        let universe = oram.geometry().user_blocks();
        let mut rng = Xoshiro256::seed_from(5);
        for i in 0..10_000u64 {
            oram.write(rng.gen_below(universe), i);
        }
        let p = OccupancyProfile::measure(&oram);
        assert!(p.bottom_heavy(), "profile {:?}", p.mean_per_level);
        assert!(p.utilization > 0.1);
        // Leaf level denser than the root level in steady state.
        let root = p.mean_per_level[0];
        let leaf = *p.mean_per_level.last().unwrap();
        assert!(leaf > root, "leaf {leaf} vs root {root}");
    }
}
