//! Physical layout: subtree packing and the tree-top cache.
//!
//! Ren et al. \[32\] observed that laying buckets out heap-order wastes DRAM
//! row-buffer locality: consecutive levels of a path live megabytes apart.
//! Packing *subtrees* of `s` levels contiguously makes one path touch only
//! `ceil(levels / s)` distinct regions, each about one DRAM row long. The
//! paper uses `s = 7` below a 3-level tree-top cache (§IV: "rest of 21
//! levels are divided into three sections of 7-level subtrees").

use crate::tree::TreeGeometry;

/// Subtree-packed bucket serialization.
///
/// Maps a bucket's heap index to a dense *serial index*; physical block
/// addresses derive from the serial index. Buckets of the same subtree get
/// consecutive serials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeLayout {
    geometry: TreeGeometry,
    subtree_levels: u32,
}

impl SubtreeLayout {
    /// Creates a layout packing `subtree_levels`-deep subtrees.
    ///
    /// # Panics
    ///
    /// Panics if `subtree_levels == 0`.
    pub fn new(geometry: TreeGeometry, subtree_levels: u32) -> SubtreeLayout {
        assert!(subtree_levels > 0, "subtree depth must be positive");
        SubtreeLayout {
            geometry,
            subtree_levels,
        }
    }

    /// The tree geometry being laid out.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Number of levels per packed subtree.
    pub fn subtree_levels(&self) -> u32 {
        self.subtree_levels
    }

    /// Number of level-strata.
    fn strata(&self) -> u32 {
        self.geometry.levels().div_ceil(self.subtree_levels)
    }

    /// Levels contained in stratum `s`.
    fn levels_in_stratum(&self, s: u32) -> u32 {
        let start = s * self.subtree_levels;
        (self.geometry.levels() - start).min(self.subtree_levels)
    }

    /// Buckets in one subtree of stratum `s`.
    fn subtree_buckets(&self, s: u32) -> u64 {
        (1 << self.levels_in_stratum(s)) - 1
    }

    /// Total buckets in strata before `s`.
    fn stratum_base(&self, s: u32) -> u64 {
        (0..s)
            .map(|i| {
                let roots = 1u64 << (i * self.subtree_levels);
                roots * self.subtree_buckets(i)
            })
            .sum()
    }

    /// Dense serial index of a bucket under subtree packing.
    pub fn serial(&self, bucket: u64) -> u64 {
        let g = &self.geometry;
        let level = g.level_of(bucket);
        let pos = g.pos_in_level(bucket);
        let stratum = level / self.subtree_levels;
        let local_level = level - stratum * self.subtree_levels;
        let subtree_idx = pos >> local_level;
        let local_pos = pos & ((1 << local_level) - 1);
        let local_serial = ((1u64 << local_level) - 1) + local_pos;
        self.stratum_base(stratum) + subtree_idx * self.subtree_buckets(stratum) + local_serial
    }

    /// Distinct contiguous regions a path touches (one per stratum).
    pub fn regions_per_path(&self) -> u32 {
        self.strata()
    }

    /// Byte address of `(bucket, slot)` within one sub-channel, when each
    /// bucket contributes exactly one block (its `slot`-th) to that
    /// sub-channel — the secure channel's 4-sub-channel distribution.
    pub fn block_addr_in_subchannel(&self, bucket: u64) -> u64 {
        self.serial(bucket) * 64
    }
}

/// Tree-top cache: the top `levels` of buckets live in SD SRAM and produce
/// no DRAM traffic (§IV caches 3 levels; \[32\] introduced the idea).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeTopCache {
    levels: u32,
}

impl TreeTopCache {
    /// Creates a cache holding the top `levels` levels.
    pub fn new(levels: u32) -> TreeTopCache {
        TreeTopCache { levels }
    }

    /// Cached levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Whether the bucket at `level` is served from the cache.
    pub fn covers(&self, level: u32) -> bool {
        level < self.levels
    }

    /// SRAM the cache needs for geometry `g`, in bytes (Z blocks of 64 B
    /// per bucket).
    pub fn sram_bytes(&self, g: &TreeGeometry) -> u64 {
        let buckets: u64 = (0..self.levels.min(g.levels())).map(|l| 1u64 << l).sum();
        buckets * g.z as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(l_max: u32, s: u32) -> SubtreeLayout {
        SubtreeLayout::new(TreeGeometry::new(l_max, 4), s)
    }

    #[test]
    fn serial_is_a_permutation() {
        let lay = layout(8, 3);
        let total = lay.geometry().total_buckets();
        let mut seen = vec![false; total as usize];
        for b in 0..total {
            let s = lay.serial(b);
            assert!(s < total, "serial {s} out of range for bucket {b}");
            assert!(!seen[s as usize], "serial collision at bucket {b}");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn subtree_buckets_are_contiguous() {
        // Stratum 1 of a 3-level-packed tree: levels 3..6. The subtree
        // rooted at level-3 position 0 holds buckets whose serials form a
        // contiguous run.
        let lay = layout(8, 3);
        let g = *lay.geometry();
        let mut serials = Vec::new();
        for level in 3..6u32 {
            let width = 1u64 << (level - 3);
            for pos in 0..width {
                let bucket = (1u64 << level) - 1 + pos;
                assert_eq!(g.level_of(bucket), level);
                serials.push(lay.serial(bucket));
            }
        }
        serials.sort_unstable();
        for w in serials.windows(2) {
            assert_eq!(w[1], w[0] + 1, "subtree serials must be contiguous");
        }
    }

    #[test]
    fn path_touches_one_region_per_stratum() {
        let lay = layout(20, 7);
        assert_eq!(lay.regions_per_path(), 3);
        let g = *lay.geometry();
        // Max spread of path serials within each stratum ≤ subtree size.
        for leaf in [0u64, 12345, g.num_leaves() - 1] {
            for stratum in 0..3u32 {
                let lo = stratum * 7;
                let hi = ((stratum + 1) * 7).min(g.levels()) - 1;
                let serials: Vec<u64> = (lo..=hi)
                    .map(|l| lay.serial(g.bucket_on_path(leaf, l)))
                    .collect();
                let min = *serials.iter().min().unwrap();
                let max = *serials.iter().max().unwrap();
                assert!(
                    max - min < 127,
                    "stratum {stratum} of leaf {leaf} spread {}",
                    max - min
                );
            }
        }
    }

    #[test]
    fn heap_layout_spreads_paths_much_wider() {
        // Sanity: the subtree layout's win exists. In heap order the path's
        // last two levels are ~2^L apart; in subtree order they are < 127
        // apart whenever they share a stratum.
        let lay = layout(13, 7);
        let g = *lay.geometry();
        let leaf = 999 % g.num_leaves();
        let b_a = g.bucket_on_path(leaf, 12);
        let b_b = g.bucket_on_path(leaf, 13);
        assert!(b_b - b_a > 4000, "heap indices far apart");
        let s_a = lay.serial(b_a);
        let s_b = lay.serial(b_b);
        assert!(s_a.abs_diff(s_b) < 127, "subtree serials near");
    }

    #[test]
    fn paper_configuration_has_three_strata_below_cache() {
        // 24 levels, 3 cached + 21 = 3 × 7-level sections (§IV).
        let g = TreeGeometry::paper_default();
        let lay = SubtreeLayout::new(g, 7);
        assert_eq!(lay.regions_per_path(), 4); // 24 levels / 7 = 4 strata
                                               // With the top 3 levels cached, the cached levels all live in
                                               // stratum 0, so DRAM sees at most 4 regions per path.
        let cache = TreeTopCache::new(3);
        assert!(cache.covers(0) && cache.covers(2) && !cache.covers(3));
    }

    #[test]
    fn tree_top_cache_sram_budget() {
        let g = TreeGeometry::paper_default();
        // Top 3 levels: 1+2+4 = 7 buckets × 4 × 64 B = 1792 B.
        assert_eq!(TreeTopCache::new(3).sram_bytes(&g), 1792);
        assert_eq!(TreeTopCache::new(0).sram_bytes(&g), 0);
    }

    #[test]
    fn block_addresses_are_line_aligned_and_unique() {
        let lay = layout(6, 3);
        let mut addrs: Vec<u64> = (0..lay.geometry().total_buckets())
            .map(|b| lay.block_addr_in_subchannel(b))
            .collect();
        for &a in &addrs {
            assert_eq!(a % 64, 0);
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len() as u64, lay.geometry().total_buckets());
    }
}
