//! Access planning for timing simulation.
//!
//! A [`Planner`] turns "access the path to leaf ℓ" into the exact set of
//! physical block references the memory system must read (and later write
//! back): which *tree unit* or *normal channel* each block lives on and at
//! what byte address. Tree units abstract over schemes — in the Baseline
//! they are the four direct-attached channels; in D-ORAM they are the four
//! sub-channels of the secure channel behind the SD.

use crate::layout::{SubtreeLayout, TreeTopCache};
use crate::split::SplitConfig;
use crate::tree::TreeGeometry;

/// Where a tree block physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// One of the units hosting the (non-split part of the) tree: the
    /// secure channel's sub-channels in D-ORAM, or the direct channels in
    /// the Baseline.
    TreeUnit(usize),
    /// A normal channel (1-based index among all channels) holding a block
    /// of a split level (D-ORAM+k only).
    NormalChannel(usize),
}

/// One physical block touched by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// Where it lives.
    pub placement: Placement,
    /// Byte address within that unit's ORAM region.
    pub addr: u64,
    /// Tree level the block belongs to.
    pub level: u32,
}

doram_sim::impl_codec!(
    enum Placement {
        TreeUnit(unit) = 0,
        NormalChannel(channel) = 1,
    }
);
doram_sim::impl_codec!(struct BlockRef { placement, addr, level });

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Tree geometry (paper: L = 23, Z = 4).
    pub geometry: TreeGeometry,
    /// Subtree packing depth (paper: 7).
    pub subtree_levels: u32,
    /// Tree-top cache depth (paper: 3).
    pub cached_levels: u32,
    /// Tree split (D-ORAM+k); `SplitConfig::none()` otherwise.
    pub split: SplitConfig,
    /// Number of units the non-split tree is striped over (4 sub-channels
    /// in D-ORAM, 4 channels in the Baseline).
    pub tree_units: usize,
}

impl PlanConfig {
    /// The paper's default: L=23, Z=4, 7-level subtrees, 3 cached levels,
    /// no split, 4 units.
    pub fn paper_default() -> PlanConfig {
        PlanConfig {
            geometry: TreeGeometry::paper_default(),
            subtree_levels: 7,
            cached_levels: 3,
            split: SplitConfig::none(),
            tree_units: 4,
        }
    }

    /// Validates divisibility and depth constraints.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tree_units == 0 {
            return Err("tree_units must be positive".into());
        }
        if !(self.geometry.z as usize).is_multiple_of(self.tree_units) {
            return Err(format!(
                "Z = {} must be divisible by tree_units = {}",
                self.geometry.z, self.tree_units
            ));
        }
        if self.split.k >= self.geometry.levels() {
            return Err("split depth k must leave at least the root".into());
        }
        if self.cached_levels >= self.geometry.levels() {
            return Err("tree-top cache must not swallow the whole tree".into());
        }
        Ok(())
    }
}

/// The blocks one ORAM access touches. The write phase writes back exactly
/// the blocks the read phase fetched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// The leaf whose path is accessed.
    pub leaf: u64,
    /// Physical blocks, root-side first.
    pub blocks: Vec<BlockRef>,
}

impl AccessPlan {
    /// Blocks fetched during the read phase.
    pub fn reads(&self) -> &[BlockRef] {
        &self.blocks
    }

    /// Blocks written during the write phase (same set, per the protocol).
    pub fn writes(&self) -> &[BlockRef] {
        &self.blocks
    }

    /// Blocks that live on normal channels (split levels).
    pub fn split_blocks(&self) -> impl Iterator<Item = &BlockRef> {
        self.blocks
            .iter()
            .filter(|b| matches!(b.placement, Placement::NormalChannel(_)))
    }
}

/// Computes [`AccessPlan`]s for a configured tree.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlanConfig,
    layout: SubtreeLayout,
    cache: TreeTopCache,
    /// Byte size of each unit's non-split region (for region sizing).
    unit_region_bytes: u64,
}

impl Planner {
    /// Creates a planner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`PlanConfig::validate`]).
    pub fn new(cfg: PlanConfig) -> Planner {
        cfg.validate().expect("invalid plan config");
        let layout = SubtreeLayout::new(cfg.geometry, cfg.subtree_levels);
        let cache = TreeTopCache::new(cfg.cached_levels);
        let blocks_per_unit_per_bucket = (cfg.geometry.z as usize / cfg.tree_units) as u64;
        let unit_region_bytes = cfg.geometry.total_buckets() * blocks_per_unit_per_bucket * 64;
        Planner {
            cfg,
            layout,
            cache,
            unit_region_bytes,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PlanConfig {
        &self.cfg
    }

    /// Bytes of ORAM region each tree unit must reserve.
    pub fn unit_region_bytes(&self) -> u64 {
        self.unit_region_bytes
    }

    /// Blocks per access (both phases touch this many).
    pub fn blocks_per_phase(&self) -> u64 {
        self.cfg.geometry.blocks_per_phase(self.cfg.cached_levels)
    }

    /// Plans the access to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `leaf` is out of range.
    pub fn plan(&self, leaf: u64) -> AccessPlan {
        let g = &self.cfg.geometry;
        debug_assert!(leaf < g.num_leaves());
        let z = g.z;
        let bpu = (z as usize / self.cfg.tree_units) as u64;
        let mut blocks = Vec::with_capacity(self.blocks_per_phase() as usize);

        for level in 0..g.levels() {
            if self.cache.covers(level) {
                continue;
            }
            let bucket = g.bucket_on_path(leaf, level);
            if self.cfg.split.is_split_level(g, level) {
                let path_id = g.pos_in_level(bucket);
                // Dense per-level index within the split region.
                let level_base: u64 = (g.levels() - self.cfg.split.k..level)
                    .map(|l| 1u64 << l)
                    .sum();
                let bucket_serial = level_base + path_id;
                let mut dup_count = [0u64; 8];
                for slot in 0..z {
                    let ch = self.cfg.split.channel_for_slot(path_id, slot);
                    let dup = dup_count[ch];
                    dup_count[ch] += 1;
                    // Two slots reserved per bucket per channel keeps the
                    // addressing dense and collision-free.
                    let addr = (bucket_serial * 2 + dup) * 64;
                    blocks.push(BlockRef {
                        placement: Placement::NormalChannel(ch),
                        addr,
                        level,
                    });
                }
            } else {
                let serial = self.layout.serial(bucket);
                for slot in 0..z {
                    let unit = (slot as usize) % self.cfg.tree_units;
                    let idx = (slot as u64) / self.cfg.tree_units as u64;
                    let addr = (serial * bpu + idx) * 64;
                    blocks.push(BlockRef {
                        placement: Placement::TreeUnit(unit),
                        addr,
                        level,
                    });
                }
            }
        }
        AccessPlan { leaf, blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: u32, units: usize, cached: u32) -> PlanConfig {
        PlanConfig {
            geometry: TreeGeometry::new(9, 4),
            subtree_levels: 4,
            cached_levels: cached,
            split: if k == 0 {
                SplitConfig::none()
            } else {
                SplitConfig::new(k, 3)
            },
            tree_units: units,
        }
    }

    #[test]
    fn paper_plan_has_21x4_blocks() {
        let p = Planner::new(PlanConfig::paper_default());
        let plan = p.plan(12345);
        assert_eq!(plan.blocks.len() as u64, 21 * 4);
        assert_eq!(p.blocks_per_phase(), 84);
        assert_eq!(plan.reads().len(), plan.writes().len());
    }

    #[test]
    fn blocks_spread_evenly_over_units() {
        let p = Planner::new(cfg(0, 4, 0));
        let plan = p.plan(100);
        let mut per_unit = [0usize; 4];
        for b in &plan.blocks {
            match b.placement {
                Placement::TreeUnit(u) => per_unit[u] += 1,
                Placement::NormalChannel(_) => panic!("no split configured"),
            }
        }
        assert_eq!(per_unit, [10, 10, 10, 10]); // 10 levels × 1 block each
    }

    #[test]
    fn split_levels_go_to_normal_channels() {
        let p = Planner::new(cfg(2, 4, 0));
        let plan = p.plan(77);
        let split: Vec<_> = plan.split_blocks().collect();
        assert_eq!(split.len(), 2 * 4, "k levels × Z blocks");
        for b in &split {
            assert!(b.level >= 8, "only the last 2 of 10 levels split");
            match b.placement {
                Placement::NormalChannel(c) => assert!((1..=3).contains(&c)),
                Placement::TreeUnit(_) => unreachable!(),
            }
        }
        // Non-split part shrank accordingly.
        assert_eq!(plan.blocks.len(), 10 * 4);
    }

    #[test]
    fn cached_levels_produce_no_traffic() {
        let p_uncached = Planner::new(cfg(0, 4, 0));
        let p_cached = Planner::new(cfg(0, 4, 3));
        assert_eq!(
            p_uncached.plan(5).blocks.len() - p_cached.plan(5).blocks.len(),
            3 * 4
        );
        assert!(p_cached.plan(5).blocks.iter().all(|b| b.level >= 3));
    }

    #[test]
    fn addresses_within_a_unit_never_collide() {
        let p = Planner::new(cfg(1, 4, 0));
        use std::collections::HashSet;
        let mut seen: HashSet<(Placement, u64)> = HashSet::new();
        // All addresses across several distinct paths must be distinct per
        // placement (same bucket on shared prefix is the same address —
        // dedupe by (placement, addr) per path set).
        let plan = p.plan(0);
        for b in &plan.blocks {
            assert!(
                seen.insert((b.placement, b.addr)),
                "collision at {:?} {:#x}",
                b.placement,
                b.addr
            );
        }
    }

    #[test]
    fn shared_prefix_paths_share_addresses() {
        let p = Planner::new(cfg(0, 4, 0));
        // Leaves 0 and 1 share all levels except the last.
        let a = p.plan(0);
        let b = p.plan(1);
        let same = a
            .blocks
            .iter()
            .zip(b.blocks.iter())
            .filter(|(x, y)| x == y)
            .count();
        assert_eq!(same, 9 * 4, "9 shared levels of 10");
    }

    #[test]
    fn two_units_give_two_blocks_per_bucket_per_unit() {
        let p = Planner::new(cfg(0, 2, 0));
        let plan = p.plan(3);
        let unit0: Vec<_> = plan
            .blocks
            .iter()
            .filter(|b| b.placement == Placement::TreeUnit(0))
            .collect();
        assert_eq!(unit0.len(), 10 * 2);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = cfg(0, 3, 0); // 4 % 3 != 0
        assert!(c.validate().is_err());
        c = cfg(0, 4, 0);
        c.split = SplitConfig::new(10, 3); // k = levels
        assert!(c.validate().is_err());
        c = cfg(0, 4, 0);
        c.cached_levels = 10;
        assert!(c.validate().is_err());
        c = cfg(0, 4, 0);
        c.tree_units = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn region_sizing() {
        let p = Planner::new(cfg(0, 4, 0));
        // 2^10−1 buckets × 1 block/unit/bucket × 64 B.
        assert_eq!(p.unit_region_bytes(), 1023 * 64);
        assert!(p.config().validate().is_ok());
    }
}
