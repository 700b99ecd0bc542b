//! Position map: logical block → leaf.
//!
//! The map is lazy: a block is assigned a uniformly random leaf the first
//! time it is touched (equivalent to initializing the whole map up front,
//! but it lets simulations address the paper's 2^23-leaf tree without
//! materializing 8 M entries).

use doram_sim::rng::Xoshiro256;
use doram_sim::snapshot::SnapshotError;
use std::collections::HashMap;

/// Lazy position map.
#[derive(Debug, Clone)]
pub struct PositionMap {
    map: HashMap<u64, u64>,
    num_leaves: u64,
    rng: Xoshiro256,
}

impl PositionMap {
    /// Creates a map over `num_leaves` leaves, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves == 0`.
    pub fn new(num_leaves: u64, seed: u64) -> PositionMap {
        assert!(num_leaves > 0, "need at least one leaf");
        PositionMap {
            map: HashMap::new(),
            num_leaves,
            rng: Xoshiro256::stream(seed, 0x705_1710),
        }
    }

    /// Current leaf of `block`, assigning a random one on first touch.
    pub fn leaf_of(&mut self, block: u64) -> u64 {
        let leaves = self.num_leaves;
        *self
            .map
            .entry(block)
            .or_insert_with(|| self.rng.gen_below(leaves))
    }

    /// Remaps `block` to a fresh uniformly random leaf and returns it.
    pub fn remap(&mut self, block: u64) -> u64 {
        let leaf = self.rng.gen_below(self.num_leaves);
        self.map.insert(block, leaf);
        leaf
    }

    /// Pins `block` to `leaf` (used when an external authority — e.g. a
    /// recursive position map — owns the mapping).
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn set(&mut self, block: u64, leaf: u64) {
        assert!(leaf < self.num_leaves, "leaf out of range");
        self.map.insert(block, leaf);
    }

    /// Leaf of `block` if it was ever touched.
    pub fn get(&self, block: u64) -> Option<u64> {
        self.map.get(&block).copied()
    }

    /// Number of blocks ever touched.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no block was ever touched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Rejects restored leaves outside the configured tree.
    fn check_leaves(&self) -> Result<(), SnapshotError> {
        match self.map.values().find(|&&leaf| leaf >= self.num_leaves) {
            Some(leaf) => Err(SnapshotError::new(format!(
                "position map leaf {leaf} out of range for {} leaves",
                self.num_leaves
            ))),
            None => Ok(()),
        }
    }
}

doram_sim::impl_snapshot!(PositionMap { map, rng } skip { num_leaves } after_load PositionMap::check_leaves);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_assigns_stable_leaf() {
        let mut pm = PositionMap::new(1024, 7);
        let l = pm.leaf_of(42);
        assert!(l < 1024);
        assert_eq!(pm.leaf_of(42), l, "stable until remapped");
        assert_eq!(pm.get(42), Some(l));
        assert_eq!(pm.get(43), None);
    }

    #[test]
    fn remap_changes_leaf_usually() {
        let mut pm = PositionMap::new(1 << 20, 9);
        let a = pm.leaf_of(5);
        let b = pm.remap(5);
        // With 2^20 leaves a collision is vanishingly unlikely.
        assert_ne!(a, b);
        assert_eq!(pm.leaf_of(5), b);
    }

    #[test]
    fn leaves_are_roughly_uniform() {
        let mut pm = PositionMap::new(4, 3);
        let mut counts = [0u32; 4];
        for b in 0..8000 {
            counts[pm.leaf_of(b) as usize] += 1;
        }
        for &c in &counts {
            assert!((1700..2300).contains(&c), "skewed: {counts:?}");
        }
    }

    #[test]
    fn set_overrides_mapping() {
        let mut pm = PositionMap::new(64, 1);
        pm.set(9, 13);
        assert_eq!(pm.leaf_of(9), 13);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_validates_leaf() {
        PositionMap::new(4, 1).set(0, 4);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = PositionMap::new(256, 11);
        let mut b = PositionMap::new(256, 11);
        for blk in 0..100 {
            assert_eq!(a.leaf_of(blk), b.leaf_of(blk));
        }
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }
}
