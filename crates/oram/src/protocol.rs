//! Functional Path ORAM (Stefanov et al. \[34\]).
//!
//! This is the protocol itself — data actually round-trips through the
//! tree and stash, so tests can verify read-your-writes, the path
//! invariant, and stash boundedness. Timing simulations use the same
//! geometry through [`crate::plan`]; keeping a functional implementation
//! alongside catches protocol bugs that a pure address-trace model would
//! silently absorb.

use crate::position::PositionMap;
use crate::stash::Stash;
use crate::tree::TreeGeometry;
use doram_sim::SimError;
use std::collections::HashMap;

/// A stored block: `(logical id, assigned leaf, value)`.
type StoredBlock<V> = (u64, u64, V);

/// A functional Path ORAM over values of type `V`.
///
/// # Examples
///
/// ```
/// use doram_oram::protocol::PathOram;
/// let mut oram = PathOram::new(8, 4, 1);
/// oram.write(100, "secret");
/// assert_eq!(oram.read(100), Some("secret"));
/// assert_eq!(oram.read(101), None);
/// ```
#[derive(Debug, Clone)]
pub struct PathOram<V> {
    geometry: TreeGeometry,
    posmap: PositionMap,
    stash: Stash<V>,
    /// Lazily materialized buckets: heap index → resident blocks (≤ Z).
    buckets: HashMap<u64, Vec<StoredBlock<V>>>,
    accesses: u64,
}

impl<V: Clone> PathOram<V> {
    /// Creates an ORAM with a tree of leaf level `l_max` and bucket size
    /// `z`, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`TreeGeometry::new`]).
    pub fn new(l_max: u32, z: u32, seed: u64) -> PathOram<V> {
        let geometry = TreeGeometry::new(l_max, z);
        PathOram {
            geometry,
            posmap: PositionMap::new(geometry.num_leaves(), seed),
            stash: Stash::new(),
            buckets: HashMap::new(),
            accesses: 0,
        }
    }

    /// The tree geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Completed accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Highest stash occupancy observed.
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// Iterates `(bucket heap index, resident block count)` over the
    /// materialized buckets — the raw data behind occupancy metrics.
    pub fn bucket_occupancy(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.buckets.iter().map(|(&b, v)| (b, v.len()))
    }

    /// Reads `block`, returning its value if it was ever written.
    ///
    /// Performs a full ORAM access (path read, remap, path write) whether
    /// or not the block exists — exactly like the real protocol, where
    /// absence is not observable from the outside.
    pub fn read(&mut self, block: u64) -> Option<V> {
        self.access(block, None)
    }

    /// Writes `value` into `block`, returning the previous value if any.
    pub fn write(&mut self, block: u64, value: V) -> Option<V> {
        self.access(block, Some(value))
    }

    /// The four protocol steps of one access.
    fn access(&mut self, block: u64, new_value: Option<V>) -> Option<V> {
        self.accesses += 1;
        let leaf = self.posmap.leaf_of(block);
        let new_leaf = self.posmap.remap(block);
        // 1. Read the whole path into the stash.
        for bucket in self.geometry.path(leaf).collect::<Vec<_>>() {
            if let Some(resident) = self.buckets.remove(&bucket) {
                for (b, l, v) in resident {
                    self.stash.insert(b, l, v);
                }
            }
        }

        // 2. Serve the request from the stash, retagging with the new leaf.
        let old = match self.stash.remove(block) {
            Some((_, v)) => {
                let keep = new_value.unwrap_or_else(|| v.clone());
                self.stash.insert(block, new_leaf, keep);
                Some(v)
            }
            None => {
                if let Some(v) = new_value {
                    self.stash.insert(block, new_leaf, v);
                }
                None
            }
        };

        // 3. Write the path back, leaf level first (greedy fill).
        let z = self.geometry.z as usize;
        for level in (0..=self.geometry.l_max).rev() {
            let bucket = self.geometry.bucket_on_path(leaf, level);
            let geometry = self.geometry;
            let chosen = self.stash.take_eligible(z, |block_leaf| {
                geometry.paths_agree(block_leaf, leaf, level)
            });
            if !chosen.is_empty() {
                self.buckets.insert(bucket, chosen);
            }
        }
        old
    }

    /// A sorted snapshot of every resident block's `(id, value)`, stash
    /// and tree together — the ORAM's logical contents. Two runs that end
    /// in the same logical state produce equal snapshots, which is how the
    /// fault-recovery tests assert bit-identical contents.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = self
            .buckets
            .values()
            .flatten()
            .map(|(b, _, v)| (*b, v.clone()))
            .chain(
                self.stash
                    .iter()
                    .filter_map(|(b, _)| self.stash.get(b).map(|(_, v)| (b, v.clone()))),
            )
            .collect();
        out.sort_by_key(|&(b, _)| b);
        out
    }

    /// Verifies the Path ORAM invariant: every resident block lies on the
    /// path to its assigned leaf, no bucket exceeds Z, and no block is
    /// duplicated between tree and stash.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] describing the first violation found.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let mut seen = HashMap::new();
        for (&bucket, resident) in &self.buckets {
            if resident.len() > self.geometry.z as usize {
                return Err(SimError::protocol(format!(
                    "bucket {bucket} holds {} > Z",
                    resident.len()
                )));
            }
            let level = self.geometry.level_of(bucket);
            for (b, leaf, _) in resident {
                if self.geometry.bucket_on_path(*leaf, level) != bucket {
                    return Err(SimError::protocol(format!(
                        "block {b} off-path in bucket {bucket}"
                    )));
                }
                if seen.insert(*b, bucket).is_some() {
                    return Err(SimError::protocol(format!("block {b} duplicated")));
                }
                if self.posmap.get(*b) != Some(*leaf) {
                    return Err(SimError::protocol(format!("block {b} leaf tag stale")));
                }
            }
        }
        for (b, _) in self.stash.iter() {
            if seen.insert(b, u64::MAX).is_some() {
                return Err(SimError::protocol(format!(
                    "block {b} in both tree and stash"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::rng::Xoshiro256;

    #[test]
    fn read_your_writes() {
        let mut oram = PathOram::new(6, 4, 1);
        for b in 0..50u64 {
            oram.write(b, b * 7);
        }
        for b in 0..50u64 {
            assert_eq!(oram.read(b), Some(b * 7), "block {b}");
        }
    }

    #[test]
    fn overwrite_returns_previous() {
        let mut oram = PathOram::new(5, 4, 2);
        assert_eq!(oram.write(9, 1), None);
        assert_eq!(oram.write(9, 2), Some(1));
        assert_eq!(oram.read(9), Some(2));
    }

    #[test]
    fn unwritten_blocks_read_none_but_cost_an_access() {
        let mut oram = PathOram::<u64>::new(5, 4, 3);
        assert_eq!(oram.read(123), None);
        assert_eq!(oram.accesses(), 1);
    }

    #[test]
    fn invariants_hold_under_random_workload() {
        let mut oram = PathOram::new(7, 4, 4);
        let mut rng = Xoshiro256::seed_from(99);
        let universe = oram.geometry().user_blocks().min(2000);
        for i in 0..3000u64 {
            let b = rng.gen_below(universe);
            if rng.gen_bool(0.5) {
                oram.write(b, i);
            } else {
                oram.read(b);
            }
            if i % 500 == 0 {
                oram.check_invariants().unwrap();
            }
        }
        oram.check_invariants().unwrap();
    }

    #[test]
    fn stash_stays_bounded() {
        // Z=4: the stash bound is small w.h.p. Use ~50% occupancy like the
        // paper's space-efficiency setting.
        let mut oram = PathOram::new(8, 4, 5);
        let universe = oram.geometry().user_blocks();
        let mut rng = Xoshiro256::seed_from(7);
        for i in 0..20_000u64 {
            let b = rng.gen_below(universe);
            oram.write(b, i);
        }
        assert!(
            oram.stash_peak() < 150,
            "stash peak {} suspiciously large",
            oram.stash_peak()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut oram = PathOram::new(6, 4, seed);
            for b in 0..200u64 {
                oram.write(b, b);
            }
            (oram.stash_len(), oram.stash_peak())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn works_with_z1() {
        // Degenerate bucket size stresses the eviction logic; stash grows
        // but correctness must hold.
        let mut oram = PathOram::new(6, 1, 6);
        for b in 0..30u64 {
            oram.write(b, b + 1);
        }
        for b in 0..30u64 {
            assert_eq!(oram.read(b), Some(b + 1));
        }
        oram.check_invariants().unwrap();
    }
}
