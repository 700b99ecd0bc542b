//! The Path ORAM stash.
//!
//! Holds blocks that could not be written back to the tree yet. Bounded in
//! expectation (Stefanov et al. prove O(log N)·ω(1) with Z = 4); the
//! protocol tests check the empirical bound.

use doram_obs::{EventKind, SharedRecorder, Subsystem};
use doram_sim::error::SimError;
use std::collections::HashMap;

/// A stash of blocks keyed by logical id, each tagged with its leaf.
#[derive(Debug, Clone)]
pub struct Stash<V> {
    blocks: HashMap<u64, (u64, V)>,
    peak: usize,
    capacity: Option<usize>,
    /// Trace recorder; `None` (the default) keeps every operation silent.
    obs: Option<SharedRecorder>,
    /// Timestamp stamped onto emitted events. Hosts that track simulated
    /// time update it via [`Stash::set_obs_now`]; purely functional hosts
    /// can use any monotone counter (the ring preserves emission order
    /// regardless).
    obs_now: u64,
}

impl<V> Default for Stash<V> {
    fn default() -> Stash<V> {
        Stash::new()
    }
}

impl<V> Stash<V> {
    /// Creates an empty, unbounded stash.
    pub fn new() -> Stash<V> {
        Stash {
            blocks: HashMap::new(),
            peak: 0,
            capacity: None,
            obs: None,
            obs_now: 0,
        }
    }

    /// Attaches (or detaches) a trace recorder. The stash emits
    /// `stash_hit` on a successful [`Stash::remove`], `stash_evict` with
    /// the block count taken by [`Stash::take_eligible`], and
    /// `stash_occupancy` after every insert.
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>) {
        self.obs = obs;
    }

    /// Sets the timestamp stamped onto subsequent trace events.
    pub fn set_obs_now(&mut self, now: u64) {
        self.obs_now = now;
    }

    fn emit(&mut self, kind: EventKind, value: u64) {
        if let Some(obs) = &self.obs {
            obs.borrow_mut()
                .instant(Subsystem::Stash, kind, self.obs_now, value);
        }
    }

    /// Creates an empty stash that refuses to grow beyond `capacity`
    /// blocks via [`Stash::try_insert`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a stash that cannot hold even one
    /// block deadlocks the first access.
    pub fn with_capacity(capacity: usize) -> Stash<V> {
        assert!(capacity > 0, "stash capacity must be positive");
        Stash {
            capacity: Some(capacity),
            ..Stash::new()
        }
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Inserts or replaces `block` with its `leaf` tag and value.
    ///
    /// Unbounded: succeeds even past a configured capacity. Use
    /// [`Stash::try_insert`] when overflow must be surfaced as an error.
    pub fn insert(&mut self, block: u64, leaf: u64, value: V) {
        self.blocks.insert(block, (leaf, value));
        self.peak = self.peak.max(self.blocks.len());
        self.emit(EventKind::StashOccupancy, self.blocks.len() as u64);
    }

    /// Inserts `block`, failing with [`SimError::StashOverflow`] when a
    /// *new* block would push occupancy past the configured capacity
    /// (replacing a resident block never overflows). On overflow the
    /// stash is left unchanged.
    pub fn try_insert(&mut self, block: u64, leaf: u64, value: V) -> Result<(), SimError> {
        if let Some(cap) = self.capacity {
            if self.blocks.len() >= cap && !self.blocks.contains_key(&block) {
                return Err(SimError::stash_overflow(self.blocks.len() + 1, cap));
            }
        }
        self.insert(block, leaf, value);
        Ok(())
    }

    /// Removes and returns `block`'s `(leaf, value)`.
    pub fn remove(&mut self, block: u64) -> Option<(u64, V)> {
        let hit = self.blocks.remove(&block);
        if hit.is_some() {
            self.emit(EventKind::StashHit, block);
        }
        hit
    }

    /// Looks at `block` without removing it.
    pub fn get(&self, block: u64) -> Option<&(u64, V)> {
        self.blocks.get(&block)
    }

    /// Mutable access to `block`'s `(leaf, value)`.
    pub fn get_mut(&mut self, block: u64) -> Option<&mut (u64, V)> {
        self.blocks.get_mut(&block)
    }

    /// Whether `block` is present.
    pub fn contains(&self, block: u64) -> bool {
        self.blocks.contains_key(&block)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Highest occupancy ever reached.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Removes up to `max` blocks satisfying `eligible(leaf)`, returning
    /// `(block, leaf, value)` triples — the write-back selection step.
    pub fn take_eligible(
        &mut self,
        max: usize,
        mut eligible: impl FnMut(u64) -> bool,
    ) -> Vec<(u64, u64, V)> {
        if max == 0 {
            return Vec::new();
        }
        let chosen: Vec<u64> = self
            .blocks
            .iter()
            .filter(|(_, (leaf, _))| eligible(*leaf))
            .map(|(&b, _)| b)
            .take(max)
            .collect();
        let taken: Vec<(u64, u64, V)> = chosen
            .into_iter()
            .map(|b| {
                let (leaf, v) = self.blocks.remove(&b).expect("chosen above");
                (b, leaf, v)
            })
            .collect();
        if !taken.is_empty() {
            self.emit(EventKind::StashEvict, taken.len() as u64);
        }
        taken
    }

    /// Iterates over `(block, leaf)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks.iter().map(|(&b, &(leaf, _))| (b, leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Stash::new();
        assert!(s.is_empty());
        s.insert(1, 10, "a");
        s.insert(2, 20, "b");
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert_eq!(s.get(1), Some(&(10, "a")));
        assert_eq!(s.remove(1), Some((10, "a")));
        assert!(!s.contains(1));
        assert_eq!(s.remove(1), None);
    }

    #[test]
    fn insert_replaces() {
        let mut s = Stash::new();
        s.insert(1, 10, 100);
        s.insert(1, 11, 101);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1), Some(&(11, 101)));
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut s = Stash::new();
        for i in 0..5 {
            s.insert(i, i, ());
        }
        for i in 0..5 {
            s.remove(i);
        }
        assert!(s.is_empty());
        assert_eq!(s.peak(), 5);
    }

    #[test]
    fn take_eligible_respects_filter_and_cap() {
        let mut s = Stash::new();
        for i in 0..10u64 {
            s.insert(i, i % 2, i);
        }
        let taken = s.take_eligible(3, |leaf| leaf == 0);
        assert_eq!(taken.len(), 3);
        assert!(taken.iter().all(|&(_, leaf, _)| leaf == 0));
        assert_eq!(s.len(), 7);
        // Nothing eligible → nothing taken.
        assert!(s.take_eligible(5, |leaf| leaf == 9).is_empty());
        assert!(s.take_eligible(0, |_| true).is_empty());
    }

    #[test]
    fn get_mut_updates_value() {
        let mut s = Stash::new();
        s.insert(7, 1, vec![1u8]);
        s.get_mut(7).unwrap().1 = vec![2u8];
        assert_eq!(s.get(7).unwrap().1, vec![2u8]);
    }

    #[test]
    fn try_insert_respects_capacity() {
        let mut s = Stash::with_capacity(2);
        assert_eq!(s.capacity(), Some(2));
        s.try_insert(1, 10, "a").unwrap();
        s.try_insert(2, 20, "b").unwrap();
        let err = s.try_insert(3, 30, "c").unwrap_err();
        match err {
            SimError::StashOverflow {
                occupancy,
                capacity,
            } => {
                assert_eq!(occupancy, 3);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected StashOverflow, got {other:?}"),
        }
        // The failed insert left the stash unchanged.
        assert_eq!(s.len(), 2);
        assert!(!s.contains(3));
    }

    #[test]
    fn try_insert_allows_replacement_at_capacity() {
        let mut s = Stash::with_capacity(1);
        s.try_insert(1, 10, 0).unwrap();
        // Replacing the resident block does not overflow.
        s.try_insert(1, 11, 1).unwrap();
        assert_eq!(s.get(1), Some(&(11, 1)));
    }

    #[test]
    fn unbounded_insert_ignores_capacity() {
        let mut s = Stash::with_capacity(1);
        s.insert(1, 10, ());
        s.insert(2, 20, ());
        assert_eq!(s.len(), 2);
        assert_eq!(s.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Stash::<()>::with_capacity(0);
    }

    #[test]
    fn recorder_sees_hits_evictions_and_occupancy() {
        use doram_obs::{Recorder, FILTER_ALL};
        let mut s = Stash::new();
        let rec = Recorder::shared(64, FILTER_ALL, 1_000);
        s.set_obs(Some(rec.clone()));
        s.set_obs_now(42);
        s.insert(1, 10, ());
        s.insert(2, 10, ());
        assert!(s.remove(1).is_some());
        assert!(s.remove(1).is_none()); // miss: silent
        let taken = s.take_eligible(4, |leaf| leaf == 10);
        assert_eq!(taken.len(), 1);
        let events = rec.borrow().events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::StashOccupancy,
                EventKind::StashOccupancy,
                EventKind::StashHit,
                EventKind::StashEvict,
            ]
        );
        assert!(events.iter().all(|e| e.cycle == 42));
        assert_eq!(events[1].value, 2, "occupancy after second insert");
        assert_eq!(events[3].value, 1, "one block evicted");
    }

    #[test]
    fn iter_lists_blocks() {
        let mut s = Stash::new();
        s.insert(3, 30, ());
        s.insert(4, 40, ());
        let mut pairs: Vec<_> = s.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(3, 30), (4, 40)]);
    }
}
