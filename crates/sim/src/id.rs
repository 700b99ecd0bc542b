//! Identifier newtypes used across the simulator.
//!
//! Keeping applications and requests as distinct types prevents a family
//! of index-confusion bugs in the interference experiments, where both
//! spaces are small integers.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// An application instance; in the paper's workloads app 0 is the S-App
/// and apps 1..8 are NS-Apps, each pinned to its own core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub usize);

impl AppId {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl From<usize> for AppId {
    fn from(v: usize) -> AppId {
        AppId(v)
    }
}

/// A unique, monotonically increasing request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Allocator for [`RequestId`]s.
#[derive(Debug, Clone, Default)]
pub struct RequestIdGen {
    next: u64,
}

impl RequestIdGen {
    /// Creates an allocator starting at zero.
    pub fn new() -> RequestIdGen {
        RequestIdGen::default()
    }

    /// Returns a fresh identifier.
    pub fn next_id(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

crate::impl_codec!(struct RequestIdGen { next });

/// A seedless hasher for integer keys: request ids, block numbers and
/// addresses, which no adversary chooses. Each word is added and
/// multiplied by an odd constant; `finish` rotates the product, so keys
/// that differ only in high bits (line- or bucket-aligned addresses) land
/// in different hash-table groups too. Same keys, same table layout, in
/// every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by integer ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of integer ids, hashed by [`IdHasher`].
pub type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_tags() {
        assert_eq!(AppId(0).to_string(), "app0");
        assert_eq!(RequestId(9).to_string(), "req9");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property; just exercise conversions.
        let a: AppId = 4usize.into();
        assert_eq!(a.index(), 4);
    }

    #[test]
    fn id_hasher_spreads_aligned_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        // 64 line-aligned addresses: a table of 64 buckets indexes by the
        // low six bits of the hash, and most buckets must be distinct.
        let buckets: HashSet<u64> = (0..64u64).map(|k| build.hash_one(k * 64) & 63).collect();
        assert!(buckets.len() > 32, "{} of 64 buckets used", buckets.len());
    }

    #[test]
    fn request_ids_monotonic() {
        let mut alloc = RequestIdGen::new();
        let a = alloc.next_id();
        let b = alloc.next_id();
        assert!(b > a);
        assert_eq!(a, RequestId(0));
    }
}
