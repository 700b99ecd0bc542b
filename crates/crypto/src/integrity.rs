//! Merkle-tree memory integrity (§III-B item 4).
//!
//! The paper requires packets and memory contents to be protected against
//! *replay*: an attacker on the untrusted bus can re-supply a stale (but
//! correctly encrypted and authenticated) block. The standard defense
//! (Suh et al. \[36\], used by the secure-DIMM proposal \[18\] the paper
//! cites) is a hash tree over memory: the trusted side keeps only the
//! root; every block read is checked against a Merkle path, every write
//! updates it.
//!
//! The node function is CMAC-based (keyed), so the whole construction
//! reuses the crate's verified AES core. The tree is dense and in-memory
//! — suitable for small metadata regions and for tests/examples. The
//! timing simulator's SD builds no tree: it models its freshness tree by
//! verdict and walk cost.

use crate::mac::Cmac;

/// Width of a node digest in bytes (full CMAC output).
pub const DIGEST_BYTES: usize = 16;

type Digest = [u8; DIGEST_BYTES];

/// A keyed Merkle tree over `2^depth` leaves.
///
/// # Examples
///
/// ```
/// use doram_crypto::integrity::MerkleTree;
/// let mut tree = MerkleTree::new(4, [9; 16]); // 16 leaves
/// tree.update(3, b"hello");
/// assert!(tree.verify(3, b"hello"));
/// assert!(!tree.verify(3, b"jello"));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    mac: Cmac,
    depth: u32,
    /// Heap-ordered nodes: index 0 is the root; leaves occupy the last
    /// 2^depth slots.
    nodes: Vec<Digest>,
}

/// A verification path: sibling digests from leaf to root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerklePath {
    leaf: u64,
    siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Creates a tree of `2^depth` leaves, all initialized to the digest
    /// of the empty block.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 28` (keeps the dense allocation sane).
    pub fn new(depth: u32, key: [u8; 16]) -> MerkleTree {
        assert!(depth <= 28, "tree too large for a dense representation");
        let mac = Cmac::new(key);
        let total = (1usize << (depth + 1)) - 1;
        let mut tree = MerkleTree {
            mac,
            depth,
            nodes: vec![[0u8; DIGEST_BYTES]; total],
        };
        // Initialize leaves to H(empty) and fold upward.
        let empty = tree.leaf_digest(b"");
        let first_leaf = tree.first_leaf();
        for i in 0..tree.num_leaves() as usize {
            tree.nodes[first_leaf + i] = empty;
        }
        for idx in (0..first_leaf).rev() {
            tree.nodes[idx] = tree.combine(&tree.nodes[2 * idx + 1], &tree.nodes[2 * idx + 2]);
        }
        tree
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        1 << self.depth
    }

    fn first_leaf(&self) -> usize {
        (1 << self.depth) - 1
    }

    fn leaf_digest(&self, data: &[u8]) -> Digest {
        let mut msg = Vec::with_capacity(1 + data.len());
        msg.push(0x00); // domain separation: leaf
        msg.extend_from_slice(data);
        self.mac.full_tag(&msg)
    }

    fn combine(&self, left: &Digest, right: &Digest) -> Digest {
        let mut msg = Vec::with_capacity(1 + 2 * DIGEST_BYTES);
        msg.push(0x01); // domain separation: inner node
        msg.extend_from_slice(left);
        msg.extend_from_slice(right);
        self.mac.full_tag(&msg)
    }

    /// The current root digest — the only state the trusted side needs.
    pub fn root(&self) -> Digest {
        self.nodes[0]
    }

    /// Records new contents for `leaf` and refreshes the path to the root.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn update(&mut self, leaf: u64, data: &[u8]) {
        assert!(leaf < self.num_leaves(), "leaf out of range");
        let mut idx = self.first_leaf() + leaf as usize;
        self.nodes[idx] = self.leaf_digest(data);
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.nodes[idx] = self.combine(&self.nodes[2 * idx + 1], &self.nodes[2 * idx + 2]);
        }
    }

    /// Whether `data` is the current content of `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn verify(&self, leaf: u64, data: &[u8]) -> bool {
        assert!(leaf < self.num_leaves(), "leaf out of range");
        self.nodes[self.first_leaf() + leaf as usize] == self.leaf_digest(data)
    }

    /// Produces the sibling path for `leaf`, for verification against a
    /// remembered root without the full tree.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn prove(&self, leaf: u64) -> MerklePath {
        assert!(leaf < self.num_leaves(), "leaf out of range");
        let mut idx = self.first_leaf() + leaf as usize;
        let mut siblings = Vec::with_capacity(self.depth as usize);
        while idx > 0 {
            let sibling = if idx % 2 == 1 { idx + 1 } else { idx - 1 };
            siblings.push(self.nodes[sibling]);
            idx = (idx - 1) / 2;
        }
        MerklePath { leaf, siblings }
    }

    /// Verifies `data` for `path.leaf` against a trusted `root` using only
    /// the path — what the processor-side check does without holding the
    /// tree.
    pub fn verify_path(&self, root: &Digest, path: &MerklePath, data: &[u8]) -> bool {
        let mut digest = self.leaf_digest(data);
        let mut idx = self.first_leaf() + path.leaf as usize;
        for sibling in &path.siblings {
            digest = if idx % 2 == 1 {
                self.combine(&digest, sibling)
            } else {
                self.combine(sibling, &digest)
            };
            idx = (idx - 1) / 2;
        }
        digest == *root
    }
}

/// A sparse, lazily populated per-bucket authentication-tag store.
///
/// The dense [`MerkleTree`] is right for small metadata regions, but an
/// L=23 Path ORAM tree has 2^24 buckets — far too many to hash eagerly.
/// The store instead keeps one CMAC tag per *touched* bucket: a bucket's
/// tag is recorded on write-back and checked on every path read, which is
/// exactly the integrity guarantee the Secure Delegator needs (the
/// position map and stash are on-chip and trusted; only DRAM contents can
/// be tampered with). The functional Path ORAM model in `doram-oram`
/// computes these tags for real; the timing simulator's SD models the
/// same check by its verdict.
///
/// Tags are domain-separated from both Merkle node kinds and bound to the
/// bucket address, so a valid (payload, tag) pair for bucket A cannot be
/// replayed at bucket B.
///
/// # Examples
///
/// ```
/// use doram_crypto::integrity::BucketIntegrity;
/// let mut store = BucketIntegrity::new([7; 16]);
/// store.record(42, b"bucket payload");
/// assert!(store.verify(42, b"bucket payload"));
/// assert!(!store.verify(42, b"tampered payload"));
/// ```
#[derive(Debug, Clone)]
pub struct BucketIntegrity {
    mac: Cmac,
    tags: std::collections::HashMap<u64, Digest>,
}

impl BucketIntegrity {
    /// Creates an empty store keyed with `key`.
    pub fn new(key: [u8; 16]) -> BucketIntegrity {
        BucketIntegrity {
            mac: Cmac::new(key),
            tags: std::collections::HashMap::new(),
        }
    }

    /// The address-bound tag for a bucket payload.
    fn tag(&self, addr: u64, payload: &[u8]) -> Digest {
        let mut msg = Vec::with_capacity(9 + payload.len());
        msg.push(0x02); // domain separation: bucket tag
        msg.extend_from_slice(&addr.to_le_bytes());
        msg.extend_from_slice(payload);
        self.mac.full_tag(&msg)
    }

    /// Records the authentic contents of bucket `addr` (called on every
    /// ORAM write-back).
    pub fn record(&mut self, addr: u64, payload: &[u8]) {
        let tag = self.tag(addr, payload);
        self.tags.insert(addr, tag);
    }

    /// Whether `payload` matches the recorded tag for `addr`. A bucket
    /// that was never recorded fails.
    pub fn verify(&self, addr: u64, payload: &[u8]) -> bool {
        self.tags
            .get(&addr)
            .is_some_and(|t| *t == self.tag(addr, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_verifies_empty_leaves() {
        let tree = MerkleTree::new(3, [1; 16]);
        assert_eq!(tree.num_leaves(), 8);
        for leaf in 0..8 {
            assert!(tree.verify(leaf, b""));
            assert!(!tree.verify(leaf, b"x"));
        }
    }

    #[test]
    fn update_changes_root_and_verifies() {
        let mut tree = MerkleTree::new(4, [2; 16]);
        let r0 = tree.root();
        tree.update(5, b"block-5-v1");
        let r1 = tree.root();
        assert_ne!(r0, r1, "root must move on update");
        assert!(tree.verify(5, b"block-5-v1"));
        tree.update(5, b"block-5-v2");
        assert!(!tree.verify(5, b"block-5-v1"), "stale content rejected");
        assert!(tree.verify(5, b"block-5-v2"));
    }

    #[test]
    fn replay_of_old_root_state_is_detected() {
        // The replay scenario of §III-B: attacker re-supplies an old
        // (authentic-looking) block. The remembered root exposes it.
        let mut tree = MerkleTree::new(3, [3; 16]);
        tree.update(2, b"v1");
        let old_proof = tree.prove(2);
        let old_root = tree.root();
        assert!(tree.verify_path(&old_root, &old_proof, b"v1"));
        // Memory moves on...
        tree.update(2, b"v2");
        let new_root = tree.root();
        // ...the replayed old block fails against the current root.
        assert!(!tree.verify_path(&new_root, &old_proof, b"v1"));
        assert!(tree.verify_path(&new_root, &tree.prove(2), b"v2"));
    }

    #[test]
    fn paths_verify_against_root_for_every_leaf() {
        let mut tree = MerkleTree::new(4, [4; 16]);
        for leaf in 0..16u64 {
            tree.update(leaf, format!("data-{leaf}").as_bytes());
        }
        let root = tree.root();
        for leaf in 0..16u64 {
            let path = tree.prove(leaf);
            assert_eq!(path.siblings.len(), 4);
            assert!(tree.verify_path(&root, &path, format!("data-{leaf}").as_bytes()));
            assert!(!tree.verify_path(&root, &path, b"forged"));
        }
    }

    #[test]
    fn sibling_updates_do_not_break_other_proofs() {
        let mut tree = MerkleTree::new(3, [5; 16]);
        tree.update(0, b"a");
        tree.update(1, b"b");
        let root = tree.root();
        assert!(tree.verify_path(&root, &tree.prove(0), b"a"));
        assert!(tree.verify_path(&root, &tree.prove(1), b"b"));
    }

    #[test]
    fn different_keys_produce_different_roots() {
        let a = MerkleTree::new(3, [6; 16]);
        let b = MerkleTree::new(3, [7; 16]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        MerkleTree::new(2, [0; 16]).prove(4);
    }

    #[test]
    fn bucket_store_detects_tampering() {
        let mut store = BucketIntegrity::new([8; 16]);
        store.record(5, b"authentic");
        assert!(store.verify(5, b"authentic"));
        assert!(!store.verify(5, b"authentiC"), "bit flip detected");
        assert!(!store.verify(6, b"authentic"), "untracked bucket fails");
    }

    #[test]
    fn bucket_store_rejects_replay_and_relocation() {
        let mut store = BucketIntegrity::new([9; 16]);
        store.record(1, b"v1");
        store.record(2, b"other");
        store.record(1, b"v2");
        assert!(!store.verify(1, b"v1"), "stale contents are replay");
        assert!(store.verify(1, b"v2"));
        // A valid payload for bucket 2 cannot be replayed at bucket 1.
        assert!(!store.verify(1, b"other"));
    }

    #[test]
    fn bucket_store_is_sparse() {
        let mut store = BucketIntegrity::new([11; 16]);
        // Addresses far beyond any dense tree's reach are fine.
        store.record(1 << 60, b"far");
        assert!(store.verify(1 << 60, b"far"));
    }
}
