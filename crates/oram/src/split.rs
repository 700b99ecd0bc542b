//! D-ORAM+k: splitting the Path ORAM tree across memory channels (§III-C).
//!
//! The last `k` levels of the tree — about `1 − 2^−k` of its space — are
//! relocated to the three normal channels. Each relocated bucket's Z = 4
//! blocks go to channels `#i, #1, #2, #3` with `#i = (path_id mod 3) + 1`,
//! so the first blocks alternate over the three normal channels. This
//! module carries the placement rule plus the space and extra-message
//! accounting of Table I.

use crate::tree::TreeGeometry;

/// Tree-split configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitConfig {
    /// Number of (deepest) levels relocated to normal channels.
    pub k: u32,
    /// Number of normal channels receiving relocated blocks (3 in the
    /// paper's 4-channel system).
    pub normal_channels: usize,
}

impl SplitConfig {
    /// No split: the whole tree stays on the secure channel.
    pub fn none() -> SplitConfig {
        SplitConfig {
            k: 0,
            normal_channels: 3,
        }
    }

    /// Splits the last `k` levels over `normal_channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `normal_channels == 0`.
    pub fn new(k: u32, normal_channels: usize) -> SplitConfig {
        assert!(normal_channels > 0, "need at least one normal channel");
        SplitConfig { k, normal_channels }
    }

    /// Whether `level` (of a tree with `geometry`) is relocated.
    pub fn is_split_level(&self, geometry: &TreeGeometry, level: u32) -> bool {
        self.k > 0 && level >= geometry.levels() - self.k.min(geometry.levels())
    }

    /// Normal channel (1-based: `1..=normal_channels`) receiving block
    /// `slot` of the bucket at path position `path_id`.
    ///
    /// Slot 0 follows the paper's alternation `#i = (path_id mod 3) + 1`;
    /// slots 1..Z go to channels #1, #2, #3, … in order.
    pub fn channel_for_slot(&self, path_id: u64, slot: u32) -> usize {
        let n = self.normal_channels as u64;
        if slot == 0 {
            ((path_id % n) + 1) as usize
        } else {
            (((slot as u64 - 1) % n) + 1) as usize
        }
    }

    /// Table I space accounting: fraction of tree blocks on the secure
    /// channel and on *each* normal channel.
    pub fn space_fractions(&self, geometry: &TreeGeometry) -> SplitAccounting {
        let total = geometry.total_buckets() as f64;
        let kept_levels = geometry.levels() - self.k.min(geometry.levels());
        let kept = if kept_levels == 0 {
            0.0
        } else {
            ((1u64 << kept_levels) - 1) as f64
        };
        let secure_frac = kept / total;
        let per_normal_frac = (1.0 - secure_frac) / self.normal_channels as f64;
        SplitAccounting {
            k: self.k,
            secure_frac,
            per_normal_frac,
            ch0_extra_packets_per_kind: 4 * self.k as u64,
            per_normal_min: self.k as u64,
            per_normal_max: 2 * self.k as u64,
        }
    }
}

/// Table I's row for one value of k.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitAccounting {
    /// The split depth this row describes.
    pub k: u32,
    /// Fraction of tree data remaining on channel #0.
    pub secure_frac: f64,
    /// Fraction of tree data on each of channels #1–#3.
    pub per_normal_frac: f64,
    /// Extra packets per ORAM access on channel #0's link, for each of the
    /// three kinds (short Read, Response, Write): `4k`.
    pub ch0_extra_packets_per_kind: u64,
    /// Minimum extra packets per kind on one normal channel (`m >= k`).
    pub per_normal_min: u64,
    /// Maximum extra packets per kind on one normal channel (`m <= 2k`).
    pub per_normal_max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> TreeGeometry {
        TreeGeometry::paper_default()
    }

    #[test]
    fn table1_space_row_k1() {
        let a = SplitConfig::new(1, 3).space_fractions(&g());
        assert!((a.secure_frac - 0.500).abs() < 1e-3, "{}", a.secure_frac);
        assert!((a.per_normal_frac - 0.167).abs() < 1e-3);
    }

    #[test]
    fn table1_space_row_k2() {
        let a = SplitConfig::new(2, 3).space_fractions(&g());
        assert!((a.secure_frac - 0.250).abs() < 1e-3);
        assert!((a.per_normal_frac - 0.250).abs() < 1e-3);
    }

    #[test]
    fn table1_space_row_k3() {
        let a = SplitConfig::new(3, 3).space_fractions(&g());
        assert!((a.secure_frac - 0.125).abs() < 1e-3);
        assert!((a.per_normal_frac - 0.292).abs() < 1e-3);
    }

    #[test]
    fn table1_extra_messages() {
        for k in 1..=3u32 {
            let a = SplitConfig::new(k, 3).space_fractions(&g());
            assert_eq!(a.ch0_extra_packets_per_kind, 4 * k as u64);
            assert_eq!(a.per_normal_min, k as u64);
            assert_eq!(a.per_normal_max, 2 * k as u64);
        }
    }

    #[test]
    fn split_level_boundaries() {
        let cfg = SplitConfig::new(2, 3);
        let g = g(); // 24 levels: split levels are 22 and 23.
        assert!(!cfg.is_split_level(&g, 21));
        assert!(cfg.is_split_level(&g, 22));
        assert!(cfg.is_split_level(&g, 23));
        assert!(!SplitConfig::none().is_split_level(&g, 23));
    }

    #[test]
    fn slot0_alternates_over_normals() {
        let cfg = SplitConfig::new(1, 3);
        let seq: Vec<usize> = (0..6).map(|p| cfg.channel_for_slot(p, 0)).collect();
        assert_eq!(seq, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn remaining_slots_fixed_assignment() {
        let cfg = SplitConfig::new(1, 3);
        assert_eq!(cfg.channel_for_slot(7, 1), 1);
        assert_eq!(cfg.channel_for_slot(7, 2), 2);
        assert_eq!(cfg.channel_for_slot(7, 3), 3);
    }

    #[test]
    fn per_bucket_channel_load_is_one_or_two() {
        // For Z=4 over 3 channels, exactly one channel receives 2 blocks
        // of a bucket and the others 1 each — the source of Table I's
        // m ∈ [k, 2k].
        let cfg = SplitConfig::new(1, 3);
        for path_id in 0..9u64 {
            let mut counts = [0u32; 4];
            for slot in 0..4 {
                counts[cfg.channel_for_slot(path_id, slot)] += 1;
            }
            assert_eq!(counts[0], 0);
            let mut sorted = counts[1..].to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 1, 2], "path {path_id}: {counts:?}");
        }
    }

    #[test]
    fn blocks_per_access_in_split_levels() {
        // k levels × Z blocks cross to normal channels per access.
        let g = g();
        for k in 1..=3u32 {
            let cfg = SplitConfig::new(k, 3);
            let split_levels = (0..g.levels())
                .filter(|&l| cfg.is_split_level(&g, l))
                .count();
            assert_eq!(split_levels as u32, k);
            assert_eq!(split_levels as u64 * g.z as u64, 4 * k as u64);
        }
    }
}
