//! Log-bucketed latency histograms with HDR-style sub-bucket precision.
//!
//! A [`LogHistogram`] records `u64` samples (cycles) into buckets whose
//! width grows with magnitude: values below [`SUBBUCKETS`] are exact, and
//! above that each power-of-two range is split into [`SUBBUCKETS`] linear
//! sub-buckets, bounding the relative quantization error at
//! `1/SUBBUCKETS` (6.25%). That makes p50/p95/p99/p999 cheap to keep on
//! the hot path — one `record` is a couple of shifts and an add — while
//! a mean-only summary would hide exactly the tail the interference
//! experiments care about.
//!
//! Values above the saturation limit are clamped into the top bucket and
//! counted in [`LogHistogram::saturated`], so a runaway tail can never
//! grow the memory footprint.

use doram_sim::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Linear sub-buckets per power-of-two magnitude (4 significant bits).
pub const SUBBUCKETS: u64 = 16;

/// Largest exactly-representable magnitude exponent: samples are clamped
/// to `2^MAX_MAG - 1`. 2^40 cycles ≈ 9 minutes of DDR3-1600 time — far
/// beyond any simulated latency; anything larger is a bug, recorded as
/// saturation instead of memory growth.
const MAX_MAG: u32 = 40;

/// Bucket count implied by [`MAX_MAG`]: indices are exact below 16, then
/// 16 per doubling.
const BUCKETS: usize = (SUBBUCKETS as usize) * (MAX_MAG as usize - 3);

/// Quantiles every percentile table reports, with their display names.
pub const REPORT_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

/// A log-bucketed histogram of `u64` samples. See the module docs.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
    saturated: u64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

/// Bucket index of `v` (callers clamp `v` below `2^MAX_MAG` first).
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    // Highest set bit k >= 4: the range [2^k, 2^(k+1)) maps to 16
    // sub-buckets selected by the 4 bits below the leading one.
    let k = 63 - v.leading_zeros();
    let sub = (v >> (k - 4)) & (SUBBUCKETS - 1);
    (SUBBUCKETS as usize) * (k as usize - 3) + sub as usize
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
fn lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBBUCKETS {
        return idx;
    }
    let k = idx / SUBBUCKETS + 3;
    let sub = idx % SUBBUCKETS;
    (SUBBUCKETS + sub) << (k - 4)
}

/// Inclusive upper bound of bucket `idx` (the value a quantile falling in
/// this bucket reports, mirroring `doram_sim::stats::Histogram`).
#[inline]
fn upper_bound(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        return (1u64 << MAX_MAG) - 1;
    }
    lower_bound(idx + 1) - 1
}

impl LogHistogram {
    /// Creates an empty histogram. The bucket array is allocated eagerly
    /// (fixed ~4.6 KB) so recording never allocates.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            saturated: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let limit = (1u64 << MAX_MAG) - 1;
        let clamped = if v > limit {
            self.saturated += n;
            limit
        } else {
            v
        };
        self.buckets[index_of(clamped)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(clamped.saturating_mul(n));
        self.min = self.min.min(clamped);
        self.max = self.max.max(clamped);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Samples clamped at the saturation limit.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Smallest recorded sample (after clamping), if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (after clamping), if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Sum of the recorded samples (clamped values, saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded samples (clamped values), if any.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The value at quantile `q` (`0.0..=1.0`): the upper bound of the
    /// bucket holding the sample of rank `ceil(q·count)`, clamped into
    /// the observed `[min, max]` range so a single sample reports itself
    /// exactly at every quantile. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(upper_bound(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.saturated += other.saturated;
    }
}

/// Buckets travel sparsely as `(index, count)` pairs: most of the ~600
/// are empty in practice.
impl Snapshot for LogHistogram {
    fn save_state(&self, w: &mut SnapshotWriter) {
        let LogHistogram {
            buckets,
            total,
            sum,
            min,
            max,
            saturated,
        } = self;
        [*total, *sum, *min, *max, *saturated].put(w);
        let occupied: Vec<(usize, u64)> = buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n != 0)
            .collect();
        occupied.put(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        [self.total, self.sum, self.min, self.max, self.saturated] = Codec::get(r)?;
        self.buckets.fill(0);
        for (idx, n) in Vec::<(usize, u64)>::get(r)? {
            let slot = self.buckets.get_mut(idx).ok_or_else(|| {
                SnapshotError::new(format!("histogram bucket {idx} out of range"))
            })?;
            *slot = n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_reports_nothing() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn small_values_are_exact() {
        // Below SUBBUCKETS every value owns its bucket: quantiles exact.
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(7));
        assert_eq!(h.quantile(1.0), Some(15));
        assert_eq!(h.mean(), Some(7.5));
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        for v in [0u64, 1, 15, 16, 1000, 123_456_789] {
            let mut h = LogHistogram::new();
            h.record(v);
            for (_, q) in REPORT_QUANTILES {
                assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
            }
        }
    }

    #[test]
    fn bucket_edges_round_trip() {
        // lower_bound(index_of(v)) <= v <= upper_bound(index_of(v)),
        // and bounds tile the value space without gaps or overlaps.
        let mut probe: Vec<u64> = (0..200).collect();
        for k in 4..MAX_MAG {
            for off in [0u64, 1, 7] {
                probe.push((1u64 << k) - 1);
                probe.push((1u64 << k) + off);
            }
        }
        for &v in &probe {
            let idx = index_of(v);
            assert!(lower_bound(idx) <= v, "v={v} idx={idx}");
            assert!(v <= upper_bound(idx), "v={v} idx={idx}");
        }
        for idx in 1..BUCKETS {
            assert_eq!(
                lower_bound(idx),
                upper_bound(idx - 1) + 1,
                "buckets must tile at idx {idx}"
            );
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        // Relative quantization error stays under 1/SUBBUCKETS.
        let mut h = LogHistogram::new();
        for v in (0..10_000u64).map(|i| i * 37 + 5) {
            h.record(v);
        }
        let sorted: Vec<u64> = (0..10_000u64).map(|i| i * 37 + 5).collect();
        for (_, q) in REPORT_QUANTILES {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let exact = sorted[rank] as f64;
            let got = h.quantile(q).unwrap() as f64;
            assert!(
                (got - exact).abs() / exact <= 1.0 / SUBBUCKETS as f64 + 1e-9,
                "q={q} exact={exact} got={got}"
            );
        }
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 50);
        h.record(10);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.count(), 3);
        let limit = (1u64 << MAX_MAG) - 1;
        assert_eq!(h.max(), Some(limit));
        assert_eq!(h.quantile(1.0), Some(limit));
        // The un-saturated sample still resolves exactly.
        assert_eq!(h.quantile(0.1), Some(10));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 0..500u64 {
            a.record(i * 3);
            both.record(i * 3);
        }
        for i in 0..300u64 {
            b.record(i * 11 + 1);
            both.record(i * 11 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for (_, q) in REPORT_QUANTILES {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let mut h = LogHistogram::new();
        for v in [0u64, 3, 17, 900, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let mut w = SnapshotWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = LogHistogram::new();
        restored
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(restored.count(), h.count());
        assert_eq!(restored.saturated(), h.saturated());
        assert_eq!(restored.min(), h.min());
        assert_eq!(restored.max(), h.max());
        for (_, q) in REPORT_QUANTILES {
            assert_eq!(restored.quantile(q), h.quantile(q));
        }
        // And the serialized form is stable (saving again is identical).
        let mut w2 = SnapshotWriter::new();
        restored.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(77, 5);
        for _ in 0..5 {
            b.record(77);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.mean(), b.mean());
    }
}
