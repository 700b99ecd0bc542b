//! Statistics primitives: counters, running means, and histograms.
//!
//! The paper's results are built from a handful of aggregate measures —
//! execution time, average read/write memory latency, channel utilization —
//! so the primitives here focus on cheap online accumulation.

use std::fmt;

/// A saturating event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Online mean/min/max accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    pub fn new() -> RunningMean {
        RunningMean {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.count += other.count;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Fixed-bucket latency histogram with an overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `buckets` buckets each `bucket_width` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `buckets` is zero.
    pub fn new(bucket_width: u64, buckets: usize) -> Histogram {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "bucket count must be positive");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Total number of recorded values (including overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count per regular bucket, head to tail.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate p-quantile (`0.0..=1.0`) using bucket upper bounds.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        Some(self.buckets.len() as u64 * self.bucket_width)
    }
}

crate::impl_codec!(struct Counter(count));
crate::impl_snapshot!(RunningMean {
    sum,
    count,
    min,
    max
});

/// The bucket layout is configuration: it is written so a restore into a
/// differently shaped histogram fails instead of misreading the counts.
impl crate::snapshot::Snapshot for Histogram {
    fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        use crate::snapshot::Codec;
        let Histogram {
            bucket_width,
            buckets,
            overflow,
            total,
        } = self;
        bucket_width.put(w);
        buckets.put(w);
        overflow.put(w);
        total.put(w);
    }

    fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::Codec;
        let width = u64::get(r)?;
        let buckets = Vec::<u64>::get(r)?;
        if width != self.bucket_width || buckets.len() != self.buckets.len() {
            return Err(crate::snapshot::SnapshotError::new(format!(
                "histogram layout mismatch: snapshot {}x{width}, target {}x{}",
                buckets.len(),
                self.buckets.len(),
                self.bucket_width
            )));
        }
        self.buckets = buckets;
        self.overflow = u64::get(r)?;
        self.total = u64::get(r)?;
        Ok(())
    }
}

/// Geometric mean of a slice of positive values; returns 0 on empty input.
///
/// The paper reports NS-App slowdowns as geometric means (Figure 4).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        assert_eq!(c.to_string(), u64::MAX.to_string());
    }

    #[test]
    fn running_mean_basic() {
        let mut m = RunningMean::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.min(), None);
        for v in [1.0, 2.0, 3.0] {
            m.record(v);
        }
        assert_eq!(m.mean(), 2.0);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(3.0));
        assert_eq!(m.count(), 3);
        assert_eq!(m.sum(), 6.0);
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.record(1.0);
        let mut b = RunningMean::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), Some(5.0));
        // Merging an empty accumulator changes nothing.
        a.merge(&RunningMean::new());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(10, 3);
        for v in [0, 9, 10, 29, 30, 1000] {
            h.record(v);
        }
        assert_eq!(h.buckets(), &[2, 1, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(Histogram::new(1, 1).quantile(0.5), None);
    }

    #[test]
    fn histogram_quantile_edges() {
        // Empty: every quantile is None, including the extremes.
        let empty = Histogram::new(8, 16);
        assert_eq!(empty.quantile(0.0), None);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.quantile(1.0), None);

        // Single sample: every quantile lands on that sample's bucket
        // upper bound, and out-of-range q is clamped rather than panicking.
        let mut one = Histogram::new(8, 16);
        one.record(20); // bucket 2 → upper bound 24
        for q in [0.0, 0.001, 0.5, 0.999, 1.0, -3.0, 7.0] {
            assert_eq!(one.quantile(q), Some(24), "q={q}");
        }

        // All samples in the overflow bucket: the quantile saturates at
        // the histogram's covered range instead of inventing a bound.
        let mut over = Histogram::new(10, 4);
        over.record(1_000);
        over.record(u64::MAX);
        assert_eq!(over.overflow(), 2);
        assert_eq!(over.quantile(0.5), Some(40));
        assert_eq!(over.quantile(1.0), Some(40));

        // A quantile exactly on a cumulative-count boundary picks the
        // bucket that reaches the target, not the one after it.
        let mut split = Histogram::new(10, 4);
        split.record(5);
        split.record(15);
        assert_eq!(split.quantile(0.5), Some(10));
        assert_eq!(split.quantile(0.51), Some(20));
    }

    #[test]
    fn counter_add_saturates_near_max() {
        // add() must clamp instead of wrapping when the increment would
        // pass u64::MAX, and stay pinned afterwards.
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        assert_eq!(c.get(), u64::MAX - 1);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);

        // Two near-MAX counters also saturate when both operands are huge.
        let mut d = Counter::new();
        d.add(u64::MAX / 2 + 1);
        d.add(u64::MAX / 2 + 1);
        assert_eq!(d.get(), u64::MAX);
    }

    #[test]
    fn histogram_record_at_bucket_boundaries() {
        // value / width on the exact boundary belongs to the next bucket;
        // the last representable value before overflow is width*n - 1.
        let mut h = Histogram::new(10, 2);
        h.record(9);
        h.record(10);
        h.record(19);
        h.record(20); // first overflow value
        assert_eq!(h.buckets(), &[1, 2]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(0, 4);
    }
}
