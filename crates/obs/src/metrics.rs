//! The metrics registry: named gauges sampled into time-series.
//!
//! Components (or the simulation driver polling them) latch the current
//! value of each named metric with [`MetricsRegistry::set`]; every
//! configured sampling interval the registry appends one `(cycle, value)`
//! point per series. Figure-8/12-style curves (per-channel utilization,
//! queue depths, dummy-vs-real rate, fault activity) fall out of any run
//! as a time-series export.

/// Default sampling interval in memory cycles (`--metrics-every`).
pub const DEFAULT_METRICS_EVERY: u64 = 10_000;

/// One named metric and its sampled history.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Dotted metric name, e.g. `sd.sub0.queue`.
    pub name: String,
    /// Latched value to be captured at the next sample point.
    pub last: f64,
    /// Sampled `(memory cycle, value)` points, oldest first.
    pub points: Vec<(u64, f64)>,
}

/// Named gauges plus their sampled time-series.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    every: u64,
    series: Vec<TimeSeries>,
    samples: u64,
    /// When set, each series keeps only the most recent `window` points
    /// (a sliding ring): long soak runs get bounded memory and exports
    /// show the recent trajectory instead of an ever-growing history.
    window: Option<usize>,
}

impl MetricsRegistry {
    /// Creates a registry sampling every `every` memory cycles.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(every: u64) -> MetricsRegistry {
        assert!(every > 0, "metrics sampling interval must be positive");
        MetricsRegistry {
            every,
            series: Vec::new(),
            samples: 0,
            window: None,
        }
    }

    /// Caps each series at the most recent `window` points (`None`
    /// removes the cap). A run-option like `every`: not checkpointed —
    /// points already saved stay saved, and a resumed run re-applies its
    /// own window on the next sample.
    ///
    /// # Panics
    ///
    /// Panics if `window` is `Some(0)`.
    pub fn set_window(&mut self, window: Option<usize>) {
        assert!(
            window != Some(0),
            "metrics window must hold at least one point"
        );
        self.window = window;
    }

    /// The configured sliding-window cap, if any.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// The sampling interval in memory cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Changes the sampling interval (used when a resumed run passes a
    /// different `--metrics-every`).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn set_every(&mut self, every: u64) {
        assert!(every > 0, "metrics sampling interval must be positive");
        self.every = every;
    }

    /// Whether `cycle` is a sampling point.
    #[inline]
    pub fn due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.every)
    }

    /// Latches `value` for `name`, registering the series on first use.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.last = value,
            None => self.series.push(TimeSeries {
                name: name.to_string(),
                last: value,
                points: Vec::new(),
            }),
        }
    }

    /// Appends one sample point per registered series at `cycle`,
    /// truncating the oldest points past the sliding window, if one is
    /// configured.
    pub fn sample(&mut self, cycle: u64) {
        for s in &mut self.series {
            s.points.push((cycle, s.last));
            if let Some(w) = self.window {
                if s.points.len() > w {
                    let excess = s.points.len() - w;
                    s.points.drain(..excess);
                }
            }
        }
        self.samples += 1;
    }

    /// Sample points taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples
    }

    /// The registered series, in registration order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// The latched values as rendered `(name, value)` pairs, for
    /// diagnostic dumps.
    pub fn latest(&self) -> Vec<(String, String)> {
        self.series
            .iter()
            .map(|s| (s.name.clone(), format!("{:.3}", s.last)))
            .collect()
    }
}

doram_sim::impl_codec!(struct TimeSeries { name, last, points });

// The sampling interval and window are run options, not dynamic state.
doram_sim::impl_snapshot!(MetricsRegistry { samples, series } skip { every, window });

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};

    #[test]
    fn latches_and_samples() {
        let mut reg = MetricsRegistry::new(100);
        assert!(reg.due(0) && reg.due(200) && !reg.due(150));
        reg.set("a", 1.0);
        reg.set("b", 2.0);
        reg.sample(0);
        reg.set("a", 3.0);
        reg.sample(100);
        assert_eq!(reg.series().len(), 2);
        assert_eq!(reg.series()[0].points, vec![(0, 1.0), (100, 3.0)]);
        assert_eq!(reg.series()[1].points, vec![(0, 2.0), (100, 2.0)]);
        assert_eq!(reg.samples_taken(), 2);
    }

    #[test]
    fn window_keeps_only_recent_points() {
        let mut reg = MetricsRegistry::new(10);
        reg.set_window(Some(3));
        assert_eq!(reg.window(), Some(3));
        reg.set("x", 0.0);
        for i in 0..6u64 {
            reg.set("x", i as f64);
            reg.sample(i * 10);
        }
        assert_eq!(
            reg.series()[0].points,
            vec![(30, 3.0), (40, 4.0), (50, 5.0)],
            "only the last 3 points survive"
        );
        assert_eq!(reg.samples_taken(), 6, "the sample count keeps history");
        // Removing the cap stops truncation.
        reg.set_window(None);
        reg.set("x", 9.0);
        reg.sample(60);
        assert_eq!(reg.series()[0].points.len(), 4);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut reg = MetricsRegistry::new(10);
        reg.set("x", 5.5);
        reg.sample(0);
        reg.set("x", 6.5);
        reg.sample(10);
        let mut w = SnapshotWriter::new();
        reg.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = MetricsRegistry::new(10);
        restored
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(restored.series()[0].points, reg.series()[0].points);
        assert_eq!(restored.samples_taken(), 2);
    }
}
