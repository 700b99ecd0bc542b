//! Per-sub-channel statistics.

use doram_sim::stats::Counter;

/// Counters maintained by a [`SubChannel`](crate::SubChannel).
#[derive(Debug, Clone, Default)]
pub struct SubChannelStats {
    /// READ column commands issued.
    pub reads: Counter,
    /// WRITE column commands issued.
    pub writes: Counter,
    /// ACTIVATE commands issued.
    pub activates: Counter,
    /// PRECHARGE commands issued.
    pub precharges: Counter,
    /// REFRESH commands issued.
    pub refreshes: Counter,
    /// Column commands that found their row already open.
    pub row_hits: Counter,
    /// Column commands that required row management first.
    pub row_misses: Counter,
    /// Data-bus busy cycles (burst occupancy).
    pub data_bus_busy: Counter,
    /// Cycles observed (for utilization).
    pub cycles: Counter,
}

impl SubChannelStats {
    /// Fraction of observed cycles the data bus carried a burst.
    pub fn bus_utilization(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.data_bus_busy.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Row-buffer hit rate over all column commands.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_misses.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }
}

doram_sim::impl_snapshot!(SubChannelStats {
    reads,
    writes,
    activates,
    precharges,
    refreshes,
    row_hits,
    row_misses,
    data_bus_busy,
    cycles,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut s = SubChannelStats::default();
        assert_eq!(s.bus_utilization(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        s.cycles.add(100);
        s.data_bus_busy.add(40);
        s.row_hits.add(3);
        s.row_misses.add(1);
        assert!((s.bus_utilization() - 0.4).abs() < 1e-12);
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
    }
}
