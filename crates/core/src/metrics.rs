//! Run-level metrics.

use crate::config::Scheme;
use doram_dram::EnergyBreakdown;
use doram_sim::fault::FaultCounts;
use doram_sim::health::HealthState;
use doram_sim::stats::{geometric_mean, Histogram, RunningMean};
use doram_trace::Benchmark;

/// Summary of the ORAM controller's activity in a run.
#[derive(Debug, Clone, Default)]
pub struct OramSummary {
    /// Real accesses completed.
    pub real_accesses: u64,
    /// Dummy accesses completed.
    pub dummy_accesses: u64,
    /// Mean full-access latency (memory cycles).
    pub access_latency: f64,
    /// Mean read-phase latency (memory cycles).
    pub read_phase_latency: f64,
}

/// Fault-injection and recovery activity of a run, aggregated over every
/// serial link and the SD's verifier.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Faults injected, by kind (links + SD DRAM).
    pub injected: FaultCounts,
    /// Link frames retransmitted after a CRC error or timeout.
    pub retransmissions: u64,
    /// Frames that failed their CRC check (corrupt in transit).
    pub crc_errors: u64,
    /// Frames whose ACK timed out (dropped in transit).
    pub timeouts: u64,
    /// Frames whose retry budget ran out (each latches a link fault but
    /// is still delivered, so the run can drain).
    pub exhausted_retries: u64,
    /// Extra memory cycles spent on link-level recovery (retry + backoff).
    pub link_recovery_cycles: u64,
    /// SD bucket reads whose MAC verification failed.
    pub integrity_failures: u64,
    /// SD bucket re-fetches issued to recover.
    pub refetches: u64,
    /// Memory cycles between integrity-failure detection and recovery.
    pub sd_recovery_cycles: u64,
    /// Secure sub-channels latched into fail-stop quarantine, in ascending
    /// index order.
    pub quarantined_subs: Vec<usize>,
    /// Bucket reads reconstructed from parity shares after a sub-channel
    /// loss (degraded-mode operation).
    pub parity_rebuilds: u64,
    /// Buckets re-tagged by the background scrubber.
    pub scrub_repairs: u64,
    /// Stale replays detected: SD bucket serves rejected by the freshness
    /// tree plus link frames discarded by the sequence check.
    pub replay_detected: u64,
    /// Relocated (cross-address spliced) buckets rejected by the SD's
    /// address-bound tag.
    pub relocation_detected: u64,
    /// Rollback-burst serves rejected by the SD's freshness tree.
    pub rollback_rejected: u64,
    /// Freshness-tree walks performed (zero unless an adversary is
    /// modeled and the tree armed).
    pub freshness_ops: u64,
    /// Modeled memory cycles those walks charged to accesses.
    pub freshness_cycles: u64,
    /// Final health state per secure sub-channel (empty without an SD).
    pub sub_health: Vec<HealthState>,
    /// Quarantine episodes entered per secure sub-channel.
    pub quarantine_entries: Vec<u32>,
    /// Memory cycles each secure sub-channel spent outside `Healthy`.
    pub unhealthy_cycles: Vec<u64>,
    /// First fail-stop-grade fault latched during the run, even when the
    /// simulation drained to completion afterwards (a run can finish its
    /// traces *and* have hit an unrecoverable link retry, for example).
    pub latched_fault: Option<String>,
}

impl FaultReport {
    /// Whether any fault fired or any recovery ran.
    pub fn any_activity(&self) -> bool {
        self.injected.total() > 0
            || self.retransmissions > 0
            || self.integrity_failures > 0
            || self.replay_detected > 0
            || self.relocation_detected > 0
            || self.rollback_rejected > 0
            || !self.quarantined_subs.is_empty()
            || self.latched_fault.is_some()
    }

    /// Total recovery latency added by faults, in memory cycles.
    pub fn total_recovery_cycles(&self) -> u64 {
        self.link_recovery_cycles + self.sd_recovery_cycles
    }

    /// Whether the run saw a degraded episode: a sub-channel left
    /// `Healthy` long enough to be counted, or parity had to rebuild.
    pub fn degraded_episode(&self) -> bool {
        self.parity_rebuilds > 0
            || self.quarantine_entries.iter().any(|&e| e > 0)
            || self.sub_health.iter().any(|&h| h != HealthState::Healthy)
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Benchmark all apps ran.
    pub benchmark: Benchmark,
    /// Per-NS-App execution time (CPU cycles to first trace completion).
    pub ns_exec_cpu_cycles: Vec<u64>,
    /// NS-App read latency (memory cycles, arrival → data at CPU).
    pub ns_read_latency: RunningMean,
    /// NS-App write latency (memory cycles, arrival → DRAM write done).
    pub ns_write_latency: RunningMean,
    /// NS read-latency distribution (8-cycle buckets up to 2048 cycles).
    pub ns_read_histogram: Histogram,
    /// Data-bus utilization per channel.
    pub channel_utilization: Vec<f64>,
    /// Row-buffer hit rate per channel.
    pub channel_row_hit: Vec<f64>,
    /// ORAM activity (schemes with an S-App under Path ORAM).
    pub oram: Option<OramSummary>,
    /// Secure-channel link traffic (to-mem, to-cpu bytes), D-ORAM only.
    pub secure_link_bytes: Option<(u64, u64)>,
    /// DRAM energy per channel (secure channel first in D-ORAM).
    pub channel_energy: Vec<EnergyBreakdown>,
    /// Total simulated memory cycles.
    pub total_mem_cycles: u64,
    /// Fault-injection / recovery activity (schemes with serial links;
    /// `None` where no link or SD exists to fault).
    pub faults: Option<FaultReport>,
}

impl RunReport {
    /// Arithmetic mean of NS-App execution times.
    pub fn ns_exec_mean(&self) -> f64 {
        if self.ns_exec_cpu_cycles.is_empty() {
            return 0.0;
        }
        self.ns_exec_cpu_cycles.iter().sum::<u64>() as f64 / self.ns_exec_cpu_cycles.len() as f64
    }

    /// Geometric mean of NS-App execution times (the paper's summary
    /// statistic).
    pub fn ns_exec_geomean(&self) -> f64 {
        let v: Vec<f64> = self.ns_exec_cpu_cycles.iter().map(|&c| c as f64).collect();
        geometric_mean(&v)
    }

    /// Slowest NS-App execution time.
    pub fn ns_exec_worst(&self) -> u64 {
        self.ns_exec_cpu_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Fastest NS-App execution time.
    pub fn ns_exec_best(&self) -> u64 {
        self.ns_exec_cpu_cycles.iter().copied().min().unwrap_or(0)
    }

    /// Approximate NS read-latency percentile (e.g. `0.95`), in memory
    /// cycles; `None` before any read completed.
    pub fn ns_read_percentile(&self, q: f64) -> Option<u64> {
        self.ns_read_histogram.quantile(q)
    }

    /// Total DRAM energy of the run, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.channel_energy
            .iter()
            .fold(EnergyBreakdown::default(), |acc, e| acc.add(e))
            .total_mj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(times: Vec<u64>) -> RunReport {
        RunReport {
            scheme: Scheme::Baseline,
            benchmark: Benchmark::Black,
            ns_exec_cpu_cycles: times,
            ns_read_latency: RunningMean::new(),
            ns_write_latency: RunningMean::new(),
            ns_read_histogram: Histogram::new(8, 256),
            channel_utilization: vec![],
            channel_row_hit: vec![],
            oram: None,
            secure_link_bytes: None,
            channel_energy: vec![],
            total_mem_cycles: 0,
            faults: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = report(vec![100, 400]);
        assert_eq!(r.ns_exec_mean(), 250.0);
        assert!((r.ns_exec_geomean() - 200.0).abs() < 1e-9);
        assert_eq!(r.ns_exec_worst(), 400);
        assert_eq!(r.ns_exec_best(), 100);
    }

    #[test]
    fn empty_is_zero() {
        let r = report(vec![]);
        assert_eq!(r.ns_exec_mean(), 0.0);
        assert_eq!(r.ns_exec_geomean(), 0.0);
        assert_eq!(r.ns_exec_worst(), 0);
        assert_eq!(r.ns_read_percentile(0.5), None);
        assert_eq!(r.total_energy_mj(), 0.0);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut r = report(vec![1]);
        for v in 0..100 {
            r.ns_read_histogram.record(v);
        }
        let p50 = r.ns_read_percentile(0.5).unwrap();
        assert!((48..=64).contains(&p50), "p50 {p50}");
    }
}
