//! DRAM energy accounting.
//!
//! An IDD-style event-energy model in the spirit of Micron's DDR3 power
//! calculator (and USIMM's power reporting): each command class carries a
//! per-event energy derived from the datasheet currents, plus a
//! background term proportional to time. The paper does not evaluate
//! energy, but the BOB literature it builds on does (\[9\] reports power as
//! a first-class result), so the model rounds out the memory substrate.

use crate::stats::SubChannelStats;

/// Per-event and background energy parameters for one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of an ACTIVATE + (eventual) PRECHARGE pair, in nanojoules.
    pub act_pre_nj: f64,
    /// Energy of a READ burst (command + I/O), in nanojoules.
    pub read_nj: f64,
    /// Energy of a WRITE burst (command + ODT), in nanojoules.
    pub write_nj: f64,
    /// Energy of one REFRESH command, in nanojoules.
    pub refresh_nj: f64,
    /// Background (standby + peripheral) power, in milliwatts.
    pub background_mw: f64,
}

impl EnergyParams {
    /// Representative DDR3-1600 x8-device rank values (Micron 4 Gb
    /// datasheet-derived, as used by USIMM's `power.txt` defaults).
    pub fn ddr3_1600() -> EnergyParams {
        EnergyParams {
            act_pre_nj: 2.7,
            read_nj: 2.4,
            write_nj: 2.6,
            refresh_nj: 27.0,
            background_mw: 110.0,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> EnergyParams {
        EnergyParams::ddr3_1600()
    }
}

/// Energy consumed by one sub-channel over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Row activation + precharge energy (millijoules).
    pub activation_mj: f64,
    /// Read-burst energy (millijoules).
    pub read_mj: f64,
    /// Write-burst energy (millijoules).
    pub write_mj: f64,
    /// Refresh energy (millijoules).
    pub refresh_mj: f64,
    /// Background energy (millijoules).
    pub background_mj: f64,
}

impl EnergyBreakdown {
    /// Computes the breakdown from a sub-channel's counters.
    pub fn from_stats(stats: &SubChannelStats, params: &EnergyParams) -> EnergyBreakdown {
        let nj_to_mj = 1e-6;
        // tCK = 1.25 ns ⇒ cycles × 1.25e-9 s × mW = cycles × 1.25e-9 mJ/mW.
        let seconds = stats.cycles.get() as f64 * 1.25e-9;
        EnergyBreakdown {
            activation_mj: stats.activates.get() as f64 * params.act_pre_nj * nj_to_mj,
            read_mj: stats.reads.get() as f64 * params.read_nj * nj_to_mj,
            write_mj: stats.writes.get() as f64 * params.write_nj * nj_to_mj,
            refresh_mj: stats.refreshes.get() as f64 * params.refresh_nj * nj_to_mj,
            background_mj: seconds * params.background_mw,
        }
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.activation_mj + self.read_mj + self.write_mj + self.refresh_mj + self.background_mj
    }

    /// Component-wise sum.
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            activation_mj: self.activation_mj + other.activation_mj,
            read_mj: self.read_mj + other.read_mj,
            write_mj: self.write_mj + other.write_mj,
            refresh_mj: self.refresh_mj + other.refresh_mj,
            background_mj: self.background_mj + other.background_mj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemOp, MemRequest, RequestClass, SubChannel, SubChannelConfig};
    use doram_sim::{AppId, MemCycle, RequestId};

    #[test]
    fn hand_computed_breakdown() {
        let mut stats = SubChannelStats::default();
        stats.activates.add(1_000);
        stats.reads.add(2_000);
        stats.writes.add(500);
        stats.refreshes.add(10);
        stats.cycles.add(800_000); // 1 ms at 1.25 ns
        let e = EnergyBreakdown::from_stats(&stats, &EnergyParams::ddr3_1600());
        assert!((e.activation_mj - 1_000.0 * 2.7e-6).abs() < 1e-12);
        assert!((e.read_mj - 2_000.0 * 2.4e-6).abs() < 1e-12);
        assert!((e.write_mj - 500.0 * 2.6e-6).abs() < 1e-12);
        assert!((e.refresh_mj - 10.0 * 27.0e-6).abs() < 1e-12);
        // 1 ms × 110 mW = 0.11 mJ.
        assert!((e.background_mj - 0.11).abs() < 1e-9);
        assert!(e.total_mj() > e.background_mj);
    }

    #[test]
    fn busier_channels_burn_more_energy() {
        let run = |n_reads: u64| {
            let mut sc = SubChannel::new(SubChannelConfig::default());
            let mut done = Vec::new();
            let mut issued = 0u64;
            for c in 0..20_000u64 {
                if issued < n_reads && sc.can_accept_read() {
                    sc.enqueue(MemRequest {
                        id: RequestId(issued),
                        app: AppId(0),
                        op: MemOp::Read,
                        addr: issued * 64 * 97, // scattered
                        class: RequestClass::Normal,
                        arrival: MemCycle(c),
                    })
                    .expect("capacity checked");
                    issued += 1;
                }
                sc.tick(MemCycle(c), &mut done);
            }
            EnergyBreakdown::from_stats(sc.stats(), &EnergyParams::ddr3_1600()).total_mj()
        };
        let light = run(50);
        let heavy = run(2_000);
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn add_is_componentwise() {
        let a = EnergyBreakdown {
            activation_mj: 1.0,
            read_mj: 2.0,
            write_mj: 3.0,
            refresh_mj: 4.0,
            background_mj: 5.0,
        };
        let s = a.add(&a);
        assert_eq!(s.total_mj(), 2.0 * a.total_mj());
        assert_eq!(s.read_mj, 4.0);
    }
}
