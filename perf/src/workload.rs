//! The four benchmark workloads: paper configurations, each run as a
//! fixed batch of complete simulations.
//!
//! Each simulation is short, tens of milliseconds on the reference host
//! (about 150 ms for the hardened one), so that a run repeats it hundreds
//! of times. The host's neighbours slow it in spells from a fraction of a
//! second to minutes; many short repetitions let the fastest of them fall
//! between the spells.

use doram_core::secure_channel::SD_SUB_SITE_BASE;
use doram_core::{Scheme, SystemConfig};
use doram_sim::fault::{
    AdversaryBurst, AdversaryPlan, FaultKind, FaultPlan, FaultRates, FaultWindow,
};
use doram_sim::MemCycle;
use doram_trace::Benchmark;

/// The programs of every batch, in run order: random (MPKI 24), streaming
/// (12) and random (3.7).
pub const BENCHES: [Benchmark; 3] = [Benchmark::Mummer, Benchmark::Libq, Benchmark::Comm4];

/// One workload: a scheme and its knobs, at a fixed trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Co-run scheme.
    pub scheme: Scheme,
    /// Memory accesses per NS-App trace: the batch size.
    pub ns_accesses: u64,
    /// Parity, scrub, probation and the seeded fault and attack plan on.
    pub hardened: bool,
}

/// The paper's headline co-run: 1 S-App delegating to the SD, 7 NS-Apps.
pub const DORAM_CORUN: Workload = Workload {
    name: "doram-corun",
    scheme: Scheme::DOram { k: 0, c: 7 },
    ns_accesses: 200,
    hardened: false,
};

/// On-chip Path ORAM over the four direct channels.
pub const BASELINE_ORAM: Workload = Workload {
    name: "baseline-oram",
    scheme: Scheme::Baseline,
    ns_accesses: 150,
    hardened: false,
};

/// One NS-App alone: the normalisation run behind every figure.
pub const SOLO_NS: Workload = Workload {
    name: "solo-ns",
    scheme: Scheme::SoloNs,
    ns_accesses: 2_000,
    hardened: false,
};

/// D-ORAM+1/4 with every recovery mechanism on, under faults and attacks.
pub const DORAM_HARDENED: Workload = Workload {
    name: "doram-hardened",
    scheme: Scheme::DOram { k: 1, c: 4 },
    ns_accesses: 300,
    hardened: true,
};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [DORAM_CORUN, BASELINE_ORAM, SOLO_NS, DORAM_HARDENED];

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The configuration of the batch's run of `bench` under `seed`.
    pub fn config(&self, bench: Benchmark, seed: u64) -> SystemConfig {
        let builder = SystemConfig::builder(bench)
            .scheme(self.scheme)
            .ns_accesses(self.ns_accesses)
            .seed(seed);
        let builder = if self.hardened {
            builder
                .parity(true)
                .scrub_every(250)
                .probation_window(1_250)
                .fault_plan(hardened_plan(seed))
        } else {
            builder
        };
        builder.build().expect("workload configurations are valid")
    }
}

/// The hardened workload's faults: repeating replay, relocation and
/// rollback bursts on secure sub-channel 0 at 150,000 ppm, ambient link
/// corruption and DRAM bit flips, and every MAC on sub-channel 3 forged
/// over cycles 2,000–3,500 so it is quarantined, rebuilt from parity,
/// scrubbed and put on probation. It is the `adversary_baseline` schedule
/// compressed to fit a simulation of about 12,000 cycles: a single short
/// simulation may still miss a replay or a rollback, but a batch of three
/// catches every class.
pub fn hardened_plan(seed: u64) -> FaultPlan {
    let mut attacks = AdversaryPlan::new(seed).jitter(100);
    for (i, kind) in [
        FaultKind::ReplayStale,
        FaultKind::RelocateBucket,
        FaultKind::RollbackBurst,
    ]
    .into_iter()
    .enumerate()
    {
        attacks = attacks.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE,
            kind,
            start: MemCycle(800 + i as u64 * 800),
            len: 700,
            period: 2_400,
            repeats: 200,
            ppm: 150_000,
        });
    }
    let plan = FaultPlan {
        base: FaultRates {
            corrupt_ppm: 2_000,
            bitflip_ppm: 500,
            ..FaultRates::none()
        },
        ..attacks.compile()
    };
    plan.site_window(
        SD_SUB_SITE_BASE + 3,
        FaultWindow {
            start: MemCycle(2_000),
            end: MemCycle(3_500),
            rates: FaultRates {
                forge_mac_ppm: 1_000_000,
                ..FaultRates::none()
            },
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_core::Simulation;

    #[test]
    fn every_workload_config_builds() {
        for w in WORKLOADS {
            for bench in BENCHES {
                for seed in [1, 2] {
                    let cfg = w.config(bench, seed);
                    assert_eq!(cfg.scheme, w.scheme);
                    assert!(Simulation::new(cfg).is_ok(), "{} {bench}", w.name);
                }
            }
        }
    }

    #[test]
    fn hardened_plan_arms_the_adversary() {
        let cfg = DORAM_HARDENED.config(Benchmark::Mummer, 1);
        assert!(cfg.fault_plan.has_adversary());
        assert!(cfg.parity && cfg.scrub_every > 0 && cfg.probation_window > 0);
        for w in [DORAM_CORUN, BASELINE_ORAM, SOLO_NS] {
            assert!(
                w.config(Benchmark::Mummer, 1).fault_plan.is_zero(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn names_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("all_figures"), None);
    }
}
