//! Chaos soak: graceful degradation under sustained sub-channel loss.
//!
//! A hostile memory region takes out one secure sub-channel mid-run.
//! With parity redundancy and the scrubber on, the system must *degrade*
//! — rebuild lost bucket reads from the surviving shares and keep
//! serving — instead of fail-stopping, and the verified functional ORAM
//! (the protocol oracle) must still return exactly what was written.

use doram::core::secure_channel::hostile_sub_plan;
use doram::core::{Scheme, Simulation, SystemConfig};
use doram::sim::fault::{FaultPlan, FaultRates};
use doram::sim::health::HealthState;
use doram::trace::Benchmark;

#[test]
fn chaos_soak_survives_quarantine_and_records_the_episode() {
    // Sub-channel 1 turns permanently hostile after warm-up. The run
    // must drain on parity rebuilds, not error out.
    let soak = || {
        let cfg = SystemConfig::builder(Benchmark::Libq)
            .scheme(Scheme::DOram { k: 0, c: 7 })
            .ns_accesses(800)
            .tree_l_max(12)
            .seed(5)
            .parity(true)
            .scrub_every(2_000)
            .fault_plan(hostile_sub_plan(5, 1, 10_000, u64::MAX))
            .max_mem_cycles(100_000_000)
            .build()
            .expect("valid");
        Simulation::new(cfg)
            .expect("valid")
            .run()
            .expect("degraded run drains instead of fail-stopping")
    };
    let r = soak();
    let fr = r.faults.clone().expect("D-ORAM reports fault activity");
    assert!(fr.degraded_episode(), "episode must be recorded: {fr:?}");
    assert_eq!(fr.quarantined_subs, vec![1], "exactly sub 1 lost");
    assert_eq!(fr.sub_health[1], HealthState::Quarantined);
    assert!(fr.quarantine_entries[1] >= 1);
    assert!(fr.unhealthy_cycles[1] > 0);
    assert!(fr.parity_rebuilds > 0, "reads were reconstructed");
    // The other three sub-channels stayed healthy.
    for sub in [0usize, 2, 3] {
        assert_eq!(fr.sub_health[sub], HealthState::Healthy, "sub {sub}");
        assert_eq!(fr.quarantine_entries[sub], 0, "sub {sub}");
    }
    // Every tenant and the S-App made progress despite the loss.
    for (i, &t) in r.ns_exec_cpu_cycles.iter().enumerate() {
        assert!(t > 0, "tenant {i}");
    }
    assert!(r.oram.expect("SD ran").real_accesses > 0);
    // Same seed ⇒ same quarantine point, same rebuilds, same timing.
    let again = soak();
    assert_eq!(again.faults.unwrap(), fr);
    assert_eq!(again.ns_exec_cpu_cycles, r.ns_exec_cpu_cycles);
    assert_eq!(again.total_mem_cycles, r.total_mem_cycles);
}

#[test]
fn chaos_soak_probation_promotes_after_the_burst_ends() {
    // A *bounded* burst: the sub-channel is lost, the burst ends, the
    // scrubber repairs the damage and probation walks it back to
    // service. Final health must be all-Healthy again.
    let cfg = SystemConfig::builder(Benchmark::Libq)
        .scheme(Scheme::DOram { k: 0, c: 7 })
        .ns_accesses(800)
        .tree_l_max(12)
        .seed(9)
        .parity(true)
        .scrub_every(500)
        .probation_window(3_000)
        .probation_successes(2)
        .fault_plan(hostile_sub_plan(9, 2, 5_000, 20_000))
        .max_mem_cycles(100_000_000)
        .build()
        .expect("valid");
    let r = Simulation::new(cfg)
        .expect("valid")
        .run()
        .expect("self-healing run completes");
    let fr = r.faults.expect("fault block present");
    assert!(fr.quarantine_entries[2] >= 1, "sub 2 was lost: {fr:?}");
    assert!(fr.scrub_repairs > 0, "scrubber repaired the damage");
    assert_eq!(
        fr.sub_health,
        vec![HealthState::Healthy; 4],
        "probation must promote the sub-channel back to service"
    );
    // The episode still shows in the report even after full recovery.
    assert!(fr.degraded_episode());
    assert!(fr.unhealthy_cycles[2] > 0);
}

#[test]
fn functional_oracle_readbacks_survive_chaos() {
    use doram::oram::verified::VerifiedOram;
    use std::collections::HashMap;

    // The verified functional model is the protocol oracle: under
    // sustained sub-threshold chaos (bit-flips + forged MACs on the
    // untrusted store) every readback must still equal the last write.
    let mut oram = VerifiedOram::new(
        8,
        4,
        3,
        FaultPlan::with_rates(
            17,
            FaultRates {
                bitflip_ppm: 2_000,
                forge_mac_ppm: 500,
                ..FaultRates::none()
            },
        ),
        Default::default(),
    );
    let mut model: HashMap<u64, u64> = HashMap::new();
    // Deterministic mixed workload over 64 blocks.
    for step in 0u64..2_000 {
        let block = (step * 7 + step / 3) % 64;
        if step % 3 == 0 {
            let value = step * 1_000 + block;
            let prev = oram.write(block, value).expect("write survives chaos");
            assert_eq!(prev, model.insert(block, value), "step {step}");
        } else {
            let got = oram.read(block).expect("read survives chaos");
            assert_eq!(got, model.get(&block).copied(), "step {step}");
        }
    }
    assert!(
        oram.fault_counts().total() > 0,
        "chaos must actually fire: {:?}",
        oram.fault_counts()
    );
    assert!(oram.recovery_stats().refetches > 0, "recovery ran");
    assert_eq!(oram.health(), HealthState::Healthy, "sub-threshold rates");
    oram.check_invariants().expect("structural invariants hold");
    // The full content snapshot matches the reference model exactly.
    let snap: HashMap<u64, u64> = oram.snapshot().into_iter().collect();
    assert_eq!(snap, model, "oracle content diverged");
}
