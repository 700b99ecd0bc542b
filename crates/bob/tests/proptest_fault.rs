//! Property tests for link-level fault injection and recovery: for any
//! seeded sub-threshold [`FaultPlan`], the link still delivers every frame
//! exactly once and in order, recovery only ever *adds* latency, the
//! injected/recovered accounting balances, and the whole fault schedule is
//! a deterministic function of the plan seed.

use doram_bob::{Link, LinkConfig};
use doram_sim::fault::{FaultPlan, FaultRates};
use doram_sim::MemCycle;
use proptest::prelude::*;

/// (send gap, wire bytes) per packet.
fn gen_schedule() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..20, prop_oneof![Just(8u64), Just(72u64)]), 1..40)
}

/// Sends a schedule to-mem through a link carrying `plan`, retrying on
/// back-pressure; returns the arrival cycle of each packet, indexed by
/// packet id. Asserts exactly-once delivery (a replayed frame may land
/// *after* frames sent later — the link delivers in arrival order, so
/// send-order FIFO is only guaranteed on a clean link).
fn drive(plan: &FaultPlan, schedule: &[(u64, u64)]) -> (Vec<u64>, Link<usize>) {
    let mut link: Link<usize> = Link::new(LinkConfig::default());
    link.set_fault_plan(plan, 7);
    let mut arrival = vec![None; schedule.len()];
    let mut next = 0;
    let mut due = 0u64;
    let mut now = 0u64;
    let mut delivered = 0;
    while delivered < schedule.len() {
        assert!(now < 2_000_000, "liveness under faults");
        if next < schedule.len() && now >= due && link.send_to_mem(schedule[next].1, next).is_ok() {
            next += 1;
            if next < schedule.len() {
                due = now + schedule[next].0;
            }
        }
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        link.tick(MemCycle(now), &mut at_mem, &mut at_cpu);
        assert!(at_cpu.is_empty(), "nothing sent toward the CPU");
        for id in at_mem {
            assert!(arrival[id].is_none(), "duplicate delivery of {id}");
            arrival[id] = Some(now);
            delivered += 1;
        }
        now += 1;
    }
    (
        arrival.into_iter().map(|a| a.expect("delivered")).collect(),
        link,
    )
}

fn plan(seed: u64, corrupt_ppm: u32, drop_ppm: u32) -> FaultPlan {
    FaultPlan::with_rates(
        seed,
        FaultRates {
            corrupt_ppm,
            drop_ppm,
            ..FaultRates::none()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sub-threshold fault plan: every frame is still delivered exactly
    /// once, and the injected/recovered accounting balances.
    #[test]
    fn recovery_conserves_frames(
        seed in 0u64..1_000,
        corrupt_ppm in 0u32..80_000,
        drop_ppm in 0u32..40_000,
        schedule in gen_schedule(),
    ) {
        let (_, link) = drive(&plan(seed, corrupt_ppm, drop_ppm), &schedule);
        let stats = link.stats();
        let counts = link.fault_counts();
        // Every injected fault was detected and replayed — nothing slips
        // through, nothing is recovered that was never injected.
        prop_assert_eq!(
            counts.corrupt_frames + counts.drop_frames,
            stats.crc_errors + stats.timeouts,
        );
        prop_assert_eq!(stats.retransmissions, stats.crc_errors + stats.timeouts);
        prop_assert_eq!(stats.exhausted_retries, 0, "rates are sub-threshold");
        prop_assert!(link.fault().is_none());
        if counts.total() > 0 {
            prop_assert!(stats.recovery_cycles > 0, "recovery is never free");
        }
    }

    /// Recovery only ever adds latency: under faults every packet arrives
    /// no earlier than it does on a clean link.
    #[test]
    fn faults_only_delay(
        seed in 0u64..1_000,
        corrupt_ppm in 1u32..80_000,
        drop_ppm in 0u32..40_000,
        schedule in gen_schedule(),
    ) {
        let (clean, _) = drive(&FaultPlan::none(), &schedule);
        let (faulty, link) = drive(&plan(seed, corrupt_ppm, drop_ppm), &schedule);
        for (i, (&c, &f)) in clean.iter().zip(&faulty).enumerate() {
            prop_assert!(f >= c, "packet {i} arrived at {f}, beating clean {c}");
        }
        // The per-packet slack is exactly what the link booked as recovery.
        let slack: u64 = clean.iter().zip(&faulty).map(|(&c, &f)| f - c).sum();
        if slack > 0 {
            prop_assert!(link.stats().recovery_cycles > 0);
        }
    }

    /// The fault schedule is a pure function of the plan seed: same seed,
    /// same arrivals and the same counters; zero rates behave identically
    /// to no plan at all.
    #[test]
    fn same_seed_same_faults(
        seed in 0u64..1_000,
        corrupt_ppm in 0u32..80_000,
        drop_ppm in 0u32..40_000,
        schedule in gen_schedule(),
    ) {
        let p = plan(seed, corrupt_ppm, drop_ppm);
        let (a1, l1) = drive(&p, &schedule);
        let (a2, l2) = drive(&p, &schedule);
        prop_assert_eq!(&a1, &a2, "same seed must replay the same schedule");
        prop_assert_eq!(l1.stats(), l2.stats());
        prop_assert_eq!(l1.fault_counts(), l2.fault_counts());

        let (zero, lz) = drive(&plan(seed, 0, 0), &schedule);
        let (none, _) = drive(&FaultPlan::none(), &schedule);
        prop_assert_eq!(&zero, &none, "zero rates consume no randomness");
        prop_assert_eq!(lz.stats(), doram_bob::LinkStats::default());
    }
}
