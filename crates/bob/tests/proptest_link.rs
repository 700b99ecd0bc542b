//! Property tests for the BOB serial link: conservation, FIFO order, and
//! latency bounds under arbitrary packet schedules.

use doram_bob::{Link, LinkConfig};
use doram_sim::MemCycle;
use proptest::prelude::*;

/// (send gap, wire bytes) per packet.
fn gen_schedule() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..20, prop_oneof![Just(8u64), Just(72u64)]), 1..60)
}

/// Sends a schedule to-mem, retrying on back-pressure; returns
/// `(send_cycle, arrive_cycle, bytes)` per packet in arrival order.
fn drive(cfg: LinkConfig, schedule: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
    let mut link: Link<usize> = Link::new(cfg);
    let mut sent_at = vec![None; schedule.len()];
    let mut arrivals = Vec::new();
    let mut next = 0;
    let mut due = 0u64;
    let mut now = 0u64;
    while arrivals.len() < schedule.len() {
        assert!(now < 1_000_000, "liveness");
        if next < schedule.len() && sent_at[next].is_none() && now >= due {
            let bytes = schedule[next].1;
            if link.send_to_mem(bytes, next).is_ok() {
                sent_at[next] = Some(now);
                next += 1;
                if next < schedule.len() {
                    due = now + schedule[next].0;
                }
            }
        }
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        link.tick(MemCycle(now), &mut at_mem, &mut at_cpu);
        assert!(at_cpu.is_empty(), "nothing sent toward the CPU");
        for id in at_mem {
            arrivals.push((
                sent_at[id].expect("sent before arrival"),
                now,
                schedule[id].1,
            ));
        }
        now += 1;
    }
    arrivals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Everything sent arrives, in order, exactly once.
    #[test]
    fn fifo_conservation(schedule in gen_schedule()) {
        let arrivals = drive(LinkConfig::default(), &schedule);
        prop_assert_eq!(arrivals.len(), schedule.len());
        for w in arrivals.windows(2) {
            prop_assert!(w[1].1 >= w[0].1, "arrival order violated");
        }
    }

    /// No packet beats serialization + propagation; none starves.
    #[test]
    fn latency_bounds(schedule in gen_schedule()) {
        let cfg = LinkConfig::default();
        let arrivals = drive(cfg, &schedule);
        let lat = cfg.latency.0;
        for &(sent, arrived, bytes) in &arrivals {
            let ser = bytes.div_ceil(cfg.bytes_per_cycle).max(1);
            prop_assert!(
                arrived >= sent + ser + lat,
                "packet arrived at {arrived} after send {sent}: faster than {ser}+{lat}"
            );
            // Upper bound: everything ahead of it serialized first.
            let worst: u64 = schedule.iter().map(|&(_, b)| b.div_ceil(cfg.bytes_per_cycle).max(1)).sum();
            prop_assert!(arrived <= sent + worst + lat + 1);
        }
    }

    /// Aggregate throughput never exceeds the configured bandwidth.
    #[test]
    fn bandwidth_ceiling(schedule in gen_schedule()) {
        let cfg = LinkConfig::default();
        let arrivals = drive(cfg, &schedule);
        let total_bytes: u64 = schedule.iter().map(|&(_, b)| b).sum();
        let first_send = arrivals.iter().map(|a| a.0).min().unwrap();
        let last_arrive = arrivals.iter().map(|a| a.1).max().unwrap();
        let span = last_arrive - first_send;
        prop_assert!(
            total_bytes <= (span + 1) * cfg.bytes_per_cycle,
            "{total_bytes} B in {span} cycles exceeds the lane rate"
        );
    }
}
