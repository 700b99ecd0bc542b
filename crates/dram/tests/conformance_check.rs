//! End-to-end JEDEC conformance: record the scheduler's actual command
//! stream under randomized traffic and re-validate every timing rule with
//! the independent checker in `doram_dram::conformance`.

use doram_dram::{
    check_conformance, DramTiming, MemOp, MemRequest, PagePolicy, RequestClass, ShareArbiter,
    SubChannel, SubChannelConfig,
};
use doram_sim::rng::Xoshiro256;
use doram_sim::{AppId, MemCycle, RequestId};
use proptest::prelude::*;

fn drive_traced(
    cfg: SubChannelConfig,
    seed: u64,
    n_requests: u64,
) -> Vec<doram_dram::CommandRecord> {
    let mut sc = SubChannel::new(cfg);
    sc.enable_command_trace();
    let mut rng = Xoshiro256::seed_from(seed);
    let mut done = Vec::new();
    let mut issued = 0u64;
    let mut completed = 0usize;
    let mut now = 0u64;
    while (completed as u64) < n_requests {
        assert!(now < 2_000_000, "liveness: {completed}/{n_requests}");
        if issued < n_requests {
            let op = if rng.gen_bool(0.3) {
                MemOp::Write
            } else {
                MemOp::Read
            };
            let ok = match op {
                MemOp::Read => sc.can_accept_read(),
                MemOp::Write => sc.can_accept_write(),
            };
            if ok && rng.gen_bool(0.7) {
                sc.enqueue(MemRequest {
                    id: RequestId(issued),
                    app: AppId(0),
                    op,
                    addr: rng.gen_below(1 << 22) * 64,
                    class: if rng.gen_bool(0.4) {
                        RequestClass::Oram
                    } else {
                        RequestClass::Normal
                    },
                    arrival: MemCycle(now),
                })
                .expect("capacity checked");
                issued += 1;
            }
        }
        sc.tick(MemCycle(now), &mut done);
        completed = done.len();
        now += 1;
    }
    sc.take_command_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The default scheduler never emits an illegal command sequence.
    #[test]
    fn default_scheduler_is_jedec_legal(seed in 0u64..1000) {
        let trace = drive_traced(SubChannelConfig::default(), seed, 300);
        prop_assert!(!trace.is_empty());
        if let Err(v) = check_conformance(&trace, &DramTiming::ddr3_1600()) {
            prop_assert!(false, "violations: {:?}", &v[..v.len().min(5)]);
        }
    }

    /// Neither arbitration mode compromises legality.
    #[test]
    fn arbiters_are_jedec_legal(seed in 0u64..500, priority in any::<bool>()) {
        let cfg = SubChannelConfig {
            arbiter: if priority {
                ShareArbiter::oram_priority()
            } else {
                ShareArbiter::paper_default()
            },
            ..SubChannelConfig::default()
        };
        let trace = drive_traced(cfg, seed, 250);
        if let Err(v) = check_conformance(&trace, &DramTiming::ddr3_1600()) {
            prop_assert!(false, "violations: {:?}", &v[..v.len().min(5)]);
        }
    }

    /// Closed-page auto-precharge stays legal too.
    #[test]
    fn closed_page_is_jedec_legal(seed in 0u64..500) {
        let cfg = SubChannelConfig {
            page_policy: PagePolicy::Closed,
            ..SubChannelConfig::default()
        };
        let trace = drive_traced(cfg, seed, 250);
        if let Err(v) = check_conformance(&trace, &DramTiming::ddr3_1600()) {
            prop_assert!(false, "violations: {:?}", &v[..v.len().min(5)]);
        }
    }
}

#[test]
fn trace_covers_refresh() {
    // A long-enough run crosses tREFI; the refresh command must appear in
    // the trace and still conform.
    let mut sc = SubChannel::new(SubChannelConfig::default());
    sc.enable_command_trace();
    let mut done = Vec::new();
    let mut id = 0u64;
    for c in 0..15_000u64 {
        if c % 50 == 0 && sc.can_accept_read() {
            let _ = sc.enqueue(MemRequest {
                id: RequestId(id),
                app: AppId(0),
                op: MemOp::Read,
                addr: id * 64,
                class: RequestClass::Normal,
                arrival: MemCycle(c),
            });
            id += 1;
        }
        sc.tick(MemCycle(c), &mut done);
    }
    let trace = sc.take_command_trace();
    assert!(
        trace
            .iter()
            .any(|r| r.command == doram_dram::DeviceCommand::Refresh),
        "refresh must appear within two tREFI"
    );
    check_conformance(&trace, &DramTiming::ddr3_1600()).expect("legal");
}
