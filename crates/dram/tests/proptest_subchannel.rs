//! Property tests for the DDR3 sub-channel: conservation, latency bounds,
//! determinism, and liveness under arbitrary request mixes; and the
//! request/completion checkpoint decoders under hostile bytes.

use doram_dram::{
    Completion, DramTiming, MemOp, MemRequest, RequestClass, ShareArbiter, SubChannel,
    SubChannelConfig,
};
use doram_sim::snapshot::{Codec, SnapshotReader, SnapshotWriter};
use doram_sim::{AppId, MemCycle, RequestId};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A compact request description the strategies generate.
#[derive(Debug, Clone, Copy)]
struct Gen {
    line: u64,
    is_write: bool,
    is_oram: bool,
    gap: u64,
}

fn gen_requests(max: usize) -> impl Strategy<Value = Vec<Gen>> {
    prop::collection::vec(
        (0u64..4096, any::<bool>(), any::<bool>(), 0u64..30).prop_map(|(line, w, o, gap)| Gen {
            line,
            is_write: w,
            is_oram: o,
            gap,
        }),
        1..max,
    )
}

/// Drives a sub-channel until all `reqs` complete; returns completions.
fn drive(cfg: SubChannelConfig, reqs: &[Gen]) -> Vec<Completion> {
    let mut sc = SubChannel::new(cfg);
    let mut done = Vec::new();
    let mut pending: Vec<(u64, MemRequest)> = Vec::new();
    let mut at = 0u64;
    for (i, g) in reqs.iter().enumerate() {
        at += g.gap;
        pending.push((
            at,
            MemRequest {
                id: RequestId(i as u64),
                app: AppId(0),
                op: if g.is_write {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
                addr: g.line * 64,
                class: if g.is_oram {
                    RequestClass::Oram
                } else {
                    RequestClass::Normal
                },
                arrival: MemCycle(0), // set at actual enqueue below
            },
        ));
    }
    let mut idx = 0;
    let mut now = 0u64;
    let limit = 1_000_000u64;
    while done.len() < reqs.len() {
        assert!(
            now < limit,
            "liveness: only {} of {} done",
            done.len(),
            reqs.len()
        );
        while idx < pending.len() && pending[idx].0 <= now {
            let (_, mut r) = pending[idx];
            r.arrival = MemCycle(now);
            match r.op {
                MemOp::Read if !sc.can_accept_read() => break,
                MemOp::Write if !sc.can_accept_write() => break,
                _ => {}
            }
            sc.enqueue(r).expect("capacity checked");
            idx += 1;
        }
        sc.tick(MemCycle(now), &mut done);
        now += 1;
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request completes exactly once, with a latency no better
    /// than the device's physical minimum.
    #[test]
    fn conservation_and_latency_floor(reqs in gen_requests(120)) {
        let t = DramTiming::ddr3_1600();
        let done = drive(SubChannelConfig::default(), &reqs);
        prop_assert_eq!(done.len(), reqs.len());
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), reqs.len(), "duplicate completion");
        for c in &done {
            let floor = match c.request.op {
                MemOp::Read => t.cl + t.t_burst,
                MemOp::Write => t.cwl + t.t_burst,
            };
            prop_assert!(
                c.latency() >= floor,
                "{:?} finished faster ({}) than physics ({floor})",
                c.request.op, c.latency()
            );
        }
    }

    /// The sub-channel is a deterministic function of its input stream.
    #[test]
    fn deterministic(reqs in gen_requests(80)) {
        let a = drive(SubChannelConfig::default(), &reqs);
        let b = drive(SubChannelConfig::default(), &reqs);
        prop_assert_eq!(a, b);
    }

    /// The bandwidth-preallocation arbiter never loses requests, whatever
    /// the class mix.
    #[test]
    fn arbiter_preserves_liveness(reqs in gen_requests(120)) {
        let cfg = SubChannelConfig {
            arbiter: ShareArbiter::paper_default(),
            ..SubChannelConfig::default()
        };
        let done = drive(cfg, &reqs);
        prop_assert_eq!(done.len(), reqs.len());
    }

    /// Strict ORAM priority also stays live (the starvation valve works).
    #[test]
    fn priority_arbiter_preserves_liveness(reqs in gen_requests(120)) {
        let cfg = SubChannelConfig {
            arbiter: ShareArbiter::oram_priority(),
            ..SubChannelConfig::default()
        };
        let done = drive(cfg, &reqs);
        prop_assert_eq!(done.len(), reqs.len());
    }

    /// Reads to the same line observe program order *of service*: the
    /// data bus serializes bursts, so completions never tie.
    #[test]
    fn completions_have_distinct_burst_slots(reqs in gen_requests(60)) {
        let done = drive(SubChannelConfig::default(), &reqs);
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finished.0).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            prop_assert!(w[1] != w[0], "two bursts finished the same cycle");
        }
    }
}

/// Runs the request-level composite decoders over `bytes`; the property is
/// "a value or a typed error, never a panic".
fn decode_all(bytes: &[u8]) {
    let _ = <VecDeque<MemRequest> as Codec>::get(&mut SnapshotReader::new(bytes));
    let _ = Vec::<Completion>::get(&mut SnapshotReader::new(bytes));
    let _ = Option::<MemOp>::get(&mut SnapshotReader::new(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, and a valid request queue with one corrupted byte
    /// then cut short, never panic the decoders; the undamaged queue
    /// round-trips.
    #[test]
    fn request_decoders_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        reqs in gen_requests(12),
        victim in any::<u64>(),
        flip in 1u8..255,
        keep in any::<u64>(),
    ) {
        decode_all(&bytes);
        let queue: VecDeque<MemRequest> = reqs
            .iter()
            .enumerate()
            .map(|(i, g)| MemRequest {
                id: RequestId(i as u64),
                app: AppId(1),
                op: if g.is_write { MemOp::Write } else { MemOp::Read },
                addr: g.line * 64,
                class: if g.is_oram { RequestClass::Oram } else { RequestClass::Normal },
                arrival: MemCycle(g.gap),
            })
            .collect();
        let mut w = SnapshotWriter::new();
        queue.put(&mut w);
        let mut valid = w.into_bytes();
        prop_assert_eq!(
            <VecDeque<MemRequest> as Codec>::get(&mut SnapshotReader::new(&valid)).expect("round trip"),
            queue
        );
        let i = (victim % valid.len() as u64) as usize;
        valid[i] ^= flip;
        decode_all(&valid);
        decode_all(&valid[..(keep % (valid.len() as u64 + 1)) as usize]);
    }
}
