//! Property tests for the ROB core.

use doram_cpu::{CoreConfig, MemoryPort, TraceCore};
use doram_sim::RequestId;
use doram_trace::{AccessOp, TraceRecord};
use proptest::prelude::*;
use std::collections::VecDeque;

/// A memory port answering reads after a fixed delay, refusing nothing.
struct DelayPort {
    delay: u64,
    now: u64,
    next_id: u64,
    inflight: VecDeque<(u64, RequestId)>,
    reads: u64,
    writes: u64,
}

impl DelayPort {
    fn new(delay: u64) -> DelayPort {
        DelayPort {
            delay,
            now: 0,
            next_id: 0,
            inflight: VecDeque::new(),
            reads: 0,
            writes: 0,
        }
    }
    fn ready(&mut self) -> Vec<RequestId> {
        let mut out = Vec::new();
        while let Some(&(t, id)) = self.inflight.front() {
            if t <= self.now {
                self.inflight.pop_front();
                out.push(id);
            } else {
                break;
            }
        }
        out
    }
}

impl MemoryPort for DelayPort {
    fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.reads += 1;
        self.inflight.push_back((self.now + self.delay, id));
        Some(id)
    }
    fn try_write(&mut self, _addr: u64) -> bool {
        self.writes += 1;
        true
    }
}

fn gen_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0u64..40, any::<bool>(), 0u64..1_000).prop_map(|(gap, w, line)| TraceRecord {
            gap,
            op: if w { AccessOp::Write } else { AccessOp::Read },
            addr: line * 64,
        }),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core retires exactly the trace's instruction count and issues
    /// exactly its memory operations, for any trace and memory delay.
    #[test]
    fn retirement_conservation(trace in gen_trace(), delay in 1u64..80) {
        let expect_instr: u64 = trace.iter().map(|r| r.instructions()).sum();
        let expect_reads = trace.iter().filter(|r| r.op == AccessOp::Read).count() as u64;
        let expect_writes = trace.len() as u64 - expect_reads;

        let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
        let mut port = DelayPort::new(delay);
        let mut cycles = 0u64;
        while !core.finished() {
            prop_assert!(cycles < 1_000_000, "liveness");
            for id in port.ready() {
                core.complete_read(id);
            }
            core.step(&mut port);
            port.now += 1;
            cycles += 1;
        }
        prop_assert_eq!(core.retired(), expect_instr);
        prop_assert_eq!(port.reads, expect_reads);
        prop_assert_eq!(port.writes, expect_writes);
    }

    /// The MLP tally adds up exactly the reads outstanding before each
    /// step, however completions arrive: early, twice, or for ids the core
    /// never issued.
    #[test]
    fn outstanding_read_sum_counts_the_rob(
        trace in gen_trace(),
        delay in 1u64..60,
        noise in prop::collection::vec((0u8..4, 0u64..1_000), 1..64),
    ) {
        let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
        let mut port = DelayPort::new(delay);
        let mut completed: Vec<RequestId> = Vec::new();
        let mut expected = 0u64;
        let mut cycles = 0usize;
        while !core.finished() {
            prop_assert!(cycles < 1_000_000, "liveness");
            for id in port.ready() {
                core.complete_read(id);
                completed.push(id);
            }
            let (kind, x) = noise[cycles % noise.len()];
            match kind {
                // A duplicate of a completion already delivered.
                1 if !completed.is_empty() => {
                    core.complete_read(completed[x as usize % completed.len()]);
                }
                // An id the core never issued.
                2 => core.complete_read(RequestId(1_000_000 + x)),
                // A read still in flight completes early; its on-time
                // delivery later is then a duplicate.
                3 if !port.inflight.is_empty() => {
                    let (_, id) = port.inflight[x as usize % port.inflight.len()];
                    core.complete_read(id);
                    completed.push(id);
                }
                _ => {}
            }
            expected += core.outstanding_reads().count() as u64;
            core.step(&mut port);
            port.now += 1;
            cycles += 1;
        }
        prop_assert_eq!(core.stats().outstanding_read_sum.get(), expected);
        prop_assert_eq!(core.outstanding_reads().count(), 0);
    }

    /// Slower memory never makes the core finish faster.
    #[test]
    fn monotone_in_memory_latency(trace in gen_trace()) {
        let time = |delay: u64, trace: Vec<TraceRecord>| {
            let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace.into_iter()));
            let mut port = DelayPort::new(delay);
            let mut cycles = 0u64;
            while !core.finished() {
                for id in port.ready() {
                    core.complete_read(id);
                }
                core.step(&mut port);
                port.now += 1;
                cycles += 1;
            }
            cycles
        };
        let fast = time(2, trace.clone());
        let slow = time(100, trace);
        prop_assert!(slow >= fast, "slow memory finished sooner: {slow} < {fast}");
    }

}
