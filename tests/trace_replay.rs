//! Replaying an imported (USIMM-format) trace through the full memory
//! path: text → records → ROB core → DDR3 sub-channel.

use doram::cpu::{CoreConfig, MemoryPort, TraceCore};
use doram::dram::{MemOp, MemRequest, RequestClass, SubChannel, SubChannelConfig};
use doram::sim::{AppId, MemCycle, RequestId, RequestIdGen};
use doram::trace::{parse_trace, write_trace, Benchmark, TraceGenerator};

/// A memory port backed by one real DDR3 sub-channel.
struct DramPort {
    sc: SubChannel,
    ids: RequestIdGen,
    now: MemCycle,
    done: Vec<doram::dram::Completion>,
}

impl MemoryPort for DramPort {
    fn try_read(&mut self, addr: u64) -> Option<RequestId> {
        if !self.sc.can_accept_read() {
            return None;
        }
        let id = self.ids.next_id();
        self.sc
            .enqueue(MemRequest {
                id,
                app: AppId(0),
                op: MemOp::Read,
                addr,
                class: RequestClass::Normal,
                arrival: self.now,
            })
            .expect("capacity checked");
        Some(id)
    }
    fn try_write(&mut self, addr: u64) -> bool {
        if !self.sc.can_accept_write() {
            return false;
        }
        let id = self.ids.next_id();
        self.sc
            .enqueue(MemRequest {
                id,
                app: AppId(0),
                op: MemOp::Write,
                addr,
                class: RequestClass::Normal,
                arrival: self.now,
            })
            .expect("capacity checked");
        true
    }
}

#[test]
fn imported_trace_replays_through_core_and_dram() {
    // 1. "Export" a trace the way an external tool would see it.
    let mut gen = TraceGenerator::new(Benchmark::Swapt.spec(), 5, 0);
    let records = gen.take_records(400);
    let text = write_trace(&records);

    // 2. Import and sanity-check it.
    let imported = parse_trace(&text).expect("well-formed trace");
    assert_eq!(imported.len(), 400);
    let accesses = imported.len() as u64;
    let instructions: u64 = imported.iter().map(|r| r.instructions()).sum();

    // 3. Replay: the core executes the imported trace against real DRAM.
    let mut core = TraceCore::new(CoreConfig::default(), Box::new(imported.into_iter()));
    let mut port = DramPort {
        sc: SubChannel::new(SubChannelConfig::default()),
        ids: RequestIdGen::new(),
        now: MemCycle(0),
        done: Vec::new(),
    };
    let mut mem_cycle = 0u64;
    while !core.finished() {
        assert!(mem_cycle < 2_000_000, "liveness");
        port.now = MemCycle(mem_cycle);
        for _ in 0..4 {
            core.step(&mut port);
        }
        let mut finished = Vec::new();
        port.sc.tick(MemCycle(mem_cycle), &mut finished);
        for c in finished {
            if c.request.op == MemOp::Read {
                core.complete_read(c.request.id);
            }
            port.done.push(c);
        }
        mem_cycle += 1;
    }

    // Drain: posted writes may still sit in the write queue after the
    // core retires them.
    while !port.sc.is_idle() {
        assert!(mem_cycle < 2_000_000, "drain liveness");
        let mut finished = Vec::new();
        port.sc.tick(MemCycle(mem_cycle), &mut finished);
        port.done.extend(finished);
        mem_cycle += 1;
    }

    // 4. Conservation: every traced access reached the DRAM.
    assert_eq!(core.retired(), instructions);
    assert_eq!(port.done.len() as u64, accesses);
}
