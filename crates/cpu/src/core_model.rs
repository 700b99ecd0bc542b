//! The trace-driven ROB core.

use doram_sim::snapshot::SnapshotError;
use doram_sim::stats::Counter;
use doram_sim::RequestId;
use doram_trace::{AccessOp, TraceRecord};
use std::collections::VecDeque;

/// Interface the core uses to reach the memory system.
///
/// Implemented by the system driver, which maps addresses to channels and
/// enqueues into the appropriate controller. Refusals (returning `None` /
/// `false`) model queue back-pressure and stall the core.
pub trait MemoryPort {
    /// Attempts to issue a demand read; `Some(id)` when accepted.
    fn try_read(&mut self, addr: u64) -> Option<RequestId>;
    /// Attempts to issue a posted write; `true` when accepted.
    fn try_write(&mut self, addr: u64) -> bool;
}

/// Core configuration (Table II values by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// Instructions fetched per CPU cycle.
    pub fetch_width: usize,
    /// Instructions retired per CPU cycle.
    pub retire_width: usize,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            rob_size: 128,
            fetch_width: 4,
            retire_width: 4,
        }
    }
}

/// Per-core statistics.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: Counter,
    /// CPU cycles stepped.
    pub cycles: Counter,
    /// Demand reads issued to memory.
    pub reads_issued: Counter,
    /// Writes posted to memory.
    pub writes_issued: Counter,
    /// Cycles retirement was blocked by an unresolved read at the head.
    pub read_stall_cycles: Counter,
    /// Cycles retirement was blocked by write-queue back-pressure.
    pub write_stall_cycles: Counter,
    /// Cycles fetch was blocked by read-queue back-pressure.
    pub fetch_stall_cycles: Counter,
    /// Sum over cycles of outstanding reads (for mean MLP).
    pub outstanding_read_sum: Counter,
}

impl CoreStats {
    /// Instructions per cycle achieved so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.retired.get() as f64 / self.cycles.get() as f64
        }
    }

    /// Mean memory-level parallelism: average outstanding demand reads
    /// per cycle (the ROB window is the only MLP source in this model).
    pub fn mean_mlp(&self) -> f64 {
        if self.cycles.get() == 0 {
            0.0
        } else {
            self.outstanding_read_sum.get() as f64 / self.cycles.get() as f64
        }
    }
}

doram_sim::impl_codec!(struct CoreStats {
    retired,
    cycles,
    reads_issued,
    writes_issued,
    read_stall_cycles,
    write_stall_cycles,
    fetch_stall_cycles,
    outstanding_read_sum,
});

#[derive(Debug, Clone, Copy)]
enum RobEntry {
    NonMem,
    Read { id: RequestId, done: bool },
    Write { addr: u64 },
}

/// A single trace-driven core.
pub struct TraceCore {
    cfg: CoreConfig,
    trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    rob: VecDeque<RobEntry>,
    /// Non-memory instructions still to fetch before `pending_access`.
    gap_left: u64,
    /// The next memory access to fetch, if already pulled from the trace.
    pending_access: Option<TraceRecord>,
    trace_done: bool,
    /// Records ever pulled from `trace` (for checkpoint restore: a fresh
    /// iterator of the same trace is fast-forwarded by this many records).
    consumed: u64,
    /// Reads in the ROB not yet completed: derived from `rob`, so kept
    /// out of checkpoints and recounted on load.
    outstanding: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for TraceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCore")
            .field("cfg", &self.cfg)
            .field("rob_occupancy", &self.rob.len())
            .field("finished", &self.finished())
            .finish_non_exhaustive()
    }
}

impl TraceCore {
    /// Creates a core that executes `trace` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero widths or ROB).
    pub fn new(cfg: CoreConfig, trace: Box<dyn Iterator<Item = TraceRecord> + Send>) -> TraceCore {
        assert!(
            cfg.rob_size > 0 && cfg.fetch_width > 0 && cfg.retire_width > 0,
            "core configuration must be non-degenerate"
        );
        TraceCore {
            cfg,
            trace,
            rob: VecDeque::with_capacity(cfg.rob_size),
            gap_left: 0,
            pending_access: None,
            trace_done: false,
            consumed: 0,
            outstanding: 0,
            stats: CoreStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired.get()
    }

    /// Whether the trace is fully fetched *and* the ROB has drained.
    pub fn finished(&self) -> bool {
        self.trace_done
            && self.rob.is_empty()
            && self.pending_access.is_none()
            && self.gap_left == 0
    }

    /// Identifiers of reads issued but not yet completed.
    pub fn outstanding_reads(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.rob.iter().filter_map(|e| match e {
            RobEntry::Read { id, done: false } => Some(*id),
            _ => None,
        })
    }

    /// Marks a previously issued read as resolved.
    ///
    /// Unknown ids are ignored (the memory system may complete dummy or
    /// ORAM-internal requests through the same path).
    pub fn complete_read(&mut self, id: RequestId) {
        for e in self.rob.iter_mut() {
            if let RobEntry::Read { id: eid, done } = e {
                if *eid == id {
                    if !*done {
                        *done = true;
                        self.outstanding -= 1;
                    }
                    return;
                }
            }
        }
    }

    /// Advances the core by one CPU cycle: retire, then fetch.
    pub fn step(&mut self, port: &mut dyn MemoryPort) {
        self.stats.cycles.inc();
        self.stats.outstanding_read_sum.add(self.outstanding);
        self.retire(port);
        self.fetch(port);
    }

    /// Whether a step would only count: the ROB is full behind an
    /// unfinished read, so retirement stalls at the head, fetch finds no
    /// slot, and the step calls no port method. It stays so until that
    /// read completes.
    pub fn stalled_on_read(&self) -> bool {
        self.rob.len() >= self.cfg.rob_size
            && matches!(self.rob.front(), Some(RobEntry::Read { done: false, .. }))
    }

    /// Applies `n` steps that only count (see
    /// [`stalled_on_read`](TraceCore::stalled_on_read)) at once.
    pub fn step_stalled(&mut self, n: u64) {
        debug_assert!(self.stalled_on_read(), "stepping a core that can act");
        self.stats.cycles.add(n);
        self.stats.read_stall_cycles.add(n);
        self.stats.outstanding_read_sum.add(n * self.outstanding);
    }

    fn retire(&mut self, port: &mut dyn MemoryPort) {
        for _ in 0..self.cfg.retire_width {
            match self.rob.front() {
                None => return,
                Some(RobEntry::NonMem) => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::Read { done: true, .. }) => {
                    self.rob.pop_front();
                    self.stats.retired.inc();
                }
                Some(RobEntry::Read { done: false, .. }) => {
                    self.stats.read_stall_cycles.inc();
                    return;
                }
                Some(RobEntry::Write { addr }) => {
                    let addr = *addr;
                    if port.try_write(addr) {
                        self.rob.pop_front();
                        self.stats.retired.inc();
                        self.stats.writes_issued.inc();
                    } else {
                        self.stats.write_stall_cycles.inc();
                        return;
                    }
                }
            }
        }
    }

    fn fetch(&mut self, port: &mut dyn MemoryPort) {
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                return;
            }
            // Refill the expansion state from the trace.
            if self.gap_left == 0 && self.pending_access.is_none() {
                match self.trace.next() {
                    Some(rec) => {
                        self.consumed += 1;
                        self.gap_left = rec.gap;
                        self.pending_access = Some(rec);
                    }
                    None => {
                        self.trace_done = true;
                        return;
                    }
                }
            }
            if self.gap_left > 0 {
                self.rob.push_back(RobEntry::NonMem);
                self.gap_left -= 1;
                continue;
            }
            let rec = self.pending_access.expect("refilled above");
            match rec.op {
                AccessOp::Read => match port.try_read(rec.addr) {
                    Some(id) => {
                        self.rob.push_back(RobEntry::Read { id, done: false });
                        self.outstanding += 1;
                        self.stats.reads_issued.inc();
                        self.pending_access = None;
                    }
                    None => {
                        // Read queue full: fetch stalls this cycle.
                        self.stats.fetch_stall_cycles.inc();
                        return;
                    }
                },
                AccessOp::Write => {
                    // Writes are posted at retirement; occupy a slot now.
                    self.rob.push_back(RobEntry::Write { addr: rec.addr });
                    self.pending_access = None;
                }
            }
        }
    }

    /// Installs a fresh iterator over the trace this core was built with and
    /// fast-forwards it past the records the restored state had consumed.
    ///
    /// The trace iterator itself is never checkpointed, only the number of
    /// records consumed: call this after [`Snapshot::load_state`].
    ///
    /// [`Snapshot::load_state`]: doram_sim::snapshot::Snapshot::load_state
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the trace is shorter than the
    /// checkpointed position.
    pub fn resume_trace(
        &mut self,
        fresh_trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    ) -> Result<(), SnapshotError> {
        self.trace = fresh_trace;
        for _ in 0..self.consumed {
            if self.trace.next().is_none() {
                return Err(SnapshotError::new(format!(
                    "trace ended before the {} checkpointed records",
                    self.consumed
                )));
            }
        }
        Ok(())
    }

    fn recount_outstanding(&mut self) -> Result<(), SnapshotError> {
        self.outstanding = self.outstanding_reads().count() as u64;
        Ok(())
    }
}

doram_sim::impl_codec!(enum RobEntry { NonMem = 0, Read { id, done } = 1, Write { addr } = 2 });

// The trace position travels as `consumed`; see [`TraceCore::resume_trace`].
// The outstanding-read count is recounted from the ROB.
doram_sim::impl_snapshot!(TraceCore {
    consumed,
    rob,
    gap_left,
    pending_access,
    trace_done,
    stats,
} skip { cfg, trace, outstanding } after_load TraceCore::recount_outstanding);

#[cfg(test)]
mod tests {
    use super::*;

    /// A scriptable memory port.
    struct TestPort {
        accept_reads: bool,
        accept_writes: bool,
        next_id: u64,
        reads: Vec<(RequestId, u64)>,
        writes: Vec<u64>,
    }

    impl TestPort {
        fn new() -> TestPort {
            TestPort {
                accept_reads: true,
                accept_writes: true,
                next_id: 0,
                reads: Vec::new(),
                writes: Vec::new(),
            }
        }
    }

    impl MemoryPort for TestPort {
        fn try_read(&mut self, addr: u64) -> Option<RequestId> {
            if !self.accept_reads {
                return None;
            }
            let id = RequestId(self.next_id);
            self.next_id += 1;
            self.reads.push((id, addr));
            Some(id)
        }
        fn try_write(&mut self, addr: u64) -> bool {
            if self.accept_writes {
                self.writes.push(addr);
                true
            } else {
                false
            }
        }
    }

    fn trace(records: Vec<TraceRecord>) -> Box<dyn Iterator<Item = TraceRecord> + Send> {
        Box::new(records.into_iter())
    }

    fn rec(gap: u64, op: AccessOp, addr: u64) -> TraceRecord {
        TraceRecord { gap, op, addr }
    }

    #[test]
    fn non_mem_instructions_retire_at_full_width() {
        // 100 instructions of pure gap retire in ~100/4 + pipeline-fill
        // cycles.
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(99, AccessOp::Write, 0)]),
        );
        let mut port = TestPort::new();
        let mut cycles = 0;
        while !core.finished() && cycles < 1000 {
            core.step(&mut port);
            cycles += 1;
        }
        assert!(core.finished());
        assert_eq!(core.retired(), 100);
        assert!(cycles <= 30, "took {cycles} cycles");
    }

    #[test]
    fn read_blocks_retirement_until_completed() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Read, 64)]),
        );
        let mut port = TestPort::new();
        for _ in 0..10 {
            core.step(&mut port);
        }
        assert!(!core.finished());
        assert_eq!(core.retired(), 0);
        assert!(core.stats().read_stall_cycles.get() > 0);
        let id = port.reads[0].0;
        core.complete_read(id);
        core.step(&mut port);
        assert!(core.finished());
        assert_eq!(core.retired(), 1);
    }

    #[test]
    fn reads_issue_at_fetch_for_mlp() {
        // Two back-to-back reads must both be outstanding before either
        // completes (memory-level parallelism through the ROB window).
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![
                rec(0, AccessOp::Read, 64),
                rec(0, AccessOp::Read, 128),
            ]),
        );
        let mut port = TestPort::new();
        core.step(&mut port);
        assert_eq!(port.reads.len(), 2);
        assert_eq!(core.outstanding_reads().count(), 2);
    }

    #[test]
    fn writes_post_at_retirement() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Write, 192)]),
        );
        let mut port = TestPort::new();
        core.step(&mut port); // fetch
        assert!(port.writes.is_empty());
        core.step(&mut port); // retire
        assert_eq!(port.writes, vec![192]);
        assert!(core.finished());
    }

    #[test]
    fn write_backpressure_stalls_retirement() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![
                rec(0, AccessOp::Write, 0),
                rec(3, AccessOp::Write, 64),
            ]),
        );
        let mut port = TestPort::new();
        port.accept_writes = false;
        for _ in 0..5 {
            core.step(&mut port);
        }
        assert_eq!(core.retired(), 0);
        assert!(core.stats().write_stall_cycles.get() > 0);
        port.accept_writes = true;
        for _ in 0..5 {
            core.step(&mut port);
        }
        assert!(core.finished());
        assert_eq!(port.writes.len(), 2);
    }

    #[test]
    fn read_backpressure_stalls_fetch() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Read, 0)]),
        );
        let mut port = TestPort::new();
        port.accept_reads = false;
        for _ in 0..3 {
            core.step(&mut port);
        }
        assert!(port.reads.is_empty());
        assert!(core.stats().fetch_stall_cycles.get() > 0);
        port.accept_reads = true;
        core.step(&mut port);
        assert_eq!(port.reads.len(), 1);
    }

    #[test]
    fn rob_capacity_limits_window() {
        // 200 reads, ROB of 8: never more than 8 outstanding.
        let recs: Vec<_> = (0..200).map(|i| rec(0, AccessOp::Read, 64 * i)).collect();
        let cfg = CoreConfig {
            rob_size: 8,
            ..CoreConfig::default()
        };
        let mut core = TraceCore::new(cfg, trace(recs));
        let mut port = TestPort::new();
        for _ in 0..20 {
            core.step(&mut port);
            assert!(core.outstanding_reads().count() <= 8);
        }
        assert!(port.reads.len() <= 8);
    }

    #[test]
    fn unknown_completion_is_ignored() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(0, AccessOp::Read, 0)]),
        );
        let mut port = TestPort::new();
        core.step(&mut port);
        core.complete_read(RequestId(999));
        core.step(&mut port);
        assert_eq!(core.retired(), 0, "bogus completion must not unblock");
    }

    #[test]
    fn ipc_accounting() {
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![rec(39, AccessOp::Write, 0)]),
        );
        let mut port = TestPort::new();
        while !core.finished() {
            core.step(&mut port);
        }
        let ipc = core.stats().ipc();
        assert!(
            ipc > 2.0,
            "gap-dominated code should run near width, got {ipc}"
        );
    }

    #[test]
    fn mlp_counts_outstanding_reads() {
        // Two reads outstanding for ~10 cycles → mean MLP near 2.
        let mut core = TraceCore::new(
            CoreConfig::default(),
            trace(vec![
                rec(0, AccessOp::Read, 64),
                rec(0, AccessOp::Read, 128),
            ]),
        );
        let mut port = TestPort::new();
        for _ in 0..10 {
            core.step(&mut port);
        }
        let mlp = core.stats().mean_mlp();
        assert!(mlp > 1.5, "mlp {mlp}");
        for (id, _) in port.reads.clone() {
            core.complete_read(id);
        }
        core.step(&mut port);
        assert!(core.finished());
    }

    /// A deterministic port: each read completes 20–32 cycles after issue
    /// (so out of order), reads are refused every seventh cycle and
    /// writes every fifth.
    #[derive(Clone)]
    struct ScriptPort {
        now: u64,
        next_id: u64,
        inflight: Vec<(u64, RequestId)>,
    }

    impl MemoryPort for ScriptPort {
        fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
            if self.now % 7 == 3 {
                return None;
            }
            let id = RequestId(self.next_id);
            self.next_id += 1;
            self.inflight.push((self.now + 20 + id.0 % 13, id));
            Some(id)
        }
        fn try_write(&mut self, _addr: u64) -> bool {
            !self.now.is_multiple_of(5)
        }
    }

    /// Delivers the completions due, then steps the core one cycle.
    fn script_cycle(core: &mut TraceCore, port: &mut ScriptPort) {
        let now = port.now;
        let (due, pending): (Vec<_>, Vec<_>) = port.inflight.iter().partition(|(t, _)| *t <= now);
        port.inflight = pending;
        for (_, id) in due {
            core.complete_read(id);
        }
        core.step(port);
        port.now += 1;
    }

    fn saved(core: &TraceCore) -> Vec<u8> {
        let mut w = doram_sim::snapshot::SnapshotWriter::new();
        doram_sim::snapshot::Snapshot::save_state(core, &mut w);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_with_reads_outstanding_resumes_identically() {
        let recs: Vec<_> = (0..300u64)
            .map(|i| {
                let op = if i % 3 == 0 {
                    AccessOp::Write
                } else {
                    AccessOp::Read
                };
                rec(i * 7 % 11, op, 64 * i)
            })
            .collect();
        let mut original = TraceCore::new(CoreConfig::default(), trace(recs.clone()));
        let mut port = ScriptPort {
            now: 0,
            next_id: 0,
            inflight: Vec::new(),
        };
        while port.now < 200 || original.outstanding_reads().count() < 3 {
            script_cycle(&mut original, &mut port);
        }

        let bytes = saved(&original);
        let mut restored = TraceCore::new(CoreConfig::default(), trace(Vec::new()));
        let mut r = doram_sim::snapshot::SnapshotReader::new(&bytes);
        doram_sim::snapshot::Snapshot::load_state(&mut restored, &mut r).expect("loads");
        r.finish().expect("no trailing bytes");
        restored
            .resume_trace(trace(recs))
            .expect("trace long enough");
        assert_eq!(
            restored.outstanding_reads().collect::<Vec<_>>(),
            original.outstanding_reads().collect::<Vec<_>>()
        );

        let mut restored_port = port.clone();
        while !original.finished() {
            script_cycle(&mut original, &mut port);
        }
        while !restored.finished() {
            script_cycle(&mut restored, &mut restored_port);
        }
        assert_eq!(port.now, restored_port.now);
        assert_eq!(
            format!("{:?}", original.stats()),
            format!("{:?}", restored.stats())
        );
        assert_eq!(saved(&original), saved(&restored));
    }

    #[test]
    fn stalled_steps_apply_in_bulk() {
        let recs: Vec<_> = (0..200)
            .map(|i| rec(i % 3, AccessOp::Read, 64 * i))
            .collect();
        let mut port = TestPort::new();
        let mut stepped = TraceCore::new(CoreConfig::default(), trace(recs.clone()));
        while !stepped.stalled_on_read() {
            assert!(port.reads.len() < 200, "never filled the ROB");
            stepped.step(&mut port);
        }
        let mut bulk = TraceCore::new(CoreConfig::default(), trace(recs));
        let mut bulk_port = TestPort::new();
        while !bulk.stalled_on_read() {
            bulk.step(&mut bulk_port);
        }
        let issued = port.reads.len();
        for _ in 0..37 {
            stepped.step(&mut port);
        }
        bulk.step_stalled(37);
        assert_eq!(port.reads.len(), issued, "a stalled step issued a read");
        assert_eq!(saved(&stepped), saved(&bulk));
        assert!(stepped.stalled_on_read());
        // Completing the head read ends the stall.
        stepped.complete_read(port.reads[0].0);
        assert!(!stepped.stalled_on_read());
    }

    #[test]
    fn debug_is_nonempty() {
        let core = TraceCore::new(CoreConfig::default(), trace(vec![]));
        assert!(format!("{core:?}").contains("TraceCore"));
    }
}
