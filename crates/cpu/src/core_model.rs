//! The trace-driven ROB core.

use doram_sim::snapshot::SnapshotError;
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

/// One ROB slot, or a run of non-memory instructions. Adjacent runs are
/// always merged and no run is empty, so the entries are a function of
/// the instructions the ROB holds.
#[derive(Debug, Clone, Copy)]
enum RobEntry {
    NonMem(usize),
    Read { id: RequestId, done: bool },
    Write { addr: u64 },
}

/// A single trace-driven core.
pub struct TraceCore {
    cfg: CoreConfig,
    trace: Box<dyn Iterator<Item = TraceRecord> + Send>,
    rob: VecDeque<RobEntry>,
    /// Instructions in `rob`: derived state, recounted after a restore.
    rob_len: usize,
    /// Non-memory instructions still to fetch before `pending_access`.
    gap_left: u64,
    /// The next memory access to fetch, if already pulled from the trace.
    pending_access: Option<TraceRecord>,
    trace_done: bool,
    /// Records ever pulled from `trace` (for checkpoint restore: a fresh
    /// iterator of the same trace is fast-forwarded by this many records).
    consumed: u64,
    /// Instructions retired.
    retired: u64,
}

impl std::fmt::Debug for TraceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCore")
            .field("cfg", &self.cfg)
            .field("rob_occupancy", &self.rob_len)
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
            rob_len: 0,
            gap_left: 0,
            pending_access: None,
            trace_done: false,
            consumed: 0,
            retired: 0,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
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
                    *done = true;
                    return;
                }
            }
        }
    }

    /// Advances the core by one CPU cycle: retire, then fetch.
    pub fn step(&mut self, port: &mut dyn MemoryPort) {
        self.retire(port);
        self.fetch(port);
    }

    /// How many of the next CPU cycles would call no port method and pull
    /// no trace record if no read completes: `u64::MAX` when the core can
    /// only wait, as when its ROB is full behind an unfinished read.
    ///
    /// Inside the horizon every cycle retires non-memory instructions and
    /// finished reads from the head and fetches non-memory instructions
    /// of the current gap. It ends at the first cycle whose retirement
    /// would post a write or whose fetch would reach the pending access
    /// (or need a new trace record).
    pub fn quiet_horizon(&self) -> u64 {
        self.quiet().horizon()
    }

    /// Advances the core by `cycles` CPU cycles at once, leaving exactly
    /// the state that many [`step`](TraceCore::step) calls would, and
    /// returns how many of those cycles lead up to and include the last
    /// one that retires an instruction (0 when none does). `cycles` must
    /// not pass [`quiet_horizon`](TraceCore::quiet_horizon), and no read
    /// may complete meanwhile.
    pub fn advance_quiet(&mut self, cycles: u64) -> u64 {
        let q = self.quiet();
        debug_assert!(cycles <= q.horizon(), "advancing past the quiet horizon");
        let retired = q.retired_by(cycles);
        let fetched = q.fetched_by(cycles);
        if fetched > 0 {
            self.push_non_mem(fetched as usize);
            self.gap_left -= fetched;
        }
        self.retired += retired;
        self.rob_len -= retired as usize;
        let mut left = retired;
        while left > 0 {
            match self.rob.front_mut() {
                Some(RobEntry::NonMem(n)) if *n as u64 > left => {
                    *n -= left as usize;
                    break;
                }
                Some(RobEntry::NonMem(n)) => left -= *n as u64,
                Some(RobEntry::Read { done: true, .. }) => left -= 1,
                _ => unreachable!("a quiet cycle retired past the head"),
            }
            self.rob.pop_front();
        }
        match (retired, q.stop) {
            (0, _) => 0,
            (_, Some(_)) => cycles.min(q.head.div_ceil(q.retire_width)),
            // Retiring from an open ROB, every cycle after the first retires.
            (_, None) => cycles,
        }
    }

    fn retire(&mut self, port: &mut dyn MemoryPort) {
        let mut budget = self.cfg.retire_width;
        while budget > 0 {
            match self.rob.front_mut() {
                None | Some(RobEntry::Read { done: false, .. }) => return,
                Some(RobEntry::NonMem(n)) => {
                    let k = budget.min(*n);
                    budget -= k;
                    self.retired += k as u64;
                    self.rob_len -= k;
                    if k < *n {
                        *n -= k;
                    } else {
                        self.rob.pop_front();
                    }
                    continue;
                }
                Some(RobEntry::Read { done: true, .. }) => {}
                Some(&mut RobEntry::Write { addr }) => {
                    if !port.try_write(addr) {
                        return;
                    }
                }
            }
            self.rob.pop_front();
            self.retired += 1;
            self.rob_len -= 1;
            budget -= 1;
        }
    }

    fn fetch(&mut self, port: &mut dyn MemoryPort) {
        let mut slots = self.cfg.fetch_width;
        while slots > 0 && self.rob_len < self.cfg.rob_size {
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
                let room = slots.min(self.cfg.rob_size - self.rob_len);
                let k = self.gap_left.min(room as u64);
                self.push_non_mem(k as usize);
                self.gap_left -= k;
                slots -= k as usize;
                continue;
            }
            let rec = self.pending_access.expect("refilled above");
            let entry = match rec.op {
                AccessOp::Read => match port.try_read(rec.addr) {
                    Some(id) => RobEntry::Read { id, done: false },
                    // Read queue full: fetch stalls this cycle.
                    None => return,
                },
                // Writes are posted at retirement; occupy a slot now.
                AccessOp::Write => RobEntry::Write { addr: rec.addr },
            };
            self.rob.push_back(entry);
            self.rob_len += 1;
            self.pending_access = None;
            slots -= 1;
        }
    }

    /// Appends `n` (at least one) non-memory instructions, merging them
    /// into a run at the tail.
    fn push_non_mem(&mut self, n: usize) {
        match self.rob.back_mut() {
            Some(RobEntry::NonMem(run)) => *run += n,
            _ => self.rob.push_back(RobEntry::NonMem(n)),
        }
        self.rob_len += n;
    }

    /// The counts the next quiet cycles depend on.
    fn quiet(&self) -> Quiet {
        let mut head = 0;
        let mut stop = None;
        for e in &self.rob {
            match *e {
                RobEntry::NonMem(n) => head += n as u64,
                RobEntry::Read { done: true, .. } => head += 1,
                RobEntry::Read { done: false, .. } => {
                    stop = Some(Stop::Read);
                    break;
                }
                RobEntry::Write { .. } => {
                    stop = Some(Stop::Write);
                    break;
                }
            }
        }
        Quiet {
            held: self.rob_len as u64,
            head,
            stop,
            gap: self.gap_left,
            rob_size: self.cfg.rob_size as u64,
            fetch_width: self.cfg.fetch_width as u64,
            retire_width: self.cfg.retire_width as u64,
        }
    }

    /// Recounts the derived instruction count of a restored ROB.
    fn recount(&mut self) -> Result<(), SnapshotError> {
        self.rob_len = self
            .rob
            .iter()
            .map(|e| match e {
                RobEntry::NonMem(n) => *n,
                _ => 1,
            })
            .sum();
        if self.rob_len > self.cfg.rob_size {
            return Err(SnapshotError::new(format!(
                "ROB holds {} instructions, more than its {} slots",
                self.rob_len, self.cfg.rob_size
            )));
        }
        Ok(())
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
}

/// What ends the retirable instructions at the ROB's head.
#[derive(Clone, Copy)]
enum Stop {
    /// An unfinished read, which no quiet cycle retires.
    Read,
    /// A write, which retirement posts through the port.
    Write,
}

/// The counts a core's quiet cycles depend on. While no read completes
/// and no port method is called, each cycle retires `min(width,
/// retirable)` instructions and fetches `min(width, room)` non-memory
/// ones, so both totals have closed forms.
struct Quiet {
    /// Instructions in the ROB.
    held: u64,
    /// Retirable instructions (non-memory or finished reads) ahead of
    /// `stop`; the whole ROB when `stop` is `None`.
    head: u64,
    /// What ends `head`; `None` when every instruction in the ROB is
    /// retirable, so retirement goes on into what fetch brings.
    stop: Option<Stop>,
    /// Non-memory instructions left to fetch before the pending access or
    /// the next trace record.
    gap: u64,
    rob_size: u64,
    fetch_width: u64,
    retire_width: u64,
}

impl Quiet {
    /// The retire width a ROB of this size can use.
    fn retire_rate(&self) -> u64 {
        self.retire_width.min(self.rob_size)
    }

    /// Instructions retired in the first `c` quiet cycles. Behind a stop,
    /// `retire_width` a cycle until the head runs out. In an open ROB,
    /// the first cycle retires what the ROB holds (up to the width) and
    /// every later one the lesser of the two widths, as fetch refills.
    fn retired_by(&self, c: u64) -> u64 {
        match self.stop {
            Some(_) => c.saturating_mul(self.retire_width).min(self.head),
            None if c == 0 => 0,
            None => {
                let rate = self.retire_rate();
                let refill = (c - 1).saturating_mul(rate.min(self.fetch_width));
                c.saturating_mul(rate).min(self.held.saturating_add(refill))
            }
        }
    }

    /// Instructions fetched in the first `c` quiet cycles: the fetch
    /// width each cycle, or all the room the ROB had plus what has
    /// retired since, whichever is less.
    fn fetched_by(&self, c: u64) -> u64 {
        let room = self.rob_size - self.held + self.retired_by(c);
        c.saturating_mul(self.fetch_width).min(room)
    }

    /// See [`TraceCore::quiet_horizon`]. Cycle `c`'s fetch reaches the end
    /// of the gap iff `fetched_by(c + 1)` would pass it, that is iff both
    /// of its terms would: the fetch width's and the room's. Both only
    /// grow, so the first such cycle is the later of the first cycle for
    /// each. The room's term passes the gap once `retired_by(c + 1)`
    /// passes `over = gap + held - rob_size`; behind a stop whose head is
    /// no longer than that it never does, and the core fills its ROB and
    /// waits.
    fn horizon(&self) -> u64 {
        let fetch_end = match self
            .gap
            .saturating_add(self.held)
            .checked_sub(self.rob_size)
        {
            None => 0,
            Some(over) => match self.stop {
                Some(_) if self.head <= over => u64::MAX,
                Some(_) => over / self.retire_width,
                None => {
                    let refilled = match over.checked_sub(self.held) {
                        None => 0,
                        Some(d) => d / self.retire_rate().min(self.fetch_width) + 1,
                    };
                    (over / self.retire_rate()).max(refilled)
                }
            },
        }
        .max(self.gap / self.fetch_width);
        match self.stop {
            Some(Stop::Write) => fetch_end.min(self.head / self.retire_width),
            _ => fetch_end,
        }
    }
}

doram_sim::impl_codec!(enum RobEntry { NonMem(n) = 0, Read { id, done } = 1, Write { addr } = 2 });

// The trace position travels as `consumed`; see [`TraceCore::resume_trace`].
doram_sim::impl_snapshot!(TraceCore {
    consumed,
    rob,
    gap_left,
    pending_access,
    trace_done,
    retired,
} skip { cfg, trace, rob_len } after_load TraceCore::recount);

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
        assert_eq!(port.reads.len(), 1, "a blocked read is not reissued");
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
        assert!(port.writes.is_empty());
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
        assert_eq!(core.retired(), 0);
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
        assert_eq!(original.retired(), restored.retired());
        assert_eq!(saved(&original), saved(&restored));
    }

    /// A port no stalled core may call.
    struct NoPort;

    impl MemoryPort for NoPort {
        fn try_read(&mut self, addr: u64) -> Option<RequestId> {
            panic!("a stalled step tried to read {addr:#x}")
        }
        fn try_write(&mut self, addr: u64) -> bool {
            panic!("a stalled step tried to write {addr:#x}")
        }
    }

    /// Whether the ROB is full behind an unfinished read.
    fn stalled_on_read(core: &TraceCore) -> bool {
        core.rob_len == core.cfg.rob_size
            && matches!(core.rob.front(), Some(RobEntry::Read { done: false, .. }))
    }

    #[test]
    fn stalled_steps_change_nothing() {
        let recs: Vec<_> = (0..200)
            .map(|i| rec(i % 3, AccessOp::Read, 64 * i))
            .collect();
        let mut port = TestPort::new();
        let mut core = TraceCore::new(CoreConfig::default(), trace(recs));
        while !stalled_on_read(&core) {
            assert!(port.reads.len() < 200, "never filled the ROB");
            core.step(&mut port);
        }
        assert_eq!(core.quiet_horizon(), u64::MAX);
        let before = saved(&core);
        for _ in 0..37 {
            core.step(&mut NoPort);
        }
        assert_eq!(saved(&core), before, "a stalled step changed state");
        assert_eq!(core.advance_quiet(1 << 40), 0);
        assert_eq!(saved(&core), before, "a stalled bulk advance changed state");
        // Completing the head read ends the stall.
        core.complete_read(port.reads[0].0);
        assert!(core.quiet_horizon() < u64::MAX);
    }

    /// A default core holding `rob`, with `gap` non-memory instructions
    /// left before a pending read.
    fn holding(rob: Vec<RobEntry>, gap: u64) -> TraceCore {
        let mut core = TraceCore::new(CoreConfig::default(), trace(Vec::new()));
        core.rob = rob.into();
        core.recount().expect("fits the ROB");
        core.gap_left = gap;
        core.pending_access = Some(rec(gap, AccessOp::Read, 0));
        core
    }

    const UNFINISHED: RobEntry = RobEntry::Read {
        id: RequestId(1),
        done: false,
    };
    const FINISHED: RobEntry = RobEntry::Read {
        id: RequestId(2),
        done: true,
    };
    const WRITE: RobEntry = RobEntry::Write { addr: 64 };

    #[test]
    fn horizon_ends_where_retirement_reaches_a_write() {
        use RobEntry::NonMem;
        let horizon = |rob| holding(rob, 1_000).quiet_horizon();
        assert_eq!(horizon(vec![WRITE]), 0);
        assert_eq!(horizon(vec![NonMem(3), WRITE]), 0);
        assert_eq!(horizon(vec![FINISHED, NonMem(2), WRITE]), 0);
        assert_eq!(horizon(vec![NonMem(4), WRITE]), 1);
        assert_eq!(horizon(vec![NonMem(7), WRITE]), 1);
        assert_eq!(horizon(vec![NonMem(8), WRITE, NonMem(9)]), 2);
        // An unfinished read ahead of the write holds retirement back.
        assert_eq!(horizon(vec![UNFINISHED, WRITE]), u64::MAX);
    }

    #[test]
    fn horizon_ends_where_fetch_reaches_the_access() {
        use RobEntry::NonMem;
        let horizon = |rob, gap| holding(rob, gap).quiet_horizon();
        // The gap runs out with a slot and room to spare.
        assert_eq!(horizon(vec![UNFINISHED], 0), 0);
        assert_eq!(horizon(vec![UNFINISHED], 3), 0);
        assert_eq!(horizon(vec![UNFINISHED], 4), 1);
        assert_eq!(horizon(vec![NonMem(5)], 11), 2);
        assert_eq!(horizon(vec![], 12), 3);
        // Fetch fills the ROB first and the core waits on the read.
        assert_eq!(horizon(vec![UNFINISHED, NonMem(126)], 1), u64::MAX);
        assert_eq!(horizon(vec![UNFINISHED, NonMem(120)], 7), u64::MAX);
        // ...unless retirement makes room for the rest of the gap.
        assert_eq!(horizon(vec![FINISHED, UNFINISHED, NonMem(125)], 1), 0);
        assert_eq!(
            horizon(vec![NonMem(8), UNFINISHED, NonMem(119)], 9),
            u64::MAX
        );
        assert_eq!(horizon(vec![NonMem(9), UNFINISHED, NonMem(117)], 9), 2);
        // A new trace record is needed: the next record, or the end of
        // the trace.
        let mut core = holding(vec![UNFINISHED], 0);
        core.pending_access = None;
        assert_eq!(core.quiet_horizon(), 0);
        core.trace_done = true;
        assert_eq!(core.quiet_horizon(), 0);
        // With the ROB full behind the read, neither is asked for.
        let mut core = holding(vec![UNFINISHED, NonMem(127)], 0);
        core.pending_access = None;
        assert_eq!(core.quiet_horizon(), u64::MAX);
    }

    #[test]
    fn debug_is_nonempty() {
        let core = TraceCore::new(CoreConfig::default(), trace(vec![]));
        assert!(format!("{core:?}").contains("TraceCore"));
    }
}
