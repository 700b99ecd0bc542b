//! The Path ORAM access state machine, and the Baseline's on-chip
//! controller built on it.
//!
//! One ORAM access is strictly two phases (§II-B1): a **read phase**
//! fetching every uncached block on the path, then a **write phase**
//! writing them all back. The response to the requesting core is released
//! when the read phase finishes; the next access cannot start before the
//! write phase ends. The same [`OramFsm`] drives both the Baseline's
//! on-chip controller (blocks go to the four direct channels) and the
//! D-ORAM secure delegator (blocks go to the secure channel's
//! sub-channels, plus split-level fetches through the CPU) — only the
//! [`BlockSink`] differs.

use doram_dram::{MemOp, MemRequest, RequestClass};
use doram_oram::plan::{BlockRef, PlanConfig, Planner};
use doram_oram::position::PositionMap;
use doram_sim::rng::Xoshiro256;
use doram_sim::stats::{Counter, RunningMean};
use doram_sim::{AppId, MemCycle, RequestId, RequestIdGen};
use std::collections::HashSet;
use std::collections::VecDeque;

/// How a sink disposed of a block operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issued {
    /// Accepted; completion will arrive later under this id.
    Tracked(RequestId),
    /// Accepted and already complete (e.g. a posted split-level write that
    /// only needed to be handed to the CPU for forwarding).
    Done,
    /// Not accepted this cycle (back-pressure); retry later.
    Busy,
}

/// Where the FSM sends block operations.
pub trait BlockSink {
    /// Attempts to issue `op` on `block` at `now`.
    fn try_block(&mut self, op: MemOp, block: &BlockRef, now: MemCycle) -> Issued;
}

/// A queued ORAM job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OramJob {
    /// A real S-App access. `id` is `Some` for reads the core waits on.
    Real {
        /// Request id the core blocks on (`None` for posted writes).
        id: Option<RequestId>,
        /// The S-App's operation.
        op: MemOp,
        /// Logical block (line) accessed.
        block: u64,
    },
    /// A timing-protection dummy (§III-B item 2): a full access to a
    /// random path.
    Dummy,
}

/// Events the FSM reports while ticking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsmEvent {
    /// The read phase finished: release the response for this job.
    ReadPhaseDone(OramJob),
    /// The write phase finished; the controller is free for the next job.
    AccessDone(OramJob),
}

/// One access's walk over its path in one direction: the planned blocks,
/// how many have been issued, and the issued ones still outstanding.
#[derive(Debug)]
struct PathOp {
    job: OramJob,
    started: MemCycle,
    blocks: Vec<BlockRef>,
    next: usize,
    outstanding: HashSet<RequestId>,
}

impl PathOp {
    /// Every block issued and completed.
    fn done(&self) -> bool {
        self.next >= self.blocks.len() && self.outstanding.is_empty()
    }

    /// Issues blocks in path order until the sink pushes back or
    /// `budget` runs out.
    fn issue(&mut self, op: MemOp, sink: &mut dyn BlockSink, now: MemCycle, budget: &mut usize) {
        while self.next < self.blocks.len() && *budget > 0 {
            match sink.try_block(op, &self.blocks[self.next], now) {
                Issued::Tracked(id) => {
                    self.outstanding.insert(id);
                    self.next += 1;
                }
                Issued::Done => self.next += 1,
                Issued::Busy => break,
            }
            *budget -= 1;
        }
    }

    /// Ends this read phase at `now`: records its latency and releases
    /// the response.
    fn finish_read(&self, now: MemCycle, stats: &mut OramStats, events: &mut Vec<FsmEvent>) {
        stats
            .read_phase_latency
            .record((now.0 - self.started.0) as f64);
        events.push(FsmEvent::ReadPhaseDone(self.job));
    }

    /// The write phase of this read: the same path, from its first block.
    fn write_back(self) -> PathOp {
        PathOp {
            next: 0,
            outstanding: HashSet::new(),
            ..self
        }
    }

    fn progress(&self) -> String {
        format!(
            "{}/{} out={}",
            self.next,
            self.blocks.len(),
            self.outstanding.len()
        )
    }
}

#[derive(Debug)]
enum Phase {
    Idle,
    Read(PathOp),
    Write(PathOp),
}

/// The next access's read phase running concurrently with the current
/// write phase (SD pipelining — an extension beyond the paper's strict
/// "buffer the request and service it after the write phase").
#[derive(Debug)]
struct OverlapRead {
    read: PathOp,
    response_emitted: bool,
}

/// Statistics of one ORAM controller.
#[derive(Debug, Clone, Default)]
pub struct OramStats {
    /// Completed real accesses.
    pub real_accesses: Counter,
    /// Completed dummy accesses.
    pub dummy_accesses: Counter,
    /// Full access latency (read + write phase), memory cycles.
    pub access_latency: RunningMean,
    /// Read-phase latency, memory cycles.
    pub read_phase_latency: RunningMean,
}

/// The two-phase Path ORAM controller state machine.
#[derive(Debug)]
pub struct OramFsm {
    planner: Planner,
    posmap: PositionMap,
    rng: Xoshiro256,
    queue: VecDeque<OramJob>,
    queue_cap: usize,
    phase: Phase,
    /// Pipelined read phase of the *next* access, if enabled and active.
    overlap: Option<OverlapRead>,
    /// Whether the next access's read phase may overlap the current
    /// write phase.
    pipeline: bool,
    /// Cap on block issues attempted per tick (models controller issue
    /// bandwidth).
    issue_per_tick: usize,
    stats: OramStats,
    /// Trace recorder; `None` (the default) keeps the hot path silent.
    obs: Option<doram_obs::SharedRecorder>,
}

impl OramFsm {
    /// Creates an FSM over the given plan configuration.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is invalid.
    pub fn new(plan: PlanConfig, seed: u64, queue_cap: usize) -> OramFsm {
        let planner = Planner::new(plan);
        let leaves = plan.geometry.num_leaves();
        OramFsm {
            planner,
            posmap: PositionMap::new(leaves, seed),
            rng: Xoshiro256::stream(seed, 0x0000_D0D0),
            queue: VecDeque::new(),
            queue_cap: queue_cap.max(1),
            phase: Phase::Idle,
            overlap: None,
            pipeline: false,
            issue_per_tick: 64,
            stats: OramStats::default(),
            obs: None,
        }
    }

    /// Attaches (or detaches) a trace recorder. Starting a queued job
    /// marks the position-map lookup of the next waiting access, so the
    /// recorder can attribute subsequent DRAM events to it.
    pub fn set_obs(&mut self, obs: Option<doram_obs::SharedRecorder>) {
        self.obs = obs;
    }

    /// Jobs queued and not yet started.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enables or disables pipelining of the buffered access's read phase
    /// behind the current write phase.
    pub fn set_pipeline(&mut self, on: bool) {
        self.pipeline = on;
    }

    /// Controller statistics.
    pub fn stats(&self) -> &OramStats {
        &self.stats
    }

    /// The planner in force.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Whether another job can be queued.
    pub fn can_submit(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Queues a job; `false` when the queue is full.
    pub fn submit(&mut self, job: OramJob) -> bool {
        if !self.can_submit() {
            return false;
        }
        self.queue.push_back(job);
        true
    }

    /// Whether the controller is mid-access or has queued work.
    pub fn busy(&self) -> bool {
        !matches!(self.phase, Phase::Idle) || !self.queue.is_empty() || self.overlap.is_some()
    }

    /// One-line summary of the dynamic state, for watchdog diagnostics.
    pub fn debug_state(&self) -> String {
        let phase = match &self.phase {
            Phase::Idle => "idle".to_string(),
            Phase::Read(p) => format!("read {}", p.progress()),
            Phase::Write(p) => format!("write {}", p.progress()),
        };
        let overlap = match &self.overlap {
            None => "-".to_string(),
            Some(o) => format!("read {} emitted={}", o.read.progress(), o.response_emitted),
        };
        format!(
            "queue={} phase=[{phase}] overlap=[{overlap}]",
            self.queue.len()
        )
    }

    /// Notifies the FSM of a completed tracked block; returns whether the
    /// id belonged to it.
    pub fn on_block_complete(&mut self, id: RequestId) -> bool {
        let in_phase = match &mut self.phase {
            Phase::Read(p) | Phase::Write(p) => p.outstanding.remove(&id),
            Phase::Idle => false,
        };
        in_phase
            || self
                .overlap
                .as_mut()
                .is_some_and(|o| o.read.outstanding.remove(&id))
    }

    /// Starts `job`'s read phase: marks the access start for the
    /// recorder, resolves the leaf (consulting and remapping the position
    /// map for real accesses) and plans its path.
    fn start(&mut self, job: OramJob, now: MemCycle) -> PathOp {
        if let Some(obs) = &self.obs {
            obs.borrow_mut().sd_access_started(now.0);
        }
        let leaf = match job {
            OramJob::Real { block, .. } => {
                let leaf = self.posmap.leaf_of(block);
                self.posmap.remap(block);
                leaf
            }
            OramJob::Dummy => self
                .rng
                .gen_below(self.planner.config().geometry.num_leaves()),
        };
        PathOp {
            job,
            started: now,
            blocks: self.planner.plan(leaf).blocks,
            next: 0,
            outstanding: HashSet::new(),
        }
    }

    /// Advances the FSM one cycle, pushing events into `events`.
    pub fn tick(&mut self, now: MemCycle, sink: &mut dyn BlockSink, events: &mut Vec<FsmEvent>) {
        // Start the next access: a pipelined read phase, if any, takes
        // over first.
        if matches!(self.phase, Phase::Idle) {
            if let Some(o) = self.overlap.take() {
                self.phase = if o.response_emitted {
                    Phase::Write(o.read.write_back())
                } else if o.read.done() {
                    // Finished while we were still writing; release the
                    // response now, then write back.
                    o.read.finish_read(now, &mut self.stats, events);
                    Phase::Write(o.read.write_back())
                } else {
                    // Continue its read phase in the foreground.
                    Phase::Read(o.read)
                };
            } else if let Some(job) = self.queue.pop_front() {
                self.phase = Phase::Read(self.start(job, now));
            }
        }

        // Launch a pipelined read phase behind an ongoing write phase.
        if self.pipeline && self.overlap.is_none() && matches!(self.phase, Phase::Write(_)) {
            if let Some(job) = self.queue.pop_front() {
                let read = self.start(job, now);
                self.overlap = Some(OverlapRead {
                    read,
                    response_emitted: false,
                });
            }
        }

        // Issue blocks for the current phase, then spend leftover budget
        // on the pipelined read phase.
        let mut budget = self.issue_per_tick;
        match &mut self.phase {
            Phase::Idle => return,
            Phase::Read(p) => p.issue(MemOp::Read, sink, now, &mut budget),
            Phase::Write(p) => p.issue(MemOp::Write, sink, now, &mut budget),
        }
        if let Some(o) = self.overlap.as_mut() {
            o.read.issue(MemOp::Read, sink, now, &mut budget);
            if o.read.done() && !o.response_emitted {
                o.response_emitted = true;
                o.read.finish_read(now, &mut self.stats, events);
            }
        }

        // Phase transition.
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Read(p) if p.done() => {
                p.finish_read(now, &mut self.stats, events);
                self.phase = Phase::Write(p.write_back());
            }
            Phase::Write(p) if p.done() => {
                self.stats
                    .access_latency
                    .record((now.0 - p.started.0) as f64);
                match p.job {
                    OramJob::Real { .. } => self.stats.real_accesses.inc(),
                    OramJob::Dummy => self.stats.dummy_accesses.inc(),
                }
                events.push(FsmEvent::AccessDone(p.job));
                // Next job starts on the next tick.
            }
            phase => self.phase = phase,
        }
    }
}

doram_sim::impl_codec!(enum OramJob { Dummy = 0, Real { id, op, block } = 1 });
doram_sim::impl_codec!(struct PathOp { job, started, blocks, next, outstanding });
doram_sim::impl_codec!(
    enum Phase {
        Idle = 0,
        Read(p) = 1,
        Write(p) = 2,
    }
);
doram_sim::impl_codec!(struct OverlapRead { read, response_emitted });

doram_sim::impl_snapshot!(OramStats {
    real_accesses,
    dummy_accesses,
    access_latency: state,
    read_phase_latency: state,
});

// The planner is stateless and rebuilt from the configuration; the
// recorder wiring is redone by the host after restore.
doram_sim::impl_snapshot!(OramFsm {
    posmap: state,
    rng,
    queue,
    phase,
    overlap,
    stats: state,
} skip { planner, queue_cap, pipeline, issue_per_tick, obs });

/// The Baseline's sink: tree unit `u` is direct channel `u`, ORAM data in
/// a dedicated region.
pub struct FabricSink<'a> {
    /// Channel fabric to issue into.
    pub fabric: &'a mut crate::channels::ChannelFabric,
    /// Global request-id allocator.
    pub idgen: &'a mut RequestIdGen,
    /// S-App id the requests run under.
    pub app: AppId,
    /// Ids issued by this sink (the system routes matching completions
    /// back to the FSM).
    pub issued: &'a mut HashSet<RequestId>,
}

/// Base address of the ORAM tree region on each hosting unit.
pub const ORAM_REGION_BASE: u64 = 1 << 40;

impl BlockSink for FabricSink<'_> {
    fn try_block(&mut self, op: MemOp, block: &BlockRef, now: MemCycle) -> Issued {
        use doram_oram::plan::Placement;
        let ch = match block.placement {
            Placement::TreeUnit(u) => u,
            Placement::NormalChannel(_) => {
                unreachable!("the Baseline never splits the tree")
            }
        };
        let id = self.idgen.next_id();
        let req = MemRequest {
            id,
            app: self.app,
            op,
            addr: ORAM_REGION_BASE + block.addr,
            class: RequestClass::Oram,
            arrival: now,
        };
        match self.fabric.channel_mut(ch).try_enqueue(req, now) {
            Ok(()) => {
                self.issued.insert(id);
                Issued::Tracked(id)
            }
            Err(_) => Issued::Busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_oram::split::SplitConfig;
    use doram_oram::tree::TreeGeometry;

    fn plan_cfg() -> PlanConfig {
        PlanConfig {
            geometry: TreeGeometry::new(9, 4),
            subtree_levels: 4,
            cached_levels: 2,
            split: SplitConfig::none(),
            tree_units: 4,
        }
    }

    /// A sink that accepts up to `per_cycle` blocks per cycle and
    /// completes each after a fixed delay.
    struct DelaySink {
        delay: u64,
        per_cycle: usize,
        left: usize,
        next_id: u64,
        inflight: Vec<(RequestId, MemCycle)>,
        issued_reads: usize,
        issued_writes: usize,
    }

    impl DelaySink {
        fn new(delay: u64) -> DelaySink {
            DelaySink {
                delay,
                per_cycle: usize::MAX,
                left: usize::MAX,
                next_id: 0,
                inflight: Vec::new(),
                issued_reads: 0,
                issued_writes: 0,
            }
        }
        /// Starts cycle `now`: returns the blocks completing by then.
        fn pop_ready(&mut self, now: MemCycle) -> Vec<RequestId> {
            self.left = self.per_cycle;
            let (ready, rest): (Vec<_>, Vec<_>) =
                self.inflight.drain(..).partition(|&(_, t)| t <= now);
            self.inflight = rest;
            ready.into_iter().map(|(id, _)| id).collect()
        }
    }

    impl BlockSink for DelaySink {
        fn try_block(&mut self, op: MemOp, _block: &BlockRef, now: MemCycle) -> Issued {
            if self.left == 0 {
                return Issued::Busy;
            }
            self.left -= 1;
            let id = RequestId(self.next_id);
            self.next_id += 1;
            match op {
                MemOp::Read => self.issued_reads += 1,
                MemOp::Write => self.issued_writes += 1,
            }
            self.inflight.push((id, now + MemCycle(self.delay)));
            Issued::Tracked(id)
        }
    }

    fn drive(fsm: &mut OramFsm, sink: &mut DelaySink, cycles: u64) -> Vec<(u64, FsmEvent)> {
        let mut out = Vec::new();
        let mut events = Vec::new();
        for c in 0..cycles {
            let now = MemCycle(c);
            for id in sink.pop_ready(now) {
                fsm.on_block_complete(id);
            }
            events.clear();
            fsm.tick(now, sink, &mut events);
            for &e in &events {
                out.push((c, e));
            }
        }
        out
    }

    #[test]
    fn access_runs_read_then_write_phases() {
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        let mut sink = DelaySink::new(10);
        let job = OramJob::Real {
            id: Some(RequestId(99)),
            op: MemOp::Read,
            block: 5,
        };
        assert!(fsm.submit(job));
        let events = drive(&mut fsm, &mut sink, 200);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1, FsmEvent::ReadPhaseDone(job));
        assert_eq!(events[1].1, FsmEvent::AccessDone(job));
        assert!(events[0].0 < events[1].0, "response precedes access end");
        // 8 uncached levels × 4 blocks per phase.
        assert_eq!(sink.issued_reads, 32);
        assert_eq!(sink.issued_writes, 32);
        assert_eq!(fsm.stats().real_accesses.get(), 1);
    }

    #[test]
    fn write_phase_does_not_start_before_reads_finish() {
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        let mut sink = DelaySink::new(50);
        fsm.submit(OramJob::Dummy);
        // After a few ticks all reads are issued but none complete.
        let mut events = Vec::new();
        for c in 0..20 {
            fsm.tick(MemCycle(c), &mut sink, &mut events);
        }
        assert_eq!(sink.issued_reads, 32);
        assert_eq!(sink.issued_writes, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn accesses_serialize() {
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        let mut sink = DelaySink::new(5);
        fsm.submit(OramJob::Dummy);
        fsm.submit(OramJob::Dummy);
        let events = drive(&mut fsm, &mut sink, 500);
        let dones: Vec<u64> = events
            .iter()
            .filter(|(_, e)| matches!(e, FsmEvent::AccessDone(_)))
            .map(|&(c, _)| c)
            .collect();
        assert_eq!(dones.len(), 2);
        assert!(dones[1] > dones[0]);
        assert_eq!(fsm.stats().dummy_accesses.get(), 2);
        assert!(fsm.stats().access_latency.count() == 2);
        assert!(fsm.stats().read_phase_latency.mean() > 0.0);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut fsm = OramFsm::new(plan_cfg(), 1, 2);
        assert!(fsm.submit(OramJob::Dummy));
        assert!(fsm.submit(OramJob::Dummy));
        assert!(!fsm.submit(OramJob::Dummy));
        assert!(fsm.busy());
    }

    #[test]
    fn same_block_twice_uses_different_paths_usually() {
        // After remapping, a second access to the same block plans a
        // different leaf with overwhelming probability.
        let mut fsm = OramFsm::new(plan_cfg(), 3, 4);
        let mut sink = DelaySink::new(1);
        let job = OramJob::Real {
            id: None,
            op: MemOp::Write,
            block: 7,
        };
        fsm.submit(job);
        drive(&mut fsm, &mut sink, 300);
        let first_reads = sink.issued_reads;
        fsm.submit(job);
        drive(&mut fsm, &mut sink, 300);
        assert_eq!(sink.issued_reads, 2 * first_reads);
        // Different path ⇒ different leaf recorded in posmap history; we
        // can't observe the leaf directly, but stats prove both ran.
        assert_eq!(fsm.stats().real_accesses.get(), 2);
    }

    #[test]
    fn foreign_completion_ignored() {
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        assert!(!fsm.on_block_complete(RequestId(12345)));
    }

    #[test]
    fn pipelining_overlaps_and_preserves_correct_event_order() {
        // With pipelining, two queued accesses finish sooner than twice
        // the single-access time, and events still come in protocol order
        // per access (ReadPhaseDone before AccessDone).
        let total_time = |pipeline: bool| {
            let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
            fsm.set_pipeline(pipeline);
            let mut sink = DelaySink::new(10);
            fsm.submit(OramJob::Dummy);
            fsm.submit(OramJob::Dummy);
            let events = drive(&mut fsm, &mut sink, 2_000);
            let dones: Vec<u64> = events
                .iter()
                .filter(|(_, e)| matches!(e, FsmEvent::AccessDone(_)))
                .map(|&(c, _)| c)
                .collect();
            assert_eq!(dones.len(), 2, "pipeline={pipeline}");
            let reads: Vec<u64> = events
                .iter()
                .filter(|(_, e)| matches!(e, FsmEvent::ReadPhaseDone(_)))
                .map(|&(c, _)| c)
                .collect();
            assert_eq!(reads.len(), 2);
            assert!(reads[0] < dones[0] && reads[1] <= dones[1]);
            dones[1]
        };
        let serial = total_time(false);
        let pipelined = total_time(true);
        assert!(
            pipelined < serial,
            "pipelining must shorten back-to-back accesses: {pipelined} vs {serial}"
        );
    }

    #[test]
    fn pipelined_block_counts_match_serial() {
        // Pipelining changes timing, never the number of block operations.
        let count = |pipeline: bool| {
            let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
            fsm.set_pipeline(pipeline);
            let mut sink = DelaySink::new(3);
            for _ in 0..3 {
                fsm.submit(OramJob::Dummy);
            }
            drive(&mut fsm, &mut sink, 3_000);
            (sink.issued_reads, sink.issued_writes)
        };
        assert_eq!(count(false), count(true));
    }

    #[test]
    fn debug_state_tracks_pipelined_overlap_read() {
        // 24 block issues per cycle: each 32-block phase takes two cycles
        // to issue, so the overlap read gets the write phase's leftovers.
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        fsm.set_pipeline(true);
        for _ in 0..3 {
            fsm.submit(OramJob::Dummy);
        }
        let mut sink = DelaySink::new(10);
        sink.per_cycle = 24;
        let mut events = Vec::new();
        let mut states = Vec::new();
        for c in 0..25 {
            for id in sink.pop_ready(MemCycle(c)) {
                fsm.on_block_complete(id);
            }
            fsm.tick(MemCycle(c), &mut sink, &mut events);
            states.push(fsm.debug_state());
        }
        assert_eq!(states[10], "queue=2 phase=[read 32/32 out=8] overlap=[-]");
        assert_eq!(states[11], "queue=2 phase=[write 0/32 out=0] overlap=[-]");
        assert_eq!(
            states[12],
            "queue=1 phase=[write 24/32 out=24] overlap=[read 0/32 out=0 emitted=false]"
        );
        assert_eq!(
            states[13],
            "queue=1 phase=[write 32/32 out=32] overlap=[read 16/32 out=16 emitted=false]"
        );
        // The write phase ends before the overlap read drains; the read
        // finishes on the next cycle's takeover and the next one starts.
        assert_eq!(
            states[23],
            "queue=1 phase=[idle] overlap=[read 32/32 out=16 emitted=false]"
        );
        assert_eq!(
            states[24],
            "queue=0 phase=[write 24/32 out=24] overlap=[read 0/32 out=0 emitted=false]"
        );
    }

    #[test]
    fn busy_sink_stalls_progress_without_loss() {
        struct Never;
        impl BlockSink for Never {
            fn try_block(&mut self, _: MemOp, _: &BlockRef, _: MemCycle) -> Issued {
                Issued::Busy
            }
        }
        let mut fsm = OramFsm::new(plan_cfg(), 1, 4);
        fsm.submit(OramJob::Dummy);
        let mut events = Vec::new();
        for c in 0..50 {
            fsm.tick(MemCycle(c), &mut Never, &mut events);
        }
        assert!(events.is_empty());
        assert!(fsm.busy());
    }
}
