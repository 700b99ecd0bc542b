//! The sub-channel: queues, FR-FCFS scheduling, channel-level constraints,
//! write drains and refresh.
//!
//! One [`SubChannel`] models one rank of banks behind a shared command bus
//! (one command per tCK) and data bus (one burst at a time, with turnaround
//! gaps between opposite-direction bursts). The scheduler is FR-FCFS:
//! ready row hits first, then the oldest request's row management, the
//! policy USIMM's close-to-baseline configurations use.

use crate::address::AddressMapper;
use crate::arbiter::ShareArbiter;
use crate::bank::Bank;
use crate::conformance::{CommandRecord, DeviceCommand};
use crate::request::{Completion, MemOp, MemRequest, RequestClass};
use crate::stats::SubChannelStats;
use crate::timing::DramTiming;
use doram_sim::MemCycle;
use std::collections::VecDeque;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PagePolicy {
    /// Leave rows open after a column access (FR-FCFS exploits hits); the
    /// policy USIMM's baseline and this paper assume.
    #[default]
    Open,
    /// Auto-precharge after every column access: each access pays tRCD
    /// but never a conflict tRP on the critical path. Better for
    /// row-locality-free traffic; an ablation knob here.
    Closed,
}

/// Configuration of one sub-channel.
#[derive(Debug, Clone)]
pub struct SubChannelConfig {
    /// Device timing constraints.
    pub timing: DramTiming,
    /// Address decomposition.
    pub mapper: AddressMapper,
    /// Read queue capacity.
    pub read_queue: usize,
    /// Write queue capacity.
    pub write_queue: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub drain_high: usize,
    /// Leave write-drain mode at this write-queue occupancy.
    pub drain_low: usize,
    /// Enter write-drain mode when the oldest write has waited this many
    /// cycles, regardless of occupancy (prevents unbounded write
    /// starvation under a steady read stream).
    pub max_write_age: u64,
    /// Bandwidth-preallocation arbiter between ORAM and normal traffic.
    pub arbiter: ShareArbiter,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

impl Default for SubChannelConfig {
    fn default() -> SubChannelConfig {
        SubChannelConfig {
            timing: DramTiming::ddr3_1600(),
            mapper: AddressMapper::ddr3_default(),
            read_queue: 32,
            write_queue: 32,
            drain_high: 24,
            drain_low: 8,
            max_write_age: 300,
            arbiter: ShareArbiter::disabled(),
            page_policy: PagePolicy::Open,
        }
    }
}

/// A queued request with its decoded coordinates.
#[derive(Debug, Clone, Copy)]
struct Pending {
    req: MemRequest,
    bank: usize,
    row: u64,
    col: u64,
    /// Set once row management was performed on this request's behalf; used
    /// for row-hit accounting.
    managed: bool,
    /// Interference blame class ([`doram_obs::BlameClass`] tag).
    blame: u8,
    /// Cycle the request entered the queue (wait = issue − enq).
    enq: u64,
    /// The resource's per-class busy prefix at enqueue time; settling
    /// differences the current prefix against this.
    busy_snap: [u64; doram_obs::BLAME_CLASSES],
}

/// An issued column command waiting for its data burst to finish.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: MemRequest,
    finish: MemCycle,
    /// Blame class tag carried through to service-latency recording.
    blame: u8,
}

/// One rank of DRAM banks with scheduler and buses. See the
/// [crate docs](crate) for the role it plays.
#[derive(Debug, Clone)]
pub struct SubChannel {
    cfg: SubChannelConfig,
    banks: Vec<Bank>,
    read_q: VecDeque<Pending>,
    write_q: VecDeque<Pending>,
    in_flight: Vec<InFlight>,
    stats: SubChannelStats,
    // Channel-level timing state.
    data_busy_until: MemCycle,
    last_burst_op: Option<MemOp>,
    last_burst_end: MemCycle,
    last_write_data_end: MemCycle,
    next_col_allowed: MemCycle,
    last_act: Option<MemCycle>,
    recent_acts: VecDeque<MemCycle>,
    // Refresh state machine.
    next_refresh_due: MemCycle,
    refreshing_until: Option<MemCycle>,
    refresh_pending: bool,
    // Write drain mode.
    draining: bool,
    /// Banks awaiting an auto-precharge (closed-page policy).
    auto_precharge: Vec<usize>,
    /// Opt-in device-command trace for conformance checking.
    command_trace: Option<Vec<CommandRecord>>,
    /// Consecutive cycles with queued work but no column issued; drives
    /// the work-conserving fallback past the epoch owner.
    stall_cycles: u64,
    /// Trace recorder plus this sub-channel's index in the trace; `None`
    /// (the default) keeps the hot path silent.
    obs: Option<(doram_obs::SharedRecorder, u64)>,
    /// This sub-channel's row in the recorder's blame matrix, registered
    /// at `set_obs` time. `None` whenever blame attribution is off (no
    /// recorder, or the filter excludes the DRAM subsystem), which keeps
    /// the per-tick cost at one branch.
    blame_res: Option<usize>,
    /// Blame class tag of the burst currently owning the data bus.
    last_burst_blame: u8,
    /// The first cycle whose tick may do more than count (see
    /// [`SubChannel::wake_at`]): the earlier of `issue_at` and the
    /// earliest burst end.
    wake_at: MemCycle,
    /// The first cycle whose tick may do more than count and retire
    /// bursts: a tick before it runs no refresh, drain or scheduling step.
    issue_at: MemCycle,
    /// ORAM-class requests in the read and the write queue (indexed by
    /// [`MemOp`]), so a scheduling decision learns which classes wait
    /// without scanning.
    oram_queued: [usize; 2],
    // `wake_at`, `issue_at` and `oram_queued` are derived state: not
    // checkpointed, and rebuilt by a restore. Every enqueue resets both
    // wake cycles.
}

impl SubChannel {
    /// Creates a sub-channel.
    ///
    /// # Panics
    ///
    /// Panics if the timing parameters are inconsistent (see
    /// [`DramTiming::validate`]), the drain watermarks are inverted, or
    /// the rank has more than 64 banks.
    pub fn new(cfg: SubChannelConfig) -> SubChannel {
        cfg.timing.validate().expect("invalid DRAM timing");
        assert!(
            cfg.drain_low < cfg.drain_high && cfg.drain_high <= cfg.write_queue,
            "watermarks must satisfy low < high <= capacity"
        );
        assert!(cfg.mapper.banks() <= 64, "at most 64 banks per rank");
        let banks = vec![Bank::new(); cfg.mapper.banks()];
        let t_refi = cfg.timing.t_refi;
        SubChannel {
            cfg,
            banks,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            in_flight: Vec::new(),
            stats: SubChannelStats::default(),
            data_busy_until: MemCycle::ZERO,
            last_burst_op: None,
            last_burst_end: MemCycle::ZERO,
            last_write_data_end: MemCycle::ZERO,
            next_col_allowed: MemCycle::ZERO,
            last_act: None,
            recent_acts: VecDeque::new(),
            next_refresh_due: MemCycle(t_refi),
            refreshing_until: None,
            refresh_pending: false,
            draining: false,
            auto_precharge: Vec::new(),
            command_trace: None,
            stall_cycles: 0,
            obs: None,
            blame_res: None,
            last_burst_blame: doram_obs::BlameClass::NsApp as u8,
            wake_at: MemCycle::ZERO,
            issue_at: MemCycle::ZERO,
            oram_queued: [0; 2],
        }
    }

    /// Attaches (or detaches) a trace recorder; ORAM-class requests emit
    /// `dram_issue`/`dram_done` events tagged with `sub_idx`, and (when
    /// the DRAM subsystem passes the filter) queue waits are attributed
    /// in the blame matrix under the row `resource` (the SD's
    /// sub-channels are `sd.sub{i}`, a fabric channel's `ch{n}.sub{j}`).
    pub fn set_obs(
        &mut self,
        rec: Option<doram_obs::SharedRecorder>,
        sub_idx: u64,
        resource: &str,
    ) {
        self.blame_res = rec.as_ref().and_then(|r| {
            let mut r = r.borrow_mut();
            r.wants(doram_obs::Subsystem::Dram)
                .then(|| r.blame.resource(resource))
        });
        self.obs = rec.map(|r| (r, sub_idx));
    }

    /// Starts recording every device command for post-hoc JEDEC
    /// conformance checking (see [`crate::conformance`]).
    pub fn enable_command_trace(&mut self) {
        self.command_trace = Some(Vec::new());
    }

    /// Takes the recorded command trace (empty if tracing was never
    /// enabled).
    pub fn take_command_trace(&mut self) -> Vec<CommandRecord> {
        self.command_trace.take().unwrap_or_default()
    }

    fn record_command(&mut self, cycle: MemCycle, command: DeviceCommand, bank: usize, row: u64) {
        if let Some(trace) = self.command_trace.as_mut() {
            trace.push(CommandRecord {
                cycle: cycle.0,
                command,
                bank,
                row,
            });
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SubChannelStats {
        &self.stats
    }

    /// One-line internal state summary for debugging.
    pub fn debug_state(&self) -> String {
        format!(
            "rq={} wq={} fly={} drain={} refresh_pending={} refreshing={} rd={} wr={}",
            self.read_q.len(),
            self.write_q.len(),
            self.in_flight.len(),
            self.draining,
            self.refresh_pending,
            self.refreshing_until.is_some(),
            self.stats.reads.get(),
            self.stats.writes.get(),
        )
    }

    /// Number of queued (not yet issued) requests.
    pub fn queued(&self) -> usize {
        self.read_q.len() + self.write_q.len()
    }

    /// Whether the sub-channel has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty() && self.in_flight.is_empty()
    }

    /// Whether a read can currently be accepted.
    pub fn can_accept_read(&self) -> bool {
        self.read_q.len() < self.cfg.read_queue
    }

    /// Whether a write can currently be accepted.
    pub fn can_accept_write(&self) -> bool {
        self.write_q.len() < self.cfg.write_queue
    }

    /// Blame class a request maps to absent an explicit tag: normal
    /// traffic is the NS-App co-runner; ORAM reads are the S-App's
    /// latency-critical path, ORAM writes its background writebacks.
    pub fn blame_class_of(req: &MemRequest) -> doram_obs::BlameClass {
        match (req.class, req.op) {
            (RequestClass::Normal, _) => doram_obs::BlameClass::NsApp,
            (RequestClass::Oram, MemOp::Read) => doram_obs::BlameClass::SAppRead,
            (RequestClass::Oram, MemOp::Write) => doram_obs::BlameClass::SAppWriteback,
        }
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// Returns the request back when the corresponding queue is full, so the
    /// issuer can model back-pressure.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let blame = Self::blame_class_of(&req) as u8;
        self.enqueue_tagged(req, blame)
    }

    /// Enqueues a request under an explicit blame class tag: the secure
    /// channel uses this to mark scrub/rebuild reads ([`ScrubParity`])
    /// and detection-triggered refetches ([`IntegrityVerify`]) that are
    /// indistinguishable from ordinary ORAM traffic at this layer.
    ///
    /// # Errors
    ///
    /// Returns the request back when the corresponding queue is full.
    ///
    /// [`ScrubParity`]: doram_obs::BlameClass::ScrubParity
    /// [`IntegrityVerify`]: doram_obs::BlameClass::IntegrityVerify
    pub fn enqueue_tagged(&mut self, req: MemRequest, blame: u8) -> Result<(), MemRequest> {
        let full = match req.op {
            MemOp::Read => self.read_q.len() >= self.cfg.read_queue,
            MemOp::Write => self.write_q.len() >= self.cfg.write_queue,
        };
        if full {
            return Err(req);
        }
        let d = self.cfg.mapper.decode(req.addr);
        let busy_snap = match (self.blame_res, &self.obs) {
            (Some(res), Some((rec, _))) => rec.borrow().blame.busy_snapshot(res),
            _ => [0; doram_obs::BLAME_CLASSES],
        };
        let p = Pending {
            req,
            bank: d.bank,
            row: d.row,
            col: d.col,
            managed: false,
            blame,
            enq: req.arrival.0,
            busy_snap,
        };
        match req.op {
            MemOp::Read => self.read_q.push_back(p),
            MemOp::Write => self.write_q.push_back(p),
        }
        self.wake_at = MemCycle::ZERO;
        self.issue_at = MemCycle::ZERO;
        if req.class == RequestClass::Oram {
            self.oram_queued[req.op as usize] += 1;
            if let Some((rec, sub_idx)) = &self.obs {
                rec.borrow_mut().dram_issue(req.arrival.0, *sub_idx);
            }
        }
        Ok(())
    }

    /// Advances the sub-channel by one memory cycle, appending any requests
    /// whose data burst finished this cycle to `completed`.
    ///
    /// A tick before [`wake_at`](SubChannel::wake_at) only counts. A tick
    /// from then until the issue cycle only counts and retires bursts:
    /// retiring changes nothing the scheduling step reads. Any other tick
    /// acts and sets the next issue cycle. Both kinds then set the next
    /// wake cycle.
    pub fn tick(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        if now < self.wake_at {
            self.skip(now, now + MemCycle(1));
            return;
        }
        if now < self.issue_at {
            self.idle(now, 1);
            self.retire(now, completed);
        } else {
            self.count(now, 1);
            self.act(now, completed);
            self.issue_at = self.issue_bound(now);
        }
        let finish = self.in_flight.iter().map(|f| f.finish).min();
        self.wake_at = finish.map_or(self.issue_at, |f| f.min(self.issue_at));
    }

    /// A lower bound on the first cycle whose tick can do more than count:
    /// every tick of an earlier cycle only advances the cycle, bus-busy,
    /// stall and blame counters. Enqueueing resets it to zero.
    pub fn wake_at(&self) -> MemCycle {
        self.wake_at
    }

    /// Rebuilds the derived state a checkpoint does not carry: the class
    /// census, and wake cycles that make the next tick act.
    fn after_restore(&mut self) -> Result<(), doram_sim::snapshot::SnapshotError> {
        self.wake_at = MemCycle::ZERO;
        self.issue_at = MemCycle::ZERO;
        let oram = |q: &VecDeque<Pending>| {
            q.iter()
                .filter(|p| p.req.class == RequestClass::Oram)
                .count()
        };
        self.oram_queued = [oram(&self.read_q), oram(&self.write_q)];
        Ok(())
    }

    /// Applies the ticks of cycles `from..to` at once. Every one of them
    /// must come before [`wake_at`](SubChannel::wake_at), so each only
    /// counts.
    pub fn skip(&mut self, from: MemCycle, to: MemCycle) {
        debug_assert!(to <= self.wake_at, "skipping past the wake cycle");
        self.idle(from, to.0 - from.0);
    }

    /// The counters of `n` ticks from `from` that issue nothing: those
    /// every tick advances, and the stall count of an acting tick that
    /// issues nothing (a tick inside tRFC returns before it).
    fn idle(&mut self, from: MemCycle, n: u64) {
        self.count(from, n);
        if self.refreshing_until.is_none() {
            self.stall_cycles = if self.read_q.is_empty() && self.write_q.is_empty() {
                0
            } else {
                self.stall_cycles + n
            };
        }
    }

    /// The counters every tick of cycles `from..from + n` advances.
    fn count(&mut self, from: MemCycle, n: u64) {
        let end = from.0 + n;
        self.stats.cycles.add(n);
        let busy = self.data_busy_until.0.clamp(from.0, end) - from.0;
        self.stats.data_bus_busy.add(busy);
        // Advance the blame busy prefix for each *previous* cycle: the
        // data bus was busy during cycle `c − 1` iff a burst finishes at
        // or after `c`. Waiters snapshot this prefix on enqueue and settle
        // against it on issue; settling clamps, so the ±1-cycle overlap at
        // the boundary can never over-attribute.
        if let (Some(res), Some((rec, _)), true) =
            (self.blame_res, &self.obs, self.last_burst_op.is_some())
        {
            let busy = (self.data_busy_until.0 + 1).clamp(from.0, end) - from.0;
            if busy > 0 {
                let class = doram_obs::BlameClass::from_tag(self.last_burst_blame);
                rec.borrow_mut().blame.busy_cycles(res, class, busy);
            }
        }
    }

    /// Retires the bursts that finished by `now`, in `in_flight` order.
    fn retire(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].finish <= now {
                let f = self.in_flight.swap_remove(i);
                if let Some((rec, sub_idx)) = &self.obs {
                    let mut rec = rec.borrow_mut();
                    if f.req.class == RequestClass::Oram {
                        rec.dram_done(f.finish.0, *sub_idx);
                    }
                    if self.blame_res.is_some() {
                        rec.class_latency(
                            doram_obs::BlameClass::from_tag(f.blame),
                            f.finish.0.saturating_sub(f.req.arrival.0),
                        );
                    }
                }
                completed.push(Completion {
                    request: f.req,
                    finished: f.finish,
                });
            } else {
                i += 1;
            }
        }
    }

    /// Everything a tick does after counting: retire bursts, refresh,
    /// auto-precharge, pick the drain mode and schedule.
    fn act(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        self.retire(now, completed);

        // Refresh state machine.
        if let Some(until) = self.refreshing_until {
            if now < until {
                return; // tRFC: no commands.
            }
            self.refreshing_until = None;
        }
        if now >= self.next_refresh_due {
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            // Close banks one PRE per cycle, then refresh.
            if self.banks.iter().all(|b| b.open_row().is_none()) {
                let end = now + MemCycle(self.cfg.timing.t_rfc);
                for b in self.banks.iter_mut() {
                    b.block_until(end);
                }
                self.refreshing_until = Some(end);
                self.next_refresh_due += MemCycle(self.cfg.timing.t_refi);
                self.refresh_pending = false;
                self.stats.refreshes.inc();
                self.record_command(now, DeviceCommand::Refresh, 0, 0);
            } else if let Some(bank) = self.banks.iter().position(|b| b.can_precharge(now)) {
                let row = self.banks[bank]
                    .open_row()
                    .expect("precharging an open row");
                self.banks[bank].precharge(now, &self.cfg.timing);
                self.stats.precharges.inc();
                self.record_command(now, DeviceCommand::Precharge, bank, row);
            }
            return;
        }

        // Closed-page: issue pending auto-precharges as they become legal
        // (they use bank-command slots but never block the column path).
        if !self.auto_precharge.is_empty() {
            let mut i = 0;
            while i < self.auto_precharge.len() {
                let bank = self.auto_precharge[i];
                if self.banks[bank].open_row().is_none() {
                    self.auto_precharge.swap_remove(i);
                } else if self.banks[bank].can_precharge(now) {
                    let row = self.banks[bank].open_row().expect("open row checked");
                    self.banks[bank].precharge(now, &self.cfg.timing);
                    self.stats.precharges.inc();
                    self.record_command(now, DeviceCommand::Precharge, bank, row);
                    self.auto_precharge.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }

        self.draining = self.drain_mode(now);
        let issued_before = self.stats.reads.get() + self.stats.writes.get();
        self.schedule(now);
        let issued_after = self.stats.reads.get() + self.stats.writes.get();
        if issued_after > issued_before || (self.read_q.is_empty() && self.write_q.is_empty()) {
            self.stall_cycles = 0;
        } else {
            self.stall_cycles += 1;
        }
    }

    /// The write-drain mode a tick at `now` picks: hysteresis between the
    /// watermarks, with an aging override so writes cannot starve behind
    /// a steady read stream.
    fn drain_mode(&self, now: MemCycle) -> bool {
        let (reads, writes) = (self.read_q.len(), self.write_q.len());
        let oldest_write_aged = self
            .write_q
            .front()
            .is_some_and(|p| now.0.saturating_sub(p.req.arrival.0) > self.cfg.max_write_age);
        let enter =
            writes >= self.cfg.drain_high || (reads == 0 && writes > 0) || oldest_write_aged;
        let leave = (writes <= self.cfg.drain_low && reads > 0) || writes == 0;
        (self.draining || enter) && !leave
    }

    /// The issue cycle after an acting tick at `now`: the earliest cycle at
    /// which a refresh starts or ends, the drain mode flips or
    /// [`next_issue`](Self::next_issue) allows a command. No tick changes
    /// the queues, the banks or the bus state before then, and retiring a
    /// burst changes none of them, so each term is the exact cycle its
    /// condition comes true.
    fn issue_bound(&self, now: MemCycle) -> MemCycle {
        let soon = now + MemCycle(1);
        if let Some(until) = self.refreshing_until {
            return until; // tRFC: no commands before `until`
        }
        if self.refresh_pending
            || !self.auto_precharge.is_empty()
            || self.drain_mode(soon) != self.draining
        {
            return soon;
        }
        let mut wake = self.next_refresh_due.min(self.next_issue(soon));
        if let Some(p) = self.write_q.front().filter(|_| !self.draining) {
            // The cycle the oldest write ages into forcing a drain.
            let aged = MemCycle(p.req.arrival.0.saturating_add(self.cfg.max_write_age + 1));
            if aged > soon {
                wake = wake.min(aged);
            }
        }
        wake
    }

    /// The first cycle from `soon` on at which `schedule` can issue a
    /// command, with the queues, the banks, the buses and the drain mode
    /// frozen as they are. A row hit waits on its bank's tRCD and on the
    /// buses, a hit of the class the arbiter does not prefer also on the
    /// starvation valve or the next epoch; a conflict waits on its bank's
    /// PRECHARGE, unless a queued request still wants the open row; a
    /// closed bank waits on its ACTIVATE and on tRRD and tFAW.
    fn next_issue(&self, soon: MemCycle) -> MemCycle {
        let never = MemCycle(u64::MAX);
        let (queue, op) = self.active_queue();
        let (mut oram_hit, mut normal_hit, mut activate) = (never, never, never);
        // Banks whose open row a queued request hits, and banks a queued
        // request finds open on another row.
        let (mut wanted, mut conflicts) = (0u64, 0u64);
        for p in queue {
            let bank = &self.banks[p.bank];
            match bank.open_row() {
                Some(open) if open == p.row => {
                    wanted |= 1 << p.bank;
                    let hit = if p.req.class == RequestClass::Oram {
                        &mut oram_hit
                    } else {
                        &mut normal_hit
                    };
                    *hit = (*hit).min(bank.ready_col());
                }
                Some(_) => conflicts |= 1 << p.bank,
                None => activate = activate.min(bank.ready_act()),
            }
        }
        let preferred = self.preferred_at(soon, op);
        let (hit, other_hit) = match preferred {
            Some(RequestClass::Oram) => (oram_hit, normal_hit),
            Some(RequestClass::Normal) => (normal_hit, oram_hit),
            None => (oram_hit.min(normal_hit), never),
        };
        // `schedule` at cycle soon + k sees `stall_cycles + k`: every tick
        // before then issues nothing, so each adds one.
        let limit = 2 * self.cfg.timing.t_rc;
        let starved = soon + MemCycle((limit + 1).saturating_sub(self.stall_cycles));
        let valve = match self.cfg.arbiter.next_epoch(soon) {
            Some(epoch) => starved.min(epoch),
            None => starved,
        };
        let column = self.column_ready_at(op);
        let mut wake = hit.min(other_hit.max(valve)).max(column);
        wake = wake.min(activate.max(self.activate_ready_at()));
        let mut idle_conflicts = conflicts & !wanted;
        while idle_conflicts != 0 {
            let bank = idle_conflicts.trailing_zeros() as usize;
            wake = wake.min(self.banks[bank].ready_pre());
            idle_conflicts &= idle_conflicts - 1;
        }
        wake
    }

    /// The queue the drain mode serves, and its direction.
    fn active_queue(&self) -> (&VecDeque<Pending>, MemOp) {
        if self.draining {
            (&self.write_q, MemOp::Write)
        } else {
            (&self.read_q, MemOp::Read)
        }
    }

    /// The class the arbiter prefers at `now` in the queue of direction
    /// `op`, from the class census of that queue.
    fn preferred_at(&self, now: MemCycle, op: MemOp) -> Option<RequestClass> {
        let queued = match op {
            MemOp::Read => self.read_q.len(),
            MemOp::Write => self.write_q.len(),
        };
        let oram = self.oram_queued[op as usize];
        self.cfg.arbiter.preferred_at(now, oram > 0, oram < queued)
    }

    /// Issues at most one DRAM command for this cycle.
    fn schedule(&mut self, now: MemCycle) {
        let serve_writes = self.draining;
        let (queue, op) = self.active_queue();
        if queue.is_empty() {
            return;
        }
        // Bandwidth preallocation is a *preference* over which class's
        // ready requests are served first, computed from the classes
        // present in the active queue. It must stay work-conserving: a
        // hard veto can deadlock against row-buffer state (a starved
        // request pinning a row everyone else needs).
        let preferred = self.preferred_at(now, op);

        // Pass 1: first ready row hit in the active queue (FR part). The
        // epoch owner's requests are served; the other class only issues
        // when the owner has been unable to make progress for a while
        // (work-conserving valve — a strict veto can deadlock against
        // row-buffer state). Every request in a queue has the queue's
        // direction, so the buses allow a column command to all or none.
        let starved = self.stall_cycles > 2 * self.cfg.timing.t_rc;
        let hit_idx = if now >= self.column_ready_at(op) {
            let ready = |p: &Pending| self.banks[p.bank].can_column(p.row, now);
            match preferred {
                Some(class) if !starved => {
                    queue.iter().position(|p| p.req.class == class && ready(p))
                }
                _ => queue.iter().position(ready),
            }
        } else {
            None
        };
        if let Some(idx) = hit_idx {
            let p = if serve_writes {
                self.write_q.remove(idx).expect("index valid")
            } else {
                self.read_q.remove(idx).expect("index valid")
            };
            self.issue_column(p, now);
            return;
        }

        // Pass 2: row management for the oldest serviceable request (FCFS
        // part), visiting the preferred class's requests first. The first
        // request whose bank can make progress gets it.
        let Some((i, command)) = self.row_command(queue, preferred, now) else {
            return;
        };
        let (bank, row) = (queue[i].bank, queue[i].row);
        let t = self.cfg.timing;
        if command == DeviceCommand::Precharge {
            let open = self.banks[bank]
                .open_row()
                .expect("conflict on an open row");
            self.banks[bank].precharge(now, &t);
            self.stats.precharges.inc();
            self.record_command(now, command, bank, open);
        } else {
            self.banks[bank].activate(row, now, &t);
            self.note_activate(now);
            self.stats.activates.inc();
            self.record_command(now, command, bank, row);
        }
        let queue = if serve_writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        queue[i].managed = true;
    }

    /// Pass 2's choice: the index in `queue` and the row command
    /// (PRECHARGE or ACTIVATE) of the first request, `preferred` class
    /// first and each class in queue order, whose bank can act now. One
    /// walk finds it: it returns the first preferred candidate and keeps
    /// the first other one for the end.
    fn row_command(
        &self,
        queue: &VecDeque<Pending>,
        preferred: Option<RequestClass>,
        now: MemCycle,
    ) -> Option<(usize, DeviceCommand)> {
        let activate_ready = now >= self.activate_ready_at();
        let command = |p: &Pending| {
            let bank = &self.banks[p.bank];
            match bank.open_row() {
                Some(open) if open == p.row => None, // waits on tRCD/tCCD/bus
                // Conflict: precharge, unless a request in the *currently
                // served* queue still wants the open row (keep it open —
                // FR-FCFS). Only the active queue counts: honoring the idle
                // queue's row wishes can deadlock (the write would pin a
                // row that read service never releases).
                Some(open) => (bank.can_precharge(now)
                    && !queue.iter().any(|q| q.bank == p.bank && q.row == open))
                .then_some(DeviceCommand::Precharge),
                None => {
                    (activate_ready && bank.can_activate(now)).then_some(DeviceCommand::Activate)
                }
            }
        };
        let mut other = None;
        for (i, p) in queue.iter().enumerate() {
            if preferred.is_none_or(|class| p.req.class == class) {
                if let Some(c) = command(p) {
                    return Some((i, c));
                }
            } else if other.is_none() {
                other = command(p).map(|c| (i, c));
            }
        }
        other
    }

    /// The first cycle at which the channel allows a column command of
    /// direction `op`: tCCD, a free data bus with a turnaround gap on a
    /// direction change, and tWTR before a READ.
    fn column_ready_at(&self, op: MemOp) -> MemCycle {
        let t = &self.cfg.timing;
        let latency = match op {
            MemOp::Read => t.cl,
            MemOp::Write => t.cwl,
        };
        // The burst may start once the data bus is free.
        let needed = if self.last_burst_op.is_some() && self.last_burst_op != Some(op) {
            self.last_burst_end + MemCycle(t.t_rtrs)
        } else {
            self.data_busy_until
        };
        let bus = needed.max(self.data_busy_until).0.saturating_sub(latency);
        let at = self.next_col_allowed.max(MemCycle(bus));
        match op {
            // Write-to-read: tWTR from end of write data to READ command.
            MemOp::Read => at.max(self.last_write_data_end + MemCycle(t.t_wtr)),
            MemOp::Write => at,
        }
    }

    /// The first cycle at which the channel allows an ACTIVATE: tRRD after
    /// the last one, and tFAW after the fourth-last (an ACT at cycle a
    /// occupies the window [a, a + tFAW)).
    fn activate_ready_at(&self) -> MemCycle {
        let t = &self.cfg.timing;
        let rrd = self
            .last_act
            .map_or(MemCycle::ZERO, |a| a + MemCycle(t.t_rrd));
        let faw = match self.recent_acts.len() {
            n if n >= 4 => self.recent_acts[n - 4] + MemCycle(t.t_faw),
            _ => MemCycle::ZERO,
        };
        rrd.max(faw)
    }

    fn note_activate(&mut self, now: MemCycle) {
        self.last_act = Some(now);
        self.recent_acts.push_back(now);
        while self.recent_acts.len() > 4 {
            self.recent_acts.pop_front();
        }
    }

    /// Issues a READ or WRITE column command for `p` at `now`.
    fn issue_column(&mut self, p: Pending, now: MemCycle) {
        if p.req.class == RequestClass::Oram {
            self.oram_queued[p.req.op as usize] -= 1;
        }
        // Settle the request's queueing wait: busy cycles observed since
        // its enqueue snapshot are blamed on the occupying classes, the
        // idle remainder (bank timing, refresh) on its own class.
        if let Some(res) = self.blame_res {
            if let Some((rec, _)) = &self.obs {
                rec.borrow_mut().blame.settle(
                    res,
                    doram_obs::BlameClass::from_tag(p.blame),
                    now.0.saturating_sub(p.enq),
                    &p.busy_snap,
                );
            }
        }
        let t = self.cfg.timing;
        let (start, op) = match p.req.op {
            MemOp::Read => (now + MemCycle(t.cl), MemOp::Read),
            MemOp::Write => (now + MemCycle(t.cwl), MemOp::Write),
        };
        let finish = start + MemCycle(t.t_burst);
        match op {
            MemOp::Read => {
                self.banks[p.bank].read(now, &t);
                self.stats.reads.inc();
                self.record_command(now, DeviceCommand::Read, p.bank, p.row);
            }
            MemOp::Write => {
                self.banks[p.bank].write(now, &t);
                self.stats.writes.inc();
                self.last_write_data_end = finish;
                self.record_command(now, DeviceCommand::Write, p.bank, p.row);
            }
        }
        if self.cfg.page_policy == PagePolicy::Closed {
            // Auto-precharge: close the row unless another queued request
            // still wants it (a mini "hit streak" exception that keeps the
            // policy from thrashing obvious spatial locality).
            let wanted = self
                .read_q
                .iter()
                .chain(self.write_q.iter())
                .any(|q| q.bank == p.bank && q.row == p.row);
            if !wanted {
                self.auto_precharge.push(p.bank);
            }
        }
        if p.managed {
            self.stats.row_misses.inc();
        } else {
            self.stats.row_hits.inc();
        }
        self.next_col_allowed = now + MemCycle(t.t_ccd);
        self.data_busy_until = finish;
        self.last_burst_op = Some(op);
        self.last_burst_end = finish;
        self.last_burst_blame = p.blame;
        self.in_flight.push(InFlight {
            req: p.req,
            finish,
            blame: p.blame,
        });
        let _ = p.col; // column index participates only through the mapper
    }
}

doram_sim::impl_codec!(struct Pending { req, bank, row, col, managed, blame, enq, busy_snap });
doram_sim::impl_codec!(struct InFlight { req, finish, blame });

// `in_flight` retires via swap_remove, so its element order is part of the
// schedule and is kept as is. The configuration never changes during a run.
// The command trace is an opt-in debugging aid excluded from checkpoints;
// the recorder wiring is redone by the host after restore. The wake cycles
// and the class census are derived: a restored sub-channel recounts the
// census and acts on its next tick.
doram_sim::impl_snapshot!(SubChannel {
    banks: state,
    read_q,
    write_q,
    in_flight,
    stats: state,
    data_busy_until,
    last_burst_op,
    last_burst_end,
    last_write_data_end,
    next_col_allowed,
    last_act,
    recent_acts,
    next_refresh_due,
    refreshing_until,
    refresh_pending,
    draining,
    auto_precharge,
    stall_cycles,
    last_burst_blame,
} skip { cfg, command_trace, obs, blame_res, wake_at, issue_at, oram_queued }
    after_load SubChannel::after_restore);

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::{AppId, RequestId};

    fn req(id: u64, op: MemOp, addr: u64, arrival: u64) -> MemRequest {
        MemRequest {
            id: RequestId(id),
            app: AppId(0),
            op,
            addr,
            class: RequestClass::Normal,
            arrival: MemCycle(arrival),
        }
    }

    fn run_until_n(sc: &mut SubChannel, n: usize, limit: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        while done.len() < n && now.0 < limit {
            sc.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert!(
            done.len() >= n,
            "only {} of {n} completed by {limit}",
            done.len()
        );
        done
    }

    #[test]
    fn single_read_latency_is_row_miss_path() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        let done = run_until_n(&mut sc, 1, 1000);
        // ACT@0 + tRCD(11) → RD@11 + CL(11) + burst(4) = 26.
        assert_eq!(done[0].finished, MemCycle(26));
        assert_eq!(sc.stats().activates.get(), 1);
        assert_eq!(sc.stats().row_misses.get(), 1);
    }

    #[test]
    fn row_hit_follows_quickly() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        sc.enqueue(req(1, MemOp::Read, 64, 0)).unwrap();
        let done = run_until_n(&mut sc, 2, 1000);
        // Second read: tCCD after the first → RD@15, data at 15+11+4 = 30.
        assert_eq!(done[1].finished, MemCycle(30));
        assert_eq!(sc.stats().row_hits.get(), 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        // Same bank (bank 0), different rows: rows are 64 KB apart.
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        sc.enqueue(req(1, MemOp::Read, 65536, 0)).unwrap();
        let done = run_until_n(&mut sc, 2, 2000);
        // Second read must wait ~tRAS + tRP + tRCD + CL + burst.
        assert!(done[1].finished.0 >= 28 + 11 + 11 + 11 + 4);
        assert_eq!(sc.stats().precharges.get(), 1);
    }

    #[test]
    fn bank_parallelism_overlaps_activates() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        // Two different banks (8 KB apart with the default mapper).
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        sc.enqueue(req(1, MemOp::Read, 8192, 0)).unwrap();
        let done = run_until_n(&mut sc, 2, 1000);
        // Serial would be ~52; overlapped ACTs finish well under 40.
        assert!(done[1].finished.0 < 40, "finish {}", done[1].finished.0);
    }

    #[test]
    fn writes_complete_and_report_latency() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        sc.enqueue(req(0, MemOp::Write, 0, 0)).unwrap();
        let done = run_until_n(&mut sc, 1, 1000);
        assert_eq!(done[0].request.op, MemOp::Write);
        // ACT@0 + tRCD → WR@11 + CWL(8) + burst(4) = 23.
        assert_eq!(done[0].finished, MemCycle(23));
        assert_eq!(sc.stats().writes.get(), 1);
    }

    #[test]
    fn reads_have_priority_until_drain_watermark() {
        let cfg = SubChannelConfig {
            drain_high: 4,
            drain_low: 1,
            ..SubChannelConfig::default()
        };
        let mut sc = SubChannel::new(cfg);
        // 3 writes below the watermark + 2 reads: reads finish first.
        for i in 0..3 {
            sc.enqueue(req(i, MemOp::Write, 64 * i, 0)).unwrap();
        }
        sc.enqueue(req(10, MemOp::Read, 64 * 50, 0)).unwrap();
        sc.enqueue(req(11, MemOp::Read, 64 * 51, 0)).unwrap();
        let done = run_until_n(&mut sc, 5, 4000);
        let first_two: Vec<_> = done.iter().take(2).map(|c| c.request.id.0).collect();
        assert_eq!(first_two, vec![10, 11]);
    }

    #[test]
    fn drain_mode_services_writes_when_reads_absent() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        for i in 0..8 {
            sc.enqueue(req(i, MemOp::Write, 64 * i, 0)).unwrap();
        }
        let done = run_until_n(&mut sc, 8, 4000);
        assert_eq!(done.len(), 8);
    }

    #[test]
    fn queue_backpressure() {
        let cfg = SubChannelConfig {
            read_queue: 2,
            ..SubChannelConfig::default()
        };
        let mut sc = SubChannel::new(cfg);
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        sc.enqueue(req(1, MemOp::Read, 64, 0)).unwrap();
        assert!(!sc.can_accept_read());
        assert!(sc.enqueue(req(2, MemOp::Read, 128, 0)).is_err());
        assert!(sc.can_accept_write());
    }

    #[test]
    fn refresh_blocks_and_resumes() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        let mut done = Vec::new();
        // Run across the first tREFI boundary with steady traffic.
        let mut next_addr = 0u64;
        let mut id = 0u64;
        for c in 0..8000u64 {
            if c % 40 == 0 && sc.can_accept_read() {
                let _ = sc.enqueue(req(id, MemOp::Read, next_addr, c));
                id += 1;
                next_addr += 64;
            }
            sc.tick(MemCycle(c), &mut done);
        }
        assert!(sc.stats().refreshes.get() >= 1, "refresh must have run");
        assert!(
            done.len() as u64 >= id - 5,
            "traffic keeps flowing after refresh"
        );
    }

    #[test]
    fn tfaw_limits_activate_burst() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        // 6 different banks: the 5th ACT must wait for the tFAW window.
        for i in 0..6 {
            sc.enqueue(req(i, MemOp::Read, 8192 * i, 0)).unwrap();
        }
        let mut done = Vec::new();
        let mut acts_in_window = 0;
        for c in 0..200u64 {
            sc.tick(MemCycle(c), &mut done);
            if c == 23 {
                // The window [0, 24) may hold at most four ACTs.
                acts_in_window = sc.stats().activates.get();
            }
        }
        assert!(
            acts_in_window <= 4,
            "{acts_in_window} ACTs within tFAW window"
        );
        assert!(
            sc.stats().activates.get() >= 5,
            "later ACTs proceed once the window slides"
        );
        assert_eq!(done.len(), 6);
    }

    #[test]
    fn oram_class_capped_when_sharing() {
        let cfg = SubChannelConfig {
            arbiter: ShareArbiter::paper_default(),
            ..SubChannelConfig::default()
        };
        let mut sc = SubChannel::new(cfg);
        let mut done = Vec::new();
        let mut id = 0u64;
        let mut oram_addr = 0u64;
        let mut norm_addr = 1 << 30;
        // Keep both classes' queues topped up; measure service mix.
        for c in 0..30_000u64 {
            while sc.read_q.len() < 16 {
                let (class, addr) = if id.is_multiple_of(2) {
                    oram_addr += 64;
                    (RequestClass::Oram, oram_addr)
                } else {
                    norm_addr += 64;
                    (RequestClass::Normal, norm_addr)
                };
                let mut r = req(id, MemOp::Read, addr, c);
                r.class = class;
                sc.enqueue(r).unwrap();
                id += 1;
            }
            sc.tick(MemCycle(c), &mut done);
        }
        let oram = done
            .iter()
            .filter(|d| d.request.class == RequestClass::Oram)
            .count() as f64;
        let share = oram / done.len() as f64;
        assert!(
            (share - 0.5).abs() < 0.12,
            "ORAM share {share} should be near the 50% threshold"
        );
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut sc = SubChannel::new(SubChannelConfig::default());
        assert!(sc.is_idle());
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        assert!(!sc.is_idle());
        run_until_n(&mut sc, 1, 1000);
    }

    #[test]
    fn closed_page_precharges_after_isolated_access() {
        let cfg = SubChannelConfig {
            page_policy: PagePolicy::Closed,
            ..SubChannelConfig::default()
        };
        let mut sc = SubChannel::new(cfg);
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        let mut done = Vec::new();
        for c in 0..200u64 {
            sc.tick(MemCycle(c), &mut done);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(sc.stats().precharges.get(), 1, "auto-precharge issued");
        // A later access to a *different* row in the same bank pays only
        // tRCD (bank already closed), not tRP + tRCD.
        sc.enqueue(req(1, MemOp::Read, 65536, 200)).unwrap();
        let start = 200u64;
        let mut done2 = Vec::new();
        let mut finish = 0;
        for c in start..start + 200 {
            sc.tick(MemCycle(c), &mut done2);
            if done2.len() == 1 && finish == 0 {
                finish = c;
            }
        }
        assert!(
            finish - start <= 26,
            "closed bank: ACT+RD path, got {}",
            finish - start
        );
    }

    #[test]
    fn closed_page_spares_row_hit_streaks() {
        // The hit-streak exception: back-to-back same-row requests still
        // enjoy open-row service under the closed policy.
        let cfg = SubChannelConfig {
            page_policy: PagePolicy::Closed,
            ..SubChannelConfig::default()
        };
        let mut sc = SubChannel::new(cfg);
        for i in 0..8 {
            sc.enqueue(req(i, MemOp::Read, 64 * i, 0)).unwrap();
        }
        let mut done = Vec::new();
        for c in 0..500u64 {
            sc.tick(MemCycle(c), &mut done);
        }
        assert_eq!(done.len(), 8);
        assert_eq!(sc.stats().activates.get(), 1, "one ACT serves the streak");
    }

    #[test]
    fn recorder_sees_only_oram_class_requests() {
        use doram_obs::{EventKind, Recorder, FILTER_ALL};
        let mut sc = SubChannel::new(SubChannelConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000);
        sc.set_obs(Some(rec.clone()), 3, "sd.sub3");
        let mut oram = req(0, MemOp::Read, 0, 0);
        oram.class = RequestClass::Oram;
        sc.enqueue(oram).unwrap();
        sc.enqueue(req(1, MemOp::Read, 64, 0)).unwrap(); // Normal: silent
        run_until_n(&mut sc, 2, 1000);
        let events = rec.borrow().events();
        let issues = events
            .iter()
            .filter(|e| e.kind == EventKind::DramIssue)
            .count();
        let dones = events
            .iter()
            .filter(|e| e.kind == EventKind::DramDone)
            .count();
        assert_eq!((issues, dones), (1, 1), "only the ORAM request traces");
        assert!(
            events.iter().all(|e| e.value == 3),
            "tagged with the sub index"
        );
    }

    #[test]
    fn blame_attributes_waits_and_conserves() {
        use doram_obs::{BlameClass, Recorder, FILTER_ALL};
        let mut sc = SubChannel::new(SubChannelConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000);
        sc.set_obs(Some(rec.clone()), 0, "sd.sub0");
        // Interleave ORAM and normal reads so each class queues behind
        // the other's bursts.
        let mut done = Vec::new();
        let mut id = 0u64;
        let mut oram_addr = 0u64;
        let mut norm_addr = 1 << 30;
        for c in 0..3_000u64 {
            if c % 6 == 0 && sc.can_accept_read() {
                let (class, addr) = if id.is_multiple_of(2) {
                    oram_addr += 64;
                    (RequestClass::Oram, oram_addr)
                } else {
                    norm_addr += 64;
                    (RequestClass::Normal, norm_addr)
                };
                let mut r = req(id, MemOp::Read, addr, c);
                r.class = class;
                sc.enqueue(r).unwrap();
                id += 1;
            }
            sc.tick(MemCycle(c), &mut done);
        }
        let rec = rec.borrow();
        rec.blame
            .check_conservation()
            .expect("waits telescope to delay");
        let row = &rec.blame.resources()[0];
        assert_eq!(row.name, "sd.sub0");
        assert!(
            row.queue_delay > 0,
            "contended run must record queueing delay"
        );
        // Cross-class interference shows up: the normal co-runner gets
        // blamed for some of the S-App's waiting (and vice versa).
        assert!(
            row.waits[BlameClass::NsApp as usize] > 0
                && row.waits[BlameClass::SAppRead as usize] > 0,
            "expected cross-class blame, got {:?}",
            row.waits
        );
        // Service latency feeds the per-class histograms.
        assert!(rec.class_histogram(BlameClass::SAppRead).count() > 0);
        assert!(rec.class_histogram(BlameClass::NsApp).count() > 0);
    }

    #[test]
    fn blame_is_off_when_filter_excludes_dram() {
        use doram_obs::{parse_filter, Recorder};
        let mut sc = SubChannel::new(SubChannelConfig::default());
        let rec = Recorder::shared(64, parse_filter("sd").unwrap(), 1_000);
        sc.set_obs(Some(rec.clone()), 0, "sd.sub0");
        sc.enqueue(req(0, MemOp::Read, 0, 0)).unwrap();
        run_until_n(&mut sc, 1, 1000);
        assert!(
            rec.borrow().blame.is_empty(),
            "filtered-out subsystem stays silent"
        );
    }

    /// Byte address of a line in the default mapper's layout (64 B lines,
    /// 128 lines per row, 8 banks).
    fn line_addr(bank: u64, row: u64, col: u64) -> u64 {
        ((row * 8 + bank) * 128 + col) * 64
    }

    /// One cycle's seeded arrival, if any. Phases of 1,500 cycles rotate
    /// through a heavy mix that fills the write queue past the drain
    /// watermark, a read stream with a write trickle whose oldest write
    /// ages into a drain, a light mix, and silence. Requests of both
    /// classes land on four rows of four banks, so row hits, conflicts
    /// and closed banks are all common, and some arrive stamped up to 40
    /// cycles early, as requests that crossed a link do.
    fn arrival(rng: &mut doram_sim::rng::Xoshiro256, now: u64, id: u64) -> Option<MemRequest> {
        let (rate, write_share) = match (now / 1_500) % 4 {
            0 => (0.22, 0.45),
            1 => (0.14, 0.1),
            2 => (0.04, 0.45),
            _ => return None,
        };
        if !rng.gen_bool(rate) {
            return None;
        }
        let op = if rng.gen_bool(write_share) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        let class = if rng.gen_bool(0.5) {
            RequestClass::Oram
        } else {
            RequestClass::Normal
        };
        let addr = line_addr(rng.gen_below(4), rng.gen_below(4), rng.gen_below(16));
        let early = if rng.gen_bool(0.3) {
            rng.gen_below(now.min(40) + 1)
        } else {
            0
        };
        Some(MemRequest {
            id: RequestId(id),
            app: AppId(0),
            op,
            addr,
            class,
            arrival: MemCycle(now - early),
        })
    }

    fn saved(sc: &SubChannel) -> Vec<u8> {
        let mut w = doram_sim::snapshot::SnapshotWriter::new();
        doram_sim::snapshot::Snapshot::save_state(sc, &mut w);
        w.into_bytes()
    }

    /// Drives a wake-gated sub-channel and a clone of it that acts on
    /// every tick through the same seeded stream, and after every tick
    /// compares their checkpoint bytes, completions and blame rows. Each
    /// has its own recorder: a shared one would count busy cycles twice.
    /// Half way, with requests queued and bursts in flight, the gated one
    /// is restored from its own checkpoint into a sub-channel whose
    /// derived state is garbage, which must rebuild it. Returns (ticks
    /// that only counted, ticks that only counted and retired, refreshes,
    /// drains the write aging started).
    fn drive_gated_and_acting(cfg: SubChannelConfig, seed: u64) -> (u64, u64, u64, u64) {
        use doram_obs::{Recorder, FILTER_ALL};
        use doram_sim::snapshot::{Snapshot, SnapshotReader};
        let mut gated = SubChannel::new(cfg.clone());
        let mut acting = gated.clone();
        let (rec_gated, rec_acting) = (
            Recorder::shared(16, FILTER_ALL, 1_000),
            Recorder::shared(16, FILTER_ALL, 1_000),
        );
        gated.set_obs(Some(rec_gated.clone()), 0, "sub");
        acting.set_obs(Some(rec_acting.clone()), 0, "sub");
        let mut rng = doram_sim::rng::Xoshiro256::seed_from(seed);
        let (mut done_gated, mut done_acting) = (Vec::new(), Vec::new());
        let (mut counted, mut retired, mut aged_drains, mut id) = (0, 0, 0, 0);
        let mut restored = false;
        for now in 0..20_000u64 {
            if let Some(r) = arrival(&mut rng, now, id) {
                id += 1;
                assert_eq!(gated.enqueue(r).is_ok(), acting.enqueue(r).is_ok());
            }
            if !restored && now >= 10_000 && gated.queued() > 0 && !gated.in_flight.is_empty() {
                let mut fresh = SubChannel::new(cfg.clone());
                (fresh.wake_at, fresh.issue_at) = (MemCycle(u64::MAX), MemCycle(u64::MAX));
                fresh.oram_queued = [usize::MAX / 2; 2];
                fresh
                    .load_state(&mut SnapshotReader::new(&saved(&gated)))
                    .expect("own checkpoint loads");
                assert_eq!(fresh.oram_queued, gated.oram_queued, "census recounted");
                assert_eq!(
                    (fresh.wake_at, fresh.issue_at),
                    (MemCycle::ZERO, MemCycle::ZERO)
                );
                fresh.set_obs(Some(rec_gated.clone()), 0, "sub");
                gated = fresh;
                restored = true;
            }
            let (rq, wq, was_draining) = (gated.read_q.len(), gated.write_q.len(), gated.draining);
            let at = MemCycle(now);
            counted += u64::from(at < gated.wake_at);
            retired += u64::from(gated.wake_at <= at && at < gated.issue_at);
            gated.tick(at, &mut done_gated);
            (acting.wake_at, acting.issue_at) = (MemCycle::ZERO, MemCycle::ZERO);
            acting.tick(at, &mut done_acting);
            assert_eq!(done_gated, done_acting, "completions differ at {now}");
            assert!(
                saved(&gated) == saved(&acting),
                "state differs at {now}: gated {} / acting {}",
                gated.debug_state(),
                acting.debug_state()
            );
            assert_eq!(
                format!("{:?}", rec_gated.borrow().blame.resources()),
                format!("{:?}", rec_acting.borrow().blame.resources()),
                "blame differs at {now}"
            );
            aged_drains +=
                u64::from(!was_draining && gated.draining && wq < gated.cfg.drain_high && rq > 0);
        }
        assert!(
            restored,
            "no tick with requests queued and bursts in flight"
        );
        (counted, retired, gated.stats().refreshes.get(), aged_drains)
    }

    #[test]
    fn wake_gated_ticks_match_acting_every_cycle() {
        let arbiters = [
            ShareArbiter::disabled(),
            ShareArbiter::paper_default(),
            ShareArbiter::oram_priority(),
        ];
        for (i, arbiter) in arbiters.into_iter().enumerate() {
            for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
                let cfg = SubChannelConfig {
                    arbiter: arbiter.clone(),
                    page_policy,
                    ..SubChannelConfig::default()
                };
                let seed = 0x5eed + i as u64;
                let (counted, retired, refreshes, aged_drains) = drive_gated_and_acting(cfg, seed);
                let case = format!("{arbiter:?} {page_policy:?}");
                assert!(counted > 2_000, "{case}: only {counted} ticks only counted");
                assert!(retired > 200, "{case}: only {retired} ticks only retired");
                assert!(refreshes >= 3, "{case}: {refreshes} refreshes");
                assert!(aged_drains > 0, "{case}: no write aged into a drain");
            }
        }
    }

    #[test]
    fn saturated_stream_approaches_peak_bandwidth() {
        // Back-to-back row hits should keep the data bus nearly saturated:
        // a burst every tCCD = 4 cycles = 100% of peak.
        let mut sc = SubChannel::new(SubChannelConfig::default());
        let mut done = Vec::new();
        let mut id = 0u64;
        let mut addr = 0u64;
        for c in 0..20_000u64 {
            while sc.can_accept_read() {
                sc.enqueue(req(id, MemOp::Read, addr, c)).unwrap();
                id += 1;
                addr += 64;
            }
            sc.tick(MemCycle(c), &mut done);
        }
        let util = sc.stats().bus_utilization();
        assert!(util > 0.85, "streaming utilization only {util}");
        assert!(sc.stats().row_hit_rate() > 0.9);
    }
}
