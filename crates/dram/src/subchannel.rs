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
}

impl SubChannel {
    /// Creates a sub-channel.
    ///
    /// # Panics
    ///
    /// Panics if the timing parameters are inconsistent (see
    /// [`DramTiming::validate`]) or the drain watermarks are inverted.
    pub fn new(cfg: SubChannelConfig) -> SubChannel {
        cfg.timing.validate().expect("invalid DRAM timing");
        assert!(
            cfg.drain_low < cfg.drain_high && cfg.drain_high <= cfg.write_queue,
            "watermarks must satisfy low < high <= capacity"
        );
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

    /// Whether any request of `class` is queued.
    pub fn has_queued_class(&self, class: RequestClass) -> bool {
        self.read_q
            .iter()
            .chain(self.write_q.iter())
            .any(|p| p.req.class == class)
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
        if req.class == RequestClass::Oram {
            if let Some((rec, sub_idx)) = &self.obs {
                rec.borrow_mut().dram_issue(req.arrival.0, *sub_idx);
            }
        }
        Ok(())
    }

    /// Advances the sub-channel by one memory cycle, appending any requests
    /// whose data burst finished this cycle to `completed`.
    pub fn tick(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        self.stats.cycles.inc();
        if self.data_busy_until > now {
            self.stats.data_bus_busy.inc();
        }
        // Advance the blame busy prefix for the *previous* cycle: the data
        // bus was busy during cycle `now − 1` iff a burst finishes at or
        // after `now`. Waiters snapshot this prefix on enqueue and settle
        // against it on issue; settling clamps, so the ±1-cycle overlap at
        // the boundary can never over-attribute.
        if let Some(res) = self.blame_res {
            if self.last_burst_op.is_some() && self.data_busy_until >= now {
                if let Some((rec, _)) = &self.obs {
                    rec.borrow_mut()
                        .blame
                        .busy_cycle(res, doram_obs::BlameClass::from_tag(self.last_burst_blame));
                }
            }
        }

        // Retire finished bursts.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].finish <= now {
                let f = self.in_flight.swap_remove(i);
                let lat = (f.finish.0 - f.req.arrival.0) as f64;
                match f.req.op {
                    MemOp::Read => self.stats.read_latency.record(lat),
                    MemOp::Write => self.stats.write_latency.record(lat),
                }
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

        // Write-drain mode hysteresis, with an aging override so writes
        // cannot starve behind a steady read stream.
        let oldest_write_aged = self
            .write_q
            .front()
            .is_some_and(|p| now.0.saturating_sub(p.req.arrival.0) > self.cfg.max_write_age);
        if self.write_q.len() >= self.cfg.drain_high
            || (self.read_q.is_empty() && !self.write_q.is_empty())
            || oldest_write_aged
        {
            self.draining = true;
        }
        if self.draining && (self.write_q.len() <= self.cfg.drain_low && !self.read_q.is_empty()) {
            self.draining = false;
        }
        if self.write_q.is_empty() {
            self.draining = false;
        }

        let issued_before = self.stats.reads.get() + self.stats.writes.get();
        self.schedule(now);
        let issued_after = self.stats.reads.get() + self.stats.writes.get();
        if issued_after > issued_before || (self.read_q.is_empty() && self.write_q.is_empty()) {
            self.stall_cycles = 0;
        } else {
            self.stall_cycles += 1;
        }
    }

    /// Issues at most one DRAM command for this cycle.
    fn schedule(&mut self, now: MemCycle) {
        let serve_writes = self.draining;
        let queue = if serve_writes {
            &self.write_q
        } else {
            &self.read_q
        };
        if queue.is_empty() {
            return;
        }
        // Bandwidth preallocation is a *preference* over which class's
        // ready requests are served first, computed from the classes
        // present in the active queue. It must stay work-conserving: a
        // hard veto can deadlock against row-buffer state (a starved
        // request pinning a row everyone else needs).
        let preferred = {
            let oram_waiting = queue.iter().any(|p| p.req.class == RequestClass::Oram);
            let normal_waiting = queue.iter().any(|p| p.req.class == RequestClass::Normal);
            self.cfg
                .arbiter
                .preferred_at(now, oram_waiting, normal_waiting)
        };

        // Pass 1: first ready row hit in the active queue (FR part). The
        // epoch owner's requests are served; the other class only issues
        // when the owner has been unable to make progress for a while
        // (work-conserving valve — a strict veto can deadlock against
        // row-buffer state). Every request in a queue has the queue's
        // direction, so the buses allow a column command to all or none.
        let op = if serve_writes {
            MemOp::Write
        } else {
            MemOp::Read
        };
        let starved = self.stall_cycles > 2 * self.cfg.timing.t_rc;
        let hit_idx = if self.column_allowed(op, now) {
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
    /// first and each class in queue order, whose bank can act now.
    fn row_command(
        &self,
        queue: &VecDeque<Pending>,
        preferred: Option<RequestClass>,
        now: MemCycle,
    ) -> Option<(usize, DeviceCommand)> {
        let act = |(i, p): (usize, &Pending)| {
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
                .then_some((i, DeviceCommand::Precharge)),
                None => (bank.can_activate(now) && self.activate_allowed(now))
                    .then_some((i, DeviceCommand::Activate)),
            }
        };
        let requests = || queue.iter().enumerate();
        match preferred {
            Some(class) => requests()
                .filter(|(_, p)| p.req.class == class)
                .chain(requests().filter(|(_, p)| p.req.class != class))
                .find_map(act),
            None => requests().find_map(act),
        }
    }

    /// Channel-level legality of a column command of direction `op` at `now`.
    fn column_allowed(&self, op: MemOp, now: MemCycle) -> bool {
        if now < self.next_col_allowed {
            return false;
        }
        let t = &self.cfg.timing;
        let start = match op {
            MemOp::Read => now + MemCycle(t.cl),
            MemOp::Write => now + MemCycle(t.cwl),
        };
        // Data bus must be free, with a turnaround gap on direction change.
        let needed = if self.last_burst_op.is_some() && self.last_burst_op != Some(op) {
            self.last_burst_end + MemCycle(t.t_rtrs)
        } else {
            self.data_busy_until
        };
        if start < needed.max(self.data_busy_until) {
            return false;
        }
        // Write-to-read: tWTR from end of write data to READ command.
        if op == MemOp::Read && now < self.last_write_data_end + MemCycle(t.t_wtr) {
            return false;
        }
        true
    }

    /// Channel-level legality of an ACTIVATE at `now` (tRRD + tFAW).
    fn activate_allowed(&self, now: MemCycle) -> bool {
        let t = &self.cfg.timing;
        if let Some(last) = self.last_act {
            if now < last + MemCycle(t.t_rrd) {
                return false;
            }
        }
        // An ACT at cycle a occupies the window [a, a + tFAW).
        let in_window = self
            .recent_acts
            .iter()
            .filter(|&&a| a.0 + t.t_faw > now.0)
            .count();
        in_window < 4
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
        self.cfg.arbiter.record(p.req.class);
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

// Of the configuration only the arbiter's sliding-window tallies move, as
// columns issue.
doram_sim::impl_snapshot!(SubChannelConfig {
    arbiter: state,
} skip {
    timing,
    mapper,
    read_queue,
    write_queue,
    drain_high,
    drain_low,
    max_write_age,
    page_policy,
});

// `in_flight` retires via swap_remove, so its element order is part of the
// schedule and is kept as is. The command trace is an opt-in debugging aid
// excluded from checkpoints; the recorder wiring is redone by the host
// after restore.
doram_sim::impl_snapshot!(SubChannel {
    cfg: state,
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
} skip { command_trace, obs, blame_res });

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
        assert!(sc.stats().write_latency.count() == 1);
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
        assert!(sc.has_queued_class(RequestClass::Normal));
        assert!(!sc.has_queued_class(RequestClass::Oram));
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
