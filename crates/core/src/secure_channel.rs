//! The secure channel: BOB link + SimpleMC + the **secure delegator**.
//!
//! Channel #0 in D-ORAM (Figure 5/6). The SD owns the Path ORAM state
//! (position map, stash, planner) and drives the channel's four DDR3
//! sub-channels directly; the CPU only sees one 72 B packet per access in
//! each direction. NS-App traffic to this channel shares the same serial
//! link and the same sub-channels — the contention that motivates the
//! D-ORAM/c sharing policy.
//!
//! With tree split (D-ORAM+k), blocks of the last k levels live on normal
//! channels. The SD fetches them by sending *short read packets* up the
//! link; the CPU forwards the requests to the normal channels and returns
//! the (ciphertext) blocks as full response packets (§III-C). Write-phase
//! updates travel as full write packets the CPU forwards; they are posted.

mod verifier;

use crate::onchip_oram::ORAM_REGION_BASE;
use crate::onchip_oram::{BlockSink, FsmEvent, Issued, OramFsm, OramJob, OramStats};
use doram_bob::packet::PacketKind;
use doram_bob::{Link, LinkConfig, LinkStats};
use doram_dram::{Completion, MemOp, MemRequest, RequestClass, SubChannel, SubChannelConfig};
use doram_obs::{BlameClass, SharedRecorder, Subsystem};
use doram_oram::plan::{BlockRef, Placement, PlanConfig};
use doram_oram::verified::RecoveryPolicy;
use doram_sim::fault::{
    AdversaryBurst, AdversaryPlan, FaultCounts, FaultKind, FaultPlan, FaultRates, FaultWindow,
};
use doram_sim::health::HealthState;
use doram_sim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};
use doram_sim::{AppId, MemCycle, RequestId, RequestIdGen, SimError};
use std::collections::VecDeque;
use verifier::SdVerifier;

/// Fault-plan site base of the SD's per-sub-channel DRAM buses: sub `i`
/// rolls site-scoped bursts at site `SD_SUB_SITE_BASE + i` (the shared
/// bus keeps site 0x5D00).
pub const SD_SUB_SITE_BASE: u64 = 0x5D10;

/// A hostile sub-channel: over `[start, end)` memory cycles every bucket
/// read on secure sub-channel `sub` comes back with a forged MAC, which
/// quarantines the sub-channel (and, without parity, fail-stops the run).
pub fn hostile_sub_plan(seed: u64, sub: u64, start: u64, end: u64) -> FaultPlan {
    FaultPlan {
        seed,
        ..FaultPlan::none()
    }
    .site_window(
        SD_SUB_SITE_BASE + sub,
        FaultWindow {
            start: MemCycle(start),
            end: MemCycle(end),
            rates: FaultRates {
                forge_mac_ppm: 1_000_000,
                ..FaultRates::none()
            },
        },
    )
}

/// Staggered, repeating attack bursts against secure sub-channel `sub`:
/// the `i`-th of `kinds` starts at `start + 4,000·i` cycles and runs for
/// 3,000 cycles at `ppm`, every 12,000 cycles, `repeats` times, with up
/// to 400 cycles of seeded onset jitter. The kinds tile the timeline
/// without overlapping (later windows win within a site, so overlap
/// would mask earlier kinds).
///
/// # Errors
///
/// [`SimError::Config`] if the schedule is invalid (say, `ppm` above
/// 1,000,000).
pub fn adversary_sub_plan(
    seed: u64,
    kinds: &[FaultKind],
    sub: u64,
    start: u64,
    repeats: u32,
    ppm: u32,
) -> Result<FaultPlan, SimError> {
    let mut plan = AdversaryPlan::new(seed).jitter(400);
    for (i, &kind) in kinds.iter().enumerate() {
        plan = plan.burst(AdversaryBurst {
            site: SD_SUB_SITE_BASE + sub,
            kind,
            start: MemCycle(start + i as u64 * 4_000),
            len: 3_000,
            period: 12_000,
            repeats,
            ppm,
        });
    }
    plan.validate()?;
    Ok(plan.compile())
}

/// A split-level block operation forwarded through the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitFetch {
    /// SD-local tag identifying the block within the ongoing access.
    pub tag: u64,
    /// Normal channel (1-based) holding the block.
    pub channel: usize,
    /// Address within that channel's split region (before region base).
    pub addr: u64,
}

/// Up to one access's split-level fetches for one channel, carried in a
/// single short packet when read merging is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitBatch {
    fetches: [SplitFetch; MAX_BATCH],
    len: u8,
}

/// Largest per-channel batch: 2k blocks with k ≤ 3, so 6; rounded up.
const MAX_BATCH: usize = 8;

impl SplitBatch {
    /// An empty batch.
    pub fn new() -> SplitBatch {
        SplitBatch {
            fetches: [SplitFetch {
                tag: 0,
                channel: 0,
                addr: 0,
            }; MAX_BATCH],
            len: 0,
        }
    }

    /// Whether another fetch fits.
    pub fn has_room(&self) -> bool {
        (self.len as usize) < MAX_BATCH
    }

    /// Appends a fetch.
    ///
    /// # Panics
    ///
    /// Panics if the batch is full.
    pub fn push(&mut self, f: SplitFetch) {
        assert!(self.has_room(), "split batch overflow");
        self.fetches[self.len as usize] = f;
        self.len += 1;
    }

    /// The carried fetches.
    pub fn fetches(&self) -> &[SplitFetch] {
        &self.fetches[..self.len as usize]
    }

    /// Whether the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for SplitBatch {
    fn default() -> SplitBatch {
        SplitBatch::new()
    }
}

/// Messages on the secure channel's serial link.
#[derive(Debug, Clone, Copy)]
enum SecMsg {
    /// CPU → SimpleMC: an NS-App request.
    NsReq(MemRequest),
    /// SimpleMC → CPU: an NS-App read response.
    NsResp(Completion),
    /// CPU → SD: a secure request packet (real or dummy; fixed size).
    SecReq(OramJob),
    /// SD → CPU: the response packet (after the read phase).
    SecResp(OramJob),
    /// SD → CPU: short read packet asking for a split-level block.
    SplitReadReq(SplitFetch),
    /// SD → CPU: one short packet asking for *all* of an access's
    /// split-level blocks on one channel (footnote 1's merged read
    /// packets — the path id alone determines every split address, so a
    /// single short packet carries the whole per-channel batch).
    SplitReadBatch(SplitBatch),
    /// CPU → SD: the fetched split-level block.
    SplitReadResp(SplitFetch),
    /// SD → CPU: a split-level write to forward (posted).
    SplitWrite(SplitFetch),
}

impl SecMsg {
    fn wire_bytes(&self) -> u64 {
        match self {
            SecMsg::NsReq(r) => match r.op {
                MemOp::Read => PacketKind::ReadRequest.wire_bytes(),
                MemOp::Write => PacketKind::WriteRequest.wire_bytes(),
            },
            SecMsg::SplitReadReq(_) | SecMsg::SplitReadBatch(_) => {
                PacketKind::ReadRequest.wire_bytes()
            }
            // Everything else is a full (possibly secure) packet.
            _ => PacketKind::Secure.wire_bytes(),
        }
    }

    /// Interference-blame class of the requestor this message serves:
    /// NS-App traffic, the S-App's latency-critical read path (secure
    /// request/response and split-level reads), or its background
    /// writebacks (posted split writes).
    fn blame_class(&self) -> doram_obs::BlameClass {
        match self {
            SecMsg::NsReq(_) | SecMsg::NsResp(_) => doram_obs::BlameClass::NsApp,
            SecMsg::SecReq(_)
            | SecMsg::SecResp(_)
            | SecMsg::SplitReadReq(_)
            | SecMsg::SplitReadBatch(_)
            | SecMsg::SplitReadResp(_) => doram_obs::BlameClass::SAppRead,
            SecMsg::SplitWrite(_) => doram_obs::BlameClass::SAppWriteback,
        }
    }
}

/// Configuration of the secure channel.
#[derive(Debug, Clone)]
pub struct SecureChannelConfig {
    /// Serial link parameters.
    pub link: LinkConfig,
    /// Sub-channel configs (four in the paper).
    pub sub_channels: Vec<SubChannelConfig>,
    /// ORAM plan (geometry, cache, split, units = sub-channel count).
    pub plan: PlanConfig,
    /// S-App id (for stats attribution).
    pub s_app: AppId,
    /// Seed for position map / dummy paths.
    pub seed: u64,
    /// Merge each access's split-level read requests into one short
    /// packet per normal channel (the paper's footnote-1 future work).
    pub merge_split_reads: bool,
    /// Let the buffered access's read phase overlap the current write
    /// phase (an extension; the paper's SD strictly serializes).
    pub sd_pipeline: bool,
    /// System-wide fault plan, the only source of injected faults: it arms
    /// the serial link (site 0) and faults the SD's DRAM reads (bit flips,
    /// forged MACs, adversarial serves) per its rates and site windows.
    pub fault_plan: FaultPlan,
    /// Integrity-recovery policy (re-fetch budget, quarantine threshold).
    pub recovery: RecoveryPolicy,
    /// Stripe bucket parity across the sub-channels: a quarantined
    /// sub-channel's buckets are rebuilt from the surviving N−1 instead
    /// of latching fail-stop. Off by default (bit-identical to the
    /// legacy latch).
    pub parity: bool,
    /// Background scrub period in memory cycles (0 disables): each
    /// period repairs one parity-marked bucket and probes quarantined /
    /// probation sub-channels.
    pub scrub_every: u64,
    /// Cycles of quarantine before a sub-channel enters probation
    /// (0 keeps the legacy latch-forever quarantine).
    pub probation_window: u64,
    /// Clean scrub probes needed to promote out of probation.
    pub probation_successes: u32,
}

/// Counters of the SD's bucket-integrity verification and recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SdFaultStats {
    /// Bucket reads whose MAC verification failed.
    pub integrity_failures: u64,
    /// Re-fetches issued to recover from failed verifications.
    pub refetches: u64,
    /// Memory cycles spent between detecting a failure and recovering
    /// the bucket (summed over all recoveries).
    pub recovery_cycles: u64,
    /// Sub-channels latched into fail-stop quarantine.
    pub quarantined_subs: Vec<usize>,
    /// Buckets reconstructed from parity shares on the surviving
    /// sub-channels.
    pub parity_rebuilds: u64,
    /// Buckets re-tagged by the background scrubber.
    pub scrub_repairs: u64,
    /// Stale bucket replays rejected by the freshness tree.
    pub replay_detected: u64,
    /// Relocated (cross-address spliced) buckets rejected by the
    /// address-bound tag.
    pub relocation_detected: u64,
    /// Rollback-burst serves rejected by the freshness tree.
    pub rollback_rejected: u64,
    /// Freshness-tree walks performed (verifications + re-hashes); zero
    /// whenever the fault plan carries no adversarial rates.
    pub freshness_ops: u64,
    /// Modeled memory cycles charged for those walks.
    pub freshness_cycles: u64,
    /// Current health state per sub-channel.
    pub health: Vec<HealthState>,
    /// Quarantine entries per sub-channel (degraded-episode count).
    pub quarantine_entries: Vec<u32>,
    /// Cycles each sub-channel has spent outside `Healthy`.
    pub unhealthy_cycles: Vec<u64>,
}

/// Aggregate blame: `n` entries held at `res` waited this cycle, blamed on
/// `class`. A no-op without the recorder, the row, or a wait.
fn blame_held(obs: &Option<SharedRecorder>, res: Option<usize>, class: BlameClass, n: u64) {
    if let (Some(obs), Some(res), true) = (obs, res, n > 0) {
        let mut rec = obs.borrow_mut();
        rec.blame.wait(res, class, n);
        rec.blame.delay(res, n);
    }
}

/// The secure channel with its embedded SD.
#[derive(Debug)]
pub struct SecureChannel {
    link: Link<SecMsg>,
    subs: Vec<SubChannel>,
    fsm: OramFsm,
    s_app: AppId,
    mc_pending: VecDeque<MemRequest>,
    resp_pending: VecDeque<Completion>,
    /// SD → CPU messages waiting for link capacity.
    out_pending: VecDeque<SecMsg>,
    local_ids: RequestIdGen,
    scratch: Vec<Completion>,
    /// Read-merging state: per normal channel (index 0 unused), the batch
    /// being accumulated this tick, flushed before the tick ends. `None`
    /// disables merging.
    merge_bufs: Option<Vec<SplitBatch>>,
    /// Bucket verification and every recovery path around the datapath.
    verifier: SdVerifier,
    /// Trace recorder; `None` (the default) keeps the hot path silent.
    obs: Option<SharedRecorder>,
    /// Blame row for the SimpleMC holding buffer (`sd.mc`), registered by
    /// [`SecureChannel::set_obs`] when the recorder traces the SD.
    mc_blame_res: Option<usize>,
    /// Blame row for CPU-bound messages waiting on the link (`sd.out`).
    out_blame_res: Option<usize>,
}

impl SecureChannel {
    /// Builds the channel.
    ///
    /// # Panics
    ///
    /// Panics if no sub-channel is configured or the plan's unit count
    /// disagrees with the sub-channel count.
    pub fn new(cfg: SecureChannelConfig) -> SecureChannel {
        assert!(!cfg.sub_channels.is_empty(), "need sub-channels");
        assert_eq!(
            cfg.plan.tree_units,
            cfg.sub_channels.len(),
            "plan units must equal sub-channel count"
        );
        let mut link = Link::new(cfg.link);
        // Site 0: the secure channel's serial link.
        link.set_fault_plan(&cfg.fault_plan, 0);
        let verifier = SdVerifier::new(&cfg);
        SecureChannel {
            link,
            subs: cfg.sub_channels.into_iter().map(SubChannel::new).collect(),
            // Queue of 2: the in-service access plus the one the SD
            // buffers behind an ongoing write phase (§III-B).
            fsm: {
                let mut fsm = OramFsm::new(cfg.plan, cfg.seed, 2);
                fsm.set_pipeline(cfg.sd_pipeline);
                fsm
            },
            s_app: cfg.s_app,
            mc_pending: VecDeque::new(),
            resp_pending: VecDeque::new(),
            out_pending: VecDeque::new(),
            local_ids: RequestIdGen::new(),
            scratch: Vec::new(),
            merge_bufs: cfg.merge_split_reads.then(|| vec![SplitBatch::new(); 8]),
            verifier,
            obs: None,
            mc_blame_res: None,
            out_blame_res: None,
        }
    }

    /// Attaches (or detaches) a trace recorder, wiring the serial link,
    /// every sub-channel, the SD's FSM and its verifier to the same
    /// handle. The channel itself emits the SD-side access-span events
    /// (arrival, read-phase done, access done); the verifier emits the
    /// integrity fault/recovery instants.
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>) {
        self.link.set_obs(obs.clone(), "sec.link");
        for (i, sub) in self.subs.iter_mut().enumerate() {
            sub.set_obs(obs.clone(), i as u64, &format!("sd.sub{i}"));
        }
        self.fsm.set_obs(obs.clone());
        // Aggregate blame rows for the SD-side holding queues; the
        // verifier registers `sd.verify` after them.
        (self.mc_blame_res, self.out_blame_res) = obs
            .as_ref()
            .filter(|rec| rec.borrow().wants(Subsystem::Sd))
            .map(|rec| {
                let mut rec = rec.borrow_mut();
                (rec.blame.resource("sd.mc"), rec.blame.resource("sd.out"))
            })
            .unzip();
        self.verifier.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Jobs buffered at the SD and not yet started (for telemetry).
    pub fn sd_queue_len(&self) -> usize {
        self.fsm.queue_len()
    }

    /// SD → CPU messages waiting for link capacity (for telemetry).
    pub fn out_pending_len(&self) -> usize {
        self.out_pending.len()
    }

    /// ORAM controller statistics.
    pub fn oram_stats(&self) -> &OramStats {
        self.fsm.stats()
    }

    /// The SD's sub-channels, in tree-unit order.
    pub fn subs(&self) -> &[SubChannel] {
        &self.subs
    }

    /// The sub-channels, mutably: for device-command tracing only.
    pub fn subs_mut(&mut self) -> &mut [SubChannel] {
        &mut self.subs
    }

    /// Bytes moved over the serial link (to-mem, to-cpu).
    pub fn link_bytes(&self) -> (u64, u64) {
        self.link.bytes_sent()
    }

    /// Link error/recovery statistics (both directions merged).
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Faults injected so far: serial-link faults plus the SD's DRAM
    /// bit-flip/forge faults, including per-sub-channel hostile bursts.
    pub fn fault_counts(&self) -> FaultCounts {
        let mut total = self.link.fault_counts();
        total.absorb(&self.verifier.fault_counts());
        total
    }

    /// Counters of the SD's integrity verification and recovery.
    pub fn sd_fault_stats(&self) -> SdFaultStats {
        self.verifier.stats()
    }

    /// Whether the channel is operating degraded: parity is covering for
    /// at least one out-of-service sub-channel.
    pub fn degraded(&self) -> bool {
        self.verifier.degraded()
    }

    /// The first unrecovered fault on the channel: a quarantine /
    /// exhausted integrity recovery at the SD, or an exhausted retry
    /// budget on the link.
    pub fn fault(&self) -> Option<&SimError> {
        self.verifier.fault().or_else(|| self.link.fault())
    }

    /// The first latched SD integrity fault (quarantine without parity
    /// cover, or an exhausted re-fetch budget), if any.
    pub fn sd_fault(&self) -> Option<&SimError> {
        self.verifier.fault()
    }

    /// Health states of the serial link's two directions (to-mem, to-cpu).
    pub fn link_health(&self) -> (HealthState, HealthState) {
        self.link.health()
    }

    /// One-line summary of the dynamic state, for watchdog diagnostics.
    pub fn debug_state(&self) -> String {
        let subs: Vec<String> = self.subs.iter().map(|s| s.debug_state()).collect();
        format!(
            "fsm=[{}] mc_pending={} resp_pending={} out_pending={} {} subs=[{}]",
            self.fsm.debug_state(),
            self.mc_pending.len(),
            self.resp_pending.len(),
            self.out_pending.len(),
            self.verifier.debug_state(),
            subs.join(" | ")
        )
    }

    /// Sends an NS-App request down the link.
    ///
    /// # Errors
    ///
    /// Returns the request on link back-pressure.
    pub fn try_send_ns(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let msg = SecMsg::NsReq(req);
        self.link
            .send_to_mem_classed(msg.wire_bytes(), msg, msg.blame_class() as u8)
            .map_err(|_| req)
    }

    /// Whether a secure packet can be sent this cycle.
    pub fn can_send_secure(&self) -> bool {
        self.link.can_send_to_mem()
    }

    /// Sends the engine's secure request packet.
    ///
    /// # Panics
    ///
    /// Panics if the link cannot accept (check [`can_send_secure`] first).
    ///
    /// [`can_send_secure`]: SecureChannel::can_send_secure
    pub fn send_secure(&mut self, job: OramJob) {
        let msg = SecMsg::SecReq(job);
        self.link
            .send_to_mem_classed(msg.wire_bytes(), msg, msg.blame_class() as u8)
            .unwrap_or_else(|_| panic!("secure link send refused; check can_send_secure"));
    }

    /// CPU forwards a fetched split-level block back to the SD.
    ///
    /// # Errors
    ///
    /// Returns the fetch on link back-pressure.
    pub fn try_deliver_split_read(&mut self, fetch: SplitFetch) -> Result<(), SplitFetch> {
        let msg = SecMsg::SplitReadResp(fetch);
        self.link
            .send_to_mem_classed(msg.wire_bytes(), msg, msg.blame_class() as u8)
            .map_err(|_| fetch)
    }

    /// Advances one memory cycle.
    ///
    /// * `ns_completed` — NS requests finished (reads after their response
    ///   crossed the link; writes at DRAM completion);
    /// * `responses` — secure response packets that arrived at the CPU;
    /// * `split_reads` / `split_writes` — split-level operations the CPU
    ///   must forward to normal channels.
    pub fn tick(
        &mut self,
        now: MemCycle,
        ns_completed: &mut Vec<Completion>,
        responses: &mut Vec<OramJob>,
        split_reads: &mut Vec<SplitFetch>,
        split_writes: &mut Vec<SplitFetch>,
    ) {
        // 1. Link movement.
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        self.link.tick(now, &mut at_mem, &mut at_cpu);
        for msg in at_mem {
            match msg {
                SecMsg::NsReq(r) => self.mc_pending.push_back(r),
                SecMsg::SecReq(job) => {
                    if let Some(obs) = &self.obs {
                        obs.borrow_mut()
                            .sd_arrival(now.0, matches!(job, OramJob::Real { .. }));
                    }
                    let accepted = self.fsm.submit(job);
                    debug_assert!(
                        accepted,
                        "SD buffer overflow: protocol allows at most one buffered request"
                    );
                }
                SecMsg::SplitReadResp(f) => {
                    self.fsm.on_block_complete(RequestId(f.tag));
                }
                _ => {
                    debug_assert!(false, "CPU-bound message arrived at SD");
                    self.verifier
                        .latch(SimError::protocol("CPU-bound message arrived at SD"));
                }
            }
        }
        for msg in at_cpu {
            match msg {
                SecMsg::NsResp(c) => ns_completed.push(Completion {
                    request: c.request,
                    finished: now,
                }),
                SecMsg::SecResp(job) => responses.push(job),
                SecMsg::SplitReadReq(f) => split_reads.push(f),
                SecMsg::SplitReadBatch(batch) => split_reads.extend(batch.fetches()),
                SecMsg::SplitWrite(f) => split_writes.push(f),
                _ => {
                    debug_assert!(false, "SD-bound message arrived at CPU");
                    self.verifier
                        .latch(SimError::protocol("SD-bound message arrived at CPU"));
                }
            }
        }

        // 2. SimpleMC: NS requests into sub-channels (line-interleaved).
        let n_subs = self.subs.len() as u64;
        while let Some(&req) = self.mc_pending.front() {
            let line = req.addr >> 6;
            let sub = (line % n_subs) as usize;
            let mut local = req;
            local.addr = ((line / n_subs) << 6) | (req.addr & 63);
            match self.subs[sub].enqueue(local) {
                Ok(()) => {
                    self.mc_pending.pop_front();
                }
                Err(_) => break,
            }
        }
        // Aggregate blame: NS requests still held behind a full
        // sub-channel queue waited this cycle; the head is what the queue
        // refused, so its class (always NS here) takes the row.
        let held = self.mc_pending.len() as u64;
        blame_held(&self.obs, self.mc_blame_res, BlameClass::NsApp, held);

        // 3. SD: drive the ORAM FSM.
        let mut events = Vec::new();
        {
            let mut sink = SdSink {
                subs: &mut self.subs,
                out: &mut self.out_pending,
                ids: &mut self.local_ids,
                s_app: self.s_app,
                merge_bufs: self.merge_bufs.as_deref_mut(),
                verifier: &mut self.verifier,
            };
            self.fsm.tick(now, &mut sink, &mut events);
        }
        // Flush any merged read batches accumulated this tick.
        if let Some(bufs) = self.merge_bufs.as_mut() {
            for batch in bufs.iter_mut() {
                if !batch.is_empty() {
                    self.out_pending.push_back(SecMsg::SplitReadBatch(*batch));
                    *batch = SplitBatch::new();
                }
            }
        }
        for e in events {
            match e {
                FsmEvent::ReadPhaseDone(job) => {
                    if let Some(obs) = &self.obs {
                        obs.borrow_mut()
                            .sd_read_done(now.0, matches!(job, OramJob::Real { .. }));
                    }
                    // Response packet released after the read phase.
                    self.out_pending.push_back(SecMsg::SecResp(job));
                }
                FsmEvent::AccessDone(job) => {
                    if let Some(obs) = &self.obs {
                        obs.borrow_mut()
                            .sd_access_done(now.0, matches!(job, OramJob::Real { .. }));
                    }
                }
            }
        }

        // 4. DRAM sub-channels. Every ORAM completion passes through the
        // verifier, which hands the block to the FSM once it checks out,
        // so verification and recovery latency show up as ordinary access
        // latency. Blocks the verifier held are released first, then its
        // own reads take free sub-channel slots.
        self.verifier.ready(now, |id| {
            self.fsm.on_block_complete(id);
        });
        self.verifier.issue(&mut self.subs);
        for si in 0..self.subs.len() {
            self.scratch.clear();
            self.subs[si].tick(now, &mut self.scratch);
            for c in self.scratch.drain(..) {
                if c.request.class == RequestClass::Oram {
                    if let Some(id) = self.verifier.verify(si, &c, now, &mut self.local_ids) {
                        self.fsm.on_block_complete(id);
                    }
                } else {
                    match c.request.op {
                        MemOp::Read => self.resp_pending.push_back(c),
                        MemOp::Write => ns_completed.push(c),
                    }
                }
            }
        }
        self.verifier.end_tick(now);

        // 5. Flush CPU-bound messages (SD traffic first: it is latency-
        // critical and the paper sizes the link for it).
        while let Some(msg) = self.out_pending.front().copied() {
            if self
                .link
                .send_to_cpu_classed(msg.wire_bytes(), msg, msg.blame_class() as u8)
                .is_err()
            {
                break;
            }
            self.out_pending.pop_front();
        }
        while let Some(&c) = self.resp_pending.front() {
            let msg = SecMsg::NsResp(c);
            if self
                .link
                .send_to_cpu_classed(msg.wire_bytes(), msg, msg.blame_class() as u8)
                .is_err()
            {
                break;
            }
            self.resp_pending.pop_front();
        }
        // Aggregate blame: CPU-bound messages still waiting for link
        // capacity, blamed on the head message's class (SD traffic
        // flushes first, so it is what holds the lane).
        let held = (self.out_pending.len() + self.resp_pending.len()) as u64;
        let head = self
            .out_pending
            .front()
            .map_or(BlameClass::NsApp, |m| m.blame_class());
        blame_held(&self.obs, self.out_blame_res, head, held);
    }
}

doram_sim::impl_codec!(struct SplitFetch { tag, channel, addr });

/// Only the carried fetches travel, after their count.
impl Codec for SplitBatch {
    fn put(&self, w: &mut SnapshotWriter) {
        self.len.put(w);
        self.fetches().iter().for_each(|f| f.put(w));
    }

    fn get(r: &mut SnapshotReader<'_>) -> Result<SplitBatch, SnapshotError> {
        let len = u8::get(r)?;
        if len as usize > MAX_BATCH {
            return Err(SnapshotError::new(format!("split batch len {len}")));
        }
        let mut batch = SplitBatch::new();
        for _ in 0..len {
            batch.push(SplitFetch::get(r)?);
        }
        Ok(batch)
    }
}

doram_sim::impl_codec!(
    enum SecMsg {
        NsReq(req) = 0,
        NsResp(c) = 1,
        SecReq(job) = 2,
        SecResp(job) = 3,
        SplitReadReq(f) = 4,
        SplitReadBatch(batch) = 5,
        SplitReadResp(f) = 6,
        SplitWrite(f) = 7,
    }
);

// The merge buffers are empty between ticks (the tick that fills them
// flushes them). The recorder wiring is redone by the host after restore.
doram_sim::impl_snapshot!(SecureChannel {
    link: state,
    subs: state,
    fsm: state,
    mc_pending,
    resp_pending,
    out_pending,
    local_ids,
    verifier: state,
} skip {
    s_app,
    scratch,
    merge_bufs,
    obs,
    mc_blame_res,
    out_blame_res,
});

/// The SD's block sink: tree units are the local sub-channels; split
/// blocks become link messages forwarded by the CPU.
struct SdSink<'a> {
    subs: &'a mut [SubChannel],
    out: &'a mut VecDeque<SecMsg>,
    ids: &'a mut RequestIdGen,
    s_app: AppId,
    /// When `Some`, split reads coalesce per channel instead of emitting
    /// one short packet each.
    merge_bufs: Option<&'a mut [SplitBatch]>,
    /// Serving view and parity rebuilds for degraded routing.
    verifier: &'a mut SdVerifier,
}

/// Cap on SD→CPU messages queued locally before the sink back-pressures.
const OUT_PENDING_CAP: usize = 64;

impl BlockSink for SdSink<'_> {
    fn try_block(&mut self, op: MemOp, block: &BlockRef, now: MemCycle) -> Issued {
        match block.placement {
            Placement::TreeUnit(u) => {
                let addr = ORAM_REGION_BASE + block.addr;
                let mut sub = u;
                // Degraded routing: with parity on, traffic homed on an
                // out-of-service sub-channel is covered by the survivors —
                // reads rebuild from N−1 shares, writes remap cyclically.
                if self.verifier.reroutes(u) {
                    if op == MemOp::Read {
                        let orig = self.ids.next_id();
                        let started = self
                            .verifier
                            .start_rebuild(orig, addr, self.s_app, now, self.ids, None);
                        debug_assert!(started, "reroutes implies a serving sub");
                        return Issued::Tracked(orig);
                    }
                    let n = self.subs.len();
                    sub = (1..n)
                        .map(|d| (u + d) % n)
                        .find(|&s| self.verifier.is_serving(s))
                        .expect("reroutes implies a serving sub");
                }
                let id = self.ids.next_id();
                let req = MemRequest {
                    id,
                    app: self.s_app,
                    op,
                    addr,
                    class: RequestClass::Oram,
                    arrival: now,
                };
                match self.subs[sub].enqueue(req) {
                    Ok(()) => Issued::Tracked(id),
                    Err(_) => Issued::Busy,
                }
            }
            Placement::NormalChannel(ch) => {
                if self.out.len() >= OUT_PENDING_CAP {
                    return Issued::Busy;
                }
                let tag = self.ids.next_id().0;
                let fetch = SplitFetch {
                    tag,
                    channel: ch,
                    addr: block.addr,
                };
                match op {
                    MemOp::Read => {
                        match self.merge_bufs.as_deref_mut() {
                            Some(bufs) if bufs[ch].has_room() => bufs[ch].push(fetch),
                            Some(_) => return Issued::Busy, // flushes at tick end
                            None => self.out.push_back(SecMsg::SplitReadReq(fetch)),
                        }
                        Issued::Tracked(RequestId(tag))
                    }
                    MemOp::Write => {
                        // Forwarded and posted; the SD does not wait.
                        self.out.push_back(SecMsg::SplitWrite(fetch));
                        Issued::Done
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::verifier::FRESHNESS_COST;
    use super::*;
    use doram_oram::split::SplitConfig;
    use doram_oram::tree::TreeGeometry;

    pub(super) fn cfg(k: u32) -> SecureChannelConfig {
        SecureChannelConfig {
            link: LinkConfig::default(),
            sub_channels: vec![SubChannelConfig::default(); 4],
            plan: PlanConfig {
                geometry: TreeGeometry::new(10, 4),
                subtree_levels: 4,
                cached_levels: 2,
                split: if k == 0 {
                    SplitConfig::none()
                } else {
                    SplitConfig::new(k, 3)
                },
                tree_units: 4,
            },
            s_app: AppId(0),
            seed: 5,
            merge_split_reads: false,
            sd_pipeline: false,
            fault_plan: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            parity: false,
            scrub_every: 0,
            probation_window: 0,
            probation_successes: 4,
        }
    }

    struct Out {
        ns: Vec<Completion>,
        resp: Vec<OramJob>,
        sr: Vec<SplitFetch>,
        sw: Vec<SplitFetch>,
    }

    fn run(ch: &mut SecureChannel, cycles: u64) -> Out {
        let mut out = Out {
            ns: Vec::new(),
            resp: Vec::new(),
            sr: Vec::new(),
            sw: Vec::new(),
        };
        for c in 0..cycles {
            ch.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
        }
        out
    }

    #[test]
    fn secure_access_round_trip() {
        let mut ch = SecureChannel::new(cfg(0));
        let job = OramJob::Real {
            id: Some(RequestId(42)),
            op: MemOp::Read,
            block: 9,
        };
        assert!(ch.can_send_secure());
        ch.send_secure(job);
        let out = run(&mut ch, 5_000);
        assert_eq!(out.resp, vec![job], "response after the read phase");
        assert_eq!(ch.oram_stats().real_accesses.get(), 1);
        // 9 uncached levels × 4 blocks, read + write.
        let reads: u64 = ch.subs().iter().map(|s| s.stats().reads.get()).sum();
        let writes: u64 = ch.subs().iter().map(|s| s.stats().writes.get()).sum();
        assert_eq!(reads, 36);
        assert_eq!(writes, 36);
    }

    #[test]
    fn response_precedes_write_phase_completion() {
        let mut ch = SecureChannel::new(cfg(0));
        ch.send_secure(OramJob::Dummy);
        let mut got_resp_at = None;
        let mut out = Out {
            ns: vec![],
            resp: vec![],
            sr: vec![],
            sw: vec![],
        };
        for c in 0..5_000u64 {
            ch.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if !out.resp.is_empty() && got_resp_at.is_none() {
                got_resp_at = Some(c);
                // At response time the write phase has not finished.
                assert_eq!(ch.oram_stats().dummy_accesses.get(), 0);
            }
        }
        assert!(got_resp_at.is_some());
        assert_eq!(ch.oram_stats().dummy_accesses.get(), 1);
    }

    #[test]
    fn split_blocks_are_fetched_through_the_cpu() {
        let mut ch = SecureChannel::new(cfg(2));
        ch.send_secure(OramJob::Real {
            id: Some(RequestId(1)),
            op: MemOp::Read,
            block: 3,
        });
        // Phase 1: the SD asks for 2×4 split blocks.
        let mut out = Out {
            ns: vec![],
            resp: vec![],
            sr: vec![],
            sw: vec![],
        };
        let mut c = 0u64;
        while out.sr.len() < 8 && c < 5_000 {
            ch.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            c += 1;
        }
        assert_eq!(out.sr.len(), 8, "4k short read packets (k=2)");
        assert!(out.resp.is_empty(), "read phase blocked on split blocks");
        for f in &out.sr {
            assert!((1..=3).contains(&f.channel));
        }
        // Phase 2: CPU returns the blocks; the access completes.
        for f in out.sr.clone() {
            ch.try_deliver_split_read(f).unwrap();
        }
        while ch.oram_stats().real_accesses.get() == 0 && c < 20_000 {
            ch.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            c += 1;
        }
        assert_eq!(out.resp.len(), 1);
        assert_eq!(out.sw.len(), 8, "4k split write packets forwarded");
    }

    #[test]
    fn ns_traffic_coexists_with_oram() {
        let mut ch = SecureChannel::new(cfg(0));
        ch.send_secure(OramJob::Dummy);
        for i in 0..8u64 {
            ch.try_send_ns(MemRequest {
                id: RequestId(100 + i),
                app: AppId(1),
                op: MemOp::Read,
                addr: i * 64,
                class: RequestClass::Normal,
                arrival: MemCycle(0),
            })
            .unwrap();
        }
        let out = run(&mut ch, 10_000);
        assert_eq!(out.ns.len(), 8, "all NS reads completed");
        assert_eq!(out.resp.len(), 1, "ORAM access completed too");
    }

    #[test]
    fn sd_buffers_one_request_behind_write_phase() {
        let mut ch = SecureChannel::new(cfg(0));
        ch.send_secure(OramJob::Dummy);
        // Send the second immediately: it must be buffered and serviced.
        ch.send_secure(OramJob::Dummy);
        let out = run(&mut ch, 20_000);
        assert_eq!(out.resp.len(), 2);
        assert_eq!(ch.oram_stats().dummy_accesses.get(), 2);
    }

    #[test]
    fn merged_split_reads_save_link_bytes_and_still_complete() {
        let mut plain = SecureChannel::new(cfg(2));
        let mut merged = SecureChannel::new(SecureChannelConfig {
            merge_split_reads: true,
            ..cfg(2)
        });
        for ch in [&mut plain, &mut merged] {
            ch.send_secure(OramJob::Real {
                id: Some(RequestId(1)),
                op: MemOp::Read,
                block: 3,
            });
            let mut out = Out {
                ns: vec![],
                resp: vec![],
                sr: vec![],
                sw: vec![],
            };
            let mut c = 0u64;
            while ch.oram_stats().real_accesses.get() == 0 && c < 20_000 {
                ch.tick(
                    MemCycle(c),
                    &mut out.ns,
                    &mut out.resp,
                    &mut out.sr,
                    &mut out.sw,
                );
                // The CPU answers split fetches promptly.
                for f in out.sr.drain(..) {
                    ch.try_deliver_split_read(f).unwrap();
                }
                c += 1;
            }
            assert_eq!(out.resp.len(), 1, "access completed");
        }
        let (_, plain_up) = plain.link_bytes();
        let (_, merged_up) = merged.link_bytes();
        // 8 single short reads (8 B each) collapse into ≤3 batches.
        assert!(
            merged_up < plain_up,
            "merged {merged_up} vs plain {plain_up} CPU-bound bytes"
        );
    }

    #[test]
    fn faulty_dram_reads_recover_through_refetch() {
        let run_faulty = || {
            let mut ch = SecureChannel::new(SecureChannelConfig {
                // 2% of SD bucket reads see a bit flip, 0.5% a forged MAC.
                fault_plan: FaultPlan::with_rates(
                    13,
                    FaultRates {
                        bitflip_ppm: 20_000,
                        forge_mac_ppm: 5_000,
                        ..FaultRates::none()
                    },
                ),
                ..cfg(0)
            });
            // Closed loop: the protocol buffers at most one request behind
            // the in-flight access, so issue the next job only once the
            // previous response has crossed the link.
            let mut out = Out {
                ns: vec![],
                resp: vec![],
                sr: vec![],
                sw: vec![],
            };
            let mut sent = 1usize;
            ch.send_secure(OramJob::Dummy);
            for c in 0..60_000u64 {
                ch.tick(
                    MemCycle(c),
                    &mut out.ns,
                    &mut out.resp,
                    &mut out.sr,
                    &mut out.sw,
                );
                if out.resp.len() == sent && sent < 8 {
                    ch.send_secure(OramJob::Dummy);
                    sent += 1;
                }
            }
            assert_eq!(out.resp.len(), 8, "all accesses completed despite faults");
            ch
        };
        let ch = run_faulty();
        let stats = ch.sd_fault_stats();
        assert!(stats.integrity_failures > 0, "faults must have fired");
        assert!(stats.refetches > 0, "recovery must have re-fetched");
        assert!(stats.recovery_cycles > 0, "recovery costs latency");
        assert!(
            stats.quarantined_subs.is_empty(),
            "rates stay sub-threshold"
        );
        assert!(ch.fault().is_none());
        assert!(ch.fault_counts().bit_flips > 0);
        // Same seed ⇒ identical fault schedule and recovery accounting.
        let again = run_faulty();
        assert_eq!(again.sd_fault_stats(), stats);
        assert_eq!(again.fault_counts(), ch.fault_counts());
    }

    #[test]
    fn clean_run_verifies_nothing_and_counts_nothing() {
        let mut ch = SecureChannel::new(cfg(0));
        ch.send_secure(OramJob::Dummy);
        run(&mut ch, 5_000);
        let stats = ch.sd_fault_stats();
        let expected = SdFaultStats {
            health: vec![HealthState::Healthy; 4],
            quarantine_entries: vec![0; 4],
            unhealthy_cycles: vec![0; 4],
            ..SdFaultStats::default()
        };
        assert_eq!(stats, expected);
        assert_eq!(ch.fault_counts(), FaultCounts::default());
        assert_eq!(ch.link_stats().retransmissions, 0);
    }

    #[test]
    fn link_bytes_accumulate() {
        let mut ch = SecureChannel::new(cfg(0));
        ch.send_secure(OramJob::Dummy);
        run(&mut ch, 3_000);
        let (to_mem, to_cpu) = ch.link_bytes();
        assert_eq!(to_mem, 72, "one secure request packet");
        assert_eq!(to_cpu, 72, "one response packet");
    }

    /// Closed-loop driver: sends the next job as soon as the previous
    /// response crosses the link, up to `jobs` total.
    fn run_closed_loop(ch: &mut SecureChannel, jobs: usize, cycles: u64) -> Out {
        let mut out = Out {
            ns: vec![],
            resp: vec![],
            sr: vec![],
            sw: vec![],
        };
        let mut sent = 1usize;
        ch.send_secure(OramJob::Dummy);
        for c in 0..cycles {
            ch.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if out.resp.len() == sent && sent < jobs {
                ch.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        out
    }

    #[test]
    fn quarantined_sub_degrades_with_parity_and_completes() {
        let mut ch = SecureChannel::new(SecureChannelConfig {
            parity: true,
            fault_plan: hostile_sub_plan(77, 1, 0, 1_000_000),
            ..cfg(0)
        });
        let out = run_closed_loop(&mut ch, 8, 300_000);
        assert_eq!(out.resp.len(), 8, "run survives a hostile sub-channel");
        assert!(ch.fault().is_none(), "parity degrades instead of latching");
        assert!(ch.degraded(), "channel reports the degraded episode");
        let stats = ch.sd_fault_stats();
        assert_eq!(stats.quarantined_subs, vec![1]);
        assert_eq!(stats.health[1], HealthState::Quarantined);
        assert_eq!(stats.quarantine_entries, vec![0, 1, 0, 0]);
        assert!(stats.parity_rebuilds > 0, "reads were reconstructed");
        assert!(stats.unhealthy_cycles[1] > 0);
        assert_eq!(stats.health[1], HealthState::Quarantined);
        // Healthy siblings absorbed the quarantined sub's writes.
        assert!(ch.subs()[1].stats().reads.get() > 0, "pre-trip traffic");
    }

    #[test]
    fn without_parity_quarantine_still_fail_stops() {
        let mut ch = SecureChannel::new(SecureChannelConfig {
            fault_plan: hostile_sub_plan(77, 1, 0, 1_000_000),
            ..cfg(0)
        });
        run_closed_loop(&mut ch, 8, 300_000);
        let fault = ch.fault().expect("legacy fail-stop preserved");
        assert!(fault.to_string().contains("quarantined"), "{fault}");
    }

    #[test]
    fn scrubber_repairs_and_probation_promotes() {
        let mut ch = SecureChannel::new(SecureChannelConfig {
            parity: true,
            scrub_every: 250,
            probation_window: 3_000,
            probation_successes: 2,
            fault_plan: hostile_sub_plan(21, 2, 0, 30_000),
            ..cfg(0)
        });
        let out = run_closed_loop(&mut ch, 16, 300_000);
        assert_eq!(out.resp.len(), 16);
        assert!(ch.fault().is_none());
        let stats = ch.sd_fault_stats();
        assert_eq!(
            stats.health[2],
            HealthState::Healthy,
            "probation promoted the sub once the burst ended"
        );
        assert!(stats.quarantine_entries[2] >= 1, "episode was recorded");
        assert!(stats.scrub_repairs > 0, "scrubber repaired marked buckets");
        assert!(stats.quarantined_subs.is_empty(), "fully recovered");
        assert!(!ch.degraded(), "no longer degraded after promotion");
    }

    #[test]
    fn degradation_knobs_are_inert_on_a_clean_run() {
        let run_one = |parity: bool| {
            let mut ch = SecureChannel::new(SecureChannelConfig {
                parity,
                scrub_every: if parity { 100 } else { 0 },
                probation_window: if parity { 1_000 } else { 0 },
                probation_successes: 4,
                ..cfg(0)
            });
            let out = run_closed_loop(&mut ch, 4, 40_000);
            assert_eq!(out.resp.len(), 4);
            ch
        };
        let off = run_one(false);
        let on = run_one(true);
        assert_eq!(off.oram_stats().dummy_accesses.get(), 4);
        assert_eq!(
            on.oram_stats().dummy_accesses.get(),
            off.oram_stats().dummy_accesses.get()
        );
        assert_eq!(on.link_bytes(), off.link_bytes());
        for (i, (a, b)) in on.subs().iter().zip(off.subs()).enumerate() {
            assert_eq!(
                a.stats().reads.get(),
                b.stats().reads.get(),
                "sub {i} reads"
            );
            assert_eq!(
                a.stats().writes.get(),
                b.stats().writes.get(),
                "sub {i} writes"
            );
        }
        let on_stats = on.sd_fault_stats();
        assert_eq!(on_stats.integrity_failures, 0);
        assert_eq!(on_stats.parity_rebuilds, 0);
        assert_eq!(on_stats.scrub_repairs, 0);
        assert_eq!(on_stats.health, vec![HealthState::Healthy; 4]);
    }

    #[test]
    fn degraded_run_snapshot_round_trips() {
        use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
        let mk = || {
            SecureChannel::new(SecureChannelConfig {
                parity: true,
                scrub_every: 250,
                probation_window: 3_000,
                probation_successes: 2,
                fault_plan: hostile_sub_plan(21, 2, 0, 30_000),
                ..cfg(0)
            })
        };
        // Reference: one uninterrupted run.
        let mut full = mk();
        let full_out = run_closed_loop(&mut full, 12, 120_000);

        // Same run split at a cycle where sub 2 is mid-quarantine.
        let mut a = mk();
        let mut out = Out {
            ns: vec![],
            resp: vec![],
            sr: vec![],
            sw: vec![],
        };
        let mut sent = 1usize;
        a.send_secure(OramJob::Dummy);
        let split = 20_000u64;
        for c in 0..split {
            a.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if out.resp.len() == sent && sent < 12 {
                a.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        assert_eq!(
            a.sd_fault_stats().health[2],
            HealthState::Quarantined,
            "split lands mid-episode"
        );
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = mk();
        b.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
        for c in split..120_000 {
            b.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if out.resp.len() == sent && sent < 12 {
                b.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        assert_eq!(out.resp, full_out.resp, "resumed run matches uninterrupted");
        assert_eq!(b.sd_fault_stats(), full.sd_fault_stats());
        assert_eq!(b.link_bytes(), full.link_bytes());
        // And the resumed state re-serializes identically to the original.
        let mut w_full = SnapshotWriter::new();
        full.save_state(&mut w_full);
        let mut w_b = SnapshotWriter::new();
        b.save_state(&mut w_b);
        assert_eq!(w_full.into_bytes(), w_b.into_bytes());
    }

    #[test]
    fn replayed_buckets_are_detected_and_recovered() {
        let run_one = || {
            let mut ch = SecureChannel::new(SecureChannelConfig {
                // 3% of SD bucket reads are answered with a stale,
                // correctly-tagged copy of an earlier write.
                fault_plan: FaultPlan::with_rates(
                    31,
                    FaultRates::only(FaultKind::ReplayStale, 30_000),
                ),
                ..cfg(0)
            });
            let out = run_closed_loop(&mut ch, 8, 120_000);
            assert_eq!(out.resp.len(), 8, "all accesses complete despite replays");
            ch
        };
        let ch = run_one();
        let stats = ch.sd_fault_stats();
        assert!(stats.replay_detected > 0, "freshness tree caught replays");
        assert_eq!(
            stats.replay_detected, stats.integrity_failures,
            "every failure this plan can produce is a replay"
        );
        assert!(stats.refetches > 0, "recovery re-fetched the stale buckets");
        assert_eq!(stats.relocation_detected, 0);
        assert_eq!(stats.rollback_rejected, 0);
        assert!(stats.freshness_ops > 0, "armed tree walks every bucket op");
        assert_eq!(stats.freshness_cycles, stats.freshness_ops * FRESHNESS_COST);
        assert!(ch.fault().is_none(), "sub-threshold rate never latches");
        assert!(ch.fault_counts().replays > 0);
        // Same seed ⇒ identical attack schedule and accounting.
        assert_eq!(run_one().sd_fault_stats(), stats);
    }

    #[test]
    fn relocated_buckets_are_detected_by_the_address_bound_tag() {
        let mut ch = SecureChannel::new(SecureChannelConfig {
            fault_plan: FaultPlan::with_rates(
                7,
                FaultRates::only(FaultKind::RelocateBucket, 30_000),
            ),
            ..cfg(0)
        });
        let out = run_closed_loop(&mut ch, 8, 120_000);
        assert_eq!(out.resp.len(), 8);
        let stats = ch.sd_fault_stats();
        assert!(stats.relocation_detected > 0, "spliced buckets were caught");
        assert_eq!(stats.replay_detected, 0);
        assert!(ch.fault().is_none());
        assert!(ch.fault_counts().relocations > 0);
    }

    #[test]
    fn rollback_burst_trips_quarantine_and_parity_covers() {
        // A sustained 100% rollback burst against sub 1's site.
        let plan = FaultPlan {
            seed: 77,
            ..FaultPlan::none()
        }
        .site_window(
            SD_SUB_SITE_BASE + 1,
            FaultWindow {
                start: MemCycle(0),
                end: MemCycle(1_000_000),
                rates: FaultRates::only(FaultKind::RollbackBurst, 1_000_000),
            },
        );
        let mut ch = SecureChannel::new(SecureChannelConfig {
            parity: true,
            fault_plan: plan,
            ..cfg(0)
        });
        let out = run_closed_loop(&mut ch, 8, 300_000);
        assert_eq!(out.resp.len(), 8, "run survives the rollback burst");
        let stats = ch.sd_fault_stats();
        assert!(stats.rollback_rejected > 0, "stale serves were rejected");
        assert_eq!(stats.quarantined_subs, vec![1], "attacked sub quarantined");
        assert!(stats.parity_rebuilds > 0, "survivors covered its buckets");
        assert!(ch.fault().is_none(), "parity degrades instead of latching");
    }

    #[test]
    fn adversary_run_snapshot_round_trips() {
        use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
        let mk = || {
            SecureChannel::new(SecureChannelConfig {
                fault_plan: FaultPlan::with_rates(
                    31,
                    FaultRates::only(FaultKind::ReplayStale, 30_000),
                ),
                ..cfg(0)
            })
        };
        let mut full = mk();
        let full_out = run_closed_loop(&mut full, 8, 120_000);

        let mut a = mk();
        let mut out = Out {
            ns: vec![],
            resp: vec![],
            sr: vec![],
            sw: vec![],
        };
        let mut sent = 1usize;
        a.send_secure(OramJob::Dummy);
        let split = 30_000u64;
        for c in 0..split {
            a.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if out.resp.len() == sent && sent < 8 {
                a.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = mk();
        b.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
        for c in split..120_000 {
            b.tick(
                MemCycle(c),
                &mut out.ns,
                &mut out.resp,
                &mut out.sr,
                &mut out.sw,
            );
            if out.resp.len() == sent && sent < 8 {
                b.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        assert_eq!(out.resp, full_out.resp, "resumed run matches uninterrupted");
        assert_eq!(b.sd_fault_stats(), full.sd_fault_stats());
        // The resumed state re-serializes bit-identically, so a second
        // save proves the freshness leaves survived the round trip.
        let mut w_full = SnapshotWriter::new();
        full.save_state(&mut w_full);
        let mut w_b = SnapshotWriter::new();
        b.save_state(&mut w_b);
        assert_eq!(w_full.into_bytes(), w_b.into_bytes());
    }
}
