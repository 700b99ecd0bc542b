//! The SD's verifier stage: everything the secure delegator adds around
//! the paper's Path ORAM datapath (path read, stash, write-back).

use super::{blame_held, SdFaultStats, SecureChannelConfig, SD_SUB_SITE_BASE};
use doram_dram::{Completion, MemOp, MemRequest, RequestClass, SubChannel};
use doram_obs::{BlameClass, EventKind, SharedRecorder, Subsystem};
use doram_oram::verified::RecoveryPolicy;
use doram_sim::fault::{FaultCounts, FaultInjector, FaultKind};
use doram_sim::health::{HealthMonitor, HealthPolicy, HealthState, HealthTransition};
use doram_sim::snapshot::SnapshotError;
use doram_sim::{AppId, IdMap, MemCycle, RequestId, RequestIdGen, SimError};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// Depth of the SD's freshness Merkle tree when armed: `2^14` leaves,
/// one per distinct bucket address, assigned on first touch. The
/// simulator builds no tree: it models one by its verdict and by
/// [`FRESHNESS_COST`]. Buckets first touched after the leaves run out
/// keep MAC-only cover, so a replay of them goes undetected (SECURITY.md,
/// "leaf exhaustion").
const FRESHNESS_DEPTH: u32 = 14;
/// Leaves of the freshness tree: the most buckets it can hold.
const FRESHNESS_LEAVES: usize = 1 << FRESHNESS_DEPTH;
/// Modeled memory cycles per tree level walked when verifying or
/// re-hashing a bucket's freshness leaf.
const FRESHNESS_HOP_CYCLES: u64 = 1;
/// Modeled cycles charged per freshness-tree operation: one
/// root-to-leaf walk over the on-chip node cache.
pub(super) const FRESHNESS_COST: u64 = FRESHNESS_DEPTH as u64 * FRESHNESS_HOP_CYCLES;

/// Re-fetch bookkeeping for one in-flight recovery read.
#[derive(Debug, Clone, Copy)]
struct RefetchTicket {
    /// The FSM-visible id of the original read.
    orig: RequestId,
    /// Cycle the first failed verification was detected.
    detect: MemCycle,
    /// Failed attempts so far (1 after the first detection).
    attempts: u32,
}

/// The two highest bucket addresses ever written, highest first. A
/// relocation adversary splices in the highest-addressed bucket other than
/// the one read, so these two answer every read.
#[derive(Debug, Clone, Copy, Default)]
struct RelocationSource([Option<u64>; 2]);

impl RelocationSource {
    /// Notes a bucket written for the first time.
    fn insert(&mut self, addr: u64) {
        let [top, second] = &mut self.0;
        if Some(addr) > *top {
            *second = top.replace(addr);
        } else if Some(addr) > *second {
            *second = Some(addr);
        }
    }

    /// The highest written address other than `addr`, if any.
    fn other_than(&self, addr: u64) -> Option<u64> {
        let [top, second] = self.0;
        if top == Some(addr) {
            second
        } else {
            top
        }
    }
}

/// The SD's verifier. It models the two §III-B integrity checks by their
/// verdicts: the per-bucket CMAC tag, and the freshness Merkle tree whose
/// root stays on chip (armed only under an adversarial fault plan). Both
/// only ever hold a bucket's current image, its address and write version
/// ([`SdVerifier::payload_bytes`]), so a checked read is intact iff its
/// wire image equals that image; each tree walk costs [`FRESHNESS_COST`]
/// cycles. The verifier also owns the injectors faulting reads in
/// transit, the per-sub health breakers and every recovery queue. Each
/// ORAM completion passes through [`SdVerifier::verify`]; a failure
/// climbs re-fetch → quarantine → parity rebuild, or latches fail-stop.
#[derive(Debug)]
pub(super) struct SdVerifier {
    /// Write counter per bucket address — the authenticated payload. A
    /// timing simulation carries no data, so the version stands in for
    /// the bucket contents: every write bumps it, every checked read is
    /// compared against it. Empty unless reads are `checked`.
    versions: HashMap<u64, u64>,
    /// Where a relocated read's splice comes from: the top two addresses
    /// of `versions`, kept as each is first written and rebuilt after a
    /// restore.
    relocation_source: RelocationSource,
    /// Previous version per bucket: the stale-but-once-authentic image a
    /// replay or rollback adversary re-supplies. Tracked only while the
    /// freshness tree is armed.
    prev_versions: HashMap<u64, u64>,
    /// Freshness tree armed: the fault plan carries adversarial rates
    /// ([`doram_sim::fault::FaultPlan::has_adversary`]). The CMAC tag
    /// lives in the same untrusted DRAM as its bucket, so a replayed
    /// (tag, payload) pair passes the MAC and only the tree catches it.
    /// Unarmed runs assign no leaves and charge no walks.
    armed: bool,
    /// Reads are checked: the plan can fire somewhere, so the SD injector
    /// can (its [`FaultInjector::is_disabled`] answers for the whole
    /// plan), and so can any adversary or per-sub overlay. Unchecked runs
    /// deliver every read as intact and never quarantine, so they keep
    /// neither `versions` nor `owners`.
    checked: bool,
    /// Buckets holding a freshness leaf, at most [`FRESHNESS_LEAVES`],
    /// assigned on first touch. Which leaf a bucket holds never decides a
    /// verdict, so only the set is kept.
    leaves: HashSet<u64>,
    injector: FaultInjector,
    /// Per-sub overlay injectors rolling *only* site-scoped bursts at
    /// site `SD_SUB_SITE_BASE + i`. A plan without site windows leaves
    /// them disabled, so legacy plans consume no extra randomness.
    sub_injectors: Vec<FaultInjector>,
    policy: RecoveryPolicy,
    /// Per-sub circuit breakers; with probation off the walk is the
    /// legacy consecutive-failure latch.
    health: Vec<HealthMonitor>,
    /// Parity striping on: quarantine degrades instead of latching.
    parity: bool,
    /// Background scrub period in memory cycles (0 disables).
    scrub_every: u64,
    integrity_failures: u64,
    refetches: u64,
    recovery_cycles: u64,
    parity_rebuilds: u64,
    scrub_repairs: u64,
    /// Stale replays caught by the freshness tree.
    replay_detected: u64,
    /// Relocated (spliced) buckets caught by the address-bound tag.
    relocation_detected: u64,
    /// Rollback-burst serves caught by the freshness tree.
    rollback_rejected: u64,
    /// Freshness-tree walks performed (leaf verifications + re-hashes).
    freshness_ops: u64,
    /// Modeled cycles charged for those walks.
    freshness_cycles: u64,
    /// First fail-stop condition (quarantine or exhausted re-fetches).
    fault: Option<SimError>,
    /// Outstanding recovery reads: local id → ticket.
    inflight: IdMap<RequestId, RefetchTicket>,
    /// Parity-rebuild share tracking: share id → group key.
    rebuild_shares: HashMap<u64, u64>,
    /// Group key → (FSM id to complete, shares outstanding).
    rebuild_groups: HashMap<u64, (RequestId, u32)>,
    next_group: u64,
    /// Bucket address → sub-channel that last served it (parity on
    /// checked runs only; the scrubber's work-discovery map).
    owners: BTreeMap<u64, usize>,
    /// Buckets marked for scrub repair when their home sub quarantined,
    /// repaired in address order.
    corrupt: BTreeSet<u64>,
    /// Health transitions awaiting trace emission (drained every tick).
    transitions: Vec<(usize, HealthTransition)>,
    /// Most recent tick cycle, for live unhealthy-cycle accounting.
    now_hint: u64,
    /// Deliveries held while the SD walks the freshness tree: the block
    /// becomes visible to the FSM once the modeled verification finishes
    /// at the carried cycle. Empty whenever the tree is unarmed.
    verify_pending: VecDeque<(MemCycle, RequestId)>,
    /// Re-fetch reads waiting for sub-channel capacity: (sub, request).
    pending_refetch: VecDeque<(usize, MemRequest)>,
    /// Parity-rebuild share reads waiting for sub-channel capacity.
    pending_rebuild: VecDeque<(usize, MemRequest)>,
    /// Trace recorder; `None` (the default) keeps the verifier silent.
    obs: Option<SharedRecorder>,
    /// Blame row for blocks held by the freshness-tree walk (`sd.verify`).
    blame_res: Option<usize>,
}

impl SdVerifier {
    pub(super) fn new(cfg: &SecureChannelConfig) -> SdVerifier {
        let n_subs = cfg.sub_channels.len();
        let plan = &cfg.fault_plan;
        let sub_policy = HealthPolicy {
            degrade_threshold: 1,
            quarantine_threshold: cfg.recovery.quarantine_threshold,
            probation_window: cfg.probation_window,
            probation_successes: cfg.probation_successes,
        };
        SdVerifier {
            versions: HashMap::new(),
            relocation_source: RelocationSource::default(),
            prev_versions: HashMap::new(),
            armed: plan.has_adversary(),
            checked: !plan.is_zero(),
            leaves: HashSet::new(),
            // Site 0x5D00: the SD's DRAM bus, distinct from link sites.
            injector: plan.injector(0x5D00),
            sub_injectors: (0..n_subs)
                .map(|i| FaultInjector::overlay(plan, SD_SUB_SITE_BASE + i as u64))
                .collect(),
            policy: cfg.recovery,
            health: vec![HealthMonitor::new(sub_policy); n_subs],
            parity: cfg.parity,
            scrub_every: cfg.scrub_every,
            integrity_failures: 0,
            refetches: 0,
            recovery_cycles: 0,
            parity_rebuilds: 0,
            scrub_repairs: 0,
            replay_detected: 0,
            relocation_detected: 0,
            rollback_rejected: 0,
            freshness_ops: 0,
            freshness_cycles: 0,
            fault: None,
            inflight: IdMap::default(),
            rebuild_shares: HashMap::new(),
            rebuild_groups: HashMap::new(),
            next_group: 0,
            owners: BTreeMap::new(),
            corrupt: BTreeSet::new(),
            transitions: Vec::new(),
            now_hint: 0,
            verify_pending: VecDeque::new(),
            pending_refetch: VecDeque::new(),
            pending_rebuild: VecDeque::new(),
            obs: None,
            blame_res: None,
        }
    }

    /// Attaches (or detaches) the recorder, registering the `sd.verify`
    /// blame row when it traces the SD.
    pub(super) fn set_obs(&mut self, obs: Option<SharedRecorder>) {
        self.blame_res = obs
            .as_ref()
            .filter(|rec| rec.borrow().wants(Subsystem::Sd))
            .map(|rec| rec.borrow_mut().blame.resource("sd.verify"));
        self.obs = obs;
    }

    // --- The four per-tick calls, in the order the datapath makes them.

    /// Hands `deliver` every block whose freshness walk finished by
    /// `now`. Holds are queued with non-decreasing ready cycles (the walk
    /// cost is a constant), so draining the front is enough.
    pub(super) fn ready(&mut self, now: MemCycle, mut deliver: impl FnMut(RequestId)) {
        self.now_hint = now.0;
        while let Some(&(at, id)) = self.verify_pending.front() {
            if at > now {
                break;
            }
            self.verify_pending.pop_front();
            if let Some(id) = self.resolve(id) {
                deliver(id);
            }
        }
        // Blocks still held are stalled on verification itself.
        let held = self.verify_pending.len() as u64;
        blame_held(&self.obs, self.blame_res, BlameClass::IntegrityVerify, held);
    }

    /// Moves queued recovery reads onto their sub-channels, as capacity
    /// allows. Waits they inflict on other traffic are blamed on
    /// verification (re-fetches) or on scrub/parity (rebuild shares).
    pub(super) fn issue(&mut self, subs: &mut [SubChannel]) {
        for (queue, class) in [
            (&mut self.pending_refetch, BlameClass::IntegrityVerify),
            (&mut self.pending_rebuild, BlameClass::ScrubParity),
        ] {
            while let Some(&(si, req)) = queue.front() {
                if subs[si].enqueue_tagged(req, class as u8).is_err() {
                    break;
                }
                queue.pop_front();
            }
        }
    }

    /// Verifies one ORAM completion from sub-channel `sub`. Returns the
    /// FSM id to complete now, or `None` while the block is held for its
    /// freshness walk, re-fetched, rebuilt from parity, or is a rebuild
    /// share whose group still waits.
    pub(super) fn verify(
        &mut self,
        sub: usize,
        c: &Completion,
        now: MemCycle,
        ids: &mut RequestIdGen,
    ) -> Option<RequestId> {
        let ticket = self.inflight.remove(&c.request.id);
        let orig = ticket.map_or(c.request.id, |t| t.orig);
        if self.parity && self.checked {
            self.owners.insert(c.request.addr, sub);
        }
        let (intact, cost) = self.authenticate(sub, &c.request, now, ticket);
        if !intact {
            self.instant(Subsystem::Fault, EventKind::FaultDetected, now, sub as u64);
        }
        if let (true, Some(obs)) = (cost > 0, &self.obs) {
            obs.borrow_mut().integrity_verify(now.0, cost);
        }
        if !intact && self.recover(sub, orig, ticket, &c.request, now, ids) {
            return None;
        }
        if cost > 0 {
            // Hold the block until the modeled tree walk finishes;
            // `ready` hands it over at that cycle.
            self.verify_pending
                .push_back((MemCycle(now.0 + cost), orig));
            return None;
        }
        self.resolve(orig)
    }

    /// Runs the background scrubber when its period is due, then traces
    /// this tick's health transitions.
    pub(super) fn end_tick(&mut self, now: MemCycle) {
        // During idle bus cycles the SD walks the tree re-verifying MACs;
        // modelled as one parity repair and one probe round per period,
        // charged zero bus time.
        if self.scrub_every > 0 && now.0 > 0 && now.0.is_multiple_of(self.scrub_every) {
            if let Some(sub) = self.scrub(now) {
                self.instant(Subsystem::Fault, EventKind::ScrubRepair, now, sub as u64);
            }
        }
        for (sub, t) in std::mem::take(&mut self.transitions) {
            let value = t.event_value(sub as u64);
            self.instant(Subsystem::Sd, EventKind::HealthTransition, now, value);
        }
    }

    // --- The sink's view for degraded routing.

    pub(super) fn is_serving(&self, sub: usize) -> bool {
        self.health[sub].is_serving()
    }

    /// Whether traffic homed on `sub` must be covered by the survivors:
    /// parity is on, `sub` is out of service and some sub still serves.
    /// With no serving sub left (total loss, fault latched) requests go
    /// to their home sub so the run drains.
    pub(super) fn reroutes(&self, sub: usize) -> bool {
        self.parity && !self.is_serving(sub) && self.health.iter().any(|h| h.is_serving())
    }

    /// Starts a parity rebuild of `addr`: one share read per serving
    /// sub-channel (minus `exclude`), queued with back-pressure. The FSM
    /// id `orig` completes when the last share lands. Returns `false`,
    /// changing nothing, when no sub-channel can supply a share.
    pub(super) fn start_rebuild(
        &mut self,
        orig: RequestId,
        addr: u64,
        app: AppId,
        now: MemCycle,
        ids: &mut RequestIdGen,
        exclude: Option<usize>,
    ) -> bool {
        let serving: Vec<usize> = (0..self.health.len())
            .filter(|&i| self.health[i].is_serving() && Some(i) != exclude)
            .collect();
        if serving.is_empty() {
            return false;
        }
        let gid = self.next_group;
        self.next_group += 1;
        self.rebuild_groups
            .insert(gid, (orig, serving.len() as u32));
        self.parity_rebuilds += 1;
        for s in serving {
            let id = ids.next_id();
            self.rebuild_shares.insert(id.0, gid);
            let share = MemRequest {
                id,
                app,
                op: MemOp::Read,
                addr,
                class: RequestClass::Oram,
                arrival: now,
            };
            self.pending_rebuild.push_back((s, share));
        }
        true
    }

    // --- Reporting.

    pub(super) fn latch(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    pub(super) fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Faults injected into the SD's DRAM reads, per-sub bursts included.
    pub(super) fn fault_counts(&self) -> FaultCounts {
        let mut total = self.injector.counts();
        for inj in &self.sub_injectors {
            total.absorb(&inj.counts());
        }
        total
    }

    /// Whether parity is covering for an out-of-service sub-channel.
    pub(super) fn degraded(&self) -> bool {
        self.parity && self.health.iter().any(|h| !h.is_serving())
    }

    pub(super) fn debug_state(&self) -> String {
        let health: Vec<&str> = self.health.iter().map(|h| h.state().name()).collect();
        format!(
            "verify={} refetch={} rebuild={} health=[{}]",
            self.verify_pending.len(),
            self.pending_refetch.len(),
            self.pending_rebuild.len(),
            health.join(",")
        )
    }

    pub(super) fn stats(&self) -> SdFaultStats {
        let now = MemCycle(self.now_hint);
        let health = &self.health;
        SdFaultStats {
            integrity_failures: self.integrity_failures,
            refetches: self.refetches,
            recovery_cycles: self.recovery_cycles,
            quarantined_subs: (0..health.len())
                .filter(|&i| health[i].is_quarantined())
                .collect(),
            parity_rebuilds: self.parity_rebuilds,
            scrub_repairs: self.scrub_repairs,
            replay_detected: self.replay_detected,
            relocation_detected: self.relocation_detected,
            rollback_rejected: self.rollback_rejected,
            freshness_ops: self.freshness_ops,
            freshness_cycles: self.freshness_cycles,
            health: health.iter().map(|h| h.state()).collect(),
            quarantine_entries: health.iter().map(|h| h.quarantine_entries()).collect(),
            unhealthy_cycles: health.iter().map(|h| h.unhealthy_cycles(now)).collect(),
        }
    }

    // --- Verification and recovery.

    /// Checks one completion's bucket: a write bumps its version (the SD
    /// re-tags it), a read compares the (possibly faulted) wire image with
    /// the bucket's current image. Returns whether the bucket is intact,
    /// plus the modeled freshness-walk cycles to charge.
    fn authenticate(
        &mut self,
        sub: usize,
        req: &MemRequest,
        now: MemCycle,
        ticket: Option<RefetchTicket>,
    ) -> (bool, u64) {
        let addr = req.addr;
        if req.op == MemOp::Write {
            if self.checked {
                let v = match self.versions.entry(addr) {
                    Entry::Occupied(e) => {
                        let v = e.into_mut();
                        *v += 1;
                        *v
                    }
                    Entry::Vacant(e) => {
                        self.relocation_source.insert(addr);
                        *e.insert(1)
                    }
                };
                if self.armed {
                    self.prev_versions.insert(addr, v - 1);
                }
            }
            // A leafed bucket's write re-hashes its tree path.
            let leafed = self.leaf(addr);
            return (true, if leafed { self.charge_walk() } else { 0 });
        }
        if !self.checked || !self.is_serving(sub) {
            return (true, 0);
        }
        let overlay_on = !self.sub_injectors[sub].is_disabled();
        let current = self.versions.get(&addr).copied().unwrap_or(0);
        let image = Self::payload_bytes(addr, current);
        let leafed = self.leaf(addr);
        let cost = if leafed { self.charge_walk() } else { 0 };
        let mut wire = image;
        if self.injector.roll(FaultKind::BitFlip, now) {
            self.injector.flip_bit(&mut wire);
        }
        let mut forged = self.injector.roll(FaultKind::ForgeMac, now);
        let mut replayed = self.injector.roll(FaultKind::ReplayStale, now);
        let mut relocated = self.injector.roll(FaultKind::RelocateBucket, now);
        let mut rewound = self.injector.roll(FaultKind::RollbackBurst, now);
        if overlay_on {
            // Site-scoped burst targeting this sub-channel alone.
            let inj = &mut self.sub_injectors[sub];
            if inj.roll(FaultKind::BitFlip, now) {
                inj.flip_bit(&mut wire);
            }
            forged |= inj.roll(FaultKind::ForgeMac, now);
            replayed |= inj.roll(FaultKind::ReplayStale, now);
            relocated |= inj.roll(FaultKind::RelocateBucket, now);
            rewound |= inj.roll(FaultKind::RollbackBurst, now);
        }
        // Adversarial splices replace the wire image wholesale (relocation
        // wins if several fire: a spliced bucket is what arrives).
        if relocated {
            // A once-authentic copy of *another* bucket, chosen
            // deterministically so same-seed runs see the same splice.
            match self.relocation_source.other_than(addr) {
                Some(oa) => wire = Self::payload_bytes(oa, self.versions[&oa]),
                // No other bucket exists yet: nothing to splice from.
                None => relocated = false,
            }
        } else if replayed || rewound {
            let stale = self.prev_versions.get(&addr).copied().unwrap_or(current);
            if stale != current {
                wire = Self::payload_bytes(addr, stale);
            } else {
                // Replaying the current image serves nothing stale.
                replayed = false;
                rewound = false;
            }
        }
        // The tag and the leaf both hold the current image, so each check
        // reduces to comparing the wire image with it. The MAC fails a
        // forged tag or a relocated bucket (the tag is address-bound) but
        // passes a replayed or rolled-back (payload, tag) pair, whose tag
        // shares the untrusted DRAM; the on-chip root fails any other
        // image of a leafed bucket.
        let current_image = wire == image;
        let mac_ok = !(forged || relocated) && (replayed || rewound || current_image);
        let fresh_ok = !leafed || current_image;
        if mac_ok && fresh_ok {
            let t = self.health[sub].on_success(now);
            self.note(sub, t);
            if let Some(t) = ticket {
                self.recovery_cycles += now.0 - t.detect.0;
            }
            return (true, cost);
        }
        // Attribute the attack class.
        if relocated {
            self.relocation_detected += 1;
        } else if rewound {
            self.rollback_rejected += 1;
        } else if replayed {
            self.replay_detected += 1;
        }
        self.integrity_failures += 1;
        (false, cost)
    }

    /// The recovery ladder after a failed verification of `req` on `sub`:
    /// re-fetch within budget; once the sub quarantines or the budget is
    /// spent, rebuild from parity, else latch the fail-stop fault.
    /// Returns whether a recovery read was queued; on `false` the block
    /// is delivered anyway so the run drains.
    fn recover(
        &mut self,
        sub: usize,
        orig: RequestId,
        ticket: Option<RefetchTicket>,
        req: &MemRequest,
        now: MemCycle,
        ids: &mut RequestIdGen,
    ) -> bool {
        // A failed rebuild share is not itself rebuilt.
        let cover = self.parity && !self.rebuild_shares.contains_key(&orig.0);
        let (detect, attempts) = ticket.map_or((now, 1), |t| (t.detect, t.attempts + 1));
        let transition = self.health[sub].on_failure(now);
        let tripped = transition.is_some_and(|t| t.to == HealthState::Quarantined);
        self.note(sub, transition);
        if tripped || attempts > self.policy.refetch_limit {
            if tripped {
                self.mark_corrupt(sub);
            }
            // This copy is lost: reconstruct it from the other
            // sub-channels' shares and keep running degraded.
            let exclude = (!tripped).then_some(sub);
            if cover && self.start_rebuild(orig, req.addr, req.app, now, ids, exclude) {
                self.instant(Subsystem::Fault, EventKind::Recovery, now, sub as u64);
                return true;
            }
            let fault = if tripped {
                SimError::fault(
                    format!("sd sub-channel {sub}"),
                    format!(
                        "quarantined after {} consecutive integrity failures",
                        self.health[sub].consecutive_failures()
                    ),
                )
            } else {
                SimError::integrity(
                    req.addr,
                    format!("re-fetch budget ({}) exhausted", self.policy.refetch_limit),
                )
            };
            self.latch(fault);
            return false;
        }
        self.refetches += 1;
        let id = ids.next_id();
        self.inflight.insert(
            id,
            RefetchTicket {
                orig,
                detect,
                attempts,
            },
        );
        self.instant(Subsystem::Fault, EventKind::Recovery, now, sub as u64);
        let refetch = MemRequest {
            id,
            op: MemOp::Read,
            arrival: now,
            ..*req
        };
        self.pending_refetch.push_back((sub, refetch));
        true
    }

    /// Maps a delivered id back to the FSM: ordinary ids pass through;
    /// parity-rebuild shares count down their group, which completes its
    /// original read when the last share lands.
    fn resolve(&mut self, id: RequestId) -> Option<RequestId> {
        let Some(gid) = self.rebuild_shares.remove(&id.0) else {
            return Some(id);
        };
        let group = self
            .rebuild_groups
            .get_mut(&gid)
            .expect("rebuild share without group");
        group.1 -= 1;
        if group.1 > 0 {
            return None;
        }
        self.rebuild_groups.remove(&gid).map(|(orig, _)| orig)
    }

    /// A sub-channel just entered quarantine: mark every bucket it served
    /// for scrub repair (parity only — without parity there is nothing to
    /// rebuild from).
    fn mark_corrupt(&mut self, sub: usize) {
        if !self.parity {
            return;
        }
        for (&addr, &owner) in self.owners.iter() {
            if owner == sub {
                self.corrupt.insert(addr);
            }
        }
    }

    /// One background-scrub step: repair one marked bucket (re-tag it
    /// from the parity reconstruction) and probe quarantined / probation
    /// sub-channels. Returns the repaired bucket's owning sub, if any.
    fn scrub(&mut self, now: MemCycle) -> Option<usize> {
        let repaired = if let Some(addr) = self.corrupt.pop_first() {
            // The repair re-tags the bucket at its current version, which
            // gives it a freshness leaf on first touch; no walk is charged.
            self.leaf(addr);
            self.scrub_repairs += 1;
            self.owners.get(&addr).copied()
        } else {
            None
        };
        for i in 0..self.health.len() {
            let t = self.health[i].tick(now);
            self.note(i, t);
            if self.health[i].state() == HealthState::Probation {
                // Probe read against the sub's own burst schedule: while
                // the injected burst is still active the probe fails and
                // re-trips quarantine; once it passes, clean probes
                // accumulate toward promotion.
                let inj = &mut self.sub_injectors[i];
                let flip = inj.roll(FaultKind::BitFlip, now);
                let forge = inj.roll(FaultKind::ForgeMac, now);
                let replay = inj.roll(FaultKind::ReplayStale, now);
                let reloc = inj.roll(FaultKind::RelocateBucket, now);
                let rewind = inj.roll(FaultKind::RollbackBurst, now);
                let t = if flip || forge || replay || reloc || rewind {
                    self.health[i].on_failure(now)
                } else {
                    self.health[i].on_probe_success(now)
                };
                self.note(i, t);
            }
        }
        repaired
    }

    /// The authenticated bucket image: address ‖ version, both LE. The
    /// address half makes two buckets at the same version distinct, so
    /// a relocated copy never aliases the expected image.
    fn payload_bytes(addr: u64, version: u64) -> [u8; 16] {
        let mut p = [0u8; 16];
        p[..8].copy_from_slice(&addr.to_le_bytes());
        p[8..].copy_from_slice(&version.to_le_bytes());
        p
    }

    /// Whether `addr` holds a freshness leaf, assigning one on first touch
    /// while any remain. Always `false` when the tree is unarmed; a bucket
    /// first touched after the leaves run out keeps MAC-only cover.
    fn leaf(&mut self, addr: u64) -> bool {
        self.armed
            && (self.leaves.contains(&addr)
                || (self.leaves.len() < FRESHNESS_LEAVES && self.leaves.insert(addr)))
    }

    /// Charges one modeled root-to-leaf walk.
    fn charge_walk(&mut self) -> u64 {
        self.freshness_ops += 1;
        self.freshness_cycles += FRESHNESS_COST;
        FRESHNESS_COST
    }

    fn note(&mut self, sub: usize, t: Option<HealthTransition>) {
        if let Some(t) = t {
            self.transitions.push((sub, t));
        }
    }

    fn instant(&self, sys: Subsystem, kind: EventKind, now: MemCycle, value: u64) {
        if let Some(obs) = &self.obs {
            obs.borrow_mut().instant(sys, kind, now.0, value);
        }
    }

    /// Rebuilds the relocation source from the restored versions, then
    /// checks restored state against the config: only an armed tree has
    /// leaves, never more than [`FRESHNESS_LEAVES`], and only a checked
    /// run keeps versions and owners.
    fn after_restore(&mut self) -> Result<(), SnapshotError> {
        self.relocation_source = RelocationSource::default();
        for &addr in self.versions.keys() {
            self.relocation_source.insert(addr);
        }
        if !self.armed && !self.leaves.is_empty() {
            return Err(SnapshotError::new(
                "checkpoint carries freshness leaves but the config arms no tree",
            ));
        }
        if self.leaves.len() > FRESHNESS_LEAVES {
            return Err(SnapshotError::new(format!(
                "checkpoint carries {} freshness leaves but the tree has {FRESHNESS_LEAVES}",
                self.leaves.len()
            )));
        }
        if !self.checked && (!self.versions.is_empty() || !self.owners.is_empty()) {
            return Err(SnapshotError::new(
                "checkpoint carries bucket versions or owners but the config checks no read",
            ));
        }
        Ok(())
    }
}

doram_sim::impl_codec!(struct RefetchTicket { orig, detect, attempts });

// Health transitions drain within every tick, so none are pending between
// ticks. The three queues come last, after the rest of this state, as the
// golden checkpoint table pins.
doram_sim::impl_snapshot!(SdVerifier {
    versions,
    prev_versions,
    leaves,
    replay_detected,
    relocation_detected,
    rollback_rejected,
    freshness_ops,
    freshness_cycles,
    injector: state,
    sub_injectors: state,
    health: state,
    integrity_failures,
    refetches,
    recovery_cycles,
    parity_rebuilds,
    scrub_repairs,
    fault,
    inflight,
    rebuild_shares,
    rebuild_groups,
    next_group,
    owners,
    corrupt,
    now_hint,
    verify_pending,
    pending_refetch,
    pending_rebuild,
} skip {
    relocation_source,
    armed,
    checked,
    policy,
    parity,
    scrub_every,
    transitions,
    obs,
    blame_res,
} after_load SdVerifier::after_restore);

#[cfg(test)]
mod tests {
    use super::super::tests::cfg;
    use super::*;
    use doram_sim::fault::{FaultPlan, FaultRates, FaultWindow};
    use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
    use doram_sim::Xoshiro256;

    /// An armed verifier whose sub-channel 0 replays every bucket read
    /// over cycles [0, 1,000) and flips a bit in every read over
    /// [1,000, 2,000).
    fn armed() -> SdVerifier {
        let window = |start: u64, kind| FaultWindow {
            start: MemCycle(start),
            end: MemCycle(start + 1_000),
            rates: FaultRates::only(kind, 1_000_000),
        };
        let plan = FaultPlan {
            seed: 3,
            ..FaultPlan::none()
        }
        .site_window(SD_SUB_SITE_BASE, window(0, FaultKind::ReplayStale))
        .site_window(SD_SUB_SITE_BASE, window(1_000, FaultKind::BitFlip));
        assert!(plan.has_adversary());
        SdVerifier::new(&SecureChannelConfig {
            fault_plan: plan,
            ..cfg(0)
        })
    }

    /// Passes one bucket operation on sub-channel 0 through `verify`,
    /// returning the new request's id and the verdict.
    fn op(
        v: &mut SdVerifier,
        ids: &mut RequestIdGen,
        op: MemOp,
        addr: u64,
        now: u64,
    ) -> (RequestId, Option<RequestId>) {
        let id = ids.next_id();
        let request = MemRequest {
            id,
            app: AppId(0),
            op,
            addr,
            class: RequestClass::Oram,
            arrival: MemCycle(now),
        };
        let c = Completion {
            request,
            finished: MemCycle(now),
        };
        (id, v.verify(0, &c, MemCycle(now), ids))
    }

    /// A verifier with parity on, a 100-cycle scrub period and `plan`.
    fn with_parity(plan: FaultPlan) -> SdVerifier {
        SdVerifier::new(&SecureChannelConfig {
            fault_plan: plan,
            parity: true,
            scrub_every: 100,
            ..cfg(0)
        })
    }

    /// A plan that flips a bit in about one SD read per million.
    fn rare_flips() -> FaultPlan {
        FaultPlan::with_rates(3, FaultRates::only(FaultKind::BitFlip, 1))
    }

    /// Writes then reads buckets 0..8 on sub-channel 0, and runs one scrub
    /// period.
    fn write_read_scrub(v: &mut SdVerifier) {
        let mut ids = RequestIdGen::new();
        for addr in 0..8 {
            op(v, &mut ids, MemOp::Write, addr, 10);
            let (id, verdict) = op(v, &mut ids, MemOp::Read, addr, 20);
            assert_eq!(verdict, Some(id), "bucket {addr} is delivered");
        }
        v.end_tick(MemCycle(100));
    }

    #[test]
    fn only_checked_runs_keep_versions_and_owners() {
        let mut v = with_parity(FaultPlan::none());
        write_read_scrub(&mut v);
        assert!(v.versions.is_empty(), "no read is checked");
        assert!(v.owners.is_empty(), "no sub can quarantine");

        let mut v = with_parity(rare_flips());
        write_read_scrub(&mut v);
        assert_eq!((v.versions.len(), v.owners.len()), (8, 8));
    }

    /// SECURITY.md's leaf-exhaustion limitation: once every freshness
    /// leaf is taken, a newly touched bucket keeps MAC-only cover, so a
    /// replay of it goes through while a bit flip is still caught.
    #[test]
    fn exhausted_leaves_leave_overflow_buckets_mac_only() {
        let mut v = armed();
        let mut ids = RequestIdGen::new();
        let cap = 1u64 << FRESHNESS_DEPTH;
        for addr in 0..cap {
            op(&mut v, &mut ids, MemOp::Write, addr, 0);
        }
        let walks = v.stats().freshness_ops;
        assert_eq!(walks, cap, "every leafed write walks the tree");
        // One bucket past the cap, written once so a stale image exists.
        op(&mut v, &mut ids, MemOp::Write, cap, 0);
        assert_eq!(v.stats().freshness_ops, walks, "no leaf, no walk");

        let (id, verdict) = op(&mut v, &mut ids, MemOp::Read, cap, 500);
        assert_eq!(verdict, Some(id), "the replayed bucket is delivered");
        assert_eq!(v.fault_counts().replays, 1, "a stale image was served");
        let s = v.stats();
        assert_eq!((s.integrity_failures, s.replay_detected), (0, 0));
        assert_eq!(s.freshness_ops, walks, "the read charges no walk");

        let (_, verdict) = op(&mut v, &mut ids, MemOp::Read, cap, 1_500);
        assert_eq!(verdict, None, "the flipped bucket is re-fetched");
        assert_eq!(v.fault_counts().bit_flips, 1);
        let s = v.stats();
        assert_eq!((s.integrity_failures, s.refetches), (1, 1));
        assert_eq!(s.freshness_ops, walks, "the read charges no walk");
    }

    #[test]
    fn restore_rejects_leaves_on_an_unarmed_config() {
        let mut v = armed();
        op(&mut v, &mut RequestIdGen::new(), MemOp::Write, 7, 0);
        let mut w = SnapshotWriter::new();
        v.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut unarmed = SdVerifier::new(&cfg(0));
        let err = unarmed
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap_err();
        let want = "checkpoint carries freshness leaves but the config arms no tree";
        assert!(err.to_string().contains(want), "{err}");
    }

    #[test]
    fn restore_rejects_versions_or_owners_on_an_unchecked_config() {
        let mut v = with_parity(rare_flips());
        write_read_scrub(&mut v);
        let want = "checkpoint carries bucket versions or owners but the config checks no read";
        for clear_versions in [false, true] {
            if clear_versions {
                v.versions.clear();
            }
            let mut w = SnapshotWriter::new();
            v.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = with_parity(FaultPlan::none())
                .load_state(&mut SnapshotReader::new(&bytes))
                .unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn restore_rejects_more_leaves_than_the_tree_has() {
        let mut v = armed();
        v.leaves.extend(0..=FRESHNESS_LEAVES as u64);
        let mut w = SnapshotWriter::new();
        v.save_state(&mut w);
        let bytes = w.into_bytes();
        let err = armed()
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap_err();
        let want = "checkpoint carries 16385 freshness leaves but the tree has 16384";
        assert!(err.to_string().contains(want), "{err}");
    }

    /// The relocation source as it was chosen before it was kept: a scan
    /// of every written bucket for the highest address other than `addr`.
    fn scanned_source(v: &SdVerifier, addr: u64) -> Option<u64> {
        v.versions.keys().copied().filter(|&a| a != addr).max()
    }

    /// Over a seeded stream of bucket writes and relocated reads (reads of
    /// the highest and second-highest buckets, of other written buckets
    /// and of never-written ones), the kept source names the bucket the
    /// full scan would splice in at every read, before and after a
    /// checkpoint round trip.
    #[test]
    fn relocation_source_matches_the_full_scan() {
        let config = || SecureChannelConfig {
            fault_plan: FaultPlan::with_rates(
                4,
                FaultRates::only(FaultKind::RelocateBucket, 200_000),
            ),
            ..cfg(0)
        };
        let mut v = SdVerifier::new(&config());
        let mut ids = RequestIdGen::new();
        let mut rng = Xoshiro256::seed_from(17);
        let mut reads = 0;
        for step in 0..4_000u64 {
            if step == 2_000 {
                let mut w = SnapshotWriter::new();
                v.save_state(&mut w);
                let bytes = w.into_bytes();
                let mut restored = SdVerifier::new(&config());
                restored
                    .load_state(&mut SnapshotReader::new(&bytes))
                    .unwrap();
                assert_eq!(restored.versions, v.versions);
                v = restored;
            }
            let addr = rng.gen_below(1_024);
            if rng.gen_below(3) == 0 {
                op(&mut v, &mut ids, MemOp::Write, addr, step);
                continue;
            }
            let mut written: Vec<u64> = v.versions.keys().copied().collect();
            written.sort_unstable();
            let addr = match rng.gen_below(4) {
                0 => written.last().copied().unwrap_or(addr),
                1 => written.iter().rev().nth(1).copied().unwrap_or(addr),
                _ => addr,
            };
            assert_eq!(
                v.relocation_source.other_than(addr),
                scanned_source(&v, addr),
                "read of bucket {addr} at step {step}"
            );
            op(&mut v, &mut ids, MemOp::Read, addr, step);
            reads += 1;
        }
        assert!(reads > 2_000);
        let caught = v.stats().relocation_detected;
        assert!(caught > 300, "{caught} relocated reads were caught");
    }
}
