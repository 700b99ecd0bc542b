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

use crate::onchip_oram::ORAM_REGION_BASE;
use crate::onchip_oram::{BlockSink, FsmEvent, Issued, OramFsm, OramJob, OramStats};
use doram_bob::packet::PacketKind;
use doram_bob::{Link, LinkConfig, LinkStats};
use doram_crypto::{BucketIntegrity, MerkleTree, DIGEST_BYTES};
use doram_dram::{Completion, MemOp, MemRequest, RequestClass, SubChannel, SubChannelConfig};
use doram_obs::{EventKind, SharedRecorder, Subsystem};
use doram_oram::plan::{BlockRef, Placement, PlanConfig};
use doram_oram::verified::RecoveryPolicy;
use doram_sim::fault::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
use doram_sim::health::{HealthMonitor, HealthPolicy, HealthState, HealthTransition};
use doram_sim::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use doram_sim::{AppId, MemCycle, RequestId, RequestIdGen, SimError};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Fault-plan site base of the SD's per-sub-channel DRAM buses: sub `i`
/// rolls site-scoped bursts at site `SD_SUB_SITE_BASE + i` (the shared
/// bus keeps site 0x5D00).
pub const SD_SUB_SITE_BASE: u64 = 0x5D10;

/// Depth of the SD's freshness Merkle tree when armed: `2^14` leaves,
/// one per distinct bucket address, assigned on first touch. Runs that
/// touch more buckets than there are leaves gracefully fall back to
/// per-bucket CMAC protection for the overflow addresses (freshness is
/// then only best-effort there — noted in SECURITY.md).
const FRESHNESS_DEPTH: u32 = 14;
/// Modeled memory cycles per tree level walked when verifying or
/// re-hashing a bucket's freshness leaf.
const FRESHNESS_HOP_CYCLES: u64 = 1;
/// Modeled cycles charged per freshness-tree operation: one
/// root-to-leaf walk over the on-chip node cache.
const FRESHNESS_COST: u64 = FRESHNESS_DEPTH as u64 * FRESHNESS_HOP_CYCLES;

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
    /// System-wide fault plan. When non-zero it overrides the link's own
    /// `error_rate_ppm` machinery and additionally faults the SD's DRAM
    /// reads (bit flips, forged MACs) per its bit-flip/forge rates.
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

/// What to do with a verified (or unverifiable) ORAM read completion.
enum SdVerdict {
    /// Hand the block to the FSM under this id.
    Deliver(RequestId),
    /// Re-read the bucket: enqueue this request on the same sub-channel.
    Refetch(MemRequest),
    /// Reconstruct the bucket from parity shares on the serving
    /// sub-channels (graceful degradation instead of fail-stop).
    Rebuild {
        /// The FSM-visible id to complete once the last share lands.
        orig: RequestId,
        /// Bucket address to reconstruct.
        addr: u64,
        /// Sub-channel excluded from the share reads (the one whose copy
        /// just proved unrecoverable), beyond any non-serving ones.
        exclude: Option<usize>,
    },
}

/// How a delivered completion maps back to the FSM.
enum Delivered {
    /// Ordinary traffic: complete this id.
    Regular(RequestId),
    /// Last share of a parity rebuild: complete the rebuilt read.
    RebuildDone(RequestId),
    /// A share landed but its group still waits for more.
    RebuildPartial,
}

/// The SD's bucket-integrity engine: a per-bucket CMAC tag store over a
/// version-per-write payload model, an injector faulting reads in
/// transit, and the bounded re-fetch / quarantine recovery policy.
#[derive(Debug)]
struct SdIntegrity {
    integrity: BucketIntegrity,
    /// Write counter per bucket address — the authenticated payload. A
    /// timing simulation carries no data, so the version stands in for
    /// the bucket contents: every write re-tags, every read re-verifies.
    versions: HashMap<u64, u64>,
    /// Previous version per bucket: the stale-but-once-authentic image a
    /// replay or rollback adversary re-supplies. Tracked only while the
    /// freshness tree is armed.
    prev_versions: HashMap<u64, u64>,
    /// Freshness Merkle tree, armed iff the fault plan carries any
    /// adversarial rates ([`FaultPlan::has_adversary`]). The root models
    /// the SD's tamper-proof on-chip freshness register; since the
    /// per-bucket CMAC tag store lives in the same untrusted DRAM as the
    /// buckets, replayed (tag, payload) pairs verify under CMAC alone and
    /// only the tree catches them. `None` on legacy plans: no
    /// allocation, no modeled cost, no behavioural change.
    freshness: Option<MerkleTree>,
    /// Bucket address → freshness leaf, assigned on first touch.
    leaves: HashMap<u64, u64>,
    next_leaf: u64,
    injector: FaultInjector,
    /// Per-sub overlay injectors rolling *only* site-scoped bursts at
    /// site `SD_SUB_SITE_BASE + i`. A plan without site windows leaves
    /// them disabled, so legacy plans consume no extra randomness.
    sub_injectors: Vec<FaultInjector>,
    policy: RecoveryPolicy,
    /// Per-sub circuit breakers (replaces the old `consec`/`quarantined`
    /// pair; with probation off the walk is behaviour-identical).
    health: Vec<HealthMonitor>,
    /// Parity striping on: quarantine degrades instead of latching.
    parity: bool,
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
    inflight: HashMap<RequestId, RefetchTicket>,
    /// Parity-rebuild share tracking: share id → group key.
    rebuild_shares: HashMap<u64, u64>,
    /// Group key → (FSM id to complete, shares outstanding).
    rebuild_groups: HashMap<u64, (RequestId, u32)>,
    next_group: u64,
    /// Bucket address → sub-channel that last served it (parity only;
    /// the scrubber's work-discovery map).
    owners: BTreeMap<u64, usize>,
    /// Buckets marked for scrub repair when their home sub quarantined,
    /// repaired in address order.
    corrupt: BTreeSet<u64>,
    /// Health transitions awaiting trace emission (drained every tick).
    transitions: Vec<(usize, HealthTransition)>,
    /// Most recent tick cycle, for live unhealthy-cycle accounting.
    now_hint: u64,
}

impl SdIntegrity {
    fn new(cfg: &SecureChannelConfig, n_subs: usize) -> SdIntegrity {
        let seed = cfg.seed;
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..].copy_from_slice(&(seed ^ 0x5D_1234_5678).to_le_bytes());
        let plan = &cfg.fault_plan;
        let sub_policy = HealthPolicy {
            degrade_threshold: 1,
            quarantine_threshold: cfg.recovery.quarantine_threshold,
            probation_window: cfg.probation_window,
            probation_successes: cfg.probation_successes,
        };
        SdIntegrity {
            integrity: BucketIntegrity::new(key),
            versions: HashMap::new(),
            prev_versions: HashMap::new(),
            freshness: plan
                .has_adversary()
                .then(|| MerkleTree::new(FRESHNESS_DEPTH, key)),
            leaves: HashMap::new(),
            next_leaf: 0,
            // Site 0x5D00: the SD's DRAM bus, distinct from link sites.
            injector: plan.injector(0x5D00),
            sub_injectors: (0..n_subs)
                .map(|i| {
                    let site = SD_SUB_SITE_BASE + i as u64;
                    plan.site_plan(site).injector(site)
                })
                .collect(),
            policy: cfg.recovery,
            health: vec![HealthMonitor::new(sub_policy); n_subs],
            parity: cfg.parity,
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
            inflight: HashMap::new(),
            rebuild_shares: HashMap::new(),
            rebuild_groups: HashMap::new(),
            next_group: 0,
            owners: BTreeMap::new(),
            corrupt: BTreeSet::new(),
            transitions: Vec::new(),
            now_hint: 0,
        }
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

    /// The freshness leaf for `addr`, assigning (and adopting the current
    /// image into) one on first touch. `None` when the tree is unarmed or
    /// its leaves are exhausted (the bucket then keeps CMAC-only cover).
    fn leaf_for(&mut self, addr: u64, current: &[u8; 16]) -> Option<u64> {
        self.freshness.as_ref()?;
        if let Some(&l) = self.leaves.get(&addr) {
            return Some(l);
        }
        let tree = self.freshness.as_mut().expect("checked above");
        if self.next_leaf >= tree.num_leaves() {
            return None;
        }
        let l = self.next_leaf;
        self.next_leaf += 1;
        self.leaves.insert(addr, l);
        // First sight: adopt, mirroring BucketIntegrity::verify_or_adopt.
        tree.update(l, current);
        Some(l)
    }

    /// Charges one modeled root-to-leaf walk.
    fn charge_walk(&mut self) -> u64 {
        self.freshness_ops += 1;
        self.freshness_cycles += FRESHNESS_COST;
        FRESHNESS_COST
    }

    fn latch(&mut self, fault: SimError) {
        if self.fault.is_none() {
            self.fault = Some(fault);
        }
    }

    fn is_serving(&self, sub: usize) -> bool {
        self.health[sub].is_serving()
    }

    fn any_serving(&self) -> bool {
        self.health.iter().any(|h| h.is_serving())
    }

    /// Whether a parity rebuild excluding `exclude` has shares to read.
    fn can_rebuild(&self, exclude: Option<usize>) -> bool {
        self.parity
            && self
                .health
                .iter()
                .enumerate()
                .any(|(i, h)| h.is_serving() && Some(i) != exclude)
    }

    fn note(&mut self, sub: usize, t: Option<HealthTransition>) {
        if let Some(t) = t {
            self.transitions.push((sub, t));
        }
    }

    /// Starts a parity rebuild of `addr`: one share read per serving
    /// sub-channel (minus `exclude`), queued with back-pressure. The FSM
    /// id `orig` completes when the last share lands.
    #[allow(clippy::too_many_arguments)] // the request tuple + channel plumbing
    fn start_rebuild(
        &mut self,
        orig: RequestId,
        addr: u64,
        app: AppId,
        now: MemCycle,
        ids: &mut RequestIdGen,
        queue: &mut VecDeque<(usize, MemRequest)>,
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
        self.rebuild_groups.insert(gid, (orig, serving.len() as u32));
        self.parity_rebuilds += 1;
        for s in serving {
            let id = ids.next_id();
            self.rebuild_shares.insert(id.0, gid);
            queue.push_back((
                s,
                MemRequest {
                    id,
                    app,
                    op: MemOp::Read,
                    addr,
                    class: RequestClass::Oram,
                    arrival: now,
                },
            ));
        }
        true
    }

    /// Maps a delivered completion id back to the FSM: ordinary ids pass
    /// through; parity-rebuild shares count down their group.
    fn resolve_delivery(&mut self, id: RequestId) -> Delivered {
        let Some(gid) = self.rebuild_shares.remove(&id.0) else {
            return Delivered::Regular(id);
        };
        let group = self
            .rebuild_groups
            .get_mut(&gid)
            .expect("rebuild share without group");
        group.1 -= 1;
        if group.1 == 0 {
            let (orig, _) = self.rebuild_groups.remove(&gid).expect("checked");
            Delivered::RebuildDone(orig)
        } else {
            Delivered::RebuildPartial
        }
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
        let repaired = if let Some(&addr) = self.corrupt.iter().next() {
            self.corrupt.remove(&addr);
            let payload =
                Self::payload_bytes(addr, self.versions.get(&addr).copied().unwrap_or(0));
            self.integrity.record(addr, &payload);
            if let Some(leaf) = self.leaf_for(addr, &payload) {
                let tree = self.freshness.as_mut().expect("leaf implies tree");
                tree.update(leaf, &payload);
            }
            self.scrub_repairs += 1;
            self.owners.get(&addr).copied()
        } else {
            None
        };
        for i in 0..self.health.len() {
            if let Some(t) = self.health[i].tick(now) {
                self.transitions.push((i, t));
            }
            if self.health[i].state() == HealthState::Probation {
                // Probe read against the sub's own burst schedule: while
                // the injected burst is still active the probe fails and
                // re-trips quarantine; once it passes, clean probes
                // accumulate toward promotion.
                let flip = self.sub_injectors[i].roll(FaultKind::BitFlip, now);
                let forge = self.sub_injectors[i].roll(FaultKind::ForgeMac, now);
                let replay = self.sub_injectors[i].roll(FaultKind::ReplayStale, now);
                let reloc = self.sub_injectors[i].roll(FaultKind::RelocateBucket, now);
                let rewind = self.sub_injectors[i].roll(FaultKind::RollbackBurst, now);
                let t = if flip || forge || replay || reloc || rewind {
                    self.health[i].on_failure(now)
                } else {
                    self.health[i].on_probe_success(now)
                };
                if let Some(t) = t {
                    self.transitions.push((i, t));
                }
            }
        }
        repaired
    }

    /// Processes one ORAM-class completion from sub-channel `sub`.
    /// Returns the verdict plus the modeled freshness-verification cycles
    /// to charge before the delivery becomes visible to the FSM.
    fn on_oram_completion(
        &mut self,
        sub: usize,
        c: &Completion,
        now: MemCycle,
        ids: &mut RequestIdGen,
    ) -> (SdVerdict, u64) {
        let ticket = self.inflight.remove(&c.request.id);
        let orig = ticket.map_or(c.request.id, |t| t.orig);
        if self.parity {
            self.owners.insert(c.request.addr, sub);
        }
        let armed = self.freshness.is_some();
        if c.request.op == MemOp::Write {
            // Every path write bumps the bucket version and re-tags it.
            let addr = c.request.addr;
            let v = self.versions.entry(addr).or_insert(0);
            let old = *v;
            *v += 1;
            let version = *v;
            let payload = Self::payload_bytes(addr, version);
            self.integrity.record(addr, &payload);
            let mut cost = 0;
            if armed {
                self.prev_versions.insert(addr, old);
                if let Some(leaf) = self.leaf_for(addr, &payload) {
                    let tree = self.freshness.as_mut().expect("leaf implies tree");
                    tree.update(leaf, &payload);
                    cost = self.charge_walk();
                }
            }
            return (SdVerdict::Deliver(orig), cost);
        }
        let overlay_on = !self.sub_injectors[sub].is_disabled();
        if (!armed && self.injector.is_disabled() && !overlay_on)
            || !self.health[sub].is_serving()
        {
            return (SdVerdict::Deliver(orig), 0);
        }
        let addr = c.request.addr;
        let current = self.versions.get(&addr).copied().unwrap_or(0);
        let payload = Self::payload_bytes(addr, current);
        // First sight of an unwritten bucket: adopt its tag, then hold
        // every later read to it.
        self.integrity.verify_or_adopt(addr, &payload);
        let mut cost = 0;
        let leaf = self.leaf_for(addr, &payload);
        if leaf.is_some() {
            cost = self.charge_walk();
        }
        let mut wire = payload.to_vec();
        if self.injector.roll(FaultKind::BitFlip, now) {
            self.injector.flip_bit(&mut wire);
        }
        let mut forged = self.injector.roll(FaultKind::ForgeMac, now);
        let mut replayed = self.injector.roll(FaultKind::ReplayStale, now);
        let mut relocated = self.injector.roll(FaultKind::RelocateBucket, now);
        let mut rewound = self.injector.roll(FaultKind::RollbackBurst, now);
        if overlay_on {
            // Site-scoped burst targeting this sub-channel alone.
            if self.sub_injectors[sub].roll(FaultKind::BitFlip, now) {
                self.sub_injectors[sub].flip_bit(&mut wire);
            }
            forged |= self.sub_injectors[sub].roll(FaultKind::ForgeMac, now);
            replayed |= self.sub_injectors[sub].roll(FaultKind::ReplayStale, now);
            relocated |= self.sub_injectors[sub].roll(FaultKind::RelocateBucket, now);
            rewound |= self.sub_injectors[sub].roll(FaultKind::RollbackBurst, now);
        }
        // Adversarial splices replace the wire image wholesale (relocation
        // wins if several fire: a spliced bucket is what arrives).
        if relocated {
            // A once-authentic copy of *another* bucket, chosen
            // deterministically so same-seed runs see the same splice.
            match self
                .versions
                .iter()
                .filter(|&(&a, _)| a != addr)
                .max_by_key(|&(&a, _)| a)
            {
                Some((&oa, &ov)) => wire = Self::payload_bytes(oa, ov).to_vec(),
                // No other bucket exists yet: nothing to splice from.
                None => relocated = false,
            }
        } else if replayed || rewound {
            let stale = self.prev_versions.get(&addr).copied().unwrap_or(current);
            if stale != current {
                wire = Self::payload_bytes(addr, stale).to_vec();
            } else {
                // Replaying the current image serves nothing stale.
                replayed = false;
                rewound = false;
            }
        }
        // CMAC alone: the tag store shares the untrusted DRAM, so a
        // replayed/rolled-back (payload, tag) pair still verifies — only
        // the relocation (address-bound tag) and garbling classes fail.
        let mac_ok = if forged || relocated {
            false
        } else if replayed || rewound {
            true
        } else {
            self.integrity.verify(addr, &wire)
        };
        let fresh_ok = match (leaf, self.freshness.as_ref()) {
            (Some(l), Some(tree)) => tree.verify(l, &wire),
            _ => true,
        };
        if mac_ok && fresh_ok {
            let t = self.health[sub].on_success(now);
            self.note(sub, t);
            if let Some(t) = ticket {
                self.recovery_cycles += now.0 - t.detect.0;
            }
            return (SdVerdict::Deliver(orig), cost);
        }

        // Failed verification: attribute the attack class, then recover,
        // quarantine, or give up through the shared machinery.
        if relocated {
            self.relocation_detected += 1;
        } else if rewound {
            self.rollback_rejected += 1;
        } else if replayed {
            self.replay_detected += 1;
        }
        self.integrity_failures += 1;
        let was_share = self.rebuild_shares.contains_key(&orig.0);
        let (detect, attempts) = ticket.map_or((now, 1), |t| (t.detect, t.attempts + 1));
        let transition = self.health[sub].on_failure(now);
        let tripped = transition.is_some_and(|t| t.to == HealthState::Quarantined);
        self.note(sub, transition);
        if tripped {
            self.mark_corrupt(sub);
            if self.parity && !was_share && self.can_rebuild(None) {
                // The quarantined sub's copy is lost; reconstruct from the
                // survivors and keep running degraded instead of latching.
                return (
                    SdVerdict::Rebuild {
                        orig,
                        addr,
                        exclude: None,
                    },
                    cost,
                );
            }
            self.latch(SimError::fault(
                format!("sd sub-channel {sub}"),
                format!(
                    "quarantined after {} consecutive integrity failures",
                    self.health[sub].consecutive_failures()
                ),
            ));
            return (SdVerdict::Deliver(orig), cost);
        }
        if attempts > self.policy.refetch_limit {
            if self.parity && !was_share && self.can_rebuild(Some(sub)) {
                // This copy is unrecoverable; rebuild it from the other
                // sub-channels' shares rather than giving up.
                return (
                    SdVerdict::Rebuild {
                        orig,
                        addr,
                        exclude: Some(sub),
                    },
                    cost,
                );
            }
            self.latch(SimError::integrity(
                addr,
                format!("re-fetch budget ({}) exhausted", self.policy.refetch_limit),
            ));
            return (SdVerdict::Deliver(orig), cost);
        }
        self.refetches += 1;
        let id = ids.next_id();
        self.inflight.insert(id, RefetchTicket { orig, detect, attempts });
        (
            SdVerdict::Refetch(MemRequest {
                id,
                op: MemOp::Read,
                arrival: now,
                ..c.request
            }),
            cost,
        )
    }

    fn stats(&self) -> SdFaultStats {
        let now = MemCycle(self.now_hint);
        SdFaultStats {
            integrity_failures: self.integrity_failures,
            refetches: self.refetches,
            recovery_cycles: self.recovery_cycles,
            quarantined_subs: (0..self.health.len())
                .filter(|&i| self.health[i].is_quarantined())
                .collect(),
            parity_rebuilds: self.parity_rebuilds,
            scrub_repairs: self.scrub_repairs,
            replay_detected: self.replay_detected,
            relocation_detected: self.relocation_detected,
            rollback_rejected: self.rollback_rejected,
            freshness_ops: self.freshness_ops,
            freshness_cycles: self.freshness_cycles,
            health: self.health.iter().map(|h| h.state()).collect(),
            quarantine_entries: self.health.iter().map(|h| h.quarantine_entries()).collect(),
            unhealthy_cycles: self.health.iter().map(|h| h.unhealthy_cycles(now)).collect(),
        }
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
    /// being accumulated this tick. `None` disables merging.
    merge_bufs: Option<Vec<SplitBatch>>,
    /// Bucket-integrity verification and recovery.
    sd_integrity: SdIntegrity,
    /// Deliveries held while the SD walks the freshness tree: the block
    /// becomes visible to the FSM once the modeled verification finishes
    /// at the carried cycle. Empty whenever the tree is unarmed.
    verify_pending: VecDeque<(MemCycle, RequestId)>,
    /// Recovery reads waiting for sub-channel capacity: (sub, request).
    pending_refetch: VecDeque<(usize, MemRequest)>,
    /// Parity-rebuild share reads waiting for sub-channel capacity.
    pending_rebuild: VecDeque<(usize, MemRequest)>,
    /// Parity striping on (degraded routing in the sink).
    parity: bool,
    /// Background scrub period (0 disables).
    scrub_every: u64,
    /// Trace recorder; `None` (the default) keeps the hot path silent.
    obs: Option<SharedRecorder>,
    /// Blame row for the SimpleMC holding buffer (`sd.mc`), registered by
    /// [`SecureChannel::set_obs`] when the recorder traces the SD.
    mc_blame_res: Option<usize>,
    /// Blame row for CPU-bound messages waiting on the link (`sd.out`).
    out_blame_res: Option<usize>,
    /// Blame row for blocks held by the freshness-tree walk (`sd.verify`).
    verify_blame_res: Option<usize>,
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
        if !cfg.fault_plan.is_zero() {
            // Site 0: the secure channel's serial link.
            link.set_fault_plan(&cfg.fault_plan, 0);
        }
        let n_subs = cfg.sub_channels.len();
        let sd_integrity = SdIntegrity::new(&cfg, n_subs);
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
            merge_bufs: cfg
                .merge_split_reads
                .then(|| vec![SplitBatch::new(); 8]),
            sd_integrity,
            verify_pending: VecDeque::new(),
            pending_refetch: VecDeque::new(),
            pending_rebuild: VecDeque::new(),
            parity: cfg.parity,
            scrub_every: cfg.scrub_every,
            obs: None,
            mc_blame_res: None,
            out_blame_res: None,
            verify_blame_res: None,
        }
    }

    /// Attaches (or detaches) a trace recorder, wiring the serial link,
    /// every sub-channel, and the SD's FSM to the same handle. The channel
    /// itself emits the SD-side access-span events (arrival, read-phase
    /// done, access done) plus integrity fault/recovery instants.
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>) {
        self.link.set_obs_named(obs.clone(), "sec.link");
        for (i, sub) in self.subs.iter_mut().enumerate() {
            sub.set_obs(obs.clone(), i as u64);
        }
        self.fsm.set_obs(obs.clone());
        // Aggregate blame rows for the SD-side holding queues.
        let mut rows = (None, None, None);
        if let Some(rec) = &obs {
            let mut rec = rec.borrow_mut();
            if rec.wants(Subsystem::Sd) {
                rows = (
                    Some(rec.blame.resource("sd.mc")),
                    Some(rec.blame.resource("sd.out")),
                    Some(rec.blame.resource("sd.verify")),
                );
            }
        }
        (self.mc_blame_res, self.out_blame_res, self.verify_blame_res) = rows;
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

    /// Sub-channel accessor (for utilization reporting).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sub_channel(&self, i: usize) -> &SubChannel {
        &self.subs[i]
    }

    /// Number of sub-channels.
    pub fn sub_channel_count(&self) -> usize {
        self.subs.len()
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
        total.absorb(&self.sd_integrity.injector.counts());
        for inj in &self.sd_integrity.sub_injectors {
            total.absorb(&inj.counts());
        }
        total
    }

    /// Counters of the SD's integrity verification and recovery.
    pub fn sd_fault_stats(&self) -> SdFaultStats {
        self.sd_integrity.stats()
    }

    /// Current health state of each SD sub-channel.
    pub fn sub_health(&self) -> Vec<HealthState> {
        self.sd_integrity.health.iter().map(|h| h.state()).collect()
    }

    /// Whether the channel is operating degraded: parity is covering for
    /// at least one out-of-service sub-channel.
    pub fn degraded(&self) -> bool {
        self.parity && self.sd_integrity.health.iter().any(|h| !h.is_serving())
    }

    /// The first unrecovered fault on the channel: a quarantine /
    /// exhausted integrity recovery at the SD, or an exhausted retry
    /// budget on the link.
    pub fn fault(&self) -> Option<&SimError> {
        self.sd_integrity.fault.as_ref().or_else(|| self.link.fault())
    }

    /// The first latched SD integrity fault (quarantine without parity
    /// cover, or an exhausted re-fetch budget), if any.
    pub fn sd_fault(&self) -> Option<&SimError> {
        self.sd_integrity.fault.as_ref()
    }

    /// The first latched serial-link fault (exhausted retry budget), if
    /// any. The frame was still delivered, so the run may have drained.
    pub fn link_fault(&self) -> Option<&SimError> {
        self.link.fault()
    }

    /// Health states of the serial link's two directions (to-mem, to-cpu).
    pub fn link_health(&self) -> (HealthState, HealthState) {
        self.link.health()
    }

    /// One-line summary of the dynamic state, for watchdog diagnostics.
    pub fn debug_state(&self) -> String {
        let subs: Vec<String> = self.subs.iter().map(|s| s.debug_state()).collect();
        let health: Vec<&str> = self
            .sd_integrity
            .health
            .iter()
            .map(|h| h.state().name())
            .collect();
        format!(
            "fsm=[{}] mc_pending={} resp_pending={} out_pending={} verify={} refetch={} rebuild={} health=[{}] subs=[{}]",
            self.fsm.debug_state(),
            self.mc_pending.len(),
            self.resp_pending.len(),
            self.out_pending.len(),
            self.verify_pending.len(),
            self.pending_refetch.len(),
            self.pending_rebuild.len(),
            health.join(","),
            subs.join(" | ")
        )
    }

    /// Enables device-command tracing on every sub-channel.
    pub fn enable_command_traces(&mut self) {
        for sub in self.subs.iter_mut() {
            sub.enable_command_trace();
        }
    }

    /// Takes each sub-channel's recorded command trace.
    pub fn take_command_traces(&mut self) -> Vec<Vec<doram_dram::CommandRecord>> {
        self.subs.iter_mut().map(|s| s.take_command_trace()).collect()
    }

    /// DRAM energy consumed by the channel's four sub-channels.
    pub fn energy(&self, params: &doram_dram::EnergyParams) -> doram_dram::EnergyBreakdown {
        self.subs
            .iter()
            .map(|sc| doram_dram::EnergyBreakdown::from_stats(sc.stats(), params))
            .fold(doram_dram::EnergyBreakdown::default(), |acc, e| acc.add(&e))
    }

    /// Whether the CPU side can send an NS request this cycle.
    pub fn can_send_ns(&self) -> bool {
        self.link.can_send_to_mem()
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
            .map_err(|m| match m {
            SecMsg::NsReq(r) => r,
            // The rejected message is the one just passed in; total match
            // without panicking.
            _ => req,
        })
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
            .map_err(|m| match m {
                SecMsg::SplitReadResp(f) => f,
                // The rejected message is the one just passed in.
                _ => fetch,
            })
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
        self.sd_integrity.now_hint = now.0;
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
                    debug_assert!(accepted, "SD buffer overflow: protocol allows at most one buffered request");
                }
                SecMsg::SplitReadResp(f) => {
                    self.fsm.on_block_complete(RequestId(f.tag));
                }
                _ => {
                    debug_assert!(false, "CPU-bound message arrived at SD");
                    self.sd_integrity
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
                    self.sd_integrity
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
        if let Some(res) = self.mc_blame_res {
            if let (false, Some(obs)) = (self.mc_pending.is_empty(), &self.obs) {
                let n = self.mc_pending.len() as u64;
                let mut rec = obs.borrow_mut();
                rec.blame.wait(res, doram_obs::BlameClass::NsApp, n);
                rec.blame.delay(res, n);
            }
        }

        // 3. SD: drive the ORAM FSM.
        let mut events = Vec::new();
        {
            let mut sink = SdSink {
                subs: &mut self.subs,
                out: &mut self.out_pending,
                ids: &mut self.local_ids,
                s_app: self.s_app,
                merge_bufs: self.merge_bufs.as_deref_mut(),
                integrity: &mut self.sd_integrity,
                rebuild: &mut self.pending_rebuild,
                parity: self.parity,
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

        // 4. DRAM sub-channels. ORAM read completions pass through the
        // integrity engine: a failed MAC check re-fetches the bucket from
        // the same sub-channel instead of notifying the FSM, so recovery
        // latency shows up as ordinary access latency.
        //
        // 4a. Deliveries whose modeled freshness-tree walk has finished.
        // Entries are queued with monotonically non-decreasing ready
        // cycles (the walk cost is a constant), so draining the front is
        // enough.
        while let Some(&(ready, id)) = self.verify_pending.front() {
            if ready > now {
                break;
            }
            self.verify_pending.pop_front();
            match self.sd_integrity.resolve_delivery(id) {
                Delivered::Regular(id) => {
                    self.fsm.on_block_complete(id);
                }
                Delivered::RebuildDone(orig) => {
                    self.fsm.on_block_complete(orig);
                }
                Delivered::RebuildPartial => {}
            }
        }
        // Aggregate blame: blocks still held by the freshness-tree walk
        // are stalled on verification itself.
        if let Some(res) = self.verify_blame_res {
            if let (false, Some(obs)) = (self.verify_pending.is_empty(), &self.obs) {
                let n = self.verify_pending.len() as u64;
                let mut rec = obs.borrow_mut();
                rec.blame.wait(res, doram_obs::BlameClass::IntegrityVerify, n);
                rec.blame.delay(res, n);
            }
        }
        while let Some(&(si, req)) = self.pending_refetch.front() {
            // Recovery reads are the integrity engine's traffic: waits
            // they inflict on others are blamed on verification.
            match self.subs[si]
                .enqueue_tagged(req, doram_obs::BlameClass::IntegrityVerify as u8)
            {
                Ok(()) => {
                    self.pending_refetch.pop_front();
                }
                Err(_) => break,
            }
        }
        while let Some(&(si, req)) = self.pending_rebuild.front() {
            // Parity-share reads ride the scrub/parity blame class.
            match self.subs[si].enqueue_tagged(req, doram_obs::BlameClass::ScrubParity as u8) {
                Ok(()) => {
                    self.pending_rebuild.pop_front();
                }
                Err(_) => break,
            }
        }
        for si in 0..self.subs.len() {
            self.scratch.clear();
            self.subs[si].tick(now, &mut self.scratch);
            for c in self.scratch.drain(..) {
                if c.request.class == RequestClass::Oram {
                    let fails_before = self.sd_integrity.integrity_failures;
                    let (verdict, verify_cycles) = self
                        .sd_integrity
                        .on_oram_completion(si, &c, now, &mut self.local_ids);
                    if let Some(obs) = &self.obs {
                        if self.sd_integrity.integrity_failures > fails_before {
                            obs.borrow_mut().instant(
                                Subsystem::Fault,
                                EventKind::FaultDetected,
                                now.0,
                                si as u64,
                            );
                        }
                        if verify_cycles > 0 {
                            obs.borrow_mut().integrity_verify(now.0, verify_cycles);
                        }
                    }
                    match verdict {
                        SdVerdict::Deliver(id) if verify_cycles > 0 => {
                            // Hold the block until the modeled tree walk
                            // finishes; 4a drains it at the ready cycle.
                            self.verify_pending
                                .push_back((MemCycle(now.0 + verify_cycles), id));
                        }
                        SdVerdict::Deliver(id) => match self.sd_integrity.resolve_delivery(id) {
                            Delivered::Regular(id) => {
                                self.fsm.on_block_complete(id);
                            }
                            Delivered::RebuildDone(orig) => {
                                self.fsm.on_block_complete(orig);
                            }
                            Delivered::RebuildPartial => {}
                        },
                        SdVerdict::Refetch(req) => {
                            if let Some(obs) = &self.obs {
                                obs.borrow_mut().instant(
                                    Subsystem::Fault,
                                    EventKind::Recovery,
                                    now.0,
                                    si as u64,
                                );
                            }
                            self.pending_refetch.push_back((si, req));
                        }
                        SdVerdict::Rebuild { orig, addr, exclude } => {
                            if let Some(obs) = &self.obs {
                                obs.borrow_mut().instant(
                                    Subsystem::Fault,
                                    EventKind::Recovery,
                                    now.0,
                                    si as u64,
                                );
                            }
                            let started = self.sd_integrity.start_rebuild(
                                orig,
                                addr,
                                self.s_app,
                                now,
                                &mut self.local_ids,
                                &mut self.pending_rebuild,
                                exclude,
                            );
                            // can_rebuild was checked when the verdict was
                            // issued, within the same call stack.
                            debug_assert!(started, "rebuild with no serving shares");
                            if !started {
                                self.fsm.on_block_complete(orig);
                            }
                        }
                    }
                } else {
                    match c.request.op {
                        MemOp::Read => self.resp_pending.push_back(c),
                        MemOp::Write => ns_completed.push(c),
                    }
                }
            }
        }

        // 4b. Background scrubber: during idle bus cycles the SD walks
        // the tree re-verifying MACs; modelled as one parity repair and
        // one probe round per period, charged zero bus time.
        if self.scrub_every > 0 && now.0 > 0 && now.0.is_multiple_of(self.scrub_every) {
            let repaired = self.sd_integrity.scrub(now);
            if let (Some(sub), Some(obs)) = (repaired, &self.obs) {
                obs.borrow_mut().instant(
                    Subsystem::Fault,
                    EventKind::ScrubRepair,
                    now.0,
                    sub as u64,
                );
            }
        }
        // Emit any health transitions recorded this tick.
        if !self.sd_integrity.transitions.is_empty() {
            let transitions = std::mem::take(&mut self.sd_integrity.transitions);
            if let Some(obs) = &self.obs {
                for (sub, t) in transitions {
                    obs.borrow_mut().instant(
                        Subsystem::Sd,
                        EventKind::HealthTransition,
                        now.0,
                        t.event_value(sub as u64),
                    );
                }
            }
        }

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
        if let Some(res) = self.out_blame_res {
            let n = (self.out_pending.len() + self.resp_pending.len()) as u64;
            if n > 0 {
                if let Some(obs) = &self.obs {
                    let head = self
                        .out_pending
                        .front()
                        .map_or(doram_obs::BlameClass::NsApp, |m| m.blame_class());
                    let mut rec = obs.borrow_mut();
                    rec.blame.wait(res, head, n);
                    rec.blame.delay(res, n);
                }
            }
        }
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

/// A read-merging buffer is checkpointed as the link message it becomes.
impl Snapshot for SplitBatch {
    fn save_state(&self, w: &mut SnapshotWriter) {
        SecMsg::SplitReadBatch(*self).put(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        match SecMsg::get(r)? {
            SecMsg::SplitReadBatch(batch) => *self = batch,
            _ => return Err(SnapshotError::new("expected split batch")),
        }
        Ok(())
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

doram_sim::impl_codec!(struct RefetchTicket { orig, detect, attempts });

/// The CMAC tag store travels as address-sorted `(addr, tag)` pairs, each
/// tag length-prefixed and checked to be one digest long on load.
fn save_tags(integrity: &BucketIntegrity, w: &mut SnapshotWriter) {
    let tags: Vec<(u64, Vec<u8>)> = integrity
        .export_tags()
        .into_iter()
        .map(|(addr, tag)| (addr, tag.to_vec()))
        .collect();
    tags.put(w);
}

fn load_tags(
    integrity: &mut BucketIntegrity,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let mut tags = Vec::new();
    for (addr, tag) in Vec::<(u64, Vec<u8>)>::get(r)? {
        let tag: [u8; DIGEST_BYTES] = tag
            .try_into()
            .map_err(|_| SnapshotError::new("bad integrity tag length"))?;
        tags.push((addr, tag));
    }
    integrity.import_tags(tags);
    Ok(())
}

impl SdIntegrity {
    /// Rebuilds the freshness tree from its authoritative inputs after a
    /// restore: every leaf holds the hash of its bucket's *current* image
    /// (each write re-hashes), so replaying one update per mapping restores
    /// the exact state.
    fn rebuild_freshness(&mut self) -> Result<(), SnapshotError> {
        let Some(tree) = self.freshness.as_mut() else {
            if self.leaves.is_empty() {
                return Ok(());
            }
            return Err(SnapshotError::new(
                "checkpoint carries freshness leaves but the config arms no tree",
            ));
        };
        for (&addr, &leaf) in &self.leaves {
            if leaf >= tree.num_leaves() {
                return Err(SnapshotError::new("freshness leaf out of range"));
            }
            let version = self.versions.get(&addr).copied().unwrap_or(0);
            tree.update(leaf, &Self::payload_bytes(addr, version));
        }
        Ok(())
    }
}

// The freshness tree is rebuilt from `leaves` + `versions`; health
// transitions drain within every tick, so none are pending between ticks.
doram_sim::impl_snapshot!(SdIntegrity {
    integrity: via(save_tags, load_tags),
    versions,
    prev_versions,
    leaves,
    next_leaf,
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
} skip { freshness, policy, parity, transitions } after_load SdIntegrity::rebuild_freshness);

// Merge buffers exist per configuration; their contents drain every tick
// but are checkpointed for safety. The recorder wiring is redone by the
// host after restore.
doram_sim::impl_snapshot!(SecureChannel {
    link: state,
    subs: state,
    fsm: state,
    mc_pending,
    resp_pending,
    out_pending,
    local_ids,
    merge_bufs: state,
    sd_integrity: state,
    verify_pending,
    pending_refetch,
    pending_rebuild,
} skip {
    s_app,
    scratch,
    parity,
    scrub_every,
    obs,
    mc_blame_res,
    out_blame_res,
    verify_blame_res,
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
    /// Health view + rebuild bookkeeping for degraded routing.
    integrity: &'a mut SdIntegrity,
    /// Parity-rebuild share reads queued with back-pressure.
    rebuild: &'a mut VecDeque<(usize, MemRequest)>,
    /// Degraded routing enabled (parity striping on).
    parity: bool,
}

/// Cap on SD→CPU messages queued locally before the sink back-pressures.
const OUT_PENDING_CAP: usize = 64;

impl BlockSink for SdSink<'_> {
    fn try_block(&mut self, op: MemOp, block: &BlockRef, now: MemCycle) -> Issued {
        match block.placement {
            Placement::TreeUnit(u) => {
                // Degraded routing: with parity on, traffic homed on an
                // out-of-service sub-channel is covered by the survivors —
                // reads rebuild from N−1 shares, writes remap cyclically.
                // With no serving sub left (total loss, fault latched) the
                // request falls through to its home sub so the run drains.
                if self.parity && !self.integrity.is_serving(u) && self.integrity.any_serving() {
                    match op {
                        MemOp::Read => {
                            let orig = self.ids.next_id();
                            let started = self.integrity.start_rebuild(
                                orig,
                                ORAM_REGION_BASE + block.addr,
                                self.s_app,
                                now,
                                self.ids,
                                self.rebuild,
                                None,
                            );
                            debug_assert!(started, "any_serving checked");
                            return Issued::Tracked(orig);
                        }
                        MemOp::Write => {
                            let n = self.subs.len();
                            let target = (1..n)
                                .map(|d| (u + d) % n)
                                .find(|&s| self.integrity.is_serving(s))
                                .expect("any_serving checked");
                            let id = self.ids.next_id();
                            let req = MemRequest {
                                id,
                                app: self.s_app,
                                op,
                                addr: ORAM_REGION_BASE + block.addr,
                                class: RequestClass::Oram,
                                arrival: now,
                            };
                            return match self.subs[target].enqueue(req) {
                                Ok(()) => Issued::Tracked(id),
                                Err(_) => Issued::Busy,
                            };
                        }
                    }
                }
                let id = self.ids.next_id();
                let req = MemRequest {
                    id,
                    app: self.s_app,
                    op,
                    addr: ORAM_REGION_BASE + block.addr,
                    class: RequestClass::Oram,
                    arrival: now,
                };
                match self.subs[u].enqueue(req) {
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
    use super::*;
    use doram_oram::split::SplitConfig;
    use doram_oram::tree::TreeGeometry;

    fn cfg(k: u32) -> SecureChannelConfig {
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
            ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
        let reads: u64 = (0..4).map(|i| ch.sub_channel(i).stats().reads.get()).sum();
        let writes: u64 = (0..4).map(|i| ch.sub_channel(i).stats().writes.get()).sum();
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
            ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
            ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
            ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
                ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
        use doram_sim::fault::FaultRates;
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
                ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
        assert!(stats.quarantined_subs.is_empty(), "rates stay sub-threshold");
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
            ch.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
            if out.resp.len() == sent && sent < jobs {
                ch.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        out
    }

    /// A permanent 100% MAC-forgery burst on one sub-channel's site.
    fn hostile_sub_plan(seed: u64, sub: u64, start: u64, end: u64) -> FaultPlan {
        use doram_sim::fault::{FaultRates, FaultWindow};
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
        assert_eq!(ch.sub_health()[1], HealthState::Quarantined);
        // Healthy siblings absorbed the quarantined sub's writes.
        assert!(ch.sub_channel(1).stats().reads.get() > 0, "pre-trip traffic");
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
        for i in 0..4 {
            assert_eq!(
                on.sub_channel(i).stats().reads.get(),
                off.sub_channel(i).stats().reads.get(),
                "sub {i} reads"
            );
            assert_eq!(
                on.sub_channel(i).stats().writes.get(),
                off.sub_channel(i).stats().writes.get(),
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
        use doram_sim::snapshot::{SnapshotReader, SnapshotWriter};
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
            a.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
            if out.resp.len() == sent && sent < 12 {
                a.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        assert_eq!(
            a.sub_health()[2],
            HealthState::Quarantined,
            "split lands mid-episode"
        );
        let mut w = SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = mk();
        b.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
        for c in split..120_000 {
            b.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
        use doram_sim::fault::FaultRates;
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
        use doram_sim::fault::FaultRates;
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
        use doram_sim::fault::{FaultRates, FaultWindow};
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
        use doram_sim::fault::FaultRates;
        use doram_sim::snapshot::{SnapshotReader, SnapshotWriter};
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
            a.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
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
            b.tick(MemCycle(c), &mut out.ns, &mut out.resp, &mut out.sr, &mut out.sw);
            if out.resp.len() == sent && sent < 8 {
                b.send_secure(OramJob::Dummy);
                sent += 1;
            }
        }
        assert_eq!(out.resp, full_out.resp, "resumed run matches uninterrupted");
        assert_eq!(b.sd_fault_stats(), full.sd_fault_stats());
        // The rebuilt freshness tree re-serializes bit-identically, so a
        // second save proves the tree state survived the round trip.
        let mut w_full = SnapshotWriter::new();
        full.save_state(&mut w_full);
        let mut w_b = SnapshotWriter::new();
        b.save_state(&mut w_b);
        assert_eq!(w_full.into_bytes(), w_b.into_bytes());
    }
}
