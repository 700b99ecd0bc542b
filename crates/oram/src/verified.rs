//! Path ORAM over *untrusted*, integrity-verified memory with fault
//! recovery — the functional model of the Secure Delegator's data path.
//!
//! [`VerifiedOram`] runs the exact Path ORAM protocol of
//! [`crate::protocol::PathOram`], but its tree lives in an untrusted
//! serialized bucket store: every write-back records a CMAC tag
//! ([`doram_crypto::integrity::BucketIntegrity`]), every path read fetches
//! bucket bytes across a faulty "bus" (a [`FaultInjector`] may flip bits,
//! forge MACs, or mount active attacks — replaying a bucket's superseded
//! image, serving another bucket's bytes, or rolling a region back in a
//! burst), and a failed verification triggers a bounded
//! **re-fetch-and-replay** recovery. Too many consecutive failures
//! quarantine the store — the fail-stop escalation of the D-ORAM threat
//! model, where persistent tampering must halt the computation rather than
//! risk leaking through a degraded access pattern.
//!
//! The load-bearing invariant, asserted by the recovery property tests:
//! for any seeded [`FaultPlan`] whose rates stay below the fail-stop
//! threshold, a faulty run's final contents and access pattern are
//! **bit-identical** to the fault-free run — faults cost retries, never
//! state.

use crate::position::PositionMap;
use crate::stash::Stash;
use crate::tree::TreeGeometry;
use doram_crypto::integrity::BucketIntegrity;
use doram_sim::fault::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
use doram_sim::health::{HealthMonitor, HealthPolicy, HealthState};
use doram_sim::{MemCycle, SimError};
use std::collections::HashMap;

/// Serialized size of one `(id, leaf, value)` block record.
const BLOCK_BYTES: usize = 24;

/// Recovery policy: how hard the SD tries before declaring the memory
/// hostile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-fetches allowed per bucket read after a MAC mismatch.
    pub refetch_limit: u32,
    /// Consecutive failed verifications (across re-fetches) that trip the
    /// quarantine/fail-stop escalation.
    pub quarantine_threshold: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            refetch_limit: 6,
            quarantine_threshold: 16,
        }
    }
}

/// Counters for the verify/re-fetch/quarantine machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// MAC verifications that failed (each triggers a re-fetch or, at the
    /// budget's end, an error).
    pub integrity_failures: u64,
    /// Bucket re-fetches issued to recover from failed verifications.
    pub refetches: u64,
    /// Bucket fetches that verified on the first attempt.
    pub clean_reads: u64,
    /// Highest consecutive-failure streak observed.
    pub worst_streak: u32,
}

/// Path ORAM over an untrusted, MAC-verified bucket store with bounded
/// re-fetch recovery.
///
/// # Examples
///
/// ```
/// use doram_oram::verified::VerifiedOram;
/// use doram_sim::fault::FaultPlan;
///
/// let mut oram = VerifiedOram::new(6, 4, 1, FaultPlan::none(), Default::default());
/// oram.write(7, 99).unwrap();
/// assert_eq!(oram.read(7).unwrap(), Some(99));
/// oram.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct VerifiedOram {
    geometry: TreeGeometry,
    posmap: PositionMap,
    stash: Stash<u64>,
    /// Untrusted DRAM: bucket heap index → serialized resident blocks.
    mem: HashMap<u64, Vec<u8>>,
    /// Superseded bucket images: what each bucket held before its last
    /// rewrite. This is the adversary's replay/rollback ammunition — old
    /// data that *was* authentic once, served in place of the current
    /// image. The current tag no longer covers it, so verification (plus
    /// re-fetch) must hide every such serve.
    prev_mem: HashMap<u64, Vec<u8>>,
    /// Trusted per-bucket authentication tags.
    integrity: BucketIntegrity,
    /// The adversary on the memory bus.
    injector: FaultInjector,
    policy: RecoveryPolicy,
    stats: RecoveryStats,
    /// The store's circuit breaker: consecutive failed verifications walk
    /// it to quarantine, where (with no probation window configured) it
    /// latches and all further accesses fail fast.
    health: HealthMonitor,
    accesses: u64,
}

/// Serializes a bucket's resident blocks.
fn encode(blocks: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.len() * BLOCK_BYTES);
    for &(id, leaf, value) in blocks {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&leaf.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Deserializes a bucket payload (caller guarantees it verified).
fn decode(bytes: &[u8]) -> Vec<(u64, u64, u64)> {
    bytes
        .chunks_exact(BLOCK_BYTES)
        .map(|c| {
            let word = |i: usize| {
                u64::from_le_bytes(c[i * 8..(i + 1) * 8].try_into().expect("8-byte chunk"))
            };
            (word(0), word(1), word(2))
        })
        .collect()
}

impl VerifiedOram {
    /// Creates an ORAM with a tree of leaf level `l_max` and bucket size
    /// `z`, deterministically seeded, over memory faulted by `plan`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`TreeGeometry::new`]).
    pub fn new(
        l_max: u32,
        z: u32,
        seed: u64,
        plan: FaultPlan,
        policy: RecoveryPolicy,
    ) -> VerifiedOram {
        let geometry = TreeGeometry::new(l_max, z);
        VerifiedOram {
            geometry,
            posmap: PositionMap::new(geometry.num_leaves(), seed),
            stash: Stash::new(),
            mem: HashMap::new(),
            prev_mem: HashMap::new(),
            integrity: BucketIntegrity::new(seed_key(seed)),
            // Site 0xSD: distinct from link sites, which use small indices.
            injector: plan.injector(0x5D00),
            policy,
            stats: RecoveryStats::default(),
            health: HealthMonitor::new(HealthPolicy {
                quarantine_threshold: policy.quarantine_threshold,
                ..HealthPolicy::default()
            }),
            accesses: 0,
        }
    }

    /// The tree geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geometry
    }

    /// Completed accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Highest stash occupancy observed.
    pub fn stash_peak(&self) -> usize {
        self.stash.peak()
    }

    /// Recovery counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Faults the injector has fired so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.injector.counts()
    }

    /// Whether the store has tripped the fail-stop quarantine.
    pub fn is_quarantined(&self) -> bool {
        self.health.is_quarantined()
    }

    /// The store's current health state.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// Reads `block`, returning its value if it was ever written.
    ///
    /// # Errors
    ///
    /// Fails if integrity recovery is exhausted or the store is
    /// quarantined; the returned error is the fail-stop signal.
    pub fn read(&mut self, block: u64) -> Result<Option<u64>, SimError> {
        self.access(block, None)
    }

    /// Writes `value` into `block`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`VerifiedOram::read`].
    pub fn write(&mut self, block: u64, value: u64) -> Result<Option<u64>, SimError> {
        self.access(block, Some(value))
    }

    /// Fetches and authenticates one bucket over the faulty bus, re-fetching
    /// up to the policy budget on MAC mismatch.
    fn fetch_bucket(&mut self, bucket: u64) -> Result<Vec<(u64, u64, u64)>, SimError> {
        let Some(stored) = self.mem.get(&bucket) else {
            // Never written: nothing to fetch, nothing to verify.
            return Ok(Vec::new());
        };
        let now = MemCycle(self.accesses);
        for attempt in 0..=self.policy.refetch_limit {
            // The wire copy may be tampered with in transit; the stored
            // copy (and its recorded tag) stay authentic, so a re-fetch
            // can succeed — exactly the transient-fault recovery story.
            let mut wire = stored.clone();
            if self.injector.roll(FaultKind::BitFlip, now) {
                self.injector.flip_bit(&mut wire);
            }
            let forged = self.injector.roll(FaultKind::ForgeMac, now);
            // Active attacks: serve stale or relocated — but once-authentic
            // — bytes instead of the current image. Zero rates consume no
            // randomness, keeping legacy fault schedules bit-identical.
            if self.injector.roll(FaultKind::ReplayStale, now)
                | self.injector.roll(FaultKind::RollbackBurst, now)
            {
                if let Some(stale) = self.prev_mem.get(&bucket) {
                    wire = stale.clone();
                }
            }
            if self.injector.roll(FaultKind::RelocateBucket, now) {
                // Deterministic victim choice (min key, not HashMap order):
                // the same seed must replay the same attack schedule.
                let donor = self.mem.keys().filter(|&&b| b != bucket).min().copied();
                if let Some(d) = donor {
                    wire = self.mem[&d].clone();
                }
            }
            if !forged && self.integrity.verify(bucket, &wire) {
                self.health.on_success(now);
                if attempt == 0 {
                    self.stats.clean_reads += 1;
                }
                return Ok(decode(&wire));
            }
            self.stats.integrity_failures += 1;
            self.health.on_failure(now);
            let streak = self.health.consecutive_failures();
            self.stats.worst_streak = self.stats.worst_streak.max(streak);
            if self.health.is_quarantined() {
                return Err(SimError::fault(
                    "sd bucket store",
                    format!(
                        "quarantined after {streak} consecutive integrity failures (bucket {bucket})"
                    ),
                ));
            }
            if attempt < self.policy.refetch_limit {
                self.stats.refetches += 1;
            }
        }
        Err(SimError::integrity(
            bucket,
            format!("re-fetch budget ({}) exhausted", self.policy.refetch_limit),
        ))
    }

    /// One full Path ORAM access over the verified store.
    fn access(&mut self, block: u64, new_value: Option<u64>) -> Result<Option<u64>, SimError> {
        if self.health.is_quarantined() {
            return Err(SimError::fault(
                "sd bucket store",
                "store is quarantined (fail-stop)",
            ));
        }
        self.accesses += 1;
        let leaf = self.posmap.leaf_of(block);
        let new_leaf = self.posmap.remap(block);

        // 1. Read the whole path into the stash, verifying every bucket.
        for bucket in self.geometry.path(leaf).collect::<Vec<_>>() {
            let resident = self.fetch_bucket(bucket)?;
            if !resident.is_empty() {
                if let Some(old) = self.mem.remove(&bucket) {
                    // The image this bucket is about to shed: replay fodder.
                    self.prev_mem.insert(bucket, old);
                }
                for (b, l, v) in resident {
                    self.stash.insert(b, l, v);
                }
            }
        }

        // 2. Serve the request from the stash, retagging with the new leaf.
        let old = match self.stash.remove(block) {
            Some((_, v)) => {
                let keep = new_value.unwrap_or(v);
                self.stash.insert(block, new_leaf, keep);
                Some(v)
            }
            None => {
                if let Some(v) = new_value {
                    self.stash.insert(block, new_leaf, v);
                }
                None
            }
        };

        // 3. Write the path back, leaf level first (greedy fill), recording
        // each bucket's authentication tag.
        let z = self.geometry.z as usize;
        for level in (0..=self.geometry.l_max).rev() {
            let bucket = self.geometry.bucket_on_path(leaf, level);
            let geometry = self.geometry;
            let chosen = self.stash.take_eligible(z, |block_leaf| {
                geometry.paths_agree(block_leaf, leaf, level)
            });
            if !chosen.is_empty() {
                let bytes = encode(&chosen);
                self.integrity.record(bucket, &bytes);
                self.mem.insert(bucket, bytes);
            }
        }
        Ok(old)
    }

    /// A sorted snapshot of every resident block's `(id, value)` — directly
    /// comparable with [`crate::protocol::PathOram::snapshot`].
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .mem
            .values()
            .flat_map(|bytes| decode(bytes))
            .map(|(b, _, v)| (b, v))
            .chain(
                self.stash
                    .iter()
                    .filter_map(|(b, _)| self.stash.get(b).map(|&(_, v)| (b, v))),
            )
            .collect();
        out.sort_by_key(|&(b, _)| b);
        out
    }

    /// Verifies the Path ORAM invariant over the decoded store: bucket
    /// capacity, on-path placement, no duplication, fresh leaf tags —
    /// plus that every stored bucket still authenticates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] (or [`SimError::IntegrityViolation`]
    /// for a store/tag mismatch) describing the first violation.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let mut seen = HashMap::new();
        for (&bucket, bytes) in &self.mem {
            if !self.integrity.verify(bucket, bytes) {
                return Err(SimError::integrity(bucket, "stored bucket fails its tag"));
            }
            let resident = decode(bytes);
            if resident.len() > self.geometry.z as usize {
                return Err(SimError::protocol(format!(
                    "bucket {bucket} holds {} > Z",
                    resident.len()
                )));
            }
            let level = self.geometry.level_of(bucket);
            for (b, leaf, _) in resident {
                if self.geometry.bucket_on_path(leaf, level) != bucket {
                    return Err(SimError::protocol(format!(
                        "block {b} off-path in bucket {bucket}"
                    )));
                }
                if seen.insert(b, bucket).is_some() {
                    return Err(SimError::protocol(format!("block {b} duplicated")));
                }
                if self.posmap.get(b) != Some(leaf) {
                    return Err(SimError::protocol(format!("block {b} leaf tag stale")));
                }
            }
        }
        for (b, _) in self.stash.iter() {
            if seen.insert(b, u64::MAX).is_some() {
                return Err(SimError::protocol(format!(
                    "block {b} in both tree and stash"
                )));
            }
        }
        Ok(())
    }
}

/// Derives the 16-byte MAC key from the run seed.
fn seed_key(seed: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&(seed ^ 0x5D_1234_5678).to_le_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PathOram;
    use doram_sim::fault::FaultRates;

    fn dram_rates(bitflip_ppm: u32, forge_ppm: u32) -> FaultPlan {
        FaultPlan::with_rates(
            77,
            FaultRates {
                bitflip_ppm,
                forge_mac_ppm: forge_ppm,
                ..FaultRates::none()
            },
        )
    }

    /// Runs the same mixed workload on both ORAMs and returns them.
    fn run_pair(plan: FaultPlan) -> (PathOram<u64>, VerifiedOram) {
        let mut clean = PathOram::new(6, 4, 9);
        let mut faulty = VerifiedOram::new(6, 4, 9, plan, RecoveryPolicy::default());
        let universe = clean.geometry().user_blocks().min(100);
        for i in 0..600u64 {
            let b = (i * 2654435761) % universe;
            if i % 3 == 0 {
                assert_eq!(clean.read(b), faulty.read(b).expect("recovered read"));
            } else {
                assert_eq!(
                    clean.write(b, i),
                    faulty.write(b, i).expect("recovered write")
                );
            }
        }
        (clean, faulty)
    }

    #[test]
    fn matches_reference_without_faults() {
        let (clean, faulty) = run_pair(FaultPlan::none());
        assert_eq!(clean.snapshot(), faulty.snapshot());
        assert_eq!(clean.accesses(), faulty.accesses());
        assert_eq!(faulty.fault_counts().total(), 0);
        faulty.check_invariants().unwrap();
    }

    #[test]
    fn recovers_bit_identically_under_faults() {
        // 5% bit flips + 1% forged MACs: every access sees faults soon,
        // recovery must hide all of them.
        let (clean, faulty) = run_pair(dram_rates(50_000, 10_000));
        assert_eq!(clean.snapshot(), faulty.snapshot(), "contents must match");
        let stats = faulty.recovery_stats();
        assert!(stats.integrity_failures > 0, "faults must have fired");
        assert!(stats.refetches > 0);
        assert!(faulty.fault_counts().bit_flips > 0);
        assert!(!faulty.is_quarantined());
        faulty.check_invariants().unwrap();
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let (_, a) = run_pair(dram_rates(50_000, 10_000));
        let (_, b) = run_pair(dram_rates(50_000, 10_000));
        assert_eq!(a.recovery_stats(), b.recovery_stats());
        assert_eq!(a.fault_counts(), b.fault_counts());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn recovers_bit_identically_under_active_attacks() {
        // Sub-threshold replay + relocation + rollback: stale-but-
        // once-authentic images on the wire. Every serve must be caught
        // (current tags no longer cover them) and hidden by re-fetch —
        // the oracle contents never go stale.
        let plan = FaultPlan::with_rates(
            77,
            FaultRates {
                replay_ppm: 30_000,
                relocate_ppm: 20_000,
                rollback_ppm: 20_000,
                ..FaultRates::none()
            },
        );
        let (clean, faulty) = run_pair(plan);
        assert_eq!(clean.snapshot(), faulty.snapshot(), "stale read leaked");
        let counts = faulty.fault_counts();
        assert!(counts.replays > 0, "replays must fire: {counts:?}");
        assert!(counts.relocations > 0, "relocations must fire: {counts:?}");
        assert!(
            counts.rollback_bursts > 0,
            "rollbacks must fire: {counts:?}"
        );
        assert!(faulty.recovery_stats().integrity_failures > 0);
        assert!(!faulty.is_quarantined());
        faulty.check_invariants().unwrap();
    }

    #[test]
    fn hostile_memory_trips_quarantine() {
        // Forge every MAC: recovery cannot converge; the store must
        // fail-stop rather than serve unauthenticated data.
        let plan = dram_rates(0, 1_000_000);
        let mut oram = VerifiedOram::new(5, 4, 3, plan, RecoveryPolicy::default());
        oram.write(1, 10).unwrap(); // first access touches no stored bucket
        let mut tripped = None;
        for i in 0..50u64 {
            if let Err(e) = oram.write(i % 4, i) {
                tripped = Some(e);
                break;
            }
        }
        let err = tripped.expect("forged MACs must trip fail-stop");
        assert!(
            matches!(
                err,
                SimError::Fault { .. } | SimError::IntegrityViolation { .. }
            ),
            "unexpected error {err:?}"
        );
        assert!(oram.is_quarantined() || oram.recovery_stats().integrity_failures > 0);
        // Quarantine latches: later accesses fail fast.
        if oram.is_quarantined() {
            assert!(oram.read(1).is_err());
        }
    }

    #[test]
    fn stored_tampering_is_caught_by_invariants() {
        let mut oram = VerifiedOram::new(5, 4, 4, FaultPlan::none(), RecoveryPolicy::default());
        for b in 0..20u64 {
            oram.write(b, b).unwrap();
        }
        oram.check_invariants().unwrap();
        // Persistently corrupt one stored bucket behind the MAC's back.
        let bucket = *oram.mem.keys().next().expect("some bucket is resident");
        oram.mem.get_mut(&bucket).expect("present")[0] ^= 0xFF;
        assert!(matches!(
            oram.check_invariants(),
            Err(SimError::IntegrityViolation { .. })
        ));
    }
}
