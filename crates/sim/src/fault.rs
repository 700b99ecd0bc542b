//! Deterministic, seeded fault injection.
//!
//! D-ORAM's threat model assumes *untrusted* memory: the BOB serial link,
//! the Secure Delegator's DRAM, and everything between them may corrupt,
//! drop, or delay data — or actively forge MACs. This module provides the
//! workspace-wide fault schedule used to exercise those scenarios:
//!
//! * [`FaultRates`] — per-million probabilities for each [`FaultKind`],
//! * [`FaultWindow`] — a cycle interval with its own rates; a [`SiteWindow`]
//!   scopes one to a single injection site (a targeted attack, one hostile
//!   sub-channel),
//! * [`FaultPlan`] — seed + base rates + site windows; the single source of
//!   injected faults, carried by `SystemConfig`/`SecureChannelConfig` and
//!   installed on each serial link with `Link::set_fault_plan`,
//! * [`FaultInjector`] — a per-site roller with an independent RNG stream
//!   derived from the plan seed, so the same seed always produces the same
//!   fault schedule regardless of how other subsystems consume randomness.
//!   It resolves its site's windows once into a rate timeline, so a roll
//!   costs a binary search, not a scan of every window.
//!
//! Determinism contract: an injector's decisions depend only on
//! `(plan.seed, site, sequence of rolls)`. Zero-rate rolls consume no
//! randomness, so a plan with all-zero rates behaves bit-identically to no
//! plan at all.

use crate::clock::MemCycle;
use crate::error::SimError;
use crate::rng::Xoshiro256;
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// Salt mixed into the plan seed so injector streams never collide with the
/// trace/ORAM RNG streams derived from the same experiment seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_FA17_FA17_FA17;

/// The kinds of fault the subsystem can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A link frame arrives with a bad CRC and must be retransmitted.
    CorruptFrame,
    /// A link frame vanishes entirely; the sender times out and resends.
    DropFrame,
    /// A link frame is held up by a configurable number of memory cycles.
    DelayFrame,
    /// A bit flips in a DRAM bucket payload, detectable by its MAC.
    BitFlip,
    /// An adversary substitutes a forged MAC (always detected; CMAC forgery
    /// without the key does not succeed in this model).
    ForgeMac,
    /// An active adversary re-supplies an *old*, correctly-MAC'd copy of the
    /// same bucket (or frame): per-item authentication passes, only a
    /// freshness check (Merkle root / sequence number) can reject it.
    ReplayStale,
    /// An active adversary splices a valid bucket to a *different* address:
    /// the payload and tag are authentic, just not for where they landed.
    RelocateBucket,
    /// A coordinated rollback burst: the adversary rewinds a region to an
    /// earlier consistent state (the checkpoint-rollback analogue on the
    /// memory bus). Scheduled in targeted bursts via [`AdversaryPlan`].
    RollbackBurst,
}

/// All fault kinds, in a fixed reporting order.
pub const FAULT_KINDS: [FaultKind; 8] = [
    FaultKind::CorruptFrame,
    FaultKind::DropFrame,
    FaultKind::DelayFrame,
    FaultKind::BitFlip,
    FaultKind::ForgeMac,
    FaultKind::ReplayStale,
    FaultKind::RelocateBucket,
    FaultKind::RollbackBurst,
];

impl FaultKind {
    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CorruptFrame => "corrupt_frame",
            FaultKind::DropFrame => "drop_frame",
            FaultKind::DelayFrame => "delay_frame",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::ForgeMac => "forge_mac",
            FaultKind::ReplayStale => "replay_stale",
            FaultKind::RelocateBucket => "relocate_bucket",
            FaultKind::RollbackBurst => "rollback_burst",
        }
    }

    /// Whether this kind models an *active* adversary (stale/misplaced but
    /// authentically tagged data) rather than accidental corruption.
    pub fn is_adversarial(self) -> bool {
        matches!(
            self,
            FaultKind::ReplayStale | FaultKind::RelocateBucket | FaultKind::RollbackBurst
        )
    }
}

/// Per-million injection rates, one per [`FaultKind`], plus the delay depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRates {
    /// Link frame corruption rate (parts per million per frame).
    pub corrupt_ppm: u32,
    /// Link frame drop rate (ppm per frame).
    pub drop_ppm: u32,
    /// Link frame delay rate (ppm per frame).
    pub delay_ppm: u32,
    /// DRAM payload bit-flip rate (ppm per bucket read).
    pub bitflip_ppm: u32,
    /// MAC forgery rate (ppm per bucket read).
    pub forge_mac_ppm: u32,
    /// Stale-bucket replay rate (ppm per bucket read).
    pub replay_ppm: u32,
    /// Bucket-relocation rate (ppm per bucket read).
    pub relocate_ppm: u32,
    /// Rollback-burst rate (ppm per bucket read).
    pub rollback_ppm: u32,
    /// Extra memory cycles a delayed frame is held (when a delay fires).
    pub delay_cycles: u64,
}

impl FaultRates {
    /// All-zero rates: injects nothing.
    pub const fn none() -> FaultRates {
        FaultRates {
            corrupt_ppm: 0,
            drop_ppm: 0,
            delay_ppm: 0,
            bitflip_ppm: 0,
            forge_mac_ppm: 0,
            replay_ppm: 0,
            relocate_ppm: 0,
            rollback_ppm: 0,
            delay_cycles: 0,
        }
    }

    /// Rates that fire only `kind`, at `ppm`.
    pub fn only(kind: FaultKind, ppm: u32) -> FaultRates {
        let mut rates = FaultRates::none();
        match kind {
            FaultKind::CorruptFrame => rates.corrupt_ppm = ppm,
            FaultKind::DropFrame => rates.drop_ppm = ppm,
            FaultKind::DelayFrame => rates.delay_ppm = ppm,
            FaultKind::BitFlip => rates.bitflip_ppm = ppm,
            FaultKind::ForgeMac => rates.forge_mac_ppm = ppm,
            FaultKind::ReplayStale => rates.replay_ppm = ppm,
            FaultKind::RelocateBucket => rates.relocate_ppm = ppm,
            FaultKind::RollbackBurst => rates.rollback_ppm = ppm,
        }
        rates
    }

    /// True when no fault kind can ever fire.
    pub fn is_zero(&self) -> bool {
        FAULT_KINDS.iter().all(|&k| self.rate(k) == 0)
    }

    /// True when any *adversarial* kind (replay / relocation / rollback)
    /// can fire.
    pub fn is_adversarial(&self) -> bool {
        FAULT_KINDS
            .iter()
            .any(|&k| k.is_adversarial() && self.rate(k) > 0)
    }

    /// The rate for one fault kind.
    pub fn rate(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::CorruptFrame => self.corrupt_ppm,
            FaultKind::DropFrame => self.drop_ppm,
            FaultKind::DelayFrame => self.delay_ppm,
            FaultKind::BitFlip => self.bitflip_ppm,
            FaultKind::ForgeMac => self.forge_mac_ppm,
            FaultKind::ReplayStale => self.replay_ppm,
            FaultKind::RelocateBucket => self.relocate_ppm,
            FaultKind::RollbackBurst => self.rollback_ppm,
        }
    }

    /// Rejects rates above one million ppm.
    pub fn validate(&self) -> Result<(), SimError> {
        for kind in FAULT_KINDS {
            let ppm = self.rate(kind);
            if ppm > 1_000_000 {
                return Err(SimError::config(format!(
                    "fault rate {} = {ppm} ppm exceeds 1_000_000",
                    kind.label()
                )));
            }
        }
        Ok(())
    }
}

/// A scheduled burst: between `start` (inclusive) and `end` (exclusive) the
/// window's rates replace the plan's base rates at the [`SiteWindow`]'s
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First memory cycle the window covers.
    pub start: MemCycle,
    /// First memory cycle after the window.
    pub end: MemCycle,
    /// Rates in effect inside the window.
    pub rates: FaultRates,
}

impl FaultWindow {
    /// True when `now` falls inside the window.
    pub fn contains(&self, now: MemCycle) -> bool {
        self.start.0 <= now.0 && now.0 < self.end.0
    }
}

/// A burst scoped to a single injection site: while active it overrides
/// the base rates, but *only* for the injector at exactly `site`. Every
/// other site keeps the base rates — the tool for modeling a targeted
/// attack (one hostile sub-channel) rather than ambient noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteWindow {
    /// The injection site this window targets.
    pub site: u64,
    /// The scheduled burst.
    pub window: FaultWindow,
}

/// The complete, deterministic fault schedule for a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for all injector RNG streams. Same seed ⇒ same fault schedule.
    pub seed: u64,
    /// Rates in effect outside every window.
    pub base: FaultRates,
    /// Site-scoped bursts. While one is active it overrides the base
    /// rates for its site alone; the last containing window wins.
    pub site_windows: Vec<SiteWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with uniform base rates and no windows.
    pub fn with_rates(seed: u64, base: FaultRates) -> FaultPlan {
        FaultPlan {
            seed,
            base,
            site_windows: Vec::new(),
        }
    }

    /// Builder-style: appends a site-scoped window.
    pub fn site_window(mut self, site: u64, window: FaultWindow) -> FaultPlan {
        self.site_windows.push(SiteWindow { site, window });
        self
    }

    /// True when neither the base rates nor any window can fire.
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.site_windows.iter().all(|s| s.window.rates.is_zero())
    }

    /// The rates the injector at `site` sees at `now`: the last containing
    /// site-scoped window for that site, else the base rates. This scan is
    /// the reference semantics: an injector answers the same question from
    /// its rate timeline, by binary search.
    pub fn rates_at_site(&self, site: u64, now: MemCycle) -> FaultRates {
        self.site_windows
            .iter()
            .rev()
            // Interval first: an injector's plan holds only its own site's
            // windows, so the site test almost never decides.
            .find(|s| s.window.contains(now) && s.site == site)
            .map_or(self.base, |s| s.window.rates)
    }

    /// Whether the plan can ever fire an adversarial kind (replay,
    /// relocation, rollback) anywhere in its schedule. Consumers use this
    /// to arm freshness checking only when an active adversary is modeled,
    /// keeping plain fault-injection runs bit-identical.
    pub fn has_adversary(&self) -> bool {
        self.base.is_adversarial()
            || self
                .site_windows
                .iter()
                .any(|s| s.window.rates.is_adversarial())
    }

    /// The plan's schedule *restricted to* `site`'s overlay windows: base
    /// rates of zero and only the windows scoped to `site`. An injector
    /// built from this derived plan fires only during those bursts — the
    /// overlay roller layered on top of a shared injector so plans without
    /// site windows stay bit-identical. [`FaultInjector::overlay`] builds
    /// that injector from the plan directly.
    pub fn site_plan(&self, site: u64) -> FaultPlan {
        FaultPlan {
            base: FaultRates::none(),
            ..self.at_site(site)
        }
    }

    /// The plan as `site` sees it: the base rates and only the windows
    /// scoped to `site`.
    fn at_site(&self, site: u64) -> FaultPlan {
        // Sized up front: a targeted site may hold hundreds of windows,
        // and growing the copy by doubling touches twice the memory.
        let here = |s: &&SiteWindow| s.site == site;
        let mut site_windows = Vec::with_capacity(self.site_windows.iter().filter(here).count());
        site_windows.extend(self.site_windows.iter().filter(here).copied());
        FaultPlan {
            seed: self.seed,
            base: self.base,
            site_windows,
        }
    }

    /// Validates base and window rates, and window bounds.
    pub fn validate(&self) -> Result<(), SimError> {
        self.base.validate()?;
        for w in self.site_windows.iter().map(|s| &s.window) {
            w.rates.validate()?;
            if w.start.0 >= w.end.0 {
                return Err(SimError::config(format!(
                    "fault window [{}, {}) is empty",
                    w.start.0, w.end.0
                )));
            }
        }
        Ok(())
    }

    /// Creates the injector for one site (a link direction, a sub-channel…).
    ///
    /// Distinct sites get independent RNG streams from the same seed, so the
    /// schedule at one site is unaffected by traffic at another. The
    /// injector keeps only `site`'s windows, so a roll never scans another
    /// site's bursts.
    pub fn injector(&self, site: u64) -> FaultInjector {
        FaultInjector {
            plan: self.at_site(site),
            timeline: OnceCell::new(),
            armed: !self.is_zero(),
            rng: Xoshiro256::stream(self.seed ^ FAULT_STREAM_SALT, site),
            counts: FaultCounts::default(),
        }
    }
}

/// Running totals of injected faults, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Link frames corrupted.
    pub corrupt_frames: u64,
    /// Link frames dropped.
    pub drop_frames: u64,
    /// Link frames delayed.
    pub delay_frames: u64,
    /// DRAM payload bit flips.
    pub bit_flips: u64,
    /// Forged MACs substituted.
    pub forged_macs: u64,
    /// Stale bucket/frame replays supplied.
    pub replays: u64,
    /// Valid buckets spliced to another address.
    pub relocations: u64,
    /// Rollback-burst stale serves supplied.
    pub rollback_bursts: u64,
}

impl FaultCounts {
    /// Total faults across all kinds.
    pub fn total(&self) -> u64 {
        self.corrupt_frames
            + self.drop_frames
            + self.delay_frames
            + self.bit_flips
            + self.forged_macs
            + self.replays
            + self.relocations
            + self.rollback_bursts
    }

    /// Adds another counter set into this one (for per-site aggregation).
    pub fn absorb(&mut self, other: &FaultCounts) {
        self.corrupt_frames += other.corrupt_frames;
        self.drop_frames += other.drop_frames;
        self.delay_frames += other.delay_frames;
        self.bit_flips += other.bit_flips;
        self.forged_macs += other.forged_macs;
        self.replays += other.replays;
        self.relocations += other.relocations;
        self.rollback_bursts += other.rollback_bursts;
    }

    fn bump(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CorruptFrame => self.corrupt_frames += 1,
            FaultKind::DropFrame => self.drop_frames += 1,
            FaultKind::DelayFrame => self.delay_frames += 1,
            FaultKind::BitFlip => self.bit_flips += 1,
            FaultKind::ForgeMac => self.forged_macs += 1,
            FaultKind::ReplayStale => self.replays += 1,
            FaultKind::RelocateBucket => self.relocations += 1,
            FaultKind::RollbackBurst => self.rollback_bursts += 1,
        }
    }
}

/// A site's rates as a step function of time: `(cycle, rates)` entries
/// sorted by cycle, the first at cycle 0, each holding until the next.
#[derive(Debug, Clone)]
struct Timeline(Vec<(u64, FaultRates)>);

impl Timeline {
    /// Resolves `plan`'s windows, which must all target one site, into a
    /// timeline. "The last containing window wins" is decided here, once:
    /// a sweep over the window starts and ends keeps the begun windows in
    /// a set by their place in the list, and the latest-listed one sets
    /// the rates until the next start or end. A window that ends where or
    /// before it starts contains no cycle, so it is left out (an inverted
    /// window's edges would come in the wrong order).
    fn build(plan: &FaultPlan) -> Timeline {
        let mut edges: Vec<(u64, usize)> = Vec::with_capacity(2 * plan.site_windows.len());
        for (i, w) in plan.site_windows.iter().map(|s| &s.window).enumerate() {
            if w.start.0 < w.end.0 {
                edges.push((w.start.0, i));
                edges.push((w.end.0, i));
            }
        }
        edges.sort_unstable();
        let mut begun = BTreeSet::new();
        let mut steps = Vec::with_capacity(edges.len() + 1);
        steps.push((0, plan.base));
        let mut at = 0;
        while at < edges.len() {
            let cycle = edges[at].0;
            while at < edges.len() && edges[at].0 == cycle {
                // A window's start is its first edge, its end the second.
                let i = edges[at].1;
                if !begun.remove(&i) {
                    begun.insert(i);
                }
                at += 1;
            }
            let rates = begun
                .last()
                .map_or(plan.base, |&i| plan.site_windows[i].window.rates);
            match steps.last_mut() {
                Some(last) if last.0 == cycle => last.1 = rates,
                Some(last) if last.1 == rates => {}
                _ => steps.push((cycle, rates)),
            }
        }
        Timeline(steps)
    }

    /// The rates in effect at `now`.
    fn at(&self, now: MemCycle) -> &FaultRates {
        // The first entry is at cycle 0, so at least one entry precedes.
        let next = self.0.partition_point(|&(cycle, _)| cycle <= now.0);
        &self.0[next - 1].1
    }
}

/// A per-site fault roller with its own RNG stream and counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The plan restricted to the injector's site ([`FaultPlan::at_site`]).
    plan: FaultPlan,
    /// `plan` as a [`Timeline`], built on the first lookup: a plan may
    /// list hundreds of windows that start after the run ends, and the
    /// build should not weigh on setting a simulation up.
    timeline: OnceCell<Timeline>,
    /// Whether the whole plan can fire, at this site or any other:
    /// [`FaultInjector::is_disabled`] answers for the plan, so a consumer's
    /// clean fast path does not depend on which sites the windows target.
    armed: bool,
    rng: Xoshiro256,
    counts: FaultCounts,
}

impl FaultInjector {
    /// An injector that never fires (for sites with no plan).
    pub fn disabled() -> FaultInjector {
        FaultPlan::none().injector(0)
    }

    /// The overlay roller for `site`: it rolls only the windows scoped to
    /// `site`, never the base rates, and is disabled unless one of them can
    /// fire. It is the injector `plan.site_plan(site).injector(site)`
    /// builds, made with one copy of the site's windows instead of two.
    pub fn overlay(plan: &FaultPlan, site: u64) -> FaultInjector {
        let mut inj = plan.injector(site);
        inj.plan.base = FaultRates::none();
        inj.armed = !inj.plan.is_zero();
        inj
    }

    /// Rolls whether a fault of `kind` fires at `now`, bumping counters on a
    /// hit. A zero rate consumes no randomness.
    pub fn roll(&mut self, kind: FaultKind, now: MemCycle) -> bool {
        let ppm = self.rates(now).rate(kind);
        if ppm == 0 {
            return false;
        }
        let hit = self.rng.gen_below(1_000_000) < ppm as u64;
        if hit {
            self.counts.bump(kind);
        }
        hit
    }

    /// The configured delay depth at `now` (memory cycles).
    pub fn delay_cycles(&self, now: MemCycle) -> u64 {
        self.rates(now).delay_cycles
    }

    /// The rates this site sees at `now`, as
    /// [`FaultPlan::rates_at_site`] gives them.
    fn rates(&self, now: MemCycle) -> &FaultRates {
        self.timeline
            .get_or_init(|| Timeline::build(&self.plan))
            .at(now)
    }

    /// Flips one uniformly chosen bit of `payload` (no-op when empty).
    /// Does not bump counters; pair with a [`FaultKind::BitFlip`] roll.
    pub fn flip_bit(&mut self, payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let bit = self.rng.gen_below(payload.len() as u64 * 8);
        payload[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    /// Counters accumulated so far at this site.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// True when the plan this injector came from can never fire, at this
    /// site or any other.
    pub fn is_disabled(&self) -> bool {
        !self.armed
    }
}

/// Salt mixed into the adversary seed for burst-start jitter, so the attack
/// schedule never shares a stream with the injectors it drives.
const ADVERSARY_STREAM_SALT: u64 = 0xAD5A_AD5A_AD5A_AD5A;

/// One targeted attack burst: `kind` fires at `ppm` against `site` for
/// `len` cycles, optionally repeating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryBurst {
    /// Injection site under attack (a sub-channel, a link direction…).
    pub site: u64,
    /// The attack mounted during the burst.
    pub kind: FaultKind,
    /// First cycle of the first burst (before jitter).
    pub start: MemCycle,
    /// Burst length in memory cycles.
    pub len: u64,
    /// Cycles between burst starts; `0` means a single burst.
    pub period: u64,
    /// Number of bursts when `period > 0` (`0` is treated as 1).
    pub repeats: u32,
    /// Injection rate inside the burst (parts per million).
    pub ppm: u32,
}

/// A targeted, bursty, seeded-deterministic attack schedule.
///
/// Where [`FaultPlan`] models ambient noise plus hand-placed windows, an
/// `AdversaryPlan` models an *active adversary*: named attack kinds aimed
/// at specific sites in bursts whose exact start cycles are drawn
/// deterministically from the plan seed (so two runs with the same seed
/// face bit-identical attacks, but the schedule is not hand-predictable).
/// It compiles down to ordinary [`SiteWindow`]s, so everything downstream
/// — injectors, overlays, snapshots — is unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdversaryPlan {
    /// Seed for both the compiled injector streams and the burst jitter.
    pub seed: u64,
    /// Maximum start-cycle jitter applied to every burst occurrence.
    pub jitter: u64,
    /// The attack bursts, in declaration order.
    pub bursts: Vec<AdversaryBurst>,
}

impl AdversaryPlan {
    /// An empty schedule (attacks nothing) for `seed`.
    pub fn new(seed: u64) -> AdversaryPlan {
        AdversaryPlan {
            seed,
            jitter: 0,
            bursts: Vec::new(),
        }
    }

    /// Builder-style: sets the per-occurrence start jitter.
    pub fn jitter(mut self, jitter: u64) -> AdversaryPlan {
        self.jitter = jitter;
        self
    }

    /// Builder-style: appends an attack burst.
    pub fn burst(mut self, burst: AdversaryBurst) -> AdversaryPlan {
        self.bursts.push(burst);
        self
    }

    /// Validates burst shapes and rates.
    pub fn validate(&self) -> Result<(), SimError> {
        for b in &self.bursts {
            if b.len == 0 {
                return Err(SimError::config(format!(
                    "adversary burst of {} at site {:#x} has zero length",
                    b.kind.label(),
                    b.site
                )));
            }
            if b.ppm > 1_000_000 {
                return Err(SimError::config(format!(
                    "adversary burst rate {} ppm exceeds 1_000_000",
                    b.ppm
                )));
            }
        }
        Ok(())
    }

    /// Compiles the schedule into a [`FaultPlan`] of site-scoped windows.
    ///
    /// Deterministic in `seed`: each burst occurrence's start is offset by
    /// a jitter draw from a stream keyed on the burst's index, so adding or
    /// reordering bursts never silently reshuffles another burst's timing.
    pub fn compile(&self) -> FaultPlan {
        let mut plan = FaultPlan {
            seed: self.seed,
            ..FaultPlan::none()
        };
        for (i, b) in self.bursts.iter().enumerate() {
            let mut rng = Xoshiro256::stream(self.seed ^ ADVERSARY_STREAM_SALT, i as u64);
            let occurrences = if b.period == 0 { 1 } else { b.repeats.max(1) };
            for r in 0..occurrences as u64 {
                let offset = if self.jitter == 0 {
                    0
                } else {
                    rng.gen_below(self.jitter + 1)
                };
                let start = b
                    .start
                    .0
                    .saturating_add(r * b.period)
                    .saturating_add(offset);
                plan = plan.site_window(
                    b.site,
                    FaultWindow {
                        start: MemCycle(start),
                        end: MemCycle(start.saturating_add(b.len)),
                        rates: FaultRates::only(b.kind, b.ppm),
                    },
                );
            }
        }
        plan
    }
}

crate::impl_codec!(struct FaultCounts {
    corrupt_frames,
    drop_frames,
    delay_frames,
    bit_flips,
    forged_macs,
    replays,
    relocations,
    rollback_bursts,
});

// The plan is configuration and the timeline is derived from it; only the
// roll cursor and tallies move.
crate::impl_snapshot!(FaultInjector { rng, counts } skip { plan, timeline, armed });

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn link_rates(ppm: u32) -> FaultRates {
        FaultRates {
            corrupt_ppm: ppm,
            ..FaultRates::none()
        }
    }

    #[test]
    fn zero_plan_never_fires_and_uses_no_rng() {
        let mut inj = FaultInjector::disabled();
        for i in 0..1000 {
            assert!(!inj.roll(FaultKind::CorruptFrame, MemCycle(i)));
            assert!(!inj.roll(FaultKind::BitFlip, MemCycle(i)));
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::with_rates(42, link_rates(250_000));
        let mut a = plan.injector(3);
        let mut b = plan.injector(3);
        let seq_a: Vec<bool> = (0..500)
            .map(|i| a.roll(FaultKind::CorruptFrame, MemCycle(i)))
            .collect();
        let seq_b: Vec<bool> = (0..500)
            .map(|i| b.roll(FaultKind::CorruptFrame, MemCycle(i)))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&h| h), "250k ppm over 500 rolls must hit");
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan::with_rates(42, link_rates(500_000));
        let mut a = plan.injector(0);
        let mut b = plan.injector(1);
        let seq_a: Vec<bool> = (0..200)
            .map(|i| a.roll(FaultKind::CorruptFrame, MemCycle(i)))
            .collect();
        let seq_b: Vec<bool> = (0..200)
            .map(|i| b.roll(FaultKind::CorruptFrame, MemCycle(i)))
            .collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn rates_roughly_match_ppm() {
        let plan = FaultPlan::with_rates(7, link_rates(100_000)); // 10%
        let mut inj = plan.injector(0);
        let hits = (0..100_000)
            .filter(|&i| inj.roll(FaultKind::CorruptFrame, MemCycle(i)))
            .count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.1).abs() < 0.01, "hit fraction {frac}");
        assert_eq!(inj.counts().corrupt_frames, hits as u64);
    }

    #[test]
    fn windows_override_base() {
        let plan = FaultPlan::with_rates(1, FaultRates::none()).site_window(
            0,
            FaultWindow {
                start: MemCycle(100),
                end: MemCycle(200),
                rates: link_rates(1_000_000),
            },
        );
        let mut inj = plan.injector(0);
        assert!(!inj.roll(FaultKind::CorruptFrame, MemCycle(99)));
        assert!(inj.roll(FaultKind::CorruptFrame, MemCycle(100)));
        assert!(inj.roll(FaultKind::CorruptFrame, MemCycle(199)));
        assert!(!inj.roll(FaultKind::CorruptFrame, MemCycle(200)));
        assert_eq!(inj.counts().corrupt_frames, 2);
    }

    #[test]
    fn later_windows_win() {
        let burst = FaultWindow {
            start: MemCycle(0),
            end: MemCycle(1000),
            rates: link_rates(1_000_000),
        };
        let quiet = FaultWindow {
            start: MemCycle(500),
            end: MemCycle(600),
            rates: FaultRates::none(),
        };
        let plan = FaultPlan::with_rates(1, FaultRates::none())
            .site_window(2, burst)
            .site_window(2, quiet);
        let at = |now| plan.rates_at_site(2, MemCycle(now)).corrupt_ppm;
        assert_eq!(at(499), 1_000_000);
        assert_eq!(at(550), 0);
        assert_eq!(at(600), 1_000_000);
        assert_eq!(at(1000), 0);
    }

    #[test]
    fn site_windows_target_one_site_only() {
        let burst = FaultWindow {
            start: MemCycle(100),
            end: MemCycle(200),
            rates: link_rates(1_000_000),
        };
        let plan = FaultPlan::with_rates(5, FaultRates::none()).site_window(7, burst);
        assert!(!plan.is_zero(), "a site window arms the plan");
        // The targeted site fires inside the window; other sites never do.
        let mut hit = plan.injector(7);
        let mut other = plan.injector(8);
        assert!(!hit.roll(FaultKind::CorruptFrame, MemCycle(99)));
        assert!(hit.roll(FaultKind::CorruptFrame, MemCycle(150)));
        assert!(!other.roll(FaultKind::CorruptFrame, MemCycle(150)));
        assert_eq!(other.counts().total(), 0);
        // Disabled answers for the whole plan, not the site.
        assert!(!other.is_disabled());
    }

    #[test]
    fn site_plan_extracts_the_overlay_schedule() {
        let burst = FaultWindow {
            start: MemCycle(10),
            end: MemCycle(20),
            rates: link_rates(1_000_000),
        };
        let plan = FaultPlan::with_rates(5, link_rates(250_000)).site_window(3, burst);
        let derived = plan.site_plan(3);
        // The derived plan drops base rates and keeps only site 3's bursts.
        assert_eq!(derived.base, FaultRates::none());
        assert_eq!(
            derived.site_windows,
            vec![SiteWindow {
                site: 3,
                window: burst
            }]
        );
        assert!(plan.site_plan(4).is_zero(), "untargeted sites get nothing");
    }

    #[test]
    fn siteless_plans_roll_identically_with_the_site_field() {
        // The site-aware lookup must not change the schedule of a plan
        // with no site windows (legacy determinism contract).
        let plan = FaultPlan::with_rates(42, link_rates(250_000));
        let mut inj = plan.injector(3);
        for i in 0..500 {
            assert_eq!(plan.rates_at_site(3, MemCycle(i)), plan.base);
            inj.roll(FaultKind::CorruptFrame, MemCycle(i));
        }
        assert!(inj.counts().total() > 0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let over = FaultPlan::with_rates(0, link_rates(1_000_001));
        assert!(over.validate().is_err());
        let empty_window = FaultPlan::none().site_window(
            0,
            FaultWindow {
                start: MemCycle(5),
                end: MemCycle(5),
                rates: FaultRates::none(),
            },
        );
        assert!(empty_window.validate().is_err());
        assert!(FaultPlan::with_rates(0, link_rates(1_000_000))
            .validate()
            .is_ok());
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let plan = FaultPlan::with_rates(9, FaultRates::none());
        let mut inj = plan.injector(0);
        let original = [0u8; 64];
        for _ in 0..100 {
            let mut payload = original;
            inj.flip_bit(&mut payload);
            let flipped: u32 = payload
                .iter()
                .zip(original.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1);
        }
        // Empty payload is a no-op, not a panic.
        inj.flip_bit(&mut []);
    }

    #[test]
    fn adversarial_kinds_are_flagged_and_rated() {
        for kind in FAULT_KINDS {
            let rates = FaultRates::only(kind, 123);
            assert_eq!(rates.rate(kind), 123);
            assert_eq!(
                rates.is_adversarial(),
                kind.is_adversarial(),
                "{}",
                kind.label()
            );
            // Exactly one kind carries the rate.
            let others: u32 = FAULT_KINDS
                .iter()
                .filter(|&&k| k != kind)
                .map(|&k| rates.rate(k))
                .sum();
            assert_eq!(others, 0);
        }
        assert!(FaultKind::ReplayStale.is_adversarial());
        assert!(!FaultKind::BitFlip.is_adversarial());
    }

    #[test]
    fn plan_reports_adversary_presence() {
        assert!(!FaultPlan::none().has_adversary());
        let noisy = FaultPlan::with_rates(1, link_rates(500_000));
        assert!(!noisy.has_adversary(), "random faults are not an adversary");
        let replaying = FaultPlan::with_rates(1, FaultRates::only(FaultKind::ReplayStale, 10));
        assert!(replaying.has_adversary());
        let targeted = FaultPlan::none().site_window(
            9,
            FaultWindow {
                start: MemCycle(0),
                end: MemCycle(100),
                rates: FaultRates::only(FaultKind::RollbackBurst, 1_000_000),
            },
        );
        assert!(targeted.has_adversary());
    }

    #[test]
    fn adversary_plan_compiles_to_targeted_windows() {
        let plan = AdversaryPlan::new(77)
            .burst(AdversaryBurst {
                site: 0x5D11,
                kind: FaultKind::ReplayStale,
                start: MemCycle(1_000),
                len: 500,
                period: 10_000,
                repeats: 3,
                ppm: 1_000_000,
            })
            .burst(AdversaryBurst {
                site: 0x5D12,
                kind: FaultKind::RelocateBucket,
                start: MemCycle(2_000),
                len: 250,
                period: 0,
                repeats: 0,
                ppm: 800_000,
            });
        assert!(plan.validate().is_ok());
        let compiled = plan.compile();
        assert_eq!(compiled.seed, 77);
        assert!(compiled.base.is_zero());
        assert_eq!(compiled.site_windows.len(), 4, "3 repeats + 1 one-shot");
        assert!(compiled.has_adversary());
        // The repeating burst hits only its target site.
        assert_eq!(
            compiled.rates_at_site(0x5D11, MemCycle(1_100)).replay_ppm,
            1_000_000
        );
        assert_eq!(
            compiled.rates_at_site(0x5D12, MemCycle(1_100)),
            FaultRates::none()
        );
        assert_eq!(
            compiled.rates_at_site(0x5D12, MemCycle(2_100)).relocate_ppm,
            800_000
        );
        // Deterministic: recompiling yields the identical schedule.
        assert_eq!(compiled, plan.compile());
    }

    #[test]
    fn adversary_jitter_is_seeded_and_bounded() {
        let base = AdversaryPlan::new(5).jitter(64).burst(AdversaryBurst {
            site: 1,
            kind: FaultKind::RollbackBurst,
            start: MemCycle(10_000),
            len: 100,
            period: 1_000,
            repeats: 8,
            ppm: 1_000_000,
        });
        let a = base.compile();
        let b = base.compile();
        assert_eq!(a, b, "same seed, same jittered schedule");
        let mut other = base.clone();
        other.seed = 6;
        assert_ne!(a, other.compile(), "a different seed moves the bursts");
        for (i, s) in a.site_windows.iter().enumerate() {
            let nominal = 10_000 + i as u64 * 1_000;
            assert!(
                (nominal..=nominal + 64).contains(&s.window.start.0),
                "occurrence {i} starts at {}",
                s.window.start.0
            );
        }
    }

    #[test]
    fn adversary_plan_validation_rejects_bad_bursts() {
        let empty = AdversaryPlan::new(0).burst(AdversaryBurst {
            site: 0,
            kind: FaultKind::ReplayStale,
            start: MemCycle(0),
            len: 0,
            period: 0,
            repeats: 0,
            ppm: 1,
        });
        assert!(empty.validate().is_err());
        let over = AdversaryPlan::new(0).burst(AdversaryBurst {
            site: 0,
            kind: FaultKind::ReplayStale,
            start: MemCycle(0),
            len: 10,
            period: 0,
            repeats: 0,
            ppm: 1_000_001,
        });
        assert!(over.validate().is_err());
        // Everything the compiler emits passes FaultPlan validation too.
        let ok = AdversaryPlan::new(3).burst(AdversaryBurst {
            site: 2,
            kind: FaultKind::RelocateBucket,
            start: MemCycle(50),
            len: 10,
            period: 100,
            repeats: 4,
            ppm: 1_000_000,
        });
        assert!(ok.validate().is_ok());
        assert!(ok.compile().validate().is_ok());
    }

    /// The sites the random plans target; lookups also ask an untargeted
    /// one.
    const SITES: [u64; 3] = [0, 7, 0x5D10];

    /// One random window: (site index, start mode, start), (length mode,
    /// length) and (kind index, ppm, delay). Start mode 0 starts the
    /// window at cycle 0, mode 1 near the end of time; length mode 0
    /// saturates the end at `u64::MAX` as [`AdversaryPlan::compile`] does,
    /// mode 1 ends the window where it starts and mode 2 before it starts,
    /// so that it never contains a cycle.
    type WindowSpec = ((usize, u64, u64), (u64, u64), (usize, u32, u64));

    fn random_plan(seed: u64, base_kind: usize, specs: &[WindowSpec]) -> FaultPlan {
        let mut plan = FaultPlan::with_rates(
            seed,
            FaultRates {
                delay_cycles: 3,
                ..FaultRates::only(FAULT_KINDS[base_kind], 1_000)
            },
        );
        for &((site, start_mode, start), (len_mode, len), (kind, ppm, delay)) in specs {
            let start = match start_mode {
                0 => 0,
                1 => u64::MAX - start,
                _ => start,
            };
            let end = match len_mode {
                0 => start.saturating_add(u64::MAX),
                1 => start,
                2 => start.saturating_sub(len),
                _ => start.saturating_add(len),
            };
            let window = FaultWindow {
                start: MemCycle(start),
                end: MemCycle(end),
                rates: FaultRates {
                    delay_cycles: delay,
                    ..FaultRates::only(FAULT_KINDS[kind], ppm)
                },
            };
            plan = plan.site_window(SITES[site], window);
        }
        plan
    }

    /// Every window edge and its neighbours, the ends of time, and `extra`.
    fn probe_cycles(plan: &FaultPlan, extra: &[u64]) -> Vec<u64> {
        let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
        for w in plan.site_windows.iter().map(|s| s.window) {
            for edge in [w.start.0, w.end.0] {
                probes.extend([edge.saturating_sub(1), edge, edge.saturating_add(1)]);
            }
        }
        probes.extend_from_slice(extra);
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// An injector's timeline gives every site the rates the window
        /// scan gives, at every window edge and at random cycles, asked in
        /// time order and in random order; `delay_cycles` included. Each
        /// site's overlay is the injector of its site plan.
        #[test]
        fn timeline_matches_the_window_scan(
            seed in 0u64..1_000,
            base_kind in 0usize..8,
            specs in prop::collection::vec(
                (
                    (0usize..3, 0u64..5, 0u64..3_000),
                    (0u64..7, 1u64..1_500),
                    (0usize..8, 0u32..1_000_001, 0u64..40),
                ),
                0..24,
            ),
            extra in prop::collection::vec(0u64..6_000, 0..64),
        ) {
            let plan = random_plan(seed, base_kind, &specs);
            let random_order = probe_cycles(&plan, &extra);
            let mut time_order = random_order.clone();
            time_order.sort_unstable();
            for site in SITES.into_iter().chain([99]) {
                let overlay = FaultInjector::overlay(&plan, site);
                let reference = plan.site_plan(site).injector(site);
                prop_assert_eq!(&overlay.plan, &reference.plan);
                prop_assert_eq!(overlay.armed, reference.armed);
                prop_assert_eq!(&overlay.rng, &reference.rng);
                for order in [&time_order, &random_order] {
                    let inj = plan.injector(site);
                    for &now in order.iter() {
                        let want = plan.rates_at_site(site, MemCycle(now));
                        prop_assert_eq!(*inj.rates(MemCycle(now)), want, "site {} at {}", site, now);
                        prop_assert_eq!(inj.delay_cycles(MemCycle(now)), want.delay_cycles);
                    }
                }
            }
        }
    }

    /// The timeline keeps only the steps where the rates change, and the
    /// latest-listed begun window wins where windows overlap.
    #[test]
    fn timeline_steps_where_the_top_window_changes() {
        let window = |start: u64, end: u64, ppm: u32| FaultWindow {
            start: MemCycle(start),
            end: MemCycle(end),
            rates: link_rates(ppm),
        };
        let plan = FaultPlan::with_rates(1, link_rates(1))
            .site_window(4, window(0, 100, 2))
            .site_window(4, window(50, 80, 3))
            .site_window(4, window(60, u64::MAX, 2))
            .site_window(4, window(70, 70, 9));
        let steps: Vec<(u64, u32)> = Timeline::build(&plan.at_site(4))
            .0
            .iter()
            .map(|&(cycle, rates)| (cycle, rates.corrupt_ppm))
            .collect();
        assert_eq!(steps, [(0, 2), (50, 3), (60, 2), (u64::MAX, 1)]);
    }

    /// The injector as it rolled before the timeline: rates from the
    /// plan's window scan, then the same draw from the same stream.
    struct ScanRoller {
        plan: FaultPlan,
        site: u64,
        rng: Xoshiro256,
        hits: [u64; 8],
    }

    impl ScanRoller {
        fn roll(&mut self, kind: FaultKind, now: MemCycle) -> bool {
            let ppm = self.plan.rates_at_site(self.site, now).rate(kind);
            let hit = ppm > 0 && self.rng.gen_below(1_000_000) < ppm as u64;
            if hit {
                let k = FAULT_KINDS.iter().position(|&k| k == kind).unwrap();
                self.hits[k] += 1;
            }
            hit
        }
    }

    /// Over a long stream of rolls of every kind against a plan shaped
    /// like an attacked run's (three kinds of repeating burst on one site,
    /// overlapping windows, ambient base rates), the injector hits, and
    /// draws from its stream, exactly where the window scan does.
    #[test]
    fn injector_rolls_like_the_window_scan() {
        let site = 0x5D10;
        let mut attacks = AdversaryPlan::new(11).jitter(100);
        for (i, kind) in [
            FaultKind::ReplayStale,
            FaultKind::RelocateBucket,
            FaultKind::RollbackBurst,
        ]
        .into_iter()
        .enumerate()
        {
            attacks = attacks.burst(AdversaryBurst {
                site,
                kind,
                start: MemCycle(800 + i as u64 * 800),
                len: 1_000,
                period: 2_400,
                repeats: 200,
                ppm: 150_000,
            });
        }
        let plan = FaultPlan {
            base: FaultRates {
                corrupt_ppm: 20_000,
                bitflip_ppm: 50_000,
                ..FaultRates::none()
            },
            ..attacks.compile()
        }
        .site_window(
            site,
            FaultWindow {
                start: MemCycle(9_000),
                end: MemCycle(12_000),
                rates: FaultRates::only(FaultKind::ForgeMac, 1_000_000),
            },
        );
        let mut inj = plan.injector(site);
        let mut scan = ScanRoller {
            plan: plan.clone(),
            site,
            rng: Xoshiro256::stream(plan.seed ^ FAULT_STREAM_SALT, site),
            hits: [0; 8],
        };
        let mut steps = Xoshiro256::seed_from(5);
        let mut now = 0;
        for _ in 0..60_000 {
            now += steps.gen_below(4);
            for kind in FAULT_KINDS {
                let at = MemCycle(now);
                assert_eq!(inj.roll(kind, at), scan.roll(kind, at), "{kind:?} at {now}");
            }
        }
        assert_eq!(inj.rng, scan.rng, "the two streams drew alike");
        let c = inj.counts();
        let counted = [
            c.corrupt_frames,
            c.drop_frames,
            c.delay_frames,
            c.bit_flips,
            c.forged_macs,
            c.replays,
            c.relocations,
            c.rollback_bursts,
        ];
        assert_eq!(counted, scan.hits);
        for k in [0, 3, 4, 5, 6, 7] {
            assert!(counted[k] > 0, "{:?} never fired", FAULT_KINDS[k]);
        }
    }
}
