//! The BOB serial link.
//!
//! Each direction is an independent serializer: a packet occupies the lane
//! for `ceil(bytes / bytes_per_cycle)` cycles, then travels for the fixed
//! link+buffer latency (15 ns in Table II). The default bandwidth makes one
//! serial link comparable to one DDR3-1600 parallel channel (§III-A:
//! "the peak bandwidth of one serial link channel is set to be comparable
//! with that of one parallel link channel"), i.e. 16 B per 1.25 ns tCK.
//!
//! # Fault model and recovery
//!
//! High-speed serial links protect frames with a CRC and run a NAK/replay
//! protocol. This module models the full recovery loop deterministically:
//!
//! * **Corrupt frame** — the receiver detects the bad CRC and NAKs; the
//!   sender replays after one extra round trip plus re-serialization.
//! * **Dropped frame** — nothing arrives, so no NAK either; the sender's
//!   retransmission timer expires ([`LinkConfig::retry_timeout`]) and the
//!   frame is replayed.
//! * **Delayed frame** — the frame is held for a configured number of
//!   memory cycles but arrives intact (no retry).
//!
//! Each replay attempt adds exponential backoff
//! ([`LinkConfig::backoff_base`] · 2^attempt, capped) and retries are
//! bounded by [`LinkConfig::max_retries`]; a frame that exhausts its budget
//! is surfaced through [`Link::fault`] as a typed
//! [`SimError::LinkTimeout`] so the system layer can fail-stop. All penalty
//! cycles are charged up front on the frame's arrival time, which keeps the
//! link a deterministic function of (config, fault plan, send sequence) —
//! a faulty run delivers exactly the same frames as a clean run, later.
//!
//! A link starts unarmed: its faults come only from a [`FaultPlan`]
//! installed with [`Link::set_fault_plan`].

use doram_obs::{EventKind, SharedRecorder, Subsystem};
use doram_sim::fault::{FaultCounts, FaultInjector, FaultKind, FaultPlan};
use doram_sim::health::{HealthMonitor, HealthPolicy, HealthState};
use doram_sim::{MemCycle, SimError};
use std::collections::VecDeque;

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Serialization bandwidth per direction, bytes per memory cycle.
    pub bytes_per_cycle: u64,
    /// One-way propagation + buffer latency, in memory cycles.
    pub latency: MemCycle,
    /// Maximum packets queued waiting for the serializer, per direction.
    pub tx_queue: usize,
    /// Maximum retransmissions per frame before the link reports a
    /// [`SimError::LinkTimeout`] (the frame is still delivered so the
    /// simulation can drain, but the fault is latched for fail-stop).
    pub max_retries: u32,
    /// Sender-side retransmission timeout for dropped frames, in memory
    /// cycles. Must exceed a round trip to be meaningful.
    pub retry_timeout: MemCycle,
    /// Base of the exponential backoff added per replay attempt
    /// (attempt `k` waits `backoff_base * 2^(k-1)`, capped at 2^6).
    pub backoff_base: MemCycle,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            // 12.8 GB/s — one DDR3-1600 x64 channel — is 16 B per tCK.
            bytes_per_cycle: 16,
            // Table II charges 15 ns of "buffer logic and link latency"
            // per transfer; a transfer crosses the link twice (request +
            // response), so each direction carries half: 7.5 ns = 6 tCK.
            latency: MemCycle::from_nanos(7.5),
            tx_queue: 32,
            max_retries: 8,
            // > 2 * latency + worst-case serialization (5 cycles for 72 B).
            retry_timeout: MemCycle(32),
            backoff_base: MemCycle(4),
        }
    }
}

/// Per-direction recovery statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Frames replayed, for any reason (CRC NAK or drop timeout).
    pub retransmissions: u64,
    /// Replays triggered by CRC failures (corrupt frames).
    pub crc_errors: u64,
    /// Replays triggered by retransmission timeouts (dropped frames).
    pub timeouts: u64,
    /// Frames whose retry budget ran out (each also latches a fault).
    pub exhausted_retries: u64,
    /// Stale duplicate frames re-supplied by an adversary (old,
    /// correctly-MAC'd copies) and discarded by the receiver's sequence
    /// check. The genuine frame is unaffected.
    pub stale_drops: u64,
    /// Total extra memory cycles spent recovering (NAK round trips,
    /// timeout waits, backoff, re-serialization, injected delays).
    pub recovery_cycles: u64,
}

impl LinkStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, other: &LinkStats) {
        self.retransmissions += other.retransmissions;
        self.crc_errors += other.crc_errors;
        self.timeouts += other.timeouts;
        self.exhausted_retries += other.exhausted_retries;
        self.stale_drops += other.stale_drops;
        self.recovery_cycles += other.recovery_cycles;
    }
}

doram_sim::impl_codec!(struct LinkStats {
    retransmissions,
    crc_errors,
    timeouts,
    exhausted_retries,
    stale_drops,
    recovery_cycles,
});

/// One queued frame waiting for the serializer.
#[derive(Debug, Clone)]
struct TxEntry<M> {
    /// Wire bytes (serialization cost).
    bytes: u64,
    msg: M,
    /// Interference blame class tag ([`doram_obs::BlameClass`]).
    blame: u8,
    /// Cycle the frame was queued (wait = serialize start − enq).
    enq: u64,
    /// The direction's per-class busy prefix at enqueue, settled against
    /// when serialization begins.
    busy_snap: [u64; doram_obs::BLAME_CLASSES],
}

/// One direction of a serial link carrying messages of type `M`.
#[derive(Debug, Clone)]
struct Direction<M> {
    cfg: LinkConfig,
    /// Waiting to serialize.
    tx: VecDeque<TxEntry<M>>,
    /// Serializer frees at this cycle.
    tx_busy_until: MemCycle,
    /// In flight: (arrival cycle, wire bytes, message), arrival-ordered.
    flying: VecDeque<(MemCycle, u64, M)>,
    /// Total bytes ever accepted (for utilization accounting).
    bytes_sent: u64,
    /// Fault-injection state for this direction.
    injector: FaultInjector,
    /// Circuit-breaker bookkeeping for this direction's condition.
    health: HealthMonitor,
    /// Recovery accounting.
    stats: LinkStats,
    /// First exhausted-retry fault, latched for fail-stop escalation.
    fault: Option<SimError>,
    /// Which end this direction feeds, for fault messages.
    label: &'static str,
    /// Direction index (0 = cpu->mem, 1 = mem->cpu), the health event's
    /// component id.
    dir_id: u64,
    /// Trace recorder; `None` (the default) keeps the hot path silent.
    obs: Option<SharedRecorder>,
    /// Blame-matrix row for this direction's serializer, registered by
    /// [`Link::set_obs`] when the recorder traces the link.
    blame_res: Option<usize>,
    /// Blame class of the frame currently occupying the serializer (the
    /// resource occupant charged for other classes' waits), or `None`
    /// before the first frame serializes.
    serializing: Option<u8>,
    /// The `now` of the most recent tick; stamps enqueue times for
    /// [`Direction::send`], which has no clock of its own.
    last_tick: u64,
}

impl<M> Direction<M> {
    fn new(cfg: LinkConfig, stream: u64, label: &'static str) -> Direction<M> {
        Direction {
            cfg,
            tx: VecDeque::new(),
            tx_busy_until: MemCycle::ZERO,
            flying: VecDeque::new(),
            bytes_sent: 0,
            injector: FaultInjector::disabled(),
            health: HealthMonitor::new(HealthPolicy::default()),
            stats: LinkStats::default(),
            fault: None,
            label,
            dir_id: stream & 1,
            obs: None,
            blame_res: None,
            serializing: None,
            last_tick: 0,
        }
    }

    fn send(&mut self, bytes: u64, msg: M) -> Result<(), M> {
        self.send_classed(bytes, msg, doram_obs::BlameClass::NsApp as u8)
    }

    fn send_classed(&mut self, bytes: u64, msg: M, blame: u8) -> Result<(), M> {
        if self.tx.len() >= self.cfg.tx_queue {
            return Err(msg);
        }
        let busy_snap = match (self.blame_res, &self.obs) {
            (Some(res), Some(obs)) => obs.borrow().blame.busy_snapshot(res),
            _ => [0; doram_obs::BLAME_CLASSES],
        };
        self.tx.push_back(TxEntry {
            bytes,
            msg,
            blame,
            enq: self.last_tick,
            busy_snap,
        });
        self.bytes_sent += bytes;
        Ok(())
    }

    /// Exponential backoff for replay attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> u64 {
        self.cfg.backoff_base.0 << (attempt.saturating_sub(1)).min(6)
    }

    /// Forwards a health transition (if one happened) to the trace
    /// recorder as a `health_transition` instant.
    fn note_health(&mut self, t: Option<doram_sim::health::HealthTransition>, now: MemCycle) {
        if let (Some(t), Some(obs)) = (t, &self.obs) {
            obs.borrow_mut().instant(
                Subsystem::Link,
                EventKind::HealthTransition,
                now.0,
                t.event_value(self.dir_id),
            );
        }
    }

    /// Rolls the CRC/drop/delay recovery protocol for one frame and returns
    /// the total extra cycles its delivery is penalized.
    fn roll_recovery(&mut self, now: MemCycle, ser_cycles: u64) -> u64 {
        if self.injector.is_disabled() {
            return 0;
        }
        let mut penalty = 0u64;
        // An injected delay holds the frame but needs no replay.
        if self.injector.roll(FaultKind::DelayFrame, now) {
            penalty += self.injector.delay_cycles(now);
        }
        // An adversarial replay re-supplies an old, correctly-MAC'd copy
        // of an earlier frame alongside this one. The link protocol's
        // sequence numbers expose the stale duplicate immediately, so it
        // is discarded without delaying the genuine frame or perturbing
        // the direction's health: the attack is detected, not absorbed.
        if self.injector.roll(FaultKind::ReplayStale, now) {
            self.stats.stale_drops += 1;
        }
        let mut attempt = 0u32;
        loop {
            let corrupt = self.injector.roll(FaultKind::CorruptFrame, now);
            // A frame that never arrives cannot also fail its CRC; only
            // roll for a drop when the copy made it across.
            let dropped = !corrupt && self.injector.roll(FaultKind::DropFrame, now);
            if !corrupt && !dropped {
                let t = self.health.on_success(now);
                self.note_health(t, now);
                break;
            }
            let t = self.health.on_failure(now);
            self.note_health(t, now);
            attempt += 1;
            if attempt > self.cfg.max_retries {
                self.stats.exhausted_retries += 1;
                if self.fault.is_none() {
                    self.fault = Some(SimError::link_timeout(
                        attempt - 1,
                        format!("{}: frame retry budget exhausted", self.label),
                    ));
                }
                break;
            }
            self.stats.retransmissions += 1;
            if corrupt {
                // NAK round trip: bad frame arrives (already charged),
                // NAK flies back, replacement re-serializes and flies.
                self.stats.crc_errors += 1;
                penalty += 2 * self.cfg.latency.0 + ser_cycles;
            } else {
                // No NAK for a vanished frame: the sender's timer expires,
                // then the replacement re-serializes and flies.
                self.stats.timeouts += 1;
                penalty += self.cfg.retry_timeout.0 + ser_cycles;
            }
            penalty += self.backoff(attempt);
        }
        self.stats.recovery_cycles += penalty;
        penalty
    }

    /// Moves queued packets into flight as the serializer frees up, then
    /// delivers everything that has arrived by `now`.
    fn tick(&mut self, now: MemCycle, out: &mut Vec<M>) {
        if let (Some(res), Some(cls)) = (self.blame_res, self.serializing) {
            // The occupant is charged for the *previous* cycle whenever
            // the serializer was still busy at the top of this tick.
            if self.tx_busy_until >= now {
                if let Some(obs) = &self.obs {
                    obs.borrow_mut()
                        .blame
                        .busy_cycle(res, doram_obs::BlameClass::from_tag(cls));
                }
            }
        }
        self.last_tick = now.0;
        while let Some(front) = self.tx.front() {
            let bytes = front.bytes;
            let start = self.tx_busy_until.max(now);
            if start > now {
                break;
            }
            let ser_cycles = bytes.div_ceil(self.cfg.bytes_per_cycle).max(1);
            let done = start + MemCycle(ser_cycles);
            self.tx_busy_until = done;
            let entry = self.tx.pop_front().expect("front checked");
            if let Some(res) = self.blame_res {
                if let Some(obs) = &self.obs {
                    obs.borrow_mut().blame.settle(
                        res,
                        doram_obs::BlameClass::from_tag(entry.blame),
                        now.0.saturating_sub(entry.enq),
                        &entry.busy_snap,
                    );
                }
            }
            self.serializing = Some(entry.blame);
            let msg = entry.msg;
            // CRC + NAK/replay and drop/timeout recovery, charged up front
            // for determinism: the frame always arrives, just later.
            let penalty = self.roll_recovery(now, ser_cycles);
            let arrival = done + self.cfg.latency + MemCycle(penalty);
            if let Some(obs) = &self.obs {
                obs.borrow_mut().link_tx(now.0, bytes);
            }
            // Keep arrival order sorted: a replayed frame lands after
            // frames sent later (the link delivers in arrival order).
            let pos = self
                .flying
                .iter()
                .position(|&(t, _, _)| t > arrival)
                .unwrap_or(self.flying.len());
            self.flying.insert(pos, (arrival, bytes, msg));
        }
        while let Some(&(arrive, _, _)) = self.flying.front() {
            if arrive <= now {
                let (_, bytes, msg) = self.flying.pop_front().expect("front checked");
                if let Some(obs) = &self.obs {
                    obs.borrow_mut().link_rx(now.0, bytes);
                }
                out.push(msg);
            } else {
                break;
            }
        }
    }

    fn pending(&self) -> usize {
        self.tx.len() + self.flying.len()
    }
}

doram_sim::impl_codec!(struct TxEntry<M> { bytes, msg, blame, enq, busy_snap });

// The recorder wiring (`obs`, `blame_res`) is redone by the host after
// restore.
doram_sim::impl_snapshot!(Direction<M> {
    tx,
    tx_busy_until,
    serializing,
    last_tick,
    flying,
    bytes_sent,
    injector: state,
    health: state,
    stats,
    fault,
} skip { cfg, label, dir_id, obs, blame_res });

/// A full-duplex serial link between a MainMC (CPU side) and a SimpleMC
/// (memory side).
#[derive(Debug, Clone)]
pub struct Link<M> {
    to_mem: Direction<M>,
    to_cpu: Direction<M>,
}

impl<M> Link<M> {
    /// Creates a link with the given per-direction configuration.
    pub fn new(cfg: LinkConfig) -> Link<M> {
        Link {
            to_mem: Direction::new(cfg, 0, "link cpu->mem"),
            to_cpu: Direction::new(cfg, 1, "link mem->cpu"),
        }
    }

    /// Arms the link with a system-wide fault plan, the only source of
    /// link faults. Each direction's injector is keyed off the plan;
    /// `site` distinguishes this link from others sharing it (two streams
    /// per link). A plan that can never fire leaves the link unarmed, so
    /// its state stays a fresh link's.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, site: u64) {
        if plan.is_zero() {
            return;
        }
        self.to_mem.injector = plan.injector(site * 2);
        self.to_cpu.injector = plan.injector(site * 2 + 1);
    }

    /// Attaches (or detaches) a trace recorder under a stable dotted
    /// name. Both directions emit `link_tx` when a frame enters the
    /// serializer and `link_rx` when it is delivered. When the recorder's
    /// filter includes the link subsystem, per-direction blame rows
    /// (`{name}.to_mem` / `{name}.to_cpu`) register too, and every cycle a
    /// frame waits for the serializer is attributed to the class of the
    /// frame occupying it.
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>, name: &str) {
        for (dir, suffix) in [(&mut self.to_mem, "to_mem"), (&mut self.to_cpu, "to_cpu")] {
            dir.blame_res = obs.as_ref().and_then(|r| {
                let mut r = r.borrow_mut();
                r.wants(Subsystem::Link)
                    .then(|| r.blame.resource(&format!("{name}.{suffix}")))
            });
            dir.obs = obs.clone();
        }
    }

    /// Queues a message toward the memory side.
    ///
    /// # Errors
    ///
    /// Returns the message when the TX queue is full.
    pub fn send_to_mem(&mut self, wire_bytes: u64, msg: M) -> Result<(), M> {
        self.to_mem.send(wire_bytes, msg)
    }

    /// Queues a message toward the CPU side.
    ///
    /// # Errors
    ///
    /// Returns the message when the TX queue is full.
    pub fn send_to_cpu(&mut self, wire_bytes: u64, msg: M) -> Result<(), M> {
        self.to_cpu.send(wire_bytes, msg)
    }

    /// [`Link::send_to_mem`] with an explicit blame-class tag
    /// ([`doram_obs::BlameClass`]) for interference attribution.
    ///
    /// # Errors
    ///
    /// Returns the message when the TX queue is full.
    pub fn send_to_mem_classed(&mut self, wire_bytes: u64, msg: M, blame: u8) -> Result<(), M> {
        self.to_mem.send_classed(wire_bytes, msg, blame)
    }

    /// [`Link::send_to_cpu`] with an explicit blame-class tag.
    ///
    /// # Errors
    ///
    /// Returns the message when the TX queue is full.
    pub fn send_to_cpu_classed(&mut self, wire_bytes: u64, msg: M, blame: u8) -> Result<(), M> {
        self.to_cpu.send_classed(wire_bytes, msg, blame)
    }

    /// Whether the memory-bound TX queue can accept another packet.
    pub fn can_send_to_mem(&self) -> bool {
        self.to_mem.tx.len() < self.to_mem.cfg.tx_queue
    }

    /// Advances both directions, delivering arrived messages.
    pub fn tick(
        &mut self,
        now: MemCycle,
        arrived_at_mem: &mut Vec<M>,
        arrived_at_cpu: &mut Vec<M>,
    ) {
        self.to_mem.tick(now, arrived_at_mem);
        self.to_cpu.tick(now, arrived_at_cpu);
    }

    /// Messages queued or in flight in either direction.
    pub fn pending(&self) -> usize {
        self.to_mem.pending() + self.to_cpu.pending()
    }

    /// Total bytes accepted (to-mem, to-cpu) — link utilization numerators.
    pub fn bytes_sent(&self) -> (u64, u64) {
        (self.to_mem.bytes_sent, self.to_cpu.bytes_sent)
    }

    /// Recovery statistics, both directions merged.
    pub fn stats(&self) -> LinkStats {
        let mut s = self.to_mem.stats;
        s.absorb(&self.to_cpu.stats);
        s
    }

    /// Faults injected into this link, both directions merged.
    pub fn fault_counts(&self) -> FaultCounts {
        let mut c = self.to_mem.injector.counts();
        c.absorb(&self.to_cpu.injector.counts());
        c
    }

    /// The first retry-budget exhaustion, if any (latched; the frame was
    /// still delivered, but the system layer should fail-stop).
    pub fn fault(&self) -> Option<&SimError> {
        self.to_mem.fault.as_ref().or(self.to_cpu.fault.as_ref())
    }

    /// Per-direction health states (to-mem, to-cpu).
    pub fn health(&self) -> (HealthState, HealthState) {
        (self.to_mem.health.state(), self.to_cpu.health.state())
    }
}

doram_sim::impl_snapshot!(Link<M> { to_mem: state, to_cpu: state });

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::fault::FaultRates;

    fn drain(link: &mut Link<u32>, upto: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        for c in 0..=upto {
            let mut at_mem = Vec::new();
            let mut at_cpu = Vec::new();
            link.tick(MemCycle(c), &mut at_mem, &mut at_cpu);
            for m in at_mem {
                out.push((c, m));
            }
            for m in at_cpu {
                out.push((c, m));
            }
        }
        out
    }

    #[test]
    fn single_packet_latency() {
        // 72 B at 16 B/cycle = 5 cycles serialize (send at cycle 0 → done 5)
        // + 6 cycles latency → arrives at 11.
        let mut link = Link::new(LinkConfig::default());
        link.send_to_mem(72, 1u32).unwrap();
        let got = drain(&mut link, 40);
        assert_eq!(got, vec![(11, 1)]);
    }

    #[test]
    fn short_packet_serializes_faster() {
        let mut link = Link::new(LinkConfig::default());
        link.send_to_mem(8, 7u32).unwrap();
        let got = drain(&mut link, 40);
        assert_eq!(got, vec![(7, 7)]); // 1 cycle serialize + 6 latency
    }

    #[test]
    fn serialization_is_back_to_back() {
        // Two full packets pipeline: arrivals 5 cycles apart.
        let mut link = Link::new(LinkConfig::default());
        link.send_to_mem(72, 1u32).unwrap();
        link.send_to_mem(72, 2u32).unwrap();
        let got = drain(&mut link, 60);
        assert_eq!(got, vec![(11, 1), (16, 2)]);
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new(LinkConfig::default());
        link.send_to_mem(72, 1u32).unwrap();
        link.send_to_cpu(72, 2u32).unwrap();
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        for c in 0..=11 {
            link.tick(MemCycle(c), &mut at_mem, &mut at_cpu);
        }
        assert_eq!(at_mem, vec![1]);
        assert_eq!(at_cpu, vec![2]);
    }

    #[test]
    fn tx_queue_backpressure() {
        let cfg = LinkConfig {
            tx_queue: 2,
            ..LinkConfig::default()
        };
        let mut link = Link::new(cfg);
        assert!(link.send_to_mem(72, 1u32).is_ok());
        assert!(link.send_to_mem(72, 2u32).is_ok());
        assert!(!link.can_send_to_mem());
        assert_eq!(link.send_to_mem(72, 3u32), Err(3));
    }

    #[test]
    fn pending_and_bytes_accounting() {
        let mut link = Link::new(LinkConfig::default());
        link.send_to_mem(72, 1u32).unwrap();
        link.send_to_cpu(8, 2u32).unwrap();
        assert_eq!(link.pending(), 2);
        assert_eq!(link.bytes_sent(), (72, 8));
        drain(&mut link, 40);
        assert_eq!(link.pending(), 0);
    }

    /// A plan corrupting `corrupt_ppm` and dropping `drop_ppm` of frames.
    fn lossy(seed: u64, corrupt_ppm: u32, drop_ppm: u32) -> FaultPlan {
        FaultPlan::with_rates(
            seed,
            FaultRates {
                corrupt_ppm,
                drop_ppm,
                ..FaultRates::none()
            },
        )
    }

    /// Drives 200 frames through a link armed with `plan` and returns
    /// (arrivals, stats).
    fn run_lossy(cfg: LinkConfig, plan: &FaultPlan) -> (Vec<(u32, u64)>, LinkStats) {
        let mut link: Link<u32> = Link::new(cfg);
        link.set_fault_plan(plan, 0);
        let mut next = 0u32;
        let mut got = Vec::new();
        for c in 0..200_000u64 {
            if next < 200 && link.send_to_mem(72, next).is_ok() {
                next += 1;
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            link.tick(MemCycle(c), &mut a, &mut b);
            for m in a {
                got.push((m, c));
            }
            if got.len() == 200 {
                break;
            }
        }
        (got, link.stats())
    }

    #[test]
    fn error_injection_replays_and_delays() {
        let cfg = LinkConfig::default();
        let (clean_got, clean_stats) = run_lossy(cfg, &FaultPlan::none());
        // 20%: exaggerated to observe quickly.
        let (lossy_got, lossy_stats) = run_lossy(cfg, &lossy(0x11_4B, 200_000, 0));
        assert_eq!(clean_stats.retransmissions, 0);
        assert_eq!(clean_stats.recovery_cycles, 0);
        assert!(
            lossy_stats.retransmissions > 10,
            "retransmissions {}",
            lossy_stats.retransmissions
        );
        assert_eq!(lossy_stats.crc_errors, lossy_stats.retransmissions);
        assert!(lossy_stats.recovery_cycles > 0);
        assert_eq!(clean_got.len(), 200);
        assert_eq!(lossy_got.len(), 200, "no frame is ever lost");
        // The serializer is the throughput bottleneck, so the *final*
        // arrival only moves if the last frame itself is corrupted;
        // replays always show up in the aggregate latency though.
        let sum = |v: &[(u32, u64)]| v.iter().map(|&(_, t)| t).sum::<u64>();
        assert!(
            sum(&lossy_got) > sum(&clean_got),
            "replays must cost aggregate time"
        );
    }

    #[test]
    fn dropped_frames_recover_by_timeout() {
        let cfg = LinkConfig::default();
        let (got, stats) = run_lossy(cfg, &lossy(0x11_4B, 0, 200_000));
        assert_eq!(got.len(), 200, "every dropped frame is retransmitted");
        assert!(stats.timeouts > 10, "timeouts {}", stats.timeouts);
        assert_eq!(stats.crc_errors, 0);
        assert_eq!(stats.timeouts, stats.retransmissions);
        // A timeout recovery costs at least the retransmission timeout.
        assert!(stats.recovery_cycles >= stats.timeouts * cfg.retry_timeout.0);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let cfg = LinkConfig::default();
        let (got_a, stats_a) = run_lossy(cfg, &lossy(0x11_4B, 100_000, 50_000));
        let (got_b, stats_b) = run_lossy(cfg, &lossy(0x11_4B, 100_000, 50_000));
        assert_eq!(got_a, got_b);
        assert_eq!(stats_a, stats_b);
        let (got_c, stats_c) = run_lossy(cfg, &lossy(0xDEAD, 100_000, 50_000));
        assert!(got_a != got_c || stats_a != stats_c, "seed must matter");
    }

    #[test]
    fn retry_budget_exhaustion_latches_fault() {
        // 100% corruption: every attempt fails, so the budget runs out and
        // the link latches a LinkTimeout — but still delivers the frame.
        let cfg = LinkConfig::default();
        let mut link: Link<u32> = Link::new(cfg);
        link.set_fault_plan(&lossy(0x11_4B, 1_000_000, 0), 0);
        link.send_to_mem(72, 1).unwrap();
        let got = drain(&mut link, 100_000);
        assert_eq!(got.len(), 1, "fail-stop still drains the frame");
        let stats = link.stats();
        assert_eq!(stats.exhausted_retries, 1);
        assert_eq!(stats.retransmissions, cfg.max_retries as u64);
        match link.fault() {
            Some(SimError::LinkTimeout { attempts, .. }) => {
                assert_eq!(*attempts, cfg.max_retries);
            }
            other => panic!("expected LinkTimeout, got {other:?}"),
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let cfg = LinkConfig::default();
        let dir: Direction<u32> = Direction::new(cfg, 0, "test");
        assert_eq!(dir.backoff(1), cfg.backoff_base.0);
        assert_eq!(dir.backoff(2), cfg.backoff_base.0 * 2);
        assert_eq!(dir.backoff(4), cfg.backoff_base.0 * 8);
        // Capped so a long retry storm cannot overflow.
        assert_eq!(dir.backoff(60), cfg.backoff_base.0 * 64);
    }

    #[test]
    fn snapshot_resume_mid_backoff_is_bit_identical() {
        use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
        let cfg = LinkConfig::default();
        // The plan is configuration, not state: the resumed link is armed
        // with it before its state loads.
        let plan = lossy(0x11_4B, 300_000, 100_000);
        let run_half = |link: &mut Link<u32>, next: &mut u32, from: u64, upto: u64| {
            let mut got = Vec::new();
            for c in from..upto {
                if *next < 200 && link.send_to_mem(72, *next).is_ok() {
                    *next += 1;
                }
                let mut a = Vec::new();
                let mut b = Vec::new();
                link.tick(MemCycle(c), &mut a, &mut b);
                for m in a {
                    got.push((m, c));
                }
            }
            got
        };
        let mut link: Link<u32> = Link::new(cfg);
        link.set_fault_plan(&plan, 0);
        let mut next = 0u32;
        let split = 800u64;
        let head = run_half(&mut link, &mut next, 0, split);
        assert!(link.pending() > 0, "split must land mid-flight");
        assert!(link.stats().retransmissions > 0, "retries before the split");

        let mut w = SnapshotWriter::new();
        link.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed: Link<u32> = Link::new(cfg);
        resumed.set_fault_plan(&plan, 0);
        let mut r = SnapshotReader::new(&bytes);
        resumed.load_state(&mut r).unwrap();

        let mut next_r = next;
        let tail_a = run_half(&mut link, &mut next, split, 200_000);
        let tail_b = run_half(&mut resumed, &mut next_r, split, 200_000);
        assert_eq!(head.len() + tail_a.len(), 200, "all frames delivered");
        assert_eq!(tail_a, tail_b, "resumed run must replay bit-identically");
        assert_eq!(link.stats(), resumed.stats());
        assert_eq!(link.health(), resumed.health());

        // And the final states serialize identically.
        let snap = |l: &Link<u32>| {
            let mut w = SnapshotWriter::new();
            l.save_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(snap(&link), snap(&resumed));
    }

    #[test]
    fn sustained_loss_walks_health_to_quarantine() {
        use doram_obs::{Recorder, FILTER_ALL};
        // 100% corruption: every frame burns its full retry budget, so the
        // to-mem direction's failure streak crosses the quarantine
        // threshold (16) within two frames. Health is observational — the
        // link keeps delivering — but the state and trace events register.
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        link.set_fault_plan(&lossy(0x11_4B, 1_000_000, 0), 0);
        let rec = Recorder::shared(256, FILTER_ALL, 1_000_000);
        link.set_obs(Some(rec.clone()), "sec.link");
        link.send_to_mem(72, 1).unwrap();
        link.send_to_mem(72, 2).unwrap();
        let got = drain(&mut link, 100_000);
        assert_eq!(got.len(), 2, "quarantine does not stop delivery");
        assert_eq!(link.health().0, HealthState::Quarantined);
        assert_eq!(link.health().1, HealthState::Healthy);
        let transitions: Vec<u64> = rec
            .borrow()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::HealthTransition)
            .map(|e| e.value)
            .collect();
        // Healthy→Degraded on the first failure, Degraded→Quarantined on
        // the sixteenth; component id 0 (cpu->mem).
        assert_eq!(transitions, vec![1, (1 << 8) | 2]);
    }

    #[test]
    fn replayed_stale_frames_are_counted_and_discarded() {
        // A replay re-supplies an old frame; the sequence check discards
        // it, so delivery order, count, and timing match a clean run.
        let mut clean: Link<u32> = Link::new(LinkConfig::default());
        let mut attacked: Link<u32> = Link::new(LinkConfig::default());
        let plan = FaultPlan::with_rates(
            21,
            FaultRates {
                replay_ppm: 400_000,
                ..FaultRates::none()
            },
        );
        attacked.set_fault_plan(&plan, 0);
        for i in 0..30u32 {
            clean.send_to_mem(72, i).unwrap();
            attacked.send_to_mem(72, i).unwrap();
        }
        let got_clean = drain(&mut clean, 2_000);
        let got_attacked = drain(&mut attacked, 2_000);
        assert_eq!(
            got_clean, got_attacked,
            "stale copies never perturb delivery"
        );
        let stats = attacked.stats();
        assert!(stats.stale_drops > 0, "stale drops {}", stats.stale_drops);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.recovery_cycles, 0);
        assert!(attacked.fault_counts().replays > 0);
        assert_eq!(
            attacked.health(),
            (HealthState::Healthy, HealthState::Healthy)
        );
    }

    #[test]
    fn zero_plan_leaves_the_link_unarmed() {
        use doram_sim::snapshot::{Snapshot, SnapshotWriter};
        // A plan that can never fire re-keys neither checkpointed
        // injector, whatever its seed or site.
        let snap = |l: &Link<u32>| {
            let mut w = SnapshotWriter::new();
            l.save_state(&mut w);
            w.into_bytes()
        };
        let fresh: Link<u32> = Link::new(LinkConfig::default());
        for (plan, site) in [(FaultPlan::none(), 0), (lossy(77, 0, 0), 3)] {
            let mut link: Link<u32> = Link::new(LinkConfig::default());
            link.set_fault_plan(&plan, site);
            assert_eq!(snap(&link), snap(&fresh), "seed {} site {site}", plan.seed);
        }
    }

    #[test]
    fn system_fault_plan_overrides_config() {
        // A link built from its config alone is clean; an installed plan
        // injects heavily.
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        let plan = FaultPlan::with_rates(
            9,
            FaultRates {
                corrupt_ppm: 300_000,
                ..FaultRates::none()
            },
        );
        link.set_fault_plan(&plan, 0);
        let mut next = 0u32;
        let mut delivered = 0usize;
        for c in 0..100_000u64 {
            if next < 100 && link.send_to_mem(72, next).is_ok() {
                next += 1;
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            link.tick(MemCycle(c), &mut a, &mut b);
            delivered += a.len();
            if delivered == 100 {
                break;
            }
        }
        assert_eq!(delivered, 100);
        assert!(link.stats().retransmissions > 0);
        assert!(link.fault_counts().corrupt_frames > 0);
    }

    #[test]
    fn recorder_sees_tx_and_rx_frames() {
        use doram_obs::{EventKind, Recorder, FILTER_ALL};
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000);
        link.set_obs(Some(rec.clone()), "sec.link");
        link.send_to_mem(72, 1u32).unwrap();
        link.send_to_cpu(8, 2u32).unwrap();
        drain(&mut link, 40);
        let events = rec.borrow().events();
        let tx: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::LinkTx)
            .map(|e| e.value)
            .collect();
        let rx: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::LinkRx)
            .map(|e| e.value)
            .collect();
        assert_eq!(
            tx,
            vec![72, 8],
            "one tx event per frame, wire bytes as value"
        );
        assert_eq!(rx.len(), 2, "every frame is delivered exactly once");
        assert!(rx.contains(&72) && rx.contains(&8));
    }

    #[test]
    fn blame_attributes_serializer_waits_and_conserves() {
        use doram_obs::{BlameClass, Recorder, FILTER_ALL};
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000_000);
        link.set_obs(Some(rec.clone()), "sec.link");
        // Alternate S-App and NS-App frames: every later frame waits on an
        // earlier occupant of the other class, so cross-class blame accrues
        // in both directions of the matrix row.
        for i in 0..10u32 {
            let cls = if i % 2 == 0 {
                BlameClass::SAppRead
            } else {
                BlameClass::NsApp
            };
            link.send_to_mem_classed(72, i, cls as u8).unwrap();
        }
        let got = drain(&mut link, 200);
        assert_eq!(got.len(), 10);
        let rec = rec.borrow();
        rec.blame
            .check_conservation()
            .expect("blame rows must telescope to queue delay");
        let rows = rec.blame.resources();
        let row = rows.iter().find(|r| r.name == "sec.link.to_mem").unwrap();
        assert!(row.queue_delay > 0, "queued frames must record waiting");
        assert!(
            row.waits[BlameClass::SAppRead as usize] > 0,
            "NS-App frames waited behind an S-App occupant"
        );
        assert!(
            row.waits[BlameClass::NsApp as usize] > 0,
            "S-App frames waited behind an NS-App occupant"
        );
        assert_eq!(row.total_waits(), row.queue_delay);
        let idle = rows.iter().find(|r| r.name == "sec.link.to_cpu").unwrap();
        assert_eq!(idle.queue_delay, 0, "idle direction accrues nothing");
    }

    #[test]
    fn blame_rows_register_only_when_the_filter_traces_the_link() {
        use doram_obs::{Recorder, FILTER_ALL};
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000);
        link.set_obs(Some(rec.clone()), "ch2.link");
        let names: Vec<String> = rec
            .borrow()
            .blame
            .resources()
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert_eq!(names, ["ch2.link.to_mem", "ch2.link.to_cpu"]);
        // A filter excluding the link suppresses registration.
        let mut link2: Link<u32> = Link::new(LinkConfig::default());
        let filtered = Recorder::shared(64, doram_obs::parse_filter("sd").unwrap(), 1_000);
        link2.set_obs(Some(filtered.clone()), "sec.link");
        link2.send_to_mem(72, 1u32).unwrap();
        drain(&mut link2, 60);
        assert!(filtered.borrow().blame.is_empty());
    }

    #[test]
    fn blame_state_survives_snapshot_resume() {
        use doram_obs::{BlameClass, Recorder, FILTER_ALL};
        use doram_sim::snapshot::{Codec, Snapshot, SnapshotReader, SnapshotWriter};
        let mut link: Link<u32> = Link::new(LinkConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000_000);
        link.set_obs(Some(rec.clone()), "sec.link");
        for i in 0..8u32 {
            link.send_to_mem_classed(72, i, BlameClass::SAppRead as u8)
                .unwrap();
        }
        // Stop mid-queue: some frames settled, some still waiting with
        // live busy snapshots.
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        for c in 0..10u64 {
            link.tick(MemCycle(c), &mut at_mem, &mut at_cpu);
        }
        assert!(link.pending() > 0);
        let mut w = SnapshotWriter::new();
        link.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut resumed: Link<u32> = Link::new(LinkConfig::default());
        let rec2 = Recorder::shared(64, FILTER_ALL, 1_000_000);
        {
            // Carry the blame matrix across like the system checkpoint does.
            let mut w = SnapshotWriter::new();
            rec.borrow().blame.put(&mut w);
            let b = w.into_bytes();
            rec2.borrow_mut().blame = Codec::get(&mut SnapshotReader::new(&b)).unwrap();
        }
        resumed.set_obs(Some(rec2.clone()), "sec.link");
        let mut r = SnapshotReader::new(&bytes);
        resumed.load_state(&mut r).unwrap();
        for c in 10..400u64 {
            link.tick(MemCycle(c), &mut at_mem, &mut at_cpu);
            let mut a = Vec::new();
            let mut b = Vec::new();
            resumed.tick(MemCycle(c), &mut a, &mut b);
        }
        let (a, b) = (rec.borrow(), rec2.borrow());
        a.blame.check_conservation().unwrap();
        b.blame.check_conservation().unwrap();
        let row_a = &a.blame.resources()[0];
        let row_b = &b.blame.resources()[0];
        assert_eq!(row_a.waits, row_b.waits, "resumed blame continues exactly");
        assert_eq!(row_a.queue_delay, row_b.queue_delay);
        assert!(row_a.queue_delay > 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut link = Link::new(LinkConfig::default());
        for i in 0..10u32 {
            link.send_to_mem(8, i).unwrap();
        }
        let got: Vec<u32> = drain(&mut link, 100).into_iter().map(|(_, m)| m).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }
}
