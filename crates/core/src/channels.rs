//! The channel fabric and NS-App address routing.
//!
//! A [`ChannelFabric`] owns the system's memory channels in one of two
//! flavors: direct-attached DDR3 sub-channels (the Baseline-family
//! schemes) or BOB channels behind serial links (normal channels of the
//! D-ORAM schemes; the secure channel itself is `secure_channel`). The
//! [`NsRouter`] implements the paper's interleaved data allocation: an
//! NS-App's lines round-robin over the channels its scheme allows it to
//! use.

use doram_bob::{BobChannel, BobChannelConfig, LinkConfig};
use doram_dram::{
    Completion, EnergyBreakdown, EnergyParams, MemOp, MemRequest, RequestClass, ShareArbiter,
    SubChannel, SubChannelConfig,
};
use doram_sim::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use doram_sim::{AppId, MemCycle, RequestId};

/// Per-app base offset inside a channel's local address space; keeps apps
/// in disjoint row ranges like separate OS allocations would.
pub const APP_REGION_BYTES: u64 = 1 << 33;

/// Base address of the ORAM split region on normal channels (D-ORAM+k).
pub const SPLIT_REGION_BASE: u64 = 1 << 41;

/// One memory channel, either direct-attached or behind a BOB link.
#[derive(Debug)]
pub enum Channel {
    /// Direct-attached: the on-chip MC drives DRAM without a link.
    Direct(Box<SubChannel>),
    /// BOB: serial link + SimpleMC (+ its sub-channels).
    Bob(Box<BobChannel>),
}

impl Channel {
    /// Whether a request can likely be accepted this cycle.
    pub fn can_accept(&self, op: MemOp) -> bool {
        match self {
            Channel::Direct(sc) => match op {
                MemOp::Read => sc.can_accept_read(),
                MemOp::Write => sc.can_accept_write(),
            },
            Channel::Bob(ch) => ch.can_send(),
        }
    }

    /// Attempts to enqueue a request.
    ///
    /// # Errors
    ///
    /// Returns the request on back-pressure.
    pub fn try_enqueue(&mut self, req: MemRequest, now: MemCycle) -> Result<(), MemRequest> {
        match self {
            Channel::Direct(sc) => sc.enqueue(req),
            Channel::Bob(ch) => ch.try_send(req, now),
        }
    }

    /// Advances one memory cycle.
    pub fn tick(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        match self {
            Channel::Direct(sc) => sc.tick(now, completed),
            Channel::Bob(ch) => ch.tick(now, completed),
        }
    }

    /// Data-bus utilization over the run (mean across sub-channels).
    pub fn bus_utilization(&self) -> f64 {
        match self {
            Channel::Direct(sc) => sc.stats().bus_utilization(),
            Channel::Bob(ch) => {
                let n = ch.sub_channel_count();
                (0..n)
                    .map(|i| ch.sub_channel(i).stats().bus_utilization())
                    .sum::<f64>()
                    / n as f64
            }
        }
    }

    /// Enables device-command tracing on all underlying sub-channels.
    pub fn enable_command_traces(&mut self) {
        match self {
            Channel::Direct(sc) => sc.enable_command_trace(),
            Channel::Bob(ch) => ch.enable_command_traces(),
        }
    }

    /// Takes the recorded traces, one per sub-channel.
    pub fn take_command_traces(&mut self) -> Vec<Vec<doram_dram::CommandRecord>> {
        match self {
            Channel::Direct(sc) => vec![sc.take_command_trace()],
            Channel::Bob(ch) => ch.take_command_traces(),
        }
    }

    /// DRAM energy consumed by this channel's devices.
    pub fn energy(&self, params: &EnergyParams) -> EnergyBreakdown {
        match self {
            Channel::Direct(sc) => EnergyBreakdown::from_stats(sc.stats(), params),
            Channel::Bob(ch) => (0..ch.sub_channel_count())
                .map(|i| EnergyBreakdown::from_stats(ch.sub_channel(i).stats(), params))
                .fold(EnergyBreakdown::default(), |acc, e| acc.add(&e)),
        }
    }

    /// Total column commands (READ + WRITE) issued by this channel; a
    /// monotone counter the liveness watchdog uses as forward progress.
    pub fn column_ops(&self) -> u64 {
        match self {
            Channel::Direct(sc) => sc.stats().reads.get() + sc.stats().writes.get(),
            Channel::Bob(ch) => (0..ch.sub_channel_count())
                .map(|i| {
                    let s = ch.sub_channel(i).stats();
                    s.reads.get() + s.writes.get()
                })
                .sum(),
        }
    }

    /// DRAM row-buffer hit rate (mean across sub-channels).
    pub fn row_hit_rate(&self) -> f64 {
        match self {
            Channel::Direct(sc) => sc.stats().row_hit_rate(),
            Channel::Bob(ch) => {
                let n = ch.sub_channel_count();
                (0..n)
                    .map(|i| ch.sub_channel(i).stats().row_hit_rate())
                    .sum::<f64>()
                    / n as f64
            }
        }
    }

    /// Installs a fault plan on the channel's serial link (no-op for
    /// direct-attached channels, which have no link to fault).
    pub fn set_fault_plan(&mut self, plan: &doram_sim::fault::FaultPlan, site: u64) {
        if let Channel::Bob(ch) = self {
            ch.set_fault_plan(plan, site);
        }
    }

    /// Link error/recovery statistics (zeroed for direct channels).
    pub fn link_stats(&self) -> doram_bob::LinkStats {
        match self {
            Channel::Direct(_) => doram_bob::LinkStats::default(),
            Channel::Bob(ch) => ch.link_stats(),
        }
    }

    /// Faults injected on the channel's link (zeroed for direct channels).
    pub fn fault_counts(&self) -> doram_sim::fault::FaultCounts {
        match self {
            Channel::Direct(_) => doram_sim::fault::FaultCounts::default(),
            Channel::Bob(ch) => ch.fault_counts(),
        }
    }

    /// The first unrecovered link fault on this channel, if any.
    pub fn fault(&self) -> Option<&doram_sim::SimError> {
        match self {
            Channel::Direct(_) => None,
            Channel::Bob(ch) => ch.fault(),
        }
    }

    /// One-line summary of the dynamic state, for watchdog diagnostics.
    pub fn debug_state(&self) -> String {
        match self {
            Channel::Direct(sc) => sc.debug_state(),
            Channel::Bob(ch) => ch.debug_state(),
        }
    }

    /// Attaches a trace recorder, registering interference-blame rows
    /// under the paper's channel number `n` as `ch{n}.*` (direct channels
    /// expose one `ch{n}.sub0` row; BOB channels add their link
    /// serializers and SimpleMC buffer).
    pub fn set_obs(&mut self, obs: Option<doram_obs::SharedRecorder>, n: usize) {
        match self {
            Channel::Direct(sc) => sc.set_obs(obs, n as u64, &format!("ch{n}.sub0")),
            Channel::Bob(ch) => ch.set_obs(obs, &format!("ch{n}")),
        }
    }
}

impl Snapshot for Channel {
    fn save_state(&self, w: &mut SnapshotWriter) {
        // The flavor is config-derived; a tag guards against restoring a
        // checkpoint into a differently-configured fabric.
        match self {
            Channel::Direct(sc) => {
                w.put_u8(0);
                sc.save_state(w);
            }
            Channel::Bob(ch) => {
                w.put_u8(1);
                ch.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        match (tag, self) {
            (0, Channel::Direct(sc)) => sc.load_state(r),
            (1, Channel::Bob(ch)) => ch.load_state(r),
            _ => Err(SnapshotError::new("channel flavor mismatch")),
        }
    }
}

/// The set of normal channels of the system.
#[derive(Debug)]
pub struct ChannelFabric {
    channels: Vec<Channel>,
}

impl ChannelFabric {
    /// Builds `n` direct-attached channels (Baseline family).
    pub fn direct(n: usize, sub_cfg: &SubChannelConfig) -> ChannelFabric {
        ChannelFabric {
            channels: (0..n)
                .map(|_| Channel::Direct(Box::new(SubChannel::new(sub_cfg.clone()))))
                .collect(),
        }
    }

    /// Builds `n` BOB channels with one sub-channel each (the D-ORAM
    /// normal channels; the secure channel is constructed separately).
    pub fn bob(n: usize, link: LinkConfig, sub_cfg: &SubChannelConfig) -> ChannelFabric {
        ChannelFabric {
            channels: (0..n)
                .map(|_| {
                    Channel::Bob(Box::new(BobChannel::new(BobChannelConfig {
                        link,
                        sub_channels: vec![sub_cfg.clone()],
                    })))
                })
                .collect(),
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the fabric has no channels.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Access to channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn channel(&self, i: usize) -> &Channel {
        &self.channels[i]
    }

    /// Mutable access to channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn channel_mut(&mut self, i: usize) -> &mut Channel {
        &mut self.channels[i]
    }

    /// Ticks every channel.
    pub fn tick(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        for ch in self.channels.iter_mut() {
            ch.tick(now, completed);
        }
    }

    /// The earliest wake cycle (see [`SubChannel::wake_at`]) over the
    /// fabric's channels, or `None` if any of them is a BOB channel, whose
    /// link acts on cycles of its own.
    pub(crate) fn wake_at(&self) -> Option<MemCycle> {
        self.channels
            .iter()
            .try_fold(MemCycle(u64::MAX), |wake, ch| match ch {
                Channel::Direct(sc) => Some(wake.min(sc.wake_at())),
                Channel::Bob(_) => None,
            })
    }

    /// Applies every channel's ticks of cycles `from..to` at once; `to`
    /// must not pass [`wake_at`](ChannelFabric::wake_at), so each tick
    /// only counts.
    ///
    /// # Panics
    ///
    /// Panics on a BOB channel.
    pub(crate) fn skip(&mut self, from: MemCycle, to: MemCycle) {
        for ch in self.channels.iter_mut() {
            match ch {
                Channel::Direct(sc) => sc.skip(from, to),
                Channel::Bob(_) => panic!("a BOB channel cannot skip cycles"),
            }
        }
    }

    /// Installs a fault plan on every BOB channel's link; channel `i` uses
    /// fault site `base_site + i` so each link draws an independent,
    /// deterministic fault stream.
    pub fn set_fault_plan(&mut self, plan: &doram_sim::fault::FaultPlan, base_site: u64) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_fault_plan(plan, base_site + i as u64);
        }
    }

    /// Link error/recovery statistics summed over every channel.
    pub fn link_stats(&self) -> doram_bob::LinkStats {
        let mut total = doram_bob::LinkStats::default();
        for ch in &self.channels {
            total.absorb(&ch.link_stats());
        }
        total
    }

    /// Injected-fault counts summed over every channel's link.
    pub fn fault_counts(&self) -> doram_sim::fault::FaultCounts {
        let mut total = doram_sim::fault::FaultCounts::default();
        for ch in &self.channels {
            total.absorb(&ch.fault_counts());
        }
        total
    }

    /// The first unrecovered link fault across the fabric, if any.
    pub fn fault(&self) -> Option<&doram_sim::SimError> {
        self.channels.iter().find_map(|ch| ch.fault())
    }

    /// Total column commands issued across the fabric (watchdog progress).
    pub fn column_ops(&self) -> u64 {
        self.channels.iter().map(Channel::column_ops).sum()
    }

    /// Attaches a trace recorder to every channel; channel `i` is the
    /// paper's channel `first + i` (blame rows `ch{first + i}.*`).
    pub fn set_obs(&mut self, obs: Option<doram_obs::SharedRecorder>, first: usize) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.set_obs(obs.clone(), first + i);
        }
    }

    /// One-line summary per channel, for watchdog diagnostics, named as
    /// in [`ChannelFabric::set_obs`].
    pub fn debug_states(&self, first: usize) -> Vec<String> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, ch)| format!("ch{}[{}]", first + i, ch.debug_state()))
            .collect()
    }

    /// The sub-channel configuration the paper's Table II implies, with
    /// the given arbiter.
    pub fn paper_subchannel_config(
        timing: doram_dram::DramTiming,
        threshold: f64,
    ) -> SubChannelConfig {
        SubChannelConfig {
            timing,
            arbiter: if threshold >= 1.0 {
                ShareArbiter::disabled()
            } else {
                ShareArbiter::new(threshold, 64)
            },
            ..SubChannelConfig::default()
        }
    }
}

doram_sim::impl_snapshot!(ChannelFabric { channels: state });

/// Routes one NS-App's line-interleaved allocation over its allowed
/// channels.
#[derive(Debug, Clone)]
pub struct NsRouter {
    app: AppId,
    allowed: Vec<usize>,
}

impl NsRouter {
    /// Creates a router for `app` over `allowed` channels.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` is empty.
    pub fn new(app: AppId, allowed: Vec<usize>) -> NsRouter {
        assert!(!allowed.is_empty(), "app needs at least one channel");
        NsRouter { app, allowed }
    }

    /// The channels this app may use.
    pub fn allowed(&self) -> &[usize] {
        &self.allowed
    }

    /// Maps an app-local address to `(channel, channel-local address)`.
    pub fn route(&self, addr: u64) -> (usize, u64) {
        let line = addr >> 6;
        let n = self.allowed.len() as u64;
        let ch = self.allowed[(line % n) as usize];
        let local_line = line / n;
        let local = APP_REGION_BYTES * (self.app.index() as u64 + 1) + (local_line << 6);
        (ch, local)
    }

    /// Builds the [`MemRequest`] for an app access.
    pub fn request(
        &self,
        id: RequestId,
        op: MemOp,
        addr: u64,
        now: MemCycle,
    ) -> (usize, MemRequest) {
        let (ch, local) = self.route(addr);
        (
            ch,
            MemRequest {
                id,
                app: self.app,
                op,
                addr: local,
                class: RequestClass::Normal,
                arrival: now,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doram_dram::DramTiming;

    #[test]
    fn router_interleaves_over_allowed() {
        let r = NsRouter::new(AppId(2), vec![1, 2, 3]);
        let chans: Vec<usize> = (0..6).map(|i| r.route(i * 64).0).collect();
        assert_eq!(chans, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn router_addresses_are_dense_per_channel() {
        let r = NsRouter::new(AppId(0), vec![0, 1]);
        let (_, a0) = r.route(0);
        let (_, a1) = r.route(128); // next line on channel 0
        assert_eq!(a1 - a0, 64);
    }

    #[test]
    fn apps_get_disjoint_regions() {
        let a = NsRouter::new(AppId(0), vec![0]);
        let b = NsRouter::new(AppId(1), vec![0]);
        let (_, la) = a.route(0);
        let (_, lb) = b.route(0);
        assert_ne!(la, lb);
        assert!(lb - la >= APP_REGION_BYTES);
    }

    #[test]
    fn fabric_direct_and_bob_service_requests() {
        let sub = ChannelFabric::paper_subchannel_config(DramTiming::ddr3_1600(), 0.5);
        for mut fabric in [
            ChannelFabric::direct(2, &sub),
            ChannelFabric::bob(2, LinkConfig::default(), &sub),
        ] {
            assert_eq!(fabric.len(), 2);
            assert!(!fabric.is_empty());
            let req = MemRequest {
                id: RequestId(1),
                app: AppId(0),
                op: MemOp::Read,
                addr: 4096,
                class: RequestClass::Normal,
                arrival: MemCycle(0),
            };
            assert!(fabric.channel(1).can_accept(MemOp::Read));
            fabric.channel_mut(1).try_enqueue(req, MemCycle(0)).unwrap();
            let mut done = Vec::new();
            let mut now = MemCycle(0);
            while done.is_empty() && now.0 < 5000 {
                fabric.tick(now, &mut done);
                now += MemCycle(1);
            }
            assert_eq!(done.len(), 1);
            assert!(fabric.channel(1).bus_utilization() > 0.0);
            let _ = fabric.channel(1).row_hit_rate();
        }
    }

    #[test]
    fn disabled_arbiter_when_threshold_one() {
        let cfg = ChannelFabric::paper_subchannel_config(DramTiming::ddr3_1600(), 1.0);
        // Constructs without panic and runs; behavioural check is in the
        // dram crate's arbiter tests.
        let _ = SubChannel::new(cfg);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_allowed_panics() {
        let _ = NsRouter::new(AppId(0), vec![]);
    }
}
