//! A normal (non-secure) BOB channel, end to end.
//!
//! MainMC (CPU side) serializes requests onto the link; the SimpleMC
//! receives them, spreads them over its sub-channels (line-interleaved),
//! and returns read responses over the link. Writes are posted: they
//! complete when DRAM finishes them, with no response packet.

use crate::link::{Link, LinkConfig, LinkStats};
use crate::packet::PacketKind;
use doram_dram::{Completion, MemOp, MemRequest, SubChannel, SubChannelConfig};
use doram_obs::SharedRecorder;
use doram_sim::fault::{FaultCounts, FaultPlan};
use doram_sim::{MemCycle, SimError};
use std::collections::VecDeque;

/// Messages crossing a normal channel's serial link.
#[derive(Debug, Clone, Copy)]
enum ChannelMsg {
    Request(MemRequest),
    Response(Completion),
}

/// Configuration of a [`BobChannel`].
#[derive(Debug, Clone)]
pub struct BobChannelConfig {
    /// Serial link parameters.
    pub link: LinkConfig,
    /// One config per sub-channel (normal channels have one; the secure
    /// channel uses four).
    pub sub_channels: Vec<SubChannelConfig>,
}

impl Default for BobChannelConfig {
    fn default() -> BobChannelConfig {
        BobChannelConfig {
            link: LinkConfig::default(),
            sub_channels: vec![SubChannelConfig::default()],
        }
    }
}

/// A BOB channel: link + SimpleMC + DDR3 sub-channels.
#[derive(Debug)]
pub struct BobChannel {
    link: Link<ChannelMsg>,
    subs: Vec<SubChannel>,
    /// Requests delivered to the SimpleMC but not yet accepted by their
    /// sub-channel (back-pressure holding buffer).
    mc_pending: VecDeque<MemRequest>,
    /// Read responses awaiting a free slot on the CPU-bound link.
    resp_pending: VecDeque<Completion>,
    /// Scratch: completions from sub-channels each tick.
    scratch: Vec<Completion>,
    /// First protocol violation observed (a message arrived at the wrong
    /// endpoint). Latched instead of panicking so the simulation drains
    /// and the caller can fail-stop.
    fault: Option<SimError>,
    /// Trace recorder shared with the link and sub-channels; `None` keeps
    /// the hot path silent.
    obs: Option<SharedRecorder>,
    /// Blame row for the SimpleMC holding buffer (`{name}.mc`), registered
    /// by [`BobChannel::set_obs`] when the recorder traces DRAM.
    mc_blame_res: Option<usize>,
}

impl BobChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if no sub-channel is configured.
    pub fn new(cfg: BobChannelConfig) -> BobChannel {
        assert!(
            !cfg.sub_channels.is_empty(),
            "need at least one sub-channel"
        );
        BobChannel {
            link: Link::new(cfg.link),
            subs: cfg.sub_channels.into_iter().map(SubChannel::new).collect(),
            mc_pending: VecDeque::new(),
            resp_pending: VecDeque::new(),
            scratch: Vec::new(),
            fault: None,
            obs: None,
            mc_blame_res: None,
        }
    }

    /// Attaches a trace recorder end to end under the channel's name
    /// (`ch{n}`): the link's serializers (blame rows `{name}.link.to_mem` /
    /// `.to_cpu`), each sub-channel (`{name}.sub{j}`), and the SimpleMC
    /// holding buffer (`{name}.mc`, an aggregate row charged head-of-line
    /// per tick).
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>, name: &str) {
        self.link.set_obs(obs.clone(), &format!("{name}.link"));
        for (j, sub) in self.subs.iter_mut().enumerate() {
            sub.set_obs(obs.clone(), j as u64, &format!("{name}.sub{j}"));
        }
        self.mc_blame_res = obs.as_ref().and_then(|r| {
            let mut r = r.borrow_mut();
            r.wants(doram_obs::Subsystem::Dram)
                .then(|| r.blame.resource(&format!("{name}.mc")))
        });
        self.obs = obs;
    }

    /// Arms the channel's link with a system-wide fault plan (see
    /// [`Link::set_fault_plan`]). `site` must be unique per link so each
    /// draws an independent fault stream.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, site: u64) {
        self.link.set_fault_plan(plan, site);
    }

    /// Link-level error/recovery statistics (both directions merged).
    pub fn link_stats(&self) -> LinkStats {
        self.link.stats()
    }

    /// Faults injected on the link so far (both directions merged).
    pub fn fault_counts(&self) -> FaultCounts {
        self.link.fault_counts()
    }

    /// The first unrecovered fault on this channel, if any: a link retry
    /// budget exhaustion or a protocol violation.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref().or_else(|| self.link.fault())
    }

    /// The sub-channels behind the SimpleMC, in interleave order.
    pub fn subs(&self) -> &[SubChannel] {
        &self.subs
    }

    /// The sub-channels, mutably: for device-command tracing only.
    pub fn subs_mut(&mut self) -> &mut [SubChannel] {
        &mut self.subs
    }

    /// Whether the MainMC can accept another request right now.
    pub fn can_send(&self) -> bool {
        self.link.can_send_to_mem()
    }

    /// Total bytes accepted on the link (to-mem, to-cpu).
    pub fn link_bytes(&self) -> (u64, u64) {
        self.link.bytes_sent()
    }

    /// Whether all queues, buses, and sub-channels are drained.
    pub fn is_idle(&self) -> bool {
        self.link.pending() == 0
            && self.mc_pending.is_empty()
            && self.resp_pending.is_empty()
            && self.subs.iter().all(|s| s.is_idle())
    }

    /// Sends a request from the MainMC side.
    ///
    /// # Errors
    ///
    /// Returns the request when the link TX queue is full.
    pub fn try_send(&mut self, req: MemRequest, _now: MemCycle) -> Result<(), MemRequest> {
        let kind = match req.op {
            MemOp::Read => PacketKind::ReadRequest,
            MemOp::Write => PacketKind::WriteRequest,
        };
        self.link
            .send_to_mem_classed(
                kind.wire_bytes(),
                ChannelMsg::Request(req),
                SubChannel::blame_class_of(&req) as u8,
            )
            .map_err(|m| match m {
                ChannelMsg::Request(r) => r,
                // Total match without panicking: the rejected message is
                // the one we just passed in, so this arm cannot run; if it
                // ever does, hand the original request back unchanged.
                ChannelMsg::Response(_) => req,
            })
    }

    /// Line-interleaved sub-channel selection.
    fn sub_for(&self, addr: u64) -> usize {
        ((addr >> 6) % self.subs.len() as u64) as usize
    }

    /// Strips the sub-channel-select bits so each sub-channel sees a dense
    /// local address space.
    fn local_addr(&self, addr: u64) -> u64 {
        let line = addr >> 6;
        ((line / self.subs.len() as u64) << 6) | (addr & 63)
    }

    /// Advances the channel one memory cycle. Completions (as seen by the
    /// CPU: read responses that crossed back over the link, writes when
    /// DRAM finished them) are appended to `completed`.
    pub fn tick(&mut self, now: MemCycle, completed: &mut Vec<Completion>) {
        // 1. Link movement.
        let mut at_mem = Vec::new();
        let mut at_cpu = Vec::new();
        self.link.tick(now, &mut at_mem, &mut at_cpu);
        for msg in at_mem {
            match msg {
                ChannelMsg::Request(r) => self.mc_pending.push_back(r),
                ChannelMsg::Response(_) => self.latch_protocol_fault("response arrived at memory"),
            }
        }
        for msg in at_cpu {
            match msg {
                ChannelMsg::Response(c) => completed.push(Completion {
                    request: c.request,
                    finished: now,
                }),
                ChannelMsg::Request(_) => self.latch_protocol_fault("request arrived at CPU"),
            }
        }

        // 2. SimpleMC: move held requests into sub-channel queues.
        while let Some(&req) = self.mc_pending.front() {
            let sub = self.sub_for(req.addr);
            let mut local = req;
            local.addr = self.local_addr(req.addr);
            match self.subs[sub].enqueue(local) {
                Ok(()) => {
                    self.mc_pending.pop_front();
                }
                Err(_) => break, // head-of-line blocked on a full queue
            }
        }
        // Aggregate blame for the holding buffer: whatever is still queued
        // after the drain waited this cycle, blamed on the head's class
        // (the head is what a full sub-channel queue is refusing).
        if let Some(res) = self.mc_blame_res {
            if let (Some(head), Some(obs)) = (self.mc_pending.front(), &self.obs) {
                let cls = SubChannel::blame_class_of(head);
                let n = self.mc_pending.len() as u64;
                let mut rec = obs.borrow_mut();
                rec.blame.wait(res, cls, n);
                rec.blame.delay(res, n);
            }
        }

        // 3. DRAM.
        self.scratch.clear();
        for sub in self.subs.iter_mut() {
            sub.tick(now, &mut self.scratch);
        }
        for c in self.scratch.drain(..) {
            match c.request.op {
                MemOp::Read => self.resp_pending.push_back(c),
                // Posted writes complete at the DIMM; no response packet.
                MemOp::Write => completed.push(c),
            }
        }

        // 4. Send read responses back over the link.
        while let Some(&c) = self.resp_pending.front() {
            match self.link.send_to_cpu_classed(
                PacketKind::ReadResponse.wire_bytes(),
                ChannelMsg::Response(c),
                SubChannel::blame_class_of(&c.request) as u8,
            ) {
                Ok(()) => {
                    self.resp_pending.pop_front();
                }
                Err(_) => break,
            }
        }
    }

    /// Records the first misrouted-message violation (drops the message).
    fn latch_protocol_fault(&mut self, detail: &str) {
        debug_assert!(false, "bob channel: {detail}");
        if self.fault.is_none() {
            self.fault = Some(SimError::protocol(format!("bob channel: {detail}")));
        }
    }

    /// One-line internal state summary for stall diagnostics.
    pub fn debug_state(&self) -> String {
        let subs: Vec<String> = self.subs.iter().map(|s| s.debug_state()).collect();
        format!(
            "link_pending={} mc_pending={} resp_pending={} subs=[{}]",
            self.link.pending(),
            self.mc_pending.len(),
            self.resp_pending.len(),
            subs.join(" | "),
        )
    }
}

doram_sim::impl_codec!(
    enum ChannelMsg {
        Request(req) = 0,
        Response(c) = 1,
    }
);

// The recorder wiring is redone by the host after restore.
doram_sim::impl_snapshot!(BobChannel {
    link: state,
    subs: state,
    mc_pending,
    resp_pending,
    fault,
} skip { scratch, obs, mc_blame_res });

#[cfg(test)]
mod tests {
    use super::*;
    use doram_dram::RequestClass;
    use doram_sim::{AppId, RequestId};

    fn req(id: u64, op: MemOp, addr: u64) -> MemRequest {
        MemRequest {
            id: RequestId(id),
            app: AppId(0),
            op,
            addr,
            class: RequestClass::Normal,
            arrival: MemCycle(0),
        }
    }

    fn run(ch: &mut BobChannel, n: usize, limit: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        while done.len() < n && now.0 < limit {
            ch.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert!(done.len() >= n, "{} of {n} completed", done.len());
        done
    }

    #[test]
    fn read_pays_two_link_traversals() {
        let mut ch = BobChannel::new(BobChannelConfig::default());
        ch.try_send(req(0, MemOp::Read, 0), MemCycle(0)).unwrap();
        let done = run(&mut ch, 1, 2000);
        // Direct-attached row-miss read is 26 cycles; BOB adds ≥ 2×(6+1).
        assert!(
            done[0].finished.0 >= 26 + 14,
            "finished at {}",
            done[0].finished.0
        );
        assert!(done[0].finished.0 < 100);
    }

    #[test]
    fn write_completes_without_response_packet() {
        let mut ch = BobChannel::new(BobChannelConfig::default());
        ch.try_send(req(0, MemOp::Write, 0), MemCycle(0)).unwrap();
        let done = run(&mut ch, 1, 2000);
        assert_eq!(done[0].request.op, MemOp::Write);
        let (to_mem, to_cpu) = ch.link_bytes();
        assert_eq!(to_mem, 72, "write request is a full packet");
        assert_eq!(to_cpu, 0, "no response for posted writes");
    }

    #[test]
    fn read_request_is_short_packet() {
        let mut ch = BobChannel::new(BobChannelConfig::default());
        ch.try_send(req(0, MemOp::Read, 0), MemCycle(0)).unwrap();
        run(&mut ch, 1, 2000);
        let (to_mem, to_cpu) = ch.link_bytes();
        assert_eq!(to_mem, 8);
        assert_eq!(to_cpu, 72);
    }

    #[test]
    fn four_sub_channels_interleave_lines() {
        let cfg = BobChannelConfig {
            link: LinkConfig::default(),
            sub_channels: vec![SubChannelConfig::default(); 4],
        };
        let mut ch = BobChannel::new(cfg);
        assert_eq!(ch.subs().len(), 4);
        for i in 0..8 {
            ch.try_send(req(i, MemOp::Read, 64 * i), MemCycle(0))
                .unwrap();
        }
        run(&mut ch, 8, 4000);
        for (s, sub) in ch.subs().iter().enumerate() {
            assert_eq!(
                sub.stats().reads.get(),
                2,
                "sub {s} should service exactly 2 of 8 interleaved lines"
            );
        }
    }

    #[test]
    fn parallel_sub_channels_beat_single() {
        // 32 random-row reads across 4 sub-channels vs 1.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 65536).collect();
        let finish = |n_subs: usize| {
            let cfg = BobChannelConfig {
                link: LinkConfig::default(),
                sub_channels: vec![SubChannelConfig::default(); n_subs],
            };
            let mut ch = BobChannel::new(cfg);
            for (i, &a) in addrs.iter().enumerate() {
                ch.try_send(req(i as u64, MemOp::Read, a), MemCycle(0))
                    .unwrap();
            }
            run(&mut ch, 32, 50_000)
                .iter()
                .map(|c| c.finished.0)
                .max()
                .unwrap()
        };
        let one = finish(1);
        let four = finish(4);
        assert!(
            (four as f64) < one as f64 * 0.55,
            "4 subs {four} vs 1 sub {one}"
        );
    }

    #[test]
    fn is_idle_lifecycle() {
        let mut ch = BobChannel::new(BobChannelConfig::default());
        assert!(ch.is_idle());
        ch.try_send(req(0, MemOp::Read, 0), MemCycle(0)).unwrap();
        assert!(!ch.is_idle());
        run(&mut ch, 1, 2000);
        // One more tick to let everything settle.
        let mut done = Vec::new();
        ch.tick(MemCycle(5000), &mut done);
        assert!(ch.is_idle());
    }

    #[test]
    fn faulty_channel_still_completes_everything() {
        use doram_sim::fault::FaultRates;
        let mut ch = BobChannel::new(BobChannelConfig::default());
        // 2% of frames corrupted, 1% dropped: heavy but recoverable.
        ch.set_fault_plan(
            &FaultPlan::with_rates(
                99,
                FaultRates {
                    corrupt_ppm: 20_000,
                    drop_ppm: 10_000,
                    ..FaultRates::none()
                },
            ),
            0,
        );
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        let mut sent = 0u64;
        while done.len() < 200 && now.0 < 200_000 {
            if sent < 200 && ch.try_send(req(sent, MemOp::Read, sent * 64), now).is_ok() {
                sent += 1;
            }
            ch.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert_eq!(done.len(), 200, "every read recovered");
        let stats = ch.link_stats();
        assert!(stats.retransmissions > 0, "faults must have fired");
        assert_eq!(
            ch.fault_counts().corrupt_frames + ch.fault_counts().drop_frames,
            stats.crc_errors + stats.timeouts
        );
        assert!(ch.fault().is_none(), "no retry budget exhausted");
    }

    #[test]
    fn end_to_end_blame_covers_link_mc_and_dram() {
        use doram_obs::{Recorder, FILTER_ALL};
        let mut ch = BobChannel::new(BobChannelConfig::default());
        let rec = Recorder::shared(64, FILTER_ALL, 1_000_000);
        ch.set_obs(Some(rec.clone()), "ch1");
        // Same-bank reads (addr stride within one row-buffer region) queue
        // up behind each other at every layer.
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        let mut sent = 0u64;
        while done.len() < 40 && now.0 < 50_000 {
            if sent < 40 && ch.try_send(req(sent, MemOp::Read, sent * 64), now).is_ok() {
                sent += 1;
            }
            ch.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert_eq!(done.len(), 40);
        let rec = rec.borrow();
        rec.blame
            .check_conservation()
            .expect("every layer's rows must telescope");
        let names: Vec<&str> = rec
            .blame
            .resources()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert!(names.contains(&"ch1.link.to_mem"));
        assert!(names.contains(&"ch1.link.to_cpu"));
        assert!(names.contains(&"ch1.sub0"));
        let total: u64 = rec.blame.resources().iter().map(|r| r.queue_delay).sum();
        assert!(total > 0, "40 back-to-back reads must queue somewhere");
    }

    #[test]
    fn completions_preserve_request_identity() {
        let mut ch = BobChannel::new(BobChannelConfig::default());
        let r = req(77, MemOp::Read, 4096);
        ch.try_send(r, MemCycle(0)).unwrap();
        let done = run(&mut ch, 1, 2000);
        assert_eq!(done[0].request.id, RequestId(77));
        assert_eq!(done[0].request.addr, 4096, "original CPU-side address");
    }
}
