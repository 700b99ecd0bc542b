//! The on-chip secure engine (D-ORAM's CPU side).
//!
//! Responsibilities per §III-B:
//!
//! * queue the S-App's memory requests toward the secure delegator;
//! * enforce the fixed-rate timing channel defense: a new (possibly dummy)
//!   request is sent exactly `t` CPU cycles after the previous response
//!   arrives (`t = 50` in the paper);
//! * keep at most one un-responded request in flight (the SD buffers one
//!   more behind its ongoing write phase);
//! * match responses back to the core's blocked reads.
//!
//! OTP pads for the 72 B packets are pre-generated during the (long) ORAM
//! access window — see `doram-crypto` — so the engine models crypto cost
//! as zero additional latency, as the paper argues.

use crate::onchip_oram::OramJob;
use doram_dram::MemOp;
use doram_obs::SharedRecorder;
use doram_sim::stats::Counter;
use doram_sim::{CpuCycle, MemCycle, RequestId};
use std::collections::VecDeque;

/// Statistics of the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Real requests sent to the SD.
    pub real_sent: Counter,
    /// Dummy requests sent to the SD.
    pub dummies_sent: Counter,
    /// Responses received.
    pub responses: Counter,
}

/// The on-chip secure engine.
#[derive(Debug)]
pub struct CpuEngine {
    queue: VecDeque<OramJob>,
    queue_cap: usize,
    /// A request is outstanding at the SD (no response yet).
    awaiting: bool,
    /// Earliest cycle the next request may be sent (the `t` rule).
    next_send_at: MemCycle,
    /// Pacing interval in memory cycles (⌈t / 4⌉ for t CPU cycles).
    interval: MemCycle,
    stats: EngineStats,
    /// Trace recorder; `None` (the default) keeps the hot path silent.
    obs: Option<SharedRecorder>,
}

impl CpuEngine {
    /// Creates an engine with the paper's `t` (in CPU cycles).
    pub fn new(t_cpu_cycles: u64, queue_cap: usize) -> CpuEngine {
        CpuEngine {
            queue: VecDeque::new(),
            queue_cap: queue_cap.max(1),
            awaiting: false,
            next_send_at: MemCycle::ZERO,
            interval: CpuCycle(t_cpu_cycles).to_mem_cycles_ceil(),
            stats: EngineStats::default(),
            obs: None,
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Attaches (or detaches) a trace recorder; sends and responses emit
    /// access-span events.
    pub fn set_obs(&mut self, obs: Option<SharedRecorder>) {
        self.obs = obs;
    }

    /// Jobs queued by the S-App core and not yet sent.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the S-App core can hand over another access.
    pub fn can_submit(&self) -> bool {
        self.queue.len() < self.queue_cap
    }

    /// Queues a real S-App access. `id` is `Some` for reads the core
    /// blocks on. Returns `false` (and drops nothing) when full.
    pub fn submit(&mut self, id: Option<RequestId>, op: MemOp, block: u64) -> bool {
        if !self.can_submit() {
            return false;
        }
        self.queue.push_back(OramJob::Real { id, op, block });
        true
    }

    /// If the pacing rule allows, returns the job to send this cycle —
    /// a queued real request, else a dummy. The caller must only invoke
    /// this when it can actually transmit (link slot free); the job is
    /// consumed.
    pub fn poll_send(&mut self, now: MemCycle) -> Option<OramJob> {
        if self.awaiting || now < self.next_send_at {
            return None;
        }
        let job = self.queue.pop_front().unwrap_or(OramJob::Dummy);
        match job {
            OramJob::Real { .. } => self.stats.real_sent.inc(),
            OramJob::Dummy => self.stats.dummies_sent.inc(),
        }
        if let Some(obs) = &self.obs {
            obs.borrow_mut()
                .engine_send(now.0, matches!(job, OramJob::Real { .. }));
        }
        self.awaiting = true;
        Some(job)
    }

    /// Handles the SD's response packet; returns the core-visible read id
    /// to complete, if any.
    pub fn on_response(&mut self, job: OramJob, now: MemCycle) -> Option<RequestId> {
        debug_assert!(self.awaiting, "response without outstanding request");
        self.awaiting = false;
        self.next_send_at = now + self.interval;
        self.stats.responses.inc();
        if let Some(obs) = &self.obs {
            obs.borrow_mut()
                .engine_response(now.0, matches!(job, OramJob::Real { .. }));
        }
        match job {
            OramJob::Real { id, .. } => id,
            OramJob::Dummy => None,
        }
    }
}

doram_sim::impl_codec!(struct EngineStats { real_sent, dummies_sent, responses });

// The recorder wiring is redone by the host after restore.
doram_sim::impl_snapshot!(CpuEngine {
    queue,
    awaiting,
    next_send_at,
    stats,
} skip { queue_cap, interval, obs });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_dummy_when_idle() {
        let mut e = CpuEngine::new(50, 4);
        let job = e.poll_send(MemCycle(0)).unwrap();
        assert_eq!(job, OramJob::Dummy);
        assert_eq!(e.stats().dummies_sent.get(), 1);
    }

    #[test]
    fn real_requests_take_priority() {
        let mut e = CpuEngine::new(50, 4);
        assert!(e.submit(Some(RequestId(7)), MemOp::Read, 100));
        match e.poll_send(MemCycle(0)).unwrap() {
            OramJob::Real { id, block, .. } => {
                assert_eq!(id, Some(RequestId(7)));
                assert_eq!(block, 100);
            }
            OramJob::Dummy => panic!("queued real request skipped"),
        }
    }

    #[test]
    fn only_one_outstanding() {
        let mut e = CpuEngine::new(50, 4);
        assert!(e.poll_send(MemCycle(0)).is_some());
        assert!(e.poll_send(MemCycle(1)).is_none(), "must await response");
    }

    #[test]
    fn pacing_rule_t_after_response() {
        // t = 50 CPU cycles = 13 memory cycles (ceil).
        let mut e = CpuEngine::new(50, 4);
        let j = e.poll_send(MemCycle(0)).unwrap();
        e.on_response(j, MemCycle(100));
        assert!(e.poll_send(MemCycle(112)).is_none());
        assert!(e.poll_send(MemCycle(113)).is_some());
    }

    #[test]
    fn response_resolves_core_read() {
        let mut e = CpuEngine::new(50, 4);
        e.submit(Some(RequestId(3)), MemOp::Read, 8);
        let j = e.poll_send(MemCycle(0)).unwrap();
        assert_eq!(e.on_response(j, MemCycle(50)), Some(RequestId(3)));
        assert_eq!(e.stats().responses.get(), 1);
    }

    #[test]
    fn dummy_response_resolves_nothing() {
        let mut e = CpuEngine::new(50, 4);
        let j = e.poll_send(MemCycle(0)).unwrap();
        assert_eq!(e.on_response(j, MemCycle(10)), None);
    }

    #[test]
    fn queue_capacity() {
        let mut e = CpuEngine::new(50, 2);
        assert!(e.submit(None, MemOp::Write, 1));
        assert!(e.submit(None, MemOp::Write, 2));
        assert!(!e.can_submit());
        assert!(!e.submit(None, MemOp::Write, 3));
    }

    #[test]
    fn fixed_rate_stream_statistics() {
        // Over a long window with instant responses, requests are sent
        // every `interval` cycles — the observable pattern is constant
        // whether or not real work exists.
        let mut e = CpuEngine::new(48, 4); // 12 mem cycles
        let mut sends = 0;
        let mut now = MemCycle(0);
        for _ in 0..100 {
            if let Some(j) = e.poll_send(now) {
                sends += 1;
                e.on_response(j, now); // instant response
            }
            now += MemCycle(1);
        }
        // 100 cycles / 12-cycle interval ≈ 8 sends.
        assert!((8..=9).contains(&sends), "{sends} sends");
    }
}
