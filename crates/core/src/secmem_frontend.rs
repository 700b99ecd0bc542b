//! S-App frontend for the secure-memory comparator (§II-C).
//!
//! Wraps [`doram_secmem::SecureMemoryEngine`]: each S-App access fans out
//! into one real and `channels − 1` dummy requests across the direct
//! channels; the S-App's read completes when the *real* request does,
//! with the constant secure-memory overhead added as an extra delay.

use crate::channels::{ChannelFabric, APP_REGION_BYTES};
use doram_dram::{MemOp, MemRequest, RequestClass};
use doram_secmem::{SecMemConfig, SecureMemoryEngine};
use doram_sim::{AppId, MemCycle, RequestId, RequestIdGen};
use std::collections::{HashMap, HashSet};

/// Tracks one in-flight real S-App request.
#[derive(Debug, Clone, Copy)]
struct PendingReal {
    /// Core-visible id to complete (None for writes).
    core_id: Option<RequestId>,
    issued: MemCycle,
}

/// The secure-memory S-App frontend.
#[derive(Debug)]
pub struct SecMemFrontend {
    engine: SecureMemoryEngine,
    s_app: AppId,
    /// Real request ids → completion bookkeeping.
    pending: HashMap<RequestId, PendingReal>,
    /// Dummy ids (completions discarded).
    dummies: HashSet<RequestId>,
    /// Completions delayed by the secure-memory overhead factor.
    delayed: Vec<(MemCycle, RequestId)>,
    overhead: f64,
}

impl SecMemFrontend {
    /// Creates the frontend for a system with `channels` channels.
    pub fn new(channels: usize, s_app: AppId, seed: u64) -> SecMemFrontend {
        let cfg = SecMemConfig {
            channels,
            ..SecMemConfig::default()
        };
        let overhead = cfg.sapp_overhead;
        SecMemFrontend {
            engine: SecureMemoryEngine::new(cfg, seed),
            s_app,
            pending: HashMap::new(),
            dummies: HashSet::new(),
            delayed: Vec::new(),
            overhead,
        }
    }

    /// Whether this frontend issued the request `id`.
    pub fn owns(&self, id: RequestId) -> bool {
        self.pending.contains_key(&id) || self.dummies.contains(&id)
    }

    /// Submits an S-App access; expands and enqueues the per-channel
    /// fan-out. Returns `false` if any channel refused (nothing is
    /// enqueued in that case — all-or-nothing keeps the obfuscation
    /// sound).
    pub fn try_submit(
        &mut self,
        core_id: Option<RequestId>,
        op: MemOp,
        addr: u64,
        now: MemCycle,
        fabric: &mut ChannelFabric,
        idgen: &mut RequestIdGen,
    ) -> bool {
        let line = addr >> 6;
        let n = fabric.len() as u64;
        let home = (line % n) as usize;
        let local = APP_REGION_BYTES * (self.s_app.index() as u64 + 1) + ((line / n) << 6);
        // All-or-nothing admission check.
        if !(0..fabric.len()).all(|ch| fabric.channel(ch).can_accept(op)) {
            return false;
        }
        for r in self.engine.expand(home, local, op) {
            let id = idgen.next_id();
            let req = MemRequest {
                id,
                app: self.s_app,
                op: r.op,
                addr: if r.is_real {
                    r.addr
                } else {
                    // Dummies live in the S-App region too.
                    APP_REGION_BYTES * (self.s_app.index() as u64 + 1) + r.addr
                },
                class: RequestClass::Normal,
                arrival: now,
            };
            if fabric.channel_mut(r.channel).try_enqueue(req, now).is_err() {
                // can_accept raced (should not happen on Direct channels);
                // drop the dummy silently — it carries no semantics.
                continue;
            }
            if r.is_real {
                self.pending.insert(
                    id,
                    PendingReal {
                        core_id,
                        issued: now,
                    },
                );
            } else {
                self.dummies.insert(id);
            }
        }
        true
    }

    /// Handles a completion belonging to this frontend. Call only when
    /// [`owns`](SecMemFrontend::owns) is true.
    pub fn on_completion(&mut self, id: RequestId, now: MemCycle) {
        if self.dummies.remove(&id) {
            return;
        }
        if let Some(p) = self.pending.remove(&id) {
            if let Some(core_id) = p.core_id {
                // Constant secure-memory overhead (~10%) applied to the
                // raw latency before the core sees the data.
                let raw = now.0 - p.issued.0;
                let extra = ((self.overhead - 1.0) * raw as f64).ceil() as u64;
                self.delayed.push((MemCycle(now.0 + extra), core_id));
            }
        }
    }

    /// Returns core read-ids whose (overhead-adjusted) data is ready.
    pub fn poll_ready(&mut self, now: MemCycle) -> Vec<RequestId> {
        let (ready, rest): (Vec<_>, Vec<_>) = self.delayed.drain(..).partition(|&(t, _)| t <= now);
        self.delayed = rest;
        ready.into_iter().map(|(_, id)| id).collect()
    }

    /// One-line summary of the dynamic state, for watchdog diagnostics.
    pub fn debug_state(&self) -> String {
        format!(
            "pending={} dummies={} delayed={}",
            self.pending.len(),
            self.dummies.len(),
            self.delayed.len()
        )
    }
}

doram_sim::impl_codec!(struct PendingReal { core_id, issued });

doram_sim::impl_snapshot!(SecMemFrontend {
    engine: state,
    pending,
    dummies,
    delayed,
} skip { s_app, overhead });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::ChannelFabric;
    use doram_dram::DramTiming;

    fn fabric() -> ChannelFabric {
        let sub = ChannelFabric::paper_subchannel_config(DramTiming::ddr3_1600(), 1.0);
        ChannelFabric::direct(4, &sub)
    }

    #[test]
    fn fans_out_to_every_channel() {
        let mut f = fabric();
        let mut fe = SecMemFrontend::new(4, AppId(0), 1);
        let mut ids = RequestIdGen::new();
        assert!(fe.try_submit(
            Some(RequestId(9)),
            MemOp::Read,
            0,
            MemCycle(0),
            &mut f,
            &mut ids
        ));
        // Drive until 4 completions observed.
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        while done.len() < 4 && now.0 < 5_000 {
            f.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert_eq!(done.len(), 4, "1 real + 3 dummies");
        for c in &done {
            assert!(fe.owns(c.request.id));
            fe.on_completion(c.request.id, c.finished);
        }
        // Exactly one core read becomes ready, after the overhead delay.
        let mut ready = Vec::new();
        for t in 0..500u64 {
            ready.extend(fe.poll_ready(MemCycle(now.0 + t)));
        }
        assert_eq!(ready, vec![RequestId(9)]);
    }

    #[test]
    fn overhead_delays_completion() {
        let mut f = fabric();
        let mut fe = SecMemFrontend::new(4, AppId(0), 1);
        let mut ids = RequestIdGen::new();
        fe.try_submit(
            Some(RequestId(1)),
            MemOp::Read,
            64,
            MemCycle(0),
            &mut f,
            &mut ids,
        );
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        while done.len() < 4 && now.0 < 5_000 {
            f.tick(now, &mut done);
            now += MemCycle(1);
        }
        let real_done = done
            .iter()
            .map(|c| {
                fe.on_completion(c.request.id, c.finished);
                c.finished
            })
            .max()
            .unwrap();
        // Not ready at raw completion time.
        assert!(fe.poll_ready(real_done).is_empty());
    }

    #[test]
    fn writes_complete_without_core_notification() {
        let mut f = fabric();
        let mut fe = SecMemFrontend::new(4, AppId(0), 1);
        let mut ids = RequestIdGen::new();
        assert!(fe.try_submit(None, MemOp::Write, 128, MemCycle(0), &mut f, &mut ids));
        let mut done = Vec::new();
        let mut now = MemCycle(0);
        while done.len() < 4 && now.0 < 5_000 {
            f.tick(now, &mut done);
            now += MemCycle(1);
        }
        assert_eq!(done.len(), 4, "1 real + 3 dummy writes");
        for c in &done {
            assert!(fe.owns(c.request.id));
            assert_eq!(c.request.op, MemOp::Write);
            fe.on_completion(c.request.id, c.finished);
        }
        assert!(fe.poll_ready(MemCycle(100_000)).is_empty());
    }
}
