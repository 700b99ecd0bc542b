//! The [`Recorder`]: event ring + access correlation + metrics registry.
//!
//! One recorder serves the whole simulation. Components hold an
//! [`Option<SharedRecorder>`] — `None` (the default) makes every
//! instrumentation site a single branch with no allocation and no side
//! effects, which is how "tracing disabled" stays at no measurable cost.
//! The simulation is single-threaded, so the shared handle is an
//! `Rc<RefCell<_>>`: emission never blocks and never contends.
//!
//! # Access correlation
//!
//! The CPU engine and the SD sit on opposite ends of a FIFO serial link,
//! so both sides can number accesses independently with monotone
//! counters and the numbers line up: the engine's *n*-th job is the SD's
//! *n*-th arrival, and (with the SD pipeline off, the default) the *n*-th
//! read-phase completion and the *n*-th response. Dummy jobs occupy ids
//! in the same sequence so real ids stay aligned across both sides.

use crate::blame::{BlameClass, BlameMatrix, BLAME_CLASSES};
use crate::event::{Event, EventKind, Subsystem, NO_ACCESS};
use crate::histogram::LogHistogram;
use crate::metrics::MetricsRegistry;
use crate::ring::EventRing;
use crate::selfprof::SelfProfiler;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// The shared handle components hold. Single-threaded: cloning is a
/// refcount bump, emission a `RefCell` borrow.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Monotone per-side access counters (see the module docs).
#[derive(Debug, Clone, Default)]
struct AccessSeq {
    /// Jobs the engine has put on the link (real + dummy).
    engine_sent: u64,
    /// Responses the engine has taken off the link.
    engine_resp: u64,
    /// Jobs arrived at the SD.
    sd_arrived: u64,
    /// Arrived-but-not-yet-started jobs: `(access id, is_real)`.
    sd_waiting: VecDeque<(u64, bool)>,
    /// Access currently driving the SD's sub-channels.
    sd_current: u64,
    /// Read phases completed at the SD.
    sd_read_done: u64,
    /// Accesses fully completed (writeback included) at the SD.
    sd_access_done: u64,
}

/// The event log and telemetry state behind a [`SharedRecorder`].
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: EventRing,
    filter: u8,
    seq: AccessSeq,
    /// The metrics registry sampled by the simulation driver.
    pub metrics: MetricsRegistry,
    /// Per-resource interference blame (see [`crate::blame`]).
    pub blame: BlameMatrix,
    /// End-to-end latency of real S-App accesses (engine send → engine
    /// response), log-bucketed for percentile reporting.
    hist_access: LogHistogram,
    /// Per-class DRAM service latency (arrival → burst finish), indexed
    /// by [`BlameClass`] tag.
    hist_class: [LogHistogram; BLAME_CLASSES],
    /// Send cycles of in-flight engine jobs: `(cycle, real)`, FIFO — the
    /// serial link preserves order, so responses pop from the front.
    inflight_sends: VecDeque<(u64, bool)>,
    /// Host-side self-profiler (wall-clock; never checkpointed).
    pub prof: SelfProfiler,
}

impl Recorder {
    /// Creates a recorder with an eagerly allocated ring of
    /// `ring_capacity` events, a subsystem `filter` mask, and a metrics
    /// registry sampling every `metrics_every` cycles.
    pub fn new(ring_capacity: usize, filter: u8, metrics_every: u64) -> Recorder {
        Recorder {
            ring: EventRing::new(ring_capacity),
            filter,
            seq: AccessSeq::default(),
            metrics: MetricsRegistry::new(metrics_every),
            blame: BlameMatrix::default(),
            hist_access: LogHistogram::new(),
            hist_class: std::array::from_fn(|_| LogHistogram::new()),
            inflight_sends: VecDeque::new(),
            prof: SelfProfiler::default(),
        }
    }

    /// Wraps a fresh recorder in the shared handle.
    pub fn shared(ring_capacity: usize, filter: u8, metrics_every: u64) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new(
            ring_capacity,
            filter,
            metrics_every,
        )))
    }

    /// The subsystem filter mask.
    pub fn filter(&self) -> u8 {
        self.filter
    }

    /// Replaces the subsystem filter mask.
    pub fn set_filter(&mut self, mask: u8) {
        self.filter = mask;
    }

    /// Whether events from `sub` pass the filter.
    #[inline]
    pub fn wants(&self, sub: Subsystem) -> bool {
        self.filter & sub.bit() != 0
    }

    #[inline]
    fn push(&mut self, subsystem: Subsystem, kind: EventKind, cycle: u64, access: u64, value: u64) {
        if self.wants(subsystem) {
            self.ring.push(Event {
                cycle,
                access,
                value,
                kind,
                subsystem,
            });
        }
    }

    /// Records a generic instant event (stash, faults).
    #[inline]
    pub fn instant(&mut self, sub: Subsystem, kind: EventKind, cycle: u64, value: u64) {
        self.push(sub, kind, cycle, NO_ACCESS, value);
    }

    /// Engine put a job on the link; returns its access id. Counters
    /// advance for dummies too so both link ends stay aligned.
    pub fn engine_send(&mut self, cycle: u64, real: bool) -> u64 {
        let id = self.seq.engine_sent;
        self.seq.engine_sent += 1;
        self.inflight_sends.push_back((cycle, real));
        let kind = if real {
            EventKind::AccessBegin
        } else {
            EventKind::DummyIssued
        };
        self.push(Subsystem::Engine, kind, cycle, id, 0);
        id
    }

    /// Engine took a response off the link; returns its access id.
    pub fn engine_response(&mut self, cycle: u64, real: bool) -> u64 {
        let id = self.seq.engine_resp;
        self.seq.engine_resp += 1;
        if let Some((sent, sent_real)) = self.inflight_sends.pop_front() {
            // Only real accesses feed the latency percentile tables;
            // dummies share the same path and would double-weight it.
            if real && sent_real {
                self.hist_access.record(cycle.saturating_sub(sent));
            }
        }
        if real {
            self.push(Subsystem::Engine, EventKind::AccessEnd, cycle, id, 0);
        }
        id
    }

    /// Records one completed request's service latency under its blame
    /// class (fed by the DRAM sub-channels on burst retirement).
    #[inline]
    pub fn class_latency(&mut self, class: BlameClass, cycles: u64) {
        self.hist_class[class as usize].record(cycles);
    }

    /// End-to-end latency histogram of real S-App accesses.
    pub fn access_histogram(&self) -> &LogHistogram {
        &self.hist_access
    }

    /// Per-class DRAM service-latency histogram.
    pub fn class_histogram(&self, class: BlameClass) -> &LogHistogram {
        &self.hist_class[class as usize]
    }

    /// A secure request arrived at the SD; returns its access id.
    pub fn sd_arrival(&mut self, cycle: u64, real: bool) -> u64 {
        let id = self.seq.sd_arrived;
        self.seq.sd_arrived += 1;
        self.seq.sd_waiting.push_back((id, real));
        if real {
            self.push(Subsystem::Sd, EventKind::SdStart, cycle, id, 0);
        }
        id
    }

    /// The SD's FSM dequeued the next access (position-map lookup);
    /// subsequent DRAM events attribute to it.
    pub fn sd_access_started(&mut self, cycle: u64) {
        if let Some((id, real)) = self.seq.sd_waiting.pop_front() {
            self.seq.sd_current = id;
            if real {
                self.push(Subsystem::Sd, EventKind::SdPosmap, cycle, id, 0);
            }
        }
    }

    /// The SD finished an access's read phase (response queued).
    pub fn sd_read_done(&mut self, cycle: u64, real: bool) -> u64 {
        let id = self.seq.sd_read_done;
        self.seq.sd_read_done += 1;
        if real {
            self.push(Subsystem::Sd, EventKind::SdReadDone, cycle, id, 0);
        }
        id
    }

    /// The SD finished an access entirely (writeback drained).
    pub fn sd_access_done(&mut self, cycle: u64, real: bool) -> u64 {
        let id = self.seq.sd_access_done;
        self.seq.sd_access_done += 1;
        if real {
            self.push(Subsystem::Sd, EventKind::SdAccessDone, cycle, id, 0);
        }
        id
    }

    /// An ORAM-class request entered SD sub-channel `sub_idx`.
    pub fn dram_issue(&mut self, cycle: u64, sub_idx: u64) {
        self.push(
            Subsystem::Dram,
            EventKind::DramIssue,
            cycle,
            self.seq.sd_current,
            sub_idx,
        );
    }

    /// An ORAM-class request completed on SD sub-channel `sub_idx`.
    pub fn dram_done(&mut self, cycle: u64, sub_idx: u64) {
        self.push(
            Subsystem::Dram,
            EventKind::DramDone,
            cycle,
            self.seq.sd_current,
            sub_idx,
        );
    }

    /// The SD freshness tree verified a bucket for the current access;
    /// `cycles` is the modeled verification latency charged.
    pub fn integrity_verify(&mut self, cycle: u64, cycles: u64) {
        self.push(
            Subsystem::Sd,
            EventKind::IntegrityVerify,
            cycle,
            self.seq.sd_current,
            cycles,
        );
    }

    /// A frame entered a link serializer (`bytes` on the wire).
    pub fn link_tx(&mut self, cycle: u64, bytes: u64) {
        self.push(Subsystem::Link, EventKind::LinkTx, cycle, NO_ACCESS, bytes);
    }

    /// A frame arrived at the far end of a link.
    pub fn link_rx(&mut self, cycle: u64, bytes: u64) {
        self.push(Subsystem::Link, EventKind::LinkRx, cycle, NO_ACCESS, bytes);
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.iter().copied().collect()
    }

    /// Events held / overwritten / capacity of the ring.
    pub fn ring_stats(&self) -> (usize, u64, usize) {
        (self.ring.len(), self.ring.dropped(), self.ring.capacity())
    }

    /// The last few events, rendered for diagnostic dumps.
    pub fn recent_events(&self, n: usize) -> Vec<String> {
        let events: Vec<&Event> = self.ring.iter().collect();
        events
            .iter()
            .rev()
            .take(n)
            .rev()
            .map(|e| {
                let access = if e.access == NO_ACCESS {
                    String::from("-")
                } else {
                    e.access.to_string()
                };
                format!(
                    "[{}] {}.{} access={} value={}",
                    e.cycle,
                    e.subsystem.name(),
                    e.kind.name(),
                    access,
                    e.value
                )
            })
            .collect()
    }
}

doram_sim::impl_codec!(struct AccessSeq {
    engine_sent,
    engine_resp,
    sd_arrived,
    sd_waiting,
    sd_current,
    sd_read_done,
    sd_access_done,
});

// The filter is a run option and the self-profiler's host wall-clock state
// is never checkpointed.
doram_sim::impl_snapshot!(Recorder {
    ring: state,
    seq,
    metrics: state,
    blame,
    hist_access: state,
    hist_class: state,
    inflight_sends,
} skip { filter, prof });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_filter, FILTER_ALL};
    use doram_sim::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};

    /// Walks one real access end to end and checks the span events pair
    /// up on one id with ordered timestamps.
    #[test]
    fn one_access_produces_matched_spans() {
        let mut rec = Recorder::new(64, FILTER_ALL, 1000);
        let id = rec.engine_send(10, true);
        rec.link_tx(10, 72);
        rec.link_rx(25, 72);
        assert_eq!(rec.sd_arrival(25, true), id);
        rec.sd_access_started(26);
        rec.dram_issue(27, 0);
        rec.dram_done(60, 0);
        assert_eq!(rec.sd_read_done(61, true), id);
        rec.link_tx(61, 72);
        rec.link_rx(76, 72);
        assert_eq!(rec.engine_response(76, true), id);
        assert_eq!(rec.sd_access_done(90, true), id);

        let events = rec.events();
        let t = |kind: EventKind| {
            events
                .iter()
                .find(|e| e.kind == kind && e.access == id)
                .map(|e| e.cycle)
                .unwrap()
        };
        let (t0, t1, t2, t3) = (
            t(EventKind::AccessBegin),
            t(EventKind::SdStart),
            t(EventKind::SdReadDone),
            t(EventKind::AccessEnd),
        );
        assert!(t0 <= t1 && t1 <= t2 && t2 <= t3);
        // The breakdown telescopes: link + sd == total.
        let link = (t1 - t0) + (t3 - t2);
        let sd = t2 - t1;
        assert_eq!(link + sd, t3 - t0);
    }

    /// Dummy jobs advance the id sequence without emitting span events,
    /// keeping real ids aligned across both link ends.
    #[test]
    fn dummies_keep_ids_aligned() {
        let mut rec = Recorder::new(64, FILTER_ALL, 1000);
        assert_eq!(rec.engine_send(1, false), 0); // dummy
        assert_eq!(rec.engine_send(2, true), 1); // real
        assert_eq!(rec.sd_arrival(10, false), 0);
        assert_eq!(rec.sd_arrival(11, true), 1);
        rec.sd_access_started(12); // dummy starts
        rec.sd_access_started(40); // real starts
        assert_eq!(rec.sd_read_done(50, false), 0);
        assert_eq!(rec.sd_read_done(80, true), 1);
        assert_eq!(rec.engine_response(60, false), 0);
        assert_eq!(rec.engine_response(95, true), 1);
        let events = rec.events();
        let begins: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::AccessBegin)
            .map(|e| e.access)
            .collect();
        assert_eq!(begins, vec![1]);
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::DummyIssued && e.access == 0));
    }

    #[test]
    fn filter_suppresses_events_but_not_counters() {
        let mut rec = Recorder::new(64, parse_filter("sd").unwrap(), 1000);
        let a = rec.engine_send(1, true); // filtered out of the ring
        rec.link_tx(1, 72); // filtered
        let b = rec.sd_arrival(5, true); // recorded
        assert_eq!(a, b, "counters advance regardless of the filter");
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::SdStart);
    }

    #[test]
    fn snapshot_round_trips_mid_access() {
        let mut rec = Recorder::new(64, FILTER_ALL, 1000);
        rec.engine_send(1, true);
        rec.sd_arrival(9, true);
        rec.metrics.set("g", 4.0);
        rec.metrics.sample(0);
        let mut w = SnapshotWriter::new();
        rec.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Recorder::new(64, FILTER_ALL, 1000);
        restored
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        // The restored recorder continues the same sequences.
        assert_eq!(restored.engine_send(20, true), rec.engine_send(20, true));
        restored.sd_access_started(21);
        rec.sd_access_started(21);
        assert_eq!(restored.events().len(), rec.events().len());
        assert_eq!(
            restored.metrics.series()[0].points,
            rec.metrics.series()[0].points
        );
    }
}
