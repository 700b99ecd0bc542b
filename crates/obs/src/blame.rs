//! Per-requestor blame attribution at shared contention points.
//!
//! Every cycle a request spends queued at a shared resource (a DRAM
//! sub-channel's read/write queues, a BOB link serializer, the system's
//! split-request mux, the SD's verification hold queue) is attributed to
//! the [`BlameClass`] *occupying* that resource during the cycle — or to
//! the waiter's own class when the resource was idle (self-wait: bank
//! timing, refresh, own-class turnaround). The per-resource rows of the
//! resulting [`BlameMatrix`] therefore **telescope**: the sum of a
//! resource's per-class attributed wait cycles equals its total queueing
//! delay, exactly, which is what lets the matrix answer "who delayed
//! whom, and by how much" without double counting.
//!
//! Instrumentation keeps the hot path O(1) per tick: resources maintain
//! per-class *busy-cycle prefix counters*; a waiter snapshots them on
//! enqueue and takes the difference on issue, so attribution costs
//! O(classes) per request instead of O(queue length) per cycle.

/// Requestor classes competing for shared resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BlameClass {
    /// S-App ORAM path reads (the latency-critical phase).
    SAppRead = 0,
    /// S-App ORAM writebacks (background eviction traffic).
    SAppWriteback = 1,
    /// Non-secure co-runner traffic.
    NsApp = 2,
    /// Parity scrubbing and degraded-mode share rebuilds.
    ScrubParity = 3,
    /// Integrity verification: freshness-tree holds and detection-
    /// triggered re-fetches.
    IntegrityVerify = 4,
}

/// Number of [`BlameClass`] variants (matrix row width).
pub const BLAME_CLASSES: usize = 5;

/// Every class, in tag order.
pub const ALL_BLAME_CLASSES: [BlameClass; BLAME_CLASSES] = [
    BlameClass::SAppRead,
    BlameClass::SAppWriteback,
    BlameClass::NsApp,
    BlameClass::ScrubParity,
    BlameClass::IntegrityVerify,
];

impl BlameClass {
    /// Stable lower-snake name (JSON keys, Prometheus labels, tables).
    pub fn name(self) -> &'static str {
        match self {
            BlameClass::SAppRead => "s_app_read",
            BlameClass::SAppWriteback => "s_app_writeback",
            BlameClass::NsApp => "ns_app",
            BlameClass::ScrubParity => "scrub_parity",
            BlameClass::IntegrityVerify => "integrity_verify",
        }
    }

    /// Class from its wire tag; out-of-range tags fold to [`NsApp`]
    /// (instrumentation never emits them, but snapshots must not panic).
    ///
    /// [`NsApp`]: BlameClass::NsApp
    pub fn from_tag(tag: u8) -> BlameClass {
        ALL_BLAME_CLASSES
            .get(tag as usize)
            .copied()
            .unwrap_or(BlameClass::NsApp)
    }
}

impl std::fmt::Display for BlameClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One resource's row: who its waiters blamed, plus the independently
/// accumulated total queueing delay the waits must telescope to.
#[derive(Debug, Clone)]
pub struct ResourceBlame {
    /// Stable resource name (`"sd.sub0"`, `"ch1.link.to_mem"`, …).
    pub name: String,
    /// Attributed wait cycles, indexed by [`BlameClass`] tag.
    pub waits: [u64; BLAME_CLASSES],
    /// Total queueing delay (sum over requests of cycles spent queued),
    /// accumulated independently of the attribution path.
    pub queue_delay: u64,
    /// Per-class busy-cycle prefix counters (monotone; waiters snapshot
    /// these on enqueue and difference them on issue).
    pub busy_prefix: [u64; BLAME_CLASSES],
}

impl ResourceBlame {
    fn new(name: String) -> ResourceBlame {
        ResourceBlame {
            name,
            waits: [0; BLAME_CLASSES],
            queue_delay: 0,
            busy_prefix: [0; BLAME_CLASSES],
        }
    }

    /// Sum of the row's attributed waits.
    pub fn total_waits(&self) -> u64 {
        self.waits.iter().sum()
    }
}

/// The per-resource blame matrix. Resources register by name (idempotent,
/// so re-wiring after a checkpoint restore finds the restored rows) and
/// charge through the returned dense index.
#[derive(Debug, Clone, Default)]
pub struct BlameMatrix {
    resources: Vec<ResourceBlame>,
}

impl BlameMatrix {
    /// Registers (or finds) a resource, returning its dense index.
    pub fn resource(&mut self, name: &str) -> usize {
        if let Some(idx) = self.resources.iter().position(|r| r.name == name) {
            return idx;
        }
        self.resources.push(ResourceBlame::new(name.to_string()));
        self.resources.len() - 1
    }

    /// Marks resource `res` busy with `class` for one cycle (advances the
    /// busy prefix waiters difference against).
    #[inline]
    pub fn busy_cycle(&mut self, res: usize, class: BlameClass) {
        self.resources[res].busy_prefix[class as usize] += 1;
    }

    /// The current busy-prefix vector of `res`, snapshotted by a waiter
    /// on enqueue.
    #[inline]
    pub fn busy_snapshot(&self, res: usize) -> [u64; BLAME_CLASSES] {
        self.resources[res].busy_prefix
    }

    /// Attributes `cycles` of wait at `res` to `class`.
    #[inline]
    pub fn wait(&mut self, res: usize, class: BlameClass, cycles: u64) {
        self.resources[res].waits[class as usize] += cycles;
    }

    /// Adds `cycles` to `res`'s independent total-queueing-delay ledger.
    #[inline]
    pub fn delay(&mut self, res: usize, cycles: u64) {
        self.resources[res].queue_delay += cycles;
    }

    /// Settles one request that waited `waited` cycles at `res`: its own
    /// class is `own`, and `snap` is the busy prefix taken on enqueue.
    /// Busy cycles observed while it waited are blamed on the occupying
    /// classes; the remainder (resource idle: own bank timing, refresh)
    /// is self-blame. The partition is clamped so exactly `waited` cycles
    /// are attributed, then `waited` is added to the delay ledger — the
    /// telescoping invariant holds by construction and the conservation
    /// test catches any instrumentation site that breaks the pairing.
    pub fn settle(
        &mut self,
        res: usize,
        own: BlameClass,
        waited: u64,
        snap: &[u64; BLAME_CLASSES],
    ) {
        let row = &mut self.resources[res];
        let mut remaining = waited;
        for ((wait, &prefix), &snapped) in row.waits.iter_mut().zip(&row.busy_prefix).zip(snap) {
            let busy = prefix.saturating_sub(snapped).min(remaining);
            *wait += busy;
            remaining -= busy;
        }
        row.waits[own as usize] += remaining;
        row.queue_delay += waited;
    }

    /// Registered resources, in registration order.
    pub fn resources(&self) -> &[ResourceBlame] {
        &self.resources
    }

    /// Whether any wait or delay has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.resources
            .iter()
            .all(|r| r.queue_delay == 0 && r.total_waits() == 0)
    }

    /// Total attributed wait cycles per class, summed over resources.
    pub fn class_totals(&self) -> [u64; BLAME_CLASSES] {
        let mut totals = [0u64; BLAME_CLASSES];
        for r in &self.resources {
            for (t, w) in totals.iter_mut().zip(r.waits.iter()) {
                *t += w;
            }
        }
        totals
    }

    /// Checks the telescoping invariant on every resource, returning the
    /// first violation as `(resource name, attributed, delay)`.
    pub fn check_conservation(&self) -> Result<(), (String, u64, u64)> {
        for r in &self.resources {
            let attributed = r.total_waits();
            if attributed != r.queue_delay {
                return Err((r.name.clone(), attributed, r.queue_delay));
            }
        }
        Ok(())
    }
}

doram_sim::impl_codec!(struct ResourceBlame { name, waits, queue_delay, busy_prefix });
doram_sim::impl_codec!(struct BlameMatrix { resources });

#[cfg(test)]
mod tests {
    use super::*;
    use doram_sim::snapshot::{Codec, SnapshotReader, SnapshotWriter};

    #[test]
    fn registration_is_idempotent() {
        let mut m = BlameMatrix::default();
        let a = m.resource("sd.sub0");
        let b = m.resource("sd.sub1");
        assert_ne!(a, b);
        assert_eq!(m.resource("sd.sub0"), a);
        assert_eq!(m.resources().len(), 2);
    }

    #[test]
    fn settle_partitions_exactly() {
        let mut m = BlameMatrix::default();
        let r = m.resource("dram");
        let snap = m.busy_snapshot(r);
        // 6 busy cycles for NsApp, 2 for SAppRead while our request waits.
        for _ in 0..6 {
            m.busy_cycle(r, BlameClass::NsApp);
        }
        for _ in 0..2 {
            m.busy_cycle(r, BlameClass::SAppRead);
        }
        // The request waited 10 cycles: 6 blamed on NsApp, 2 on SAppRead,
        // 2 self (idle).
        m.settle(r, BlameClass::SAppWriteback, 10, &snap);
        let row = &m.resources()[r];
        assert_eq!(row.waits[BlameClass::NsApp as usize], 6);
        assert_eq!(row.waits[BlameClass::SAppRead as usize], 2);
        assert_eq!(row.waits[BlameClass::SAppWriteback as usize], 2);
        assert_eq!(row.total_waits(), 10);
        assert_eq!(row.queue_delay, 10);
        assert!(m.check_conservation().is_ok());
    }

    #[test]
    fn settle_clamps_when_busy_exceeds_wait() {
        // An off-by-one-cycle overlap between enqueue and the busy
        // prefix must never attribute more than the request waited.
        let mut m = BlameMatrix::default();
        let r = m.resource("link");
        let snap = m.busy_snapshot(r);
        for _ in 0..8 {
            m.busy_cycle(r, BlameClass::SAppRead);
        }
        m.settle(r, BlameClass::NsApp, 5, &snap);
        let row = &m.resources()[r];
        assert_eq!(row.total_waits(), 5);
        assert_eq!(row.queue_delay, 5);
        assert_eq!(row.waits[BlameClass::SAppRead as usize], 5);
        assert!(m.check_conservation().is_ok());
    }

    #[test]
    fn aggregate_wait_plus_delay_keeps_conservation() {
        // Aggregate-style resources (mux queues) charge both sides per
        // tick; the invariant still holds.
        let mut m = BlameMatrix::default();
        let r = m.resource("cpu.mux.split");
        for _ in 0..100 {
            m.wait(r, BlameClass::SAppRead, 3);
            m.delay(r, 3);
        }
        assert!(m.check_conservation().is_ok());
        m.wait(r, BlameClass::NsApp, 1);
        assert!(m.check_conservation().is_err());
    }

    #[test]
    fn class_totals_sum_rows() {
        let mut m = BlameMatrix::default();
        let a = m.resource("a");
        let b = m.resource("b");
        m.wait(a, BlameClass::NsApp, 4);
        m.wait(b, BlameClass::NsApp, 6);
        m.wait(b, BlameClass::ScrubParity, 1);
        let totals = m.class_totals();
        assert_eq!(totals[BlameClass::NsApp as usize], 10);
        assert_eq!(totals[BlameClass::ScrubParity as usize], 1);
    }

    #[test]
    fn snapshot_round_trips_and_rewires_by_name() {
        let mut m = BlameMatrix::default();
        let r = m.resource("sd.sub0");
        let snap = m.busy_snapshot(r);
        m.busy_cycle(r, BlameClass::NsApp);
        m.settle(r, BlameClass::SAppRead, 4, &snap);
        let mut w = SnapshotWriter::new();
        m.put(&mut w);
        let bytes = w.into_bytes();
        let mut restored = BlameMatrix::get(&mut SnapshotReader::new(&bytes)).unwrap();
        // Re-registration after restore finds the same row.
        assert_eq!(restored.resource("sd.sub0"), r);
        assert_eq!(restored.resources()[r].queue_delay, 4);
        assert_eq!(
            restored.resources()[r].busy_prefix[BlameClass::NsApp as usize],
            1
        );
        assert!(restored.check_conservation().is_ok());
    }

    #[test]
    fn tag_round_trips() {
        for c in ALL_BLAME_CLASSES {
            assert_eq!(BlameClass::from_tag(c as u8), c);
        }
        assert_eq!(BlameClass::from_tag(250), BlameClass::NsApp);
    }
}
