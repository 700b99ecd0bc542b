//! The preallocated event ring buffer.
//!
//! All storage is allocated up front at the configured capacity; pushing
//! never allocates. Once full, the ring overwrites the oldest event and
//! counts the overwrite in `dropped`, so a long run keeps its most recent
//! window rather than aborting or growing without bound.

use crate::event::Event;
use doram_sim::snapshot::{Codec, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Default ring capacity (events). At 26 bytes of payload per event this
/// bounds tracing memory to a few tens of megabytes.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// A fixed-capacity overwrite-oldest ring of [`Event`]s.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding up to `capacity` events, allocated eagerly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> EventRing {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends `e`, overwriting the oldest event when full. Never
    /// allocates beyond the initial reservation.
    #[inline]
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Clears the ring (capacity and allocation are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// Events travel in logical (oldest-first) order, so a restored ring starts
/// unwrapped with `head` at zero.
impl Snapshot for EventRing {
    fn save_state(&self, w: &mut SnapshotWriter) {
        let EventRing {
            buf: _,  // written in logical order below
            cap: _,  // config-derived
            head: _, // implied by the logical order
            dropped,
        } = self;
        dropped.put(w);
        w.put_usize(self.len());
        self.iter().for_each(|e| e.put(w));
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.clear();
        self.dropped = Codec::get(r)?;
        let events = Vec::<Event>::get(r)?;
        if events.len() > self.cap {
            return Err(SnapshotError::new(format!(
                "event ring holds {} events, capacity is {}",
                events.len(),
                self.cap
            )));
        }
        self.buf.extend(events);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Subsystem, NO_ACCESS};

    fn ev(cycle: u64) -> Event {
        Event {
            cycle,
            access: NO_ACCESS,
            value: 0,
            kind: EventKind::LinkTx,
            subsystem: Subsystem::Link,
        }
    }

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let mut ring = EventRing::new(4);
        for c in 0..6 {
            ring.push(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4, 5]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut ring = EventRing::new(8);
        let ptr = ring.buf.as_ptr();
        for c in 0..100 {
            ring.push(ev(c));
        }
        assert_eq!(ring.buf.as_ptr(), ptr, "ring must stay preallocated");
    }

    #[test]
    fn snapshot_round_trips_in_logical_order() {
        let mut ring = EventRing::new(4);
        for c in 0..7 {
            ring.push(ev(c));
        }
        let mut w = SnapshotWriter::new();
        ring.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = EventRing::new(4);
        restored
            .load_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert_eq!(restored.dropped(), ring.dropped());
        let a: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        let b: Vec<u64> = restored.iter().map(|e| e.cycle).collect();
        assert_eq!(a, b);
    }
}
