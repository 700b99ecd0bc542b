//! Typed trace events and the subsystem filter.
//!
//! An [`Event`] is a fixed-size `Copy` record — no heap data travels
//! through the hot path. Span semantics (begin/end pairing) live in the
//! *kinds*: the exporter pairs [`EventKind::AccessBegin`] with
//! [`EventKind::AccessEnd`] (and the SD-side kinds likewise) by the
//! event's access sequence number.

use std::fmt;

/// Sentinel access id for events not attributable to one ORAM access
/// (link frames, metric-driven instants).
pub const NO_ACCESS: u64 = u64::MAX;

/// The component a trace event was emitted from. Doubles as the unit of
/// `--trace-filter` selection via a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Subsystem {
    /// The on-CPU engine pacing real and dummy ORAM requests.
    Engine = 0,
    /// The BOB serial link between CPU and the secure channel.
    Link = 1,
    /// The secure delegator's controller (FSM, position map, responses).
    Sd = 2,
    /// The SD-local DDR3 sub-channels serving path reads/writes.
    Dram = 3,
    /// The Path ORAM stash (functional model).
    Stash = 4,
    /// Fault injection and recovery activity.
    Fault = 5,
}

/// Every subsystem, in tag order.
pub const ALL_SUBSYSTEMS: [Subsystem; 6] = [
    Subsystem::Engine,
    Subsystem::Link,
    Subsystem::Sd,
    Subsystem::Dram,
    Subsystem::Stash,
    Subsystem::Fault,
];

impl Subsystem {
    /// The subsystem's bit in a filter mask.
    #[inline]
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Stable lower-case name (used in filters and trace output).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Engine => "engine",
            Subsystem::Link => "link",
            Subsystem::Sd => "sd",
            Subsystem::Dram => "dram",
            Subsystem::Stash => "stash",
            Subsystem::Fault => "fault",
        }
    }

    /// Parses a subsystem name as accepted by `--trace-filter`.
    pub fn from_name(name: &str) -> Option<Subsystem> {
        ALL_SUBSYSTEMS.iter().copied().find(|s| s.name() == name)
    }

    fn from_tag(tag: u8) -> Option<Subsystem> {
        ALL_SUBSYSTEMS.get(tag as usize).copied()
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A filter mask selecting every subsystem.
pub const FILTER_ALL: u8 = 0b0011_1111;

/// Parses a `--trace-filter` list (`"link,sd,dram"`) into a bitmask.
/// `"all"` (or an empty string) selects everything; `"none"` nothing.
///
/// # Errors
///
/// Returns the first unknown name.
pub fn parse_filter(spec: &str) -> Result<u8, String> {
    let spec = spec.trim();
    if spec.is_empty() || spec == "all" {
        return Ok(FILTER_ALL);
    }
    if spec == "none" {
        return Ok(0);
    }
    let mut mask = 0u8;
    for part in spec.split(',') {
        let part = part.trim();
        match Subsystem::from_name(part) {
            Some(s) => mask |= s.bit(),
            None => return Err(part.to_string()),
        }
    }
    Ok(mask)
}

/// Renders a filter mask back into the `--trace-filter` syntax.
pub fn filter_names(mask: u8) -> String {
    if mask & FILTER_ALL == FILTER_ALL {
        return "all".into();
    }
    let names: Vec<&str> = ALL_SUBSYSTEMS
        .iter()
        .filter(|s| mask & s.bit() != 0)
        .map(|s| s.name())
        .collect();
    if names.is_empty() {
        "none".into()
    } else {
        names.join(",")
    }
}

/// What happened. Kinds whose doc says *span begin* / *span end* are
/// paired by access id when exporting; the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Span begin: a real S-App access left the CPU engine onto the
    /// secure link (`t0` of the access).
    AccessBegin = 0,
    /// Span end: the response for a real access arrived back at the CPU
    /// engine (`t3`).
    AccessEnd = 1,
    /// The engine sent a fixed-rate pacing dummy instead of a real job.
    DummyIssued = 2,
    /// A frame entered a link direction's serializer; `value` = wire
    /// bytes (72 for secure packets).
    LinkTx = 3,
    /// A frame arrived at the far end of a link; `value` = wire bytes.
    LinkRx = 4,
    /// Span begin (SD side): a secure request arrived at the delegator
    /// (`t1`).
    SdStart = 5,
    /// The SD's FSM dequeued the access and performed its position-map
    /// lookup.
    SdPosmap = 6,
    /// Span end (SD side): the read phase finished and the response was
    /// queued for the return link (`t2`).
    SdReadDone = 7,
    /// The access's writeback phase completed inside the SD.
    SdAccessDone = 8,
    /// An ORAM-class request was enqueued on an SD sub-channel;
    /// `value` = sub-channel index.
    DramIssue = 9,
    /// An ORAM-class request completed on an SD sub-channel;
    /// `value` = sub-channel index.
    DramDone = 10,
    /// A requested block was already resident in the stash.
    StashHit = 11,
    /// Blocks were evicted from the stash into a path writeback;
    /// `value` = block count.
    StashEvict = 12,
    /// Stash occupancy after an insert; `value` = resident blocks.
    StashOccupancy = 13,
    /// A fault fired (link corruption detected, integrity failure);
    /// `value` = running count.
    FaultDetected = 14,
    /// A recovery action ran (retransmission, re-fetch); `value` =
    /// running count.
    Recovery = 15,
    /// A component's health state changed; `value` packs
    /// `component << 16 | from << 8 | to`
    /// (see `doram_sim::health::HealthTransition::event_value`).
    HealthTransition = 16,
    /// The background scrubber repaired one bucket from parity;
    /// `value` = sub-channel index.
    ScrubRepair = 17,
    /// The SD freshness tree verified a bucket on the read path;
    /// `value` = modeled verification cycles charged to the access.
    IntegrityVerify = 18,
}

/// Every event kind, in tag order.
pub const ALL_KINDS: [EventKind; 19] = [
    EventKind::AccessBegin,
    EventKind::AccessEnd,
    EventKind::DummyIssued,
    EventKind::LinkTx,
    EventKind::LinkRx,
    EventKind::SdStart,
    EventKind::SdPosmap,
    EventKind::SdReadDone,
    EventKind::SdAccessDone,
    EventKind::DramIssue,
    EventKind::DramDone,
    EventKind::StashHit,
    EventKind::StashEvict,
    EventKind::StashOccupancy,
    EventKind::FaultDetected,
    EventKind::Recovery,
    EventKind::HealthTransition,
    EventKind::ScrubRepair,
    EventKind::IntegrityVerify,
];

impl EventKind {
    /// Stable lower-snake name (used in trace output).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::AccessBegin => "access_begin",
            EventKind::AccessEnd => "access_end",
            EventKind::DummyIssued => "dummy_issued",
            EventKind::LinkTx => "link_tx",
            EventKind::LinkRx => "link_rx",
            EventKind::SdStart => "sd_start",
            EventKind::SdPosmap => "sd_posmap",
            EventKind::SdReadDone => "sd_read_done",
            EventKind::SdAccessDone => "sd_access_done",
            EventKind::DramIssue => "dram_issue",
            EventKind::DramDone => "dram_done",
            EventKind::StashHit => "stash_hit",
            EventKind::StashEvict => "stash_evict",
            EventKind::StashOccupancy => "stash_occupancy",
            EventKind::FaultDetected => "fault_detected",
            EventKind::Recovery => "recovery",
            EventKind::HealthTransition => "health_transition",
            EventKind::ScrubRepair => "scrub_repair",
            EventKind::IntegrityVerify => "integrity_verify",
        }
    }

    fn from_tag(tag: u8) -> Option<EventKind> {
        ALL_KINDS.get(tag as usize).copied()
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One trace record: fixed-size, `Copy`, no heap data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Memory cycle the event happened at.
    pub cycle: u64,
    /// ORAM access sequence number, or [`NO_ACCESS`].
    pub access: u64,
    /// Kind-specific payload (bytes, sub-channel index, occupancy, …).
    pub value: u64,
    /// What happened.
    pub kind: EventKind,
    /// Where it happened.
    pub subsystem: Subsystem,
}

doram_sim::impl_codec!(tagged EventKind);
doram_sim::impl_codec!(tagged Subsystem);
// 26 bytes per event.
doram_sim::impl_codec!(struct Event { cycle, access, value, kind, subsystem });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_round_trips() {
        assert_eq!(parse_filter("all").unwrap(), FILTER_ALL);
        assert_eq!(parse_filter("").unwrap(), FILTER_ALL);
        assert_eq!(parse_filter("none").unwrap(), 0);
        let m = parse_filter("link, sd").unwrap();
        assert_eq!(m, Subsystem::Link.bit() | Subsystem::Sd.bit());
        assert_eq!(filter_names(m), "link,sd");
        assert_eq!(filter_names(FILTER_ALL), "all");
        assert_eq!(filter_names(0), "none");
        assert_eq!(parse_filter("link,bogus").unwrap_err(), "bogus");
    }

    #[test]
    fn names_are_unique_and_reversible() {
        for s in ALL_SUBSYSTEMS {
            assert_eq!(Subsystem::from_name(s.name()), Some(s));
        }
        for (i, k) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*k as u8, i as u8);
        }
    }

    #[test]
    fn event_snapshot_round_trips() {
        use doram_sim::snapshot::{Codec, SnapshotReader, SnapshotWriter};
        let e = Event {
            cycle: 17,
            access: 3,
            value: 72,
            kind: EventKind::LinkTx,
            subsystem: Subsystem::Link,
        };
        let mut w = SnapshotWriter::new();
        e.put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 26);
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(Event::get(&mut r).unwrap(), e);
    }
}
