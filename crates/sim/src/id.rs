//! Identifier newtypes used across the simulator.
//!
//! Keeping cores, applications, channels and sub-channels as distinct types
//! prevents a whole family of index-confusion bugs in the interference
//! experiments, where all four spaces are small integers.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub usize);

        impl $name {
            /// Raw index value.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> $name {
                $name(v)
            }
        }
    };
}

id_type!(
    /// A hardware core of the CMP (0..8 in the paper's configuration).
    CoreId,
    "core"
);
id_type!(
    /// An application instance; in the paper's workloads app 0 is the S-App
    /// and apps 1..8 are NS-Apps, each pinned to its own core.
    AppId,
    "app"
);
id_type!(
    /// An off-chip memory channel (0..4); channel 0 is the secure channel in
    /// D-ORAM configurations.
    ChannelId,
    "ch"
);
id_type!(
    /// A sub-channel behind a BOB simple controller (the secure channel has
    /// four, normal channels one).
    SubChannelId,
    "sub"
);

/// A unique, monotonically increasing request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Allocator for [`RequestId`]s.
#[derive(Debug, Clone, Default)]
pub struct RequestIdGen {
    next: u64,
}

impl RequestIdGen {
    /// Creates an allocator starting at zero.
    pub fn new() -> RequestIdGen {
        RequestIdGen::default()
    }

    /// Returns a fresh identifier.
    pub fn next_id(&mut self) -> RequestId {
        let id = RequestId(self.next);
        self.next += 1;
        id
    }
}

crate::impl_codec!(struct RequestIdGen { next });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_tags() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(AppId(0).to_string(), "app0");
        assert_eq!(ChannelId(1).to_string(), "ch1");
        assert_eq!(SubChannelId(2).to_string(), "sub2");
        assert_eq!(RequestId(9).to_string(), "req9");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property; just exercise conversions.
        let c: CoreId = 4usize.into();
        assert_eq!(c.index(), 4);
    }

    #[test]
    fn request_ids_monotonic() {
        let mut alloc = RequestIdGen::new();
        let a = alloc.next_id();
        let b = alloc.next_id();
        assert!(b > a);
        assert_eq!(a, RequestId(0));
    }
}
