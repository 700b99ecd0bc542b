//! Identifier newtypes used across the simulator.
//!
//! Keeping applications and requests as distinct types prevents a family
//! of index-confusion bugs in the interference experiments, where both
//! spaces are small integers.

use std::fmt;

/// An application instance; in the paper's workloads app 0 is the S-App
/// and apps 1..8 are NS-Apps, each pinned to its own core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub usize);

impl AppId {
    /// Raw index value.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl From<usize> for AppId {
    fn from(v: usize) -> AppId {
        AppId(v)
    }
}

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
        assert_eq!(AppId(0).to_string(), "app0");
        assert_eq!(RequestId(9).to_string(), "req9");
    }

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property; just exercise conversions.
        let a: AppId = 4usize.into();
        assert_eq!(a.index(), 4);
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
