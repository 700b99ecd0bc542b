//! Memory requests and completions at the DRAM boundary.

use doram_sim::{AppId, MemCycle, RequestId};

/// Read or write, from the memory system's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Fetch a 64 B line.
    Read,
    /// Store a 64 B line (posted; the issuer does not wait on it).
    Write,
}

/// Scheduling class of a request, used by the bandwidth-preallocation
/// arbiter when an S-App and NS-Apps share a channel (§IV, threshold 50%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Ordinary NS-App traffic.
    Normal,
    /// Path ORAM traffic generated on behalf of the S-App.
    Oram,
}

/// A 64 B-line request presented to a sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique identifier (assigned by the issuer).
    pub id: RequestId,
    /// Application the request belongs to.
    pub app: AppId,
    /// Read or write.
    pub op: MemOp,
    /// Physical byte address within this sub-channel's space.
    pub addr: u64,
    /// Scheduling class.
    pub class: RequestClass,
    /// Cycle the request entered the memory system.
    pub arrival: MemCycle,
}

/// A finished request, reported by [`SubChannel::tick`].
///
/// [`SubChannel::tick`]: crate::SubChannel::tick
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The original request.
    pub request: MemRequest,
    /// Cycle its data burst finished.
    pub finished: MemCycle,
}

impl Completion {
    /// End-to-end memory latency in memory cycles.
    pub fn latency(&self) -> u64 {
        self.finished.0 - self.request.arrival.0
    }
}

doram_sim::impl_codec!(
    enum MemOp {
        Read = 0,
        Write = 1,
    }
);
doram_sim::impl_codec!(
    enum RequestClass {
        Normal = 0,
        Oram = 1,
    }
);
doram_sim::impl_codec!(struct MemRequest { id, app, op, addr, class, arrival });
doram_sim::impl_codec!(struct Completion { request, finished });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_arrival_to_finish() {
        let c = Completion {
            request: MemRequest {
                id: RequestId(1),
                app: AppId(2),
                op: MemOp::Read,
                addr: 64,
                class: RequestClass::Normal,
                arrival: MemCycle(10),
            },
            finished: MemCycle(47),
        };
        assert_eq!(c.latency(), 37);
    }
}
