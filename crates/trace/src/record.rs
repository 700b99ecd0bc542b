//! Trace records, in USIMM's spirit: each record is one main-memory access
//! preceded by a number of non-memory instructions.

/// Direction of a traced memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// A demand load that missed the LLC; the core waits on it at retire.
    Read,
    /// A store / writeback; posted, never blocks retirement by itself.
    Write,
}

/// One record of a memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions executed before this access.
    pub gap: u64,
    /// Read or write.
    pub op: AccessOp,
    /// Byte address, 64 B-line aligned.
    pub addr: u64,
}

impl TraceRecord {
    /// Instructions this record accounts for (gap + the access itself).
    pub fn instructions(&self) -> u64 {
        self.gap + 1
    }
}

doram_sim::impl_codec!(
    enum AccessOp {
        Read = 0,
        Write = 1,
    }
);
doram_sim::impl_codec!(struct TraceRecord { gap, op, addr });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_accounting() {
        let r = TraceRecord {
            gap: 99,
            op: AccessOp::Read,
            addr: 0,
        };
        assert_eq!(r.instructions(), 100);
    }
}
