//! Per-bank DRAM state machine.
//!
//! Each bank tracks its open row and the earliest cycle at which each
//! command type becomes legal, updated as commands are issued according to
//! the [`DramTiming`] constraints.

use crate::timing::DramTiming;
use doram_sim::MemCycle;

/// State of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    /// Currently open row, if any.
    open_row: Option<u64>,
    /// Earliest cycle an ACTIVATE may be issued.
    ready_act: MemCycle,
    /// Earliest cycle a PRECHARGE may be issued.
    ready_pre: MemCycle,
    /// Earliest cycle a column command (READ/WRITE) may be issued.
    ready_col: MemCycle,
}

impl Default for Bank {
    fn default() -> Bank {
        Bank::new()
    }
}

impl Bank {
    /// A closed, immediately usable bank.
    pub fn new() -> Bank {
        Bank {
            open_row: None,
            ready_act: MemCycle::ZERO,
            ready_pre: MemCycle::ZERO,
            ready_col: MemCycle::ZERO,
        }
    }

    /// Row currently latched in the row buffer.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether an ACTIVATE for `row` is needed and legal at `now`
    /// (bank-local constraints only; tRRD/tFAW are channel-level).
    pub fn can_activate(&self, now: MemCycle) -> bool {
        self.open_row.is_none() && now >= self.ready_act
    }

    /// Whether a PRECHARGE is legal at `now`.
    pub fn can_precharge(&self, now: MemCycle) -> bool {
        self.open_row.is_some() && now >= self.ready_pre
    }

    /// Whether a column command to `row` is legal at `now` (row must be
    /// open and tRCD satisfied).
    pub fn can_column(&self, row: u64, now: MemCycle) -> bool {
        self.open_row == Some(row) && now >= self.ready_col
    }

    /// Applies an ACTIVATE issued at `now`.
    pub fn activate(&mut self, row: u64, now: MemCycle, t: &DramTiming) {
        debug_assert!(self.can_activate(now), "illegal ACTIVATE");
        self.open_row = Some(row);
        self.ready_col = now + MemCycle(t.t_rcd);
        self.ready_pre = now + MemCycle(t.t_ras);
        // tRC lower-bounds the next ACT even beyond tRAS+tRP.
        self.ready_act = now + MemCycle(t.t_rc);
    }

    /// Applies a PRECHARGE issued at `now`.
    pub fn precharge(&mut self, now: MemCycle, t: &DramTiming) {
        debug_assert!(self.can_precharge(now), "illegal PRECHARGE");
        self.open_row = None;
        self.ready_act = self.ready_act.max(now + MemCycle(t.t_rp));
    }

    /// Applies a READ issued at `now`.
    pub fn read(&mut self, now: MemCycle, t: &DramTiming) {
        // Read-to-precharge: PRE no earlier than now + tRTP.
        self.ready_pre = self.ready_pre.max(now + MemCycle(t.t_rtp));
    }

    /// Applies a WRITE issued at `now`.
    pub fn write(&mut self, now: MemCycle, t: &DramTiming) {
        // Write recovery: PRE after the data burst lands plus tWR.
        self.ready_pre = self
            .ready_pre
            .max(now + MemCycle(t.cwl + t.t_burst + t.t_wr));
    }

    /// Forces the bank closed (used by the refresh state machine after all
    /// banks have been precharged) and blocks activates until `until`.
    pub fn block_until(&mut self, until: MemCycle) {
        debug_assert!(self.open_row.is_none(), "refresh with open row");
        self.ready_act = self.ready_act.max(until);
    }
}

doram_sim::impl_snapshot!(Bank {
    open_row,
    ready_act,
    ready_pre,
    ready_col
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr3_1600()
    }

    #[test]
    fn activate_opens_row_after_trcd() {
        let mut b = Bank::new();
        assert!(b.can_activate(MemCycle(0)));
        b.activate(7, MemCycle(0), &t());
        assert_eq!(b.open_row(), Some(7));
        assert!(!b.can_column(7, MemCycle(10)));
        assert!(b.can_column(7, MemCycle(11)));
        assert!(!b.can_column(8, MemCycle(11)), "wrong row");
    }

    #[test]
    fn precharge_respects_tras_and_trp() {
        let mut b = Bank::new();
        b.activate(1, MemCycle(0), &t());
        assert!(!b.can_precharge(MemCycle(27)));
        assert!(b.can_precharge(MemCycle(28))); // tRAS
        b.precharge(MemCycle(28), &t());
        assert_eq!(b.open_row(), None);
        // next ACT must wait max(tRC from ACT, PRE+tRP) = max(39, 39) = 39.
        assert!(!b.can_activate(MemCycle(38)));
        assert!(b.can_activate(MemCycle(39)));
    }

    #[test]
    fn read_extends_precharge_window() {
        let mut b = Bank::new();
        b.activate(1, MemCycle(0), &t());
        b.read(MemCycle(30), &t());
        // PRE may not issue before read + tRTP = 36 (tRAS already passed).
        assert!(!b.can_precharge(MemCycle(35)));
        assert!(b.can_precharge(MemCycle(36)));
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let mut b = Bank::new();
        b.activate(1, MemCycle(0), &t());
        b.write(MemCycle(11), &t());
        // PRE >= 11 + CWL(8) + burst(4) + tWR(12) = 35; tRAS would allow 28.
        assert!(!b.can_precharge(MemCycle(34)));
        assert!(b.can_precharge(MemCycle(35)));
    }

    #[test]
    fn cannot_activate_open_bank() {
        let mut b = Bank::new();
        b.activate(1, MemCycle(0), &t());
        assert!(!b.can_activate(MemCycle(100)));
    }

    #[test]
    fn block_until_delays_activate() {
        let mut b = Bank::new();
        b.block_until(MemCycle(500));
        assert!(!b.can_activate(MemCycle(499)));
        assert!(b.can_activate(MemCycle(500)));
    }
}
