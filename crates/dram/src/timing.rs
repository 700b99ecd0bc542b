//! JEDEC DDR3 timing parameters.
//!
//! All values are in DRAM command-clock cycles (tCK = 1.25 ns at
//! DDR3-1600). The defaults follow the JEDEC DDR3-1600K speed bin that
//! USIMM's `1600` configuration uses, which the paper adopts unchanged
//! ("We adopted the default values in the specification that are strictly
//! enforced in USIMM", §IV).

/// DDR3 device timing constraints, in tCK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency: READ command to first data beat.
    pub cl: u64,
    /// CAS write latency: WRITE command to first data beat.
    pub cwl: u64,
    /// ACTIVATE to internal read/write (RAS-to-CAS delay).
    pub t_rcd: u64,
    /// PRECHARGE to ACTIVATE of the same bank.
    pub t_rp: u64,
    /// ACTIVATE to PRECHARGE of the same bank (row active minimum).
    pub t_ras: u64,
    /// ACTIVATE to ACTIVATE of the same bank (= tRAS + tRP).
    pub t_rc: u64,
    /// Column-to-column command spacing (burst-chop aside, = burst length/2).
    pub t_ccd: u64,
    /// ACTIVATE to ACTIVATE, different banks, same rank.
    pub t_rrd: u64,
    /// Four-activate window: at most four ACTs per rank in this window.
    pub t_faw: u64,
    /// READ to PRECHARGE of the same bank.
    pub t_rtp: u64,
    /// Write recovery: end of write data to PRECHARGE of the same bank.
    pub t_wr: u64,
    /// Write-to-read turnaround: end of write data to READ command.
    pub t_wtr: u64,
    /// Data-bus turnaround gap inserted between opposite-direction bursts.
    pub t_rtrs: u64,
    /// Data burst duration (BL8 on a x64 channel = 4 tCK).
    pub t_burst: u64,
    /// Refresh cycle time (REFRESH to next valid command).
    pub t_rfc: u64,
    /// Average refresh interval (one REFRESH command due every tREFI).
    pub t_refi: u64,
}

impl DramTiming {
    /// JEDEC DDR3-1600 (11-11-11) parameters, 4 Gb devices.
    pub fn ddr3_1600() -> DramTiming {
        DramTiming {
            cl: 11,
            cwl: 8,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_ccd: 4,
            t_rrd: 5,
            t_faw: 24,
            t_rtp: 6,
            t_wr: 12,
            t_wtr: 6,
            t_rtrs: 2,
            t_burst: 4,
            t_rfc: 208,
            t_refi: 6240,
        }
    }

    /// Idealized zero-latency timing: every command legal immediately, data
    /// still occupies the bus for `t_burst`. Used by unit tests that want to
    /// isolate scheduler policy from device timing.
    pub fn ideal() -> DramTiming {
        DramTiming {
            cl: 1,
            cwl: 1,
            t_rcd: 1,
            t_rp: 1,
            t_ras: 1,
            t_rc: 2,
            t_ccd: 4,
            t_rrd: 1,
            t_faw: 4,
            t_rtp: 1,
            t_wr: 1,
            t_wtr: 1,
            t_rtrs: 0,
            t_burst: 4,
            t_rfc: 1,
            t_refi: u64::MAX / 4,
        }
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated relation.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must be >= tRAS + tRP ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            ));
        }
        if self.t_faw < self.t_rrd {
            return Err("tFAW must be >= tRRD".into());
        }
        if self.t_burst == 0 {
            return Err("tBURST must be positive".into());
        }
        if self.t_refi <= self.t_rfc {
            return Err("tREFI must exceed tRFC".into());
        }
        Ok(())
    }
}

impl Default for DramTiming {
    fn default() -> DramTiming {
        DramTiming::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_1600_is_valid() {
        DramTiming::ddr3_1600().validate().unwrap();
        DramTiming::ideal().validate().unwrap();
    }

    #[test]
    fn ddr3_1600_key_values() {
        let t = DramTiming::ddr3_1600();
        // 13.75 ns tRCD/tRP/CL at 1.25 ns tCK.
        assert_eq!(t.cl, 11);
        assert_eq!(t.t_rcd, 11);
        assert_eq!(t.t_rp, 11);
        // tRC = tRAS + tRP.
        assert_eq!(t.t_rc, t.t_ras + t.t_rp);
        // Open-row read: CL + burst; row miss: tRP + tRCD + CL + burst.
        assert_eq!(t.cl + t.t_burst, 15);
        assert_eq!(t.t_rp + t.t_rcd + t.cl + t.t_burst, 37);
    }

    #[test]
    fn validate_rejects_inconsistency() {
        let mut t = DramTiming::ddr3_1600();
        t.t_rc = 10;
        assert!(t.validate().is_err());
        let mut t = DramTiming::ddr3_1600();
        t.t_refi = 10;
        assert!(t.validate().is_err());
        let mut t = DramTiming::ddr3_1600();
        t.t_burst = 0;
        assert!(t.validate().is_err());
        let mut t = DramTiming::ddr3_1600();
        t.t_faw = 1;
        assert!(t.validate().is_err());
    }
}
