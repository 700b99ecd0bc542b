//! Command-level JEDEC conformance checking.
//!
//! The scheduler tests assert *behaviour* (latencies, orderings); this
//! module asserts *legality*: record the exact device-command sequence a
//! sub-channel issues and re-validate every JEDEC spacing rule after the
//! fact. The checker is an independent implementation of the constraints,
//! so a bug in the scheduler's bookkeeping cannot hide itself.

use crate::timing::DramTiming;

/// One recorded device command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue cycle (tCK).
    pub cycle: u64,
    /// The command.
    pub command: DeviceCommand,
    /// Target bank.
    pub bank: usize,
    /// Target row (ACT) or the open row (column commands); unused for
    /// REFRESH.
    pub row: u64,
}

/// DRAM device commands, as they appear on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceCommand {
    /// Row activation.
    Activate,
    /// Bank precharge.
    Precharge,
    /// Column read (BL8).
    Read,
    /// Column write (BL8).
    Write,
    /// All-bank refresh.
    Refresh,
}

/// A detected JEDEC violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that was broken (e.g. `"tRCD"`).
    pub rule: &'static str,
    /// Cycle of the offending command.
    pub at: u64,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violated at cycle {}: {}",
            self.rule, self.at, self.detail
        )
    }
}

/// Per-bank replay state for the checker.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open: Option<u64>,
    last_act: Option<u64>,
    last_pre: Option<u64>,
    last_read: Option<u64>,
    last_write: Option<u64>,
}

/// Validates a recorded command stream against `timing`.
///
/// Checks tRCD, tRP, tRAS, tRC, tRTP, write-recovery, tCCD, tRRD, tFAW,
/// tWTR, refresh legality (all banks closed), and structural rules
/// (no ACT on an open bank, no column to a closed or mismatched row).
///
/// # Errors
///
/// Returns every violation found, in command order.
pub fn check_conformance(records: &[CommandRecord], t: &DramTiming) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    let mut banks = vec![BankState::default(); 64];
    let mut recent_acts: Vec<u64> = Vec::new();
    let mut last_col: Option<(u64, DeviceCommand)> = None;
    let mut last_write_data_end: Option<u64> = None;
    let mut refresh_block_until = 0u64;

    let mut violate = |rule: &'static str, at: u64, detail: String| {
        violations.push(Violation { rule, at, detail });
    };

    for r in records {
        let now = r.cycle;
        if now < refresh_block_until {
            violate(
                "tRFC",
                now,
                format!("command during refresh (until {refresh_block_until})"),
            );
        }
        if r.bank >= banks.len() {
            banks.resize(r.bank + 1, BankState::default());
        }
        match r.command {
            DeviceCommand::Activate => {
                let b = banks[r.bank];
                if b.open.is_some() {
                    violate("ACT-on-open", now, format!("bank {} already open", r.bank));
                }
                if let Some(pre) = b.last_pre {
                    if now < pre + t.t_rp {
                        violate("tRP", now, format!("ACT {} after PRE {pre}", now - pre));
                    }
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_rc {
                        violate("tRC", now, format!("ACT {} after ACT {act}", now - act));
                    }
                }
                if let Some(&last) = recent_acts.last() {
                    if now < last + t.t_rrd {
                        violate("tRRD", now, format!("ACT {} after ACT {last}", now - last));
                    }
                }
                recent_acts.push(now);
                let w = recent_acts.iter().filter(|&&a| a + t.t_faw > now).count();
                if w > 4 {
                    violate("tFAW", now, format!("{w} ACTs within the window"));
                }
                banks[r.bank].open = Some(r.row);
                banks[r.bank].last_act = Some(now);
            }
            DeviceCommand::Precharge => {
                let b = banks[r.bank];
                if b.open.is_none() {
                    violate("PRE-on-closed", now, format!("bank {}", r.bank));
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_ras {
                        violate("tRAS", now, format!("PRE {} after ACT {act}", now - act));
                    }
                }
                if let Some(rd) = b.last_read {
                    if now < rd + t.t_rtp {
                        violate("tRTP", now, format!("PRE {} after RD {rd}", now - rd));
                    }
                }
                if let Some(wr) = b.last_write {
                    if now < wr + t.cwl + t.t_burst + t.t_wr {
                        violate("tWR", now, format!("PRE {} after WR {wr}", now - wr));
                    }
                }
                banks[r.bank].open = None;
                banks[r.bank].last_pre = Some(now);
            }
            DeviceCommand::Read | DeviceCommand::Write => {
                let b = banks[r.bank];
                match b.open {
                    None => violate("COL-on-closed", now, format!("bank {}", r.bank)),
                    Some(open) if open != r.row => {
                        violate("COL-row-mismatch", now, format!("open {open} vs {}", r.row))
                    }
                    Some(_) => {}
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_rcd {
                        violate("tRCD", now, format!("COL {} after ACT {act}", now - act));
                    }
                }
                if let Some((col, _)) = last_col {
                    if now < col + t.t_ccd {
                        violate("tCCD", now, format!("COL {} after COL {col}", now - col));
                    }
                }
                if r.command == DeviceCommand::Read {
                    if let Some(end) = last_write_data_end {
                        if now < end + t.t_wtr {
                            violate("tWTR", now, format!("RD at {now}, WR data ends {end}"));
                        }
                    }
                    banks[r.bank].last_read = Some(now);
                } else {
                    last_write_data_end = Some(now + t.cwl + t.t_burst);
                    banks[r.bank].last_write = Some(now);
                }
                last_col = Some((now, r.command));
            }
            DeviceCommand::Refresh => {
                if banks.iter().any(|b| b.open.is_some()) {
                    violate("REF-with-open-row", now, "refresh with open banks".into());
                }
                refresh_block_until = now + t.t_rfc;
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, command: DeviceCommand, bank: usize, row: u64) -> CommandRecord {
        CommandRecord {
            cycle,
            command,
            bank,
            row,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let t = DramTiming::ddr3_1600();
        let trace = vec![
            rec(0, DeviceCommand::Activate, 0, 5),
            rec(11, DeviceCommand::Read, 0, 5),
            rec(15, DeviceCommand::Read, 0, 5),
            rec(28, DeviceCommand::Precharge, 0, 5),
            rec(39, DeviceCommand::Activate, 0, 6),
        ];
        check_conformance(&trace, &t).unwrap();
    }

    #[test]
    fn early_read_is_a_trcd_violation() {
        let t = DramTiming::ddr3_1600();
        let trace = vec![
            rec(0, DeviceCommand::Activate, 0, 5),
            rec(10, DeviceCommand::Read, 0, 5),
        ];
        let v = check_conformance(&trace, &t).unwrap_err();
        assert!(v.iter().any(|x| x.rule == "tRCD"), "{v:?}");
        assert!(v[0].to_string().contains("tRCD"));
    }

    #[test]
    fn early_precharge_is_a_tras_violation() {
        let t = DramTiming::ddr3_1600();
        let trace = vec![
            rec(0, DeviceCommand::Activate, 0, 1),
            rec(20, DeviceCommand::Precharge, 0, 1),
        ];
        let v = check_conformance(&trace, &t).unwrap_err();
        assert!(v.iter().any(|x| x.rule == "tRAS"));
    }

    #[test]
    fn tight_activates_violate_trrd_and_tfaw() {
        let t = DramTiming::ddr3_1600();
        let trace: Vec<_> = (0..6)
            .map(|i| rec(i * 2, DeviceCommand::Activate, i as usize, 0))
            .collect();
        let v = check_conformance(&trace, &t).unwrap_err();
        assert!(v.iter().any(|x| x.rule == "tRRD"));
    }

    #[test]
    fn structural_violations_detected() {
        let t = DramTiming::ddr3_1600();
        // Column to a closed bank, ACT on open bank, PRE on closed bank.
        let v = check_conformance(&[rec(0, DeviceCommand::Read, 0, 1)], &t).unwrap_err();
        assert_eq!(v[0].rule, "COL-on-closed");
        let v = check_conformance(
            &[
                rec(0, DeviceCommand::Activate, 0, 1),
                rec(50, DeviceCommand::Activate, 0, 2),
            ],
            &t,
        )
        .unwrap_err();
        assert!(v.iter().any(|x| x.rule == "ACT-on-open"));
        let v = check_conformance(&[rec(0, DeviceCommand::Precharge, 0, 1)], &t).unwrap_err();
        assert_eq!(v[0].rule, "PRE-on-closed");
    }

    #[test]
    fn write_then_fast_read_violates_twtr() {
        let t = DramTiming::ddr3_1600();
        let trace = vec![
            rec(0, DeviceCommand::Activate, 0, 1),
            rec(11, DeviceCommand::Write, 0, 1),
            rec(16, DeviceCommand::Read, 0, 1),
        ];
        let v = check_conformance(&trace, &t).unwrap_err();
        assert!(v.iter().any(|x| x.rule == "tWTR"), "{v:?}");
    }

    #[test]
    fn refresh_rules() {
        let t = DramTiming::ddr3_1600();
        // Refresh with an open row.
        let v = check_conformance(
            &[
                rec(0, DeviceCommand::Activate, 0, 1),
                rec(40, DeviceCommand::Refresh, 0, 0),
            ],
            &t,
        )
        .unwrap_err();
        assert!(v.iter().any(|x| x.rule == "REF-with-open-row"));
        // Command during tRFC.
        let v = check_conformance(
            &[
                rec(0, DeviceCommand::Refresh, 0, 0),
                rec(10, DeviceCommand::Activate, 0, 1),
            ],
            &t,
        )
        .unwrap_err();
        assert!(v.iter().any(|x| x.rule == "tRFC"));
    }
}
