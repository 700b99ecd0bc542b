//! Time base for the simulation.
//!
//! The memory system (DRAM devices, BOB links, schedulers) is stepped at the
//! DDR3-1600 command clock: tCK = 1.25 ns (800 MHz). The processor runs at
//! 3.2 GHz, i.e. exactly [`CPU_CYCLES_PER_MEM_CYCLE`] = 4 CPU cycles per
//! memory cycle — the same arrangement USIMM uses, which the paper's
//! methodology (Table II) inherits.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per DRAM command clock cycle (DDR3-1600: 1.25 ns).
pub const TCK_PICOS: u64 = 1250;

/// CPU clock cycles per DRAM command clock cycle (3.2 GHz / 800 MHz).
pub const CPU_CYCLES_PER_MEM_CYCLE: u64 = 4;

/// A point in time (or duration) measured in DRAM command clock cycles.
///
/// # Examples
///
/// ```
/// use doram_sim::clock::MemCycle;
/// let a = MemCycle(10);
/// assert_eq!((a + MemCycle(2)).0, 12);
/// assert_eq!(MemCycle::from_nanos(15.0).0, 12); // 15 ns BOB link latency
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemCycle(pub u64);

/// A point in time (or duration) measured in CPU clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuCycle(pub u64);

impl MemCycle {
    /// Zero time; the simulation origin.
    pub const ZERO: MemCycle = MemCycle(0);

    /// Converts a duration in nanoseconds to memory cycles, rounding up so
    /// that latencies are never optimistically truncated.
    pub fn from_nanos(ns: f64) -> MemCycle {
        let picos = (ns * 1000.0).ceil() as u64;
        MemCycle(picos.div_ceil(TCK_PICOS))
    }

    /// This instant expressed in CPU cycles.
    pub fn to_cpu_cycles(self) -> CpuCycle {
        CpuCycle(self.0 * CPU_CYCLES_PER_MEM_CYCLE)
    }

    /// Saturating subtraction; useful for "time since" computations.
    pub fn saturating_sub(self, rhs: MemCycle) -> MemCycle {
        MemCycle(self.0.saturating_sub(rhs.0))
    }
}

impl CpuCycle {
    /// Zero time; the simulation origin.
    pub const ZERO: CpuCycle = CpuCycle(0);

    /// The first memory-cycle boundary at or after this CPU cycle.
    pub fn to_mem_cycles_ceil(self) -> MemCycle {
        MemCycle(self.0.div_ceil(CPU_CYCLES_PER_MEM_CYCLE))
    }

    /// Saturating subtraction; useful for "time since" computations.
    pub fn saturating_sub(self, rhs: CpuCycle) -> CpuCycle {
        CpuCycle(self.0.saturating_sub(rhs.0))
    }
}

macro_rules! impl_cycle_ops {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl From<u64> for $ty {
            fn from(v: u64) -> $ty {
                $ty(v)
            }
        }
    };
}

impl_cycle_ops!(MemCycle);
impl_cycle_ops!(CpuCycle);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_round_trip() {
        // 15 ns (the paper's BOB buffer+link latency) is 12 tCK.
        assert_eq!(MemCycle::from_nanos(15.0), MemCycle(12));
    }

    #[test]
    fn from_nanos_rounds_up() {
        assert_eq!(MemCycle::from_nanos(1.26), MemCycle(2));
        assert_eq!(MemCycle::from_nanos(1.25), MemCycle(1));
        assert_eq!(MemCycle::from_nanos(0.0), MemCycle(0));
    }

    #[test]
    fn cpu_mem_conversion() {
        assert_eq!(MemCycle(3).to_cpu_cycles(), CpuCycle(12));
        assert_eq!(CpuCycle(13).to_mem_cycles_ceil(), MemCycle(4));
        assert_eq!(CpuCycle(12).to_mem_cycles_ceil(), MemCycle(3));
    }

    #[test]
    fn arithmetic() {
        let mut t = MemCycle(5);
        t += MemCycle(5);
        assert_eq!(t - MemCycle(3), MemCycle(7));
        assert_eq!(MemCycle(2).saturating_sub(MemCycle(9)), MemCycle::ZERO);
        assert_eq!(CpuCycle(2).saturating_sub(CpuCycle(9)), CpuCycle::ZERO);
    }

    #[test]
    fn display_and_from() {
        assert_eq!(MemCycle::from(7u64).to_string(), "7");
        assert_eq!(CpuCycle::from(7u64).to_string(), "7");
    }
}
