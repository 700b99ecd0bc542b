#![warn(missing_docs)]

//! Simulation kernel shared by every D-ORAM crate.
//!
//! This crate deliberately contains no architecture knowledge: it provides the
//! time base (DRAM command clock vs. CPU clock), deterministic random number
//! generation, identifier newtypes, fault plans, health monitors, checkpoint
//! encoding, and statistics primitives. All cycle-level models (DRAM, CPU,
//! BOB link, ORAM controller) are built on top of these.
//!
//! # Examples
//!
//! ```
//! use doram_sim::{clock::MemCycle, rng::Xoshiro256, stats::RunningMean};
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let mut mean = RunningMean::new();
//! for _ in 0..100 {
//!     mean.record(rng.gen_range(0..10) as f64);
//! }
//! assert!(mean.mean() < 10.0);
//! let t = MemCycle(12);
//! assert_eq!(t.to_cpu_cycles().0, 48);
//! ```

pub mod clock;
pub mod error;
pub mod fault;
pub mod health;
pub mod id;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use clock::{CpuCycle, MemCycle, CPU_CYCLES_PER_MEM_CYCLE, TCK_PICOS};
pub use error::{ConfigError, SimError};
pub use fault::{
    FaultCounts, FaultInjector, FaultKind, FaultPlan, FaultRates, FaultWindow, SiteWindow,
};
pub use health::{HealthMonitor, HealthPolicy, HealthState, HealthTransition};
pub use id::{AppId, RequestId, RequestIdGen};
pub use rng::Xoshiro256;
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{Counter, Histogram, RunningMean};
