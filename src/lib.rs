#![warn(missing_docs)]

//! # D-ORAM — Path-ORAM delegation for low execution interference
//!
//! A from-scratch Rust reproduction of *"D-ORAM: Path-ORAM Delegation for
//! Low Execution Interference on Cloud Servers with Untrusted Memory"*
//! (Wang, Zhang, Yang — HPCA 2018): the complete simulation stack (DDR3
//! memory system, trace-driven cores, buffer-on-board links, Path ORAM,
//! the secure delegator) plus every co-run scheme and experiment of the
//! paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! name. Start with [`core`] (schemes, system builder, experiments) and
//! [`oram`] (the Path ORAM protocol itself).
//!
//! ## Quickstart
//!
//! ```no_run
//! use doram::core::{Scheme, Simulation, SystemConfig};
//! use doram::trace::Benchmark;
//!
//! // One secure app (Path ORAM, delegated to the secure channel) and
//! // seven non-secure apps, all running mummer.
//! let cfg = SystemConfig::builder(Benchmark::Mummer)
//!     .scheme(Scheme::DOram { k: 1, c: 4 })
//!     .ns_accesses(10_000)
//!     .build()?;
//! let report = Simulation::new(cfg)?.run()?;
//! println!(
//!     "NS-Apps finished in {:.0} CPU cycles on average; \
//!      S-App made {} ORAM accesses",
//!     report.ns_exec_mean(),
//!     report.oram.unwrap().real_accesses,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`sim`] | time base, RNG, queues, statistics |
//! | [`crypto`] | AES-128, OTP packets, CMAC, the CPU↔SD session |
//! | [`dram`] | DDR3 sub-channels: JEDEC timing, FR-FCFS, arbitration |
//! | [`cpu`] | 128-entry-ROB trace-driven cores |
//! | [`trace`] | Table III workloads as synthetic trace generators |
//! | [`bob`] | BOB packets, serial links, normal channels |
//! | [`oram`] | Path ORAM: protocol, layout, tree split, planning |
//! | [`secmem`] | the ObfusMem/InvisiMem-style comparator |
//! | [`obs`] | tracing & telemetry: event log, metrics, Perfetto export |
//! | [`core`] | schemes, full-system simulation, figures & tables |

pub use doram_bob as bob;
pub use doram_core as core;
pub use doram_cpu as cpu;
pub use doram_crypto as crypto;
pub use doram_dram as dram;
pub use doram_obs as obs;
pub use doram_oram as oram;
pub use doram_secmem as secmem;
pub use doram_sim as sim;
pub use doram_trace as trace;
