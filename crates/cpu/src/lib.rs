#![warn(missing_docs)]

//! Processor-side model: the trace-driven ROB core.
//!
//! The core reproduces USIMM's processor front-end (the paper's Table II):
//! a 128-entry reorder buffer, 4-wide fetch and 4-wide in-order retirement.
//! Demand reads are issued to the memory system as soon as they enter the
//! ROB (that window is the only source of memory-level parallelism);
//! a read blocks retirement while unresolved at the ROB head; writes are
//! posted at retirement and only stall the core through write-queue
//! back-pressure.
//!
//! There is no cache model: the experiments feed the cores post-LLC
//! traces, as USIMM does.
//!
//! # Examples
//!
//! ```
//! use doram_cpu::{CoreConfig, TraceCore, MemoryPort};
//! use doram_sim::RequestId;
//! use doram_trace::{Benchmark, TraceGenerator};
//!
//! // A memory that answers instantly.
//! struct Instant(u64);
//! impl MemoryPort for Instant {
//!     fn try_read(&mut self, _addr: u64) -> Option<RequestId> {
//!         self.0 += 1;
//!         Some(RequestId(self.0))
//!     }
//!     fn try_write(&mut self, _addr: u64) -> bool { true }
//! }
//!
//! let trace = TraceGenerator::new(Benchmark::Black.spec(), 1, 0).finite(100);
//! let mut core = TraceCore::new(CoreConfig::default(), Box::new(trace));
//! let mut mem = Instant(0);
//! let mut cycles = 0u64;
//! while !core.finished() {
//!     // Instantly complete everything that was issued.
//!     let issued: Vec<_> = core.outstanding_reads().collect();
//!     for id in issued { core.complete_read(id); }
//!     core.step(&mut mem);
//!     cycles += 1;
//! }
//! assert!(core.retired() >= 100);
//! ```

pub mod core_model;

pub use core_model::{CoreConfig, MemoryPort, TraceCore};
