#![warn(missing_docs)]

//! Workload model: the paper's 15 benchmarks as synthetic trace generators.
//!
//! The paper drives USIMM with Simpoint-style traces of 15 memory-intensive
//! programs from the 2012 Memory Scheduling Championship (Table III). Those
//! traces are not redistributable, so this crate synthesizes statistically
//! equivalent ones: each [`Benchmark`] carries a [`WorkloadSpec`] whose MPKI
//! is taken *verbatim* from Table III and whose locality mix (streaming /
//! hot-set reuse / uniform random) is chosen to match the qualitative
//! behaviour of the suite the program comes from. Generation is
//! deterministic in `(benchmark, seed, stream)`.
//!
//! The interference results the paper reports depend on memory intensity,
//! row-buffer locality, and bank-level parallelism — exactly the properties
//! the generator controls — rather than on program semantics, which is why
//! the substitution preserves the experiment (see DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use doram_trace::{Benchmark, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(Benchmark::Mummer.spec(), 42, 0);
//! let rec = gen.next_record();
//! assert!(rec.addr % 64 == 0, "line-aligned address");
//! ```

pub mod benchmarks;
pub mod format;
pub mod generator;
pub mod record;
pub mod workload;

pub use benchmarks::{Benchmark, Suite};
pub use format::{parse_trace, write_trace, ParseTraceError};
pub use generator::{FiniteTrace, TraceGenerator};
pub use record::{AccessOp, TraceRecord};
pub use workload::WorkloadSpec;
