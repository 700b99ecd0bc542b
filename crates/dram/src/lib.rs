#![warn(missing_docs)]

//! Cycle-level DDR3 DRAM model — the reproduction's substitute for USIMM.
//!
//! The unit of composition is the [`SubChannel`]: one rank of eight banks
//! behind a command/data bus, driven by an FR-FCFS scheduler with write
//! drains and refresh, enforcing the JEDEC DDR3-1600 timing constraints
//! (Table II of the paper). A direct-attached memory channel is one
//! sub-channel; the D-ORAM secure channel is four sub-channels behind a BOB
//! simple controller.
//!
//! Interference between the S-App and NS-Apps — the paper's core subject —
//! emerges here from exactly the mechanisms USIMM models: data-bus
//! occupancy, bank conflicts, row-buffer misses, write drains and refresh.
//! The bandwidth-preallocation arbiter of Cooperative Path ORAM
//! (Wang et al., HPCA'17 \[39\]; §IV of this paper sets its threshold to 50%)
//! lives in [`arbiter`].
//!
//! # Examples
//!
//! ```
//! use doram_dram::{SubChannel, SubChannelConfig, MemOp, RequestClass};
//! use doram_sim::{AppId, MemCycle, RequestId};
//!
//! let mut sc = SubChannel::new(SubChannelConfig::default());
//! sc.enqueue(doram_dram::MemRequest {
//!     id: RequestId(0),
//!     app: AppId(1),
//!     op: MemOp::Read,
//!     addr: 0x4000,
//!     class: RequestClass::Normal,
//!     arrival: MemCycle(0),
//! }).unwrap();
//! let mut done = Vec::new();
//! let mut now = MemCycle(0);
//! while done.is_empty() {
//!     sc.tick(now, &mut done);
//!     now += MemCycle(1);
//! }
//! assert_eq!(done[0].request.id, RequestId(0));
//! ```

pub mod address;
pub mod arbiter;
pub mod bank;
pub mod conformance;
pub mod energy;
pub mod request;
pub mod stats;
pub mod subchannel;
pub mod timing;

pub use address::{AddressMapper, DecodedAddress};
pub use arbiter::ShareArbiter;
pub use conformance::{check_conformance, CommandRecord, DeviceCommand, Violation};
pub use energy::{EnergyBreakdown, EnergyParams};
pub use request::{Completion, MemOp, MemRequest, RequestClass};
pub use stats::SubChannelStats;
pub use subchannel::{PagePolicy, SubChannel, SubChannelConfig};
pub use timing::DramTiming;
