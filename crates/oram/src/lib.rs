#![warn(missing_docs)]

//! Path ORAM: the protocol, its memory layout, and the D-ORAM extensions.
//!
//! Path ORAM (Stefanov et al. \[34\]) stores N blocks in a complete binary
//! tree of buckets (Z = 4 blocks each). Every logical block is mapped to a
//! uniformly random leaf; the invariant is that a block resides somewhere
//! on the path from the root to its leaf, or in the client-side *stash*.
//! An access reads the whole path, remaps the block to a fresh leaf, then
//! writes the path back greedily from the leaf up.
//!
//! This crate implements:
//!
//! * [`tree`] — tree geometry and path arithmetic (L = 23, Z = 4 in the
//!   paper's 4 GB configuration);
//! * [`layout`] — the subtree-packed physical layout of Ren et al. \[32\]
//!   (7-level subtrees maximize DRAM row-buffer hits) and the tree-top
//!   cache;
//! * [`position`] / [`stash`] — position map and stash;
//! * [`protocol`] — a fully functional Path ORAM (reads return the data
//!   written, invariants are property-tested);
//! * [`split`] — the D-ORAM+k tree split across memory channels (§III-C,
//!   Table I) and its space/message accounting;
//! * [`verified`] — Path ORAM over untrusted, MAC-verified memory with
//!   fault injection and bounded re-fetch recovery (the SD's threat
//!   model made functional);
//! * [`plan`] — the access planner used by timing simulations: which
//!   physical blocks, on which channel/sub-channel, a given access touches
//!   in its read and write phases.
//!
//! # Examples
//!
//! ```
//! use doram_oram::protocol::PathOram;
//!
//! let mut oram = PathOram::new(6, 4, 42); // small tree: L=6, Z=4
//! oram.write(3, vec![0xAB]);
//! assert_eq!(oram.read(3), Some(vec![0xAB]));
//! ```

pub mod layout;
pub mod metrics;
pub mod plan;
pub mod position;
pub mod protocol;
pub mod split;
pub mod stash;
pub mod tree;
pub mod verified;

pub use layout::{SubtreeLayout, TreeTopCache};
pub use metrics::OccupancyProfile;
pub use plan::{AccessPlan, BlockRef, Placement, PlanConfig, Planner};
pub use position::PositionMap;
pub use protocol::PathOram;
pub use split::{SplitAccounting, SplitConfig};
pub use stash::Stash;
pub use tree::TreeGeometry;
pub use verified::{RecoveryPolicy, RecoveryStats, VerifiedOram};
