#![warn(missing_docs)]

//! Buffer-on-board (BOB) memory architecture model.
//!
//! In the BOB organization (Cooper-Balis et al. \[9\]; §II-A, §III-A of the
//! paper) every memory channel is split in two: a *main controller*
//! (MainMC) on the processor die and a *simple controller* (SimpleMC) on
//! the motherboard next to the DIMMs. The two communicate over a narrow,
//! fast **serial link** carrying packets; the SimpleMC drives one to four
//! DDR3 sub-channels over conventional parallel buses and enforces JEDEC
//! timing (that part is `doram-dram`).
//!
//! This crate provides:
//!
//! * [`packet`] — BOB packet kinds and wire sizes (72 B full packets, 8 B
//!   short reads) plus the functional 72 B encode/decode used with
//!   `doram-crypto`;
//! * [`link`] — the serial link: per-direction bandwidth, serialization
//!   delay, and the 15 ns buffer/link latency of Table II;
//! * [`channel`] — a *normal* (non-secure) BOB channel servicing plain
//!   memory requests end to end. The secure channel variant, which embeds
//!   the Path ORAM secure delegator, is composed in `doram-core`.
//!
//! # Examples
//!
//! ```
//! use doram_bob::{BobChannel, BobChannelConfig};
//! use doram_dram::{MemOp, MemRequest, RequestClass};
//! use doram_sim::{AppId, MemCycle, RequestId};
//!
//! let mut ch = BobChannel::new(BobChannelConfig::default());
//! ch.try_send(MemRequest {
//!     id: RequestId(0), app: AppId(0), op: MemOp::Read, addr: 0,
//!     class: RequestClass::Normal, arrival: MemCycle(0),
//! }, MemCycle(0)).unwrap();
//! let mut done = Vec::new();
//! let mut now = MemCycle(0);
//! while done.is_empty() {
//!     ch.tick(now, &mut done);
//!     now += MemCycle(1);
//! }
//! // Round trip pays two link traversals on top of the DRAM access.
//! assert!(done[0].finished.0 > 26);
//! ```

pub mod channel;
pub mod link;
pub mod packet;

pub use channel::{BobChannel, BobChannelConfig};
pub use link::{Link, LinkConfig, LinkStats};
pub use packet::{
    decode_payload, encode_payload, PacketKind, Payload, FULL_PACKET_BYTES, SHORT_PACKET_BYTES,
};
