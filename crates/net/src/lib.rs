//! Communication substrate: the workstation ↔ server links.
//!
//! "We envision the overall system architecture for MINOS as being composed
//! of a multimedia object server subsystem and a number of workstations
//! interconnected through high capacity links. … The workstation is
//! connected to several other machines through Ethernet." (§5)
//!
//! The reproduction models a link as latency plus bandwidth with transfer
//! accounting (experiments E5/E6 are about bytes moved over this link), and
//! defines the binary request/response protocol between the presentation
//! manager and the object server.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod frame;
pub mod link;
pub mod pool;
pub mod protocol;

pub use fault::{Delivery, FaultLayer, FaultPlan, FaultRng, FaultStats, FaultyLink};
pub use frame::{crc32, crc32_combine, Frame, FramePayload, Priority};
pub use link::{Link, LinkStats, ETHERNET_10MBIT};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use protocol::{ServerRequest, ServerResponse};
