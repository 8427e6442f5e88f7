//! # ddp-net — RDMA fabric substrate for the DDP evaluation
//!
//! Models the cluster interconnect of the paper's Table 5: per-node NICs
//! with 200 Gb/s links, up to 400 queue pairs, and a 1 µs NIC-to-NIC round
//! trip (0.5 µs and 2 µs in the Figure 8 sweep). The paper assumes future
//! RDMA extensions (SNIA's remote-persist proposals); [`RdmaKind`] carries
//! those command types so receivers can honor their placement guarantees.
//!
//! Like `ddp-mem`, this crate is a pure timing model: [`Fabric::unicast`]
//! and [`Fabric::transmit`] return arrival times, and the protocol engine
//! in `ddp-core` turns them into simulator events (a broadcast is one
//! unicast per follower, serialized on the sender's egress link).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod fault;
mod nic;
mod params;

pub use fabric::{Delivery, Fabric, NodeId};
pub use fault::{FaultProfile, Transmit};
pub use nic::{Nic, RdmaKind};
pub use params::NetworkParams;
