//! # ddp-mem — memory-system substrate for the DDP evaluation
//!
//! Models the per-server memory system of the paper's Table 5: a three-level
//! cache hierarchy with a DDIO partition in the shared LLC, DRAM as a fixed
//! cache-miss latency, and a banked NVM device (140 ns reads, 400 ns writes,
//! 2 channels × 8 banks). The paper used a modified DRAMSim2 for this role;
//! this crate is the from-scratch Rust equivalent.
//!
//! Everything here is a *timing model*: calls take the current [`SimTime`]
//! and return latencies or completion times; the caller (the protocol engine
//! in `ddp-core`) schedules the corresponding simulator events.
//!
//! The load-dependent completion times of [`BankedDevice`] are what create
//! the paper's "NVM pressure" effect: persistency models that keep many
//! persists outstanding congest the NVM banks and delay the reads that must
//! wait on them (paper §8.1.1).
//!
//! [`SimTime`]: ddp_sim::SimTime

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod controller;
mod device;
mod params;

pub use cache::{CacheHierarchy, HitLevel};
pub use controller::MemoryController;
pub use device::{AccessKind, BankedDevice};
pub use params::{CacheParams, DeviceParams, MemoryParams, CORE_GHZ};
