//! # ddp-workload — YCSB-style workload generation for the DDP evaluation
//!
//! The paper drives every experiment with the Yahoo! Cloud Serving
//! Benchmark (§7): workload A (50 % reads / 50 % writes, the default),
//! workload B (95 % reads), and a custom "workload-W" (95 % writes) for the
//! Figure 9 sweep, all with Zipf-skewed key popularity and closed-loop
//! clients (20 per server by default, swept in Figure 7).
//!
//! This crate reimplements those pieces: a bounded [`Zipfian`] generator
//! (the YCSB algorithm), [`WorkloadSpec`] presets, endless deterministic
//! [`RequestStream`]s, and a [`ClientPool`] that spreads closed-loop
//! clients across the cluster.
//!
//! Beyond the paper, [`ArrivalProcess`] / [`ArrivalGen`] provide open-loop
//! arrival timing (Poisson and bursty MMPP) for overload studies, where
//! offered load is an arrival rate rather than a client count.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
mod client;
mod shard;
mod ycsb;
mod zipf;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use client::{Client, ClientId, ClientPool};
pub use shard::{Placement, ShardRouter, ShardSlice};
pub use ycsb::{
    OpKind, Request, RequestStream, WorkloadSpec, DEFAULT_KEY_SPACE, DEFAULT_VALUE_BYTES,
};
pub use zipf::{KeyChooser, Zipfian, YCSB_THETA};
