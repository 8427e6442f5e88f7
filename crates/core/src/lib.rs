//! # ddp-core — Distributed Data Persistency (MICRO 2021)
//!
//! A from-scratch Rust implementation of the paper *Distributed Data
//! Persistency* (Kokolis, Psistakis, Reidys, Huang, Torrellas; MICRO-54,
//! 2021): the binding of NVM **memory persistency** models with distributed
//! **data consistency** models into *DDP models*, plus low-latency,
//! leaderless (Hermes-style) protocols for all 25 pairings of
//!
//! * consistency: Linearizable, Read-Enforced, Transactional, Causal,
//!   Eventual;
//! * persistency: Strict, Synchronous, Read-Enforced, Scope, Eventual.
//!
//! The crate reasons about each binding through the update's **Visibility
//! Point** (when replicas may serve it — the consistency model) and
//! **Durability Point** (when it survives volatile failure — the
//! persistency model); see [`Consistency::visibility_point`] and
//! [`Persistency::durability_point`].
//!
//! # Quick start
//!
//! ```
//! use ddp_core::{run_experiment, ClusterConfig, Consistency, DdpModel, Persistency};
//!
//! // <Causal, Synchronous>: the paper's sweet spot for a broad class of
//! // applications (§1, §9).
//! let model = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
//! let report = run_experiment(ClusterConfig::micro21(model).quick());
//! assert!(report.summary.throughput > 0.0);
//! ```
//!
//! # Layout
//!
//! * [`model`] — the DDP model space and Table 2 semantics;
//! * [`message`] — the protocol message set (Table 3);
//! * [`cauhist`] — vector-clock causal histories;
//! * [`replica`] — per-node, per-key replica state over any `ddp-store`
//!   backend;
//! * [`protocol`] — the parametric coordinator/follower engine and the
//!   [`Simulation`] driver;
//! * [`traits_table`] — the qualitative Table 4 derivation;
//! * [`fleet`] — a sharded fleet of independent replica groups;
//! * [`failure`] — crash injection and NVM snapshots;
//! * [`recovery`] — the recovery algorithms (simple and voting-based);
//! * [`recovery_time`] — first-order recovery-duration estimates (§9);
//! * [`checker`] — monotonic-read / non-stale-read history checkers.
//!
//! [`Consistency::visibility_point`]: model::Consistency::visibility_point
//! [`Persistency::durability_point`]: model::Persistency::durability_point
//! [`Simulation`]: protocol::Simulation

#![warn(missing_docs)]

pub mod cauhist;
pub mod checker;
pub mod config;
pub mod failure;
pub mod fleet;
pub mod message;
pub mod model;
pub mod protocol;
pub mod recovery;
pub mod recovery_time;
pub mod replica;
pub mod stats;
pub mod traits_table;

pub use cauhist::VectorClock;
pub use checker::{CheckOutcome, HistoryChecker};
pub use config::{
    BurstProfile, ClusterConfig, CompactionConfig, CrashEvent, FaultPlan, OpenLoopPlan,
};
pub use failure::{crash_snapshot, ClusterSnapshot, NodeImage};
pub use fleet::{
    number_fleet_traces, run_fleet, shard_seed, FleetConfig, FleetReport, FleetSimulation,
    SHARD_SEED_STRIDE,
};
pub use message::{Message, ScopeId, TxnId, WriteId};
pub use model::{Consistency, DdpModel, Persistency};
pub use protocol::{
    run_experiment, Cluster, OpenLoopAccounting, RunOutcome, RunReport, Simulation,
};
pub use recovery::{recover, RecoveredState, RecoveryPolicy};
pub use recovery_time::{estimate_recovery, RecoveryEstimate};
pub use replica::{KeyState, ReplicaStore};
pub use stats::{RunStats, RunSummary};
pub use traits_table::{Level, ModelTraits};

// Re-exported so harnesses and tests can route sharded fleets without
// depending on `ddp-workload` directly.
pub use ddp_workload::{Placement, ShardRouter, ShardSlice};

// Re-exported so the harness can parse `--store` without depending on
// `ddp-store` directly.
pub use ddp_store::StoreKind;

// Re-exported so harnesses and tests can configure and consume tracing
// without depending on `ddp-trace` directly.
pub use ddp_trace::{
    PhaseAccum, PhaseBreakdown, StallCause, Timeline, TimelineDump, TimelineWindow, TraceConfig,
    TraceDump, TraceEventKind, TraceRecord,
};
