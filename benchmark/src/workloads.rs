//! The four benchmark workloads.
//!
//! Each workload is a fixed list of cells (one cell = one simulation). The
//! benchmark hands the simulator only these generated configurations; the
//! seed is the one input that varies between runs.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, FleetConfig, OpenLoopPlan, Persistency, StoreKind,
    TraceConfig,
};
use ddp_sim::Duration;
use ddp_workload::WorkloadSpec;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0xDD9;

/// Harness workers for the fleet workload (the `scaling` bin's entry
/// point, on a two-core host).
pub const FLEET_THREADS: usize = 2;

/// Timeline window of the open-loop write workload.
pub const TIMELINE_WINDOW: Duration = Duration::from_micros(50);

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A single replica group.
    Solo(ClusterConfig),
    /// A sharded fleet of replica groups.
    Fleet(FleetConfig),
}

impl Cell {
    /// The cluster template the cell runs (the fleet's base for fleets).
    pub fn base(&self) -> &ClusterConfig {
        match self {
            Cell::Solo(cfg) => cfg,
            Cell::Fleet(fleet) => &fleet.base,
        }
    }

    /// The same cell with a different tracing configuration.
    pub fn with_trace(&self, trace: TraceConfig) -> Cell {
        match self {
            Cell::Solo(cfg) => Cell::Solo(cfg.clone().with_trace(trace)),
            Cell::Fleet(fleet) => {
                let mut fleet = fleet.clone();
                fleet.base = fleet.base.with_trace(trace);
                Cell::Fleet(fleet)
            }
        }
    }
}

/// A named list of cells.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// `(label, cell)` in run order.
    pub cells: Vec<(String, Cell)>,
}

impl Workload {
    /// True when the cells run through the harness fleet executor.
    pub fn is_fleet(&self) -> bool {
        matches!(self.cells.first(), Some((_, Cell::Fleet(_))))
    }
}

/// Every workload name, in the order a full run visits them.
pub const NAMES: [&str; 4] = [
    "grid25-zipf-a",
    "reads-uniform-b",
    "writes-openloop-lsm",
    "fleet8-uniform-a",
];

/// `records_digest` of each workload at [`DEFAULT_SEED`], as measured when
/// the benchmark was defined. Informational: a change to the modelled
/// cluster legitimately moves it.
pub const REFERENCE_DIGESTS: [(&str, &str); 4] = [
    ("grid25-zipf-a", "0bc1681ea7ded210"),
    ("reads-uniform-b", "010d1f8104ee7d7f"),
    ("writes-openloop-lsm", "f78bf202a44c617b"),
    ("fleet8-uniform-a", "3fcb8d4bcc26b4b6"),
];

/// The six models of the read, write and fleet workloads: one per
/// consistency model at Synchronous persistency where that is the paper's
/// default, plus the Scope and read-stalling `<RE,RE>` corners.
fn six_models() -> [DdpModel; 6] {
    use Consistency as C;
    use Persistency as P;
    [
        DdpModel::new(C::Linearizable, P::Synchronous),
        DdpModel::new(C::Causal, P::Synchronous),
        DdpModel::new(C::Eventual, P::Eventual),
        DdpModel::new(C::Transactional, P::Synchronous),
        DdpModel::new(C::Linearizable, P::Scope),
        DdpModel::new(C::ReadEnforced, P::ReadEnforced),
    ]
}

/// Closed-loop capacity (requests per simulated second) of each
/// write-workload model under that workload's configuration at
/// [`DEFAULT_SEED`]. The open-loop rates are fixed multiples of these
/// constants; they are not re-probed per run.
pub const WRITE_CAPACITY: [(Consistency, Persistency, f64); 5] = [
    (Consistency::Linearizable, Persistency::Synchronous, 6.57e6),
    (Consistency::Causal, Persistency::Synchronous, 2.98e7),
    (Consistency::Eventual, Persistency::Eventual, 3.91e7),
    (Consistency::Linearizable, Persistency::Scope, 6.57e6),
    (Consistency::ReadEnforced, Persistency::ReadEnforced, 5.53e6),
];

/// Offered load as multiples of closed-loop capacity: below the knee and
/// in overload, where admission sheds.
pub const LOAD_FACTORS: [f64; 2] = [0.7, 1.5];

/// Builds workload `name` with every cell seeded by `seed`.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut cells = Vec::new();
    match name {
        // All 25 models at the size `fig6 --quick` and the tier-1 sweeps
        // run. Zipf client set-up dominates each cell, and the
        // transactional conflict path dominates the run phase.
        "grid25-zipf-a" => {
            for model in DdpModel::all() {
                let mut cfg = ClusterConfig::micro21(model).quick();
                cfg.seed = seed;
                cells.push((model.to_string(), Cell::Solo(cfg)));
            }
        }
        // Uniform keys skip the Zipf set-up and transactional conflicts,
        // leaving the read path, read-stall-on-persist and handler cost.
        "reads-uniform-b" => {
            for model in six_models() {
                let mut cfg = ClusterConfig::micro21(model);
                cfg.workload = WorkloadSpec {
                    zipf_theta: None,
                    ..WorkloadSpec::ycsb_b()
                };
                cfg.warmup_requests = 20_000;
                cfg.measured_requests = 200_000;
                cfg.seed = seed;
                cells.push((model.to_string(), Cell::Solo(cfg)));
            }
        }
        // The write path under open-loop load: broadcast, persists, LSM
        // seals and merges, admission and shedding, and the timeline.
        // `<Txn,Sync>` is left out: one arrival is a whole transaction, so
        // it sheds most arrivals even below capacity.
        "writes-openloop-lsm" => {
            for (c, p, capacity) in WRITE_CAPACITY {
                let model = DdpModel::new(c, p);
                for factor in LOAD_FACTORS {
                    let mut cfg = ClusterConfig::micro21(model)
                        .with_workload(WorkloadSpec::workload_w())
                        .with_store(StoreKind::Lsm)
                        .with_open_loop(OpenLoopPlan::poisson(capacity * factor))
                        .with_trace(TraceConfig::default().with_timeline(TIMELINE_WINDOW));
                    cfg.warmup_requests = 2_000;
                    cfg.measured_requests = 20_000;
                    cfg.seed = seed;
                    cells.push((format!("{model} x{factor}"), Cell::Solo(cfg)));
                }
            }
        }
        // The `scaling` bin's 8-shard weak-scaled uniform YCSB-A cell: the
        // only workload on the fleet multiplexer and the harness executor.
        "fleet8-uniform-a" => {
            const SHARDS: u16 = 8;
            // The slowest fleet first, so the makespan on two workers does
            // not hinge on which worker happens to pick it up last.
            let mut models = six_models();
            models.sort_by_key(|m| m.consistency != Consistency::Transactional);
            for model in models {
                let mut cfg = ClusterConfig::micro21(model);
                cfg.workload.zipf_theta = None;
                cfg.clients *= u32::from(SHARDS);
                cfg.warmup_requests = 500 * u64::from(SHARDS);
                cfg.measured_requests = 5_000 * u64::from(SHARDS);
                cfg.seed = seed;
                cells.push((
                    format!("{model} S={SHARDS}"),
                    Cell::Fleet(FleetConfig::new(cfg, SHARDS)),
                ));
            }
        }
        _ => return None,
    }
    Some(Workload {
        name: NAMES.into_iter().find(|n| *n == name)?,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_a_valid_workload() {
        for name in NAMES {
            let w = build(name, DEFAULT_SEED).expect("known workload");
            assert!(!w.cells.is_empty());
            for (label, cell) in &w.cells {
                match cell {
                    Cell::Solo(cfg) => cfg.validate().expect(label),
                    Cell::Fleet(fleet) => fleet.validate().expect(label),
                }
                assert_eq!(cell.base().seed, DEFAULT_SEED);
            }
            assert_eq!(w.is_fleet(), name == "fleet8-uniform-a");
        }
        assert!(build("nope", 1).is_none());
    }
}
