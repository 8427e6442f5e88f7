//! Sharded fleet sweeps: the sweep and record types for
//! [`FleetSimulation`] grids.
//!
//! Mirrors the single-cluster layers ([`Sweep`](crate::Sweep) /
//! [`RunRecord`](crate::RunRecord)) one level up: a trial is a whole
//! [`FleetConfig`], and a record carries the fleet aggregate plus the
//! per-shard breakdown. Fleet sweeps run through the same executor as
//! solo sweeps ([`crate::exec`]), one job per shard, so the same
//! determinism contract holds — records are pure simulation output
//! assembled in trial order, and sweep output is byte-identical at any
//! `--threads N`.

use ddp_core::{
    number_fleet_traces, DdpModel, FleetConfig, FleetReport, FleetSimulation, Placement, RunStats,
    RunSummary, TimelineDump, TraceDump,
};

use crate::exec::run_simulations;
use crate::json::{json_f64, JsonObject};

/// One independent fleet simulation in a sweep.
#[derive(Clone, Debug)]
pub struct FleetTrial {
    /// Position in the sweep (stable: results carry the same index).
    pub index: usize,
    /// Human-readable label, echoed in progress lines and JSON records.
    pub label: String,
    /// The fleet configuration to run.
    pub cfg: FleetConfig,
}

/// A declarative grid of independent fleet trials.
#[derive(Clone, Debug, Default)]
pub struct FleetSweep {
    trials: Vec<FleetTrial>,
}

impl FleetSweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        FleetSweep::default()
    }

    /// Appends one trial; returns its index.
    pub fn push(&mut self, label: impl Into<String>, cfg: FleetConfig) -> usize {
        let index = self.trials.len();
        self.trials.push(FleetTrial {
            index,
            label: label.into(),
            cfg,
        });
        index
    }

    /// Builder-style [`FleetSweep::push`].
    #[must_use]
    pub fn trial(mut self, label: impl Into<String>, cfg: FleetConfig) -> Self {
        self.push(label, cfg);
        self
    }

    /// Consumes the sweep into its trials.
    #[must_use]
    pub fn into_trials(self) -> Vec<FleetTrial> {
        self.trials
    }
}

/// One completed fleet trial: the aggregate summary (counters and run
/// length over the merged statistics) and the per-shard breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRecord {
    /// Position of the trial in its sweep.
    pub index: usize,
    /// The trial's label.
    pub label: String,
    /// The DDP model the fleet ran.
    pub model: DdpModel,
    /// Number of shards.
    pub shards: u16,
    /// The key→shard placement used.
    pub placement: Placement,
    /// Fleet-wide condensed metrics (see
    /// [`FleetReport::aggregate`](ddp_core::FleetReport::aggregate)).
    pub summary: RunSummary,
    /// Per-shard throughput, requests per simulated second.
    pub shard_throughput: Vec<f64>,
    /// Completed requests per shard.
    pub shard_completed: Vec<u64>,
    /// The popularity mass each shard was provisioned for.
    pub offered_mass: Vec<f64>,
    /// Shard-imbalance index: max over shards of completed requests
    /// divided by the mean (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Transaction/scope groups re-homed because their natural keys
    /// spanned shards.
    pub cross_shard_groups: u64,
}

impl FleetRecord {
    /// Condenses a fleet report into a record.
    #[must_use]
    pub(crate) fn from_report(index: usize, label: String, report: FleetReport) -> Self {
        FleetRecord {
            index,
            label,
            model: report.model,
            shards: report.shards,
            placement: report.placement,
            summary: report.aggregate,
            shard_throughput: report.per_shard.iter().map(|s| s.throughput).collect(),
            shard_completed: report.shard_completed,
            offered_mass: report.offered_mass,
            imbalance: report.imbalance,
            cross_shard_groups: report.cross_shard_groups,
        }
    }

    /// Condenses one fleet simulation into a record, running it first if
    /// it has not run yet.
    #[must_use]
    pub fn from_simulation(index: usize, label: String, sim: &mut FleetSimulation) -> Self {
        Self::from_report(index, label, sim.run())
    }
}

/// Serializes one fleet record as a single JSON-lines object (`kind`
/// `fleet_record`), including the per-shard breakdown as arrays.
#[must_use]
pub fn fleet_record_to_json(r: &FleetRecord) -> String {
    let mut o = JsonObject::new();
    o.u64("trial", r.index as u64);
    o.str("kind", "fleet_record");
    o.str("label", &r.label);
    o.str("model", &r.model.to_string());
    o.u64("shards", u64::from(r.shards));
    o.str("placement", r.placement.name());
    o.f64("throughput", r.summary.throughput);
    o.f64("mean_access_ns", r.summary.mean_access_ns);
    o.f64("p95_read_ns", r.summary.p95_read_ns);
    o.f64("p95_write_ns", r.summary.p95_write_ns);
    o.f64("vp_dp_lag_mean_ns", r.summary.vp_dp_lag_mean_ns);
    o.f64("imbalance", r.imbalance);
    o.u64("cross_shard_groups", r.cross_shard_groups);
    o.u64("measured_ns", r.summary.measured_ns);
    o.raw("shard_completed", &u64_array(&r.shard_completed));
    o.raw("shard_throughput", &f64_array(&r.shard_throughput));
    o.raw("offered_mass", &f64_array(&r.offered_mass));
    o.finish()
}

fn u64_array(values: &[u64]) -> String {
    let body: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", body.join(","))
}

fn f64_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", body.join(","))
}

/// Runs every fleet trial on `threads` workers, one job per shard, and
/// returns, in sweep order, each trial's record plus its per-shard trace
/// dumps (numbered fleet-wide, see [`number_fleet_traces`]) and timeline
/// dumps (both empty unless the base config enabled them). The sharded
/// counterpart of [`run_sweep_instrumented`](crate::run_sweep_instrumented),
/// with the same determinism contract.
///
/// # Panics
///
/// Panics if a trial's [`FleetConfig::validate`] fails.
#[must_use]
#[expect(
    clippy::type_complexity,
    reason = "each record with its shards' trace and timeline dumps; a named type would have one use"
)]
pub fn run_fleet_sweep_instrumented(
    name: &str,
    sweep: FleetSweep,
    threads: usize,
) -> Vec<(FleetRecord, Vec<(u16, TraceDump)>, Vec<(u16, TimelineDump)>)> {
    let trials = sweep.into_trials();
    let jobs: Vec<_> = trials
        .iter()
        .map(|t| {
            t.cfg.validate().expect("invalid fleet configuration");
            (t.label.clone(), t.cfg.shard_configs())
        })
        .collect();
    let runs = run_simulations(name, &jobs, threads);
    trials
        .into_iter()
        .zip(runs)
        .map(|(trial, runs)| {
            let stats: Vec<&RunStats> = runs.iter().map(|r| &r.stats).collect();
            let cross = runs.iter().map(|r| r.cross_shard_groups).sum();
            let mass = trial.cfg.popularity_mass();
            let report = FleetReport::from_shards(&trial.cfg, mass, &stats, cross);
            let record = FleetRecord::from_report(trial.index, trial.label, report);
            let mut traces = Vec::with_capacity(runs.len());
            let mut timelines = Vec::new();
            for (s, run) in runs.into_iter().enumerate() {
                traces.push((run.events, run.trace));
                if let Some(dump) = run.timeline {
                    timelines.push((s as u16, dump));
                }
            }
            (record, number_fleet_traces(traces), timelines)
        })
        .collect()
}

/// [`run_fleet_sweep_instrumented`] without the trace and timeline dumps.
#[must_use]
pub fn run_fleet_sweep(name: &str, sweep: FleetSweep, threads: usize) -> Vec<FleetRecord> {
    run_fleet_sweep_instrumented(name, sweep, threads)
        .into_iter()
        .map(|(record, _, _)| record)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::{ClusterConfig, Consistency, Persistency};

    fn tiny_fleet(shards: u16) -> FleetSweep {
        let mut sweep = FleetSweep::new();
        let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
        for model in [DdpModel::baseline(), causal] {
            let mut cfg = ClusterConfig::micro21(model).quick();
            cfg.warmup_requests = 20;
            cfg.measured_requests = 200;
            sweep.push(format!("{model} x{shards}"), FleetConfig::new(cfg, shards));
        }
        sweep
    }

    #[test]
    fn records_come_back_in_order_and_complete() {
        let records = run_fleet_sweep("fleet-test", tiny_fleet(3), 2);
        assert_eq!(records.len(), 2);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.shards, 3);
            assert_eq!(r.shard_completed.len(), 3);
            assert!(r.summary.throughput > 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_fleet_results() {
        let sequential = run_fleet_sweep("fleet-test", tiny_fleet(4), 1);
        let parallel = run_fleet_sweep("fleet-test", tiny_fleet(4), 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn record_json_carries_the_breakdown() {
        let records = run_fleet_sweep("fleet-test", tiny_fleet(2), 1);
        let line = fleet_record_to_json(&records[0]);
        assert!(line.contains("\"kind\":\"fleet_record\""), "{line}");
        assert!(line.contains("\"shards\":2"), "{line}");
        assert!(line.contains("\"placement\":\"hash\""), "{line}");
        assert!(line.contains("\"shard_completed\":["), "{line}");
        assert!(line.contains("\"offered_mass\":["), "{line}");
    }
}
