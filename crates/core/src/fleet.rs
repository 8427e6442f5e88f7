//! A fleet of shards: many independent replica groups, each its own
//! simulation.
//!
//! The paper evaluates one replica group — every node holds every key.
//! Real deployments shard: the key space splits over `S` independent
//! groups, each running the full DDP protocol for its slice of the keys.
//! This module scales the single-[`Cluster`](crate::Cluster) core out to such a fleet
//! while preserving the repo's central invariant — byte-identical results
//! for a given config at any host thread count:
//!
//! * [`FleetConfig`] sits above [`ClusterConfig`]: shard count, key→shard
//!   placement, and the rule for deriving each shard's cluster config from
//!   the fleet-wide template (per-shard seeds, popularity-proportional
//!   client/request/rate splits, per-shard workload slices).
//! * Shards never exchange an event, so each one runs as a plain
//!   [`Simulation`] of its derived config. A fleet of one shard is that
//!   config's solo run.
//! * [`FleetSimulation`] runs the shards one after another and keeps only
//!   each finished shard's [`RunOutcome`], which
//!   [`FleetReport::from_outcomes`] aggregates into a fleet-level report:
//!   pooled latency histograms, a union measured window, a
//!   shard-imbalance index, and the count of transaction groups that
//!   would have crossed shards. The harness executor runs the same shards
//!   as separate jobs and builds the report and traces from their
//!   outcomes with the same two functions.
//!
//! Cross-shard transactions are out of scope for the protocol layer (each
//! shard's group runs its own coordination); the workload layer re-homes
//! would-be cross-shard groups onto their anchor's shard and counts them
//! (see [`ShardSlice`]), so the report quantifies what single-shard
//! routing rejected.

use crate::config::ClusterConfig;
use crate::model::{Consistency, DdpModel, Persistency};
use crate::protocol::{RunOutcome, Simulation};
use crate::stats::{RunStats, RunSummary};
use ddp_sim::SimTime;
use ddp_trace::TraceDump;
use ddp_workload::{Placement, ShardRouter, ShardSlice};

/// Seed stride for deriving per-shard seeds from the fleet seed: shard `s`
/// runs with `seed ^ (s * SHARD_SEED_STRIDE)`. Shard 0 keeps the fleet
/// seed unchanged, so a one-shard fleet replays the single-cluster run
/// exactly. Deliberately a different odd constant from the harness's
/// seed-replica stride (`0x9E37_79B9_7F4A_7C15`): XOR-derived strides
/// compose, and equal strides would alias `(replica r, shard s)` with
/// `(replica s, shard r)`.
pub const SHARD_SEED_STRIDE: u64 = 0xD6E8_FEB8_6659_FD93;

/// Per-shard seed for shard `s` of a fleet seeded with `fleet_seed`.
#[must_use]
pub fn shard_seed(fleet_seed: u64, shard: u16) -> u64 {
    fleet_seed ^ u64::from(shard).wrapping_mul(SHARD_SEED_STRIDE)
}

/// Configuration of a sharded fleet: a fleet-wide cluster template plus
/// the shard count and key→shard placement.
///
/// The template's `clients`, `warmup_requests`, `measured_requests`, and
/// open-loop `offered_per_sec` are **fleet totals**; [`FleetConfig::split`]
/// splits them across shards in proportion to each shard's popularity
/// mass, so a skewed workload loads shards unevenly — exactly the
/// imbalance the scaling sweeps measure.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The fleet-wide cluster template (totals, not per-shard values).
    pub base: ClusterConfig,
    /// Number of shards (independent replica groups).
    pub shards: u16,
    /// How keys map to shards.
    pub placement: Placement,
}

impl FleetConfig {
    /// A fleet of `shards` replica groups over the `base` template, with
    /// hash placement.
    #[must_use]
    pub fn new(base: ClusterConfig, shards: u16) -> Self {
        FleetConfig {
            base,
            shards,
            placement: Placement::Hash,
        }
    }

    /// Sets the key→shard placement.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Validates the fleet shape on top of the template's own
    /// [`ClusterConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: a degenerate
    /// shard count, a key space too small to give every shard a key, or
    /// too few clients (or measured requests) to give every shard a
    /// share.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        if self.shards == 0 {
            return Err("fleet needs at least one shard".into());
        }
        let shards = u64::from(self.shards);
        if self.base.workload.key_space < shards {
            return Err(format!(
                "key space {} smaller than shard count {}",
                self.base.workload.key_space, self.shards
            ));
        }
        if u64::from(self.base.clients) < shards {
            return Err(format!(
                "{} clients cannot cover {} shards (need at least one per shard)",
                self.base.clients, self.shards
            ));
        }
        if self.base.open_loop.is_some() {
            let slots_needed = shards * u64::from(self.base.nodes);
            if u64::from(self.base.clients) < slots_needed {
                return Err(format!(
                    "open-loop fleets need one session slot per node per shard: \
                     {} clients < {} shards x {} nodes",
                    self.base.clients, self.shards, self.base.nodes
                ));
            }
        }
        if self.base.measured_requests < shards {
            return Err(format!(
                "{} measured requests cannot cover {} shards",
                self.base.measured_requests, self.shards
            ));
        }
        Ok(())
    }

    /// The key→shard placement function this fleet uses.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        ShardRouter::new(self.placement, self.shards, self.base.workload.key_space)
    }

    /// Requests per transaction group for cross-shard accounting:
    /// transactions group `txn_size` requests, Scope persistency groups
    /// `scope_size`, everything else is ungrouped.
    fn group_size(&self) -> u32 {
        if self.base.model.consistency == Consistency::Transactional {
            self.base.txn_size
        } else if self.base.model.persistency == Persistency::Scope {
            self.base.scope_size
        } else {
            1
        }
    }

    /// The per-shard cluster configurations; the configurations of
    /// [`FleetConfig::split`].
    #[must_use]
    pub fn shard_configs(&self) -> Vec<ClusterConfig> {
        self.split().1
    }

    /// Derives the fleet's popularity mass (the fraction of key draws
    /// homed on each shard, summing to 1; see
    /// [`ShardRouter::popularity_mass`]) and the per-shard cluster
    /// configurations apportioned by it.
    ///
    /// A one-shard fleet returns the template untouched (no workload
    /// slice, same seed), which is what makes `--shards 1` byte-identical
    /// to a single-cluster run. For `S > 1`, shard `s` gets:
    ///
    /// * seed `shard_seed(base.seed, s)` — independent RNG streams;
    /// * a popularity-proportional share of the fleet's clients, warm-up
    ///   and measured requests (largest-remainder apportionment; every
    ///   shard keeps at least one client, or `nodes` session slots on
    ///   open loops), and of the open-loop offered rate;
    /// * a [`ShardSlice`] restricting its workload to keys homed on `s`
    ///   and counting rejected cross-shard groups.
    #[must_use]
    pub fn split(&self) -> (Vec<f64>, Vec<ClusterConfig>) {
        if self.shards == 1 {
            // One shard homes every key draw.
            return (vec![1.0], vec![self.base.clone()]);
        }
        let router = self.router();
        // A Zipf key space builds its normaliser and draws a fixed sample
        // here, so each fleet path calls `split` once.
        let mass = router.popularity_mass(&self.base.workload.key_chooser());
        let group = self.group_size();
        let min_clients = if self.base.open_loop.is_some() {
            u64::from(self.base.nodes)
        } else {
            1
        };
        let clients = apportion(u64::from(self.base.clients), &mass, min_clients);
        let warmup = apportion(self.base.warmup_requests, &mass, 0);
        let measured = apportion(self.base.measured_requests, &mass, 1);
        let configs = (0..self.shards)
            .map(|s| {
                let mut cfg = self.base.clone();
                cfg.seed = shard_seed(self.base.seed, s);
                cfg.clients = u32::try_from(clients[usize::from(s)]).expect("client split fits");
                cfg.warmup_requests = warmup[usize::from(s)];
                cfg.measured_requests = measured[usize::from(s)];
                cfg.workload = cfg
                    .workload
                    .with_shard(ShardSlice::new(router, s).with_group(group));
                if let Some(plan) = cfg.open_loop.as_mut() {
                    plan.offered_per_sec *= mass[usize::from(s)];
                }
                cfg
            })
            .collect();
        (mass, configs)
    }
}

/// Splits `total` into `mass.len()` integer shares proportional to `mass`,
/// each at least `min`, summing exactly to `total` (largest-remainder
/// apportionment; ties break toward lower indices, so the split is a pure
/// function of its inputs).
///
/// Callers must guarantee `total >= min * mass.len()`; fleet validation
/// enforces that for every split performed here.
fn apportion(total: u64, mass: &[f64], min: u64) -> Vec<u64> {
    let n = mass.len();
    debug_assert!(total >= min * n as u64, "apportion under-provisioned");
    let mut out = vec![min; n];
    let rest = total - min * n as u64;
    if rest == 0 {
        return out;
    }
    let quotas: Vec<f64> = mass.iter().map(|m| rest as f64 * m).collect();
    let mut assigned = 0u64;
    for (o, q) in out.iter_mut().zip(&quotas) {
        // Guard the floor against mass vectors that sum slightly above 1.
        let floor = (*q as u64).min(rest - assigned);
        *o += floor;
        assigned += floor;
    }
    // Hand out the remainder by descending fractional part (index-ordered
    // on ties). One pass suffices: the remainder is < n.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = quotas[a].fract();
        let fb = quotas[b].fract();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut left = rest - assigned;
    let mut k = 0;
    while left > 0 {
        out[order[k % n]] += 1;
        left -= 1;
        k += 1;
    }
    out
}

/// Fleet-level results: the aggregate summary plus per-shard breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// The DDP model the fleet ran.
    pub model: DdpModel,
    /// Number of shards.
    pub shards: u16,
    /// The key→shard placement used.
    pub placement: Placement,
    /// Fleet-wide summary: pooled histograms and counters over the union
    /// of the shards' measured windows. The eight gauge-derived occupancy
    /// fields (`mean/max_buffered_writes`, `mean/max_admission_queue`,
    /// `mean/max_nvm_bank_queue`, `mean/max_active_compactions`) are sums
    /// of the per-shard values, since time-weighted gauges do not pool.
    pub aggregate: RunSummary,
    /// Each shard's own summary, indexed by shard.
    pub per_shard: Vec<RunSummary>,
    /// Completed requests per shard (the imbalance raw material).
    pub shard_completed: Vec<u64>,
    /// The popularity mass each shard was provisioned for.
    pub offered_mass: Vec<f64>,
    /// Shard-imbalance index: max over shards of completed requests,
    /// divided by the mean (1.0 = perfectly balanced; 0.0 if nothing
    /// completed anywhere).
    pub imbalance: f64,
    /// Transaction/scope groups whose natural keys spanned shards and
    /// were re-homed (rejected as cross-shard) by the routing layer.
    pub cross_shard_groups: u64,
}

impl FleetReport {
    /// Builds the report from each shard's outcome, in shard order.
    /// `offered_mass` is the mass [`FleetConfig::split`] apportioned the
    /// fleet by. [`FleetSimulation`] and the harness executor both report
    /// through here.
    #[must_use]
    pub fn from_outcomes(
        cfg: &FleetConfig,
        offered_mass: Vec<f64>,
        outcomes: &[RunOutcome],
    ) -> Self {
        let per_shard: Vec<RunSummary> = outcomes
            .iter()
            .map(|o| RunSummary::from_stats(&o.stats))
            .collect();
        let shard_completed: Vec<u64> = outcomes.iter().map(|o| o.stats.completed()).collect();

        let mut aggregate = RunSummary::from_stats(&merge_shard_stats(outcomes));
        // Gauge-derived occupancies: sum the per-shard values (see
        // FleetReport::aggregate).
        aggregate.mean_buffered_writes = per_shard.iter().map(|s| s.mean_buffered_writes).sum();
        aggregate.max_buffered_writes = per_shard.iter().map(|s| s.max_buffered_writes).sum();
        aggregate.mean_admission_queue = per_shard.iter().map(|s| s.mean_admission_queue).sum();
        aggregate.max_admission_queue = per_shard.iter().map(|s| s.max_admission_queue).sum();
        aggregate.mean_nvm_bank_queue = per_shard.iter().map(|s| s.mean_nvm_bank_queue).sum();
        aggregate.max_nvm_bank_queue = per_shard.iter().map(|s| s.max_nvm_bank_queue).sum();
        aggregate.mean_active_compactions =
            per_shard.iter().map(|s| s.mean_active_compactions).sum();
        aggregate.max_active_compactions = per_shard.iter().map(|s| s.max_active_compactions).sum();

        let total: u64 = shard_completed.iter().sum();
        let imbalance = if total == 0 {
            0.0
        } else {
            let mean = total as f64 / shard_completed.len() as f64;
            *shard_completed.iter().max().expect("at least one shard") as f64 / mean
        };

        FleetReport {
            model: cfg.base.model,
            shards: cfg.shards,
            placement: cfg.placement,
            aggregate,
            per_shard,
            shard_completed,
            offered_mass,
            imbalance,
            cross_shard_groups: outcomes.iter().map(|o| o.cross_shard_groups).sum(),
        }
    }
}

/// Fleet-wide merged statistics of the shards' outcomes: counters summed,
/// histograms pooled, the measured window unioned (see
/// [`RunStats::absorb`]). The level gauges are left default — occupancy
/// does not pool; use the per-shard summaries for those. No outcomes
/// merge to `RunStats::default()`.
fn merge_shard_stats(outcomes: &[RunOutcome]) -> RunStats {
    let mut merged = RunStats {
        // Seed the accumulator's (empty) window at shard 0's start so
        // the union below is exactly the union of real windows.
        window_start: outcomes
            .first()
            .map_or(SimTime::ZERO, |o| o.stats.window_start),
        ..RunStats::default()
    };
    for o in outcomes {
        merged.absorb(&o.stats);
    }
    merged
}

/// Drains the shards' traces, numbered fleet-wide: `(shard, dump)` for
/// each outcome, in shard order, that traced. Shard `s`'s `seq` values
/// are offset by the events shards `0..s` dispatched, so no `seq` value
/// appears in two shards and the highest is the fleet's dispatch total.
/// Shard 0 keeps its numbering, so a one-shard fleet's stream is its solo
/// run's. A drained outcome keeps an empty dump.
pub fn number_fleet_traces(outcomes: &mut [RunOutcome]) -> Vec<(u16, TraceDump)> {
    let mut offset = 0;
    let mut out = Vec::new();
    for (s, outcome) in outcomes.iter_mut().enumerate() {
        if let Some(dump) = outcome.trace.as_mut() {
            let mut dump = std::mem::take(dump);
            for r in &mut dump.events {
                r.seq += offset;
            }
            out.push((u16::try_from(s).expect("shard index fits u16"), dump));
        }
        offset += outcome.events;
    }
    out
}

/// Runs a fleet as one independent [`Simulation`] per shard and
/// aggregates the per-shard results; the sharded counterpart of
/// [`Simulation`].
///
/// Every shard is built up front, but [`FleetSimulation::run`] replaces
/// each one by its [`RunOutcome`] as soon as it finishes, so at most one
/// shard's run state (caches, replica stores, event records) is live.
#[derive(Debug)]
pub struct FleetSimulation {
    cfg: FleetConfig,
    mass: Vec<f64>,
    /// Shards not yet run, in shard order; `run` empties it.
    unrun: Vec<Simulation>,
    /// The finished shards' outcomes, in shard order.
    outcomes: Vec<RunOutcome>,
}

impl FleetSimulation {
    /// Builds every shard's simulation; validates the config.
    ///
    /// # Panics
    ///
    /// Panics if [`FleetConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate().expect("invalid fleet configuration");
        let (mass, configs) = cfg.split();
        let unrun = configs.into_iter().map(Simulation::new).collect();
        FleetSimulation {
            cfg,
            mass,
            unrun,
            outcomes: Vec::new(),
        }
    }

    /// Runs every shard to the end of its measured window, in shard
    /// order, and returns the fleet report. Each shard closes its books at
    /// its own stop time. Calling `run` again returns the same report
    /// without re-running.
    pub fn run(&mut self) -> FleetReport {
        for sim in std::mem::take(&mut self.unrun) {
            self.outcomes.push(sim.finish());
        }
        FleetReport::from_outcomes(&self.cfg, self.mass.clone(), &self.outcomes)
    }

    /// Fleet-wide merged statistics of the shards that have run (all of
    /// them after [`FleetSimulation::run`]): counters summed, histograms
    /// pooled, the measured window unioned (see [`RunStats::absorb`]). The
    /// level gauges are left default; the report's per-shard summaries
    /// carry them.
    #[must_use]
    pub fn merged_stats(&self) -> RunStats {
        merge_shard_stats(&self.outcomes)
    }

    /// Drains the trace of every shard that has run: `(shard, dump)` pairs
    /// for shards with event tracing enabled, numbered fleet-wide (see
    /// [`number_fleet_traces`]).
    pub fn take_traces(&mut self) -> Vec<(u16, TraceDump)> {
        number_fleet_traces(&mut self.outcomes)
    }
}

/// Convenience one-shot: build, run, report.
///
/// # Panics
///
/// Panics if [`FleetConfig::validate`] rejects the configuration.
#[must_use]
pub fn run_fleet(cfg: FleetConfig) -> FleetReport {
    FleetSimulation::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Simulation;

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig::micro21(DdpModel::baseline()).quick()
    }

    #[test]
    fn one_shard_fleet_matches_solo_simulation() {
        let cfg = quick_cfg();
        let solo = Simulation::new(cfg.clone()).run();
        let fleet = run_fleet(FleetConfig::new(cfg, 1));
        assert_eq!(fleet.aggregate, solo.summary);
        assert_eq!(fleet.per_shard.len(), 1);
        assert_eq!(fleet.cross_shard_groups, 0);
        assert!((fleet.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shards_partition_the_fleet_totals() {
        let mut cfg = quick_cfg();
        cfg.clients = 103; // deliberately not divisible
        cfg.warmup_requests = 501;
        cfg.measured_requests = 2_003;
        let fleet = FleetConfig::new(cfg, 4);
        let configs = fleet.shard_configs();
        assert_eq!(configs.len(), 4);
        assert_eq!(
            configs.iter().map(|c| u64::from(c.clients)).sum::<u64>(),
            103
        );
        assert_eq!(configs.iter().map(|c| c.warmup_requests).sum::<u64>(), 501);
        assert_eq!(
            configs.iter().map(|c| c.measured_requests).sum::<u64>(),
            2_003
        );
        assert!(configs.iter().all(|c| c.clients >= 1));
        assert!(configs.iter().all(|c| c.measured_requests >= 1));
        // Distinct seeds, shard 0 unchanged.
        assert_eq!(configs[0].seed, fleet.base.seed);
        for (i, c) in configs.iter().enumerate() {
            for (j, d) in configs.iter().enumerate() {
                if i != j {
                    assert_ne!(c.seed, d.seed);
                }
            }
            let slice = c.workload.shard.expect("sharded workload");
            assert_eq!(slice.shard, i as u16);
        }
    }

    #[test]
    fn multi_shard_fleet_completes_and_balances_roughly() {
        let mut cfg = quick_cfg();
        cfg.workload.zipf_theta = None; // uniform: near-perfect balance
        let report = run_fleet(FleetConfig::new(cfg.clone(), 4));
        assert_eq!(report.shards, 4);
        assert_eq!(report.per_shard.len(), 4);
        let total: u64 = report.shard_completed.iter().sum();
        assert!(
            total >= cfg.measured_requests,
            "fleet must finish its quota"
        );
        assert!(report.aggregate.throughput > 0.0);
        assert!(report.imbalance >= 1.0);
        assert!(
            report.imbalance < 1.5,
            "uniform placement should balance, got {}",
            report.imbalance
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick_cfg();
        let a = run_fleet(FleetConfig::new(cfg.clone(), 3));
        let b = run_fleet(FleetConfig::new(cfg, 3));
        assert_eq!(a.aggregate, b.aggregate);
        assert_eq!(a.shard_completed, b.shard_completed);
        assert_eq!(a.cross_shard_groups, b.cross_shard_groups);
    }

    #[test]
    fn transactional_fleets_count_cross_shard_groups() {
        let mut cfg = quick_cfg();
        cfg.model = DdpModel::new(Consistency::Transactional, Persistency::Eventual);
        let report = run_fleet(FleetConfig::new(cfg, 4));
        // Txn groups of 5 keys over 4 hash shards: most natural groups
        // span shards, so the rejection counter must move.
        assert!(
            report.cross_shard_groups > 0,
            "expected rejected cross-shard groups"
        );
    }

    #[test]
    fn validation_rejects_degenerate_fleets() {
        let cfg = quick_cfg();
        assert!(FleetConfig::new(cfg.clone(), 0).validate().is_err());
        let mut tiny = cfg.clone();
        tiny.workload.key_space = 3;
        assert!(FleetConfig::new(tiny, 8).validate().is_err());
        let mut few = cfg.clone();
        few.clients = 2;
        assert!(FleetConfig::new(few, 4).validate().is_err());
        assert!(FleetConfig::new(cfg, 4).validate().is_ok());
    }

    #[test]
    fn apportion_is_exact_and_respects_minimums() {
        let mass = vec![0.5, 0.3, 0.2];
        let split = apportion(10, &mass, 1);
        assert_eq!(split.iter().sum::<u64>(), 10);
        assert!(split.iter().all(|&x| x >= 1));
        assert_eq!(apportion(3, &[0.9, 0.05, 0.05], 1), vec![1, 1, 1]);
        assert_eq!(apportion(0, &[1.0], 0), vec![0]);
    }
}
