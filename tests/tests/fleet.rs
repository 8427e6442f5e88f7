//! Sharded-fleet integration tests: the degenerate single-shard case
//! against the solo simulation over the whole 25-model grid, every shard
//! against a solo run of its derived config, fleet-wide trace numbering,
//! executor byte-identity at different thread counts, per-shard open-loop
//! conservation under faults, weak-scaling sanity, and config validation.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, FleetConfig, FleetSimulation, OpenLoopPlan, Persistency,
    Placement, Simulation, TraceConfig,
};
use ddp_harness::{run_fleet_sweep, run_fleet_sweep_instrumented, FleetSweep};
use ddp_sim::Duration;

fn small_cfg(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 50;
    cfg.measured_requests = 600;
    cfg
}

/// `--shards 1` must be the degenerate case: over the whole 25-model grid
/// the fleet aggregate equals the solo simulation's summary field for
/// field (both sides run the same event sequence, so `PartialEq` over the
/// full summary is exact, not approximate).
#[test]
fn one_shard_fleet_matches_solo_grid() {
    for model in DdpModel::all() {
        let solo = Simulation::new(small_cfg(model)).run().summary;
        let fleet = FleetSimulation::new(FleetConfig::new(small_cfg(model), 1)).run();
        assert_eq!(
            fleet.aggregate, solo,
            "model {model} diverged between 1-shard fleet and solo run"
        );
        assert_eq!(fleet.shards, 1);
        assert_eq!(fleet.imbalance, 1.0);
    }
}

/// The contract a fleet rests on: shards never interact, so every shard
/// of a fleet reports exactly what a solo [`Simulation`] of its derived
/// config reports, field for field.
#[test]
fn every_shard_matches_a_solo_run_of_its_config() {
    let models = [
        DdpModel::baseline(),
        DdpModel::new(Consistency::Transactional, Persistency::Synchronous),
        DdpModel::new(Consistency::ReadEnforced, Persistency::ReadEnforced),
        DdpModel::new(Consistency::Causal, Persistency::Scope),
    ];
    for shards in [3, 8] {
        for model in models {
            let cfg = FleetConfig::new(small_cfg(model), shards);
            let report = FleetSimulation::new(cfg.clone()).run();
            for (s, shard_cfg) in cfg.shard_configs().into_iter().enumerate() {
                assert_eq!(
                    report.per_shard[s],
                    Simulation::new(shard_cfg).run().summary,
                    "{model} S={shards}: shard {s} diverged from its solo run"
                );
            }
        }
    }
}

/// Fleet trace `seq` numbers are fleet-unique: shard `s`'s records sit
/// after every dispatch of shards `0..s`, and the highest `seq` is the
/// fleet's dispatch total. The harness executor numbers the same way, and
/// a one-shard fleet's stream is the solo run's stream.
#[test]
fn fleet_trace_seq_is_numbered_shard_by_shard() {
    let traced = small_cfg(DdpModel::baseline()).with_trace(TraceConfig::enabled());
    let cfg = FleetConfig::new(traced.clone(), 4);
    let mut fleet = FleetSimulation::new(cfg.clone());
    fleet.run();
    let traces = fleet.take_traces();
    assert_eq!(traces.len(), 4);

    let mut offset = 0;
    for ((shard, dump), shard_cfg) in traces.iter().zip(cfg.shard_configs()) {
        let mut solo = Simulation::new(shard_cfg);
        solo.run();
        let events = solo.events_dispatched();
        let solo_dump = solo.take_trace().expect("traced shard");
        assert_eq!(dump.events.len(), solo_dump.events.len(), "shard {shard}");
        for (r, solo_r) in dump.events.iter().zip(&solo_dump.events) {
            assert_eq!(r.seq, solo_r.seq + offset, "shard {shard}");
            assert!(r.seq > offset && r.seq <= offset + events, "shard {shard}");
        }
        offset += events;
    }
    let max_seq = traces
        .iter()
        .flat_map(|(_, d)| d.events.iter().map(|r| r.seq))
        .max();
    assert_eq!(
        max_seq,
        Some(offset),
        "max seq must be the fleet's dispatch total"
    );

    let sweep = FleetSweep::new().trial("S=4", cfg);
    let (_, executor_traces, _) = run_fleet_sweep_instrumented("fleet-trace", sweep, 2)
        .pop()
        .expect("one trial");
    assert_eq!(
        executor_traces, traces,
        "executor and FleetSimulation must agree"
    );

    let mut one = FleetSimulation::new(FleetConfig::new(traced.clone(), 1));
    one.run();
    let mut solo = Simulation::new(traced);
    solo.run();
    assert_eq!(
        one.take_traces(),
        vec![(0, solo.take_trace().expect("traced solo run"))]
    );
}

/// Sharded sweeps honour the executor determinism contract: records over
/// the 25-model grid are bit-identical at 1 and 4 worker threads.
#[test]
fn sharded_sweeps_are_bit_identical_across_thread_counts() {
    let sweep = || {
        let mut sweep = FleetSweep::new();
        for model in DdpModel::all() {
            let mut cfg = small_cfg(model);
            cfg.warmup_requests = 20;
            cfg.measured_requests = 300;
            sweep.push(format!("{model} S=3"), FleetConfig::new(cfg, 3));
        }
        sweep
    };
    let serial = run_fleet_sweep("fleet-determinism", sweep(), 1);
    let parallel = run_fleet_sweep("fleet-determinism", sweep(), 4);
    assert_eq!(serial.len(), 25);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a, b, "trial {} diverged across thread counts", a.label);
    }
}

/// Every shard of an open-loop fleet keeps its own conservation invariant
/// (`arrivals == completed + shed + queued + retry_pending + in_flight`),
/// including under a mid-run node crash, and the fleet totals are the sum
/// of the per-shard books.
#[test]
fn per_shard_conservation_under_open_loop_arrivals_and_faults() {
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Strict);
    let mut cfg = small_cfg(model)
        .with_open_loop(
            OpenLoopPlan::poisson(20_000_000.0)
                .with_queue_capacity(Some(8))
                .with_retries(2),
        )
        .with_loss(0.02)
        .with_crash(1, Duration::from_micros(30), Duration::from_micros(40));
    cfg.clients = 40;
    let shards = 4;
    let mut sim = FleetSimulation::new(FleetConfig::new(cfg, shards));
    let report = sim.run();

    let mut arrivals_total = 0;
    let mut completed_total = 0;
    for s in 0..shards {
        let acct = sim
            .shard(s)
            .open_loop_accounting()
            .expect("open-loop fleet shard must expose accounting");
        assert_eq!(
            acct.arrivals,
            acct.completed_sessions + acct.shed + acct.queued + acct.retry_pending + acct.in_flight,
            "conservation violated on shard {s}: {acct:?}"
        );
        assert!(acct.arrivals > 0, "shard {s} generated no arrivals");
        arrivals_total += acct.arrivals;
        completed_total += acct.completed_sessions;
    }
    assert!(completed_total > 0);
    assert!(arrivals_total >= completed_total);
    assert_eq!(report.shards, shards);
}

/// Weak-scaling sanity behind the `scaling` bin's acceptance criterion:
/// holding the per-shard problem size constant, aggregate throughput
/// grows monotonically from 1 to 4 shards under uniform YCSB-A.
#[test]
fn weak_scaled_uniform_fleet_grows_aggregate_throughput() {
    let run = |shards: u16| {
        let mut cfg = small_cfg(DdpModel::baseline());
        cfg.workload.zipf_theta = None;
        cfg.clients *= u32::from(shards);
        cfg.warmup_requests *= u64::from(shards);
        cfg.measured_requests *= u64::from(shards);
        FleetSimulation::new(FleetConfig::new(cfg, shards))
            .run()
            .aggregate
            .throughput
    };
    let t1 = run(1);
    let t2 = run(2);
    let t4 = run(4);
    assert!(t2 > t1 * 1.5, "2 shards {t2} vs 1 shard {t1}");
    assert!(t4 > t2 * 1.5, "4 shards {t4} vs 2 shards {t2}");
}

/// Degenerate fleet setups fail validation with a clear message instead
/// of a downstream panic.
#[test]
fn fleet_validation_rejects_degenerate_setups() {
    let base = small_cfg(DdpModel::baseline());

    let err = FleetConfig::new(base.clone(), 0).validate().unwrap_err();
    assert!(err.contains("at least one shard"), "{err}");

    let mut tiny_keys = base.clone();
    tiny_keys.workload.key_space = 4;
    let err = FleetConfig::new(tiny_keys, 8).validate().unwrap_err();
    assert!(err.contains("key space"), "{err}");

    let mut few_clients = base.clone();
    few_clients.clients = 2;
    let err = FleetConfig::new(few_clients, 8).validate().unwrap_err();
    assert!(err.contains("clients"), "{err}");

    assert!(FleetConfig::new(base.clone(), 4)
        .with_placement(Placement::Range)
        .validate()
        .is_ok());

    let mut no_keys = base;
    no_keys.workload.key_space = 0;
    let err = no_keys.validate().unwrap_err();
    assert!(err.contains("key_space"), "{err}");
}
