//! Open-loop overload integration tests: determinism across executor
//! thread counts, low-rate sanity against the closed loop, shed/retry
//! conservation, and the guarantee that closed-loop runs are untouched.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, OpenLoopPlan, Persistency, RunReport, Simulation,
};
use ddp_harness::{run_sweep_named, Sweep};
use ddp_sim::Duration;

fn open_cfg(model: DdpModel, offered: f64) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).with_open_loop(OpenLoopPlan::poisson(offered));
    cfg.warmup_requests = 100;
    cfg.measured_requests = 1_500;
    cfg
}

#[test]
fn open_loop_grid_is_bit_identical_across_thread_counts() {
    let sweep = |threads| {
        run_sweep_named(
            "overload-determinism",
            Sweep::grid25(|m| open_cfg(m, 2_000_000.0)),
            threads,
        )
    };
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(serial.len(), 25);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.summary, b.summary,
            "model {} diverged across thread counts",
            a.label
        );
    }
}

#[test]
fn open_loop_runs_are_deterministic_per_seed() {
    let model = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
    let run = || Simulation::new(open_cfg(model, 3_000_000.0)).run();
    let a: RunReport = run();
    let b: RunReport = run();
    assert_eq!(a.summary, b.summary);

    let mut other = Simulation::new(open_cfg(model, 3_000_000.0).with_seed(7));
    assert_ne!(a.summary, other.run().summary);
}

#[test]
fn low_rate_open_loop_matches_offered_load_and_sheds_nothing() {
    // Far below capacity: goodput tracks offered load and nothing queues
    // long or gets shed.
    let model = DdpModel::new(Consistency::Eventual, Persistency::Eventual);
    let offered = 500_000.0;
    let mut sim = Simulation::new(open_cfg(model, offered));
    let report = sim.run();
    let s = report.summary;
    assert!(s.shed_rate == 0.0, "shed {} below capacity", s.shed_rate);
    assert_eq!(s.ol_retries, 0, "retries below capacity");
    let ratio = s.throughput / s.offered_per_sec;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "goodput {} vs offered {} (ratio {ratio})",
        s.throughput,
        s.offered_per_sec
    );
    // Mean latency should be close to the unloaded closed-loop latency:
    // no queueing to speak of.
    assert!(
        s.mean_admission_queue < 1.0,
        "queue {}",
        s.mean_admission_queue
    );
}

#[test]
fn arrival_conservation_holds_at_run_end() {
    // issued = completed + shed + queued + retry-pending + in-flight, for
    // a mix of under- and over-loaded runs, bounded and unbounded queues.
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Strict);
    for (offered, cap) in [
        (500_000.0, Some(8)),
        (20_000_000.0, Some(8)),
        (20_000_000.0, None),
    ] {
        let mut cfg = open_cfg(model, offered);
        cfg.open_loop = Some(
            OpenLoopPlan::poisson(offered)
                .with_queue_capacity(cap)
                .with_retries(2),
        );
        let mut sim = Simulation::new(cfg);
        sim.run();
        let acct = sim
            .cluster()
            .open_loop_accounting()
            .expect("open-loop run must expose accounting");
        assert_eq!(
            acct.arrivals,
            acct.completed_sessions + acct.shed + acct.queued + acct.retry_pending + acct.in_flight,
            "conservation violated at offered={offered} cap={cap:?}: {acct:?}"
        );
        assert!(acct.arrivals > 0);
    }
}

#[test]
fn overload_sheds_with_bounded_queue_but_not_unbounded() {
    // Far above capacity: a bounded queue with a finite retry budget must
    // shed; an unbounded queue must never shed (it pays in latency instead).
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Strict);
    let offered = 30_000_000.0;

    let mut bounded_cfg = open_cfg(model, offered);
    // A longer window lets the unbounded backlog (which grows with run
    // length) separate clearly from the bounded configuration's flat tail.
    bounded_cfg.measured_requests = 4_000;
    bounded_cfg.open_loop = Some(
        OpenLoopPlan::poisson(offered)
            .with_queue_capacity(Some(16))
            .with_retries(2),
    );
    let bounded = Simulation::new(bounded_cfg).run().summary;
    assert!(
        bounded.shed_rate > 0.1,
        "bounded queue shed only {}",
        bounded.shed_rate
    );

    let mut unbounded_cfg = open_cfg(model, offered);
    unbounded_cfg.measured_requests = 4_000;
    unbounded_cfg.open_loop = Some(
        OpenLoopPlan::poisson(offered)
            .with_queue_capacity(None)
            .with_retries(0),
    );
    let unbounded = Simulation::new(unbounded_cfg).run().summary;
    assert_eq!(unbounded.shed_rate, 0.0);
    assert_eq!(unbounded.ol_shed, 0);
    // The unbounded queue grows past anything the bounded config allows.
    assert!(
        unbounded.max_admission_queue > bounded.max_admission_queue,
        "unbounded peak {} <= bounded peak {}",
        unbounded.max_admission_queue,
        bounded.max_admission_queue
    );
    // And its tail latency diverges: queue wait is counted against the
    // request, so p999 write latency dwarfs the shedding configuration's.
    assert!(
        unbounded.p999_write_ns > 2.0 * bounded.p999_write_ns,
        "unbounded p999 {} vs bounded {}",
        unbounded.p999_write_ns,
        bounded.p999_write_ns
    );
}

#[test]
fn open_loop_composes_with_faults() {
    // Overload + lossy fabric + a mid-run crash in one run: the session
    // machinery and the fault machinery share the issue path, so this is
    // the integration that keeps them compatible.
    let model = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
    let mut cfg = open_cfg(model, 5_000_000.0).with_loss(0.01).with_crash(
        2,
        Duration::from_micros(100),
        Duration::from_micros(60),
    );
    cfg.measured_requests = 1_000;
    let mut sim = Simulation::new(cfg);
    let report = sim.run();
    assert!(report.summary.throughput > 0.0);
    let acct = sim.cluster().open_loop_accounting().expect("open loop");
    assert_eq!(
        acct.arrivals,
        acct.completed_sessions + acct.shed + acct.queued + acct.retry_pending + acct.in_flight,
        "conservation violated under faults: {acct:?}"
    );
}

#[test]
fn sessions_span_whole_transactions_and_scopes() {
    // Transactional consistency: one arrival = one whole transaction, so
    // completed requests are a multiple-ish of txn_size times sessions.
    let model = DdpModel::new(Consistency::Transactional, Persistency::Synchronous);
    let mut sim = Simulation::new(open_cfg(model, 1_000_000.0));
    let report = sim.run();
    assert!(report.summary.throughput > 0.0);
    let acct = sim.cluster().open_loop_accounting().expect("open loop");
    let completed = sim.cluster().stats().completed() + sim.cluster().config().warmup_requests;
    // Each completed session contributed at least txn_size requests
    // (wounded retries can add more); allow generous slack.
    assert!(
        completed >= acct.completed_sessions * 4,
        "sessions {} vs completed requests {completed}: transactions are not grouped",
        acct.completed_sessions
    );

    // Scope persistency: sessions must also be conserved when the Persist
    // detour extends them.
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Scope);
    let mut sim = Simulation::new(open_cfg(model, 1_000_000.0));
    sim.run();
    let acct = sim.cluster().open_loop_accounting().expect("open loop");
    assert_eq!(
        acct.arrivals,
        acct.completed_sessions + acct.shed + acct.queued + acct.retry_pending + acct.in_flight,
        "scope conservation violated: {acct:?}"
    );
}

#[test]
fn closed_loop_stats_report_inert_open_loop_fields() {
    let model = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 100;
    cfg.measured_requests = 1_000;
    let mut sim = Simulation::new(cfg);
    let s = sim.run().summary;
    assert!(sim.cluster().open_loop_accounting().is_none());
    assert_eq!(s.offered_per_sec, 0.0);
    assert_eq!(s.shed_rate, 0.0);
    assert_eq!(s.ol_retries, 0);
    assert_eq!(s.ol_shed, 0);
    assert_eq!(s.max_admission_queue, 0);
}
