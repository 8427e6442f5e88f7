//! Crash/recovery integration tests: the Table 4 durability and
//! programmer-intuition properties, validated mechanically against the
//! client histories the engine traces and its NVM snapshots.

use ddp_core::{
    crash_snapshot, recover, ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency,
    RecoveryPolicy, Simulation, TraceConfig,
};

/// Runs `model` with event tracing on; returns the finished simulation and
/// the client history its trace holds.
fn run_with_log(model: DdpModel) -> (Simulation, HistoryChecker) {
    let mut cfg = ClusterConfig::micro21(model).with_trace(TraceConfig::enabled());
    cfg.warmup_requests = 0;
    cfg.measured_requests = 3_000;
    let mut sim = Simulation::new(cfg);
    sim.run();
    let trace = sim.take_trace().expect("event tracing is on");
    let history = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
    (sim, history)
}

/// Waits out in-flight persists by checking the recovered state against
/// *completed* writes only, exactly as the paper's durability column does.
fn lost_acknowledged_writes(model: DdpModel, policy: RecoveryPolicy) -> usize {
    let (sim, history) = run_with_log(model);
    let recovered = recover(&crash_snapshot(sim.cluster()), policy);
    let outcome = history.non_stale_after_recovery(&recovered);
    outcome.violations.len()
}

#[test]
fn strict_models_lose_no_acknowledged_writes() {
    // Table 4 row 1: <Linearizable, Synchronous> has high durability — an
    // acknowledged write is persisted everywhere, so any recovery policy
    // reproduces it.
    for model in [
        DdpModel::baseline(),
        DdpModel::new(Consistency::Linearizable, Persistency::Strict),
        DdpModel::new(Consistency::Causal, Persistency::Strict),
        DdpModel::new(Consistency::Eventual, Persistency::Strict),
    ] {
        let lost = lost_acknowledged_writes(model, RecoveryPolicy::MajorityVote);
        assert_eq!(lost, 0, "{model} lost acknowledged writes in a crash");
    }
}

#[test]
fn relaxed_persistency_loses_recent_writes() {
    // Table 4 rows 5 and 8: Eventual persistency (or consistency with
    // Synchronous persists trailing) can lose acknowledged writes in a
    // volatile failure.
    for model in [
        DdpModel::new(Consistency::Linearizable, Persistency::Eventual),
        DdpModel::new(Consistency::Eventual, Persistency::Eventual),
        DdpModel::new(Consistency::Causal, Persistency::Eventual),
    ] {
        let lost = lost_acknowledged_writes(model, RecoveryPolicy::MajorityVote);
        assert!(
            lost > 0,
            "{model} should lose some acknowledged writes on a crash"
        );
    }
}

#[test]
fn read_enforced_consistency_with_sync_persistency_can_lose_unread_writes() {
    // Table 4 row 2: medium durability — writes acknowledged before their
    // persists complete may vanish.
    let lost = lost_acknowledged_writes(
        DdpModel::new(Consistency::ReadEnforced, Persistency::Synchronous),
        RecoveryPolicy::MajorityVote,
    );
    assert!(lost > 0, "<Read-Enforced, Synchronous> should be lossy");
}

#[test]
fn newest_available_recovery_recovers_at_least_as_much_as_voting() {
    let (sim, _) = run_with_log(DdpModel::new(Consistency::Causal, Persistency::Synchronous));
    let snapshot = crash_snapshot(sim.cluster());
    let vote = recover(&snapshot, RecoveryPolicy::MajorityVote);
    let newest = recover(&snapshot, RecoveryPolicy::NewestAvailable);
    for (key, v) in &vote.versions {
        assert!(
            newest.version_of(*key) >= *v,
            "newest-available regressed key {key}"
        );
    }
    assert!(newest.lost_updates.len() <= vote.lost_updates.len());
}

#[test]
fn simple_recovery_sees_agreement_under_baseline() {
    // Strict models leave (nearly) identical NVM images: divergence is
    // bounded by the handful of writes in flight at the crash instant.
    let (sim, _) = run_with_log(DdpModel::baseline());
    let snapshot = crash_snapshot(sim.cluster());
    let simple = recover(&snapshot, RecoveryPolicy::Simple);
    let keys = snapshot.all_keys().len();
    assert!(
        simple.divergent_keys.len() <= keys / 10 + sim.cluster().config().clients as usize,
        "too many divergent keys under the strictest model: {} of {}",
        simple.divergent_keys.len(),
        keys
    );
}

#[test]
fn monotonic_reads_hold_for_strong_models() {
    // Table 4: Linearizable and Causal (with Synchronous persistency)
    // provide monotonic reads.
    for model in [
        DdpModel::baseline(),
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
    ] {
        let (_, history) = run_with_log(model);
        let outcome = history.monotonic_reads();
        assert!(
            outcome.holds,
            "{model} violated monotonic reads: {:?}",
            outcome.violations.first()
        );
    }
}

#[test]
fn read_staleness_orders_models() {
    // Reads under Eventual consistency are more stale than under
    // Linearizable consistency.
    let (_, lin) = run_with_log(DdpModel::baseline());
    let (_, ev) = run_with_log(DdpModel::new(Consistency::Eventual, Persistency::Eventual));
    let lin_fresh = lin.fresh_read_fraction();
    let ev_fresh = ev.fresh_read_fraction();
    assert!(
        lin_fresh > ev_fresh,
        "linearizable freshness {lin_fresh:.3} must exceed eventual {ev_fresh:.3}"
    );
    assert!(lin_fresh > 0.95, "linearizable reads should be fresh");
}

#[test]
fn causal_sync_reads_are_always_recoverable() {
    // §5.2(f): under <Causal, Synchronous> a read returns the latest
    // *persisted* version, so every read value survives a crash.
    let (sim, history) = run_with_log(DdpModel::new(Consistency::Causal, Persistency::Synchronous));
    let snapshot = crash_snapshot(sim.cluster());
    let recovered = recover(&snapshot, RecoveryPolicy::NewestAvailable);
    // A read record's `a` is the key and `b` the version it returned.
    let unrecoverable = history
        .reads()
        .iter()
        .filter(|r| r.b > 0 && recovered.version_of(r.a) < r.b)
        .count();
    assert_eq!(
        unrecoverable, 0,
        "reads returned versions that did not survive the crash"
    );
}
