//! Observation-level semantics tests: what clients can actually read under
//! each model, checked against the run's own history.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency, Simulation, StoreKind,
    TraceConfig, VectorClock,
};
use proptest::prelude::*;

/// Runs `model` for `requests` requests with event tracing on; returns the
/// finished simulation and the client history its trace holds.
fn observed(model: DdpModel, requests: u64) -> (Simulation, HistoryChecker) {
    let mut cfg = ClusterConfig::micro21(model).with_trace(TraceConfig::enabled());
    cfg.warmup_requests = 0;
    cfg.measured_requests = requests;
    let mut sim = Simulation::new(cfg);
    sim.run();
    let trace = sim.take_trace().expect("event tracing is on");
    let history = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
    (sim, history)
}

#[test]
fn linearizable_reads_are_fresh() {
    // Under Linearizable consistency a read never returns a version older
    // than a write that completed before the read began; freshness measured
    // at read completion should be essentially perfect.
    let (_, history) = observed(DdpModel::baseline(), 4_000);
    let fresh = history.fresh_read_fraction();
    assert!(fresh > 0.99, "linearizable freshness {fresh:.4}");
}

#[test]
fn eventual_reads_are_visibly_stale() {
    let (_, history) = observed(
        DdpModel::new(Consistency::Eventual, Persistency::Eventual),
        4_000,
    );
    let fresh = history.fresh_read_fraction();
    assert!(
        fresh < 0.99,
        "eventual consistency should show stale reads, freshness {fresh:.4}"
    );
}

#[test]
fn causal_reads_under_sync_never_exceed_local_durability() {
    // §5.2(f): <Causal, Synchronous> reads return the latest *persisted*
    // version. Any version a read returned must therefore be durable
    // somewhere by the end of the run.
    let (sim, history) = observed(
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
        4_000,
    );
    let snap = ddp_core::crash_snapshot(sim.cluster());
    for r in history.reads() {
        let (key, version) = (r.a, r.b);
        if version > 0 {
            assert!(
                snap.max_persisted(key) >= version,
                "read of key {key} returned unpersisted v{version}"
            );
        }
    }
}

#[test]
fn versions_per_key_grow_monotonically_in_write_log() {
    // The coordinator's version allocator is global and monotone; per-key
    // acknowledged-write versions must strictly increase.
    let (_, history) = observed(DdpModel::baseline(), 4_000);
    let mut last: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for w in history.writes() {
        let (key, version) = (w.a, w.b);
        if let Some(&prev) = last.get(&key) {
            assert_ne!(prev, version, "duplicate version acknowledged");
        }
        let e = last.entry(key).or_insert(0);
        *e = (*e).max(version);
    }
}

#[test]
fn transactional_runs_commit_every_measured_request() {
    let mut cfg = ClusterConfig::micro21(DdpModel::new(
        Consistency::Transactional,
        Persistency::Eventual,
    ));
    cfg.warmup_requests = 0;
    cfg.measured_requests = 2_000;
    let mut sim = Simulation::new(cfg);
    sim.run();
    let stats = sim.cluster().stats();
    // Commits * txn size covers the measured requests (the final partial
    // transaction may still be open).
    assert!(
        stats.txns_committed * 5 >= 2_000,
        "only {} commits for 2000 requests",
        stats.txns_committed
    );
}

/// A transaction's begin-log record persists at a log address, not at a
/// client key, so after a run of every Transactional model each node's
/// replica store holds only keys of the workload's key space.
#[test]
fn transaction_logs_leave_the_replica_stores_to_client_keys() {
    for store in [StoreKind::HashTable, StoreKind::Lsm] {
        for p in Persistency::ALL {
            let model = DdpModel::new(Consistency::Transactional, p);
            let cfg = ClusterConfig::micro21(model).quick().with_store(store);
            let key_space = cfg.workload.key_space;
            let mut sim = Simulation::new(cfg);
            sim.run();
            for (node, replica) in sim.cluster().node_stores_public().enumerate() {
                replica.for_each(&mut |key, _| {
                    assert!(
                        key < key_space,
                        "{model} on {store}: node {node} holds key {key:#x}"
                    );
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vector-clock laws: merge is the least upper bound.
    #[test]
    fn vector_clock_merge_is_lub(
        a in prop::collection::vec(0u64..100, 5),
        b in prop::collection::vec(0u64..100, 5),
    ) {
        let mut va = VectorClock::new(5);
        let mut vb = VectorClock::new(5);
        for i in 0..5 {
            va.set(i, a[i]);
            vb.set(i, b[i]);
        }
        let mut m = va.clone();
        m.merge(&vb);
        // Upper bound:
        prop_assert!(m.dominates(&va));
        prop_assert!(m.dominates(&vb));
        // Least: any other upper bound dominates the merge.
        let mut other = VectorClock::new(5);
        for i in 0..5 {
            other.set(i, a[i].max(b[i]).saturating_add(0));
        }
        prop_assert!(other.dominates(&m) && m.dominates(&other));
    }

    /// Dominance is a partial order: reflexive, antisymmetric, transitive.
    #[test]
    fn vector_clock_dominance_is_partial_order(
        xs in prop::collection::vec(0u64..50, 4),
        ys in prop::collection::vec(0u64..50, 4),
        zs in prop::collection::vec(0u64..50, 4),
    ) {
        let make = |v: &[u64]| {
            let mut c = VectorClock::new(4);
            for (i, &x) in v.iter().enumerate() {
                c.set(i, x);
            }
            c
        };
        let (x, y, z) = (make(&xs), make(&ys), make(&zs));
        prop_assert!(x.dominates(&x));
        if x.dominates(&y) && y.dominates(&x) {
            prop_assert_eq!(&x, &y);
        }
        if x.dominates(&y) && y.dominates(&z) {
            prop_assert!(x.dominates(&z));
        }
        // Concurrency is symmetric.
        prop_assert_eq!(x.concurrent_with(&y), y.concurrent_with(&x));
    }
}
