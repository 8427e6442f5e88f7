//! Determinism and cross-cutting property tests over the full stack.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency, Simulation, TraceConfig,
};
use proptest::prelude::*;

fn model_from(c_idx: usize, p_idx: usize) -> DdpModel {
    DdpModel::new(Consistency::ALL[c_idx], Persistency::ALL[p_idx])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any model, any seed, any (small) client count: the run terminates and
    /// produces sane statistics.
    #[test]
    fn any_configuration_terminates(
        c_idx in 0usize..5,
        p_idx in 0usize..5,
        seed in 0u64..1_000,
        clients in 2u32..30,
    ) {
        let mut cfg = ClusterConfig::micro21(model_from(c_idx, p_idx))
            .with_seed(seed)
            .with_clients(clients);
        cfg.warmup_requests = 20;
        cfg.measured_requests = 300;
        let mut sim = Simulation::new(cfg);
        let report = sim.run();
        prop_assert!(report.summary.throughput > 0.0);
        let stats = sim.cluster().stats();
        prop_assert_eq!(
            stats.reads_completed + stats.writes_completed,
            300,
            "measured-request accounting drifted"
        );
        prop_assert!(stats.read_latency.count() == stats.reads_completed);
        prop_assert!(stats.write_latency.count() == stats.writes_completed);
    }

    /// Bit-for-bit reproducibility for arbitrary seeds and models.
    #[test]
    fn same_seed_same_everything(
        c_idx in 0usize..5,
        p_idx in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let make = || {
            let mut cfg = ClusterConfig::micro21(model_from(c_idx, p_idx)).with_seed(seed);
            cfg.warmup_requests = 20;
            cfg.measured_requests = 200;
            let mut sim = Simulation::new(cfg);
            let summary = sim.run().summary;
            let bytes = sim.cluster().stats().network_bytes;
            (summary, bytes)
        };
        let (a, ab) = make();
        let (b, bb) = make();
        prop_assert_eq!(a, b);
        prop_assert_eq!(ab, bb);
    }

    /// Fault injection is part of the deterministic event stream: the same
    /// fault plan and seeds reproduce the summary, the fault counters, and
    /// the crash/rejoin trace bit for bit.
    #[test]
    fn same_fault_plan_same_everything(
        c_idx in 0usize..5,
        p_idx in 0usize..5,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
    ) {
        let make = || {
            let mut cfg = ClusterConfig::micro21(model_from(c_idx, p_idx))
                .with_seed(seed)
                .with_loss(0.02)
                .with_crash(
                    1,
                    ddp_sim::Duration::from_micros(30),
                    ddp_sim::Duration::from_micros(40),
                );
            cfg.faults.fault_seed = fault_seed;
            cfg.warmup_requests = 20;
            cfg.measured_requests = 300;
            let mut sim = Simulation::new(cfg);
            let summary = sim.run().summary;
            let st = sim.cluster().stats();
            (
                summary,
                st.duplicates_suppressed,
                st.transient_expirations,
                st.catchup_keys,
                st.crashes.clone(),
                st.rejoins.clone(),
            )
        };
        prop_assert_eq!(make(), make());
    }

    /// Version numbers returned by reads never exceed the number of writes
    /// issued (a cheap global sanity invariant on the version allocator).
    #[test]
    fn read_versions_are_allocated_versions(seed in 0u64..500) {
        let mut cfg = ClusterConfig::micro21(DdpModel::new(
            Consistency::Eventual,
            Persistency::Eventual,
        ))
        .with_seed(seed)
        .with_trace(TraceConfig::enabled());
        cfg.warmup_requests = 0;
        cfg.measured_requests = 400;
        let trace = Simulation::new(cfg).finish().trace.expect("event tracing is on");
        let history = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
        // Completion records carry the version read or written in `b`.
        let max_written = history.writes().iter().map(|w| w.b).max().unwrap_or(0);
        for r in history.reads() {
            // A read may see a version the history hasn't recorded yet (its
            // write is still unacknowledged), so bound loosely by the
            // total writes issued plus in-flight margin.
            prop_assert!(r.b <= max_written + 10_000);
        }
    }
}

#[test]
fn traced_completions_are_ordered_by_completion() {
    let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).with_trace(TraceConfig::enabled());
    cfg.warmup_requests = 0;
    cfg.measured_requests = 1_000;
    let trace = Simulation::new(cfg)
        .finish()
        .trace
        .expect("event tracing is on");
    let history = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
    assert!(!history.reads().is_empty() && !history.writes().is_empty());
    // Completions are traced when the protocol settles an operation, which
    // may be a few hundred nanoseconds before the response timestamp;
    // ordering therefore holds up to that small slack.
    const SLACK_NS: u64 = 2_000;
    assert!(
        history
            .reads()
            .windows(2)
            .all(|w| w[1].at_ns + SLACK_NS >= w[0].at_ns),
        "reads traced far out of completion order"
    );
    assert!(
        history
            .writes()
            .windows(2)
            .all(|w| w[1].at_ns + SLACK_NS >= w[0].at_ns),
        "writes traced far out of completion order"
    );
}

#[test]
fn fault_free_outputs_are_pinned() {
    // Per model at `quick()` size, in `DdpModel::all()` order (paper order,
    // consistency-major): the measured window in ns, messages sent,
    // persists issued and reads completed. A run is compared with itself
    // above; these pin what every fault-free model does, so a change to a
    // protocol rule, a persist or a message that moves any model's
    // behaviour fails here.
    const PINNED: [[u64; 4]; 25] = [
        [140_390, 12_331, 5_124, 963],    // <Linearizable, Strict>
        [140_390, 12_331, 5_124, 963],    // <Linearizable, Synchronous>
        [181_251, 16_234, 5_053, 976],    // <Linearizable, Read-Enforced>
        [161_118, 14_371, 4_470, 976],    // <Linearizable, Scope>
        [139_961, 12_132, 5_061, 981],    // <Linearizable, Eventual>
        [141_190, 12_209, 5_077, 982],    // <Read-Enforced, Strict>
        [148_085, 12_439, 5_199, 958],    // <Read-Enforced, Synchronous>
        [171_856, 15_185, 4_807, 963],    // <Read-Enforced, Read-Enforced>
        [166_148, 14_371, 4_687, 962],    // <Read-Enforced, Scope>
        [142_243, 11_677, 5_034, 954],    // <Read-Enforced, Eventual>
        [1_003_043, 34_117, 11_015, 982], // <Transactional, Strict>
        [630_330, 35_150, 4_955, 991],    // <Transactional, Synchronous>
        [651_023, 47_463, 10_077, 988],   // <Transactional, Read-Enforced>
        [609_870, 34_455, 1_693, 995],    // <Transactional, Scope>
        [607_559, 33_488, 10_791, 1_003], // <Transactional, Eventual>
        [107_759, 8_160, 5_113, 976],     // <Causal, Strict>
        [67_952, 4_088, 3_441, 978],      // <Causal, Synchronous>
        [68_360, 4_080, 5_044, 980],      // <Causal, Read-Enforced>
        [92_423, 6_290, 4_786, 993],      // <Causal, Scope>
        [67_952, 4_088, 5_003, 978],      // <Causal, Eventual>
        [94_943, 8_156, 5_098, 982],      // <Eventual, Strict>
        [51_952, 4_016, 4_839, 978],      // <Eventual, Synchronous>
        [51_896, 4_040, 4_925, 978],      // <Eventual, Read-Enforced>
        [82_814, 6_524, 4_220, 988],      // <Eventual, Scope>
        [51_952, 4_016, 4_433, 978],      // <Eventual, Eventual>
    ];
    for (model, expected) in DdpModel::all().into_iter().zip(PINNED) {
        let st = Simulation::new(ClusterConfig::micro21(model).quick())
            .finish()
            .stats;
        let got = [
            st.measured_time.as_nanos(),
            st.messages_sent,
            st.persists_issued,
            st.reads_completed,
        ];
        assert_eq!(
            got, expected,
            "{model}: [measured_ns, messages_sent, persists_issued, reads_completed]"
        );
    }
}
