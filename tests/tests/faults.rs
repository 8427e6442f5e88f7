//! Fault-injection integration tests: lossy fabric, mid-run crash/rejoin,
//! and the opt-in guarantee that a zero-fault plan changes nothing.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency, Simulation, TraceConfig,
    TraceEventKind, TraceRecord,
};
use ddp_harness::{default_threads, run_sweep_named, Sweep};
use ddp_sim::Duration;

fn tiny(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 100;
    cfg.measured_requests = 1_500;
    cfg
}

/// A crash schedule scaled to the model's fault-free run length, so the
/// crash and the rejoin both land inside the measured window regardless of
/// the >10x throughput spread across models.
fn scaled_crash(model: DdpModel) -> (Duration, Duration) {
    let mut probe = Simulation::new(tiny(model));
    probe.run();
    let st = probe.cluster().stats();
    let run_ns = (st.window_start.as_nanos() + st.measured_time.as_nanos()) as f64;
    (
        Duration::from_nanos((run_ns * 0.40) as u64),
        Duration::from_nanos((run_ns * 0.25) as u64),
    )
}

#[test]
fn all_models_complete_under_loss_and_mid_run_crash() {
    // Probe every model's fault-free run length in one parallel sweep; the
    // records carry it, so no per-model probe simulations are needed.
    let threads = default_threads();
    let probes = run_sweep_named("faults-probe", Sweep::grid25(tiny), threads);

    let mut crash_sweep = Sweep::new();
    for model in DdpModel::all() {
        let run_ns = probes[model.grid_index()].summary.run_ns() as f64;
        let at = Duration::from_nanos((run_ns * 0.40) as u64);
        let down_for = Duration::from_nanos((run_ns * 0.25) as u64);
        crash_sweep.push(
            model.to_string(),
            tiny(model).with_loss(0.01).with_crash(2, at, down_for),
        );
    }
    let records = run_sweep_named("faults-crash", crash_sweep, threads);

    for model in DdpModel::all() {
        let r = &records[model.grid_index()];
        assert!(
            r.summary.throughput > 0.0,
            "{model} stalled under loss + crash"
        );
        let c = &r.summary;
        assert_eq!(c.crashes.len(), 1, "{model}: crash did not fire");
        assert_eq!(c.rejoins.len(), 1, "{model}: node never rejoined");
        assert_eq!(c.crashes[0].0, 2);
        assert_eq!(c.rejoins[0].0, 2);
        assert!(
            c.rejoins[0].1 > c.crashes[0].1,
            "{model}: rejoin must follow the crash"
        );
        assert!(
            c.messages_dropped > 0,
            "{model}: lossy fabric never dropped anything"
        );
    }
}

#[test]
fn zero_fault_plan_reports_zero_counters() {
    for model in [
        DdpModel::baseline(),
        DdpModel::new(Consistency::Transactional, Persistency::Strict),
        DdpModel::new(Consistency::Causal, Persistency::Eventual),
    ] {
        let mut sim = Simulation::new(tiny(model));
        let s = sim.run().summary;
        assert_eq!(s.messages_dropped, 0);
        assert_eq!(s.messages_duplicated, 0);
        assert_eq!(s.retransmits, 0);
        assert_eq!(s.client_timeouts, 0);
        let st = sim.cluster().stats();
        assert_eq!(st.duplicates_suppressed, 0);
        assert_eq!(st.transient_expirations, 0);
        assert_eq!(st.catchup_keys, 0);
        assert!(st.crashes.is_empty() && st.rejoins.is_empty());
    }
}

#[test]
fn retransmissions_recover_lost_acks() {
    // At 5% loss the INV/ACK rounds of the strongest model lose messages
    // constantly; the run still completes because the coordinator re-sends.
    let mut sim = Simulation::new(tiny(DdpModel::baseline()).with_loss(0.05));
    let report = sim.run();
    assert!(report.summary.throughput > 0.0);
    assert!(
        report.summary.retransmits > 0,
        "loss this high must trigger retries"
    );
    let st = sim.cluster().stats();
    assert!(
        st.duplicates_suppressed > 0,
        "fabric duplication must exercise the dedup masks"
    );
}

#[test]
fn monotonic_reads_hold_under_loss_and_crash_for_linearizable() {
    let model = DdpModel::baseline();
    let (at, down_for) = scaled_crash(model);
    let run = Simulation::new(
        tiny(model)
            .with_trace(TraceConfig::enabled())
            .with_loss(0.01)
            .with_crash(2, at, down_for),
    )
    .finish();
    let trace = run.trace.expect("event tracing is on");
    let checker = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
    let out = checker.monotonic_reads();
    assert!(out.holds, "monotonic reads violated: {:?}", out.violations);
}

#[test]
fn crashed_node_catches_up_on_rejoin() {
    // Strict persistency acks only after the majority persisted, so the
    // rejoining node has a durable floor to rebuild from, plus whatever its
    // peers accepted while it was down.
    let model = DdpModel::new(Consistency::Linearizable, Persistency::Strict);
    let (at, down_for) = scaled_crash(model);
    let mut sim = Simulation::new(tiny(model).with_loss(0.01).with_crash(2, at, down_for));
    sim.run();
    let st = sim.cluster().stats();
    assert_eq!(st.rejoins.len(), 1);
    assert!(
        st.catchup_keys > 0,
        "a node down for 25% of the run must have missed some keys"
    );
}

#[test]
fn crashed_nodes_issue_nothing_until_they_rejoin() {
    // A request admitted just before its home node crashes must die with
    // the node: its client re-issues once the node is back.
    for model in [
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
        DdpModel::new(Consistency::ReadEnforced, Persistency::ReadEnforced),
        DdpModel::new(Consistency::Transactional, Persistency::Synchronous),
        DdpModel::new(Consistency::Linearizable, Persistency::Scope),
        DdpModel::new(Consistency::Causal, Persistency::Strict),
    ] {
        let (at, down_for) = scaled_crash(model);
        let out = Simulation::new(
            tiny(model)
                .with_loss(0.01)
                .with_crash(2, at, down_for)
                .with_trace(TraceConfig::enabled()),
        )
        .finish();
        let trace = out.trace.expect("tracing was on");
        assert_eq!(trace.dropped, 0, "{model}: the trace ring wrapped");
        let (crashed, down) = out.stats.crashes[0];
        let (rejoined, up) = out.stats.rejoins[0];
        assert_eq!((crashed, rejoined), (2, 2));
        let issues = |r: &&TraceRecord| {
            r.node == 2
                && matches!(
                    r.kind,
                    TraceEventKind::WriteIssue | TraceEventKind::ReadIssue
                )
        };
        assert!(
            trace.events.iter().filter(issues).count() > 0,
            "{model}: node 2 never issued"
        );
        let dead: Vec<&TraceRecord> = trace
            .events
            .iter()
            .filter(issues)
            .filter(|r| r.at_ns > down.as_nanos() && r.at_ns < up.as_nanos())
            .collect();
        assert!(
            dead.is_empty(),
            "{model}: {} requests issued at node 2 while it was down, first {:?}",
            dead.len(),
            dead[0]
        );
    }
}

#[test]
fn transient_leases_stay_idle_when_nothing_is_lost() {
    // Fault mode armed, but no message is dropped or duplicated and no
    // node crashes: every VAL arrives long before its key's lease fires,
    // so no lease may change any state. A lease that validated more than
    // the model's VAL does (durability under Scope or Eventual
    // persistency) fired on every INV'd write.
    for model in DdpModel::all().into_iter().filter(|m| {
        matches!(
            m.consistency,
            Consistency::Linearizable | Consistency::ReadEnforced
        )
    }) {
        let mut cfg = ClusterConfig::micro21(model).quick();
        cfg.faults.max_jitter = Duration::from_nanos(1);
        let st = Simulation::new(cfg).finish().stats;
        assert_eq!(st.messages_dropped + st.messages_duplicated, 0, "{model}");
        assert_eq!(st.transient_expirations, 0, "{model}");
    }
}

/// One fault run's counters, as pinned by
/// `fault_run_counters_are_pinned`.
#[derive(Debug, PartialEq, Eq)]
struct FaultCounters {
    retransmits: u64,
    duplicates_suppressed: u64,
    client_timeouts: u64,
    transient_expirations: u64,
    catchup_keys: u64,
    reads: u64,
    writes: u64,
    measured_ns: u64,
}

#[test]
fn fault_run_counters_are_pinned() {
    // Write rounds, transaction rounds and scope rounds under loss,
    // duplication, jitter and one crash/rejoin of node 2 at about 40 % of
    // each model's fault-free `quick()` run, down for about 25 % of it,
    // with an operation timeout short enough to fire inside the run. A
    // change to retransmission, ACK crediting or crash absorption moves
    // these counters.
    let cells = [
        (
            DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
            62,
            39,
            FaultCounters {
                retransmits: 78,
                duplicates_suppressed: 150,
                client_timeouts: 20,
                transient_expirations: 70,
                catchup_keys: 195,
                reads: 973,
                writes: 1027,
                measured_ns: 164229,
            },
        ),
        (
            DdpModel::new(Consistency::ReadEnforced, Persistency::ReadEnforced),
            72,
            45,
            FaultCounters {
                retransmits: 2681,
                duplicates_suppressed: 6544,
                client_timeouts: 163,
                transient_expirations: 85,
                catchup_keys: 77,
                reads: 866,
                writes: 1134,
                measured_ns: 311723,
            },
        ),
        (
            DdpModel::new(Consistency::Transactional, Persistency::Synchronous),
            268,
            167,
            FaultCounters {
                retransmits: 536,
                duplicates_suppressed: 548,
                client_timeouts: 78,
                transient_expirations: 0,
                catchup_keys: 312,
                reads: 1044,
                writes: 956,
                measured_ns: 524614,
            },
        ),
        (
            DdpModel::new(Consistency::Linearizable, Persistency::Scope),
            70,
            44,
            FaultCounters {
                retransmits: 90,
                duplicates_suppressed: 191,
                client_timeouts: 21,
                // A lease applies only what the model's VAL_c would, so
                // it counts only where a VAL was overdue: under Scope
                // persistency it certifies no durability.
                transient_expirations: 65,
                catchup_keys: 359,
                reads: 981,
                writes: 1019,
                measured_ns: 181276,
            },
        ),
        (
            DdpModel::new(Consistency::Causal, Persistency::Strict),
            49,
            30,
            FaultCounters {
                retransmits: 405,
                duplicates_suppressed: 424,
                client_timeouts: 20,
                transient_expirations: 0,
                catchup_keys: 130,
                reads: 978,
                writes: 1022,
                measured_ns: 228944,
            },
        ),
    ];
    for (model, at_us, down_us, expected) in cells {
        let mut cfg = ClusterConfig::micro21(model)
            .quick()
            .with_loss(0.01)
            .with_crash(
                2,
                Duration::from_micros(at_us),
                Duration::from_micros(down_us),
            );
        cfg.faults.max_jitter = Duration::from_nanos(300);
        cfg.faults.op_timeout = Duration::from_micros(100);
        let st = Simulation::new(cfg).finish().stats;
        assert_eq!(st.crashes.len(), 1, "{model}: the crash did not fire");
        assert_eq!(st.rejoins.len(), 1, "{model}: the node never rejoined");
        let got = FaultCounters {
            retransmits: st.retransmits,
            duplicates_suppressed: st.duplicates_suppressed,
            client_timeouts: st.client_timeouts,
            transient_expirations: st.transient_expirations,
            catchup_keys: st.catchup_keys,
            reads: st.reads_completed,
            writes: st.writes_completed,
            measured_ns: st.measured_time.as_nanos(),
        };
        assert_eq!(got, expected, "{model}");
    }
}
