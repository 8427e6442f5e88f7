//! Fault-injection integration tests: lossy fabric, mid-run crash/rejoin,
//! and the opt-in guarantee that a zero-fault plan changes nothing.

use ddp_core::{ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency, Simulation};
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
    let mut sim = Simulation::new(
        tiny(model)
            .with_observations()
            .with_loss(0.01)
            .with_crash(2, at, down_for),
    );
    sim.run();
    let checker = HistoryChecker::new(sim.cluster().observations().clone());
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
