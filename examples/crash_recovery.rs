//! Crash a cluster, recover it, and see what each DDP model lost.
//!
//! ```text
//! cargo run -p ddp-examples --release --bin crash_recovery
//! ```
//!
//! The durability column of the paper's Table 4 in action: after a
//! whole-cluster volatile failure, NVM images are all that survive. Strict
//! models recover everything a client was ever told was written; relaxed
//! models lose the tail.

use ddp_core::{
    crash_snapshot, estimate_recovery, recover, ClusterConfig, Consistency, DdpModel,
    HistoryChecker, Persistency, RecoveryPolicy, Simulation, TraceConfig,
};
use ddp_mem::MemoryParams;
use ddp_net::NetworkParams;

fn main() {
    println!("Crash and recovery across DDP models\n");
    println!(
        "{:<36} {:>14} {:>16} {:>17} {:>12}",
        "model", "durable keys", "lost ack'd wr", "recovery", "est. time"
    );
    let models = [
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
        DdpModel::new(Consistency::Linearizable, Persistency::Scope),
        DdpModel::new(Consistency::ReadEnforced, Persistency::Synchronous),
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
        DdpModel::new(Consistency::Eventual, Persistency::Eventual),
    ];
    for model in models {
        // The checker reads the client history from the event trace.
        let mut cfg = ClusterConfig::micro21(model).with_trace(TraceConfig::enabled());
        cfg.warmup_requests = 0;
        cfg.measured_requests = 5_000;
        let mut sim = Simulation::new(cfg);
        sim.run();

        // Lights out: volatile state gone, NVM survives.
        let snapshot = crash_snapshot(sim.cluster());
        let policy = if model.persistency == Persistency::Eventual {
            // Weak models need the advanced, voting-based recovery (§9).
            RecoveryPolicy::MajorityVote
        } else {
            RecoveryPolicy::NewestAvailable
        };
        let recovered = recover(&snapshot, policy);

        let trace = sim.take_trace().expect("event tracing is on");
        let checker = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
        let non_stale = checker.non_stale_after_recovery(&recovered);
        let est = estimate_recovery(
            &snapshot,
            policy,
            &MemoryParams::micro21(),
            &NetworkParams::micro21(),
        );
        println!(
            "{:<36} {:>14} {:>16} {:>17} {:>12}",
            model.to_string(),
            recovered.versions.len(),
            non_stale.violations.len(),
            format!("{policy:?}"),
            format!("{}", est.total()),
        );
    }
    println!();
    println!("'lost ack'd wr': keys whose newest client-acknowledged write did not");
    println!("survive the crash - zero for the strict bindings, nonzero for relaxed ones.");

    mid_run_crash();
}

/// Part 2: the failure doesn't wait for the run to end. One node dies
/// mid-measurement, its NVM image survives, and it rejoins later — catching
/// up from the durable floor plus whatever its live peers accepted while it
/// was gone. The cluster keeps serving on the surviving quorum throughout.
fn mid_run_crash() {
    use ddp_sim::Duration;

    println!("\nMid-run crash and rejoin (node 2, 1% message loss)\n");
    println!(
        "{:<36} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "model", "crash(us)", "rejoin(us)", "catchup", "rtx", "timeouts"
    );
    let models = [
        DdpModel::new(Consistency::Linearizable, Persistency::Strict),
        DdpModel::new(Consistency::Transactional, Persistency::Synchronous),
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
    ];
    for model in models {
        // Scale the outage to the model's own run length so the crash and
        // the rejoin both land inside the measured window.
        let mut cfg = ClusterConfig::micro21(model);
        cfg.warmup_requests = 500;
        cfg.measured_requests = 10_000;
        let mut probe = Simulation::new(cfg.clone());
        probe.run();
        let pst = probe.cluster().stats();
        let run_ns = (pst.window_start.as_nanos() + pst.measured_time.as_nanos()) as f64;
        let at = Duration::from_nanos((run_ns * 0.40) as u64);
        let down_for = Duration::from_nanos((run_ns * 0.25) as u64);

        let mut sim = Simulation::new(cfg.with_loss(0.01).with_crash(2, at, down_for));
        let summary = sim.run().summary;
        let st = sim.cluster().stats();
        let (_, crashed_at) = st.crashes[0];
        let (_, rejoined_at) = st.rejoins[0];
        println!(
            "{:<36} {:>10.1} {:>10.1} {:>10} {:>10} {:>10}",
            model.to_string(),
            crashed_at.as_nanos() as f64 / 1_000.0,
            rejoined_at.as_nanos() as f64 / 1_000.0,
            st.catchup_keys,
            summary.retransmits,
            summary.client_timeouts,
        );
    }
    println!();
    println!("'catchup': keys the rejoining node pulled from its own NVM image and");
    println!("its peers to get back in sync before serving again.");
}
