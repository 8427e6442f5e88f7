//! A social-network timeline built on `<Causal, Synchronous>`.
//!
//! ```text
//! cargo run -p ddp-examples --release --bin social_network
//! ```
//!
//! Photo-sharing and news-reader services pick Causal consistency for its
//! combination of performance and sensible semantics (paper §9): if Alice
//! posts and Bob replies, nobody ever sees the reply without the post.
//! This example compares causal and eventual consistency on a
//! comment-thread-like workload and verifies the session guarantees with
//! the history checker.

use ddp_core::{
    ClusterConfig, Consistency, DdpModel, HistoryChecker, Persistency, Simulation, TraceConfig,
};
use ddp_workload::WorkloadSpec;

fn run(model: DdpModel) -> (f64, bool, f64) {
    // The checker reads the client history from the event trace.
    let mut cfg = ClusterConfig::micro21(model).with_trace(TraceConfig::enabled());
    // A busy comment thread: small hot key set, read-mostly.
    cfg.workload = WorkloadSpec {
        name: "timeline",
        read_ratio: 0.7,
        key_space: 10_000,
        zipf_theta: Some(0.99),
        value_bytes: 512,
        shard: None,
    };
    cfg.warmup_requests = 1_000;
    cfg.measured_requests = 10_000;
    let mut sim = Simulation::new(cfg);
    let report = sim.run();
    let trace = sim.take_trace().expect("event tracing is on");
    let checker = HistoryChecker::new(&trace).expect("the trace ring held the whole run");
    (
        report.summary.throughput,
        checker.monotonic_reads().holds,
        checker.fresh_read_fraction(),
    )
}

fn main() {
    println!("Social-network timeline: Causal vs Eventual consistency\n");
    let models = [
        DdpModel::new(Consistency::Causal, Persistency::Synchronous),
        DdpModel::new(Consistency::Eventual, Persistency::Synchronous),
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
    ];
    println!(
        "{:<32} {:>12} {:>18} {:>12}",
        "model", "Mreq/s", "monotonic reads?", "fresh reads"
    );
    for model in models {
        let (thr, monotonic, fresh) = run(model);
        println!(
            "{:<32} {:>12.2} {:>18} {:>11.1}%",
            model.to_string(),
            thr / 1e6,
            if monotonic { "yes" } else { "NO" },
            fresh * 100.0
        );
    }
    println!();
    println!("Causal keeps timeline reads monotonic at near-Eventual throughput;");
    println!("Eventual consistency gives up the reply-after-post guarantee.");
}
