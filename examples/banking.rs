//! A transfer-heavy "banking" workload under Transactional consistency.
//!
//! ```text
//! cargo run -p ddp-examples --release --bin banking
//! ```
//!
//! Spanner-class databases need transactional guarantees (paper §9). This
//! example runs the Transactional consistency model with four persistency
//! bindings and reports commit/conflict behaviour — including the paper's
//! observation that Read-Enforced persistency is a poor partner for
//! transactions because reads stall on persists. The four bindings run
//! concurrently through the sweep harness; the commit/conflict counters
//! come straight off the run records.

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};
use ddp_harness::{default_threads, run_sweep_named, Sweep};
use ddp_workload::WorkloadSpec;

fn main() {
    println!("Banking transfers under Transactional consistency\n");

    let mut sweep = Sweep::new();
    for p in [
        Persistency::Synchronous,
        Persistency::ReadEnforced,
        Persistency::Scope,
        Persistency::Eventual,
    ] {
        let model = DdpModel::new(Consistency::Transactional, p);
        let mut cfg = ClusterConfig::micro21(model);
        // Transfers: read-modify-write pairs over accounts.
        cfg.workload = WorkloadSpec {
            name: "transfers",
            read_ratio: 0.5,
            key_space: 100_000,
            zipf_theta: Some(0.9),
            value_bytes: 128,
            shard: None,
        };
        cfg.warmup_requests = 1_000;
        cfg.measured_requests = 10_000;
        sweep.push(model.to_string(), cfg);
    }
    let records = run_sweep_named("banking", sweep, default_threads());

    println!(
        "{:<36} {:>9} {:>10} {:>10} {:>12}",
        "model", "Mreq/s", "commits", "conflicts", "p95 write us"
    );
    for r in &records {
        println!(
            "{:<36} {:>9.2} {:>10} {:>10} {:>12.1}",
            r.model.to_string(),
            r.summary.throughput / 1e6,
            r.summary.txns_committed,
            r.summary.txns_conflicted,
            r.summary.p95_write_ns / 1e3,
        );
    }
    println!();
    println!("Per the paper (Section 9): pair transactions with Scope or Eventual");
    println!("persistency; Read-Enforced persistency makes transactional reads stall.");
}
