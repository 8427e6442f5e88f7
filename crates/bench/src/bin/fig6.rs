//! Figure 6 — performance of all 25 DDP models under YCSB-A, 100 clients.
//!
//! Reproduces every plot: (a) throughput, (b) mean read latency, (c) mean
//! write latency, (d) mean access latency, (e) 95th-percentile read
//! latency, (f) 95th-percentile write latency. As in the paper, every bar
//! is normalized to `<Linearizable, Synchronous>`, groups are consistency
//! models, and the bars within a group are persistency models.

use ddp_core::{Consistency, Persistency, RunSummary};
use ddp_harness::{
    figure_config, print_persistency_header, print_row, print_rule, ratio, Harness, ModelGrid,
    Sweep,
};

/// Extracts one plotted metric from a run summary.
type Metric = fn(&RunSummary) -> f64;

fn main() {
    let mut harness = Harness::from_env("fig6");
    println!("Figure 6: performance of the 25 DDP models");
    println!(
        "(YCSB-A, 100 clients, 5 servers; all values normalized to <Linearizable, Synchronous>)\n"
    );

    // Run everything once (in parallel), reuse for all six plots.
    let records = harness.run(Sweep::grid25(figure_config));
    let grid = ModelGrid::new(&records);
    let base = &grid.baseline().summary;

    let plots: [(&str, Metric); 6] = [
        ("(a) Throughput", |s| s.throughput),
        ("(b) Mean Read Latency", |s| s.mean_read_ns),
        ("(c) Mean Write Latency", |s| s.mean_write_ns),
        ("(d) Mean Latency", |s| s.mean_access_ns),
        ("(e) 95th Percentile Read Latency", |s| s.p95_read_ns),
        ("(f) 95th Percentile Write Latency", |s| s.p95_write_ns),
    ];

    for (title, metric) in plots {
        println!("{title}");
        print_persistency_header();
        print_rule(5);
        for c in Consistency::ALL {
            let values: Vec<f64> = Persistency::ALL
                .iter()
                .map(|&p| ratio(metric(&grid.get(c, p).summary), metric(base)))
                .collect();
            print_row(&c.to_string(), &values);
        }
        println!();
    }
    println!("paper anchors: (a) <Eventual,Eventual> ~3.3x; Causal ~2-3x; Linearizable lowest;");
    println!("               (b) Read-Enforced persistency raises read latency (NVM pressure);");
    println!("               (c) Causal/Eventual writes far below 1.0; Strict persistency ~1.0.");
    harness.finish();
}
