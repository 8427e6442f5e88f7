//! Figure 9 — sensitivity to the read/write mix: workload-B (95 % reads),
//! workload-A (50 %), and the paper's workload-W (95 % writes).
//!
//! Linearizable and Causal consistency with all five persistency models;
//! normalized to `<Linearizable, Synchronous>` under workload-A.

use ddp_harness::{figure_config, sensitivity_figure, AxisPoint, Harness};
use ddp_workload::WorkloadSpec;

fn main() {
    let mut harness = Harness::from_env("fig9");
    println!("Figure 9: throughput sensitivity to the read/write mix");
    println!("(normalized to <Linearizable, Synchronous> under workload-A)\n");

    let points = [
        ("workload-B (95% rd)", WorkloadSpec::ycsb_b()),
        ("workload-A (50% rd)", WorkloadSpec::ycsb_a()),
        ("workload-W (5% rd)", WorkloadSpec::workload_w()),
    ]
    .map(|(name, workload)| AxisPoint {
        label: name.to_string(),
        heading: name.to_string(),
        value: workload,
    });
    sensitivity_figure(&mut harness, &points, 1, |model, workload| {
        figure_config(model).with_workload(workload.clone())
    });
    println!("paper anchor: the more read-intensive the workload, the less the models differ.");
    harness.finish();
}
