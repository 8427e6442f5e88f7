//! Figure 8 — sensitivity to the NIC-to-NIC round-trip latency
//! (0.5 µs / 1 µs / 2 µs).
//!
//! Linearizable and Causal consistency with all five persistency models;
//! normalized to `<Linearizable, Synchronous>` at 1 µs.

use ddp_harness::{figure_config, sensitivity_figure, AxisPoint, Harness};
use ddp_sim::Duration;

fn main() {
    let mut harness = Harness::from_env("fig8");
    println!("Figure 8: throughput sensitivity to NIC-to-NIC round-trip latency");
    println!("(normalized to <Linearizable, Synchronous> at 1us)\n");

    let points = [500u64, 1_000, 2_000].map(|rtt_ns| AxisPoint {
        label: format!("rtt={rtt_ns}ns"),
        heading: format!("RTT {:.1} us", rtt_ns as f64 / 1_000.0),
        value: Duration::from_nanos(rtt_ns),
    });
    sensitivity_figure(&mut harness, &points, 1, |model, &rtt| {
        figure_config(model).with_round_trip(rtt)
    });
    println!("paper anchors: <Lin,Sync> loses ~12% going 1us -> 2us;");
    println!(
        "               Causal models are barely affected (updates travel in the background)."
    );
    harness.finish();
}
