//! Figure 7 — sensitivity to the number of clients (10 / 100 / 150).
//!
//! As in the paper, shows Linearizable and Causal consistency with all five
//! persistency models; every bar is normalized to
//! `<Linearizable, Synchronous>` at 100 clients.

use ddp_harness::{figure_config, sensitivity_figure, AxisPoint, Harness};

fn main() {
    let mut harness = Harness::from_env("fig7");
    println!("Figure 7: throughput sensitivity to the number of clients");
    println!("(normalized to <Linearizable, Synchronous> at 100 clients)\n");

    let points = [10u32, 100, 150].map(|clients| AxisPoint {
        label: format!("clients={clients}"),
        heading: format!("{clients} clients"),
        value: clients,
    });
    sensitivity_figure(&mut harness, &points, 1, |model, &clients| {
        figure_config(model).with_clients(clients)
    });
    println!("paper anchors: <Lin,Sync> gains ~2.2x going 100 -> 10 clients;");
    println!("               <Causal,Sync> and <Causal,Eventual> barely move.");
    harness.finish();
}
