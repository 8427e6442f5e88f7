//! Macrobenchmark: full-cluster simulation speed for representative DDP
//! models (how many simulated client requests the engine processes per
//! wall-clock second). Only `Simulation::run` is timed; building the
//! cluster is set-up.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency, Simulation};

fn build(model: DdpModel) -> Simulation {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 200;
    cfg.measured_requests = 2_000;
    Simulation::new(cfg)
}

fn protocol_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol/2k_requests");
    group.sample_size(10);
    for (name, model) in [
        ("lin_sync", DdpModel::baseline()),
        (
            "causal_sync",
            DdpModel::new(Consistency::Causal, Persistency::Synchronous),
        ),
        (
            "eventual_eventual",
            DdpModel::new(Consistency::Eventual, Persistency::Eventual),
        ),
        (
            "txn_sync",
            DdpModel::new(Consistency::Transactional, Persistency::Synchronous),
        ),
        (
            "txn_strict",
            DdpModel::new(Consistency::Transactional, Persistency::Strict),
        ),
        (
            "lin_scope",
            DdpModel::new(Consistency::Linearizable, Persistency::Scope),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || build(model),
                |mut sim| sim.run().summary.throughput,
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, protocol_engine);
criterion_main!(benches);
