//! Microbenchmark: observability hot-path overhead. Runs the same
//! full-cluster simulation with instrumentation off, with the windowed
//! timeline on, and with event tracing and the timeline both on, so the
//! off/on delta prices the "zero overhead when off" claim and the
//! per-event cost of the timeline's window arithmetic.

use criterion::{criterion_group, criterion_main, Criterion};
use ddp_core::{ClusterConfig, DdpModel, Simulation, TraceConfig};
use ddp_sim::Duration;

fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(DdpModel::baseline());
    cfg.warmup_requests = 200;
    cfg.measured_requests = 2_000;
    cfg
}

fn run(cfg: ClusterConfig) -> f64 {
    Simulation::new(cfg).run().summary.throughput
}

fn trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("observability/2k_requests");
    group.sample_size(10);
    group.bench_function("off", |b| b.iter(|| run(base_cfg())));
    group.bench_function("timeline", |b| {
        b.iter(|| {
            run(base_cfg()
                .with_trace(TraceConfig::default().with_timeline(Duration::from_micros(20))))
        });
    });
    group.bench_function("trace_and_timeline", |b| {
        b.iter(|| {
            run(base_cfg()
                .with_trace(TraceConfig::enabled().with_timeline(Duration::from_micros(20))))
        });
    });
    group.finish();
}

criterion_group!(benches, trace_overhead);
criterion_main!(benches);
