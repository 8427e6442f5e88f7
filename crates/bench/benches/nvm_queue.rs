//! Microbenchmark: the banked NVM device model under load.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_mem::{AccessKind, BankedDevice, MemoryController, MemoryParams};
use ddp_sim::SimTime;

fn nvm_submit(c: &mut Criterion) {
    c.bench_function("nvm/submit_10k_persists", |b| {
        b.iter(|| {
            let mut dev = BankedDevice::new(MemoryParams::micro21().nvm);
            let mut last = SimTime::ZERO;
            for i in 0..10_000u64 {
                let t = SimTime::from_nanos(i * 50);
                last = dev.submit(t, i * 64, 256, AccessKind::Write);
            }
            last
        });
    });
}

fn cache_hierarchy(c: &mut Criterion) {
    c.bench_function("mem/controller_new", |b| {
        b.iter(|| MemoryController::new(MemoryParams::micro21()));
    });
    c.bench_function("mem/volatile_access_100k", |b| {
        b.iter_batched(
            || MemoryController::new(MemoryParams::micro21()),
            |mut mc| {
                let mut acc = 0u64;
                for i in 0..100_000u64 {
                    // Zipf-ish reuse: low keys hit, high keys churn.
                    let addr = (i.wrapping_mul(2654435761) % 4096) * 64;
                    acc = acc.wrapping_add(mc.volatile_access(addr).as_nanos());
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, nvm_submit, cache_hierarchy);
criterion_main!(benches);
