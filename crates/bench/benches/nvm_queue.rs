//! Microbenchmark: the banked NVM device model under load.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_mem::{AccessKind, BankedDevice, MemoryController, MemoryParams};
use ddp_sim::{SimRng, SimTime};

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

/// Persists in bursts of 8 at one instant, paced at the banks' aggregate
/// service rate, behind 1,024 persists queued at time zero: the bank
/// queues stand near 1k, as under an overloaded write-heavy run.
fn nvm_submit_bursty(c: &mut Criterion) {
    const QUEUED: usize = 1_024;
    let params = MemoryParams::micro21().nvm;
    let mut rng = SimRng::seed_from(9);
    let addrs: Vec<u64> = (0..QUEUED + 10_000)
        .map(|_| rng.next_below(1 << 20) << 6)
        .collect();
    let service = params.write_latency + params.transfer_time(256);
    let period = service * 8 / u64::from(params.total_banks());
    c.bench_function("nvm/submit_bursty_10k_at_1k_queued", |b| {
        b.iter_batched(
            || {
                let mut dev = BankedDevice::new(params);
                for &a in &addrs[..QUEUED] {
                    dev.submit(SimTime::ZERO, a, 256, AccessKind::Write);
                }
                dev
            },
            |mut dev| {
                let mut last = SimTime::ZERO;
                for (i, burst) in addrs[QUEUED..].chunks(8).enumerate() {
                    let at = SimTime::ZERO + period * i as u64;
                    for &a in burst {
                        last = dev.submit(at, a, 256, AccessKind::Write);
                    }
                }
                last
            },
            BatchSize::SmallInput,
        );
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

criterion_group!(benches, nvm_submit, nvm_submit_bursty, cache_hierarchy);
criterion_main!(benches);
