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

/// A run of `(node, address, inject)` cache operations over `nodes`'
/// memory systems: a DDIO inject where `inject`, else a CPU access.
fn replay(nodes: &mut [MemoryController], ops: &[(usize, u64, bool)]) -> u64 {
    let mut acc = 0u64;
    for &(node, addr, inject) in ops {
        let mc = &mut nodes[node];
        let lat = if inject {
            mc.ddio_inject(addr)
        } else {
            mc.volatile_access(addr)
        };
        acc = acc.wrapping_add(lat.as_nanos());
    }
    acc
}

/// The cache model at the benchmark's shapes. First, a 5-node cluster's
/// memory systems under uniform keys, as the benchmark's uniform workloads
/// drive them: lines drawn from 100k keys, one access in five a DDIO
/// inject (a replicated update arriving). From empty hierarchies most
/// accesses are cold, so the first case times the fill path and directory
/// growth. The warm case replays the same stream after it has run once, so
/// every line it touches is resident: L1 and L2 miss and the LLC hits (92 %
/// of its accesses), as in `reads-uniform-b`'s run phase. Each of its
/// iterations is the next tenth of the stream. Last, the 40 nodes of one
/// 8-shard fleet, built and dropped.
fn cache_at_benchmark_shapes(c: &mut Criterion) {
    const KEYS: u64 = 100_000;
    const NODES: usize = 5;
    let mut rng = SimRng::seed_from(17);
    let ops: Vec<(usize, u64, bool)> = (0..200_000)
        .map(|_| {
            let node = rng.next_below(NODES as u64) as usize;
            (node, rng.next_below(KEYS) << 6, rng.next_below(5) == 0)
        })
        .collect();
    let fresh = || -> Vec<MemoryController> {
        (0..NODES)
            .map(|_| MemoryController::new(MemoryParams::micro21()))
            .collect()
    };
    c.bench_function("mem/volatile_access_uniform_100k_keys_5_nodes", |b| {
        b.iter_batched(
            fresh,
            |mut nodes| replay(&mut nodes, &ops),
            BatchSize::SmallInput,
        );
    });
    let mut warm = fresh();
    replay(&mut warm, &ops);
    let mut tenths = ops.chunks(ops.len() / 10).cycle();
    c.bench_function("mem/volatile_access_uniform_100k_keys_5_nodes_warm", |b| {
        b.iter(|| replay(&mut warm, tenths.next().expect("a cycle never ends")));
    });
    c.bench_function("mem/new_40_controllers", |b| {
        b.iter(|| -> Vec<MemoryController> {
            (0..40)
                .map(|_| MemoryController::new(MemoryParams::micro21()))
                .collect()
        });
    });
}

criterion_group!(
    benches,
    nvm_submit,
    nvm_submit_bursty,
    cache_hierarchy,
    cache_at_benchmark_shapes
);
criterion_main!(benches);
