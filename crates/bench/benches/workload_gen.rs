//! Microbenchmark: the YCSB request generator and Zipfian sampler.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_sim::SimRng;
use ddp_workload::{ClientPool, WorkloadSpec, Zipfian};

fn zipfian_sampling(c: &mut Criterion) {
    c.bench_function("zipfian/sample_100k", |b| {
        let z = Zipfian::new(1_000_000, 0.99);
        let mut rng = SimRng::seed_from(7);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(z.sample(&mut rng));
            }
            acc
        });
    });
}

fn request_stream(c: &mut Criterion) {
    c.bench_function("workload/ycsb_a_stream_100k", |b| {
        // Building the stream sums the Zipf normaliser; time only the draws.
        let fresh = WorkloadSpec::ycsb_a().stream(11);
        b.iter_batched(
            || fresh.clone(),
            |mut stream| {
                let mut acc = 0u64;
                for _ in 0..100_000 {
                    acc = acc.wrapping_add(stream.next_request().key);
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
}

/// Set-up of the paper's client population: 100 YCSB-A clients over 5
/// nodes and 100k Zipf keys. The process sums each Zipf normaliser once,
/// so every iteration reads it from the memo, as every cell of a sweep
/// after the first does.
fn client_pool(c: &mut Criterion) {
    c.bench_function("workload/client_pool_100c_100k_zipf", |b| {
        let spec = WorkloadSpec::ycsb_a();
        b.iter(|| ClientPool::new(&spec, 100, 5, 42));
    });
}

/// The cold normaliser sum: each iteration builds over a key space that
/// no earlier iteration used (`100_000 + i`), so every build misses the
/// memo.
fn zipfian_new_miss(c: &mut Criterion) {
    let mut n = 100_000;
    c.bench_function("zipfian/new_miss_100k", |b| {
        b.iter(|| {
            n += 1;
            Zipfian::new(n, 0.99)
        });
    });
}

criterion_group!(
    benches,
    zipfian_sampling,
    request_stream,
    client_pool,
    zipfian_new_miss
);
criterion_main!(benches);
