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
/// nodes and 100k Zipf keys.
fn client_pool(c: &mut Criterion) {
    c.bench_function("workload/client_pool_100c_100k_zipf", |b| {
        let spec = WorkloadSpec::ycsb_a();
        b.iter(|| ClientPool::new(&spec, 100, 5, 42));
    });
}

criterion_group!(benches, zipfian_sampling, request_stream, client_pool);
criterion_main!(benches);
