//! Microbenchmark: the five KV store backends under a YCSB-A-like mix.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ddp_core::ReplicaStore;
use ddp_sim::SimRng;
use ddp_store::{AvlMap, BPlusTree, BTree, HashTable, KvStore, LsmStore, SlabCache, StoreKind};
use ddp_workload::{Zipfian, YCSB_THETA};

const OPS: usize = 10_000;
const KEYS: u64 = 10_000;

fn mixed_workout<S: KvStore<u64>>(store: &mut S, rng: &mut SimRng) -> u64 {
    let mut acc = 0u64;
    for _ in 0..OPS {
        let key = rng.next_below(KEYS);
        if rng.chance(0.5) {
            acc = acc.wrapping_add(store.get(key).copied().unwrap_or(0));
        } else {
            store.put(key, key);
        }
    }
    acc
}

fn stores(c: &mut Criterion) {
    let mut group = c.benchmark_group("stores/ycsb_a_10k");
    group.bench_function("hashtable", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut HashTable::new(), &mut rng));
    });
    group.bench_function("avlmap", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut AvlMap::new(), &mut rng));
    });
    group.bench_function("btree", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut BTree::new(), &mut rng));
    });
    group.bench_function("bplustree", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut BPlusTree::new(), &mut rng));
    });
    group.bench_function("memcached", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut SlabCache::with_capacity_bytes(1 << 24), &mut rng));
    });
    group.bench_function("lsm", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| mixed_workout(&mut LsmStore::new(), &mut rng));
    });
    group.finish();
}

/// A node's LSM replica store on the protocol's write path: one
/// `state_mut` per write over a YCSB Zipf key stream (the default 100k
/// keys), compaction work drained after each as the cluster does. The
/// store is warmed with 10k writes first, so upserts hit the memtable,
/// promote batch values and seal.
fn replica_state_mut_lsm(c: &mut Criterion) {
    const WARM: usize = 10_000;
    let zipf = Zipfian::new(100_000, YCSB_THETA);
    let mut rng = SimRng::seed_from(3);
    let keys: Vec<u64> = (0..WARM + 10_000).map(|_| zipf.sample(&mut rng)).collect();
    let write = |store: &mut ReplicaStore, key: u64| {
        store.state_mut(key).visible += 1;
        if store.has_compaction_work() {
            black_box(store.take_compaction_work());
        }
    };
    c.bench_function("stores/replica_state_mut_lsm_zipf_10k", |b| {
        b.iter_batched(
            || {
                let mut store = ReplicaStore::with_compaction(StoreKind::Lsm, 256, 4);
                for &k in &keys[..WARM] {
                    write(&mut store, k);
                }
                store
            },
            |mut store| {
                for &k in &keys[WARM..] {
                    write(&mut store, k);
                }
                store
            },
            BatchSize::LargeInput,
        );
    });
}

/// A node's hashtable and memcached replica stores on `reads-uniform-b`'s
/// access mix: 95 % `state` reads and 5 % `state_mut` writes, uniform over
/// 100k keys. Each store is warmed with 10k writes first, so reads mix
/// hits on touched keys with defaults for untouched ones.
fn replica_state_uniform(c: &mut Criterion) {
    const WARM: usize = 10_000;
    const KEYS: u64 = 100_000;
    let mut rng = SimRng::seed_from(4);
    let warm: Vec<u64> = (0..WARM).map(|_| rng.next_below(KEYS)).collect();
    let ops: Vec<(bool, u64)> = (0..OPS)
        .map(|_| (rng.chance(0.05), rng.next_below(KEYS)))
        .collect();
    for (name, kind) in [
        ("hash", StoreKind::HashTable),
        ("memcached", StoreKind::Memcached),
    ] {
        c.bench_function(&format!("stores/replica_state_{name}_uniform_100k"), |b| {
            b.iter_batched(
                || {
                    let mut store = ReplicaStore::new(kind);
                    for &k in &warm {
                        store.state_mut(k).visible += 1;
                    }
                    store
                },
                |mut store| {
                    let mut acc = 0u64;
                    for &(write, k) in &ops {
                        if write {
                            store.state_mut(k).visible += 1;
                        } else {
                            acc = acc.wrapping_add(store.state(k).visible);
                        }
                    }
                    black_box(acc);
                    store
                },
                BatchSize::LargeInput,
            );
        });
    }
}

criterion_group!(
    benches,
    stores,
    replica_state_mut_lsm,
    replica_state_uniform
);
criterion_main!(benches);
