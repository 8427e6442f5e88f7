//! Microbenchmark: the fabric's NICs under broadcast load.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ddp_net::{Fabric, NetworkParams, NodeId, RdmaKind};
use ddp_sim::SimTime;

const NODES: u8 = 5;
const BYTES: u64 = 64;
/// Messages each NIC has in flight when timing starts.
const DEPTH: u64 = 256;
const ROUNDS: u64 = 500;

/// Every node broadcasts to the other four, one unicast per follower as
/// the protocol's broadcast does, into a standing in-flight depth: each
/// NIC starts with `DEPTH` messages queued at time zero and then sends a
/// 4-message burst per egress time of four messages, so its backlog, and
/// with it the in-flight depth, stays put.
fn unicast_bursts(c: &mut Criterion) {
    let params = NetworkParams::micro21();
    let period = (params.per_message_occupancy + params.serialization(BYTES)) * 4;
    let burst = |fabric: &mut Fabric, at: SimTime, from: u8| {
        for hop in 1..NODES {
            let to = NodeId((from + hop) % NODES);
            black_box(fabric.unicast(at, NodeId(from), to, BYTES, RdmaKind::Send));
        }
    };
    c.bench_function("net/unicast_burst4_at_256_in_flight", |b| {
        b.iter_batched(
            || {
                let mut fabric = Fabric::new(usize::from(NODES), params);
                for from in 0..NODES {
                    for _ in 0..DEPTH / 4 {
                        burst(&mut fabric, SimTime::ZERO, from);
                    }
                }
                fabric
            },
            |mut fabric| {
                for round in 0..ROUNDS {
                    let at = SimTime::ZERO + period * round;
                    for from in 0..NODES {
                        burst(&mut fabric, at, from);
                    }
                }
                fabric
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(benches, unicast_bursts);
criterion_main!(benches);
