//! Microbenchmark: the DES kernel's event queue and engine dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_sim::{Context, Duration, Engine, EventQueue, Model, SimRng, SimTime};

/// The simulator's event payload, as 8-byte words: every queue operation
/// of a cluster run moves or stores one of these.
const EVENT_WORDS: usize = std::mem::size_of::<ddp_core::protocol::Event>() / 8;

/// Every push is 1-2 ms ahead of the clock: past the near level's two
/// 8,192-ns blocks and well inside the far level's 67 ms, so this case
/// times the far level, whose lists move to the near level one block at a
/// time as the pops reach them.
fn queue_push_pop(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        b.iter_batched(
            EventQueue::<u64>::new,
            |mut q| {
                for i in 0..10_000u64 {
                    // Pseudo-random interleaved times.
                    let t = (i.wrapping_mul(2654435761)) % 1_000_000;
                    q.push(SimTime::from_nanos(t + 1_000_000), i);
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        );
    });
}

/// The hold model: `depth` pending events of the simulator's event size,
/// pushed at the first `depth` delays from time zero; each step pops the
/// earliest and pushes its successor the next delay later, so the depth
/// stands. Every iteration runs 10k steps on the same queue, which stays
/// warm as a simulation's does: a queue built per iteration would time
/// cold caches and the queue's deallocation instead.
fn hold(c: &mut Criterion, name: &str, depth: usize, delays: &[u64]) {
    let mut q = EventQueue::with_capacity(depth + 1);
    for (i, &d) in delays.iter().cycle().take(depth).enumerate() {
        q.push(SimTime::from_nanos(d), [i as u64; EVENT_WORDS]);
    }
    c.bench_function(name, |b| {
        b.iter(|| {
            for &d in delays {
                let (t, e) = q.pop().expect("the queue stands at its depth");
                q.push(t + Duration::from_nanos(d), e);
            }
        });
    });
}

/// 1,024 pending, delays of 1-2,000 ns: all within the wheel.
fn queue_hold_event_sized(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(7);
    let delays: Vec<u64> = (0..10_000).map(|_| 1 + rng.next_below(2_000)).collect();
    hold(
        c,
        "event_queue/hold_10k_at_1k_pending_event_sized",
        1_024,
        &delays,
    );
}

/// A closed-loop cell's shape: a few hundred pending (the benchmark's
/// closed-loop cells peak at 152-1,567), every delay under the wheel's
/// 8,192 ns reach.
fn queue_hold_closed_loop(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(11);
    let delays: Vec<u64> = (0..10_000).map(|_| 1 + rng.next_below(8_000)).collect();
    hold(
        c,
        "event_queue/hold_10k_closed_loop_512_pending_under_8us",
        512,
        &delays,
    );
}

/// An open-loop overload cell's shape (`writes-openloop-lsm` at 1.5x
/// `<Causal,Sync>` peaks at 29k pending and pushes 51 % of its events
/// 8,192 ns or more ahead): 15k pending; half the delays are under
/// 8,000 ns, the rest 8,192 ns or more with a tail to ~0.5 ms, so those
/// events wait in the far level.
fn queue_hold_open_loop(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(13);
    let delays: Vec<u64> = (0..10_000)
        .map(|_| {
            if rng.chance(0.5) {
                1 + rng.next_below(8_000)
            } else {
                let u = rng.next_below(1_000);
                8_192 + u * u / 2
            }
        })
        .collect();
    hold(
        c,
        "event_queue/hold_10k_open_loop_15k_pending_tail_500us",
        15_000,
        &delays,
    );
}

/// The deepest backlog's shape: `writes-openloop-lsm`'s `<Eventual,Eventual>`
/// at 1.5x peaks at ~52k pending, nearly all of them due 8 µs to 0.5 ms
/// ahead. 50k pending; 95 % of the delays are 8,192 ns to ~0.5 ms, the
/// rest under 8,000 ns.
fn queue_hold_overload(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(17);
    let delays: Vec<u64> = (0..10_000)
        .map(|_| {
            if rng.chance(0.05) {
                1 + rng.next_below(8_000)
            } else {
                let u = rng.next_below(1_000);
                8_192 + u * u / 2
            }
        })
        .collect();
    hold(
        c,
        "event_queue/hold_10k_overload_50k_pending_95pct_8us_to_500us",
        50_000,
        &delays,
    );
}

struct Chain {
    left: u32,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, ctx: &mut Context<'_, ()>, _ev: ()) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_in(Duration::from_nanos(10), ());
        }
    }
}

fn engine_dispatch(c: &mut Criterion) {
    c.bench_function("engine/dispatch_100k_chained", |b| {
        b.iter(|| {
            let mut model = Chain { left: 100_000 };
            let mut engine = Engine::new();
            engine.schedule(SimTime::ZERO, ());
            engine.run(&mut model);
            engine.events_dispatched()
        });
    });
}

criterion_group!(
    benches,
    queue_push_pop,
    queue_hold_event_sized,
    queue_hold_closed_loop,
    queue_hold_open_loop,
    queue_hold_overload,
    engine_dispatch
);
criterion_main!(benches);
