//! Microbenchmark: the DES kernel's event queue and engine dispatch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ddp_sim::{Context, Duration, Engine, EventQueue, Model, SimRng, SimTime};

/// The simulator's event payload, as 8-byte words: every queue operation
/// of a cluster run moves or stores one of these.
const EVENT_WORDS: usize = std::mem::size_of::<ddp_core::protocol::Event>() / 8;

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

/// The hold model at a run's standing depth: 1,024 pending events of the
/// simulator's event size; each step pops the earliest and pushes its
/// successor a random 1-2,000 ns later, so the depth stands.
fn queue_hold_event_sized(c: &mut Criterion) {
    let mut rng = SimRng::seed_from(7);
    let delays: Vec<u64> = (0..10_000).map(|_| 1 + rng.next_below(2_000)).collect();
    c.bench_function("event_queue/hold_10k_at_1k_pending_event_sized", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::with_capacity(1_025);
                for (i, &d) in delays.iter().take(1_024).enumerate() {
                    q.push(SimTime::from_nanos(d), [i as u64; EVENT_WORDS]);
                }
                q
            },
            |mut q| {
                for &d in &delays {
                    let (t, e) = q.pop().expect("the queue stands at 1,024 events");
                    q.push(t + Duration::from_nanos(d), e);
                }
                q
            },
            BatchSize::SmallInput,
        );
    });
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
    engine_dispatch
);
criterion_main!(benches);
