//! The pending-event set of the discrete-event simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

use crate::time::SimTime;

/// Buckets in the calendar wheel, one per nanosecond, so the wheel reaches
/// 8,192 ns ahead of the clock. DESIGN.md §3c gives the measured scheduling
/// horizons behind the count.
const WHEEL: usize = 1 << 13;
/// The end of a slot list.
const NIL: u32 = u32::MAX;
/// Event records per chunk of the record store.
const CHUNK: usize = 1 << 10;

/// One event record; a free record holds no event.
struct Slot<E> {
    event: Option<E>,
    /// The push count, which orders events due at the same instant.
    seq: u64,
    /// The next record in the same wheel bucket, or in the free list.
    next: u32,
}

/// The event records, `CHUNK` to a chunk, indexed by slot.
///
/// The store grows a chunk at a time, so growing it never moves a record.
/// A doubling vector's growth briefly holds the old and the new copy,
/// which raised the peak memory of queues tens of thousands deep.
struct Slots<E> {
    chunks: Vec<Vec<Slot<E>>>,
    /// Records stored, free or not.
    len: usize,
}

impl<E> Slots<E> {
    /// A store with chunks for `capacity` records.
    fn with_capacity(capacity: usize) -> Self {
        Slots {
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| Vec::with_capacity(CHUNK))
                .collect(),
            len: 0,
        }
    }

    /// Appends a record in a new slot and returns the slot.
    fn push(&mut self, record: Slot<E>) -> u32 {
        let slot = u32::try_from(self.len)
            .ok()
            .filter(|&s| s != NIL)
            .expect("fewer than 2^32 - 1 pending events");
        if self.len / CHUNK == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[self.len / CHUNK].push(record);
        self.len += 1;
        slot
    }
}

impl<E> Index<u32> for Slots<E> {
    type Output = Slot<E>;

    fn index(&self, slot: u32) -> &Slot<E> {
        &self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

impl<E> IndexMut<u32> for Slots<E> {
    fn index_mut(&mut self, slot: u32) -> &mut Slot<E> {
        &mut self.chunks[slot as usize / CHUNK][slot as usize % CHUNK]
    }
}

/// The FIFO list of the events in one wheel bucket, threaded through
/// [`Slot::next`]. Meaningful only while the bucket's occupancy bit is set.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// Where the earliest pending event sits.
enum Next {
    Bucket(usize),
    Overflow,
}

/// A time-ordered queue of simulation events.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), which keeps runs
/// deterministic and makes "send A then B" mean A is handled first.
///
/// The queue is a calendar queue with an overflow heap. An event due less
/// than 8,192 ns after the last popped event goes to the wheel bucket of
/// its nanosecond, appended to that bucket's FIFO list; an occupancy bitmap
/// finds the first non-empty bucket. An event due later goes to a min-heap
/// of 24-byte `(due, seq, slot)` keys, where `seq` is the push count. `pop`
/// takes the smaller of the first bucket's head and the heap's top, by
/// `(due, seq)`. Payloads stay in a chunked slot store that reuses freed
/// slots, so neither side ever moves an event.
///
/// # Examples
///
/// ```
/// use ddp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Bucket `due % WHEEL` lists the events due at `due`, for each `due`
    /// in `[last_popped, last_popped + WHEEL)`. Allocated on the first push
    /// that lands in the wheel.
    buckets: Vec<Bucket>,
    /// One bit per bucket: set while the bucket lists an event.
    occupied: Vec<u64>,
    /// Events in the wheel.
    wheel_len: usize,
    /// Min-heap of `(due, seq, slot)` for the events pushed beyond the
    /// wheel's reach; `seq` is unique, so `slot` never decides an order.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Slots<E>,
    /// Head of the free-slot list, the most recently freed first.
    free: u32,
    next_seq: u64,
    last_popped: SimTime,
}

/// The wheel bucket of an instant.
fn bucket_of(t: SimTime) -> usize {
    (t.as_nanos() % WHEEL as u64) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            buckets: Vec::new(),
            occupied: Vec::new(),
            wheel_len: 0,
            heap: BinaryHeap::with_capacity(capacity),
            slots: Slots::with_capacity(capacity),
            free: NIL,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` for time `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is earlier than the time of the last popped event:
    /// scheduling into the past would violate causality.
    pub fn push(&mut self, due: SimTime, event: E) {
        assert!(
            due >= self.last_popped,
            "event scheduled at {due:?}, before current time {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.store(event, seq);
        if due.as_nanos() - self.last_popped.as_nanos() < WHEEL as u64 {
            self.wheel_push(due, slot);
        } else {
            self.heap.push(Reverse((due, seq, slot)));
        }
    }

    /// Puts `event` in a free slot, or a new one, and returns the slot.
    fn store(&mut self, event: E, seq: u64) -> u32 {
        let record = Slot {
            event: Some(event),
            seq,
            next: NIL,
        };
        if self.free == NIL {
            self.slots.push(record)
        } else {
            let slot = self.free;
            self.free = self.slots[slot].next;
            self.slots[slot] = record;
            slot
        }
    }

    /// Appends a stored event to the tail of its instant's bucket.
    fn wheel_push(&mut self, due: SimTime, slot: u32) {
        if self.buckets.is_empty() {
            self.buckets = vec![Bucket::default(); WHEEL];
            self.occupied = vec![0; WHEEL / 64];
        }
        let b = bucket_of(due);
        let bit = 1u64 << (b % 64);
        let bucket = &mut self.buckets[b];
        if self.occupied[b / 64] & bit == 0 {
            self.occupied[b / 64] |= bit;
            bucket.head = slot;
        } else {
            self.slots[bucket.tail].next = slot;
        }
        bucket.tail = slot;
        self.wheel_len += 1;
    }

    /// The first occupied bucket at or after the last popped instant's,
    /// wrapping round the wheel. The wheel must hold an event.
    fn first_bucket(&self) -> usize {
        let start = bucket_of(self.last_popped);
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        while bits == 0 {
            word = (word + 1) % self.occupied.len();
            bits = self.occupied[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }

    /// The earliest pending event's due time and place. One bitmap scan.
    fn next(&self) -> Option<(SimTime, Next)> {
        let top = self.heap.peek().map(|&Reverse((due, seq, _))| (due, seq));
        if self.wheel_len == 0 {
            return top.map(|(due, _)| (due, Next::Overflow));
        }
        let b = self.first_bucket();
        let ahead = (b + WHEEL - bucket_of(self.last_popped)) % WHEEL;
        let due = SimTime::from_nanos(self.last_popped.as_nanos() + ahead as u64);
        if let Some((top_due, top_seq)) = top {
            if top_due <= due {
                let seq = self.slots[self.buckets[b].head].seq;
                // An overflow entry at `due` was pushed while `due` lay
                // beyond the wheel, so before any wheel entry at `due`.
                debug_assert!(
                    top_due < due || top_seq < seq,
                    "overflow entry {top_seq} at {due:?} follows wheel entry {seq}"
                );
                if (top_due, top_seq) < (due, seq) {
                    return Some((top_due, Next::Overflow));
                }
            }
        }
        Some((due, Next::Bucket(b)))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`. Returns `None` if the queue is empty or its earliest
    /// event is later.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (due, next) = self.next()?;
        if due > deadline {
            return None;
        }
        let slot = match next {
            Next::Overflow => self.heap.pop().expect("peeked above").0 .2,
            Next::Bucket(b) => {
                let bucket = &mut self.buckets[b];
                let slot = bucket.head;
                let next = self.slots[slot].next;
                if next == NIL {
                    self.occupied[b / 64] &= !(1u64 << (b % 64));
                } else {
                    bucket.head = next;
                }
                self.wheel_len -= 1;
                slot
            }
        };
        let record = &mut self.slots[slot];
        let event = record.event.take().expect("a queued slot holds its event");
        record.next = self.free;
        self.free = slot;
        self.last_popped = due;
        Some((due, event))
    }

    /// Returns the time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(due, _)| due)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(42);
        for label in ["a", "b", "c", "d"] {
            q.push(t, label);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec!["a", "b", "c", "d"]);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), ());
        q.pop();
        q.push(SimTime::from_nanos(50), ());
    }

    #[test]
    fn scheduling_at_current_time_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 1);
        q.pop();
        q.push(SimTime::from_nanos(100), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 2)));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(8), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(8)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// The queue before payloads moved out of the heap: a max-heap of
    /// whole entries under an inverted order. Kept as the reference the
    /// slot queue must match.
    struct Scheduled<E> {
        due: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.due == other.due && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .due
                .cmp(&self.due)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Runs 5,000 random pushes and pops against the reference heap,
    /// checking every pop, `peek_time` and `len` at every step, and returns
    /// the most events pending at once. `due` draws a push's due time from
    /// the current time.
    fn matches_reference(
        seed: u64,
        push_share: f64,
        mut due: impl FnMut(&mut crate::SimRng, SimTime) -> SimTime,
    ) -> usize {
        let mut rng = crate::SimRng::seed_from(seed);
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut now = SimTime::ZERO;
        let mut most_pending = 0;
        for id in 0..5_000u64 {
            if rng.chance(push_share) {
                let at = due(&mut rng, now);
                q.push(at, id);
                reference.push(Scheduled {
                    due: at,
                    seq: id,
                    event: id,
                });
            } else {
                let got = q.pop();
                let want = reference.pop().map(|s| (s.due, s.event));
                assert_eq!(got, want, "seed {seed}, step {id}");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            most_pending = most_pending.max(q.len());
            assert_eq!(
                q.peek_time(),
                reference.peek().map(|s| s.due),
                "seed {seed}, step {id}"
            );
            assert_eq!(q.len(), reference.len(), "seed {seed}, step {id}");
        }
        assert_eq!(q.slots.len, most_pending, "freed slots are reused");
        while let Some(s) = reference.pop() {
            assert_eq!(q.pop(), Some((s.due, s.event)));
        }
        assert!(q.is_empty());
        most_pending
    }

    const HORIZON: u64 = WHEEL as u64;

    #[test]
    fn slot_queue_matches_the_whole_entry_heap() {
        for seed in 0..8u64 {
            // Bursts of pushes over a few distinct instants make
            // same-instant ties common; pops free slots to reuse.
            matches_reference(seed, 0.55, |rng, now| {
                now + crate::Duration::from_nanos(rng.next_below(4) * 10)
            });
            // Delays below, at and beyond the wheel's horizon.
            matches_reference(seed, 0.55, |rng, now| {
                let delay = match rng.next_below(8) {
                    0 => 0,
                    1 => HORIZON - 1,
                    2 => HORIZON,
                    3 => HORIZON + 1,
                    4 => rng.next_below(HORIZON),
                    5 => HORIZON + rng.next_below(2 * HORIZON),
                    _ => rng.next_below(4) * 10,
                };
                now + crate::Duration::from_nanos(delay)
            });
            // Every push lands on a multiple of half the horizon, zero to
            // three steps ahead, so an instant first draws pushes beyond
            // the wheel (to the overflow heap) and, once the clock has
            // moved on, pushes within it: its ties split between the two.
            // A pop that compared due times alone and broke a tie towards
            // the wheel would fail here. Pushes outnumber pops, so the
            // record store grows past its first chunk.
            let deepest = matches_reference(seed, 0.65, |rng, now| {
                let step = HORIZON / 2;
                let base = now.as_nanos().div_ceil(step) * step;
                SimTime::from_nanos(base + rng.next_below(4) * step)
            });
            assert!(deepest > CHUNK, "seed {seed}: {deepest} pending at most");
            // Rare far pushes and frequent drains: the clock jumps many
            // horizons at a time, and the wheel's events wrap round the
            // bitmap from every starting bucket.
            matches_reference(seed, 0.45, |rng, now| {
                let delay = if rng.chance(0.05) {
                    (2 + rng.next_below(5)) * HORIZON + rng.next_below(HORIZON)
                } else {
                    rng.next_below(64)
                };
                now + crate::Duration::from_nanos(delay)
            });
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 10);
        q.push(SimTime::from_nanos(30), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        q.push(SimTime::from_nanos(20), 20);
        assert_eq!(q.pop().unwrap().1, 20);
        assert_eq!(q.pop().unwrap().1, 30);
    }
}
