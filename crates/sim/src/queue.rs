//! The pending-event set of the discrete-event simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), which keeps runs
/// deterministic and makes "send A then B" mean A is handled first.
///
/// The heap orders 24-byte `(due, seq, slot)` keys, where `seq` is the
/// push count that breaks ties; the payloads stay in a slot vector that
/// reuses freed slots, so a sift moves keys, never events.
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
    /// Min-heap of `(due, seq, slot)`; `seq` is unique, so `slot` never
    /// decides an order.
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    /// Payloads by slot; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, the most recently freed last.
    free: Vec<usize>,
    next_seq: u64,
    last_popped: SimTime,
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
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                self.slots.len() - 1
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((due, seq, slot)));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((due, _, slot)) = self.heap.pop()?;
        let event = self.slots[slot].take().expect("a queued key owns its slot");
        self.free.push(slot);
        self.last_popped = due;
        Some((due, event))
    }

    /// Returns the time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.0 .0)
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
            .field("pending", &self.heap.len())
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

    #[test]
    fn slot_queue_matches_the_whole_entry_heap() {
        for seed in 0..8u64 {
            let mut rng = crate::SimRng::seed_from(seed);
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut most_pending = 0;
            for id in 0..5_000u64 {
                // Bursts of pushes over a few distinct instants make
                // same-instant ties common; pops free slots to reuse.
                if rng.chance(0.55) {
                    let due = now + crate::Duration::from_nanos(rng.next_below(4) * 10);
                    q.push(due, id);
                    reference.push(Scheduled {
                        due,
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
                assert_eq!(q.peek_time(), reference.peek().map(|s| s.due));
                assert_eq!(q.len(), reference.len());
            }
            assert_eq!(q.slots.len(), most_pending, "freed slots are reused");
            while let Some(s) = reference.pop() {
                assert_eq!(q.pop(), Some((s.due, s.event)));
            }
            assert!(q.is_empty());
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
