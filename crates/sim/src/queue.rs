//! The pending-event set of the discrete-event simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

use crate::time::SimTime;

/// Nanoseconds per block: the far level's bucket width, and half the near
/// level's span. DESIGN.md §3c gives the measured scheduling horizons
/// behind it.
const BLOCK: u64 = 1 << 13;
/// Near-level buckets, one per nanosecond of the current block and the
/// next.
const NEAR: usize = 2 * BLOCK as usize;
/// Far-level buckets, one per block, for the blocks after the near
/// level's two.
const FAR: usize = 1 << 13;
/// The end of a slot list.
const NIL: u32 = u32::MAX;
/// Event records per chunk of the record store.
const CHUNK: usize = 1 << 10;

/// One event record; a free record holds no event.
struct Slot<E> {
    event: Option<E>,
    /// The next record in the same bucket, or in the free list.
    next: u32,
    /// The due time's offset in its block, `due % BLOCK`: with the block,
    /// which the record's bucket gives, it is the due time.
    offset: u16,
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

/// The FIFO list of the events in one bucket, threaded through
/// [`Slot::next`]. Meaningful only while the bucket's occupancy bit is set.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// One wheel level of `N` buckets: a FIFO list per bucket and a bitmap of
/// the occupied ones. Allocated by its first append.
struct Level<const N: usize> {
    buckets: Vec<Bucket>,
    /// One bit per bucket: set while the bucket lists an event.
    occupied: Vec<u64>,
    /// Events listed.
    len: usize,
}

impl<const N: usize> Level<N> {
    const fn new() -> Self {
        Level {
            buckets: Vec::new(),
            occupied: Vec::new(),
            len: 0,
        }
    }

    /// Appends a stored event, whose `next` link is `NIL`, to the tail of
    /// bucket `b`.
    fn append<E>(&mut self, slots: &mut Slots<E>, b: usize, slot: u32) {
        if self.buckets.is_empty() {
            self.buckets = vec![Bucket::default(); N];
            self.occupied = vec![0; N / 64];
        }
        let bit = 1u64 << (b % 64);
        let bucket = &mut self.buckets[b];
        if self.occupied[b / 64] & bit == 0 {
            self.occupied[b / 64] |= bit;
            bucket.head = slot;
        } else {
            slots[bucket.tail].next = slot;
        }
        bucket.tail = slot;
        self.len += 1;
    }

    /// The first occupied bucket at or after `start`, wrapping round. The
    /// level must list an event.
    fn first_from(&self, start: usize) -> usize {
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        while bits == 0 {
            word = (word + 1) % (N / 64);
            bits = self.occupied[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }

    /// Unlinks and returns the head of occupied bucket `b`.
    fn pop_head<E>(&mut self, slots: &Slots<E>, b: usize) -> u32 {
        let bucket = &mut self.buckets[b];
        let slot = bucket.head;
        let next = slots[slot].next;
        if next == NIL {
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        } else {
            bucket.head = next;
        }
        self.len -= 1;
        slot
    }

    /// Empties bucket `b` and returns the head of its list, or `NIL` if it
    /// listed nothing. The caller takes the list's events off `len`.
    fn take(&mut self, b: usize) -> u32 {
        let bit = 1u64 << (b % 64);
        if self.len == 0 || self.occupied[b / 64] & bit == 0 {
            return NIL;
        }
        self.occupied[b / 64] &= !bit;
        self.buckets[b].head
    }
}

/// A time-ordered queue of simulation events.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), which keeps runs
/// deterministic and makes "send A then B" mean A is handled first.
///
/// The queue is a two-level timing wheel over 8,192-ns blocks, with a heap
/// past its reach. The near level has a FIFO bucket per nanosecond of the
/// last popped event's block and the next; the far level a FIFO bucket per
/// block for the 8,192 blocks after those; the heap holds `(due, seq,
/// slot)` keys for the rest. When a pop enters a new block, the far
/// level's list for the block after it moves to the near level, and heap
/// entries move down as the far level's span reaches them, before the
/// popped event's handler can push. An instant's earlier pushes went to
/// farther tiers, and each move appends them ahead of any later push, so
/// a near bucket lists its instant's events in push order and no tie is
/// ever compared by push count (DESIGN.md §3c). Payloads stay in a chunked
/// slot store that reuses freed slots, so no move copies an event.
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
    /// Bucket `due % NEAR` lists the events due at `due`, for each `due` in
    /// the last popped event's block and the next.
    near: Level<NEAR>,
    /// Bucket `block % FAR` lists the events due in `block`, for each of
    /// the `FAR` blocks after the near level's two.
    far: Level<FAR>,
    /// Min-heap of `(due, seq, slot)` for the events due past the far
    /// level's reach; `seq` is unique, so `slot` never decides an order.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Slots<E>,
    /// Head of the free-slot list, the most recently freed first.
    free: u32,
    /// Entries pushed onto the heap so far: the heap's tie order.
    heap_seq: u64,
    last_popped: SimTime,
    /// The first instant past the near level, `(B + 2) * BLOCK` for the
    /// last popped event's block `B`: one compare places a push, and one
    /// tells a pop that it enters a new block.
    near_end: u64,
}

/// The near-level bucket of an instant.
fn near_bucket(nanos: u64) -> usize {
    (nanos % NEAR as u64) as usize
}

/// The far-level bucket of a block.
fn far_bucket(block: u64) -> usize {
    (block % FAR as u64) as usize
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
            near: Level::new(),
            far: Level::new(),
            heap: BinaryHeap::new(),
            slots: Slots::with_capacity(capacity),
            free: NIL,
            heap_seq: 0,
            last_popped: SimTime::ZERO,
            near_end: 2 * BLOCK,
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
        let slot = self.store(event, due);
        if due.as_nanos() < self.near_end {
            self.near
                .append(&mut self.slots, near_bucket(due.as_nanos()), slot);
        } else if !self.place(self.block(), due, slot) {
            self.heap.push(Reverse((due, self.heap_seq, slot)));
            self.heap_seq += 1;
        }
    }

    /// The block of the last popped event.
    fn block(&self) -> u64 {
        self.last_popped.as_nanos() / BLOCK
    }

    /// Puts `event` in a free slot, or a new one, and returns the slot.
    fn store(&mut self, event: E, due: SimTime) -> u32 {
        let record = Slot {
            event: Some(event),
            next: NIL,
            offset: (due.as_nanos() % BLOCK) as u16,
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

    /// Appends a stored event due at `due` to the level that holds its
    /// block while the current block is `current`. Returns false, and
    /// lists it nowhere, if the block lies past the far level.
    fn place(&mut self, current: u64, due: SimTime, slot: u32) -> bool {
        let block = due.as_nanos() / BLOCK;
        let ahead = block - current;
        if ahead < 2 {
            self.near
                .append(&mut self.slots, near_bucket(due.as_nanos()), slot);
        } else if ahead < 2 + FAR as u64 {
            self.far.append(&mut self.slots, far_bucket(block), slot);
        } else {
            return false;
        }
        true
    }

    /// Moves the levels on from the last popped event's block to `to`, the
    /// block of the event about to pop. Blocks `to` and `to + 1` join the
    /// near level: the far level's lists for them move down first, then the
    /// heap entries that the far level's span now reaches, in `(due, seq)`
    /// order. A block's events sit either in the far level or in the heap,
    /// never both, so every list keeps its instants' push order. Out of
    /// line: a pop enters a new block once per 8,192 ns at most.
    #[inline(never)]
    fn advance(&mut self, to: u64) {
        let from = self.block();
        for block in (from + 2).max(to)..=(to + 1).min(from + 1 + FAR as u64) {
            self.cascade(block);
        }
        while let Some(&Reverse((due, _, slot))) = self.heap.peek() {
            if !self.place(to, due, slot) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Moves the far level's list for `block` to the near level's
    /// nanosecond buckets, in list order.
    fn cascade(&mut self, block: u64) {
        let mut slot = self.far.take(far_bucket(block));
        while slot != NIL {
            let record = &mut self.slots[slot];
            let next = std::mem::replace(&mut record.next, NIL);
            let due = block * BLOCK + u64::from(record.offset);
            self.far.len -= 1;
            self.near.append(&mut self.slots, near_bucket(due), slot);
            slot = next;
        }
    }

    /// The earliest pending event's due time: found by the near level's
    /// bitmap scan in one of the two current blocks, else in the far level,
    /// else the heap's top.
    fn next_due(&self) -> Option<SimTime> {
        let t = self.last_popped.as_nanos();
        if self.near.len > 0 {
            let start = near_bucket(t);
            let ahead = (self.near.first_from(start) + NEAR - start) % NEAR;
            Some(SimTime::from_nanos(t + ahead as u64))
        } else if self.far.len > 0 {
            Some(self.far_due())
        } else {
            self.heap.peek().map(|&Reverse((due, _, _))| due)
        }
    }

    /// The earliest due time in the far level, which must list an event:
    /// its first occupied block's list is in push order, so the list is
    /// scanned for its smallest offset. Out of line, as the near level is
    /// rarely empty.
    #[inline(never)]
    fn far_due(&self) -> SimTime {
        let first = self.block() + 2;
        let start = far_bucket(first);
        let block = first + ((self.far.first_from(start) + FAR - start) % FAR) as u64;
        let head = self.far.buckets[far_bucket(block)].head;
        let offset = std::iter::successors(Some(head), |&s| {
            Some(self.slots[s].next).filter(|&next| next != NIL)
        })
        .map(|s| self.slots[s].offset)
        .min()
        .expect("an occupied bucket lists an event");
        SimTime::from_nanos(block * BLOCK + u64::from(offset))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `deadline`. Returns `None` if the queue is empty or its earliest
    /// event is later; then nothing moves between levels.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let due = self.next_due()?;
        if due > deadline {
            return None;
        }
        if due.as_nanos() >= self.near_end - BLOCK {
            let block = due.as_nanos() / BLOCK;
            self.advance(block);
            self.near_end = (block + 2) * BLOCK;
        }
        let slot = self.near.pop_head(&self.slots, near_bucket(due.as_nanos()));
        let record = &mut self.slots[slot];
        debug_assert_eq!(
            u64::from(record.offset),
            due.as_nanos() % BLOCK,
            "the near bucket of {due:?} lists another instant"
        );
        let event = record.event.take().expect("a queued slot holds its event");
        record.next = self.free;
        self.free = slot;
        self.last_popped = due;
        Some((due, event))
    }

    /// Returns the time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_due()
    }

    /// Returns the number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near.len + self.far.len + self.heap.len()
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
            .field("last_popped", &self.last_popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

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

    /// A backlog record costs the payload plus 8 bytes: the `next` link
    /// and the in-block offset fit the padding of a payload whose `Option`
    /// takes a niche, as the simulator's 96-byte `Event` enum does.
    #[test]
    fn a_record_adds_8_bytes_to_a_96_byte_event() {
        struct Payload {
            _tag: std::num::NonZeroU64,
            _words: [u64; 11],
        }
        assert_eq!(std::mem::size_of::<Option<Payload>>(), 96);
        assert_eq!(std::mem::size_of::<Slot<Payload>>(), 104);
    }

    /// The queue before payloads moved out of the heap: a max-heap of
    /// whole entries under an inverted order. Kept as the reference the
    /// wheel must match.
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

    /// Runs 5,000 random steps against the reference heap and returns the
    /// most events pending at once. A step pushes with probability
    /// `push_share`, drawing the due time from the current time with
    /// `due`. Otherwise it pops: every fourth pop is a `pop_due` whose
    /// deadline falls before the earliest event about half the time, so
    /// it must leave every level as it was. Every pop, `peek_time` and
    /// `len` is checked at every step.
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
                let deadline = match reference.peek() {
                    Some(top) if rng.chance(0.25) => {
                        let gap = top.due.as_nanos() - now.as_nanos();
                        now + Duration::from_nanos(rng.next_below(2 * gap + 1))
                    }
                    _ => SimTime::MAX,
                };
                let got = q.pop_due(deadline);
                let want = match reference.peek() {
                    Some(top) if top.due <= deadline => reference.pop().map(|s| (s.due, s.event)),
                    _ => None,
                };
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

    /// The first instant past the near level, and past the far level, when
    /// the clock reads `now`.
    fn level_ends(now: SimTime) -> (u64, u64) {
        let block = now.as_nanos() / BLOCK;
        ((block + 2) * BLOCK, (block + 2 + FAR as u64) * BLOCK)
    }

    #[test]
    fn slot_queue_matches_the_whole_entry_heap() {
        for seed in 0..8u64 {
            // Bursts of pushes over a few distinct instants make
            // same-instant ties common; pops free slots to reuse.
            matches_reference(seed, 0.55, |rng, now| {
                now + Duration::from_nanos(rng.next_below(4) * 10)
            });
            // Due times just before, at and just after the end of the near
            // level and of the far level (the far level's last block, and
            // the heap past it), and anywhere in either level.
            matches_reference(seed, 0.55, |rng, now| {
                let (near_end, far_end) = level_ends(now);
                let at = match rng.next_below(10) {
                    0 => now.as_nanos(),
                    1 => near_end - 1,
                    2 => near_end,
                    3 => near_end + 1,
                    4 => far_end - 1 - rng.next_below(BLOCK),
                    5 => far_end,
                    6 => far_end + rng.next_below(4 * BLOCK),
                    7 => now.as_nanos() + rng.next_below(2 * BLOCK),
                    8 => near_end + rng.next_below(far_end - near_end),
                    _ => now.as_nanos() + rng.next_below(4) * 10,
                };
                SimTime::from_nanos(at)
            });
            // Every push lands on a multiple of half the far level's span,
            // zero to three steps ahead. An instant three steps ahead is
            // past the far level, one or two steps ahead inside it, and the
            // clock's own instant in the near level: each instant draws
            // pushes into the heap, then the far level, then the near
            // level, so its ties split across all three. Pushes outnumber
            // pops, so the record store grows past its first chunk.
            let deepest = matches_reference(seed, 0.65, |rng, now| {
                let step = FAR as u64 / 2 * BLOCK;
                let base = now.as_nanos().div_ceil(step) * step;
                SimTime::from_nanos(base + rng.next_below(4) * step)
            });
            assert!(deepest > CHUNK, "seed {seed}: {deepest} pending at most");
            // The same at a step of one block, whose ties split between the
            // far and near levels at every block the clock enters.
            matches_reference(seed, 0.6, |rng, now| {
                let base = now.as_nanos().div_ceil(BLOCK) * BLOCK;
                SimTime::from_nanos(base + rng.next_below(4) * BLOCK)
            });
            // Rare far pushes and frequent drains: the clock jumps idle
            // gaps of up to three far spans, so the far level's events wrap
            // round its ring, and the near level's round its bitmap, from
            // every starting bucket.
            matches_reference(seed, 0.45, |rng, now| {
                let delay = if rng.chance(0.05) {
                    rng.next_below(3 * FAR as u64) * BLOCK + rng.next_below(BLOCK)
                } else {
                    rng.next_below(64)
                };
                now + Duration::from_nanos(delay)
            });
        }
    }

    #[test]
    fn a_deadline_short_of_a_cascade_moves_nothing() {
        let at = |n: u64| SimTime::from_nanos(n);
        let far = at(3 * BLOCK + 5);
        let past = at((3 + FAR as u64) * BLOCK);
        let mut q = EventQueue::new();
        q.push(at(10), "now");
        q.push(far, "far");
        q.push(past, "past");
        assert_eq!((q.near.len, q.far.len, q.heap.len()), (1, 1, 1));
        assert_eq!(q.pop(), Some((at(10), "now")));
        // The deadline stops short of block 3, so the clock stays in block
        // 0 and nothing cascades: a push into block 1 still lands in the
        // near level and pops before the far event.
        assert_eq!(q.pop_due(at(3 * BLOCK)), None);
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!((q.near.len, q.far.len, q.heap.len()), (0, 1, 1));
        q.push(at(BLOCK + 1), "near");
        q.push(far, "far, pushed later");
        assert_eq!(q.pop_due(far), Some((at(BLOCK + 1), "near")));
        assert_eq!(q.pop_due(at(3 * BLOCK + 4)), None);
        assert_eq!(q.pop_due(far), Some((far, "far")));
        // Entering block 3 cascaded it and moved the heap entry down: the
        // far level now reaches block `3 + FAR`, where a later push at the
        // same instant queues behind it.
        assert_eq!((q.near.len, q.far.len, q.heap.len()), (1, 1, 0));
        q.push(past, "past, pushed later");
        assert_eq!(q.pop(), Some((far, "far, pushed later")));
        assert_eq!(q.pop_due(at(past.as_nanos() - 1)), None);
        assert_eq!(q.peek_time(), Some(past));
        assert_eq!(q.pop(), Some((past, "past")));
        assert_eq!(q.pop(), Some((past, "past, pushed later")));
        assert!(q.is_empty());
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
