//! An open-addressing hash table with Robin Hood probing.
//!
//! This is the "HashTable" store of the paper's evaluation. Written from
//! scratch (no `std::collections::HashMap` inside) so the whole storage
//! stack is self-contained and its behaviour is deterministic across
//! platforms.
//!
//! The probed array is an index of 8-byte slots over `(key, value)`
//! entries. A slot holds the key's 32-bit fingerprint, the top half of its
//! Fibonacci product, which also gives the slot's home and probe length,
//! and the 32-bit position of its entry; a fingerprint match is confirmed
//! against the entry's key. Probes, Robin Hood displacement, growth and
//! backward-shift deletion move slots only, eight to a cache line.
//!
//! Entries sit in fixed-size chunks, allocated one at a time, that never
//! move: an index doubling rehashes the slots alone, and entry storage
//! never exceeds the live entries plus one chunk. A value is written once
//! and moves only when a removal swaps the last entry into its hole.

use std::ops::{Index, IndexMut};

use crate::traits::{Key, KvStore};

/// The top half of the key's multiplicative (Fibonacci) hash, which has
/// good avalanche for sequential and Zipfian key patterns alike. Its top
/// `log2(capacity)` bits are the key's home slot.
fn fingerprint(key: Key) -> u32 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

/// One index slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// The key's [`fingerprint`].
    fingerprint: u32,
    /// Position of the key's entry; [`FREE`] marks an empty slot.
    entry: u32,
}

/// The `entry` of an empty slot.
const FREE: u32 = u32::MAX;

const EMPTY: Slot = Slot {
    fingerprint: 0,
    entry: FREE,
};

impl Slot {
    fn is_empty(&self) -> bool {
        self.entry == FREE
    }
}

/// Where a probe for a key stopped.
enum Probe {
    /// The slot holding the key.
    Found(usize),
    /// The key is absent. Inserting it starts at `slot`, where it has
    /// travelled `dist` from home: every slot before it keeps its occupant.
    Vacant { slot: usize, dist: usize },
}

/// Entries per chunk of the entry store: 36 KiB of replica-store entries.
/// With glibc on x86-64 Linux, chunks of 64 to 256 such entries fragmented
/// the heap from one benchmark pass to the next, so `reads-uniform-b`'s
/// peak memory grew by 2–4 MiB over 40 passes; chunks of 32, 512 and 1,024
/// entries held it flat.
const CHUNK: usize = 1 << 9;

/// The `(key, value)` entries, `CHUNK` to a chunk, indexed by position.
///
/// Chunks are allocated one at a time and never move, so growing the store
/// copies nothing and reserves at most one chunk beyond the live entries.
#[derive(Debug)]
struct Entries<V> {
    chunks: Vec<Vec<(Key, V)>>,
    len: usize,
}

impl<V> Entries<V> {
    /// Appends an entry and returns its position.
    fn push(&mut self, key: Key, value: V) -> usize {
        if self.len / CHUNK == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[self.len / CHUNK].push((key, value));
        self.len += 1;
        self.len - 1
    }

    /// Removes the entry at `position` and moves the last entry into its
    /// place. A chunk left empty is freed once the chunk before it has room
    /// too, so alternating inserts and removes at a chunk boundary do not
    /// allocate each time.
    fn swap_remove(&mut self, position: usize) -> (Key, V) {
        self.len -= 1;
        let last = self.chunks[self.len / CHUNK]
            .pop()
            .expect("the last chunk holds the last entry");
        if self.chunks.len() * CHUNK > self.len + CHUNK {
            self.chunks.pop();
        }
        if position == self.len {
            last
        } else {
            std::mem::replace(&mut self[position], last)
        }
    }
}

impl<V> Index<usize> for Entries<V> {
    type Output = (Key, V);

    fn index(&self, position: usize) -> &(Key, V) {
        &self.chunks[position / CHUNK][position % CHUNK]
    }
}

impl<V> IndexMut<usize> for Entries<V> {
    fn index_mut(&mut self, position: usize) -> &mut (Key, V) {
        &mut self.chunks[position / CHUNK][position % CHUNK]
    }
}

/// A derived clone would size each chunk to its length, so the next push
/// into the last chunk would reallocate it and move its entries.
impl<V: Clone> Clone for Entries<V> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|chunk| {
                let mut copy = Vec::with_capacity(CHUNK);
                copy.extend_from_slice(chunk);
                copy
            })
            .collect();
        Entries {
            chunks,
            len: self.len,
        }
    }
}

/// An open-addressing hash table with Robin Hood displacement and
/// backward-shift deletion (no tombstones).
///
/// # Examples
///
/// ```
/// use ddp_store::{HashTable, KvStore};
///
/// let mut t = HashTable::new();
/// for k in 0..100u64 {
///     t.put(k, k * 2);
/// }
/// assert_eq!(t.len(), 100);
/// assert_eq!(t.get(40), Some(&80));
/// *t.get_or_insert_with(40, || 0) += 1;
/// assert_eq!(t.get(40), Some(&81));
/// ```
#[derive(Clone, Debug)]
pub struct HashTable<V> {
    slots: Vec<Slot>,
    /// Entries in no particular order.
    entries: Entries<V>,
    /// `32 - log2(capacity)`: a fingerprint shifted right by it is the
    /// key's home slot.
    shift: u32,
}

const INITIAL_CAPACITY: usize = 16;
/// Grow when occupancy exceeds 7/8.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

impl<V> HashTable<V> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        HashTable {
            slots: vec![EMPTY; INITIAL_CAPACITY],
            entries: Entries {
                chunks: Vec::new(),
                len: 0,
            },
            shift: 32 - INITIAL_CAPACITY.trailing_zeros(),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.capacity() - 1
    }

    fn home(&self, fingerprint: u32) -> usize {
        (fingerprint >> self.shift) as usize
    }

    /// The distance of the occupant of slot `idx` from its home slot (its
    /// Robin Hood probe length).
    fn probe_len(&self, idx: usize, slot: Slot) -> usize {
        idx.wrapping_sub(self.home(slot.fingerprint)) & self.mask()
    }

    // `probe` and `find` are inlined into each lookup. Left out of line,
    // the replica store's `get` called `find` on every lookup, about 7 %
    // of `stores/replica_state_hash_uniform_100k`.
    #[inline]
    fn probe(&self, key: Key) -> Probe {
        let fingerprint = fingerprint(key);
        let mask = self.mask();
        let mut idx = self.home(fingerprint);
        let mut dist = 0;
        // Robin Hood invariant: if an occupant is closer to home than our
        // probe distance, the key cannot be further along. An occupant
        // `dist` slots past our home is closer to its own exactly when its
        // home is one of those `dist` slots, that is, when its fingerprint
        // is one of the `span = dist << shift` that follow our home's: one
        // subtraction and compare per slot.
        let per_slot = 1u32 << self.shift;
        let after_home = (fingerprint | (per_slot - 1)).wrapping_add(1);
        let mut span = 0u32;
        loop {
            let slot = self.slots[idx];
            if slot.is_empty() || slot.fingerprint.wrapping_sub(after_home) < span {
                return Probe::Vacant { slot: idx, dist };
            }
            if slot.fingerprint == fingerprint && self.entries[slot.entry as usize].0 == key {
                return Probe::Found(idx);
            }
            idx = (idx + 1) & mask;
            dist += 1;
            span += per_slot;
        }
    }

    /// The position of `key`'s entry, which stays put until the next
    /// removal.
    #[inline(always)]
    pub(crate) fn find(&self, key: Key) -> Option<usize> {
        match self.probe(key) {
            Probe::Found(idx) => Some(self.slots[idx].entry as usize),
            Probe::Vacant { .. } => None,
        }
    }

    /// Puts `incoming`, `dist` from its home, at `idx`, displacing richer
    /// occupants onward: the poorer slot (longer probe) keeps its place,
    /// the richer one moves on.
    fn place(&mut self, mut idx: usize, mut incoming: Slot, mut dist: usize) {
        let mask = self.mask();
        loop {
            let held = self.slots[idx];
            if held.is_empty() {
                self.slots[idx] = incoming;
                return;
            }
            let held_dist = self.probe_len(idx, held);
            if held_dist < dist {
                self.slots[idx] = incoming;
                incoming = held;
                dist = held_dist;
            }
            idx = (idx + 1) & mask;
            dist += 1;
        }
    }

    /// Whether one more entry would pass the load limit.
    fn full(&self) -> bool {
        (self.len() + 1) * LOAD_DEN > self.capacity() * LOAD_NUM
    }

    /// Doubles the index. The fingerprints give every slot's new home, so
    /// no entry is read or moved.
    fn grow(&mut self) {
        let new_cap = self.capacity() * 2;
        self.shift = self
            .shift
            .checked_sub(1)
            .expect("a 32-bit fingerprint homes at most 2^32 slots");
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        for slot in old.into_iter().filter(|s| !s.is_empty()) {
            self.place(self.home(slot.fingerprint), slot, 0);
        }
    }

    /// Appends an entry for an absent `key` and indexes it from the probe's
    /// stopping point; returns the entry's position.
    fn insert_at(&mut self, slot: usize, dist: usize, key: Key, value: V) -> usize {
        let entry = self.entries.push(key, value);
        assert!(entry < FREE as usize, "entry index overflows 32 bits");
        self.place(
            slot,
            Slot {
                fingerprint: fingerprint(key),
                entry: entry as u32,
            },
            dist,
        );
        entry
    }

    /// Inserts an absent `key`, growing first if the index is full.
    fn insert_new(&mut self, key: Key, value: V) -> usize {
        if self.full() {
            self.grow();
        }
        match self.probe(key) {
            Probe::Vacant { slot, dist } => self.insert_at(slot, dist, key, value),
            Probe::Found(_) => unreachable!("insert_new of a present key"),
        }
    }

    /// The value of the entry at `position` (see `find`).
    pub(crate) fn at_mut(&mut self, position: usize) -> &mut V {
        &mut self.entries[position].1
    }

    /// Removes `key`, returning its value if present. Backward-shift
    /// deletion leaves no tombstone; the last entry moves into the removed
    /// entry's place. The slab cache's replacement and eviction and
    /// `ddp-core`'s transaction registry call it; no replica store does.
    pub fn remove(&mut self, key: Key) -> Option<V> {
        let Probe::Found(idx) = self.probe(key) else {
            return None;
        };
        let entry = self.slots[idx].entry;
        // Backward-shift deletion keeps probe sequences tombstone-free.
        let mask = self.mask();
        let mut hole = idx;
        let mut next = (idx + 1) & mask;
        while !self.slots[next].is_empty() && self.probe_len(next, self.slots[next]) > 0 {
            self.slots[hole] = self.slots[next];
            hole = next;
            next = (next + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        // The last entry moves into the hole: repoint its slot first,
        // while the probe can still read its key at the old position.
        let last = self.len() - 1;
        if entry as usize != last {
            let moved = self.entries[last].0;
            let Probe::Found(at) = self.probe(moved) else {
                unreachable!("moved entry {moved} is indexed");
            };
            self.slots[at].entry = entry;
        }
        Some(self.entries.swap_remove(entry as usize).1)
    }

    /// The value of `key`, inserting `fill()` first if the key is absent:
    /// the same table, and the same slot order, as `contains`, then `put`
    /// if absent, then `get_mut`, in one probe when the key is present.
    pub fn get_or_insert_with(&mut self, key: Key, fill: impl FnOnce() -> V) -> &mut V {
        let entry = match self.probe(key) {
            Probe::Found(idx) => self.slots[idx].entry as usize,
            Probe::Vacant { .. } if self.full() => self.insert_new(key, fill()),
            Probe::Vacant { slot, dist } => self.insert_at(slot, dist, key, fill()),
        };
        &mut self.entries[entry].1
    }
}

impl<V> Default for HashTable<V> {
    fn default() -> Self {
        HashTable::new()
    }
}

impl<V> KvStore<V> for HashTable<V> {
    fn get(&self, key: Key) -> Option<&V> {
        self.find(key).map(|e| &self.entries[e].1)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let e = self.find(key)?;
        Some(&mut self.entries[e].1)
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        // Growth is checked before the lookup, so an update of a present
        // key may grow the index too.
        if self.full() {
            self.grow();
        }
        match self.probe(key) {
            Probe::Found(idx) => {
                let e = self.slots[idx].entry as usize;
                Some(std::mem::replace(&mut self.entries[e].1, value))
            }
            Probe::Vacant { slot, dist } => {
                self.insert_at(slot, dist, key, value);
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len
    }

    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        for slot in self.slots.iter().filter(|s| !s.is_empty()) {
            let (key, value) = &self.entries[slot.entry as usize];
            f(*key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_update_remove() {
        let mut t = HashTable::new();
        assert_eq!(t.put(7, "seven"), None);
        assert_eq!(t.get(7), Some(&"seven"));
        assert_eq!(t.put(7, "SEVEN"), Some("seven"));
        assert_eq!(t.remove(7), Some("SEVEN"));
        assert_eq!(t.get(7), None);
        assert_eq!(t.remove(7), None);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = HashTable::new();
        for k in 0..10_000u64 {
            t.put(k, k);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k), Some(&k), "key {k} lost during growth");
        }
    }

    #[test]
    fn backward_shift_preserves_other_keys() {
        let mut t = HashTable::new();
        for k in 0..64u64 {
            t.put(k, k);
        }
        for k in (0..64u64).step_by(2) {
            assert_eq!(t.remove(k), Some(k));
        }
        for k in (1..64u64).step_by(2) {
            assert_eq!(t.get(k), Some(&k), "odd key {k} lost after deletions");
        }
        assert_eq!(t.len(), 32);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = HashTable::new();
        t.put(1, vec![1]);
        t.get_mut(1).unwrap().push(2);
        assert_eq!(t.get(1), Some(&vec![1, 2]));
    }

    #[test]
    fn colliding_keys_coexist() {
        // Keys differing only in high bits collide after the multiplicative
        // shift for small tables; insert many to force long probe chains.
        let mut t = HashTable::new();
        let keys: Vec<u64> = (0..128).map(|i| i << 32).collect();
        for &k in &keys {
            t.put(k, k);
        }
        for &k in &keys {
            assert_eq!(t.get(k), Some(&k));
        }
    }

    #[test]
    fn for_each_visits_all() {
        let mut t = HashTable::new();
        for k in 0..50u64 {
            t.put(k, k);
        }
        let mut seen = [false; 50];
        t.for_each(&mut |k, _| seen[k as usize] = true);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_slots_are_8_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn growth_moves_no_entry() {
        let mut t = HashTable::new();
        for k in 0..1_000u64 {
            t.put(k, k);
        }
        let cap = t.capacity();
        let before: Vec<*const u64> = (0..1_000u64)
            .map(|k| t.get(k).unwrap() as *const _)
            .collect();
        let mut k = 1_000u64;
        while t.capacity() < 4 * cap {
            t.put(k, k);
            k += 1;
        }
        for (k, &at) in (0..1_000u64).zip(&before) {
            assert_eq!(t.get(k).unwrap() as *const u64, at, "key {k} moved");
        }
    }

    /// Entry slots allocated across the table's chunks.
    fn allocated(t: &HashTable<u64>) -> usize {
        t.entries.chunks.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn entry_storage_stays_within_one_chunk_of_the_live_entries() {
        let mut t = HashTable::new();
        for k in 0..5_000u64 {
            t.put(k, k);
            assert!(allocated(&t) <= t.len() + CHUNK, "after inserting {k}");
        }
        assert!(t.capacity() >= 8_192, "the inserts crossed nine doublings");
        assert_eq!(
            allocated(&t.clone()),
            allocated(&t),
            "a clone keeps whole chunks"
        );
        // Removes in a scattered order shrink the store chunk by chunk;
        // every survivor keeps its value.
        let order = (0..5_000u64).map(|i| i.wrapping_mul(2_897) % 5_000);
        for (n, k) in order.enumerate() {
            assert_eq!(t.remove(k), Some(k));
            assert!(allocated(&t) <= t.len() + CHUNK, "after removing {k}");
            if n % 500 == 0 {
                t.for_each(&mut |key, &value| assert_eq!(key, value));
            }
        }
        assert_eq!(t.len(), 0);
    }

    /// The old table's home-slot hash: the top `64 - shift` bits of the
    /// key's Fibonacci product.
    fn hash(key: Key, shift: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The table as it was before the index: values inline in the probed
    /// `Option` slots. Kept as the reference for lookups and slot order.
    struct SlotTable {
        slots: Vec<Option<(Key, u64, u32)>>,
        len: usize,
        shift: u32,
    }

    impl SlotTable {
        fn new() -> Self {
            SlotTable {
                slots: vec![None; INITIAL_CAPACITY],
                len: 0,
                shift: 64 - INITIAL_CAPACITY.trailing_zeros(),
            }
        }

        fn find(&self, key: Key) -> Option<usize> {
            let mask = self.slots.len() - 1;
            let mut idx = hash(key, self.shift) & mask;
            let mut dist = 0u32;
            loop {
                match self.slots[idx] {
                    None => return None,
                    Some((k, _, _)) if k == key => return Some(idx),
                    Some((_, _, p)) if p < dist => return None,
                    Some(_) => {
                        idx = (idx + 1) & mask;
                        dist += 1;
                    }
                }
            }
        }

        fn insert(&mut self, key: Key, value: u64) -> Option<u64> {
            let mask = self.slots.len() - 1;
            let mut idx = hash(key, self.shift) & mask;
            let mut incoming = (key, value, 0u32);
            loop {
                match &mut self.slots[idx] {
                    spot @ None => {
                        *spot = Some(incoming);
                        self.len += 1;
                        return None;
                    }
                    Some(slot) if slot.0 == incoming.0 => {
                        return Some(std::mem::replace(&mut slot.1, incoming.1));
                    }
                    Some(slot) => {
                        if slot.2 < incoming.2 {
                            std::mem::swap(slot, &mut incoming);
                        }
                        idx = (idx + 1) & mask;
                        incoming.2 += 1;
                    }
                }
            }
        }

        fn put(&mut self, key: Key, value: u64) -> Option<u64> {
            if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
                let new_cap = self.slots.len() * 2;
                let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
                self.shift = 64 - new_cap.trailing_zeros();
                self.len = 0;
                for (k, v, _) in old.into_iter().flatten() {
                    self.insert(k, v);
                }
            }
            self.insert(key, value)
        }

        fn get_mut(&mut self, key: Key) -> Option<&mut u64> {
            let idx = self.find(key)?;
            self.slots[idx].as_mut().map(|s| &mut s.1)
        }

        fn remove(&mut self, key: Key) -> Option<u64> {
            let idx = self.find(key)?;
            let removed = self.slots[idx].take()?;
            self.len -= 1;
            let mask = self.slots.len() - 1;
            let (mut hole, mut next) = (idx, (idx + 1) & mask);
            while let Some(slot) = &mut self.slots[next] {
                if slot.2 == 0 {
                    break;
                }
                slot.2 -= 1;
                self.slots[hole] = self.slots[next].take();
                hole = next;
                next = (next + 1) & mask;
            }
            Some(removed.1)
        }

        fn walk(&self) -> Vec<(Key, u64)> {
            self.slots
                .iter()
                .flatten()
                .map(|&(k, v, _)| (k, v))
                .collect()
        }
    }

    proptest! {
        /// The index over dense entries answers every operation as the
        /// slot table did and walks its keys in the same slot order, which
        /// the crash path's stale-key list and `crash_snapshot` inherit.
        /// Up to 600 live keys from 16 slots cross six growths; removes
        /// move the last entry into each hole.
        #[test]
        fn index_matches_the_slot_table(
            ops in proptest::collection::vec((0u8..4, 0u64..900, any::<u64>()), 1..1_500),
        ) {
            let mut table: HashTable<u64> = HashTable::new();
            let mut reference = SlotTable::new();
            for (op, key, value) in ops {
                // Spread keys over the whole hash range, as node-homed
                // and Zipf-scrambled keys are.
                let key = key.wrapping_mul(0x2545_F491_4F6C_DD1D);
                match op {
                    0 => prop_assert_eq!(table.put(key, value), reference.put(key, value)),
                    1 => prop_assert_eq!(table.remove(key), reference.remove(key)),
                    2 => {
                        let a = table.get_mut(key).map(|v| { *v ^= value; *v });
                        let b = reference.get_mut(key).map(|v| { *v ^= value; *v });
                        prop_assert_eq!(a, b);
                    }
                    _ => {
                        let a = *table.get_or_insert_with(key, || value);
                        if reference.find(key).is_none() {
                            reference.put(key, value);
                        }
                        prop_assert_eq!(Some(a), reference.get_mut(key).copied());
                    }
                }
                prop_assert_eq!(table.len(), reference.len);
            }
            let mut walk = Vec::new();
            table.for_each(&mut |k, v| walk.push((k, *v)));
            prop_assert_eq!(walk, reference.walk());
        }
    }
}
