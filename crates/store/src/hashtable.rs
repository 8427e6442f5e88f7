//! An open-addressing hash table with Robin Hood probing.
//!
//! This is the "HashTable" store of the paper's evaluation. Written from
//! scratch (no `std::collections::HashMap` inside) so the whole storage
//! stack is self-contained and its behaviour is deterministic across
//! platforms.
//!
//! The probed array is an index of 16-byte slots (a key, the position of
//! its entry, its probe length) over a dense vector of `(key, value)`
//! entries. Probes, Robin Hood displacement, growth and backward-shift
//! deletion move slots only, four to a cache line; a value is written once
//! and moves only when a removal swaps the last entry into its hole.

use crate::traits::{Key, KvStore};

/// Multiplicative hash (Fibonacci hashing) — good avalanche for sequential
/// and Zipfian key patterns alike.
fn hash(key: Key, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// One index slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: Key,
    /// Position of the key's entry in the dense vector; [`FREE`] marks an
    /// empty slot.
    entry: u32,
    /// Distance from the slot the key hashes to (for Robin Hood balancing).
    probe_len: u32,
}

/// The `entry` of an empty slot.
const FREE: u32 = u32::MAX;

const EMPTY: Slot = Slot {
    key: 0,
    entry: FREE,
    probe_len: 0,
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
    Vacant { slot: usize, dist: u32 },
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
    /// Entries in no particular order; `len` is their count.
    entries: Vec<(Key, V)>,
    /// `64 - log2(capacity)`, the shift used by the multiplicative hash.
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
        HashTable::with_slots(INITIAL_CAPACITY)
    }

    /// Creates an empty table sized for at least `capacity` entries without
    /// rehashing.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity * LOAD_DEN / LOAD_NUM + 1)
            .next_power_of_two()
            .max(INITIAL_CAPACITY);
        HashTable::with_slots(cap)
    }

    fn with_slots(cap: usize) -> Self {
        HashTable {
            slots: vec![EMPTY; cap],
            entries: Vec::with_capacity(limit(cap)),
            shift: 64 - cap.trailing_zeros(),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn mask(&self) -> usize {
        self.capacity() - 1
    }

    fn probe(&self, key: Key) -> Probe {
        let mask = self.mask();
        let mut idx = hash(key, self.shift) & mask;
        let mut dist = 0u32;
        loop {
            let slot = &self.slots[idx];
            // Robin Hood invariant: if an occupant is closer to home than
            // our probe distance, the key cannot be further along.
            if slot.is_empty() || slot.probe_len < dist {
                return Probe::Vacant { slot: idx, dist };
            }
            if slot.key == key {
                return Probe::Found(idx);
            }
            idx = (idx + 1) & mask;
            dist += 1;
        }
    }

    /// The position of `key`'s entry, which stays put until the next
    /// removal.
    pub(crate) fn find(&self, key: Key) -> Option<usize> {
        match self.probe(key) {
            Probe::Found(idx) => Some(self.slots[idx].entry as usize),
            Probe::Vacant { .. } => None,
        }
    }

    /// Puts `incoming` at `idx`, displacing richer occupants onward: the
    /// poorer slot (longer probe) keeps its place, the richer one moves on.
    fn place(&mut self, mut idx: usize, mut incoming: Slot) {
        let mask = self.mask();
        loop {
            let slot = &mut self.slots[idx];
            if slot.is_empty() {
                *slot = incoming;
                return;
            }
            if slot.probe_len < incoming.probe_len {
                std::mem::swap(slot, &mut incoming);
            }
            idx = (idx + 1) & mask;
            incoming.probe_len += 1;
        }
    }

    /// Whether one more entry would pass the load limit.
    fn full(&self) -> bool {
        (self.len() + 1) * LOAD_DEN > self.capacity() * LOAD_NUM
    }

    fn grow(&mut self) {
        let new_cap = self.capacity() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = self.mask();
        for slot in old.into_iter().filter(|s| !s.is_empty()) {
            let home = hash(slot.key, self.shift) & mask;
            self.place(
                home,
                Slot {
                    probe_len: 0,
                    ..slot
                },
            );
        }
        // The entries grow with the index, so they carry no more slack
        // than its load limit.
        self.entries
            .reserve_exact(limit(new_cap).saturating_sub(self.len()));
    }

    /// Appends an entry for an absent `key` and indexes it from the probe's
    /// stopping point; returns the entry's position.
    fn insert_at(&mut self, slot: usize, dist: u32, key: Key, value: V) -> usize {
        let entry = self.entries.len();
        assert!(entry < FREE as usize, "entry index overflows 32 bits");
        self.entries.push((key, value));
        self.place(
            slot,
            Slot {
                key,
                entry: entry as u32,
                probe_len: dist,
            },
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
        let entry = self.slots[idx].entry as usize;
        // Backward-shift deletion keeps probe sequences tombstone-free.
        let mask = self.mask();
        let mut hole = idx;
        let mut next = (idx + 1) & mask;
        while !self.slots[next].is_empty() && self.slots[next].probe_len > 0 {
            self.slots[hole] = self.slots[next];
            self.slots[hole].probe_len -= 1;
            hole = next;
            next = (next + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        let (_, value) = self.entries.swap_remove(entry);
        // The last entry moved into the hole: repoint its slot.
        if let Some(&(moved, _)) = self.entries.get(entry) {
            let Probe::Found(at) = self.probe(moved) else {
                unreachable!("moved entry {moved} is indexed");
            };
            self.slots[at].entry = entry as u32;
        }
        Some(value)
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

/// Entries a table of `cap` slots holds before it grows.
fn limit(cap: usize) -> usize {
    cap * LOAD_NUM / LOAD_DEN
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
        self.entries.len()
    }

    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        for slot in self.slots.iter().filter(|s| !s.is_empty()) {
            f(slot.key, &self.entries[slot.entry as usize].1);
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
    fn with_capacity_avoids_rehash_for_that_many() {
        let mut t = HashTable::with_capacity(1000);
        let cap_before = t.capacity();
        for k in 0..1000u64 {
            t.put(k, ());
        }
        assert_eq!(t.capacity(), cap_before);
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
    fn index_slots_are_16_bytes_and_entries_track_the_load_limit() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let mut t = HashTable::new();
        for k in 0..1_000u64 {
            t.put(k, k);
            assert!(t.entries.capacity() <= limit(t.capacity()), "key {k}");
        }
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
