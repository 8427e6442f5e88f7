//! A memcached-like store: hash index, slab-class accounting, LRU eviction.
//!
//! Memcached is the flagship application of the paper's evaluation. The
//! relevant behaviours for the simulation are (a) bounded memory with LRU
//! eviction and (b) slab classes that quantize allocation sizes — both are
//! modeled here over the from-scratch [`HashTable`].

use crate::hashtable::HashTable;
use crate::traits::{Key, KvStore};

/// The byte size an entry occupies, as seen by the slab allocator.
pub trait SlabSized {
    /// Payload size in bytes (the slab class is chosen from this).
    fn payload_bytes(&self) -> usize;
}

impl SlabSized for Vec<u8> {
    fn payload_bytes(&self) -> usize {
        self.len()
    }
}

impl SlabSized for u64 {
    fn payload_bytes(&self) -> usize {
        8
    }
}

impl SlabSized for () {
    fn payload_bytes(&self) -> usize {
        0
    }
}

#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    /// Slab class index, fixed at insert time.
    class: usize,
    /// LRU links (indices into an intrusive doubly-linked list keyed by Key).
    prev: Option<Key>,
    next: Option<Key>,
}

/// Statistics of one slab class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabClassStats {
    /// Quantized chunk size of this class in bytes.
    pub chunk_bytes: usize,
    /// Live entries in this class.
    pub entries: usize,
}

/// A bounded, LRU-evicting key-value cache in the style of memcached.
///
/// # Examples
///
/// ```
/// use ddp_store::{KvStore, SlabCache};
///
/// // Room for two 8-byte values (u64 payloads quantize to the 64 B class).
/// let mut cache = SlabCache::with_capacity_bytes(128);
/// cache.put(1, 10u64);
/// cache.put(2, 20u64);
/// cache.put(3, 30u64); // evicts key 1, the least recently used
/// assert_eq!(cache.get(1), None);
/// assert_eq!(cache.get(3), Some(&30));
/// assert_eq!(cache.evictions(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SlabCache<V> {
    index: HashTable<Entry<V>>,
    capacity_bytes: usize,
    used_bytes: usize,
    /// Chunk sizes of the slab classes, ascending.
    classes: Vec<usize>,
    class_entries: Vec<usize>,
    /// LRU list: most recently used at head.
    head: Option<Key>,
    tail: Option<Key>,
    evictions: u64,
}

/// Smallest slab class, in bytes (memcached default minimum chunk).
const MIN_CHUNK: usize = 64;
/// Growth factor between classes (memcached's default is 1.25; a factor of
/// 2 keeps the class count small for simulation purposes).
const GROWTH: usize = 2;

impl<V: SlabSized> SlabCache<V> {
    /// Creates a cache bounded to roughly `capacity_bytes` of payload.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one chunk (64 bytes).
    #[must_use]
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes >= MIN_CHUNK, "capacity below one chunk");
        let mut classes = vec![MIN_CHUNK];
        while *classes.last().expect("nonempty") < capacity_bytes {
            classes.push(classes.last().expect("nonempty") * GROWTH);
        }
        let n = classes.len();
        SlabCache {
            index: HashTable::new(),
            capacity_bytes,
            used_bytes: 0,
            classes,
            class_entries: vec![0; n],
            head: None,
            tail: None,
            evictions: 0,
        }
    }

    fn class_for(&self, bytes: usize) -> usize {
        self.classes
            .iter()
            .position(|&c| c >= bytes)
            .unwrap_or(self.classes.len() - 1)
    }

    fn detach(&mut self, key: Key) {
        let (prev, next) = {
            let e = self.index.get(key).expect("detach of absent key");
            (e.prev, e.next)
        };
        match prev {
            Some(p) => self.index.get_mut(p).expect("stale prev link").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.index.get_mut(n).expect("stale next link").prev = prev,
            None => self.tail = prev,
        }
        let e = self.index.get_mut(key).expect("checked above");
        e.prev = None;
        e.next = None;
    }

    fn push_front(&mut self, key: Key) {
        let old_head = self.head;
        {
            let e = self.index.get_mut(key).expect("push_front of absent key");
            e.prev = None;
            e.next = old_head;
        }
        if let Some(h) = old_head {
            self.index.get_mut(h).expect("stale head").prev = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }

    /// Makes a present `key` the most recently used, returning its entry's
    /// index position: one probe for the key, plus its LRU neighbours'
    /// relink unless it already is the head. Leaves the same list as
    /// `detach` then `push_front`.
    fn promote(&mut self, key: Key) -> Option<usize> {
        let pos = self.index.find(key)?;
        if self.head == Some(key) {
            return Some(pos);
        }
        let old_head = self.head;
        let e = self.index.at_mut(pos);
        let (prev, next) = (e.prev, e.next);
        e.prev = None;
        e.next = old_head;
        let p = prev.expect("a non-head entry has a predecessor");
        self.index.get_mut(p).expect("stale prev link").next = next;
        match next {
            Some(n) => self.index.get_mut(n).expect("stale next link").prev = prev,
            None => self.tail = prev,
        }
        if let Some(h) = old_head {
            self.index.get_mut(h).expect("stale head").prev = Some(key);
        }
        self.head = Some(key);
        Some(pos)
    }

    /// The value of `key`, inserting `fill()` first, exactly as
    /// [`KvStore::put`] would, if the key is absent. Either way the key
    /// becomes the most recently used; a present key costs one probe (see
    /// `promote`).
    pub fn get_or_insert_with(&mut self, key: Key, fill: impl FnOnce() -> V) -> &mut V {
        let pos = match self.promote(key) {
            Some(pos) => pos,
            None => {
                self.put(key, fill());
                self.index.find(key).expect("just put")
            }
        };
        &mut self.index.at_mut(pos).value
    }

    fn evict_one(&mut self) -> bool {
        let Some(victim) = self.tail else {
            return false;
        };
        self.remove_entry(victim);
        self.evictions += 1;
        true
    }

    fn remove_entry(&mut self, key: Key) -> Option<V> {
        self.index.get(key)?;
        self.detach(key);
        let entry = self.index.remove(key).expect("present above");
        self.used_bytes -= self.classes[entry.class];
        self.class_entries[entry.class] -= 1;
        Some(entry.value)
    }

    /// Number of evictions performed so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes currently accounted to live entries (in chunk units).
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Per-class statistics, ascending by chunk size.
    #[must_use]
    pub fn class_stats(&self) -> Vec<SlabClassStats> {
        self.classes
            .iter()
            .zip(&self.class_entries)
            .map(|(&chunk_bytes, &entries)| SlabClassStats {
                chunk_bytes,
                entries,
            })
            .collect()
    }
}

impl<V: SlabSized> KvStore<V> for SlabCache<V> {
    fn get(&self, key: Key) -> Option<&V> {
        // NOTE: a read does not promote in the immutable accessor; use
        // `touch` semantics via get_mut when recency matters.
        self.index.get(key).map(|e| &e.value)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let pos = self.promote(key)?;
        Some(&mut self.index.at_mut(pos).value)
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        let class = self.class_for(value.payload_bytes());
        let chunk = self.classes[class];
        let old = self.remove_entry(key);
        while self.used_bytes + chunk > self.capacity_bytes {
            if !self.evict_one() {
                break;
            }
        }
        self.index.put(
            key,
            Entry {
                value,
                class,
                prev: None,
                next: None,
            },
        );
        self.used_bytes += chunk;
        self.class_entries[class] += 1;
        self.push_front(key);
        old
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        self.index.for_each(&mut |k, e| f(k, &e.value));
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The LRU list from the head, checked against the walk from the tail.
    fn lru_order(c: &SlabCache<u64>) -> Vec<Key> {
        let walk = |start: Option<Key>, step: fn(&Entry<u64>) -> Option<Key>| {
            std::iter::successors(start, |&k| step(c.index.get(k).expect("linked key")))
                .collect::<Vec<Key>>()
        };
        let forward = walk(c.head, |e| e.next);
        let mut backward = walk(c.tail, |e| e.prev);
        backward.reverse();
        assert_eq!(forward, backward, "the LRU links disagree");
        forward
    }

    /// A most-recently-used list of `(key, value)` holding `slots` entries:
    /// the reference the slab cache's LRU must agree with.
    struct Mru {
        entries: Vec<(Key, u64)>,
        slots: usize,
        evictions: u64,
    }

    impl Mru {
        fn take(&mut self, key: Key) -> Option<(Key, u64)> {
            let i = self.entries.iter().position(|&(k, _)| k == key)?;
            Some(self.entries.remove(i))
        }

        fn put(&mut self, key: Key, value: u64) -> Option<u64> {
            let old = self.take(key).map(|(_, v)| v);
            if self.entries.len() == self.slots {
                self.entries.pop();
                self.evictions += 1;
            }
            self.entries.insert(0, (key, value));
            old
        }

        fn promote(&mut self, key: Key) -> Option<u64> {
            let entry = self.take(key)?;
            self.entries.insert(0, entry);
            Some(entry.1)
        }
    }

    proptest! {
        /// `get_mut` and `get_or_insert_with` promote a key as the
        /// remove-and-relink of a most-recently-used list does, and insert
        /// an absent key as `put` does: same values, evictions and order.
        #[test]
        fn promotion_matches_a_most_recently_used_list(
            ops in proptest::collection::vec((0u8..3, 0u64..12, any::<u64>()), 1..400),
        ) {
            let mut mru = Mru { entries: Vec::new(), slots: 6, evictions: 0 };
            let mut c = SlabCache::with_capacity_bytes(mru.slots * MIN_CHUNK);
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(c.put(key, value), mru.put(key, value)),
                    1 => prop_assert_eq!(c.get_mut(key).copied(), mru.promote(key)),
                    _ => {
                        let expected = mru.promote(key).unwrap_or_else(|| {
                            mru.put(key, value);
                            value
                        });
                        prop_assert_eq!(*c.get_or_insert_with(key, || value), expected);
                    }
                }
                let keys: Vec<Key> = mru.entries.iter().map(|&(k, _)| k).collect();
                prop_assert_eq!(lru_order(&c), keys);
                prop_assert_eq!(c.evictions(), mru.evictions);
            }
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = SlabCache::with_capacity_bytes(192); // three 64B chunks
        c.put(1, 1u64);
        c.put(2, 2u64);
        c.put(3, 3u64);
        // Touch 1 so 2 becomes the LRU victim.
        c.get_mut(1);
        c.put(4, 4u64);
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn update_does_not_grow_len() {
        let mut c = SlabCache::with_capacity_bytes(1024);
        c.put(7, 1u64);
        assert_eq!(c.put(7, 2u64), Some(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(7), Some(&2));
    }

    #[test]
    fn slab_classes_quantize_sizes() {
        let mut c: SlabCache<Vec<u8>> = SlabCache::with_capacity_bytes(4096);
        c.put(1, vec![0u8; 10]); // 64 B class
        c.put(2, vec![0u8; 100]); // 128 B class
        c.put(3, vec![0u8; 100]);
        let stats = c.class_stats();
        assert_eq!(stats[0].entries, 1);
        assert_eq!(stats[0].chunk_bytes, 64);
        assert_eq!(stats[1].entries, 2);
        assert_eq!(stats[1].chunk_bytes, 128);
        assert_eq!(c.used_bytes(), 64 + 128 + 128);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = SlabCache::with_capacity_bytes(640); // ten 64B chunks
        for k in 0..100u64 {
            c.put(k, k);
        }
        assert!(c.len() <= 10);
        assert!(c.used_bytes() <= 640);
        assert_eq!(c.evictions(), 90);
        // The most recent keys survive.
        for k in 90..100u64 {
            assert!(c.contains(k), "recent key {k} was evicted");
        }
    }

    #[test]
    fn single_entry_lru_list_stays_consistent() {
        let mut c = SlabCache::with_capacity_bytes(64);
        c.put(1, 1u64);
        c.put(2, 2u64); // evicts 1 (only chunk)
        assert_eq!(c.len(), 1);
        assert!(c.contains(2));
        assert_eq!(lru_order(&c), vec![2]);
        c.put(3, 3u64); // evicts 2, the head and tail at once
        assert_eq!(lru_order(&c), vec![3]);
        assert_eq!(c.evictions(), 2);
    }
}
