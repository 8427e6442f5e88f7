//! A Spine-style log-structured merge (LSM) store.
//!
//! Writes append their keys to a mutable **memtable**. When the memtable
//! reaches its seal threshold its keys are sorted, once, into an immutable
//! **batch** at level 0;
//! when a level accumulates `fanout` batches they merge into one batch at
//! the next level, the sorted union of their keys — the shape mirrors the
//! DBSP Spine trace (SNIPPETS.md).
//!
//! Runs carry keys only. The newest value of each key lives once, in a
//! [`HashTable`] index, so a point read is one probe, a walk sorts the
//! index's keys, and a run's seal or merge moves no values. Each value is
//! stamped with the memtable generation (the seal count) at which its key
//! last entered the memtable, so an upsert of a key already there needs no
//! run search.
//!
//! Sealing and merging are applied *eagerly* to the logical state; what is
//! deferred is their **cost**. Each seal/merge pushes an [`LsmWork`] item
//! that `ddp-core` drains and charges against NVM bank bandwidth as
//! background writes, so foreground persists queue behind compaction
//! bursts. The store itself stays deterministic and simulator-agnostic.
//!
//! ```
//! use ddp_store::{KvStore, LsmStore};
//!
//! let mut store = LsmStore::with_thresholds(4, 2);
//! for k in 0..20u64 {
//!     store.put(k, k * 10);
//! }
//! assert_eq!(store.get(7), Some(&70));
//! assert_eq!(store.put(7, 71), Some(70));
//! assert_eq!(store.len(), 20);
//! assert!(store.seals() > 0, "writes crossed the seal threshold");
//! let work = store.take_work();
//! assert!(!work.is_empty(), "compaction work awaits the simulator");
//! ```

use crate::hashtable::HashTable;
use crate::traits::{Key, KvStore};

/// Default memtable seal threshold (entries).
pub const DEFAULT_MEMTABLE_ENTRIES: usize = 256;

/// Default level fanout: batches a level accumulates before merging.
pub const DEFAULT_FANOUT: usize = 4;

/// One unit of background compaction work the store has generated. The
/// store applies the *logical* effect eagerly; the simulator drains these
/// items and charges their byte volume to NVM bank bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LsmWork {
    /// The memtable sealed into a level-0 batch.
    Seal {
        /// Entries written out by the seal.
        entries: u64,
    },
    /// Every batch of `level` merged into one batch at `level + 1`.
    Merge {
        /// The source level of the merge.
        level: u32,
        /// Total input entries rewritten by the merge.
        entries: u64,
    },
}

impl LsmWork {
    /// Entries moved by this work item (the byte-volume raw material).
    #[must_use]
    pub fn entries(&self) -> u64 {
        match *self {
            LsmWork::Seal { entries } | LsmWork::Merge { entries, .. } => entries,
        }
    }
}

/// One run of keys. The memtable is the one mutable run, its keys in
/// arrival order until the seal sorts them; sealed batches are sorted and
/// never change. Runs carry no values: the newest value of every key is
/// held once, in the store's index.
type Run = Vec<Key>;

/// A value, stamped with the memtable generation (the seal count) at
/// which its key last entered the memtable. The key is in the current
/// memtable exactly when the stamp equals the store's seal count.
#[derive(Clone, Debug)]
struct Stamped<V> {
    value: V,
    generation: u64,
}

/// The memtable and the leveled batches, with the work their seals and
/// merges have generated.
#[derive(Clone, Debug)]
struct Runs {
    memtable: Run,
    /// `levels[0]` is the newest level.
    levels: Vec<Vec<Run>>,
    memtable_cap: usize,
    fanout: usize,
    work: Vec<LsmWork>,
    seals: u64,
    merges: u64,
}

impl Runs {
    /// Writes `key`, which is not in the memtable, into it, sealing first
    /// if the memtable is full. Returns the memtable generation that now
    /// holds the key.
    fn enter(&mut self, key: Key) -> u64 {
        debug_assert!(
            !self.memtable.contains(&key),
            "key {key} is in the memtable, so its stamp is current"
        );
        if self.memtable.len() >= self.memtable_cap {
            self.seal();
        }
        self.memtable.push(key);
        self.seals
    }

    /// Sorts the memtable into a level-0 batch and cascades any merges it
    /// triggers. A no-op on an empty memtable.
    fn seal(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.memtable);
        // The generation stamps keep each key out of a memtable that holds
        // it, so the keys are distinct and an unstable sort is exact.
        batch.sort_unstable();
        let n = batch.len() as u64;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(batch);
        self.seals += 1;
        self.work.push(LsmWork::Seal { entries: n });
        self.maybe_merge(0);
    }

    /// Merges any level that has reached the fanout, cascading downward.
    fn maybe_merge(&mut self, mut level: usize) {
        while self
            .levels
            .get(level)
            .is_some_and(|l| l.len() >= self.fanout)
        {
            let batches = std::mem::take(&mut self.levels[level]);
            let input: u64 = batches.iter().map(|b| b.len() as u64).sum();
            let merged = merge_runs(batches);
            if self.levels.len() <= level + 1 {
                self.levels.push(Vec::new());
            }
            self.levels[level + 1].push(merged);
            self.merges += 1;
            self.work.push(LsmWork::Merge {
                level: level as u32,
                entries: input,
            });
            level += 1;
        }
    }
}

/// The log-structured store: a mutable memtable over leveled immutable
/// sorted batches of keys, and an index holding each key's newest
/// value. See the module docs for the lifecycle.
#[derive(Clone, Debug)]
pub struct LsmStore<V> {
    /// The newest value of every key.
    values: HashTable<Stamped<V>>,
    runs: Runs,
}

impl<V> LsmStore<V> {
    /// A store with the default seal threshold and fanout.
    #[must_use]
    pub fn new() -> Self {
        LsmStore::with_thresholds(DEFAULT_MEMTABLE_ENTRIES, DEFAULT_FANOUT)
    }

    /// A store that seals at `memtable_entries` entries and merges a level
    /// once it holds `fanout` batches.
    ///
    /// # Panics
    ///
    /// Panics if `memtable_entries` is zero or `fanout < 2`.
    #[must_use]
    pub fn with_thresholds(memtable_entries: usize, fanout: usize) -> Self {
        assert!(memtable_entries > 0, "memtable threshold must be non-zero");
        assert!(fanout >= 2, "fanout below 2 merges forever");
        LsmStore {
            values: HashTable::new(),
            runs: Runs {
                memtable: Run::new(),
                levels: Vec::new(),
                memtable_cap: memtable_entries,
                fanout,
                work: Vec::new(),
                seals: 0,
                merges: 0,
            },
        }
    }

    /// Drains the accumulated background work (oldest first).
    #[must_use]
    pub fn take_work(&mut self) -> Vec<LsmWork> {
        std::mem::take(&mut self.runs.work)
    }

    /// Whether undrained background work is pending.
    #[must_use]
    pub fn has_work(&self) -> bool {
        !self.runs.work.is_empty()
    }

    /// Memtable seals performed over the store's lifetime.
    #[must_use]
    pub fn seals(&self) -> u64 {
        self.runs.seals
    }

    /// Level merges performed over the store's lifetime.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.runs.merges
    }

    /// Entries currently in the mutable memtable.
    #[must_use]
    pub fn memtable_len(&self) -> usize {
        self.runs.memtable.len()
    }

    /// Immutable batches currently alive across all levels.
    #[must_use]
    pub fn batch_count(&self) -> usize {
        self.runs.levels.iter().map(Vec::len).sum()
    }

    /// The value of `key`, inserting `fill()` if the key has no value:
    /// equivalent to `contains`, then `put` if absent, then `get_mut`,
    /// with the same state, length, memtable and work list. A key in the
    /// memtable costs one index probe; a key outside it enters the
    /// memtable, as [`KvStore::get_mut`] promotes it.
    pub fn get_or_insert_with(&mut self, key: Key, fill: impl FnOnce() -> V) -> &mut V {
        let generation = self.runs.seals;
        // A fresh value's stamp matches no generation, so it enters below.
        let slot = self.values.get_or_insert_with(key, || Stamped {
            value: fill(),
            generation: u64::MAX,
        });
        if slot.generation != generation {
            slot.generation = self.runs.enter(key);
        }
        &mut slot.value
    }
}

impl<V> Default for LsmStore<V> {
    fn default() -> Self {
        LsmStore::new()
    }
}

/// The sorted union of the keys of owned runs.
fn merge_runs(runs: Vec<Run>) -> Run {
    let mut out = Run::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        out.extend(run);
    }
    // The stable sort finds the concatenated sorted runs and merges them,
    // which costs less per key than an unstable sort or a k-way merge.
    out.sort();
    out.dedup();
    out
}

impl<V> KvStore<V> for LsmStore<V> {
    fn get(&self, key: Key) -> Option<&V> {
        self.values.get(key).map(|s| &s.value)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        // Batches are immutable: a key living only in a batch is promoted
        // into the memtable, where it shadows the batch entry — an LSM
        // write, so it counts toward the seal threshold.
        let generation = self.runs.seals;
        let slot = self.values.get_mut(key)?;
        if slot.generation != generation {
            slot.generation = self.runs.enter(key);
        }
        Some(&mut slot.value)
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        let generation = self.runs.seals;
        match self.values.get_mut(key) {
            Some(slot) => {
                if slot.generation != generation {
                    slot.generation = self.runs.enter(key);
                }
                Some(std::mem::replace(&mut slot.value, value))
            }
            None => {
                let generation = self.runs.enter(key);
                self.values.put(key, Stamped { value, generation });
                None
            }
        }
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Visits every entry in ascending key order. The index holds exactly
    /// the store's keys, so the walk sorts them instead of merging the
    /// runs.
    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        let mut live: Vec<(Key, &'a V)> = Vec::new();
        self.values.for_each(&mut |k, s| live.push((k, &s.value)));
        live.sort_unstable_by_key(|&(k, _)| k);
        for (k, v) in live {
            f(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avlmap::AvlMap;
    use proptest::prelude::*;

    /// The entries `for_each` visits, in visit order.
    fn entries(store: &impl KvStore<u64>) -> Vec<(Key, u64)> {
        let mut out = Vec::new();
        store.for_each(&mut |k, v| out.push((k, *v)));
        out
    }

    #[test]
    fn round_trips_across_seal_boundaries() {
        let mut store = LsmStore::with_thresholds(4, 2);
        for k in 0..100u64 {
            assert_eq!(store.put(k, k + 1), None);
        }
        assert_eq!(store.len(), 100);
        assert!(store.seals() >= 24, "the memtable must have sealed");
        for k in 0..100 {
            assert_eq!(store.get(k), Some(&(k + 1)), "key {k}");
        }
        assert_eq!(store.get(100), None);
    }

    #[test]
    fn newest_value_shadows_batches() {
        let mut store = LsmStore::with_thresholds(2, 2);
        store.put(5, 1);
        store.put(6, 1);
        store.put(7, 1); // seals {5,6}
        assert_eq!(store.put(5, 2), Some(1), "old value recovered from a batch");
        assert_eq!(store.get(5), Some(&2));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn get_mut_promotes_batch_values_into_the_memtable() {
        let mut store = LsmStore::with_thresholds(2, 2);
        store.put(1, 10);
        store.put(2, 20);
        store.put(3, 30); // seals {1,2}
        assert_eq!(store.memtable_len(), 1);
        *store.get_mut(1).expect("present") += 5;
        assert_eq!(store.get(1), Some(&15));
        assert_eq!(store.memtable_len(), 2, "the value moved to the memtable");
        assert_eq!(store.get_mut(99), None);
    }

    #[test]
    fn work_items_record_seals_and_cascading_merges() {
        let mut store = LsmStore::with_thresholds(2, 2);
        // 4 seals of 2 entries: L0 merges at 2 batches, twice; the two L1
        // batches then merge to L2.
        for k in 0..9u64 {
            store.put(k, k);
        }
        let work = store.take_work();
        assert!(!store.has_work());
        let seals = work
            .iter()
            .filter(|w| matches!(w, LsmWork::Seal { .. }))
            .count();
        let merges: Vec<u32> = work
            .iter()
            .filter_map(|w| match w {
                LsmWork::Merge { level, .. } => Some(*level),
                LsmWork::Seal { .. } => None,
            })
            .collect();
        assert_eq!(seals as u64, store.seals());
        assert_eq!(merges.len() as u64, store.merges());
        assert_eq!(merges, vec![0, 0, 1], "two L0 merges cascade into one L1");
        assert!(work.iter().all(|w| w.entries() > 0));
        for k in 0..9 {
            assert_eq!(store.get(k), Some(&k));
        }
    }

    #[test]
    fn in_order_walk_is_sorted_and_deduplicated() {
        let mut store = LsmStore::with_thresholds(2, 2);
        for k in [5u64, 3, 5, 9, 3, 1, 5, 7] {
            store.put(k, k);
        }
        let keys: Vec<Key> = entries(&store).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        assert_eq!(store.len(), keys.len());
    }

    proptest! {
        /// The one-pass upsert leaves the store exactly as the three-call
        /// sequence it replaces: `contains`, `put` of the default if
        /// absent, then `get_mut`. Small thresholds make upserts promote
        /// batch values and seal.
        #[test]
        fn one_pass_upsert_matches_contains_put_get_mut(
            keys in proptest::collection::vec(0u64..24, 1..400),
            cap in 1usize..6,
            fanout in 2usize..4,
        ) {
            let mut fused: LsmStore<u64> = LsmStore::with_thresholds(cap, fanout);
            let mut three: LsmStore<u64> = LsmStore::with_thresholds(cap, fanout);
            for key in keys {
                let a = fused.get_or_insert_with(key, || 7);
                *a += 1;
                let a = *a;
                if !three.contains(key) {
                    three.put(key, 7);
                }
                let b = three.get_mut(key).expect("inserted above");
                *b += 1;
                prop_assert_eq!(a, *b);
                prop_assert_eq!(fused.len(), three.len());
                prop_assert_eq!(fused.memtable_len(), three.memtable_len());
                prop_assert_eq!(fused.batch_count(), three.batch_count());
                prop_assert_eq!(fused.take_work(), three.take_work());
            }
            prop_assert_eq!(entries(&fused), entries(&three));
        }

        /// Differential test against the AVL map over random operation
        /// sequences with small thresholds, so runs routinely cross seal
        /// and cascading-merge boundaries.
        #[test]
        fn random_workout_matches_the_avl_model(
            ops in proptest::collection::vec((0u8..3, 0u64..24, 0u64..1000), 1..400),
            cap in 1usize..6,
            fanout in 2usize..4,
        ) {
            let mut lsm = LsmStore::with_thresholds(cap, fanout);
            let mut model: AvlMap<u64> = AvlMap::new();
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(lsm.put(key, value), model.put(key, value)),
                    1 => prop_assert_eq!(lsm.get(key), model.get(key)),
                    _ => {
                        let a = lsm.get_mut(key).map(|v| { *v += 1; *v });
                        let b = model.get_mut(key).map(|v| { *v += 1; *v });
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(lsm.len(), model.len());
            }
            prop_assert_eq!(entries(&lsm), entries(&model));
        }
    }
}
