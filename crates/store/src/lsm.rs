//! A Spine-style log-structured merge (LSM) store.
//!
//! Writes land in a sorted mutable **memtable**. When the memtable reaches
//! its seal threshold it becomes an immutable sorted **batch** at level 0;
//! when a level accumulates `fanout` batches they merge into one batch at
//! the next level, the newest value winning per key and tombstones
//! surviving until the merge output is the oldest data in the store
//! (dropping one earlier could resurrect a shadowed older value). Reads
//! walk a merging cursor over the memtable and every batch, newest first,
//! so the store is always consistent — the shape mirrors the DBSP Spine
//! trace (SNIPPETS.md).
//!
//! Sealing and merging are applied *eagerly* to the logical state; what is
//! deferred is their **cost**. Each seal/merge pushes an [`LsmWork`] item
//! that `ddp-core` drains and charges against NVM bank bandwidth as
//! background writes, so foreground persists queue behind compaction
//! bursts. The store itself stays deterministic and simulator-agnostic.
//!
//! ```
//! use ddp_store::{KvStore, LsmStore, OrderedKvStore};
//!
//! let mut store = LsmStore::with_thresholds(4, 2);
//! for k in 0..20u64 {
//!     store.put(k, k * 10);
//! }
//! assert_eq!(store.get(7), Some(&70));
//! assert_eq!(store.remove(7), Some(70));
//! assert_eq!(store.len(), 19);
//! assert!(store.seals() > 0, "writes crossed the seal threshold");
//! let work = store.take_work();
//! assert!(!work.is_empty(), "compaction work awaits the simulator");
//! assert_eq!(store.range_inclusive(5, 9).len(), 4); // 7 is gone
//! ```

use crate::traits::{Key, KvStore, OrderedKvStore};

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

/// One sorted run: a dense key array, binary-searched without touching
/// the values, beside the values in the same order; `None` values are
/// tombstones. The memtable is the one mutable run; sealed batches never
/// change.
#[derive(Clone, Debug)]
struct Run<V> {
    keys: Vec<Key>,
    vals: Vec<Option<V>>,
}

impl<V> Default for Run<V> {
    fn default() -> Self {
        Run {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<V> Run<V> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn find(&self, key: Key) -> Result<usize, usize> {
        self.keys.binary_search(&key)
    }

    fn get(&self, key: Key) -> Option<&Option<V>> {
        self.find(key).ok().map(|i| &self.vals[i])
    }

    fn insert(&mut self, i: usize, key: Key, entry: Option<V>) {
        self.keys.insert(i, key);
        self.vals.insert(i, entry);
    }
}

/// The log-structured store: a sorted mutable memtable over leveled
/// immutable batches. See the module docs for the lifecycle.
#[derive(Clone, Debug)]
pub struct LsmStore<V> {
    memtable: Run<V>,
    /// `levels[0]` is the newest level; within a level, later batches are
    /// newer and shadow earlier ones.
    levels: Vec<Vec<Run<V>>>,
    memtable_cap: usize,
    fanout: usize,
    /// Live keys (tombstones and shadowed duplicates excluded).
    live: usize,
    work: Vec<LsmWork>,
    seals: u64,
    merges: u64,
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
            memtable: Run::default(),
            levels: Vec::new(),
            memtable_cap: memtable_entries,
            fanout,
            live: 0,
            work: Vec::new(),
            seals: 0,
            merges: 0,
        }
    }

    /// Drains the accumulated background work (oldest first).
    #[must_use]
    pub fn take_work(&mut self) -> Vec<LsmWork> {
        std::mem::take(&mut self.work)
    }

    /// Whether undrained background work is pending.
    #[must_use]
    pub fn has_work(&self) -> bool {
        !self.work.is_empty()
    }

    /// Memtable seals performed over the store's lifetime.
    #[must_use]
    pub fn seals(&self) -> u64 {
        self.seals
    }

    /// Level merges performed over the store's lifetime.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Entries currently in the mutable memtable (tombstones included).
    #[must_use]
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Immutable batches currently alive across all levels.
    #[must_use]
    pub fn batch_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Levels currently allocated (deepest may be empty after a merge).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The newest entry for `key` anywhere in the store; `Some(&None)` is
    /// a live tombstone, `None` means the key was never written (or was
    /// merged out entirely).
    fn lookup(&self, key: Key) -> Option<&Option<V>> {
        self.memtable.get(key).or_else(|| self.lookup_batches(key))
    }

    /// [`Self::lookup`] below the memtable: the sealed batches, newest
    /// first.
    fn lookup_batches(&self, key: Key) -> Option<&Option<V>> {
        for level in &self.levels {
            for batch in level.iter().rev() {
                if let Some(entry) = batch.get(key) {
                    return Some(entry);
                }
            }
        }
        None
    }

    /// Writes `entry` into the memtable, sealing first if a fresh slot
    /// would overflow the threshold.
    fn insert_slot(&mut self, key: Key, entry: Option<V>) {
        match self.memtable.find(key) {
            Ok(i) => self.memtable.vals[i] = entry,
            Err(i) => {
                self.insert_fresh(i, key, entry);
            }
        }
    }

    /// Inserts a key the memtable lacks at its sorted position `i`,
    /// sealing first if the memtable is full; returns the entry's index.
    fn insert_fresh(&mut self, i: usize, key: Key, entry: Option<V>) -> usize {
        if self.memtable.len() >= self.memtable_cap {
            self.seal();
            self.memtable.insert(0, key, entry);
            0
        } else {
            self.memtable.insert(i, key, entry);
            i
        }
    }

    /// Seals the memtable into a level-0 batch and cascades any merges it
    /// triggers. A no-op on an empty memtable.
    fn seal(&mut self) {
        if self.memtable.len() == 0 {
            return;
        }
        let batch = std::mem::take(&mut self.memtable);
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
            // Tombstones may be dropped only when the merge output becomes
            // the oldest data in the store; otherwise they must keep
            // shadowing older values below.
            let oldest = self.levels.iter().skip(level + 1).all(Vec::is_empty);
            let merged = merge_runs(batches, oldest);
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

    /// The merging cursor: visits every live key in `[lo, hi]` exactly
    /// once, ascending, newest value winning.
    fn visit_range<'a>(&'a self, lo: Key, hi: Key, f: &mut dyn FnMut(Key, &'a V)) {
        if lo > hi {
            return;
        }
        // Sources in newest-to-oldest priority order: the memtable, then
        // each level shallow-to-deep, batches within a level newest first.
        let mut srcs: Vec<&'a Run<V>> = vec![&self.memtable];
        for level in &self.levels {
            srcs.extend(level.iter().rev());
        }
        let mut idx: Vec<usize> = srcs
            .iter()
            .map(|s| s.keys.partition_point(|&k| k < lo))
            .collect();
        loop {
            let mut best: Option<(Key, usize)> = None;
            for (si, s) in srcs.iter().enumerate() {
                if let Some(&k) = s.keys.get(idx[si]) {
                    if k <= hi && best.map_or(true, |(bk, _)| k < bk) {
                        best = Some((k, si));
                    }
                }
            }
            let Some((k, winner)) = best else { break };
            let entry = &srcs[winner].vals[idx[winner]];
            for (si, s) in srcs.iter().enumerate() {
                if s.keys.get(idx[si]) == Some(&k) {
                    idx[si] += 1;
                }
            }
            if let Some(v) = entry.as_ref() {
                f(k, v);
            }
        }
    }
}

impl<V: Clone> LsmStore<V> {
    /// The value of `key`, inserting `fill()` if the key has no live
    /// value, in one pass over the runs: equivalent to `contains`, then
    /// `put` if absent, then `get_mut`, with the same state, length,
    /// memtable and work list. A value living only in a batch is promoted
    /// into the memtable, as [`KvStore::get_mut`] does.
    pub fn get_or_insert_with(&mut self, key: Key, fill: impl FnOnce() -> V) -> &mut V {
        let i = match self.memtable.find(key) {
            Ok(i) => i,
            Err(i) => {
                let promoted = self.lookup_batches(key).cloned().flatten();
                self.insert_fresh(i, key, promoted)
            }
        };
        let entry = &mut self.memtable.vals[i];
        if entry.is_none() {
            self.live += 1;
        }
        entry.get_or_insert_with(fill)
    }
}

impl<V> Default for LsmStore<V> {
    fn default() -> Self {
        LsmStore::new()
    }
}

/// K-way merges owned runs (later = newer) into one sorted run, dropping
/// tombstones when the output becomes the store's oldest data.
fn merge_runs<V>(runs: Vec<Run<V>>, drop_tombstones: bool) -> Run<V> {
    let mut srcs: Vec<_> = runs
        .into_iter()
        .map(|r| r.keys.into_iter().zip(r.vals).peekable())
        .collect();
    let mut out = Run::default();
    while let Some(k) = srcs.iter_mut().filter_map(|s| s.peek().map(|e| e.0)).min() {
        let mut newest = None;
        // Later sources are newer, so the last entry taken for `k` wins.
        for s in &mut srcs {
            if let Some((_, entry)) = s.next_if(|e| e.0 == k) {
                newest = Some(entry);
            }
        }
        match newest {
            Some(None) if drop_tombstones => {}
            Some(entry) => {
                out.keys.push(k);
                out.vals.push(entry);
            }
            None => unreachable!("a source held the minimum key"),
        }
    }
    out
}

impl<V: Clone> KvStore<V> for LsmStore<V> {
    fn get(&self, key: Key) -> Option<&V> {
        self.lookup(key).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        // Batches are immutable: a value living only in a batch is
        // promoted (cloned) into the memtable, where it shadows the batch
        // copy — an LSM write, so it counts toward the seal threshold.
        let i = match self.memtable.find(key) {
            Ok(i) => i,
            Err(i) => {
                let promoted = match self.lookup_batches(key) {
                    Some(Some(v)) => v.clone(),
                    _ => return None,
                };
                self.insert_fresh(i, key, Some(promoted))
            }
        };
        self.memtable.vals[i].as_mut()
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        let old = self.get(key).cloned();
        self.insert_slot(key, Some(value));
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    fn remove(&mut self, key: Key) -> Option<V> {
        let old = self.get(key).cloned()?;
        // A tombstone shadows every older copy until a bottom-level merge
        // retires it; removes of keys that were never written stay no-ops.
        self.insert_slot(key, None);
        self.live -= 1;
        Some(old)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        self.visit_range(Key::MIN, Key::MAX, f);
    }
}

impl<V: Clone> OrderedKvStore<V> for LsmStore<V> {
    fn for_each_in_order<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        self.visit_range(Key::MIN, Key::MAX, f);
    }

    fn range_inclusive(&self, lo: Key, hi: Key) -> Vec<(Key, &V)> {
        let mut out = Vec::new();
        self.visit_range(lo, hi, &mut |k, v| out.push((k, v)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avlmap::AvlMap;
    use proptest::prelude::*;

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
    fn tombstones_delete_across_levels_and_merge_out_at_the_bottom() {
        let mut store = LsmStore::with_thresholds(2, 2);
        for k in 0..8u64 {
            store.put(k, k);
        }
        assert_eq!(store.remove(0), Some(0), "victim lives deep in a batch");
        assert_eq!(store.get(0), None);
        assert_eq!(store.len(), 7);
        assert_eq!(store.remove(0), None, "double delete is a no-op");
        // Push enough writes that every run reaches the bottom level; the
        // tombstone must never resurrect the old value.
        for k in 100..140u64 {
            store.put(k, k);
        }
        assert_eq!(store.get(0), None);
        assert_eq!(store.len(), 47);
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
    fn range_matches_the_default_oracle() {
        let mut store = LsmStore::with_thresholds(3, 2);
        for k in [9u64, 1, 4, 7, 2, 8, 3, 40, 11, 5] {
            store.put(k, k * 2);
        }
        store.remove(4);
        // The trait-default implementation (filtering a full in-order
        // walk) is the correctness oracle for the native cursor.
        let mut oracle = Vec::new();
        store.for_each_in_order(&mut |k, v| {
            if (2..=11).contains(&k) {
                oracle.push((k, *v));
            }
        });
        let native: Vec<(Key, u64)> = store
            .range_inclusive(2, 11)
            .into_iter()
            .map(|(k, v)| (k, *v))
            .collect();
        assert_eq!(native, oracle);
        assert_eq!(native.first(), Some(&(2, 4)));
        assert!(store.range_inclusive(12, 39).is_empty());
        assert!(store.range_inclusive(8, 3).is_empty(), "inverted bounds");
    }

    #[test]
    fn in_order_walk_is_sorted_and_deduplicated() {
        let mut store = LsmStore::with_thresholds(2, 2);
        for k in [5u64, 3, 5, 9, 3, 1, 5, 7] {
            store.put(k, k);
        }
        let keys = store.keys_in_order();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        assert_eq!(store.len(), keys.len());
    }

    proptest! {
        /// The one-pass upsert leaves the store exactly as the three-call
        /// sequence it replaces: `contains`, `put` of the default if
        /// absent, then `get_mut`. Removes leave tombstones in the
        /// memtable and in batches; small thresholds make upserts promote
        /// batch values and seal.
        #[test]
        fn one_pass_upsert_matches_contains_put_get_mut(
            ops in proptest::collection::vec((0u8..5, 0u64..24), 1..400),
            cap in 1usize..6,
            fanout in 2usize..4,
        ) {
            let mut fused: LsmStore<u64> = LsmStore::with_thresholds(cap, fanout);
            let mut three: LsmStore<u64> = LsmStore::with_thresholds(cap, fanout);
            for (op, key) in ops {
                if op == 0 {
                    prop_assert_eq!(fused.remove(key), three.remove(key));
                } else {
                    let a = fused.get_or_insert_with(key, || 7);
                    *a += 1;
                    let a = *a;
                    if !three.contains(key) {
                        three.put(key, 7);
                    }
                    let b = three.get_mut(key).expect("inserted above");
                    *b += 1;
                    prop_assert_eq!(a, *b);
                }
                prop_assert_eq!(fused.len(), three.len());
                prop_assert_eq!(fused.memtable_len(), three.memtable_len());
                prop_assert_eq!(fused.batch_count(), three.batch_count());
                prop_assert_eq!(fused.take_work(), three.take_work());
            }
            let a: Vec<(Key, u64)> =
                fused.range_inclusive(0, Key::MAX).into_iter().map(|(k, v)| (k, *v)).collect();
            let b: Vec<(Key, u64)> =
                three.range_inclusive(0, Key::MAX).into_iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(a, b);
        }

        /// Differential test against the AVL map over random operation
        /// sequences with small thresholds, so runs routinely cross seal
        /// and cascading-merge boundaries.
        #[test]
        fn random_workout_matches_the_avl_model(
            ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..1000), 1..400),
            cap in 1usize..6,
            fanout in 2usize..4,
        ) {
            let mut lsm = LsmStore::with_thresholds(cap, fanout);
            let mut model: AvlMap<u64> = AvlMap::new();
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(lsm.put(key, value), model.put(key, value)),
                    1 => prop_assert_eq!(lsm.remove(key), model.remove(key)),
                    2 => prop_assert_eq!(lsm.get(key), model.get(key)),
                    _ => {
                        let a = lsm.get_mut(key).map(|v| { *v += 1; *v });
                        let b = model.get_mut(key).map(|v| { *v += 1; *v });
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(lsm.len(), model.len());
            }
            let lo = 4u64;
            let hi = 19u64;
            let a: Vec<(Key, u64)> =
                lsm.range_inclusive(lo, hi).into_iter().map(|(k, v)| (k, *v)).collect();
            let b: Vec<(Key, u64)> =
                model.range_inclusive(lo, hi).into_iter().map(|(k, v)| (k, *v)).collect();
            prop_assert_eq!(a, b);
            prop_assert_eq!(lsm.keys_in_order(), model.keys_in_order());
        }
    }
}
