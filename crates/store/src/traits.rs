//! The common interface of all key-value backends.

/// Key type used throughout the DDP stack.
///
/// Keys are 64-bit identifiers; the workload generator draws them from a
/// Zipfian distribution and the protocol engine maps them to memory
/// addresses. Applications with string keys hash them to a `Key` first.
pub type Key = u64;

/// A key-value store backend.
///
/// The paper evaluates memcached plus simpler in-memory stores (HashTable,
/// Map, B-Tree, B+Tree) under every DDP model; all of them implement this
/// trait so the replication engine is store-agnostic. It holds only what
/// the engine performs: point reads and upserts, the key count, and a
/// whole-store walk. No store deletes a key or scans a range.
///
/// # Examples
///
/// ```
/// use ddp_store::{HashTable, KvStore};
///
/// let mut store = HashTable::new();
/// assert_eq!(store.put(1, "a"), None);
/// assert_eq!(store.put(1, "b"), Some("a"));
/// assert_eq!(store.get(1), Some(&"b"));
/// assert_eq!(store.len(), 1);
/// ```
pub trait KvStore<V> {
    /// Returns a reference to the value for `key`, if present.
    fn get(&self, key: Key) -> Option<&V>;

    /// Returns a mutable reference to the value for `key`, if present.
    fn get_mut(&mut self, key: Key) -> Option<&mut V>;

    /// Inserts `value` for `key`, returning the previous value if any.
    fn put(&mut self, key: Key, value: V) -> Option<V>;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Returns `true` if the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `key` is present.
    fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Visits every entry once, in a deterministic order: ascending keys
    /// for the AVL map, the trees and the LSM store, slot order for the
    /// hash table and the slab cache. The crash path's stale-key list and
    /// `crash_snapshot` inherit it.
    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V));
}
