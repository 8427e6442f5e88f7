//! # ddp-store — key-value store backends for the DDP evaluation
//!
//! The paper drives its 25 DDP protocol variants with YCSB requests against
//! memcached and several simpler in-memory stores: HashTable, Map, B-Tree,
//! and B+Tree (§7). This crate implements all five shapes from scratch
//! behind one [`KvStore`] trait, so the replication engine in `ddp-core`
//! is store-agnostic. The trait holds only what the engine's YCSB-style
//! traffic performs: point reads and upserts (`get`, `get_mut`, `put`),
//! `len`, and a whole-store walk (`for_each`) for crash snapshots; the
//! hash-indexed stores add a one-probe `get_or_insert_with`. No store
//! operation deletes a key or scans a range; [`HashTable::remove`] serves
//! the slab cache's eviction and `ddp-core`'s transaction registry:
//!
//! * [`HashTable`] — a Robin Hood index of 8-byte slots (a key
//!   fingerprint and an entry position) over entries in fixed-size chunks
//!   that never move;
//! * [`AvlMap`] — balanced ordered map (the `std::map` role);
//! * [`BTree`] — B-tree with values in every node (the cpp-btree role);
//! * [`BPlusTree`] — B+tree with linked leaves (the TLX role);
//! * [`SlabCache`] — memcached-like bounded cache with slab classes and
//!   LRU eviction.
//!
//! A sixth, beyond-the-paper shape opens the amortized-persistence
//! scenario:
//!
//! * [`LsmStore`] — Spine-style log-structured store (a memtable sorted
//!   when it seals, immutable sealed batches, leveled merge-compaction;
//!   runs carry keys, values live once in an index) that reports its
//!   background work as [`LsmWork`] for the simulator to cost.
//!
//! All stores are deterministic: no hashing randomness, no allocation-order
//! dependence, which the simulator's reproducibility requires.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod avlmap;
mod bplustree;
mod btree;
mod hashtable;
mod lsm;
mod slab;
mod traits;

pub use avlmap::AvlMap;
pub use bplustree::BPlusTree;
pub use btree::BTree;
pub use hashtable::HashTable;
pub use lsm::{LsmStore, LsmWork, DEFAULT_FANOUT, DEFAULT_MEMTABLE_ENTRIES};
pub use slab::{SlabCache, SlabClassStats, SlabSized};
pub use traits::{Key, KvStore};

/// The store shapes evaluated in the paper, for configuration surfaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// Open-addressing hash table.
    HashTable,
    /// Ordered map (AVL).
    Map,
    /// B-tree.
    BTree,
    /// B+tree.
    BPlusTree,
    /// Memcached-like slab cache.
    Memcached,
    /// Log-structured store with background compaction (beyond-paper).
    Lsm,
}

impl StoreKind {
    /// The store kinds in the paper's evaluation order. [`StoreKind::Lsm`]
    /// is deliberately excluded: paper-reproduction sweeps average over
    /// the paper's five applications, and the LSM tier rides its own
    /// compaction sweeps.
    pub const ALL: [StoreKind; 5] = [
        StoreKind::Memcached,
        StoreKind::HashTable,
        StoreKind::Map,
        StoreKind::BTree,
        StoreKind::BPlusTree,
    ];

    /// Parses a store name as printed by `Display` (`hashtable`, `map`,
    /// `btree`, `bplustree`, `memcached`, `lsm`).
    #[must_use]
    pub fn parse_name(name: &str) -> Option<StoreKind> {
        Some(match name {
            "hashtable" => StoreKind::HashTable,
            "map" => StoreKind::Map,
            "btree" => StoreKind::BTree,
            "bplustree" => StoreKind::BPlusTree,
            "memcached" => StoreKind::Memcached,
            "lsm" => StoreKind::Lsm,
            _ => return None,
        })
    }
}

impl std::fmt::Display for StoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            StoreKind::HashTable => "hashtable",
            StoreKind::Map => "map",
            StoreKind::BTree => "btree",
            StoreKind::BPlusTree => "bplustree",
            StoreKind::Memcached => "memcached",
            StoreKind::Lsm => "lsm",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait object form must be usable for store-agnostic code.
    #[test]
    fn stores_work_as_trait_objects() {
        let mut stores: Vec<Box<dyn KvStore<u64>>> = vec![
            Box::new(HashTable::new()),
            Box::new(AvlMap::new()),
            Box::new(BTree::new()),
            Box::new(BPlusTree::new()),
            Box::new(SlabCache::with_capacity_bytes(1 << 20)),
            Box::new(LsmStore::new()),
        ];
        for s in &mut stores {
            for k in 0..100u64 {
                s.put(k, k + 1);
            }
            assert_eq!(s.len(), 100);
            assert_eq!(s.get(50), Some(&51));
            *s.get_mut(50).expect("present") += 1;
            assert_eq!(s.put(50, 0), Some(52));
            assert!(!s.contains(100));
        }
    }

    #[test]
    fn store_kind_displays() {
        assert_eq!(StoreKind::Memcached.to_string(), "memcached");
        assert_eq!(StoreKind::Lsm.to_string(), "lsm");
        assert_eq!(StoreKind::ALL.len(), 5, "the paper's five applications");
        assert!(!StoreKind::ALL.contains(&StoreKind::Lsm));
    }

    #[test]
    fn store_kind_names_round_trip() {
        for kind in StoreKind::ALL.into_iter().chain([StoreKind::Lsm]) {
            assert_eq!(StoreKind::parse_name(&kind.to_string()), Some(kind));
        }
        assert_eq!(StoreKind::parse_name("rocksdb"), None);
        assert_eq!(StoreKind::parse_name("LSM"), None, "names are lowercase");
    }
}
