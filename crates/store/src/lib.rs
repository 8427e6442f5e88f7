//! # ddp-store — key-value store backends for the DDP evaluation
//!
//! The paper drives its 25 DDP protocol variants with YCSB requests against
//! memcached and several simpler in-memory stores: HashTable, Map, B-Tree,
//! and B+Tree (§7). This crate implements all five shapes from scratch
//! behind one [`KvStore`] trait, so the replication engine in `ddp-core`
//! is store-agnostic:
//!
//! * [`HashTable`] — open addressing with Robin Hood probing;
//! * [`AvlMap`] — balanced ordered map (the `std::map` role);
//! * [`BTree`] — B-tree with values in every node (the cpp-btree role);
//! * [`BPlusTree`] — B+tree with linked leaves and range scans (TLX role);
//! * [`SlabCache`] — memcached-like bounded cache with slab classes and
//!   LRU eviction.
//!
//! A sixth, beyond-the-paper shape opens the amortized-persistence
//! scenario:
//!
//! * [`LsmStore`] — Spine-style log-structured store (sorted memtable,
//!   immutable sealed batches, leveled merge-compaction) that reports its
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
pub use traits::{Key, KvStore, OrderedKvStore};

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
            assert_eq!(s.remove(50), Some(51));
            assert!(!s.contains(50));
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
