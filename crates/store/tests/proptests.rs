//! Property tests: every store backend must behave like the standard
//! library maps under arbitrary operation sequences.

use std::collections::BTreeMap;

use ddp_store::{AvlMap, BPlusTree, BTree, HashTable, KvStore, SlabCache};
use proptest::prelude::*;

/// An operation in a randomized store workout: the engine's point reads
/// and upserts.
#[derive(Clone, Debug)]
enum Op {
    Put(u64, u64),
    Get(u64),
    /// Adds the value to the key's value, if present.
    GetMut(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key universe maximizes collisions and structural churn.
    let key = 0u64..200;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Put(k, v)),
        key.clone().prop_map(Op::Get),
        (key, any::<u64>()).prop_map(|(k, v)| Op::GetMut(k, v)),
    ]
}

/// The entries `for_each` visits, in visit order.
fn walk<S: KvStore<u64>>(store: &S) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    store.for_each(&mut |k, v| out.push((k, *v)));
    out
}

fn check_against_model<S: KvStore<u64>>(store: &mut S, ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Put(k, v) => assert_eq!(store.put(k, v), model.insert(k, v)),
            Op::Get(k) => assert_eq!(store.get(k), model.get(&k)),
            Op::GetMut(k, v) => {
                let a = store.get_mut(k).map(|x| {
                    *x = x.wrapping_add(v);
                    *x
                });
                let b = model.get_mut(&k).map(|x| {
                    *x = x.wrapping_add(v);
                    *x
                });
                assert_eq!(a, b);
            }
        }
        assert_eq!(store.len(), model.len());
    }
    let mut entries = walk(store);
    entries.sort_unstable();
    assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hashtable_matches_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&mut HashTable::new(), &ops);
    }

    #[test]
    fn avlmap_matches_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&mut AvlMap::new(), &ops);
    }

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&mut BTree::new(), &ops);
    }

    #[test]
    fn bplustree_matches_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_against_model(&mut BPlusTree::new(), &ops);
    }

    /// The ordered stores walk in ascending key order, which the crash
    /// path's stale-key list and `crash_snapshot` inherit.
    #[test]
    fn ordered_stores_iterate_sorted(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut avl = AvlMap::new();
        let mut bt = BTree::new();
        let mut bpt = BPlusTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            if let Op::Put(k, v) = *op {
                avl.put(k, v);
                bt.put(k, v);
                bpt.put(k, v);
                model.insert(k, v);
            }
        }
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(walk(&avl), expect.clone());
        prop_assert_eq!(walk(&bt), expect.clone());
        prop_assert_eq!(walk(&bpt), expect);
    }

    #[test]
    fn slab_cache_never_exceeds_capacity(
        puts in prop::collection::vec((0u64..100, 0usize..300), 1..200),
        capacity_chunks in 2usize..20,
    ) {
        let capacity = capacity_chunks * 64;
        let mut cache: SlabCache<Vec<u8>> = SlabCache::with_capacity_bytes(capacity);
        for (k, size) in puts {
            cache.put(k, vec![0u8; size]);
            prop_assert!(cache.used_bytes() <= capacity.max(512),
                "used {} over capacity {}", cache.used_bytes(), capacity);
        }
    }

    #[test]
    fn slab_cache_present_keys_read_back(
        puts in prop::collection::vec((0u64..50, any::<u64>()), 1..100),
    ) {
        let mut cache: SlabCache<u64> = SlabCache::with_capacity_bytes(1 << 20);
        let mut model = BTreeMap::new();
        for (k, v) in puts {
            cache.put(k, v);
            model.insert(k, v);
        }
        // Capacity is ample, so nothing evicts: contents must match exactly.
        for (k, v) in &model {
            prop_assert_eq!(cache.get(*k), Some(v));
        }
        prop_assert_eq!(cache.len(), model.len());
    }

}
