//! A B+tree: values only in leaves, leaves linked in key order.
//!
//! This is the "BPlusTree" store of the paper's evaluation (the TLX role).
//! The implementation keeps an explicit leaf level as a `Vec` of leaf
//! nodes addressed by index, which gives the linked-leaf property without
//! unsafe pointer chasing; `for_each` walks the leaf links.

use crate::traits::{Key, KvStore};

/// Maximum entries per leaf and maximum keys per branch.
const FANOUT: usize = 16;

#[derive(Clone, Debug)]
struct Leaf<V> {
    keys: Vec<Key>,
    values: Vec<V>,
    next: Option<usize>, // index of the right sibling leaf
}

#[derive(Clone, Debug)]
enum Branch {
    /// Keys separate children; `children[i]` holds keys < `keys[i]`.
    Inner {
        keys: Vec<Key>,
        children: Vec<Branch>,
    },
    /// Index into the leaf arena.
    Leaf(usize),
}

/// A B+tree with linked leaves.
///
/// # Examples
///
/// ```
/// use ddp_store::{BPlusTree, KvStore};
///
/// let mut t = BPlusTree::new();
/// for k in (0..64u64).rev() {
///     t.put(k, k * 2);
/// }
/// assert_eq!(t.get(10), Some(&20));
/// // `for_each` walks the linked leaf level, in key order.
/// let mut keys = Vec::new();
/// t.for_each(&mut |k, _| keys.push(k));
/// assert_eq!(keys, (0..64).collect::<Vec<_>>());
/// ```
#[derive(Clone, Debug)]
pub struct BPlusTree<V> {
    leaves: Vec<Leaf<V>>,
    root: Branch,
    len: usize,
}

impl<V> BPlusTree<V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BPlusTree {
            leaves: vec![Leaf {
                keys: Vec::new(),
                values: Vec::new(),
                next: None,
            }],
            root: Branch::Leaf(0),
            len: 0,
        }
    }

    /// Finds the index of the leaf that should hold `key`.
    fn leaf_for(&self, key: Key) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Branch::Leaf(idx) => return *idx,
                Branch::Inner { keys, children } => {
                    let pos = match keys.binary_search(&key) {
                        Ok(p) => p + 1,
                        Err(p) => p,
                    };
                    node = &children[pos];
                }
            }
        }
    }

    /// Inserts into the tree, splitting up the spine as needed.
    fn insert_rec(
        leaves: &mut Vec<Leaf<V>>,
        node: &mut Branch,
        key: Key,
        value: V,
    ) -> (Option<V>, Option<(Key, Branch)>) {
        match node {
            Branch::Leaf(idx) => {
                let leaf_idx = *idx;
                let leaf = &mut leaves[leaf_idx];
                match leaf.keys.binary_search(&key) {
                    Ok(pos) => (Some(std::mem::replace(&mut leaf.values[pos], value)), None),
                    Err(pos) => {
                        leaf.keys.insert(pos, key);
                        leaf.values.insert(pos, value);
                        if leaf.keys.len() <= FANOUT {
                            return (None, None);
                        }
                        // Split the leaf; the new right leaf goes in the arena.
                        let mid = leaf.keys.len() / 2;
                        let right_keys = leaf.keys.split_off(mid);
                        let right_vals = leaf.values.split_off(mid);
                        let sep = right_keys[0];
                        let right = Leaf {
                            keys: right_keys,
                            values: right_vals,
                            next: leaf.next,
                        };
                        let right_idx = leaves.len();
                        leaves.push(right);
                        leaves[leaf_idx].next = Some(right_idx);
                        (None, Some((sep, Branch::Leaf(right_idx))))
                    }
                }
            }
            Branch::Inner { keys, children } => {
                let pos = match keys.binary_search(&key) {
                    Ok(p) => p + 1,
                    Err(p) => p,
                };
                let (old, split) = Self::insert_rec(leaves, &mut children[pos], key, value);
                if let Some((sep, right)) = split {
                    keys.insert(pos, sep);
                    children.insert(pos + 1, right);
                    if keys.len() > FANOUT {
                        let mid = keys.len() / 2;
                        let up_key = keys[mid];
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // the separator moves up
                        let right_children = children.split_off(mid + 1);
                        let right = Branch::Inner {
                            keys: right_keys,
                            children: right_children,
                        };
                        return (old, Some((up_key, right)));
                    }
                }
                (old, None)
            }
        }
    }
}

impl<V> Default for BPlusTree<V> {
    fn default() -> Self {
        BPlusTree::new()
    }
}

impl<V> KvStore<V> for BPlusTree<V> {
    fn get(&self, key: Key) -> Option<&V> {
        let leaf = &self.leaves[self.leaf_for(key)];
        match leaf.keys.binary_search(&key) {
            Ok(pos) => Some(&leaf.values[pos]),
            Err(_) => None,
        }
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let idx = self.leaf_for(key);
        let leaf = &mut self.leaves[idx];
        match leaf.keys.binary_search(&key) {
            Ok(pos) => Some(&mut leaf.values[pos]),
            Err(_) => None,
        }
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        let (old, split) = Self::insert_rec(&mut self.leaves, &mut self.root, key, value);
        if let Some((sep, right)) = split {
            let left = std::mem::replace(&mut self.root, Branch::Leaf(usize::MAX));
            self.root = Branch::Inner {
                keys: vec![sep],
                children: vec![left, right],
            };
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Visits every entry in ascending key order, along the leaf links.
    /// Leaf 0 is always the leftmost: a split keeps the left half in place
    /// and appends the right half.
    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        let mut idx = Some(0);
        while let Some(i) = idx {
            let leaf = &self.leaves[i];
            for (k, v) in leaf.keys.iter().zip(&leaf.values) {
                f(*k, v);
            }
            idx = leaf.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys `for_each` visits, in visit order.
    fn keys<V>(t: &BPlusTree<V>) -> Vec<Key> {
        let mut out = Vec::new();
        t.for_each(&mut |k, _| out.push(k));
        out
    }

    #[test]
    fn basic_crud() {
        let mut t = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.put(1, "one"), None);
        assert_eq!(t.put(1, "uno"), Some("one"));
        assert_eq!(t.get(1), Some(&"uno"));
        assert_eq!(t.get(2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn splits_preserve_order() {
        let mut t = BPlusTree::new();
        for k in (0..2_000u64).rev() {
            t.put(k, k);
        }
        assert_eq!(keys(&t), (0..2_000).collect::<Vec<_>>());
        assert!(t.leaves.len() > 1, "tree should have split");
    }

    #[test]
    fn random_workout_matches_model() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::new();
        let mut model = BTreeMap::new();
        let mut state = 0xFACE_u64;
        for step in 0..10_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
            let key = (state >> 33) % 800;
            match state % 4 {
                0 | 1 => assert_eq!(t.put(key, step), model.insert(key, step)),
                2 => assert_eq!(t.get_mut(key), model.get_mut(&key)),
                _ => assert_eq!(t.get(key), model.get(&key)),
            }
        }
        assert_eq!(t.len(), model.len());
        assert_eq!(keys(&t), model.keys().copied().collect::<Vec<_>>());
    }
}
