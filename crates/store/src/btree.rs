//! A B-tree keyed by [`Key`].
//!
//! This is the "B-Tree" store of the paper's evaluation (the cpp-btree
//! role): values live in every node, and nodes are wide to stay cache
//! friendly.

use crate::traits::{Key, KvStore};

/// Minimum degree `t`: nodes hold between `t-1` and `2t-1` keys
/// (except the root, which may hold fewer).
const T: usize = 8;
const MAX_KEYS: usize = 2 * T - 1;

#[derive(Clone, Debug)]
struct Node<V> {
    keys: Vec<Key>,
    values: Vec<V>,
    children: Vec<Node<V>>, // empty for leaves
}

impl<V> Node<V> {
    fn leaf() -> Self {
        Node {
            keys: Vec::with_capacity(MAX_KEYS),
            values: Vec::with_capacity(MAX_KEYS),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn is_full(&self) -> bool {
        self.keys.len() == MAX_KEYS
    }

    /// Splits full child `i`, lifting its median into `self`.
    fn split_child(&mut self, i: usize) {
        let child = &mut self.children[i];
        let mut right = Node::leaf();
        right.keys = child.keys.split_off(T);
        right.values = child.values.split_off(T);
        if !child.is_leaf() {
            right.children = child.children.split_off(T);
        }
        let median_key = child.keys.pop().expect("full child has T keys left");
        let median_val = child.values.pop().expect("parallel to keys");
        self.keys.insert(i, median_key);
        self.values.insert(i, median_val);
        self.children.insert(i + 1, right);
    }

    fn insert_nonfull(&mut self, key: Key, value: V) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(pos) => Some(std::mem::replace(&mut self.values[pos], value)),
            Err(pos) => {
                if self.is_leaf() {
                    self.keys.insert(pos, key);
                    self.values.insert(pos, value);
                    None
                } else {
                    let mut pos = pos;
                    if self.children[pos].is_full() {
                        self.split_child(pos);
                        match key.cmp(&self.keys[pos]) {
                            std::cmp::Ordering::Greater => pos += 1,
                            std::cmp::Ordering::Equal => {
                                return Some(std::mem::replace(&mut self.values[pos], value));
                            }
                            std::cmp::Ordering::Less => {}
                        }
                    }
                    self.children[pos].insert_nonfull(key, value)
                }
            }
        }
    }

    fn get(&self, key: Key) -> Option<&V> {
        match self.keys.binary_search(&key) {
            Ok(pos) => Some(&self.values[pos]),
            Err(pos) => {
                if self.is_leaf() {
                    None
                } else {
                    self.children[pos].get(key)
                }
            }
        }
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        match self.keys.binary_search(&key) {
            Ok(pos) => Some(&mut self.values[pos]),
            Err(pos) => {
                if self.is_leaf() {
                    None
                } else {
                    self.children[pos].get_mut(key)
                }
            }
        }
    }

    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        if self.is_leaf() {
            for (k, v) in self.keys.iter().zip(&self.values) {
                f(*k, v);
            }
        } else {
            for i in 0..self.keys.len() {
                self.children[i].for_each(f);
                f(self.keys[i], &self.values[i]);
            }
            self.children
                .last()
                .expect("internal node has keys+1 children")
                .for_each(f);
        }
    }
}

/// A B-tree with values in every node (cpp-btree style).
///
/// # Examples
///
/// ```
/// use ddp_store::{BTree, KvStore};
///
/// let mut t = BTree::new();
/// for k in (0..100u64).rev() {
///     t.put(k, k);
/// }
/// assert_eq!(t.len(), 100);
/// let mut keys = Vec::new();
/// t.for_each(&mut |k, _| keys.push(k)); // in key order
/// assert_eq!(keys, (0..100).collect::<Vec<_>>());
/// ```
#[derive(Clone, Debug)]
pub struct BTree<V> {
    root: Node<V>,
    len: usize,
}

impl<V> BTree<V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BTree {
            root: Node::leaf(),
            len: 0,
        }
    }

    #[cfg(test)]
    fn assert_invariants(&self) {
        fn check<V>(node: &Node<V>, lo: Option<Key>, hi: Option<Key>, is_root: bool) -> usize {
            assert_eq!(node.keys.len(), node.values.len());
            if !is_root {
                assert!(node.keys.len() >= T - 1, "underfull node");
            }
            assert!(node.keys.len() <= MAX_KEYS, "overfull node");
            assert!(node.keys.windows(2).all(|w| w[0] < w[1]), "unsorted keys");
            if let (Some(lo), Some(first)) = (lo, node.keys.first()) {
                assert!(*first > lo);
            }
            if let (Some(hi), Some(last)) = (hi, node.keys.last()) {
                assert!(*last < hi);
            }
            if node.is_leaf() {
                1
            } else {
                assert_eq!(node.children.len(), node.keys.len() + 1);
                let mut depth = None;
                for (i, child) in node.children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                    let chi = if i == node.keys.len() {
                        hi
                    } else {
                        Some(node.keys[i])
                    };
                    let d = check(child, clo, chi, false);
                    match depth {
                        None => depth = Some(d),
                        Some(prev) => assert_eq!(prev, d, "leaves at unequal depth"),
                    }
                }
                depth.expect("internal node has children") + 1
            }
        }
        check(&self.root, None, None, true);
    }
}

impl<V> Default for BTree<V> {
    fn default() -> Self {
        BTree::new()
    }
}

impl<V> KvStore<V> for BTree<V> {
    fn get(&self, key: Key) -> Option<&V> {
        self.root.get(key)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        self.root.get_mut(key)
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        if self.root.is_full() {
            let old_root = std::mem::replace(&mut self.root, Node::leaf());
            self.root.children.push(old_root);
            self.root.split_child(0);
        }
        let old = self.root.insert_nonfull(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Visits every entry in ascending key order (an in-order walk).
    fn for_each<'a>(&'a self, f: &mut dyn FnMut(Key, &'a V)) {
        if self.len > 0 {
            self.root.for_each(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys `for_each` visits, in visit order.
    fn keys<V>(t: &BTree<V>) -> Vec<Key> {
        let mut out = Vec::new();
        t.for_each(&mut |k, _| out.push(k));
        out
    }

    #[test]
    fn ascending_and_descending_inserts() {
        for rev in [false, true] {
            let mut t = BTree::new();
            let keys_in: Vec<u64> = if rev {
                (0..500).rev().collect()
            } else {
                (0..500).collect()
            };
            for &k in &keys_in {
                t.put(k, k);
                t.assert_invariants();
            }
            assert_eq!(keys(&t), (0..500).collect::<Vec<_>>());
        }
    }

    #[test]
    fn update_in_leaf_and_internal_nodes() {
        let mut t = BTree::new();
        for k in 0..200u64 {
            t.put(k, 0);
        }
        for k in 0..200u64 {
            assert_eq!(t.put(k, 1), Some(0), "update of key {k}");
        }
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn random_workout_matches_model() {
        use std::collections::BTreeMap;
        let mut t = BTree::new();
        let mut model = BTreeMap::new();
        let mut state = 0xDEAD_BEEF_u64;
        for step in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 700;
            match state % 4 {
                0 | 1 => assert_eq!(t.put(key, step), model.insert(key, step)),
                2 => assert_eq!(t.get_mut(key), model.get_mut(&key)),
                _ => assert_eq!(t.get(key), model.get(&key)),
            }
        }
        t.assert_invariants();
        assert_eq!(t.len(), model.len());
        assert_eq!(keys(&t), model.keys().copied().collect::<Vec<_>>());
    }

    #[test]
    fn get_mut_updates_value() {
        let mut t = BTree::new();
        t.put(5, vec![1]);
        t.get_mut(5).unwrap().push(2);
        assert_eq!(t.get(5), Some(&vec![1, 2]));
    }
}
