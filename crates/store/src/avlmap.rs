//! A balanced ordered map (AVL tree).
//!
//! This is the "Map" store of the paper's evaluation (the C++ `std::map`
//! role). An AVL tree keeps lookups and updates at O(log n) with strict
//! balance, which also makes its worst-case shape easy to test.

use crate::traits::{Key, KvStore};

#[derive(Clone, Debug)]
struct Node<V> {
    key: Key,
    value: V,
    height: i8,
    left: Option<Box<Node<V>>>,
    right: Option<Box<Node<V>>>,
}

impl<V> Node<V> {
    fn new(key: Key, value: V) -> Box<Self> {
        Box::new(Node {
            key,
            value,
            height: 1,
            left: None,
            right: None,
        })
    }

    fn update_height(&mut self) {
        self.height = 1 + height(&self.left).max(height(&self.right));
    }

    fn balance_factor(&self) -> i8 {
        height(&self.left) - height(&self.right)
    }
}

fn height<V>(node: &Option<Box<Node<V>>>) -> i8 {
    node.as_ref().map_or(0, |n| n.height)
}

fn rotate_right<V>(mut root: Box<Node<V>>) -> Box<Node<V>> {
    let mut new_root = root.left.take().expect("rotate_right needs a left child");
    root.left = new_root.right.take();
    root.update_height();
    new_root.right = Some(root);
    new_root.update_height();
    new_root
}

fn rotate_left<V>(mut root: Box<Node<V>>) -> Box<Node<V>> {
    let mut new_root = root.right.take().expect("rotate_left needs a right child");
    root.right = new_root.left.take();
    root.update_height();
    new_root.left = Some(root);
    new_root.update_height();
    new_root
}

fn rebalance<V>(mut node: Box<Node<V>>) -> Box<Node<V>> {
    node.update_height();
    match node.balance_factor() {
        2 => {
            if node
                .left
                .as_ref()
                .expect("bf=2 implies left")
                .balance_factor()
                < 0
            {
                node.left = Some(rotate_left(node.left.take().expect("checked")));
            }
            rotate_right(node)
        }
        -2 => {
            if node
                .right
                .as_ref()
                .expect("bf=-2 implies right")
                .balance_factor()
                > 0
            {
                node.right = Some(rotate_right(node.right.take().expect("checked")));
            }
            rotate_left(node)
        }
        _ => node,
    }
}

fn insert<V>(node: Option<Box<Node<V>>>, key: Key, value: V) -> (Box<Node<V>>, Option<V>) {
    match node {
        None => (Node::new(key, value), None),
        Some(mut n) => {
            let old = if key < n.key {
                let (child, old) = insert(n.left.take(), key, value);
                n.left = Some(child);
                old
            } else if key > n.key {
                let (child, old) = insert(n.right.take(), key, value);
                n.right = Some(child);
                old
            } else {
                // Same key: value replacement changes no structure.
                let old = std::mem::replace(&mut n.value, value);
                return (n, Some(old));
            };
            (rebalance(n), old)
        }
    }
}

/// A balanced ordered map keyed by [`Key`].
///
/// # Examples
///
/// ```
/// use ddp_store::{AvlMap, KvStore};
///
/// let mut m = AvlMap::new();
/// for k in [5u64, 1, 9, 3] {
///     m.put(k, k * 10);
/// }
/// let mut keys = Vec::new();
/// m.for_each(&mut |k, _| keys.push(k)); // in key order
/// assert_eq!(keys, vec![1, 3, 5, 9]);
/// assert_eq!(m.get(3), Some(&30));
/// ```
#[derive(Clone, Debug, Default)]
pub struct AvlMap<V> {
    root: Option<Box<Node<V>>>,
    len: usize,
}

impl<V> AvlMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        AvlMap { root: None, len: 0 }
    }

    /// Height of the tree (0 when empty); exposed for balance testing.
    #[must_use]
    pub fn height(&self) -> usize {
        height(&self.root).max(0) as usize
    }

    #[cfg(test)]
    fn assert_invariants(&self) {
        fn check<V>(node: &Option<Box<Node<V>>>, lo: Option<Key>, hi: Option<Key>) -> i8 {
            match node {
                None => 0,
                Some(n) => {
                    if let Some(lo) = lo {
                        assert!(n.key > lo, "BST order violated");
                    }
                    if let Some(hi) = hi {
                        assert!(n.key < hi, "BST order violated");
                    }
                    let lh = check(&n.left, lo, Some(n.key));
                    let rh = check(&n.right, Some(n.key), hi);
                    assert!((lh - rh).abs() <= 1, "AVL balance violated at {}", n.key);
                    let h = 1 + lh.max(rh);
                    assert_eq!(h, n.height, "stale height at {}", n.key);
                    h
                }
            }
        }
        check(&self.root, None, None);
    }
}

impl<V> KvStore<V> for AvlMap<V> {
    fn get(&self, key: Key) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            cur = if key < n.key {
                n.left.as_deref()
            } else if key > n.key {
                n.right.as_deref()
            } else {
                return Some(&n.value);
            };
        }
        None
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let mut cur = self.root.as_deref_mut();
        while let Some(n) = cur {
            cur = if key < n.key {
                n.left.as_deref_mut()
            } else if key > n.key {
                n.right.as_deref_mut()
            } else {
                return Some(&mut n.value);
            };
        }
        None
    }

    fn put(&mut self, key: Key, value: V) -> Option<V> {
        let (root, old) = insert(self.root.take(), key, value);
        self.root = Some(root);
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
        fn walk<'a, V>(node: &'a Option<Box<Node<V>>>, f: &mut dyn FnMut(Key, &'a V)) {
            if let Some(n) = node {
                walk(&n.left, f);
                f(n.key, &n.value);
                walk(&n.right, f);
            }
        }
        walk(&self.root, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys `for_each` visits, in visit order.
    fn keys<V>(m: &AvlMap<V>) -> Vec<Key> {
        let mut out = Vec::new();
        m.for_each(&mut |k, _| out.push(k));
        out
    }

    #[test]
    fn insert_and_in_order_iteration() {
        let mut m = AvlMap::new();
        for k in [50u64, 20, 80, 10, 30, 70, 90] {
            m.put(k, ());
        }
        assert_eq!(keys(&m), vec![10, 20, 30, 50, 70, 80, 90]);
        m.assert_invariants();
    }

    #[test]
    fn sequential_insert_stays_balanced() {
        let mut m = AvlMap::new();
        for k in 0..1024u64 {
            m.put(k, k);
            m.assert_invariants();
        }
        // AVL height bound: 1.44 * log2(n) ~ 14.4 for n=1024.
        assert!(m.height() <= 15, "height {} too large", m.height());
    }

    #[test]
    fn update_returns_old_value_and_keeps_len() {
        let mut m = AvlMap::new();
        m.put(1, "a");
        assert_eq!(m.put(1, "b"), Some("a"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn random_workout_matches_model() {
        use std::collections::BTreeMap;
        let mut m = AvlMap::new();
        let mut model = BTreeMap::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..5_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 500;
            match state % 3 {
                0 => {
                    assert_eq!(m.put(key, state), model.insert(key, state));
                }
                1 => {
                    assert_eq!(m.get_mut(key), model.get_mut(&key));
                }
                _ => {
                    assert_eq!(m.get(key), model.get(&key));
                }
            }
        }
        assert_eq!(m.len(), model.len());
        let model_keys: Vec<_> = model.keys().copied().collect();
        assert_eq!(keys(&m), model_keys);
        m.assert_invariants();
    }
}
