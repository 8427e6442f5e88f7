//! Per-node replica state: what each node knows about each key.

use ddp_store::{
    AvlMap, BPlusTree, BTree, HashTable, Key, KvStore, LsmStore, LsmWork, SlabCache, SlabSized,
    StoreKind,
};

use ddp_net::NodeId;

use crate::message::WriteId;

/// Everything one node tracks about one key.
///
/// Versions are cluster-unique, monotonically increasing integers assigned
/// by coordinators (a deterministic stand-in for Hermes-style logical
/// timestamps); version 0 means "never written".
///
/// The state fits one 64-byte host cache line: the in-flight write is
/// packed into a coordinator byte, a flag and a sequence, read and written
/// through [`KeyState::inflight`] and [`KeyState::set_inflight`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyState {
    /// Latest version applied to this node's volatile hierarchy.
    pub visible: u64,
    /// Latest version this node has persisted to its own NVM.
    pub local_persisted: u64,
    /// Latest version known applied at *all* replicas (set by VAL/VAL_c).
    pub global_visible: u64,
    /// Latest version known persisted at *all* replicas (set by VAL/VAL_p).
    pub global_persisted: u64,
    /// Version the in-flight write will install.
    pub inflight_version: u64,
    /// Coordinator-local sequence of the visible version (causal tracking).
    pub visible_seq: u64,
    /// Sequence of the in-flight write; 0 when none is in flight.
    inflight_seq: u64,
    /// Payload size of the latest value, for persist sizing.
    pub value_bytes: u32,
    /// Coordinator that produced the visible version (causal tracking).
    pub visible_origin: u8,
    /// Coordinator of the in-flight write; 0 when none is in flight.
    inflight_coordinator: u8,
    /// Whether a write is in flight.
    inflight_set: bool,
}

impl KeyState {
    /// The write currently in flight on this key at this node, if any
    /// (Hermes "transient" state between INV and VAL).
    #[must_use]
    pub fn inflight(&self) -> Option<WriteId> {
        self.inflight_set.then_some(WriteId {
            coordinator: NodeId(self.inflight_coordinator),
            seq: self.inflight_seq,
        })
    }

    /// Sets or clears the in-flight write. Clearing zeroes the packed
    /// fields, so a cleared state equals one that never had a write in
    /// flight.
    pub fn set_inflight(&mut self, write: Option<WriteId>) {
        let (set, coordinator, seq) = match write {
            Some(w) => (true, w.coordinator.0, w.seq),
            None => (false, 0, 0),
        };
        self.inflight_set = set;
        self.inflight_coordinator = coordinator;
        self.inflight_seq = seq;
    }

    /// True while an INV has been applied (or issued) but its VAL has not
    /// arrived; Linearizable and Read-Enforced consistency stall reads here.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.inflight_set
    }
}

impl SlabSized for KeyState {
    fn payload_bytes(&self) -> usize {
        self.value_bytes as usize
    }
}

/// The replica store of one node: one of the five evaluated KV backends
/// holding a [`KeyState`] per key.
///
/// # Examples
///
/// ```
/// use ddp_core::ReplicaStore;
/// use ddp_store::StoreKind;
///
/// let mut store = ReplicaStore::new(StoreKind::HashTable);
/// store.state_mut(42).visible = 7;
/// assert_eq!(store.state(42).visible, 7);
/// assert_eq!(store.state(999).visible, 0); // default for unseen keys
/// ```
#[derive(Debug)]
pub enum ReplicaStore {
    /// Open-addressing hash table backend.
    Hash(HashTable<KeyState>),
    /// Ordered AVL map backend.
    Map(AvlMap<KeyState>),
    /// B-tree backend.
    BTree(BTree<KeyState>),
    /// B+tree backend.
    BPlus(BPlusTree<KeyState>),
    /// Memcached-like slab cache backend (sized to the node's NVM so
    /// protocol state never evicts).
    Memcached(SlabCache<KeyState>),
    /// Log-structured merge backend: writes buffer in a memtable sealing
    /// into sorted batches, whose merges the simulator replays as NVM
    /// background traffic.
    Lsm(LsmStore<KeyState>),
}

impl ReplicaStore {
    /// Creates an empty replica store over the chosen backend (LSM stores
    /// take the default seal/merge thresholds).
    #[must_use]
    pub fn new(kind: StoreKind) -> Self {
        Self::with_compaction(
            kind,
            ddp_store::DEFAULT_MEMTABLE_ENTRIES,
            ddp_store::DEFAULT_FANOUT,
        )
    }

    /// Creates an empty replica store with explicit LSM thresholds; every
    /// other backend ignores them.
    #[must_use]
    pub fn with_compaction(kind: StoreKind, memtable_entries: usize, fanout: usize) -> Self {
        match kind {
            StoreKind::HashTable => ReplicaStore::Hash(HashTable::new()),
            StoreKind::Map => ReplicaStore::Map(AvlMap::new()),
            StoreKind::BTree => ReplicaStore::BTree(BTree::new()),
            StoreKind::BPlusTree => ReplicaStore::BPlus(BPlusTree::new()),
            // 64 GB, the per-node NVM capacity: effectively unbounded for
            // protocol state, so the cache behaves as a plain hash store.
            StoreKind::Memcached => {
                ReplicaStore::Memcached(SlabCache::with_capacity_bytes(1 << 36))
            }
            StoreKind::Lsm => {
                ReplicaStore::Lsm(LsmStore::with_thresholds(memtable_entries, fanout))
            }
        }
    }

    fn as_store(&self) -> &dyn KvStore<KeyState> {
        match self {
            ReplicaStore::Hash(s) => s,
            ReplicaStore::Map(s) => s,
            ReplicaStore::BTree(s) => s,
            ReplicaStore::BPlus(s) => s,
            ReplicaStore::Memcached(s) => s,
            ReplicaStore::Lsm(s) => s,
        }
    }

    fn as_store_mut(&mut self) -> &mut dyn KvStore<KeyState> {
        match self {
            ReplicaStore::Hash(s) => s,
            ReplicaStore::Map(s) => s,
            ReplicaStore::BTree(s) => s,
            ReplicaStore::BPlus(s) => s,
            ReplicaStore::Memcached(s) => s,
            ReplicaStore::Lsm(s) => s,
        }
    }

    /// Drains the LSM backend's pending seal/merge work items; empty for
    /// every other backend.
    pub fn take_compaction_work(&mut self) -> Vec<LsmWork> {
        match self {
            ReplicaStore::Lsm(s) => s.take_work(),
            _ => Vec::new(),
        }
    }

    /// True if the LSM backend has unscheduled seal/merge work.
    #[must_use]
    pub fn has_compaction_work(&self) -> bool {
        match self {
            ReplicaStore::Lsm(s) => s.has_work(),
            _ => false,
        }
    }

    /// The state of `key`, or the default all-zero state if never written.
    #[must_use]
    pub fn state(&self, key: Key) -> KeyState {
        self.as_store().get(key).cloned().unwrap_or_default()
    }

    /// Mutable state of `key`, inserting the default on first touch. The
    /// hashtable, memcached and LSM backends find a present key in one
    /// index probe.
    pub fn state_mut(&mut self, key: Key) -> &mut KeyState {
        let store = match self {
            ReplicaStore::Hash(s) => return s.get_or_insert_with(key, KeyState::default),
            ReplicaStore::Memcached(s) => return s.get_or_insert_with(key, KeyState::default),
            ReplicaStore::Lsm(s) => return s.get_or_insert_with(key, KeyState::default),
            other => other.as_store_mut(),
        };
        if !store.contains(key) {
            store.put(key, KeyState::default());
        }
        store.get_mut(key).expect("inserted above")
    }

    /// Visits every key's state (recovery and checker support).
    pub fn for_each(&self, f: &mut dyn FnMut(Key, &KeyState)) {
        self.as_store().for_each(&mut |k, v| f(k, v));
    }

    /// Number of keys this node has state for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_store().len()
    }

    /// True if no key has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_backends_round_trip_state() {
        for kind in StoreKind::ALL.into_iter().chain([StoreKind::Lsm]) {
            let mut rs = ReplicaStore::new(kind);
            for k in 0..200u64 {
                let st = rs.state_mut(k);
                st.visible = k + 1;
                st.local_persisted = k;
            }
            for k in 0..200u64 {
                let st = rs.state(k);
                assert_eq!(st.visible, k + 1, "{kind}: visible");
                assert_eq!(st.local_persisted, k, "{kind}: persisted");
            }
            assert_eq!(rs.len(), 200, "{kind}: len");
        }
    }

    #[test]
    fn lsm_backend_surfaces_compaction_work_and_others_stay_quiet() {
        let mut lsm = ReplicaStore::with_compaction(StoreKind::Lsm, 4, 2);
        for k in 0..32u64 {
            lsm.state_mut(k).visible = k + 1;
        }
        assert!(lsm.has_compaction_work());
        let work = lsm.take_compaction_work();
        assert!(!work.is_empty());
        assert!(work.iter().any(|w| matches!(w, LsmWork::Seal { .. })));
        assert!(!lsm.has_compaction_work());

        let mut hash = ReplicaStore::with_compaction(StoreKind::HashTable, 4, 2);
        for k in 0..32u64 {
            hash.state_mut(k).visible = k + 1;
        }
        assert!(!hash.has_compaction_work());
        assert!(hash.take_compaction_work().is_empty());
    }

    #[test]
    fn unseen_keys_default() {
        let rs = ReplicaStore::new(StoreKind::BTree);
        let st = rs.state(12345);
        assert_eq!(st, KeyState::default());
        assert!(!st.is_transient());
    }

    #[test]
    fn transient_flag_follows_inflight() {
        let mut rs = ReplicaStore::new(StoreKind::Map);
        let st = rs.state_mut(1);
        assert!(!st.is_transient());
        let write = WriteId {
            coordinator: NodeId(0),
            seq: 9,
        };
        st.set_inflight(Some(write));
        assert!(rs.state(1).is_transient());
        assert_eq!(rs.state(1).inflight(), Some(write));
    }

    #[test]
    fn key_state_is_one_cache_line_and_clearing_restores_default() {
        assert_eq!(std::mem::size_of::<KeyState>(), 64);
        let mut st = KeyState::default();
        assert_eq!(st.inflight(), None);
        // Coordinator 0 with sequence 0 is a real write, not "none".
        let zero = WriteId {
            coordinator: NodeId(0),
            seq: 0,
        };
        st.set_inflight(Some(zero));
        assert_eq!(st.inflight(), Some(zero));
        assert_ne!(st, KeyState::default());
        let write = WriteId {
            coordinator: NodeId(200),
            seq: u64::MAX,
        };
        st.set_inflight(Some(write));
        assert_eq!(st.inflight(), Some(write));
        st.set_inflight(None);
        assert_eq!(st, KeyState::default());
    }
}
