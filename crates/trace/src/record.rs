//! The trace event vocabulary: one fixed-size, `Copy` record per event.
//!
//! Records are plain data — no heap, no strings — so pushing one onto the
//! ring is a handful of stores. The payload words `a`/`b`/`c` are
//! interpreted per [`TraceEventKind`]; each kind's docs give the mapping,
//! and the harness serializer names them properly in the JSON-lines
//! output.

/// What happened. Discriminants are stable so dumps are comparable across
/// builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A coordinator began a write round (`a`=key, `b`=version).
    WriteIssue = 0,
    /// The write reached its Visibility Point: applied in the
    /// coordinator's volatile store, readable by the protocol
    /// (`a`=key, `b`=version; the timestamp is the apply instant).
    WriteVp = 1,
    /// A follower applied the value from an INV or UPD (`a`=key,
    /// `b`=version).
    ReplicaApply = 2,
    /// A persist was submitted to a node's NVM device (`a`=key,
    /// `b`=version — 0 for transaction-log persists, `c`=bank queue
    /// wait in ns).
    PersistIssue = 3,
    /// A persist completed at a node (`a`=key, `b`=version).
    PersistComplete = 4,
    /// The write reached its Durability Point: the *first* persist of
    /// this version completed anywhere in the cluster (`a`=key,
    /// `b`=version, `c`=VP→DP lag in ns).
    WriteDp = 5,
    /// A client read began executing at its coordinator (`a`=key).
    ReadIssue = 6,
    /// A client read completed (`a`=key, `b`=version returned, `c`=latency
    /// in ns; [`TraceRecord::client`] is the reading client).
    ReadComplete = 7,
    /// A client write completed (`a`=key, `b`=version, `c`=latency ns;
    /// [`TraceRecord::client`] is the writing client).
    WriteComplete = 8,
    /// A read stalled (`a`=key, `b`=blocking version, `c`=cause bits:
    /// [`StallCause`]).
    StallBegin = 9,
    /// A stalled read resumed (`a`=key, `c`=stall duration in ns).
    StallEnd = 10,
    // 11–13 are unused, so every kind keeps the value older dumps carry.
    /// An LSM background compaction (memtable seal or level merge) began
    /// writing to NVM (`a`=kind: 0 for a seal, `level + 1` for a merge
    /// out of `level`; `b`=entries, `c`=NVM bytes).
    CompactionBegin = 14,
    /// An LSM background compaction finished its NVM writes (`a`=kind as
    /// in [`CompactionBegin`], `c`=NVM bytes).
    ///
    /// [`CompactionBegin`]: TraceEventKind::CompactionBegin
    CompactionEnd = 15,
}

impl TraceEventKind {
    /// Stable lower-snake name used in serialized trace streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::WriteIssue => "write_issue",
            TraceEventKind::WriteVp => "write_vp",
            TraceEventKind::ReplicaApply => "replica_apply",
            TraceEventKind::PersistIssue => "persist_issue",
            TraceEventKind::PersistComplete => "persist_complete",
            TraceEventKind::WriteDp => "write_dp",
            TraceEventKind::ReadIssue => "read_issue",
            TraceEventKind::ReadComplete => "read_complete",
            TraceEventKind::WriteComplete => "write_complete",
            TraceEventKind::StallBegin => "stall_begin",
            TraceEventKind::StallEnd => "stall_end",
            TraceEventKind::CompactionBegin => "compaction_begin",
            TraceEventKind::CompactionEnd => "compaction_end",
        }
    }
}

/// Why a read stalled, as a bitmask (a read can be blocked by both a
/// transient consistency state and an unpersisted write at once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallCause(pub u64);

impl StallCause {
    /// Blocked by a transient (invalidated, not yet validated) key.
    pub const CONSISTENCY: StallCause = StallCause(1);
    /// Blocked by a visible but not-yet-durable write.
    pub const PERSIST: StallCause = StallCause(2);

    /// True if the consistency bit is set.
    #[must_use]
    pub fn consistency(self) -> bool {
        self.0 & Self::CONSISTENCY.0 != 0
    }

    /// True if the persist bit is set.
    #[must_use]
    pub fn persist(self) -> bool {
        self.0 & Self::PERSIST.0 != 0
    }

    /// Stable name for serialized streams.
    #[must_use]
    pub fn name(self) -> &'static str {
        match (self.consistency(), self.persist()) {
            (true, true) => "consistency+persist",
            (true, false) => "consistency",
            (false, true) => "persist",
            (false, false) => "none",
        }
    }
}

impl std::ops::BitOr for StallCause {
    type Output = StallCause;
    fn bitor(self, rhs: StallCause) -> StallCause {
        StallCause(self.0 | rhs.0)
    }
}

/// One trace event. `Copy` and allocation-free: recording on the hot path
/// is a bounds-checked store into a preallocated ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Engine dispatch sequence number of the event being handled when
    /// this record was made — a deterministic total-order anchor that is
    /// identical across executor thread counts.
    pub seq: u64,
    /// Simulated nanoseconds the record describes (for [`WriteVp`] this
    /// is the apply instant, which may be slightly after the dispatch
    /// that scheduled it).
    ///
    /// [`WriteVp`]: TraceEventKind::WriteVp
    pub at_ns: u64,
    /// First payload word (usually the key).
    pub a: u64,
    /// Second payload word (usually the version).
    pub b: u64,
    /// Third payload word (lag, latency, stall cause — per kind).
    pub c: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Node the event happened at (coordinator for client-side events).
    pub node: u8,
    /// The client a [`ReadComplete`] or [`WriteComplete`] completed for;
    /// 0 for every other kind. It fills what would be padding, so the
    /// record stays 48 bytes.
    ///
    /// [`ReadComplete`]: TraceEventKind::ReadComplete
    /// [`WriteComplete`]: TraceEventKind::WriteComplete
    pub client: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable_and_unique() {
        // Trace consumers persist both the value and the name, so each is
        // pinned here; rustc already rejects a duplicate value (E0081).
        let table = [
            (TraceEventKind::WriteIssue, 0, "write_issue"),
            (TraceEventKind::WriteVp, 1, "write_vp"),
            (TraceEventKind::ReplicaApply, 2, "replica_apply"),
            (TraceEventKind::PersistIssue, 3, "persist_issue"),
            (TraceEventKind::PersistComplete, 4, "persist_complete"),
            (TraceEventKind::WriteDp, 5, "write_dp"),
            (TraceEventKind::ReadIssue, 6, "read_issue"),
            (TraceEventKind::ReadComplete, 7, "read_complete"),
            (TraceEventKind::WriteComplete, 8, "write_complete"),
            (TraceEventKind::StallBegin, 9, "stall_begin"),
            (TraceEventKind::StallEnd, 10, "stall_end"),
            (TraceEventKind::CompactionBegin, 14, "compaction_begin"),
            (TraceEventKind::CompactionEnd, 15, "compaction_end"),
        ];
        for (kind, value, name) in table {
            assert_eq!(kind as u8, value, "{kind:?} was renumbered");
            assert_eq!(kind.name(), name, "{kind:?} was renamed");
        }
        let mut names: Vec<&str> = table.iter().map(|&(_, _, name)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len());
    }

    #[test]
    fn stall_cause_bits_compose() {
        let both = StallCause::CONSISTENCY | StallCause::PERSIST;
        assert!(both.consistency() && both.persist());
        assert_eq!(both.name(), "consistency+persist");
        assert_eq!(StallCause::CONSISTENCY.name(), "consistency");
        assert_eq!(StallCause::PERSIST.name(), "persist");
        assert_eq!(StallCause(0).name(), "none");
    }

    #[test]
    fn record_is_compact() {
        // The ring preallocates capacity × this size; keep it cache-friendly.
        // Five words, the client, kind and node: 2 bytes of padding remain.
        assert_eq!(std::mem::size_of::<TraceRecord>(), 48);
    }
}
