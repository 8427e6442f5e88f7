//! The ring-buffered event tracer.
//!
//! Recording must never perturb the simulation and must cost nothing when
//! tracing is off, so the tracer is append-only plain data: a
//! preallocated ring of [`TraceRecord`]s with a wrap-around drop counter.
//! When the ring fills, the oldest records are overwritten (and counted),
//! never reallocated — no allocation happens on the hot path after
//! construction.

use crate::record::TraceRecord;

/// The drained contents of a tracer after a run: events in record order
/// (oldest surviving record first) plus how many were overwritten.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceDump {
    /// Surviving events, oldest first.
    pub events: Vec<TraceRecord>,
    /// Records overwritten by ring wrap-around (0 means the dump is the
    /// complete stream).
    pub dropped: u64,
}

/// Ring-buffered, zero-overhead-when-off event recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    ring: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position when the ring is full (records 0..capacity are
    /// in `ring` order until first wrap).
    head: usize,
    dropped: u64,
}

impl Tracer {
    /// An enabled tracer holding at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer ring capacity must be non-zero");
        Tracer {
            enabled: true,
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// A disabled tracer: every [`Tracer::push`] is a single branch.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ring: Vec::new(),
            capacity: 0,
            head: 0,
            dropped: 0,
        }
    }

    /// Whether recording is on. Call sites gate payload construction on
    /// this so a disabled tracer costs one predictable branch.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. No-op (one branch) when disabled; never
    /// allocates once the ring is full.
    #[inline]
    pub fn push(&mut self, record: TraceRecord) {
        if !self.enabled {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records lost to wrap-around so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into a chronological dump (oldest surviving record
    /// first) and resets the tracer for reuse.
    #[must_use]
    pub fn take(&mut self) -> TraceDump {
        let mut events = std::mem::take(&mut self.ring);
        // After a wrap, the oldest record sits at `head`; rotate it to
        // the front so the dump reads in record order.
        let pivot = self.head.min(events.len());
        events.rotate_left(pivot);
        let dump = TraceDump {
            events,
            dropped: self.dropped,
        };
        self.head = 0;
        self.dropped = 0;
        if self.enabled {
            self.ring = Vec::with_capacity(self.capacity);
        }
        dump
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceEventKind;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at_ns: seq * 10,
            a: 0,
            b: 0,
            c: 0,
            kind: TraceEventKind::WriteIssue,
            node: 0,
            client: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.push(rec(1));
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.take(), TraceDump::default());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut t = Tracer::enabled(4);
        for seq in 0..10 {
            t.push(rec(seq));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let dump = t.take();
        let seqs: Vec<u64> = dump.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest surviving record first");
        assert_eq!(dump.dropped, 6);
        // The tracer is reusable after a take.
        t.push(rec(42));
        assert_eq!(t.take().events[0].seq, 42);
    }

    #[test]
    fn no_wrap_preserves_order() {
        let mut t = Tracer::enabled(8);
        for seq in 0..5 {
            t.push(rec(seq));
        }
        let seqs: Vec<u64> = t.take().events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
