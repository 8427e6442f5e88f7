//! History checkers for the programmer-intuition properties of Table 4.
//!
//! The paper judges DDP models by whether they provide *monotonic reads*
//! (a client that has read a version of a variable never later reads an
//! older one) and *non-stale reads* (a read that follows a write
//! system-wide returns it — in particular across failures that may lose
//! acknowledged writes). These checkers evaluate both properties over the
//! client completions of a run's [`TraceDump`], optionally extended with a
//! crash/recovery outcome.

use std::collections::BTreeMap;

use ddp_sim::SimTime;
use ddp_store::Key;
use ddp_trace::{TraceDump, TraceEventKind, TraceRecord};

use crate::recovery::RecoveredState;

/// The verdict of one property check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the property held over the observed history.
    pub holds: bool,
    /// Up to 16 violations, for diagnostics.
    pub violations: Vec<String>,
    /// How many observations were checked.
    pub checked: usize,
}

impl CheckOutcome {
    fn pass(checked: usize) -> Self {
        CheckOutcome {
            holds: true,
            violations: Vec::new(),
            checked,
        }
    }

    fn record(&mut self, violation: String) {
        self.holds = false;
        if self.violations.len() < 16 {
            self.violations.push(violation);
        }
    }
}

/// Checks a run's client history for the Table 4 intuition properties.
///
/// The history is the run's traced completions: one
/// [`TraceEventKind::ReadComplete`] or [`TraceEventKind::WriteComplete`]
/// record per completed request, carrying the client, the serving node,
/// the key (`a`), the version read or written (`b`), the completion
/// instant (`at_ns`) and the latency (`c`), so the request was issued at
/// `at_ns - c`.
///
/// # Examples
///
/// ```
/// use ddp_core::{ClusterConfig, DdpModel, HistoryChecker, Simulation, TraceConfig};
///
/// let cfg = ClusterConfig::micro21(DdpModel::baseline())
///     .quick()
///     .with_trace(TraceConfig::enabled());
/// let mut sim = Simulation::new(cfg);
/// sim.run();
/// let trace = sim.take_trace().expect("event tracing is on");
/// let checker = HistoryChecker::new(&trace).expect("the ring held the whole run");
/// // The strictest model provides monotonic reads.
/// assert!(checker.monotonic_reads().holds);
/// ```
#[derive(Clone, Debug)]
pub struct HistoryChecker {
    reads: Vec<TraceRecord>,
    writes: Vec<TraceRecord>,
}

impl HistoryChecker {
    /// Builds a checker over the client completions in one run's trace.
    ///
    /// # Errors
    ///
    /// Refuses a dump whose ring wrapped (`dropped > 0`): it lost the
    /// run's oldest records, so the history is incomplete. A checked run
    /// needs a `ring_capacity` above its event count.
    pub fn new(trace: &TraceDump) -> Result<Self, String> {
        if trace.dropped > 0 {
            return Err(format!(
                "the trace ring overwrote {} records, so the history is incomplete \
                 (raise `TraceConfig::ring_capacity`)",
                trace.dropped
            ));
        }
        let completions = |kind| {
            trace
                .events
                .iter()
                .filter(|r| r.kind == kind)
                .copied()
                .collect()
        };
        Ok(HistoryChecker {
            reads: completions(TraceEventKind::ReadComplete),
            writes: completions(TraceEventKind::WriteComplete),
        })
    }

    /// Completed reads, in completion order.
    #[must_use]
    pub fn reads(&self) -> &[TraceRecord] {
        &self.reads
    }

    /// Acknowledged writes, in acknowledgment order.
    #[must_use]
    pub fn writes(&self) -> &[TraceRecord] {
        &self.writes
    }

    /// Monotonic reads, as the session guarantee the paper's Table 4 rates:
    /// if a client reads a version of a key, its later reads of the same
    /// key never return an older version.
    #[must_use]
    pub fn monotonic_reads(&self) -> CheckOutcome {
        let mut outcome = CheckOutcome::pass(self.reads.len());
        let mut reads: Vec<_> = self.reads.iter().collect();
        reads.sort_by_key(|r| (r.client, r.a, r.at_ns));
        // (client, key) -> highest version read so far.
        let mut last: BTreeMap<(u32, Key), u64> = BTreeMap::new();
        for r in reads {
            let (key, version) = (r.a, r.b);
            let entry = last.entry((r.client, key)).or_insert(0);
            if version < *entry {
                outcome.record(format!(
                    "client {} key {key}: read v{version} at {} after reading v{}",
                    r.client,
                    SimTime::from_nanos(r.at_ns),
                    *entry
                ));
            }
            *entry = (*entry).max(version);
        }
        outcome
    }

    /// Non-stale reads across a failure: every client-acknowledged write
    /// must survive recovery. A model provides non-stale reads only if a
    /// post-crash read can never miss an acknowledged write (paper §6).
    #[must_use]
    pub fn non_stale_after_recovery(&self, recovered: &RecoveredState) -> CheckOutcome {
        let mut outcome = CheckOutcome::pass(self.writes.len());
        // Only the newest acknowledged write per key must survive: older
        // ones were legitimately overwritten.
        let mut newest: BTreeMap<Key, u64> = BTreeMap::new();
        for w in &self.writes {
            let e = newest.entry(w.a).or_insert(0);
            *e = (*e).max(w.b);
        }
        for (key, version) in newest {
            if recovered.version_of(key) < version {
                outcome.record(format!(
                    "key {key}: acknowledged write v{version} lost (recovered v{})",
                    recovered.version_of(key)
                ));
            }
        }
        outcome
    }

    /// Fraction of reads that returned the globally newest acknowledged
    /// version at their completion time — a staleness measure for the
    /// weaker models.
    #[must_use]
    pub fn fresh_read_fraction(&self) -> f64 {
        if self.reads.is_empty() {
            return 1.0;
        }
        // For each read, find the newest write to the key acknowledged
        // no later than the read completed.
        let mut fresh = 0usize;
        for r in &self.reads {
            let newest_before = self
                .writes
                .iter()
                .filter(|w| w.a == r.a && w.at_ns <= r.at_ns)
                .map(|w| w.b)
                .max()
                .unwrap_or(0);
            if r.b >= newest_before {
                fresh += 1;
            }
        }
        fresh as f64 / self.reads.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, DdpModel, Simulation, TraceConfig};

    fn completion(kind: TraceEventKind, key: Key, version: u64, at: u64) -> TraceRecord {
        TraceRecord {
            seq: 0,
            at_ns: at,
            a: key,
            b: version,
            c: 0,
            kind,
            node: 0,
            client: 0,
        }
    }

    fn read(key: Key, version: u64, at: u64) -> TraceRecord {
        completion(TraceEventKind::ReadComplete, key, version, at)
    }

    fn write(key: Key, version: u64, at: u64) -> TraceRecord {
        completion(TraceEventKind::WriteComplete, key, version, at)
    }

    fn checker(events: Vec<TraceRecord>) -> HistoryChecker {
        HistoryChecker::new(&TraceDump { events, dropped: 0 }).expect("nothing was dropped")
    }

    #[test]
    fn monotonic_history_passes() {
        let out =
            checker(vec![read(1, 1, 10), read(1, 2, 5_000), read(1, 2, 10_000)]).monotonic_reads();
        assert!(out.holds);
        assert_eq!(out.checked, 3);
    }

    #[test]
    fn version_regression_fails() {
        let out = checker(vec![read(1, 5, 10), read(1, 3, 10_000)]).monotonic_reads();
        assert!(!out.holds);
        assert_eq!(out.violations.len(), 1);
    }

    #[test]
    fn other_clients_reads_do_not_interact() {
        // Session guarantee: regressions across different clients are not
        // monotonic-read violations.
        let mut r2 = read(1, 3, 10_000);
        r2.client = 1;
        assert!(checker(vec![read(1, 5, 10), r2]).monotonic_reads().holds);
    }

    #[test]
    fn different_keys_do_not_interact() {
        assert!(
            checker(vec![read(1, 9, 10), read(2, 1, 10_000)])
                .monotonic_reads()
                .holds
        );
    }

    #[test]
    fn lost_acknowledged_write_is_stale() {
        let mut recovered = RecoveredState::default();
        recovered.versions.insert(1, 2);
        let out = checker(vec![write(1, 4, 100)]).non_stale_after_recovery(&recovered);
        assert!(!out.holds);
    }

    #[test]
    fn recovered_writes_are_non_stale() {
        let mut recovered = RecoveredState::default();
        recovered.versions.insert(1, 4);
        let out =
            checker(vec![write(1, 4, 100), write(1, 2, 50)]).non_stale_after_recovery(&recovered);
        assert!(out.holds);
    }

    #[test]
    fn fresh_fraction_counts_stale_reads() {
        let f =
            checker(vec![write(1, 1, 100), read(1, 0, 200), read(1, 1, 300)]).fresh_read_fraction();
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_vacuously_good() {
        let checker = checker(Vec::new());
        assert!(checker.monotonic_reads().holds);
        assert!((checker.fresh_read_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn only_completions_enter_the_history() {
        let issue = completion(TraceEventKind::WriteIssue, 1, 9, 5);
        let checker = checker(vec![issue, read(1, 1, 10), write(1, 1, 20)]);
        assert_eq!((checker.reads().len(), checker.writes().len()), (1, 1));
    }

    #[test]
    fn a_wrapped_ring_is_refused() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        let small = TraceConfig {
            ring_capacity: 1_000,
            ..TraceConfig::enabled()
        };
        let small = Simulation::new(cfg.clone().with_trace(small)).finish();
        let trace = small.trace.expect("event tracing is on");
        assert!(trace.dropped > 0, "the run records more than 1,000 events");
        let refusal = HistoryChecker::new(&trace).expect_err("an incomplete history");
        assert!(refusal.contains("incomplete"), "{refusal}");

        let whole = Simulation::new(cfg.with_trace(TraceConfig::enabled())).finish();
        let trace = whole.trace.expect("event tracing is on");
        assert_eq!(trace.dropped, 0);
        assert!(HistoryChecker::new(&trace).is_ok());
    }
}
