//! Per-phase latency attribution: where a request's nanoseconds went.
//!
//! Every completed write decomposes into non-overlapping intervals along
//! its critical path; reads contribute their wall-clock stall time once,
//! whatever blocked them (the cause is in the `stall_begin` trace record).
//! The raw accumulator ([`PhaseAccum`]) lives in `RunStats` and sums
//! simulated durations; the condensed per-op means ([`PhaseBreakdown`])
//! live in `RunSummary` next to the throughput/latency fields.

use ddp_sim::Duration;

/// Raw phase-time accumulators over the measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseAccum {
    /// Client link + coordinator admission + service time, from issue to
    /// the start of the write round.
    pub write_service: Duration,
    /// Time a Linearizable write waited behind an earlier write to the
    /// same key before its round could start.
    pub write_queue: Duration,
    /// Time from the write's VP until its consistency condition held
    /// (all follower ACKs in) — the invalidation round-trip.
    pub write_network: Duration,
    /// Additional time the client ack waited for the durability
    /// condition after consistency was satisfied.
    pub write_persist_stall: Duration,
    /// Completed writes folded into the write phases above.
    pub writes: u64,
    /// Time reads spent stalled on a transient (consistency) key, a
    /// visible-but-unpersisted write, or both at once.
    pub read_stall: Duration,
}

impl PhaseAccum {
    /// Folds one completed write's decomposition in.
    pub fn record_write(
        &mut self,
        service: Duration,
        queue: Duration,
        network: Duration,
        persist_stall: Duration,
    ) {
        self.write_service += service;
        self.write_queue += queue;
        self.write_network += network;
        self.write_persist_stall += persist_stall;
        self.writes += 1;
    }

    /// Folds one resumed read's stall in.
    pub fn record_read_stall(&mut self, stall: Duration) {
        self.read_stall += stall;
    }

    /// Folds another accumulator in, field by field. Used when aggregating
    /// independent runs (e.g. the shards of a fleet) into one total.
    pub fn merge(&mut self, other: &PhaseAccum) {
        self.write_service += other.write_service;
        self.write_queue += other.write_queue;
        self.write_network += other.write_network;
        self.write_persist_stall += other.write_persist_stall;
        self.writes += other.writes;
        self.read_stall += other.read_stall;
    }
}

/// Per-op mean phase times in nanoseconds — the condensed, comparable
/// form `RunSummary` carries and the bench bins tabulate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Mean service (link + admission + execution) ns per completed write.
    pub service_ns: f64,
    /// Mean same-key serialization wait ns per completed write.
    pub queue_ns: f64,
    /// Mean invalidation round-trip ns per completed write.
    pub network_ns: f64,
    /// Mean durability wait ns per completed write.
    pub persist_stall_ns: f64,
    /// Mean NVM bank queue wait ns per issued persist.
    pub nvm_queue_ns: f64,
    /// Mean stall ns per completed read (wall-clock, whatever the cause).
    pub read_stall_ns: f64,
}

impl PhaseBreakdown {
    /// Condenses raw accumulators into per-op means. `nvm_queue_wait` and
    /// `persists` come from the NVM counters `RunStats` keeps outside the
    /// accumulator; `reads` is the completed-read denominator.
    #[must_use]
    pub fn from_accum(
        accum: &PhaseAccum,
        nvm_queue_wait: Duration,
        persists: u64,
        reads: u64,
    ) -> Self {
        let per = |total: Duration, n: u64| {
            if n == 0 {
                0.0
            } else {
                total.as_nanos() as f64 / n as f64
            }
        };
        PhaseBreakdown {
            service_ns: per(accum.write_service, accum.writes),
            queue_ns: per(accum.write_queue, accum.writes),
            network_ns: per(accum.write_network, accum.writes),
            persist_stall_ns: per(accum.write_persist_stall, accum.writes),
            nvm_queue_ns: per(nvm_queue_wait, persists),
            read_stall_ns: per(accum.read_stall, reads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let mut a = PhaseAccum::default();
        a.record_write(
            Duration::from_nanos(100),
            Duration::from_nanos(20),
            Duration::from_nanos(300),
            Duration::from_nanos(60),
        );
        let mut b = PhaseAccum::default();
        b.record_write(
            Duration::from_nanos(300),
            Duration::ZERO,
            Duration::from_nanos(500),
            Duration::ZERO,
        );
        b.record_read_stall(Duration::from_nanos(120));
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.writes, 2);
        assert_eq!(merged.write_service, Duration::from_nanos(400));
        assert_eq!(merged.write_network, Duration::from_nanos(800));
        assert_eq!(merged.read_stall, Duration::from_nanos(120));
    }

    #[test]
    fn empty_accum_breaks_down_to_zeroes() {
        let b = PhaseBreakdown::from_accum(&PhaseAccum::default(), Duration::ZERO, 0, 0);
        assert_eq!(b, PhaseBreakdown::default());
    }

    #[test]
    fn breakdown_divides_by_the_right_denominators() {
        let mut a = PhaseAccum::default();
        a.record_write(
            Duration::from_nanos(100),
            Duration::from_nanos(20),
            Duration::from_nanos(300),
            Duration::from_nanos(60),
        );
        a.record_write(
            Duration::from_nanos(300),
            Duration::ZERO,
            Duration::from_nanos(500),
            Duration::ZERO,
        );
        a.record_read_stall(Duration::from_nanos(120));
        let b = PhaseBreakdown::from_accum(&a, Duration::from_nanos(900), 3, 4);
        assert!((b.service_ns - 200.0).abs() < 1e-12);
        assert!((b.queue_ns - 10.0).abs() < 1e-12);
        assert!((b.network_ns - 400.0).abs() < 1e-12);
        assert!((b.persist_stall_ns - 30.0).abs() < 1e-12);
        assert!((b.nvm_queue_ns - 300.0).abs() < 1e-12);
        assert!((b.read_stall_ns - 30.0).abs() < 1e-12);
    }
}
