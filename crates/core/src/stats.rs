//! Run statistics: everything Figures 6–9 and the §8 prose report.

use ddp_sim::{Duration, Histogram, LevelGauge, SimTime};
use ddp_trace::{PhaseAccum, PhaseBreakdown};

/// Statistics gathered over the measured window of one simulated run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Completed client read requests.
    pub reads_completed: u64,
    /// Completed client write requests.
    pub writes_completed: u64,
    /// Read latency distribution.
    pub read_latency: Histogram,
    /// Write latency distribution.
    pub write_latency: Histogram,
    /// Combined access latency distribution.
    pub access_latency: Histogram,
    /// Total bytes put on the wire.
    pub network_bytes: u64,
    /// Total protocol messages sent.
    pub messages_sent: u64,
    /// Reads that found a not-yet-persisted conflicting write and stalled
    /// (the §8.1.2 ">30 % of reads conflict" statistic).
    pub reads_stalled_on_persist: u64,
    /// Reads that stalled for a consistency condition (transient key).
    pub reads_stalled_on_consistency: u64,
    /// Transactions started.
    pub txns_started: u64,
    /// Transactions squashed by a conflict (the §8.1.1 "~30 % of
    /// transactions conflict" statistic).
    pub txns_conflicted: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Occupancy of the causal out-of-order / unpersisted write buffers
    /// (the §8.1.2 "1-2 orders of magnitude more buffered writes" metric).
    pub causal_buffered: LevelGauge,
    /// NVM persists issued.
    pub persists_issued: u64,
    /// Cumulative time spent by persists waiting on busy NVM banks.
    pub nvm_queue_wait: Duration,
    /// VP→DP durability lag: for each write, how long it was readable
    /// before its first copy survived failure (the paper's defining
    /// visible-but-not-durable window).
    pub vp_dp_lag: Histogram,
    /// Per-phase latency attribution over completed operations.
    pub phase: PhaseAccum,
    /// Simulated time the measured window covered.
    pub measured_time: Duration,
    /// Simulated instant the measured window started.
    pub window_start: SimTime,
    /// Messages the lossy fabric dropped (or that were addressed to a
    /// crashed node) during the measured window.
    pub messages_dropped: u64,
    /// Messages the lossy fabric delivered twice.
    pub messages_duplicated: u64,
    /// Messages that picked up extra fabric jitter.
    pub messages_delayed: u64,
    /// Protocol messages re-sent after an ACK timeout (INV/UPD/VAL and the
    /// transaction/scope round messages).
    pub retransmits: u64,
    /// Duplicate protocol messages suppressed by idempotence guards.
    pub duplicates_suppressed: u64,
    /// Client operations abandoned by the operation timeout.
    pub client_timeouts: u64,
    /// Follower transient states cleared by the lease timeout (a VAL was
    /// lost beyond the retransmission budget, or its coordinator died).
    pub transient_expirations: u64,
    /// Keys brought up to date when a rejoining node caught up from its
    /// peers.
    pub catchup_keys: u64,
    /// Node crash events over the whole run: `(node, time)`. Unlike the
    /// window counters above, these survive the warm-up reset — a fault
    /// trace is about the run, not the measured window.
    pub crashes: Vec<(u8, SimTime)>,
    /// Node rejoin events over the whole run: `(node, time)`.
    pub rejoins: Vec<(u8, SimTime)>,
    /// Open-loop arrivals during the measured window (zero on closed
    /// loops, like every `ol_` counter below).
    pub ol_arrivals: u64,
    /// Arrival rejections (full admission queue or crashed target node);
    /// one arrival can be rejected several times before admission or shed.
    pub ol_rejections: u64,
    /// Client-side retries scheduled after rejections.
    pub ol_retries: u64,
    /// Arrivals shed for good after exhausting their retry budget.
    pub ol_shed: u64,
    /// Sessions admitted (bound to a slot) in the window.
    pub admissions: u64,
    /// Cumulative queue + retry-backoff wait of admitted sessions.
    pub admission_wait: Duration,
    /// Admission-queue depth across all nodes, over time.
    pub admission_queue: LevelGauge,
    /// NVM bank-queue depth (persists in flight but not yet in service)
    /// across all nodes, sampled at persist issue/completion times.
    pub nvm_bank_queue: LevelGauge,
    /// Memtable seals scheduled by the LSM store tier (zero unless the
    /// store is `StoreKind::Lsm`, like every compaction field below).
    pub lsm_seals: u64,
    /// Level merges scheduled by the LSM store tier.
    pub lsm_merges: u64,
    /// NVM bytes written by background compaction (seals + merges).
    pub compaction_bytes: u64,
    /// In-flight background compactions across all nodes, over time.
    pub compactions_active: LevelGauge,
}

impl RunStats {
    /// Total completed client requests.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Throughput in client requests per simulated second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.measured_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Fraction of reads that stalled on a yet-to-persist write.
    #[must_use]
    pub fn read_persist_conflict_rate(&self) -> f64 {
        if self.reads_completed == 0 {
            return 0.0;
        }
        self.reads_stalled_on_persist as f64 / self.reads_completed as f64
    }

    /// Fraction of started transactions that conflicted.
    #[must_use]
    pub fn txn_conflict_rate(&self) -> f64 {
        if self.txns_started == 0 {
            return 0.0;
        }
        self.txns_conflicted as f64 / self.txns_started as f64
    }

    /// Measured offered load in arrivals per simulated second (zero on
    /// closed loops).
    #[must_use]
    pub fn offered_per_sec(&self) -> f64 {
        let secs = self.measured_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.ol_arrivals as f64 / secs
    }

    /// Fraction of arrivals shed (zero on closed loops).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.ol_arrivals == 0 {
            return 0.0;
        }
        self.ol_shed as f64 / self.ol_arrivals as f64
    }

    /// Folds another shard's statistics into this one for fleet-level
    /// aggregation: counters and durations sum, histograms merge, the
    /// measured window becomes the union (`window_start` = earliest start,
    /// `measured_time` = latest end minus that start), and fault traces
    /// concatenate.
    ///
    /// The four [`LevelGauge`] fields (`causal_buffered`,
    /// `admission_queue`, `nvm_bank_queue`, `compactions_active`) are
    /// *not* merged — a time-weighted occupancy has no meaningful pooled
    /// form at this layer. Fleet summaries instead sum the per-shard
    /// gauge-derived summary fields.
    pub fn absorb(&mut self, other: &RunStats) {
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.access_latency.merge(&other.access_latency);
        self.network_bytes += other.network_bytes;
        self.messages_sent += other.messages_sent;
        self.reads_stalled_on_persist += other.reads_stalled_on_persist;
        self.reads_stalled_on_consistency += other.reads_stalled_on_consistency;
        self.txns_started += other.txns_started;
        self.txns_conflicted += other.txns_conflicted;
        self.txns_committed += other.txns_committed;
        self.persists_issued += other.persists_issued;
        self.nvm_queue_wait += other.nvm_queue_wait;
        self.vp_dp_lag.merge(&other.vp_dp_lag);
        self.phase.merge(&other.phase);
        // Union of the measured windows: earliest start to latest end.
        let self_end = self.window_start + self.measured_time;
        let other_end = other.window_start + other.measured_time;
        self.window_start = self.window_start.min(other.window_start);
        self.measured_time = self_end.max(other_end).saturating_since(self.window_start);
        self.messages_dropped += other.messages_dropped;
        self.messages_duplicated += other.messages_duplicated;
        self.messages_delayed += other.messages_delayed;
        self.retransmits += other.retransmits;
        self.duplicates_suppressed += other.duplicates_suppressed;
        self.client_timeouts += other.client_timeouts;
        self.transient_expirations += other.transient_expirations;
        self.catchup_keys += other.catchup_keys;
        self.crashes.extend_from_slice(&other.crashes);
        self.rejoins.extend_from_slice(&other.rejoins);
        self.ol_arrivals += other.ol_arrivals;
        self.ol_rejections += other.ol_rejections;
        self.ol_retries += other.ol_retries;
        self.ol_shed += other.ol_shed;
        self.admissions += other.admissions;
        self.admission_wait += other.admission_wait;
        self.lsm_seals += other.lsm_seals;
        self.lsm_merges += other.lsm_merges;
        self.compaction_bytes += other.compaction_bytes;
    }
}

/// A condensed, comparable summary of one run (what the figure harnesses
/// print and normalize): latency, traffic and gauge metrics, plus the
/// fault, transaction and open-loop counters and the run length, copied
/// out of [`RunStats`] so a record is self-contained. Every field is a
/// column of the harness's `record_fields`, which binds this struct with
/// an exhaustive pattern, so a field without a column does not compile.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Requests per simulated second.
    pub throughput: f64,
    /// Mean read latency in ns.
    pub mean_read_ns: f64,
    /// Mean write latency in ns.
    pub mean_write_ns: f64,
    /// Mean access (read + write) latency in ns.
    pub mean_access_ns: f64,
    /// Median read latency in ns.
    pub p50_read_ns: f64,
    /// Median write latency in ns.
    pub p50_write_ns: f64,
    /// 95th-percentile read latency in ns.
    pub p95_read_ns: f64,
    /// 95th-percentile write latency in ns.
    pub p95_write_ns: f64,
    /// 99th-percentile read latency in ns.
    pub p99_read_ns: f64,
    /// 99th-percentile write latency in ns.
    pub p99_write_ns: f64,
    /// 99.9th-percentile read latency in ns (the SLO-grade tail the
    /// overload sweeps watch diverge).
    pub p999_read_ns: f64,
    /// 99.9th-percentile write latency in ns.
    pub p999_write_ns: f64,
    /// Bytes of network traffic per completed request.
    pub traffic_bytes_per_req: f64,
    /// Fraction of reads stalled on unpersisted writes.
    pub read_persist_conflict_rate: f64,
    /// Fraction of transactions squashed.
    pub txn_conflict_rate: f64,
    /// Time-weighted mean of buffered causal writes.
    pub mean_buffered_writes: f64,
    /// Peak buffered causal writes.
    pub max_buffered_writes: u64,
    /// Messages lost in the fabric or addressed to a crashed node
    /// (zero on the fault-free path).
    pub messages_dropped: u64,
    /// Messages the fabric delivered twice (zero on the fault-free path).
    pub messages_duplicated: u64,
    /// Protocol messages re-sent after ACK timeouts (zero on the fault-free
    /// path).
    pub retransmits: u64,
    /// Client operations abandoned by the operation timeout (zero on the
    /// fault-free path).
    pub client_timeouts: u64,
    /// Duplicate protocol messages suppressed by idempotence guards.
    pub duplicates_suppressed: u64,
    /// Follower transient states cleared by the lease timeout.
    pub transient_expirations: u64,
    /// Keys a rejoining node caught up from its peers.
    pub catchup_keys: u64,
    /// Transactions started.
    pub txns_started: u64,
    /// Transactions squashed by a conflict.
    pub txns_conflicted: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Crash trace over the whole run: `(node, simulated ns)`.
    pub crashes: Vec<(u8, u64)>,
    /// Rejoin trace over the whole run: `(node, simulated ns)`.
    pub rejoins: Vec<(u8, u64)>,
    /// Simulated ns at which the measured window opened (warm-up end).
    pub window_start_ns: u64,
    /// Simulated ns the measured window covered.
    pub measured_ns: u64,
    /// Mean VP→DP durability lag in ns (how long the average write was
    /// readable before it could survive failure).
    pub vp_dp_lag_mean_ns: f64,
    /// 95th-percentile VP→DP durability lag in ns.
    pub vp_dp_lag_p95_ns: f64,
    /// Peak VP→DP durability lag in ns.
    pub vp_dp_lag_max_ns: f64,
    /// Per-op mean phase attribution (where the nanoseconds went).
    pub phase: PhaseBreakdown,
    /// Measured offered load, arrivals per second (zero on closed loops,
    /// like every open-loop field below).
    pub offered_per_sec: f64,
    /// Fraction of arrivals shed.
    pub shed_rate: f64,
    /// Open-loop arrivals dispatched inside the measured window.
    pub ol_arrivals: u64,
    /// Open-loop admission rejections (full queue / down node) in window.
    pub ol_rejections: u64,
    /// Client-side retries scheduled after admission rejections.
    pub ol_retries: u64,
    /// Arrivals shed after exhausting their retry budget.
    pub ol_shed: u64,
    /// Arrivals admitted to a session slot inside the measured window.
    pub admissions: u64,
    /// Time-weighted mean admission-queue depth.
    pub mean_admission_queue: f64,
    /// Peak admission-queue depth.
    pub max_admission_queue: u64,
    /// Mean queue + retry wait of admitted sessions, in ns.
    pub mean_admission_wait_ns: f64,
    /// Time-weighted mean NVM bank-queue depth across all nodes.
    pub mean_nvm_bank_queue: f64,
    /// Peak NVM bank-queue depth across all nodes.
    pub max_nvm_bank_queue: u64,
    /// Memtable seals scheduled by the LSM store tier (zero unless the
    /// store is `StoreKind::Lsm`, like every compaction field below).
    pub lsm_seals: u64,
    /// Level merges scheduled by the LSM store tier.
    pub lsm_merges: u64,
    /// NVM bytes written by background compaction.
    pub compaction_bytes: u64,
    /// Time-weighted mean in-flight background compactions.
    pub mean_active_compactions: f64,
    /// Peak in-flight background compactions.
    pub max_active_compactions: u64,
}

impl RunSummary {
    /// Builds the summary from raw statistics.
    #[must_use]
    pub fn from_stats(stats: &RunStats) -> Self {
        let completed = stats.completed();
        RunSummary {
            throughput: stats.throughput(),
            mean_read_ns: stats.read_latency.mean().as_nanos() as f64,
            mean_write_ns: stats.write_latency.mean().as_nanos() as f64,
            mean_access_ns: stats.access_latency.mean().as_nanos() as f64,
            p50_read_ns: stats.read_latency.percentile(0.50).as_nanos() as f64,
            p50_write_ns: stats.write_latency.percentile(0.50).as_nanos() as f64,
            p95_read_ns: stats.read_latency.percentile(0.95).as_nanos() as f64,
            p95_write_ns: stats.write_latency.percentile(0.95).as_nanos() as f64,
            p99_read_ns: stats.read_latency.percentile(0.99).as_nanos() as f64,
            p99_write_ns: stats.write_latency.percentile(0.99).as_nanos() as f64,
            p999_read_ns: stats.read_latency.percentile(0.999).as_nanos() as f64,
            p999_write_ns: stats.write_latency.percentile(0.999).as_nanos() as f64,
            // An empty run generated no traffic *and* served no requests:
            // report 0, not bytes against a phantom request.
            traffic_bytes_per_req: if completed == 0 {
                0.0
            } else {
                stats.network_bytes as f64 / completed as f64
            },
            read_persist_conflict_rate: stats.read_persist_conflict_rate(),
            txn_conflict_rate: stats.txn_conflict_rate(),
            mean_buffered_writes: stats.causal_buffered.time_weighted_mean(),
            max_buffered_writes: stats.causal_buffered.max(),
            messages_dropped: stats.messages_dropped,
            messages_duplicated: stats.messages_duplicated,
            retransmits: stats.retransmits,
            client_timeouts: stats.client_timeouts,
            duplicates_suppressed: stats.duplicates_suppressed,
            transient_expirations: stats.transient_expirations,
            catchup_keys: stats.catchup_keys,
            txns_started: stats.txns_started,
            txns_conflicted: stats.txns_conflicted,
            txns_committed: stats.txns_committed,
            crashes: trace_ns(&stats.crashes),
            rejoins: trace_ns(&stats.rejoins),
            window_start_ns: stats.window_start.as_nanos(),
            measured_ns: stats.measured_time.as_nanos(),
            vp_dp_lag_mean_ns: stats.vp_dp_lag.mean().as_nanos() as f64,
            vp_dp_lag_p95_ns: stats.vp_dp_lag.percentile(0.95).as_nanos() as f64,
            vp_dp_lag_max_ns: stats.vp_dp_lag.max().as_nanos() as f64,
            phase: PhaseBreakdown::from_accum(
                &stats.phase,
                stats.nvm_queue_wait,
                stats.persists_issued,
                stats.reads_completed,
            ),
            offered_per_sec: stats.offered_per_sec(),
            shed_rate: stats.shed_rate(),
            ol_arrivals: stats.ol_arrivals,
            ol_rejections: stats.ol_rejections,
            ol_retries: stats.ol_retries,
            ol_shed: stats.ol_shed,
            admissions: stats.admissions,
            mean_admission_queue: stats.admission_queue.time_weighted_mean(),
            max_admission_queue: stats.admission_queue.max(),
            mean_admission_wait_ns: if stats.admissions == 0 {
                0.0
            } else {
                stats.admission_wait.as_nanos() as f64 / stats.admissions as f64
            },
            mean_nvm_bank_queue: stats.nvm_bank_queue.time_weighted_mean(),
            max_nvm_bank_queue: stats.nvm_bank_queue.max(),
            lsm_seals: stats.lsm_seals,
            lsm_merges: stats.lsm_merges,
            compaction_bytes: stats.compaction_bytes,
            mean_active_compactions: stats.compactions_active.time_weighted_mean(),
            max_active_compactions: stats.compactions_active.max(),
        }
    }

    /// Total simulated run length (warm-up + measured window) in ns — the
    /// anchor the fault sweep scales its crash schedules to.
    #[must_use]
    pub fn run_ns(&self) -> u64 {
        self.window_start_ns + self.measured_ns
    }
}

/// A `(node, time)` fault trace in simulated nanoseconds.
fn trace_ns(events: &[(u8, SimTime)]) -> Vec<(u8, u64)> {
    events.iter().map(|&(n, t)| (n, t.as_nanos())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.completed(), 0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.read_persist_conflict_rate(), 0.0);
        assert_eq!(s.txn_conflict_rate(), 0.0);
    }

    #[test]
    fn throughput_uses_measured_window() {
        let s = RunStats {
            reads_completed: 500,
            writes_completed: 500,
            measured_time: Duration::from_millis(1),
            ..RunStats::default()
        };
        assert!((s.throughput() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn rates_divide_correctly() {
        let s = RunStats {
            reads_completed: 100,
            reads_stalled_on_persist: 31,
            txns_started: 10,
            txns_conflicted: 3,
            ..RunStats::default()
        };
        assert!((s.read_persist_conflict_rate() - 0.31).abs() < 1e-12);
        assert!((s.txn_conflict_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn summary_from_stats() {
        let mut s = RunStats {
            reads_completed: 2,
            writes_completed: 2,
            network_bytes: 400,
            measured_time: Duration::from_micros(10),
            ..RunStats::default()
        };
        s.read_latency.record(Duration::from_nanos(100));
        s.read_latency.record(Duration::from_nanos(300));
        s.write_latency.record(Duration::from_nanos(1_000));
        s.write_latency.record(Duration::from_nanos(3_000));
        s.access_latency.record(Duration::from_nanos(100));
        let sum = RunSummary::from_stats(&s);
        assert!((sum.mean_read_ns - 200.0).abs() < 1.0);
        assert!((sum.mean_write_ns - 2_000.0).abs() < 1.0);
        assert!((sum.traffic_bytes_per_req - 100.0).abs() < 1e-9);
        assert!(sum.throughput > 0.0);
        // Percentiles are ordered: p50 ≤ p95 ≤ p99 on every distribution.
        assert!(sum.p50_read_ns <= sum.p95_read_ns);
        assert!(sum.p95_read_ns <= sum.p99_read_ns);
        assert!(sum.p50_write_ns <= sum.p95_write_ns);
        assert!(sum.p95_write_ns <= sum.p99_write_ns);
    }

    #[test]
    fn empty_run_reports_zero_traffic_per_request() {
        // Regression: an empty run used to divide its (zero) byte count by
        // a phantom request via `completed().max(1)`. With bytes present
        // but nothing completed (a run cut off before any completion),
        // that reported finite traffic against a request that never
        // happened; it must be 0.0.
        let s = RunStats {
            network_bytes: 4_096,
            ..RunStats::default()
        };
        assert_eq!(s.completed(), 0);
        let sum = RunSummary::from_stats(&s);
        assert_eq!(sum.traffic_bytes_per_req, 0.0);
    }

    #[test]
    fn open_loop_fields_surface_in_summary() {
        let mut s = RunStats {
            ol_arrivals: 1_000,
            ol_rejections: 120,
            ol_retries: 100,
            ol_shed: 20,
            admissions: 4,
            admission_wait: Duration::from_nanos(800),
            measured_time: Duration::from_millis(1),
            ..RunStats::default()
        };
        s.admission_queue.set(SimTime::ZERO, 5);
        s.admission_queue.finish(SimTime::from_nanos(1_000));
        assert!((s.offered_per_sec() - 1_000_000.0).abs() < 1e-6);
        assert!((s.shed_rate() - 0.02).abs() < 1e-12);
        let sum = RunSummary::from_stats(&s);
        assert!((sum.offered_per_sec - 1_000_000.0).abs() < 1e-6);
        assert!((sum.shed_rate - 0.02).abs() < 1e-12);
        assert_eq!(sum.ol_retries, 100);
        assert_eq!(sum.ol_shed, 20);
        assert_eq!(sum.max_admission_queue, 5);
        assert!((sum.mean_admission_wait_ns - 200.0).abs() < 1e-9);
        // Closed-loop stats report inert zeros.
        let closed = RunSummary::from_stats(&RunStats::default());
        assert_eq!(closed.offered_per_sec, 0.0);
        assert_eq!(closed.shed_rate, 0.0);
        assert_eq!(closed.mean_admission_wait_ns, 0.0);
    }

    #[test]
    fn nvm_bank_queue_gauge_surfaces_in_summary() {
        let mut s = RunStats::default();
        s.nvm_bank_queue.set(SimTime::ZERO, 6);
        s.nvm_bank_queue.set(SimTime::from_nanos(500), 2);
        s.nvm_bank_queue.finish(SimTime::from_nanos(1_000));
        let sum = RunSummary::from_stats(&s);
        assert_eq!(sum.max_nvm_bank_queue, 6);
        // 6 for 500ns, 2 for 500ns => mean 4.
        assert!((sum.mean_nvm_bank_queue - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compaction_fields_surface_in_summary_and_default_to_zero() {
        let mut s = RunStats {
            lsm_seals: 12,
            lsm_merges: 3,
            compaction_bytes: 96_000,
            ..RunStats::default()
        };
        s.compactions_active.set(SimTime::ZERO, 2);
        s.compactions_active.set(SimTime::from_nanos(500), 0);
        s.compactions_active.finish(SimTime::from_nanos(1_000));
        let sum = RunSummary::from_stats(&s);
        assert_eq!(sum.lsm_seals, 12);
        assert_eq!(sum.lsm_merges, 3);
        assert_eq!(sum.compaction_bytes, 96_000);
        assert_eq!(sum.max_active_compactions, 2);
        // 2 for 500ns, 0 for 500ns => mean 1.
        assert!((sum.mean_active_compactions - 1.0).abs() < 1e-9);

        let quiet = RunSummary::from_stats(&RunStats::default());
        assert_eq!(quiet.lsm_seals, 0);
        assert_eq!(quiet.compaction_bytes, 0);
        assert_eq!(quiet.mean_active_compactions, 0.0);
    }

    #[test]
    fn absorb_sums_counters_and_unions_windows() {
        let a = RunStats {
            reads_completed: 10,
            writes_completed: 5,
            network_bytes: 100,
            ol_arrivals: 7,
            window_start: SimTime::from_nanos(100),
            measured_time: Duration::from_nanos(400), // window [100, 500]
            crashes: vec![(0, SimTime::from_nanos(50))],
            ..RunStats::default()
        };
        let b = RunStats {
            reads_completed: 3,
            writes_completed: 2,
            network_bytes: 40,
            ol_arrivals: 1,
            window_start: SimTime::from_nanos(80),
            measured_time: Duration::from_nanos(300), // window [80, 380]
            crashes: vec![(1, SimTime::from_nanos(60))],
            ..RunStats::default()
        };
        let mut merged = RunStats {
            window_start: a.window_start,
            ..RunStats::default()
        };
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.completed(), 20);
        assert_eq!(merged.network_bytes, 140);
        assert_eq!(merged.ol_arrivals, 8);
        assert_eq!(merged.window_start, SimTime::from_nanos(80));
        assert_eq!(merged.measured_time, Duration::from_nanos(420)); // [80, 500]
        assert_eq!(merged.crashes.len(), 2);
    }

    #[test]
    fn absorb_of_single_shard_is_identity_for_the_window() {
        let a = RunStats {
            reads_completed: 4,
            window_start: SimTime::from_nanos(1_000),
            measured_time: Duration::from_nanos(2_500),
            ..RunStats::default()
        };
        let mut merged = RunStats {
            window_start: a.window_start,
            ..RunStats::default()
        };
        merged.absorb(&a);
        assert_eq!(merged.window_start, a.window_start);
        assert_eq!(merged.measured_time, a.measured_time);
        assert_eq!(merged.reads_completed, 4);
    }

    #[test]
    fn p999_is_ordered_after_p99() {
        let mut s = RunStats::default();
        for i in 1..=1_000u64 {
            s.read_latency.record(Duration::from_nanos(i));
        }
        let sum = RunSummary::from_stats(&s);
        assert!(sum.p99_read_ns <= sum.p999_read_ns);
        assert!(sum.p999_read_ns >= 990.0);
    }

    #[test]
    fn lag_and_phase_surface_in_summary() {
        let mut s = RunStats::default();
        s.vp_dp_lag.record(Duration::from_nanos(1_000));
        s.vp_dp_lag.record(Duration::from_nanos(3_000));
        s.phase.record_write(
            Duration::from_nanos(100),
            Duration::ZERO,
            Duration::from_nanos(400),
            Duration::from_nanos(50),
        );
        s.nvm_queue_wait = Duration::from_nanos(600);
        s.persists_issued = 3;
        let sum = RunSummary::from_stats(&s);
        assert!((sum.vp_dp_lag_mean_ns - 2_000.0).abs() < 60.0);
        assert!(sum.vp_dp_lag_p95_ns >= sum.vp_dp_lag_mean_ns);
        assert!(sum.vp_dp_lag_max_ns >= sum.vp_dp_lag_p95_ns);
        assert!((sum.phase.service_ns - 100.0).abs() < 1e-9);
        assert!((sum.phase.network_ns - 400.0).abs() < 1e-9);
        assert!((sum.phase.nvm_queue_ns - 200.0).abs() < 1e-9);
    }
}
