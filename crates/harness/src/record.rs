//! The per-trial result record the executor produces.

use ddp_core::{DdpModel, RunStats, RunSummary, Simulation};

/// Run-level counters that complement [`RunSummary`]: the fault machinery,
/// transaction outcomes, and the run length — everything the fault sweep
/// and the application-style harnesses read off `cluster().stats()` after
/// a run. All fields are copied out of [`RunStats`] so records stay
/// self-contained, comparable, and serializable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunCounters {
    /// Messages the fabric dropped (or addressed to a crashed node).
    pub messages_dropped: u64,
    /// Messages the fabric delivered twice.
    pub messages_duplicated: u64,
    /// Protocol messages re-sent after ACK timeouts.
    pub retransmits: u64,
    /// Client operations abandoned by the operation timeout.
    pub client_timeouts: u64,
    /// Duplicate protocol messages suppressed by idempotence guards.
    pub duplicates_suppressed: u64,
    /// Follower transient states cleared by the lease timeout.
    pub transient_expirations: u64,
    /// Keys a rejoining node caught up from its peers.
    pub catchup_keys: u64,
    /// Transactions started / squashed / committed.
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
    /// Open-loop arrivals dispatched inside the measured window.
    pub ol_arrivals: u64,
    /// Open-loop admission rejections (full queue / down node) in window.
    pub ol_rejections: u64,
    /// Arrivals admitted to a session slot inside the measured window.
    pub admissions: u64,
}

impl RunCounters {
    /// Copies the record-worthy counters out of raw run statistics.
    #[must_use]
    pub fn from_stats(stats: &RunStats) -> Self {
        RunCounters {
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
            crashes: stats
                .crashes
                .iter()
                .map(|&(n, t)| (n, t.as_nanos()))
                .collect(),
            rejoins: stats
                .rejoins
                .iter()
                .map(|&(n, t)| (n, t.as_nanos()))
                .collect(),
            window_start_ns: stats.window_start.as_nanos(),
            measured_ns: stats.measured_time.as_nanos(),
            ol_arrivals: stats.ol_arrivals,
            ol_rejections: stats.ol_rejections,
            admissions: stats.admissions,
        }
    }

    /// Total simulated run length (warm-up + measured window) in ns — the
    /// anchor the fault sweep scales its crash schedules to.
    #[must_use]
    pub fn run_ns(&self) -> u64 {
        self.window_start_ns + self.measured_ns
    }
}

/// One completed trial: the grid position, the model, the condensed
/// summary, and the run-level counters.
///
/// Records are pure simulation output — no host wall-clock, no thread
/// ids — so a sweep's record stream is byte-identical no matter how many
/// executor threads produced it or in which order trials finished.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Position of the trial in its sweep (stable under parallelism).
    pub index: usize,
    /// The trial's label.
    pub label: String,
    /// The DDP model that ran.
    pub model: DdpModel,
    /// Condensed metrics (what the figures plot).
    pub summary: RunSummary,
    /// Fault/transaction counters and the run length.
    pub counters: RunCounters,
}

impl RunRecord {
    /// A default-valued record used where only the field *shape* matters
    /// (e.g. deriving the CSV header from the shared field schema).
    #[must_use]
    pub fn empty_schema_probe() -> Self {
        RunRecord {
            index: 0,
            label: String::new(),
            model: DdpModel::baseline(),
            summary: RunSummary::from_stats(&RunStats::default()),
            counters: RunCounters::default(),
        }
    }

    /// Condenses one finished run of `model` into a record.
    #[must_use]
    pub(crate) fn from_stats(
        index: usize,
        label: String,
        model: DdpModel,
        stats: &RunStats,
    ) -> Self {
        RunRecord {
            index,
            label,
            model,
            summary: RunSummary::from_stats(stats),
            counters: RunCounters::from_stats(stats),
        }
    }

    /// Condenses one simulation into a record, running it first if it has
    /// not run yet.
    #[must_use]
    pub fn from_simulation(index: usize, label: String, sim: &mut Simulation) -> Self {
        let report = sim.run();
        Self::from_stats(index, label, report.model, sim.cluster().stats())
    }
}
