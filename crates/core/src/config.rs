//! Cluster and experiment configuration.

use ddp_mem::MemoryParams;
use ddp_net::NetworkParams;
use ddp_sim::Duration;
use ddp_store::StoreKind;
use ddp_trace::TraceConfig;
use ddp_workload::{ArrivalProcess, WorkloadSpec};

use crate::model::DdpModel;

/// One scheduled node failure: the node crashes `at` into the run (losing
/// all volatile state, keeping its NVM image) and rejoins `down_for` later
/// through the catch-up path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Which node dies (zero-based, must be `< nodes`).
    pub node: u8,
    /// Simulated time into the run at which the node crashes.
    pub at: Duration,
    /// How long the node stays down before rejoining.
    pub down_for: Duration,
}

/// A deterministic, reproducible fault-injection plan for one run.
///
/// Faults are strictly opt-in: the default plan is inert and leaves every
/// simulation bit-identical to one that predates fault injection. When any
/// fault is enabled, the protocol additionally arms its robustness
/// machinery (ACK timeouts with bounded exponential-backoff retransmission,
/// duplicate suppression, client operation timeouts, transient-state
/// leases), all driven by seeded RNG streams so two runs with the same plan
/// replay the same fault sequence.
///
/// # Examples
///
/// ```
/// use ddp_core::FaultPlan;
/// use ddp_sim::Duration;
///
/// assert!(!FaultPlan::none().active());
///
/// let mut plan = FaultPlan::none();
/// plan.drop_prob = 0.01;
/// plan.crashes.push(ddp_core::CrashEvent {
///     node: 2,
///     at: Duration::from_micros(50),
///     down_for: Duration::from_micros(30),
/// });
/// assert!(plan.active() && plan.lossy());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability the fabric silently drops a message.
    pub drop_prob: f64,
    /// Probability the fabric delivers a message twice.
    pub dup_prob: f64,
    /// Maximum extra fabric delay per message (uniform in `[0, max_jitter]`).
    pub max_jitter: Duration,
    /// Scheduled node crash/rejoin events.
    pub crashes: Vec<CrashEvent>,
    /// Base coordinator-side ACK timeout before a round is retransmitted;
    /// doubles per attempt (exponential backoff).
    pub ack_timeout: Duration,
    /// Maximum retransmission attempts per protocol round.
    pub max_retransmits: u32,
    /// Client-level operation timeout: the liveness net of last resort. An
    /// operation making no progress for this long is abandoned and its
    /// client re-issues.
    pub op_timeout: Duration,
    /// How long a follower holds a key transient (INV seen, VAL missing)
    /// before unilaterally clearing it — bounds read stalls when a VAL is
    /// lost beyond the retransmission budget or its coordinator died.
    pub transient_timeout: Duration,
    /// Seed for the fault RNG streams, mixed with the run seed.
    pub fault_seed: u64,
}

impl FaultPlan {
    /// The inert plan: no loss, no crashes, no protocol changes.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            dup_prob: 0.0,
            max_jitter: Duration::ZERO,
            crashes: Vec::new(),
            ack_timeout: Duration::from_micros(20),
            max_retransmits: 3,
            op_timeout: Duration::from_millis(1),
            transient_timeout: Duration::from_micros(100),
            fault_seed: 0xFA017,
        }
    }

    /// True if the fabric can drop, duplicate, or delay messages.
    #[must_use]
    pub fn lossy(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.max_jitter > Duration::ZERO
    }

    /// True if any fault is enabled; arms the protocol robustness machinery.
    #[must_use]
    pub fn active(&self) -> bool {
        self.lossy() || !self.crashes.is_empty()
    }

    /// Validates the plan against a cluster of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self, nodes: u8) -> Result<(), String> {
        for (name, p) in [("drop_prob", self.drop_prob), ("dup_prob", self.dup_prob)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        for c in &self.crashes {
            if c.node >= nodes {
                return Err(format!(
                    "crash event names node {} but cluster has {nodes}",
                    c.node
                ));
            }
            if c.down_for == Duration::ZERO {
                return Err(
                    "crash down_for must be positive (permanent crashes unsupported)".into(),
                );
            }
        }
        if self.active() {
            if self.ack_timeout == Duration::ZERO {
                return Err("ack_timeout must be positive when faults are active".into());
            }
            if self.max_retransmits > 16 {
                return Err("max_retransmits > 16 overflows the backoff schedule".into());
            }
            if self.op_timeout <= self.ack_timeout {
                return Err("op_timeout must exceed ack_timeout".into());
            }
            if self.transient_timeout == Duration::ZERO {
                return Err("transient_timeout must be positive when faults are active".into());
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Tuning for the LSM store tier's simulated background compaction.
///
/// Only consulted when [`ClusterConfig::store`] is [`StoreKind::Lsm`]: for
/// every other backend the configuration is inert and the event stream is
/// bit-identical to one that predates the LSM tier. When the LSM store is
/// selected, memtable seals and level merges are scheduled as engine events
/// whose byte volume consumes NVM bank bandwidth, so foreground persists
/// queue behind compaction bursts.
///
/// # Examples
///
/// ```
/// use ddp_core::CompactionConfig;
///
/// let cc = CompactionConfig::default();
/// assert!(cc.validate().is_ok());
/// assert_eq!(cc.fanout, 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Memtable entries buffered before a seal flushes them to level 0.
    pub memtable_entries: u32,
    /// Batches per level before they merge into the next level.
    pub fanout: u32,
    /// NVM bytes written per sealed or merged entry (key + value + batch
    /// metadata amortised).
    pub entry_bytes: u64,
    /// Compaction writes stripe across NVM banks in chunks of this size.
    pub chunk_bytes: u64,
}

impl CompactionConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.memtable_entries == 0 {
            return Err("compaction memtable_entries must be positive".into());
        }
        if self.fanout < 2 {
            return Err("compaction fanout must be at least 2".into());
        }
        if self.entry_bytes == 0 {
            return Err("compaction entry_bytes must be positive".into());
        }
        if self.chunk_bytes == 0 {
            return Err("compaction chunk_bytes must be positive".into());
        }
        Ok(())
    }
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            memtable_entries: 256,
            fanout: 4,
            entry_bytes: 64,
            chunk_bytes: 256,
        }
    }
}

/// Bursty-traffic shape for an open-loop run: the arrival stream alternates
/// between a quiet and a burst phase (two-state MMPP), keeping the requested
/// long-run mean rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstProfile {
    /// Burst-phase rate as a multiple of the quiet-phase rate (`>= 1`).
    pub high_ratio: f64,
    /// Mean dwell time in each phase.
    pub mean_dwell: Duration,
}

/// Open-loop client mode: requests arrive at a configured *rate* rather
/// than from a fixed closed loop, so offered load can exceed capacity.
///
/// Arrivals are spread round-robin over the nodes. Each node owns a pool of
/// session slots (its share of [`ClusterConfig::clients`]) and a bounded
/// admission queue. An arrival binds a free slot immediately, waits in the
/// queue if all slots are busy, or — when the queue is full — is rejected
/// and retried client-side with exponential backoff and jitter until
/// `max_retries` is exhausted, at which point it is shed.
///
/// # Examples
///
/// ```
/// use ddp_core::OpenLoopPlan;
///
/// let plan = OpenLoopPlan::poisson(2_000_000.0);
/// assert!(plan.queue_capacity.is_some());
/// assert!(plan.validate().is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OpenLoopPlan {
    /// Long-run mean offered load, requests per simulated second.
    pub offered_per_sec: f64,
    /// Bursty (MMPP) modulation; `None` keeps plain Poisson arrivals.
    pub burst: Option<BurstProfile>,
    /// Per-node admission queue capacity; `None` means unbounded (no load
    /// shedding — the degenerate configuration the overload bench compares
    /// against).
    pub queue_capacity: Option<u32>,
    /// Rejected arrivals retry this many times before being shed for good.
    pub max_retries: u32,
    /// Base retry backoff; doubles per attempt.
    pub retry_backoff: Duration,
    /// Uniform jitter added to each retry backoff, so retries from a burst
    /// of rejections don't re-collide.
    pub retry_jitter: Duration,
}

impl OpenLoopPlan {
    /// Poisson arrivals at `offered_per_sec` with the default admission
    /// policy: a 64-deep per-node queue, 3 retries, 5 µs base backoff.
    #[must_use]
    pub fn poisson(offered_per_sec: f64) -> Self {
        OpenLoopPlan {
            offered_per_sec,
            burst: None,
            queue_capacity: Some(64),
            max_retries: 3,
            retry_backoff: Duration::from_micros(5),
            retry_jitter: Duration::from_micros(5),
        }
    }

    /// Switches to bursty arrivals: the burst phase runs at `high_ratio`
    /// times the quiet rate, with `mean_dwell` average time in each phase.
    #[must_use]
    pub fn with_burst(mut self, high_ratio: f64, mean_dwell: Duration) -> Self {
        self.burst = Some(BurstProfile {
            high_ratio,
            mean_dwell,
        });
        self
    }

    /// Overrides the per-node admission queue capacity (`None` = unbounded).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: Option<u32>) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the client-side retry budget.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The arrival process this plan describes.
    #[must_use]
    pub fn arrival_process(&self) -> ArrivalProcess {
        match self.burst {
            None => ArrivalProcess::poisson(self.offered_per_sec),
            Some(b) => ArrivalProcess::bursty(self.offered_per_sec, b.high_ratio, b.mean_dwell),
        }
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        self.arrival_process().validate()?;
        if let Some(b) = self.burst {
            if !(b.high_ratio.is_finite() && b.high_ratio >= 1.0) {
                return Err(format!(
                    "burst high_ratio must be >= 1, got {}",
                    b.high_ratio
                ));
            }
        }
        if self.queue_capacity == Some(0) {
            return Err(
                "queue_capacity 0 would reject every queued arrival; use Some(n>0) or None".into(),
            );
        }
        if self.max_retries > 0 && self.retry_backoff == Duration::ZERO {
            return Err("retry_backoff must be positive when retries are enabled".into());
        }
        if self.max_retries > 16 {
            return Err("max_retries > 16 overflows the backoff schedule".into());
        }
        Ok(())
    }
}

/// Full configuration of one simulated experiment.
///
/// Defaults reproduce the paper's setup: 5 servers, 20 clients per server
/// (100 total), YCSB-A, Table 5 memory and network parameters, transactions
/// of 5 requests and scopes of 10 requests (§7).
///
/// # Examples
///
/// ```
/// use ddp_core::{ClusterConfig, DdpModel};
///
/// let cfg = ClusterConfig::micro21(DdpModel::baseline());
/// assert_eq!(cfg.nodes, 5);
/// assert_eq!(cfg.clients, 100);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The DDP model under test.
    pub model: DdpModel,
    /// Number of server nodes (every key is replicated on all of them).
    pub nodes: u8,
    /// Total closed-loop clients, spread round-robin over the nodes.
    pub clients: u32,
    /// The request workload.
    pub workload: WorkloadSpec,
    /// Which KV backend holds the replicas.
    pub store: StoreKind,
    /// Per-node memory system parameters.
    pub memory: MemoryParams,
    /// Fabric parameters.
    pub network: NetworkParams,
    /// Client requests per transaction under Transactional consistency
    /// (paper: 5).
    pub txn_size: u32,
    /// Client requests per scope under Scope persistency (paper: 10).
    pub scope_size: u32,
    /// Delay before an Eventual-consistency coordinator sends its UPDs.
    pub lazy_propagation_delay: Duration,
    /// Delay before an Eventual-persistency node starts a background persist.
    pub lazy_persist_delay: Duration,
    /// Backoff before a squashed transaction retries.
    pub txn_retry_backoff: Duration,
    /// One-way latency between a client thread and a worker thread on its
    /// node (shared-memory queues in the paper's setup).
    pub client_link_delay: Duration,
    /// Worker CPU time to process one request (parse, store access,
    /// response build). Workers are bounded by the core count.
    pub request_service: Duration,
    /// Extra worker CPU per request under Causal consistency: building,
    /// carrying, and checking causal histories (the paper rates Causal
    /// implementability low for this reason).
    pub causal_tracking_overhead: Duration,
    /// RNG seed for the whole experiment.
    pub seed: u64,
    /// Number of client requests to complete before statistics start
    /// (warm-up, mirroring the paper's 1 B-instruction warm-up).
    pub warmup_requests: u64,
    /// Number of measured client requests after warm-up.
    pub measured_requests: u64,
    /// Record per-operation observations (read/write log) for the
    /// consistency/durability checkers. Off by default: the log grows with
    /// the run length.
    pub record_observations: bool,
    /// Open-loop arrival mode; `None` keeps the paper's closed-loop
    /// clients. When set, `clients` becomes the number of concurrent
    /// session slots (maximum in-service requests) rather than a closed
    /// loop, and arrivals follow the plan's rate process.
    pub open_loop: Option<OpenLoopPlan>,
    /// Fault-injection plan; inert by default.
    pub faults: FaultPlan,
    /// LSM compaction tuning; only consulted when `store` is
    /// [`StoreKind::Lsm`], inert otherwise.
    pub compaction: CompactionConfig,
    /// Event tracing and gauge sampling; inert by default. The tracer is
    /// read-only: enabling it changes the trace output and nothing else.
    pub trace: TraceConfig,
}

impl ClusterConfig {
    /// The paper's default configuration for a given DDP model.
    #[must_use]
    pub fn micro21(model: DdpModel) -> Self {
        ClusterConfig {
            model,
            nodes: 5,
            clients: 100,
            workload: WorkloadSpec::ycsb_a(),
            store: StoreKind::HashTable,
            memory: MemoryParams::micro21(),
            network: NetworkParams::micro21(),
            txn_size: 5,
            scope_size: 10,
            lazy_propagation_delay: Duration::from_micros(5),
            lazy_persist_delay: Duration::from_micros(5),
            txn_retry_backoff: Duration::from_nanos(500),
            client_link_delay: Duration::from_nanos(500),
            request_service: Duration::from_nanos(2_000),
            causal_tracking_overhead: Duration::from_nanos(800),
            seed: 0xDD9,
            warmup_requests: 2_000,
            measured_requests: 20_000,
            record_observations: false,
            open_loop: None,
            faults: FaultPlan::none(),
            compaction: CompactionConfig::default(),
            trace: TraceConfig::default(),
        }
    }

    /// Shrinks the run length (for unit tests and examples).
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.warmup_requests = 200;
        self.measured_requests = 2_000;
        self
    }

    /// Overrides the client count (the Figure 7 sweep).
    #[must_use]
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Overrides the workload (the Figure 9 sweep).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the NIC-to-NIC round trip (the Figure 8 sweep).
    #[must_use]
    pub fn with_round_trip(mut self, rtt: Duration) -> Self {
        self.network = self.network.with_round_trip(rtt);
        self
    }

    /// Overrides the replica store backend.
    #[must_use]
    pub fn with_store(mut self, store: StoreKind) -> Self {
        self.store = store;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the per-operation observation log (checker support).
    #[must_use]
    pub fn with_observations(mut self) -> Self {
        self.record_observations = true;
        self
    }

    /// Installs a tracing configuration (event ring + gauge sampling).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Switches the run to open-loop arrivals under `plan`.
    #[must_use]
    pub fn with_open_loop(mut self, plan: OpenLoopPlan) -> Self {
        self.open_loop = Some(plan);
        self
    }

    /// Installs a full fault-injection plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the LSM compaction tuning (no effect unless the store is
    /// [`StoreKind::Lsm`]).
    #[must_use]
    pub fn with_compaction(mut self, compaction: CompactionConfig) -> Self {
        self.compaction = compaction;
        self
    }

    /// Enables fabric message loss (and an equal duplication rate, which
    /// stresses the same retransmission machinery from the other side).
    #[must_use]
    pub fn with_loss(mut self, drop_prob: f64) -> Self {
        self.faults.drop_prob = drop_prob;
        self.faults.dup_prob = drop_prob;
        self
    }

    /// Schedules a node crash `at` into the run, rejoining `down_for` later.
    #[must_use]
    pub fn with_crash(mut self, node: u8, at: Duration, down_for: Duration) -> Self {
        self.faults.crashes.push(CrashEvent { node, at, down_for });
        self
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("need at least 2 nodes for replication".into());
        }
        if self.clients == 0 {
            return Err("need at least one client".into());
        }
        self.workload
            .validate()
            .map_err(|e| format!("workload: {e}"))?;
        if self.txn_size == 0 {
            return Err("transaction size must be positive".into());
        }
        if self.scope_size == 0 {
            return Err("scope size must be positive".into());
        }
        if self.measured_requests == 0 {
            return Err("measured_requests must be positive".into());
        }
        if self.model.consistency.is_transactional() && self.txn_retry_backoff == Duration::ZERO {
            // A blocked access would re-poll at the same instant forever.
            return Err(
                "txn_retry_backoff must be positive under Transactional consistency".into(),
            );
        }
        if let Some(ol) = &self.open_loop {
            ol.validate().map_err(|e| format!("open_loop: {e}"))?;
            if self.clients < u32::from(self.nodes) {
                return Err(
                    "open_loop needs a session slot on every node (clients >= nodes)".into(),
                );
            }
        }
        self.faults.validate(self.nodes)?;
        self.compaction
            .validate()
            .map_err(|e| format!("compaction: {e}"))?;
        if self.faults.active() && self.nodes > 64 {
            return Err("fault injection supports at most 64 nodes (ACK bitmasks)".into());
        }
        if self.trace.events && self.trace.ring_capacity == 0 {
            return Err("trace ring_capacity must be positive when events are on".into());
        }
        if self.trace.timeline_window == Some(Duration::ZERO) {
            return Err("trace timeline_window must be positive".into());
        }
        if self.trace.timeline_window.is_some() && self.trace.timeline_max_windows == 0 {
            return Err("trace timeline_max_windows must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DdpModel;

    #[test]
    fn paper_defaults() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline());
        assert_eq!(cfg.nodes, 5);
        assert_eq!(cfg.clients, 100);
        assert_eq!(cfg.txn_size, 5);
        assert_eq!(cfg.scope_size, 10);
        assert_eq!(cfg.workload.name, "YCSB-A");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_override() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline())
            .with_clients(10)
            .with_seed(7);
        assert_eq!(cfg.clients, 10);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        use crate::model::{Consistency, Persistency};
        let base = || ClusterConfig::micro21(DdpModel::baseline());
        // Each bad config, named by a word its error carries. Unchecked,
        // θ ≥ 1 panics inside `Simulation::new`, a read ratio outside
        // [0, 1] runs a meaningless mix, and a zero Transactional backoff
        // never finishes.
        let mut bad: Vec<(&str, ClusterConfig)> = Vec::new();
        let mut cfg = base();
        cfg.nodes = 1;
        bad.push(("nodes", cfg));
        let mut cfg = base();
        cfg.clients = 0;
        bad.push(("client", cfg));
        let mut cfg = base();
        cfg.txn_size = 0;
        bad.push(("transaction size", cfg));
        for theta in [1.0, 1.5, -0.1, f64::NAN] {
            let mut cfg = base();
            cfg.workload.zipf_theta = Some(theta);
            bad.push(("zipf_theta", cfg));
        }
        for ratio in [1.5, -0.5, f64::NAN] {
            let mut cfg = base();
            cfg.workload.read_ratio = ratio;
            bad.push(("read_ratio", cfg));
        }
        let mut cfg = base();
        cfg.workload.key_space = 0;
        bad.push(("key_space", cfg));
        let mut cfg = ClusterConfig::micro21(DdpModel::new(
            Consistency::Transactional,
            Persistency::Synchronous,
        ));
        cfg.txn_retry_backoff = Duration::ZERO;
        bad.push(("txn_retry_backoff", cfg));
        for (knob, cfg) in bad {
            let err = cfg.validate().expect_err(knob);
            assert!(err.contains(knob), "{knob}: {err}");
        }

        // The edges of each range stay valid, and a zero backoff is
        // harmless outside Transactional consistency (nothing polls).
        let mut edges = base();
        edges.workload.zipf_theta = Some(0.0);
        edges.workload.read_ratio = 1.0;
        edges.txn_retry_backoff = Duration::ZERO;
        assert!(edges.validate().is_ok());
        edges.workload.read_ratio = 0.0;
        edges.workload.zipf_theta = None;
        assert!(edges.validate().is_ok());
    }

    #[test]
    fn trace_is_inert_by_default_and_validated_when_on() {
        use ddp_trace::TraceConfig;
        let cfg = ClusterConfig::micro21(DdpModel::baseline());
        assert!(!cfg.trace.events && cfg.trace.timeline_window.is_none());

        let traced = ClusterConfig::micro21(DdpModel::baseline())
            .with_trace(TraceConfig::enabled().with_timeline(Duration::from_micros(1)));
        assert!(traced.validate().is_ok());

        let mut bad =
            ClusterConfig::micro21(DdpModel::baseline()).with_trace(TraceConfig::enabled());
        bad.trace.ring_capacity = 0;
        assert!(bad.validate().is_err());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.trace.timeline_window = Some(Duration::ZERO);
        assert!(bad.validate().is_err());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.trace.timeline_window = Some(Duration::from_micros(50));
        bad.trace.timeline_max_windows = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn open_loop_is_off_by_default_and_validated_when_on() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline());
        assert!(cfg.open_loop.is_none());

        let on = ClusterConfig::micro21(DdpModel::baseline())
            .with_open_loop(OpenLoopPlan::poisson(1e6).with_burst(4.0, Duration::from_micros(50)));
        assert!(on.validate().is_ok());

        let bad_rate =
            ClusterConfig::micro21(DdpModel::baseline()).with_open_loop(OpenLoopPlan::poisson(0.0));
        assert!(bad_rate.validate().is_err());

        let zero_queue = ClusterConfig::micro21(DdpModel::baseline())
            .with_open_loop(OpenLoopPlan::poisson(1e6).with_queue_capacity(Some(0)));
        assert!(zero_queue.validate().is_err());

        let mut no_backoff =
            ClusterConfig::micro21(DdpModel::baseline()).with_open_loop(OpenLoopPlan::poisson(1e6));
        no_backoff.open_loop.as_mut().unwrap().retry_backoff = Duration::ZERO;
        assert!(no_backoff.validate().is_err());

        let bad_burst = ClusterConfig::micro21(DdpModel::baseline())
            .with_open_loop(OpenLoopPlan::poisson(1e6).with_burst(0.5, Duration::from_micros(50)));
        assert!(bad_burst.validate().is_err());
    }

    #[test]
    fn open_loop_plan_maps_to_arrival_process() {
        use ddp_workload::ArrivalProcess;
        let plain = OpenLoopPlan::poisson(5e5);
        assert_eq!(plain.arrival_process(), ArrivalProcess::poisson(5e5));

        let bursty = OpenLoopPlan::poisson(5e5).with_burst(3.0, Duration::from_micros(20));
        let p = bursty.arrival_process();
        assert!((p.mean_rate() - 5e5).abs() < 1e-6);
    }

    #[test]
    fn compaction_defaults_validate_and_bad_tunings_are_rejected() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline());
        assert_eq!(cfg.compaction, CompactionConfig::default());
        assert!(cfg.validate().is_ok());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.compaction.memtable_entries = 0;
        assert!(bad.validate().is_err());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.compaction.fanout = 1;
        assert!(bad.validate().is_err());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.compaction.entry_bytes = 0;
        assert!(bad.validate().is_err());

        let mut bad = ClusterConfig::micro21(DdpModel::baseline());
        bad.compaction.chunk_bytes = 0;
        assert!(bad.validate().is_err());

        let tuned =
            ClusterConfig::micro21(DdpModel::baseline()).with_compaction(CompactionConfig {
                memtable_entries: 16,
                fanout: 2,
                entry_bytes: 32,
                chunk_bytes: 64,
            });
        assert_eq!(tuned.compaction.memtable_entries, 16);
        assert!(tuned.validate().is_ok());
    }

    #[test]
    fn fault_plan_is_inert_by_default() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline());
        assert!(!cfg.faults.active());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fault_builders_compose() {
        let cfg = ClusterConfig::micro21(DdpModel::baseline())
            .with_loss(0.01)
            .with_crash(2, Duration::from_micros(50), Duration::from_micros(30));
        assert!(cfg.faults.lossy() && cfg.faults.active());
        assert_eq!(cfg.faults.crashes.len(), 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn fault_validation_rejects_bad_plans() {
        let bad_prob = ClusterConfig::micro21(DdpModel::baseline()).with_loss(1.5);
        assert!(bad_prob.validate().is_err());

        let bad_node = ClusterConfig::micro21(DdpModel::baseline()).with_crash(
            9,
            Duration::from_micros(1),
            Duration::from_micros(1),
        );
        assert!(bad_node.validate().is_err());

        let permanent = ClusterConfig::micro21(DdpModel::baseline()).with_crash(
            0,
            Duration::from_micros(1),
            Duration::ZERO,
        );
        assert!(permanent.validate().is_err());

        let mut bad_timeout = ClusterConfig::micro21(DdpModel::baseline()).with_loss(0.1);
        bad_timeout.faults.op_timeout = Duration::from_nanos(1);
        assert!(bad_timeout.validate().is_err());
    }
}
