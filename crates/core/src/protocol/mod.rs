//! The parametric DDP protocol engine.
//!
//! One engine realizes all 25 `<consistency, persistency>` bindings (paper
//! §5): the consistency model decides which messages a write broadcasts
//! (INV/ACK/VAL rounds vs. one-way UPDs), when the client is acknowledged,
//! and when reads stall for visibility; the persistency model decides when
//! persists are issued, whether ACKs certify durability, and when reads
//! stall for durability. Every node can coordinate any request (no leader),
//! and coordinators broadcast to all followers, as in Hermes.
//!
//! The module is split by protocol role:
//!
//! * `client`  — the closed-loop request driver (issue, complete, warm-up);
//! * `admission` — open-loop arrivals, bounded admission queues, shedding;
//! * `write`   — the coordinator write path and the VAL rule
//!   (`write_val`, `apply_val`);
//! * `read`    — the read path and its stall rules;
//! * `deliver` — follower/coordinator message handlers and the follower
//!   ACK rule (`follower_acks`);
//! * `persist` — the persist rule (`persist_applied`), the one persist
//!   funnel (`persist`) and persist completions;
//! * `txn`     — transactions (INITX/ENDX, conflict detection, wound-wait);
//! * `scope`   — scope persistency (PERSIST rounds).

mod admission;
mod client;
mod deliver;
mod fault;
mod persist;
mod read;
mod scope;
mod txn;
mod write;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ddp_mem::{MemoryController, MemoryParams};
use ddp_net::{Fabric, FaultProfile, NodeId, RdmaKind};
use ddp_sim::{Context, Duration, Engine, Model, SimTime};
use ddp_store::{Key, LsmWork, StoreKind};
use ddp_workload::{ClientId, ClientPool, Request};

use crate::cauhist::VectorClock;
use crate::config::ClusterConfig;
use crate::message::{Message, ScopeId, TxnId, WriteId};
use crate::model::{Consistency, Persistency};
use crate::replica::ReplicaStore;
use crate::stats::{RunStats, RunSummary};
use ddp_trace::{
    GaugeSnapshot, Timeline, TimelineDump, TraceDump, TraceEventKind, TraceRecord, Tracer,
    WriteLifecycles,
};

pub use admission::OpenLoopAccounting;
use admission::OpenLoopState;
use write::ValAt;

/// log2 of the bytes between consecutive keys' records: each key has one
/// 64-byte cache line.
const RECORD_SHIFT: u32 = 6;

/// Simulation events dispatched by the engine.
///
/// Public because it is [`Cluster`]'s [`Model::Event`] type; library users
/// normally drive runs through [`Simulation`] and never construct events.
///
/// Client-driving events carry a progress token: the client's reset path
/// (operation timeout, crash of its coordinator) advances the token, so
/// events from a superseded attempt are recognized and dropped instead of
/// forking a second issue loop for the same client.
#[derive(Debug)]
pub enum Event {
    /// A client is ready to issue its next request.
    Issue(ClientId, u64),
    /// An open-loop request arrives at the cluster edge (open-loop runs
    /// only); each arrival schedules the next, independent of service.
    Arrival,
    /// A rejected open-loop arrival retries after its backoff.
    ArrivalRetry {
        /// The node the arrival targets.
        node: NodeId,
        /// The arrival's original time (latency anchor).
        anchor: SimTime,
        /// Retry attempt about to be made (1-based).
        attempt: u32,
    },
    /// A protocol message arrives at a node.
    Deliver(NodeId, Message),
    /// An NVM persist completes at a node.
    PersistDone(NodeId, PersistCtx),
    /// An LSM background compaction (memtable seal or level merge)
    /// finishes its NVM writes at a node (LSM store tier only).
    CompactionDone(NodeId, CompactionCtx),
    /// An Eventual-consistency coordinator sends its delayed UPD broadcast.
    LazyPropagate(NodeId, u64),
    /// An Eventual-persistency node starts a background persist.
    LazyPersist(NodeId, LazyPersistCtx),
    /// A squashed transaction retries.
    TxnRetry(ClientId, u64),
    /// A request finishes worker admission and enters the protocol.
    ExecOp {
        /// The issuing client.
        client: ClientId,
        /// The admitted request.
        request: Request,
        /// When the client issued it (latency anchor).
        issued_at: SimTime,
        /// Transaction tag, if inside one.
        txn: Option<TxnId>,
        /// Scope tag under Scope persistency.
        scope: Option<ScopeId>,
        /// Client progress token at admission.
        token: u64,
    },
    /// Liveness net of last resort: a client operation made no progress for
    /// the configured `op_timeout`; abandon it and re-issue.
    OpTimeout {
        /// The stuck client.
        client: ClientId,
        /// Token of the attempt being timed; stale if the client advanced.
        token: u64,
    },
    /// Coordinator ACK timeout for one round: retransmit its message to
    /// the live followers that have not acknowledged it.
    Retry {
        /// The round's coordinator.
        node: NodeId,
        /// The round.
        round: Round,
        /// Retransmission attempt (1-based; backoff doubles per attempt).
        attempt: u32,
    },
    /// A follower's transient-state lease expired: if the key is still
    /// blocked on a VAL that never arrived (lost beyond the retransmission
    /// budget, or its coordinator died), unblock it.
    TransientExpire {
        /// The node holding the transient.
        node: NodeId,
        /// The affected key.
        key: Key,
        /// The write whose VAL is overdue.
        write: WriteId,
        /// The version that write installs.
        version: u64,
    },
    /// A node crashes: volatile state is lost, its NVM image survives.
    NodeCrash(NodeId),
    /// A crashed node rejoins and catches up from its peers.
    NodeRecover(NodeId),
}

/// A coordinator round that waits for an ACK from every follower, by the
/// key of its record at the coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[doc(hidden)]
pub enum Round {
    /// A write's INV/UPD round, by coordinator-local write sequence.
    Write(u64),
    /// An INITX/ENDX round, by transaction sequence.
    Txn(u64),
    /// A scope's PERSIST round, by scope sequence (the coordinator is the
    /// scope's node).
    Scope(u64),
}

/// The followers that acknowledged one round, one bit per node. A round
/// starts from the crashed nodes (`Cluster::down_mask`), which will never
/// answer, and is acknowledged once every follower's bit is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct AckSet(u64);

impl AckSet {
    /// Credits `node`; false if it was already credited (a duplicated or
    /// retransmitted ACK, or a crashed follower).
    pub(crate) fn credit(&mut self, node: NodeId) -> bool {
        let bit = 1u64 << node.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Whether `node` has been credited.
    pub(crate) fn has(self, node: NodeId) -> bool {
        self.0 & (1u64 << node.index()) != 0
    }

    /// The number of credited followers.
    pub(crate) fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// What a completed persist was for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[doc(hidden)]
pub enum PersistPurpose {
    /// Coordinator-local persist of its own write (by coordinator seq).
    WriteLocal { seq: u64 },
    /// Follower persist of an INV-delivered update.
    FollowerInv { write: WriteId, txn: Option<TxnId> },
    /// Persist of a UPD-delivered update that no ACK waits for (chained
    /// per origin under Causal consistency).
    CausalApply { origin: NodeId },
    /// One element of a scope flush.
    ScopeFlush { scope: ScopeId },
    /// One element of a transaction-end bulk persist.
    TxnEnd { txn: TxnId },
    /// Persist of a transaction's begin-log record.
    TxnLog { txn: TxnId },
    /// A lazy background persist (Eventual persistency).
    Lazy,
}

/// Context of an in-flight persist.
#[derive(Clone, Copy, Debug)]
#[doc(hidden)]
pub struct PersistCtx {
    pub key: Key,
    pub version: u64,
    pub purpose: PersistPurpose,
    /// Crash epoch of the node when the persist was issued; completions
    /// from before a crash are stale and dropped.
    pub epoch: u64,
}

/// Context of an in-flight LSM background compaction.
#[derive(Clone, Copy, Debug)]
#[doc(hidden)]
pub struct CompactionCtx {
    /// 0 for a memtable seal; `level + 1` for a merge out of `level`.
    pub kind: u64,
    /// NVM bytes the compaction wrote.
    pub bytes: u64,
    /// Crash epoch of the node when the compaction was scheduled;
    /// completions from before a crash are stale and dropped (the crash
    /// path already zeroed the node's active-compaction count).
    pub epoch: u64,
}

/// One update as a node persists it.
#[derive(Clone, Copy, Debug)]
#[doc(hidden)]
pub struct Update {
    pub key: Key,
    /// The version the update installs (0 for a transaction-log record).
    pub version: u64,
    /// Payload bytes written to NVM.
    pub bytes: u32,
}

/// Context for a deferred lazy persist start.
#[derive(Clone, Copy, Debug)]
#[doc(hidden)]
pub struct LazyPersistCtx {
    pub update: Update,
    /// Crash epoch of the node when the lazy persist was scheduled.
    pub epoch: u64,
}

/// Coordinator-side state of one in-flight write.
#[derive(Debug)]
pub(crate) struct PendingWrite {
    pub write: WriteId,
    pub key: Key,
    pub version: u64,
    pub value_bytes: u32,
    pub client: ClientId,
    pub issued_at: SimTime,
    /// When the write round began executing (post worker admission).
    pub exec_at: SimTime,
    /// Nanoseconds spent queued behind a same-key in-flight write
    /// (Linearizable serialization); zero otherwise.
    pub queued_ns: u64,
    /// First instant the consistency condition held (phase attribution).
    pub cons_ok_at: Option<SimTime>,
    /// First instant the persistence condition held (phase attribution).
    pub pers_ok_at: Option<SimTime>,
    /// Local apply finishes here; the write can never complete earlier.
    pub earliest_complete: SimTime,
    /// Followers whose ACK (combined) or ACK_c arrived.
    pub acks: AckSet,
    /// Followers whose ACK_p arrived (split-ack persistency models and
    /// Strict-over-UPD).
    pub acks_p: AckSet,
    pub local_applied: bool,
    pub local_persisted: bool,
    pub client_acked: bool,
    /// The model's per-write VAL (VAL, VAL_c or VAL_p) has gone out.
    pub val_sent: bool,
    /// Eventual consistency below Strict persistency: the delayed UPD
    /// broadcast has fired.
    pub lazy_upd_sent: bool,
    /// The client no longer waits (squashed transaction write).
    pub abandoned: bool,
    pub txn: Option<TxnId>,
    pub scope: Option<ScopeId>,
    /// Causal history broadcast with the write, kept so a retransmitted UPD
    /// carries the same history (fault mode only).
    pub cauhist: Option<VectorClock>,
}

/// A read blocked on a visibility or durability condition.
#[derive(Debug)]
pub(crate) struct WaitingRead {
    pub client: ClientId,
    pub issued_at: SimTime,
    /// When the read blocked (stall attribution).
    pub stalled_at: SimTime,
}

/// A write queued behind an in-flight write to the same key (Linearizable
/// coordinators serialize per key).
#[derive(Debug)]
pub(crate) struct QueuedWrite {
    pub client: ClientId,
    pub request: Request,
    pub issued_at: SimTime,
    /// When the write entered the queue (queue-phase attribution).
    pub queued_at: SimTime,
    pub txn: Option<TxnId>,
    pub scope: Option<ScopeId>,
}

/// A causally-delivered update waiting for its happens-before history.
#[derive(Debug)]
pub(crate) struct BufferedUpd {
    pub write: WriteId,
    pub key: Key,
    pub version: u64,
    pub value_bytes: u32,
    pub cauhist: VectorClock,
    pub persist_on_arrival: bool,
    pub scope: Option<ScopeId>,
}

/// One entry of a per-origin causal persist chain: applied updates whose
/// persists must respect causal order (Synchronous/Strict persistency).
/// The chain's node, origin and persistency give the persist's purpose
/// (`Cluster::chained_purpose`), so an entry keeps only the write's
/// sequence number beside the update: 32 bytes an entry, where overload
/// holds tens of thousands.
#[derive(Debug)]
pub(crate) struct ChainedPersist {
    pub update: Update,
    /// The write's coordinator-local sequence number.
    pub seq: u64,
}

/// Scope bookkeeping at one node: buffered unpersisted writes and, once the
/// PERSIST arrives, the number of outstanding flush persists.
#[derive(Debug, Default)]
pub(crate) struct ScopeBuffer {
    pub writes: Vec<Update>,
    pub flush_outstanding: u32,
    pub flushing: bool,
}

/// Follower-side transaction bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct FollowerTxn {
    pub writes_applied: u32,
    pub writes_persisted: u32,
    /// Writes of the transaction seen so far.
    pub writes: Vec<Update>,
    /// Set when ENDX arrives: total writes the transaction performed.
    pub endx_expected: Option<u32>,
    /// Outstanding ENDX bulk persists.
    pub endx_persists_outstanding: u32,
}

/// Coordinator-side state of a transaction begin/end round.
#[derive(Debug)]
pub(crate) struct PendingTxnRound {
    pub txn: TxnId,
    pub client: ClientId,
    pub begin: bool,
    pub acks: AckSet,
    pub local_persisted: bool,
    /// Outstanding coordinator-local ENDX persists.
    pub local_persists_outstanding: u32,
    /// Write count carried by ENDX, kept for retransmission.
    pub writes: u32,
}

/// Coordinator-side state of a scope Persist call.
#[derive(Debug)]
pub(crate) struct PendingScopeRound {
    pub client: ClientId,
    pub acks: AckSet,
    /// Outstanding coordinator-local flush persists.
    pub local_outstanding: u32,
}

/// Per-node protocol state.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub mem: MemoryController,
    pub store: ReplicaStore,
    /// Causal: latest applied write per origin.
    pub applied_vc: VectorClock,
    /// Causal: the happens-before history carried by this node's next write.
    pub history_vc: VectorClock,
    /// Next coordinator-local write sequence number.
    pub next_seq: u64,
    /// Writes this node coordinates, by local sequence number. Fault-free
    /// runs retire a write once it is finished (see
    /// [`Cluster::retire_if_finished`]); fault runs keep every write.
    pub pending: BTreeMap<u64, PendingWrite>,
    /// Causal out-of-order UPD buffer.
    pub upd_buffer: Vec<BufferedUpd>,
    /// Reads blocked per key.
    pub waiting_reads: BTreeMap<Key, Vec<WaitingRead>>,
    /// Writes queued per key (Linearizable serialization).
    pub waiting_writes: BTreeMap<Key, VecDeque<QueuedWrite>>,
    /// Unpersisted writes per scope.
    pub scopes: BTreeMap<ScopeId, ScopeBuffer>,
    /// Per-origin causal persist chains: queue plus whether the head is in
    /// flight.
    pub persist_chains: Vec<VecDeque<ChainedPersist>>,
    pub chain_busy: Vec<bool>,
    /// Follower-side transaction tracking. Fault-free runs drop a client's
    /// earlier attempts when its next INITX arrives; fault runs keep them.
    pub txns: BTreeMap<TxnId, FollowerTxn>,
    /// Coordinator-side INITX/ENDX rounds, by txn seq.
    pub txn_rounds: BTreeMap<u64, PendingTxnRound>,
    /// Coordinator-side scope Persist rounds.
    pub scope_rounds: BTreeMap<ScopeId, PendingScopeRound>,
    /// Worker-core availability: when each core next frees up.
    pub workers: Vec<SimTime>,
    /// INVs already applied at this follower (fault mode only): a
    /// retransmitted or duplicated INV is re-acknowledged, not re-applied.
    pub seen_invs: BTreeSet<WriteId>,
}

impl NodeState {
    /// Entries in the node's causal UPD buffer and persist chains.
    pub(crate) fn causal_held(&self) -> u64 {
        self.upd_buffer.len() as u64
            + self
                .persist_chains
                .iter()
                .map(|c| c.len() as u64)
                .sum::<u64>()
    }

    fn new(id: NodeId, cfg: &ClusterConfig) -> Self {
        let n = cfg.nodes as usize;
        let _ = id;
        NodeState {
            mem: MemoryController::new(cfg.memory),
            store: ReplicaStore::with_compaction(
                cfg.store,
                cfg.compaction.memtable_entries as usize,
                cfg.compaction.fanout as usize,
            ),
            applied_vc: VectorClock::new(n),
            history_vc: VectorClock::new(n),
            next_seq: 0,
            pending: BTreeMap::new(),
            upd_buffer: Vec::new(),
            waiting_reads: BTreeMap::new(),
            waiting_writes: BTreeMap::new(),
            scopes: BTreeMap::new(),
            persist_chains: (0..n).map(|_| VecDeque::new()).collect(),
            chain_busy: vec![false; n],
            txns: BTreeMap::new(),
            txn_rounds: BTreeMap::new(),
            scope_rounds: BTreeMap::new(),
            workers: vec![SimTime::ZERO; cfg.memory.cores as usize],
            seen_invs: BTreeSet::new(),
        }
    }
}

/// What a client is currently doing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ClientPhase {
    /// Waiting for its current request (or txn/scope round) to complete.
    Busy,
    /// Between requests.
    Idle,
}

/// Per-client driver state (transaction and scope grouping).
#[derive(Debug)]
pub(crate) struct ClientRun {
    pub phase: ClientPhase,
    /// Transactional consistency: requests of the current transaction, for
    /// replay after a squash.
    pub txn_requests: Vec<Request>,
    /// First-issue times of those requests (latency spans retries).
    pub txn_first_issue: Vec<SimTime>,
    /// Next request index within the transaction.
    pub txn_index: usize,
    /// The active transaction id, if inside one.
    pub txn: Option<TxnId>,
    /// Coordinator-local txn sequence source.
    pub txn_counter: u64,
    /// Scope persistency: requests completed in the current scope.
    pub scope_reqs: u32,
    /// Scope persistency: this client's scope counter.
    pub scope_counter: u64,
    /// When this transaction group first started (kept across retries so
    /// wound-wait ages retried transactions toward commit).
    pub txn_group_started: SimTime,
    /// Set when another transaction wounded this one; the client restarts
    /// its transaction at the next step.
    pub wounded: bool,
    /// This transaction group has already been counted as conflicted.
    pub group_conflicted: bool,
    /// Buffered in-transaction completions (recorded at commit).
    pub txn_buffer: Vec<txn::TxnOpDone>,
    /// Coordinator-local transactional writes awaiting the ENDX persist.
    pub txn_writes: Vec<Update>,
    /// Progress token: advanced on every successful issue hand-off and by
    /// the timeout reset path, so superseded client events are dropped.
    pub op_token: u64,
    /// Open-loop latency anchor: the arrival time of the session bound to
    /// this slot, consumed by the first issue so queue wait and retry
    /// backoff count against the request. Always `None` on closed loops.
    pub ol_anchor: Option<SimTime>,
}

impl ClientRun {
    fn new() -> Self {
        ClientRun {
            phase: ClientPhase::Idle,
            txn_requests: Vec::new(),
            txn_first_issue: Vec::new(),
            txn_index: 0,
            txn: None,
            txn_counter: 0,
            scope_reqs: 0,
            scope_counter: 0,
            txn_group_started: SimTime::MAX,
            wounded: false,
            group_conflicted: false,
            txn_buffer: Vec::new(),
            txn_writes: Vec::new(),
            op_token: 0,
            ol_anchor: None,
        }
    }
}

/// The simulated cluster: all protocol, memory, network, and client state.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) cons: Consistency,
    pub(crate) pers: Persistency,
    pub(crate) fabric: Fabric,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) clients: ClientPool,
    pub(crate) cstate: Vec<ClientRun>,
    pub(crate) version_counter: u64,
    pub(crate) stats: RunStats,
    pub(crate) measuring: bool,
    pub(crate) total_completed: u64,
    pub(crate) active_txns: txn::TxnRegistry,
    /// Updates whose lazy persist has not completed (buffer-gauge input).
    pub(crate) lazy_pending: u64,
    /// Entries in every node's causal UPD buffer and persist chains
    /// (buffer-gauge input), kept where entries are pushed, drained,
    /// popped or wiped by a crash.
    pub(crate) causal_held: u64,
    pub(crate) done: bool,
    /// Open-loop arrival and admission state (`None` on closed loops).
    pub(crate) ol: Option<OpenLoopState>,
    /// Cached `cfg.faults.active()`: arms the robustness machinery.
    pub(crate) faults_active: bool,
    /// Liveness of each node (all true on the fault-free path).
    pub(crate) node_up: Vec<bool>,
    /// Per-node crash epoch; bumped on crash so stale persists are dropped.
    pub(crate) node_epoch: Vec<u64>,
    /// NVM image captured at each node's last crash (for rejoin).
    pub(crate) nvm_images: Vec<Option<crate::failure::NodeImage>>,
    /// Payload sizes alongside each NVM image (for persist sizing after
    /// the rejoin catch-up).
    pub(crate) nvm_bytes: Vec<BTreeMap<Key, u32>>,
    /// Opt-in event ring; a disabled tracer is one predictable branch per
    /// hook and never observes the simulation mutably.
    pub(crate) tracer: Tracer,
    /// Open write lifecycles: VP recorded, DP not yet reached. Lives here
    /// (not in `RunStats`) because the warm-up boundary replaces the stats
    /// wholesale while writes straddle it.
    pub(crate) lifecycle: WriteLifecycles,
    /// Opt-in windowed metrics timeline; a disabled timeline is one
    /// predictable branch per update. Lives here (like `lifecycle`) because
    /// the warm-up boundary replaces `RunStats` wholesale.
    pub(crate) timeline: Timeline,
    /// Last known NVM bank-queue depth per node (input to the cluster
    /// `nvm_bank_queue` gauge, maintained incrementally).
    pub(crate) nvm_queued_level: Vec<u64>,
    /// Sum of `nvm_queued_level` (the cluster gauge's current level).
    pub(crate) nvm_queued_total: u64,
    /// Cached `cfg.store == StoreKind::Lsm`: arms compaction scheduling.
    /// Every other backend never produces work, so the drain hook is one
    /// predictable branch and their event streams predate the LSM tier
    /// bit-for-bit.
    pub(crate) lsm_active: bool,
    /// In-flight background compactions per node.
    pub(crate) compactions_per_node: Vec<u64>,
    /// Sum of `compactions_per_node` (the `compactions_active` gauge's
    /// current level).
    pub(crate) compactions_total: u64,
    /// Per-node output-address cursor for compaction writes: advances per
    /// compaction so consecutive bursts start on different NVM banks,
    /// deterministically.
    pub(crate) compaction_cursor: Vec<u64>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("model", &self.cfg.model)
            .field("nodes", &self.nodes.len())
            .field("clients", &self.clients.len())
            .field("completed", &self.total_completed)
            .finish()
    }
}

impl Cluster {
    pub(crate) fn new(cfg: ClusterConfig) -> Self {
        cfg.validate().expect("invalid cluster configuration");
        let clients = ClientPool::new(&cfg.workload, cfg.clients, cfg.nodes, cfg.seed);
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState::new(NodeId(i), &cfg))
            .collect();
        let cstate = (0..cfg.clients).map(|_| ClientRun::new()).collect();
        let mut fabric = Fabric::new(cfg.nodes as usize, cfg.network);
        if cfg.faults.lossy() {
            // The lossy layer is installed only when the plan asks for it, so
            // fault-free runs keep their exact pre-fault event stream.
            fabric.set_fault_profile(FaultProfile {
                drop_prob: cfg.faults.drop_prob,
                dup_prob: cfg.faults.dup_prob,
                max_jitter: cfg.faults.max_jitter,
                seed: cfg.seed ^ cfg.faults.fault_seed.rotate_left(17),
            });
        }
        let n = cfg.nodes as usize;
        let ol = OpenLoopState::for_config(&cfg, &clients);
        Cluster {
            cons: cfg.model.consistency,
            pers: cfg.model.persistency,
            fabric,
            nodes,
            clients,
            cstate,
            version_counter: 0,
            stats: RunStats::default(),
            measuring: false,
            total_completed: 0,
            active_txns: txn::TxnRegistry::default(),
            lazy_pending: 0,
            causal_held: 0,
            done: false,
            ol,
            faults_active: cfg.faults.active(),
            node_up: vec![true; n],
            node_epoch: vec![0; n],
            nvm_images: vec![None; n],
            nvm_bytes: vec![BTreeMap::new(); n],
            tracer: if cfg.trace.events {
                Tracer::enabled(cfg.trace.ring_capacity)
            } else {
                Tracer::disabled()
            },
            lifecycle: WriteLifecycles::default(),
            timeline: cfg.trace.build_timeline(),
            nvm_queued_level: vec![0; n],
            nvm_queued_total: 0,
            lsm_active: cfg.store == StoreKind::Lsm,
            compactions_per_node: vec![0; n],
            compactions_total: 0,
            compaction_cursor: vec![0; n],
            cfg,
        }
    }

    /// Address of a key's record, for cache and NVM placement.
    pub(crate) fn addr(key: Key) -> u64 {
        key << RECORD_SHIFT
    }

    /// The most keys whose records the caches of `memory` can address:
    /// the last key's record must lie at or below
    /// [`MemoryParams::max_addr`], which also keeps `addr` from wrapping.
    pub(crate) fn max_key_space(memory: &MemoryParams) -> u64 {
        (memory.max_addr() >> RECORD_SHIFT) + 1
    }

    /// Sends one message; returns nothing (a Deliver event is scheduled).
    pub(crate) fn send(
        &mut self,
        ctx: &mut Context<'_, Event>,
        from: NodeId,
        to: NodeId,
        msg: Message,
        kind: RdmaKind,
    ) {
        self.send_at(ctx, ctx.now(), from, to, msg, kind);
    }

    /// Sends one message stamped at `when` through the fabric, which may
    /// drop, delay or duplicate it when a fault profile is installed.
    pub(crate) fn send_at(
        &mut self,
        ctx: &mut Context<'_, Event>,
        when: SimTime,
        from: NodeId,
        to: NodeId,
        msg: Message,
        kind: RdmaKind,
    ) {
        let bytes = msg.wire_bytes();
        let t = self.fabric.transmit(when, from, to, bytes, kind);
        if self.measuring {
            self.stats.network_bytes += bytes;
            self.stats.messages_sent += 1;
            self.stats.messages_delayed += u64::from(t.jittered);
            self.stats.messages_dropped += u64::from(t.dropped());
            self.stats.messages_duplicated += u64::from(t.duplicate.is_some());
        }
        match (t.primary, t.duplicate) {
            (Some(at), None) => ctx.schedule_at(at, Event::Deliver(to, msg)),
            (Some(at), Some(copy_at)) => {
                ctx.schedule_at(at, Event::Deliver(to, msg.clone()));
                ctx.schedule_at(copy_at, Event::Deliver(to, msg));
            }
            // The fabric never duplicates a message it dropped.
            (None, _) => {}
        }
    }

    /// Broadcasts a message to every node except `from`.
    pub(crate) fn broadcast(
        &mut self,
        ctx: &mut Context<'_, Event>,
        from: NodeId,
        msg: &Message,
        kind: RdmaKind,
    ) {
        self.broadcast_at(ctx, ctx.now(), from, msg, kind);
    }

    /// Allocates the next cluster-unique version number.
    pub(crate) fn next_version(&mut self) -> u64 {
        self.version_counter += 1;
        self.version_counter
    }

    /// The number of followers of any coordinator.
    pub(crate) fn followers(&self) -> u32 {
        u32::from(self.cfg.nodes) - 1
    }

    /// Whether every follower acknowledged a round.
    pub(crate) fn all_acked(&self, acks: AckSet) -> bool {
        debug_assert!(
            acks.count() <= self.followers(),
            "{acks:?} credits more nodes than the {} followers",
            self.followers()
        );
        acks.count() == self.followers()
    }

    /// Updates the causal-buffer occupancy gauge.
    pub(crate) fn update_buffer_gauge(&mut self, now: SimTime) {
        debug_assert_eq!(
            self.causal_held,
            self.nodes.iter().map(NodeState::causal_held).sum::<u64>(),
            "the running count of causal buffer and chain entries"
        );
        self.stats
            .causal_buffered
            .set(now, self.causal_held + self.lazy_pending);
    }

    /// Updates the cluster NVM bank-queue gauge with node `node`'s exact
    /// queued count at `at` (the other nodes' contributions keep their
    /// last known level; the gauge is event-sampled, like the admission
    /// gauge).
    pub(crate) fn update_nvm_gauge(&mut self, node: NodeId, at: SimTime, queued: u64) {
        let i = node.index();
        self.nvm_queued_total = self.nvm_queued_total + queued - self.nvm_queued_level[i];
        self.nvm_queued_level[i] = queued;
        self.stats.nvm_bank_queue.set(at, self.nvm_queued_total);
    }

    /// The cluster's level gauges at `at`: client ops in flight,
    /// admission-queue depth, NVM bank-queue depth and in-flight
    /// compactions. The one read behind the timeline's close-of-window
    /// snapshots.
    pub(crate) fn gauges(&self, at: SimTime) -> GaugeSnapshot {
        GaugeSnapshot {
            in_flight: self
                .cstate
                .iter()
                .filter(|c| c.phase == ClientPhase::Busy)
                .count() as u64,
            admission_queue: self.ol.as_ref().map_or(0, |ol| ol.queued()),
            nvm_bank_queue: self
                .nodes
                .iter()
                .map(|n| n.mem.nvm_queued_at(at) as u64)
                .sum(),
            active_compactions: self.compactions_total,
        }
    }

    /// Closes any timeline windows whose boundary has passed, stamping
    /// their close-of-window gauge snapshots.
    ///
    /// Called at the top of every event dispatch; it never schedules
    /// engine events and only reads cluster state, so enabling the
    /// timeline cannot perturb the simulation.
    pub(crate) fn roll_timeline(&mut self, ctx: &Context<'_, Event>) {
        if !self.measuring || !self.timeline.is_enabled() {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        while let Some(at_ns) = self.timeline.boundary_due(now_ns) {
            let gauges = self.gauges(SimTime::from_nanos(at_ns));
            self.timeline.snapshot(at_ns, gauges);
        }
    }

    /// Stamps the timeline's final (possibly partial) window at run end.
    /// A no-op unless the timeline is on and measurement began.
    pub(crate) fn finish_timeline(&mut self, now: SimTime) {
        if !self.measuring || !self.timeline.is_enabled() {
            return;
        }
        let gauges = self.gauges(now);
        self.timeline.finish(now.as_nanos(), gauges);
    }

    /// Records one trace event stamped at `ctx.now()`.
    #[inline]
    pub(crate) fn trace(
        &mut self,
        ctx: &Context<'_, Event>,
        kind: TraceEventKind,
        node: u8,
        a: u64,
        b: u64,
        c: u64,
    ) {
        self.trace_at(ctx, ctx.now(), kind, node, a, b, c);
    }

    /// Records one trace event stamped at an explicit simulated time (used
    /// when the semantic instant — e.g. a Visibility Point — differs from
    /// the dispatch time of the handler recording it).
    #[inline]
    #[expect(clippy::too_many_arguments, reason = "the fields of one trace record")]
    pub(crate) fn trace_at(
        &mut self,
        ctx: &Context<'_, Event>,
        at: SimTime,
        kind: TraceEventKind,
        node: u8,
        a: u64,
        b: u64,
        c: u64,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.push(TraceRecord {
                seq: ctx.dispatch_seq(),
                at_ns: at.as_nanos(),
                a,
                b,
                c,
                kind,
                node,
                client: 0,
            });
        }
    }

    /// Drains any seal/merge work the LSM stores produced during this
    /// dispatch, charging each item's byte volume against the owning
    /// node's NVM banks as a background write and scheduling its
    /// completion event.
    ///
    /// Called at the bottom of every event dispatch. One predictable
    /// branch unless the store tier is [`StoreKind::Lsm`] — no other
    /// backend ever produces work, so their event streams are
    /// bit-identical to builds that predate the LSM tier.
    pub(crate) fn drain_compaction_work(&mut self, ctx: &mut Context<'_, Event>) {
        if !self.lsm_active {
            return;
        }
        let now = ctx.now();
        for i in 0..self.nodes.len() {
            if !self.nodes[i].store.has_compaction_work() {
                continue;
            }
            for item in self.nodes[i].store.take_compaction_work() {
                self.schedule_compaction(ctx, NodeId(i as u8), now, &item);
            }
        }
    }

    /// Schedules one compaction work item: traces it, counts it, writes
    /// its bytes to the node's NVM as a bank-consuming background burst,
    /// and schedules the matching [`Event::CompactionDone`].
    fn schedule_compaction(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        now: SimTime,
        item: &LsmWork,
    ) {
        let cc = self.cfg.compaction;
        let bytes = item.entries().saturating_mul(cc.entry_bytes);
        let kind = match item {
            LsmWork::Seal { .. } => {
                if self.measuring {
                    self.stats.lsm_seals += 1;
                }
                0
            }
            LsmWork::Merge { level, .. } => {
                if self.measuring {
                    self.stats.lsm_merges += 1;
                }
                u64::from(level + 1)
            }
        };
        if self.measuring {
            self.stats.compaction_bytes += bytes;
            if let Some(w) = self.timeline.window(now.as_nanos()) {
                w.compaction_bytes += bytes;
            }
        }
        self.trace(
            ctx,
            TraceEventKind::CompactionBegin,
            node.0,
            kind,
            item.entries(),
            bytes,
        );
        let i = node.index();
        // Output lands at a per-node cursor so consecutive bursts start
        // on different banks.
        let addr = self.compaction_cursor[i] << 6;
        self.compaction_cursor[i] = self.compaction_cursor[i].wrapping_add(1);
        let done = self.nodes[i]
            .mem
            .compact_write(now, addr, bytes, cc.chunk_bytes);
        self.compactions_per_node[i] += 1;
        self.compactions_total += 1;
        self.stats
            .compactions_active
            .set(now, self.compactions_total);
        let cctx = CompactionCtx {
            kind,
            bytes,
            epoch: self.node_epoch[i],
        };
        ctx.schedule_at(done, Event::CompactionDone(node, cctx));
    }

    /// A background compaction finished its NVM writes.
    pub(crate) fn on_compaction_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        cctx: CompactionCtx,
    ) {
        let i = node.index();
        self.compactions_per_node[i] -= 1;
        self.compactions_total -= 1;
        self.stats
            .compactions_active
            .set(ctx.now(), self.compactions_total);
        self.trace(
            ctx,
            TraceEventKind::CompactionEnd,
            node.0,
            cctx.kind,
            0,
            cctx.bytes,
        );
    }

    /// Drains the trace event ring, if event tracing is enabled.
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        if self.cfg.trace.events {
            Some(self.tracer.take())
        } else {
            None
        }
    }

    /// Drains the windowed metrics timeline, if the timeline is enabled.
    pub fn take_timeline(&mut self) -> Option<TimelineDump> {
        if self.cfg.trace.timeline_window.is_some() {
            Some(self.timeline.take())
        } else {
            None
        }
    }

    /// Immutable view of the run statistics.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Transaction/scope groups the sharded workload re-homed because
    /// their natural keys spanned shards (zero for an unsharded run).
    #[must_use]
    pub fn cross_shard_groups(&self) -> u64 {
        self.clients.total_cross_shard()
    }

    /// The configuration this cluster runs.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Per-node replica stores (recovery and checker access).
    pub fn node_stores_public(&self) -> impl Iterator<Item = &ReplicaStore> {
        self.nodes.iter().map(|n| &n.store)
    }
}

impl Model for Cluster {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Context<'_, Event>, event: Event) {
        if self.done {
            return;
        }
        self.roll_timeline(ctx);
        match event {
            Event::Issue(client, token) => self.on_issue(ctx, client, token),
            Event::Arrival => self.on_arrival(ctx),
            Event::ArrivalRetry {
                node,
                anchor,
                attempt,
            } => {
                self.on_arrival_retry(ctx, node, anchor, attempt);
            }
            Event::Deliver(node, msg) => {
                if self.faults_active && !self.node_up[node.index()] {
                    // Addressed to a crashed node: the fabric can't deliver.
                    if self.measuring {
                        self.stats.messages_dropped += 1;
                    }
                    return;
                }
                self.on_deliver(ctx, node, msg);
            }
            Event::PersistDone(node, pctx) => {
                if pctx.epoch != self.node_epoch[node.index()] {
                    // Issued before the node's crash: the write buffer died
                    // with the volatile hierarchy.
                    if pctx.purpose == PersistPurpose::Lazy {
                        self.lazy_pending = self.lazy_pending.saturating_sub(1);
                        self.update_buffer_gauge(ctx.now());
                    }
                    return;
                }
                self.on_persist_done(ctx, node, pctx);
            }
            Event::CompactionDone(node, cctx) => {
                if cctx.epoch != self.node_epoch[node.index()] {
                    // Scheduled before the node's crash, which already
                    // zeroed its active-compaction count.
                    return;
                }
                self.on_compaction_done(ctx, node, cctx);
            }
            Event::LazyPropagate(node, seq) => {
                if self.faults_active && !self.node_up[node.index()] {
                    return;
                }
                self.on_lazy_propagate(ctx, node, seq);
            }
            Event::LazyPersist(node, lctx) => {
                if lctx.epoch != self.node_epoch[node.index()] {
                    self.lazy_pending = self.lazy_pending.saturating_sub(1);
                    self.update_buffer_gauge(ctx.now());
                    return;
                }
                self.persist(ctx, node, ctx.now(), lctx.update, PersistPurpose::Lazy);
            }
            Event::TxnRetry(client, token) => self.on_txn_retry(ctx, client, token),
            Event::ExecOp {
                client,
                request,
                issued_at,
                txn,
                scope,
                token,
            } => {
                // A request admitted just before its home node crashed died
                // with the node; the op timeout re-issues the client.
                if token != self.cstate[client.index()].op_token
                    || self.is_down(self.home_of(client))
                {
                    return;
                }
                self.on_exec_op(ctx, client, request, issued_at, txn, scope)
            }
            Event::OpTimeout { client, token } => self.on_op_timeout(ctx, client, token),
            Event::Retry {
                node,
                round,
                attempt,
            } => self.on_retry(ctx, node, round, attempt),
            Event::TransientExpire {
                node,
                key,
                write,
                version,
            } => {
                // The VAL is overdue: the lease applies it in its place.
                if !self.is_down(node) {
                    self.apply_val(ctx, node, write, key, version, ValAt::Lease);
                }
            }
            Event::NodeCrash(node) => self.on_node_crash(ctx, node),
            Event::NodeRecover(node) => self.on_node_recover(ctx, node),
        }
        // Store mutations during this dispatch may have produced LSM seal
        // or merge work; replay it against the NVM banks before the next
        // event. (Early `return`s above skip this, but none of those
        // paths touch a store.)
        self.drain_compaction_work(ctx);
    }
}

/// A complete simulated experiment: engine plus cluster.
///
/// # Examples
///
/// ```
/// use ddp_core::{ClusterConfig, DdpModel, Simulation};
///
/// let cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
/// let mut sim = Simulation::new(cfg);
/// let report = sim.run();
/// assert!(report.summary.throughput > 0.0);
/// ```
#[derive(Debug)]
pub struct Simulation {
    engine: Engine<Event>,
    cluster: Cluster,
    ran: bool,
}

/// The result of one simulated run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The DDP model that ran.
    pub model: crate::model::DdpModel,
    /// Condensed metrics (what the figures plot).
    pub summary: RunSummary,
}

/// What a finished simulation leaves once its cluster is dropped: the
/// statistics a record needs and the drained trace and timeline. Made by
/// [`Simulation::finish`]; a fleet and the harness executor keep one per
/// shard instead of the shard's whole [`Simulation`].
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's statistics.
    pub stats: RunStats,
    /// Transaction/scope groups the run's workload re-homed (see
    /// [`Cluster::cross_shard_groups`]).
    pub cross_shard_groups: u64,
    /// Events the run dispatched (see [`Simulation::events_dispatched`]).
    pub events: u64,
    /// The drained trace ring, if event tracing was on.
    pub trace: Option<TraceDump>,
    /// The drained timeline, if the timeline was on.
    pub timeline: Option<TimelineDump>,
}

impl Simulation {
    /// Builds a simulation for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`].
    #[must_use]
    pub fn new(cfg: ClusterConfig) -> Self {
        Simulation {
            cluster: Cluster::new(cfg),
            engine: Engine::new(),
            ran: false,
        }
    }

    /// Runs the experiment to completion and returns its report.
    ///
    /// Calling `run` again returns the same report without re-running.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before `measured_requests`
    /// complete, since such a run has no measured window to report.
    pub fn run(&mut self) -> RunReport {
        self.run_to_end();
        RunReport {
            model: self.cluster.cfg.model,
            summary: RunSummary::from_stats(&self.cluster.stats),
        }
    }

    /// Runs the simulation if it has not run, then drops the cluster and
    /// keeps its [`RunOutcome`]: the statistics move out rather than being
    /// copied, and the trace ring and timeline are drained.
    ///
    /// # Panics
    ///
    /// Panics as [`Simulation::run`] does.
    #[must_use]
    pub fn finish(mut self) -> RunOutcome {
        self.run_to_end();
        let trace = self.take_trace();
        let timeline = self.take_timeline();
        RunOutcome {
            cross_shard_groups: self.cluster.cross_shard_groups(),
            events: self.events_dispatched(),
            trace,
            timeline,
            stats: self.cluster.stats,
        }
    }

    fn run_to_end(&mut self) {
        if !self.ran {
            if let Some(ol) = self.cluster.ol.as_mut() {
                // Open loop: the run is driven by the arrival chain; all
                // session slots start free. Arrivals are counted when
                // dispatched, so the chain's pending tail is never counted.
                let gap = ol.gen.next_interarrival();
                self.engine.schedule(SimTime::ZERO + gap, Event::Arrival);
            } else {
                // Stagger client starts over the first microsecond so the
                // initial broadcast burst does not phase-lock.
                for i in 0..self.cluster.cfg.clients {
                    let start = SimTime::ZERO + Duration::from_nanos(u64::from(i) * 10);
                    self.engine.schedule(start, Event::Issue(ClientId(i), 0));
                }
            }
            // Scheduled fault-plan crashes and their rejoins.
            for c in &self.cluster.cfg.faults.crashes {
                let down = SimTime::ZERO + c.at;
                self.engine.schedule(down, Event::NodeCrash(NodeId(c.node)));
                self.engine
                    .schedule(down + c.down_for, Event::NodeRecover(NodeId(c.node)));
            }
            self.engine.run(&mut self.cluster);
            assert!(
                self.cluster.done,
                "{}: the event queue drained after {} of {} measured requests",
                self.cluster.cfg.model,
                self.cluster.stats.completed(),
                self.cluster.cfg.measured_requests
            );
            let now = self.engine.now();
            self.cluster.stats.causal_buffered.finish(now);
            self.cluster.stats.admission_queue.finish(now);
            self.cluster.stats.nvm_bank_queue.finish(now);
            self.cluster.stats.compactions_active.finish(now);
            self.cluster.finish_timeline(now);
            self.cluster.stats.measured_time =
                now.saturating_since(self.cluster.stats.window_start);
            self.ran = true;
        }
    }

    /// The cluster, for post-run inspection (recovery, checkers).
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Events the engine has dispatched so far; after [`Simulation::run`],
    /// the run's total. Trace records carry the dispatch number of the
    /// event that emitted them, so no trace `seq` exceeds this.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.engine.events_dispatched()
    }

    /// Drains the trace event ring (see [`Cluster::take_trace`]).
    pub fn take_trace(&mut self) -> Option<TraceDump> {
        self.cluster.take_trace()
    }

    /// Drains the windowed metrics timeline (see
    /// [`Cluster::take_timeline`]).
    pub fn take_timeline(&mut self) -> Option<TimelineDump> {
        self.cluster.take_timeline()
    }
}

/// Convenience: build, run, and report in one call.
///
/// # Examples
///
/// ```
/// use ddp_core::{run_experiment, ClusterConfig, DdpModel};
///
/// let report = run_experiment(ClusterConfig::micro21(DdpModel::baseline()).quick());
/// assert!(report.summary.throughput > 0.0);
/// ```
#[must_use]
pub fn run_experiment(cfg: ClusterConfig) -> RunReport {
    Simulation::new(cfg).run()
}

#[cfg(test)]
impl Cluster {
    /// Per node: `(pending writes, finished writes still pending, follower
    /// transaction records)`.
    pub(crate) fn bookkeeping(&self) -> Vec<(usize, usize, usize)> {
        self.nodes
            .iter()
            .map(|n| {
                let finished = n
                    .pending
                    .values()
                    .filter(|pw| self.write_finished(pw))
                    .count();
                (n.pending.len(), finished, n.txns.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DdpModel;

    /// The records an overload backlog holds by the tens of thousands: one
    /// `Event` per pending event, whose `Option` takes the enum's niche so
    /// that the event queue's record adds 8 bytes to it (`ddp_sim`'s
    /// `a_record_adds_8_bytes_to_a_96_byte_event`), and one
    /// `ChainedPersist` per chained causal persist.
    #[test]
    fn backlog_records_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<Event>(), 96);
        assert_eq!(std::mem::size_of::<Option<Event>>(), 96);
        assert_eq!(std::mem::size_of::<ChainedPersist>(), 32);
    }

    #[test]
    #[should_panic(expected = "the event queue drained after 0 of 2000 measured requests")]
    fn a_run_that_drains_before_its_quota_panics() {
        let mut sim = Simulation::new(ClusterConfig::micro21(DdpModel::baseline()).quick());
        // No client ever issues, so the queue starts empty.
        sim.cluster.cfg.clients = 0;
        let _ = sim.run();
    }

    #[test]
    fn fault_free_runs_keep_only_in_flight_bookkeeping() {
        for model in DdpModel::all() {
            let cfg = ClusterConfig::micro21(model).quick();
            let clients = cfg.clients as usize;
            let mut sim = Simulation::new(cfg);
            sim.run();
            let per_node = sim.cluster().bookkeeping();
            for (node, &(pending, finished, txns)) in per_node.iter().enumerate() {
                assert_eq!(finished, 0, "{model} node {node}: kept a finished write");
                assert!(
                    pending <= clients,
                    "{model} node {node}: {pending} pending writes"
                );
                assert!(
                    txns <= clients,
                    "{model} node {node}: {txns} follower transaction records"
                );
            }
        }
    }
}
