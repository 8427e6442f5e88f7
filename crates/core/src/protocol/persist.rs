//! NVM persists: how a node persists an update it applied, the one funnel
//! every protocol persist goes through, and persist completions.

use ddp_net::NodeId;
use ddp_sim::{Context, Duration, SimTime};
use ddp_trace::TraceEventKind;

use crate::message::{ScopeId, TxnId, WriteId};
use crate::model::{Consistency, Persistency};

use super::{ChainedPersist, Cluster, Event, LazyPersistCtx, PersistCtx, PersistPurpose, Update};

impl Cluster {
    /// Persists an update `node` applied at `when`, as the persistency model
    /// says: at once under Strict, Synchronous and Read-Enforced
    /// persistency (on the origin's causal chain under Causal consistency
    /// with the first two), at the PERSIST of its `scope` under Scope
    /// persistency (not at all outside a scope), and after the lazy delay
    /// under Eventual persistency. Returns whether a persist was issued or
    /// chained, so that its completion will report `purpose`.
    pub(crate) fn persist_applied(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        when: SimTime,
        update: Update,
        purpose: PersistPurpose,
        scope: Option<ScopeId>,
    ) -> bool {
        match self.pers {
            Persistency::Scope => {
                if let Some(scope) = scope {
                    self.nodes[node.index()]
                        .scopes
                        .entry(scope)
                        .or_default()
                        .writes
                        .push(update);
                }
                false
            }
            Persistency::Eventual => {
                self.lazy_pending += 1;
                self.update_buffer_gauge(ctx.now());
                let lctx = LazyPersistCtx {
                    update,
                    epoch: self.node_epoch[node.index()],
                };
                ctx.schedule_at(
                    when + self.cfg.lazy_persist_delay,
                    Event::LazyPersist(node, lctx),
                );
                false
            }
            Persistency::Strict | Persistency::Synchronous | Persistency::ReadEnforced => {
                match self.persist_chain(node, purpose) {
                    Some(origin) => {
                        let seq = match purpose {
                            PersistPurpose::WriteLocal { seq } => seq,
                            PersistPurpose::FollowerInv { write, .. } => write.seq,
                            _ => 0,
                        };
                        debug_assert_eq!(self.chained_purpose(node, origin, seq), purpose);
                        let entry = ChainedPersist { update, seq };
                        self.nodes[node.index()].persist_chains[origin.index()].push_back(entry);
                        self.causal_held += 1;
                        self.update_buffer_gauge(ctx.now());
                        self.advance_chain(ctx, node, origin);
                    }
                    None => self.persist(ctx, node, when, update, purpose),
                }
                true
            }
        }
    }

    /// The origin whose causal chain a persist runs on: under Causal
    /// consistency with Strict or Synchronous persistency, persists respect
    /// the happens-before order, so each origin's updates persist one at a
    /// time, in order.
    fn persist_chain(&self, node: NodeId, purpose: PersistPurpose) -> Option<NodeId> {
        if self.cons != Consistency::Causal || !self.pers.persist_before_ack() {
            return None;
        }
        match purpose {
            PersistPurpose::WriteLocal { .. } => Some(node),
            PersistPurpose::FollowerInv { write, .. } => Some(write.coordinator),
            PersistPurpose::CausalApply { origin } => Some(origin),
            _ => None,
        }
    }

    /// The purpose of a chained persist of write `seq` on `origin`'s chain
    /// at `node`: the node's own write on its own chain; on another
    /// origin's, a UPD that Strict persistency persists on arrival (its
    /// coordinator waits for the ACK_p), else a causal apply that nothing
    /// waits for. Causal consistency has no transactions.
    fn chained_purpose(&self, node: NodeId, origin: NodeId, seq: u64) -> PersistPurpose {
        if origin == node {
            PersistPurpose::WriteLocal { seq }
        } else if self.pers == Persistency::Strict {
            PersistPurpose::FollowerInv {
                write: WriteId {
                    coordinator: origin,
                    seq,
                },
                txn: None,
            }
        } else {
            PersistPurpose::CausalApply { origin }
        }
    }

    /// Starts the next persist of a causal chain if none is in flight.
    fn advance_chain(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, origin: NodeId) {
        let n = &mut self.nodes[node.index()];
        if n.chain_busy[origin.index()] {
            return;
        }
        let Some(entry) = n.persist_chains[origin.index()].pop_front() else {
            return;
        };
        n.chain_busy[origin.index()] = true;
        self.causal_held -= 1;
        let purpose = self.chained_purpose(node, origin, entry.seq);
        self.persist(ctx, node, ctx.now(), entry.update, purpose);
        self.update_buffer_gauge(ctx.now());
    }

    /// Persists buffered updates at once (a scope flush, or a transaction's
    /// writes at ENDX); returns how many.
    pub(crate) fn flush(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        updates: Vec<Update>,
        purpose: PersistPurpose,
    ) -> u32 {
        let n = updates.len() as u32;
        for update in updates {
            self.persist(ctx, node, ctx.now(), update, purpose);
        }
        n
    }

    /// Persists a transaction's begin-log record at `node`.
    pub(crate) fn persist_txn_log(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
    ) {
        let record = Update {
            key: txn_log_addr(txn) >> 6,
            version: 0,
            bytes: 64,
        };
        self.persist(ctx, node, ctx.now(), record, PersistPurpose::TxnLog { txn });
    }

    /// Submits one NVM persist at `node`, issued at `when`, and schedules
    /// its completion: the funnel every protocol persist goes through.
    ///
    /// It places the record (a key's, or a transaction's log record),
    /// stamps the node's crash epoch, attributes the bank queue wait to the
    /// run statistics and traces the issue. Transaction-log persists are
    /// protocol overhead and are not counted as data persists.
    pub(crate) fn persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        when: SimTime,
        update: Update,
        purpose: PersistPurpose,
    ) {
        let (addr, counted) = match purpose {
            PersistPurpose::TxnLog { txn } => (txn_log_addr(txn), false),
            _ => (Self::addr(update.key), true),
        };
        let i = node.index();
        let wait_before = self.nodes[i].mem.nvm().total_queue_wait();
        let done = self.nodes[i]
            .mem
            .persist(when, addr, u64::from(update.bytes));
        let queue_wait = self.nodes[i]
            .mem
            .nvm()
            .total_queue_wait()
            .saturating_sub(wait_before);
        // `persist` pruned the device at `when`, so its queued count is
        // exact there. The gauge is stamped at the dispatch clock, not at
        // `when`: a persist issued ahead of it (the coordinator's, at the
        // local apply) would move the gauge's clock back and count the
        // span twice. The level then leads by at most the apply latency.
        let queued = self.nodes[i].mem.nvm().queued_now() as u64;
        self.update_nvm_gauge(node, ctx.now(), queued);
        if self.measuring && counted {
            self.stats.persists_issued += 1;
            self.stats.nvm_queue_wait += queue_wait;
            if let Some(w) = self.timeline.window(when.as_nanos()) {
                w.persists_issued += 1;
                w.nvm_queue_ns += queue_wait.as_nanos();
            }
        }
        self.trace_at(
            ctx,
            when,
            TraceEventKind::PersistIssue,
            node.0,
            update.key,
            update.version,
            queue_wait.as_nanos(),
        );
        let pctx = PersistCtx {
            key: update.key,
            version: update.version,
            purpose,
            epoch: self.node_epoch[i],
        };
        ctx.schedule_at(done, Event::PersistDone(node, pctx));
    }

    /// Handles one completed persist at `node`.
    pub(crate) fn on_persist_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        pctx: PersistCtx,
    ) {
        self.trace(
            ctx,
            TraceEventKind::PersistComplete,
            node.0,
            pctx.key,
            pctx.version,
            0,
        );
        // Re-sample the bank queue now that this persist left the device.
        let queued = self.nodes[node.index()].mem.nvm_queued(ctx.now()) as u64;
        self.update_nvm_gauge(node, ctx.now(), queued);
        // Durability Point: the first persist of a versioned update to
        // complete anywhere in the cluster. Transaction-log persists carry
        // version 0 and are not updates.
        if pctx.version > 0 {
            if let Some(open) = self.lifecycle.durable(pctx.version) {
                let lag_ns = ctx.now().as_nanos().saturating_sub(open.vp_ns);
                if self.measuring {
                    let lag = Duration::from_nanos(lag_ns);
                    self.stats.vp_dp_lag.record(lag);
                    if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                        w.record_lag(lag);
                    }
                }
                self.trace(
                    ctx,
                    TraceEventKind::WriteDp,
                    node.0,
                    open.key,
                    pctx.version,
                    lag_ns,
                );
            }
        }
        // The key is now durable locally up to this version. A
        // transaction-log record's key is its log address, not a client
        // key, so it leaves the replica store and parked reads alone.
        if !matches!(pctx.purpose, PersistPurpose::TxnLog { .. }) {
            let st = self.nodes[node.index()].store.state_mut(pctx.key);
            st.local_persisted = st.local_persisted.max(pctx.version);
            self.wake_reads(ctx, node, pctx.key);
        }

        match pctx.purpose {
            PersistPurpose::WriteLocal { seq } => {
                if let Some(pw) = self.nodes[node.index()].pending.get_mut(&seq) {
                    pw.local_persisted = true;
                }
                self.try_progress_write(ctx, node, seq);
            }
            PersistPurpose::FollowerInv { write, txn } => {
                if let Some(txn) = txn {
                    // Transactional per-write persist (Strict persistency):
                    // count it toward the follower's ENDX readiness.
                    let ft = self.nodes[node.index()].txns.entry(txn).or_default();
                    ft.writes_persisted += 1;
                    self.check_endx_ready(ctx, node, txn);
                }
                if let Some(ack) = self.follower_acks(txn.is_some()).on_persist {
                    self.send_write_ack(ctx, node, write, ack);
                }
            }
            // A chained persist starts the chain's next one below.
            PersistPurpose::CausalApply { .. } => {}
            PersistPurpose::ScopeFlush { scope } => {
                self.scope_flush_done(ctx, node, scope);
            }
            PersistPurpose::TxnEnd { txn } => {
                self.txn_end_persist_done(ctx, node, txn);
            }
            PersistPurpose::TxnLog { txn } => {
                self.txn_log_persist_done(ctx, node, txn);
            }
            PersistPurpose::Lazy => {
                self.lazy_pending = self.lazy_pending.saturating_sub(1);
                self.update_buffer_gauge(ctx.now());
            }
        }

        // If this persist was the head of a causal chain, start the next.
        if let Some(origin) = self.persist_chain(node, pctx.purpose) {
            let n = &mut self.nodes[node.index()];
            if n.chain_busy[origin.index()] {
                n.chain_busy[origin.index()] = false;
                self.advance_chain(ctx, node, origin);
            }
        }
    }
}

/// NVM address of a transaction's log record (distinct from any key).
fn txn_log_addr(txn: TxnId) -> u64 {
    (1 << 40) | (u64::from(txn.coordinator.0) << 32) | (txn.seq & 0xFFFF_FFFF)
}
