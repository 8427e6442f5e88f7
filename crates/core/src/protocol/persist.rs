//! NVM persist completion handling.

use ddp_net::NodeId;
use ddp_sim::{Context, Duration};
use ddp_trace::TraceEventKind;

use crate::message::Message;
use crate::model::Persistency;

use super::{Cluster, Event, LazyPersistCtx, PersistCtx, PersistPurpose};

impl Cluster {
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
        // The key is now durable locally up to this version.
        {
            let st = self.nodes[node.index()].store.state_mut(pctx.key);
            st.local_persisted = st.local_persisted.max(pctx.version);
        }
        self.wake_reads(ctx, node, pctx.key);

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
                let coord = write.coordinator;
                let msg = match self.pers {
                    Persistency::Synchronous | Persistency::Strict => {
                        // Strict over UPD-based models acks durability only.
                        if self.cons.uses_inv_ack_val() {
                            Message::Ack { write, from: node }
                        } else {
                            Message::AckP { write, from: node }
                        }
                    }
                    Persistency::ReadEnforced => Message::AckP { write, from: node },
                    // Scope/Eventual persists never flow through this purpose.
                    Persistency::Scope | Persistency::Eventual => return,
                };
                self.send(ctx, node, coord, msg, ddp_net::RdmaKind::Send);
            }
            PersistPurpose::CausalApply { .. } => {
                // Chain advance happens below for any chained persist.
            }
            PersistPurpose::ScopeFlush { scope } => {
                self.scope_flush_done(ctx, node, scope);
            }
            PersistPurpose::TxnEnd { txn } => {
                self.txn_end_persist_done(ctx, node, txn);
            }
            PersistPurpose::TxnLog { txn, begin } => {
                self.txn_log_persist_done(ctx, node, txn, begin);
            }
            PersistPurpose::Lazy => {
                self.lazy_pending = self.lazy_pending.saturating_sub(1);
                self.update_buffer_gauge(ctx.now());
            }
        }

        // If this persist was the head of a causal chain, start the next.
        self.finish_chained_persist(ctx, node, pctx);
    }

    /// Completes chain bookkeeping for persists issued via the per-origin
    /// causal chains, then starts the next chained persist if any.
    fn finish_chained_persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        pctx: PersistCtx,
    ) {
        let origin = match pctx.purpose {
            PersistPurpose::CausalApply { origin } => Some(origin),
            // Coordinator-local causal persists chain on the node's own slot.
            PersistPurpose::WriteLocal { .. }
                if self.cons == crate::model::Consistency::Causal
                    && self.pers.persist_before_ack() =>
            {
                Some(node)
            }
            // Strict-persistency causal UPD persists also ran on a chain.
            PersistPurpose::FollowerInv { write, .. }
                if self.cons == crate::model::Consistency::Causal =>
            {
                Some(write.coordinator)
            }
            _ => None,
        };
        if let Some(origin) = origin {
            let n = &mut self.nodes[node.index()];
            if n.chain_busy[origin.index()] {
                n.chain_busy[origin.index()] = false;
                self.advance_chain(ctx, node, origin);
            }
        }
    }

    /// Starts a deferred background persist (Eventual persistency).
    pub(crate) fn on_lazy_persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        lctx: LazyPersistCtx,
    ) {
        let epoch = self.node_epoch[node.index()];
        self.issue_persist(
            ctx,
            node,
            ctx.now(),
            Self::addr(lctx.key),
            u64::from(lctx.bytes),
            PersistCtx {
                key: lctx.key,
                version: lctx.version,
                purpose: PersistPurpose::Lazy,
                epoch,
            },
            true,
        );
    }
}
