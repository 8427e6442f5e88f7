//! The read path and its stall rules.
//!
//! A read's latency is a local cache access plus whatever the DDP model
//! makes it wait for: Linearizable/Read-Enforced consistency stall reads on
//! transient keys (an INV seen, its VAL pending); Read-Enforced persistency
//! stalls reads until the latest visible version is durable — cluster-wide
//! under strong consistency, locally under Causal/Eventual (paper §5.3).

use ddp_net::NodeId;
use ddp_sim::{Context, SimTime};
use ddp_store::Key;
use ddp_trace::{StallCause, TraceEventKind};
use ddp_workload::{ClientId, Request};

use crate::model::{Consistency, Persistency};

use super::{Cluster, Event, WaitingRead};

/// Why a read cannot proceed right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReadBlock {
    /// Waiting for a VAL (consistency).
    pub transient: bool,
    /// Waiting for a persist / VAL_p (durability).
    pub persist: bool,
}

impl ReadBlock {
    pub(crate) fn blocked(self) -> bool {
        self.transient || self.persist
    }
}

impl Cluster {
    /// Evaluates the stall conditions of a read of `key` at `node`.
    pub(crate) fn read_block(&self, node: NodeId, key: Key) -> ReadBlock {
        let st = self.nodes[node.index()].store.state(key);
        let transient = matches!(
            self.cons,
            Consistency::Linearizable | Consistency::ReadEnforced
        ) && st.is_transient();
        let persist = self.pers == Persistency::ReadEnforced && {
            let relevant = match self.cons {
                Consistency::Linearizable
                | Consistency::ReadEnforced
                | Consistency::Transactional => st.global_persisted,
                Consistency::Causal | Consistency::Eventual => st.local_persisted,
            };
            st.visible > relevant
        };
        ReadBlock { transient, persist }
    }

    /// Entry point for a client read at its home node.
    pub(crate) fn start_read(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
    ) {
        let home = self.home_of(client);
        self.trace(ctx, TraceEventKind::ReadIssue, home.0, request.key, 0, 0);
        let block = self.read_block(home, request.key);
        if block.blocked() {
            if self.measuring {
                if block.transient {
                    self.stats.reads_stalled_on_consistency += 1;
                }
                if block.persist {
                    self.stats.reads_stalled_on_persist += 1;
                }
            }
            let mut cause = StallCause(0);
            if block.transient {
                cause = cause | StallCause::CONSISTENCY;
            }
            if block.persist {
                cause = cause | StallCause::PERSIST;
            }
            let blocking = self.nodes[home.index()].store.state(request.key).visible;
            self.trace(
                ctx,
                TraceEventKind::StallBegin,
                home.0,
                request.key,
                blocking,
                cause.0,
            );
            self.nodes[home.index()]
                .waiting_reads
                .entry(request.key)
                .or_default()
                .push(WaitingRead {
                    client,
                    issued_at,
                    stalled_at: ctx.now(),
                });
            return;
        }
        self.finish_read(ctx, home, client, request.key, issued_at);
    }

    /// Completes an unblocked read: local access latency, version choice,
    /// causal history merge, client completion.
    pub(crate) fn finish_read(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        client: ClientId,
        key: Key,
        issued_at: SimTime,
    ) {
        let lat = self.nodes[node.index()]
            .mem
            .volatile_access(Self::addr(key));
        let t_done = ctx.now() + lat;
        let st = self.nodes[node.index()].store.state(key);

        // Synchronous persistency under Causal/Eventual consistency returns
        // the latest *persisted* version, so that what was read is always
        // recoverable (paper §5.2 (f) and (h)).
        let returns_persisted = matches!(self.cons, Consistency::Causal | Consistency::Eventual)
            && self.pers == Persistency::Synchronous;
        let version = if returns_persisted {
            st.local_persisted.min(st.visible)
        } else {
            st.visible
        };

        // Causal session tracking: reading a value adds its write to this
        // node's happens-before history.
        if self.cons == Consistency::Causal && version == st.visible && st.visible > 0 {
            let origin = st.visible_origin as usize;
            let seq = st.visible_seq;
            let hist = &mut self.nodes[node.index()].history_vc;
            if hist.get(origin) < seq {
                hist.set(origin, seq);
            }
        }

        let in_txn =
            self.cons == Consistency::Transactional && self.cstate[client.index()].txn.is_some();
        if in_txn {
            self.txn_note_complete(ctx, client, true, t_done, key, version);
        } else {
            self.complete_request(ctx, client, true, issued_at, t_done, key, version, node);
        }
    }

    /// Re-checks the blocked reads of `key` at `node` after a state change
    /// (VAL arrival, persist completion) and completes the now-unblocked.
    pub(crate) fn wake_reads(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, key: Key) {
        let Some(waiters) = self.nodes[node.index()].waiting_reads.remove(&key) else {
            return;
        };
        let mut still_blocked = Vec::new();
        for waiter in waiters {
            if self.read_block(node, key).blocked() {
                still_blocked.push(waiter);
            } else {
                let stall = ctx.now().saturating_since(waiter.stalled_at);
                if self.measuring {
                    self.stats.phase.record_read_stall(stall);
                    if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                        w.read_stall_ns += stall.as_nanos();
                    }
                }
                self.trace(
                    ctx,
                    TraceEventKind::StallEnd,
                    node.0,
                    key,
                    0,
                    stall.as_nanos(),
                );
                self.finish_read(ctx, node, waiter.client, key, waiter.issued_at);
            }
        }
        if !still_blocked.is_empty() {
            self.nodes[node.index()]
                .waiting_reads
                .entry(key)
                .or_default()
                .extend(still_blocked);
        }
    }
}
