//! Scope persistency: the PERSIST / [ACK_p]s / [VAL_p]s round (paper §5.5).
//!
//! Writes under Scope persistency are buffered unpersisted, tagged with
//! their scope. When the client's Persist call for a scope arrives, the
//! coordinator flushes its own buffered writes, broadcasts `[PERSIST]s`,
//! and waits for every follower's `[ACK_p]s`; then the scope is durable
//! everywhere and `[VAL_p]s` releases it.

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::Context;
use ddp_workload::ClientId;

use crate::message::{Message, ScopeId};

use super::{AckSet, Cluster, Event, PendingScopeRound, PersistPurpose, Round};

impl Cluster {
    /// Starts the Persist call for the client's just-finished scope.
    pub(crate) fn start_scope_persist(&mut self, ctx: &mut Context<'_, Event>, client: ClientId) {
        let home = self.home_of(client);
        let scope = self
            .current_scope(client)
            .expect("scope persist only under Scope persistency");
        // Advance to the next scope: requests issued from now on belong to it.
        self.cstate[client.index()].scope_counter += 1;

        let acks = AckSet(self.down_mask());
        self.broadcast(
            ctx,
            home,
            &Message::Persist { scope },
            RdmaKind::RemoteFlush,
        );
        self.schedule_retry(ctx, ctx.now(), home, Round::Scope(scope.seq), 1);
        let local_outstanding = self.flush_scope(ctx, home, scope);
        self.nodes[home.index()].scope_rounds.insert(
            scope,
            PendingScopeRound {
                client,
                acks,
                local_outstanding,
            },
        );
        self.try_complete_scope(ctx, home, scope);
    }

    /// Persists every write `node` buffered for `scope`; returns how many.
    fn flush_scope(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, scope: ScopeId) -> u32 {
        let writes = self.nodes[node.index()]
            .scopes
            .remove(&scope)
            .map(|b| b.writes)
            .unwrap_or_default();
        self.flush(ctx, node, writes, PersistPurpose::ScopeFlush { scope })
    }

    /// `[PERSIST]s` at a follower: flush all buffered writes of the scope.
    pub(crate) fn on_persist_msg(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        scope: ScopeId,
    ) {
        // A retransmitted PERSIST while the flush is already running must
        // not restart it (that would lose the outstanding count and
        // acknowledge before durability).
        if self.faults_active {
            if let Some(buffer) = self.nodes[node.index()].scopes.get(&scope) {
                if buffer.flushing {
                    self.suppress_duplicate();
                    return;
                }
            }
        }
        let n = self.flush_scope(ctx, node, scope);
        if n == 0 {
            self.send_ack_scope(ctx, node, scope);
            return;
        }
        let buffer = self.nodes[node.index()].scopes.entry(scope).or_default();
        buffer.flushing = true;
        buffer.flush_outstanding = n;
    }

    /// One scope-flush persist completed.
    pub(crate) fn scope_flush_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        scope: ScopeId,
    ) {
        if node == scope.node {
            // Coordinator-local flush element.
            if let Some(round) = self.nodes[node.index()].scope_rounds.get_mut(&scope) {
                round.local_outstanding = round.local_outstanding.saturating_sub(1);
            }
            self.try_complete_scope(ctx, node, scope);
        } else {
            let finished = {
                let Some(buffer) = self.nodes[node.index()].scopes.get_mut(&scope) else {
                    return;
                };
                buffer.flush_outstanding = buffer.flush_outstanding.saturating_sub(1);
                buffer.flush_outstanding == 0
            };
            if finished {
                self.nodes[node.index()].scopes.remove(&scope);
                self.send_ack_scope(ctx, node, scope);
            }
        }
    }

    fn send_ack_scope(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, scope: ScopeId) {
        self.send(
            ctx,
            node,
            scope.node,
            Message::AckScope { scope, from: node },
            RdmaKind::Send,
        );
    }

    /// `[ACK_p]s` at the coordinator.
    pub(crate) fn on_ack_scope(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        scope: ScopeId,
        from: NodeId,
    ) {
        if let Some(round) = self.nodes[node.index()].scope_rounds.get_mut(&scope) {
            if !round.acks.credit(from) {
                self.suppress_duplicate();
                return;
            }
        }
        self.try_complete_scope(ctx, node, scope);
    }

    /// Completes the Persist call once every replica persisted the scope.
    pub(super) fn try_complete_scope(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        scope: ScopeId,
    ) {
        let Some(round) = self.nodes[node.index()].scope_rounds.get(&scope) else {
            return;
        };
        if !self.all_acked(round.acks) || round.local_outstanding > 0 {
            return;
        }
        let round = self.nodes[node.index()]
            .scope_rounds
            .remove(&scope)
            .expect("checked");
        self.broadcast(ctx, node, &Message::ValScope { scope }, RdmaKind::Send);
        // The Persist call returns; the client resumes its request stream.
        self.schedule_next_issue(ctx, round.client, ctx.now());
    }

    /// `[VAL_p]s` at a follower: nothing to unblock (reads never wait on
    /// scope durability), so this is bookkeeping only.
    pub(crate) fn on_val_scope(
        &mut self,
        _ctx: &mut Context<'_, Event>,
        _node: NodeId,
        _scope: ScopeId,
    ) {
    }
}
