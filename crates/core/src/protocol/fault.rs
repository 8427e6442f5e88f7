//! Fault handling: retransmission, client operation timeouts, transient
//! leases, and live node crash/rejoin.
//!
//! Everything here is armed only when the run's [`FaultPlan`] is active
//! (`cfg.faults.active()`); fault-free runs never schedule any of these
//! events, so their event streams are bit-identical to a build without
//! fault injection.
//!
//! The machinery forms three nested liveness nets:
//!
//! 1. **Retransmission** — coordinators re-send INV/UPD and the INITX/ENDX
//!    and scope-PERSIST round messages to followers whose ACK is overdue,
//!    with exponential backoff up to `max_retransmits` attempts, through
//!    one [`Event::Retry`] per round. Followers deduplicate via
//!    [`NodeState::seen_invs`] and re-acknowledge; the coordinator credits
//!    each follower once in the round's ACK set.
//! 2. **Transient leases** — if a key's VAL has not arrived
//!    `transient_timeout` after its INV, the follower applies the model's
//!    VAL in its place (`Cluster::apply_val`), bounding read stalls when a
//!    VAL is lost beyond the retransmission budget or its coordinator
//!    died.
//! 3. **Operation timeout** — a client whose operation makes no progress
//!    for `op_timeout` abandons it wholesale (pending writes, queued
//!    requests, transaction and scope rounds) and re-issues. This is the
//!    net of last resort and also how clients survive a dead coordinator.
//!
//! [`FaultPlan`]: crate::config::FaultPlan
//! [`NodeState::seen_invs`]: super::NodeState

use std::collections::BTreeMap;

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::{Context, SimTime};
use ddp_store::Key;
use ddp_workload::ClientId;

use crate::failure::{ClusterSnapshot, NodeImage};
use crate::message::{Message, ScopeId, WriteId};
use crate::model::{Consistency, Persistency};
use crate::recovery::{recover, RecoveryPolicy};

use super::{AckSet, ClientPhase, Cluster, Event, NodeState, Round};

impl Cluster {
    /// True if `node` is currently crashed (always false without faults).
    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.faults_active && !self.node_up[node.index()]
    }

    /// The crashed nodes, one bit each: a fresh round's ACK set, since they
    /// will never answer and the round must complete on the live ones.
    pub(crate) fn down_mask(&self) -> u64 {
        (0..)
            .zip(&self.node_up)
            .filter(|&(_, up)| !up)
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Counts one duplicated message or acknowledgment that was absorbed.
    pub(crate) fn suppress_duplicate(&mut self) {
        if self.measuring {
            self.stats.duplicates_suppressed += 1;
        }
    }

    // ------------------------------------------------------------------
    // Client operation timeout.
    // ------------------------------------------------------------------

    /// The liveness net of last resort: the client made no progress since
    /// the token was taken. Abandon everything it has in flight and
    /// re-issue.
    pub(crate) fn on_op_timeout(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        token: u64,
    ) {
        if !self.faults_active || self.cstate[client.index()].op_token != token {
            return;
        }
        if self.measuring {
            self.stats.client_timeouts += 1;
        }
        let home = self.home_of(client);

        // Abandon this client's un-acknowledged pending writes and release
        // the coordinator-side transients they hold.
        let seqs: Vec<u64> = self.nodes[home.index()]
            .pending
            .iter()
            .filter(|(_, pw)| pw.client == client && !pw.client_acked)
            .map(|(&s, _)| s)
            .collect();
        for seq in seqs {
            let (key, write) = {
                let pw = self.nodes[home.index()]
                    .pending
                    .get_mut(&seq)
                    .expect("collected above");
                pw.abandoned = true;
                (pw.key, pw.write)
            };
            let st = self.nodes[home.index()].store.state_mut(key);
            if st.inflight() == Some(write) {
                st.set_inflight(None);
            }
            self.wake_reads(ctx, home, key);
            self.pop_queued_write(ctx, home, key);
        }

        // Purge the client's queued work at its home node.
        {
            let n = &mut self.nodes[home.index()];
            n.waiting_reads.retain(|_, waiters| {
                waiters.retain(|w| w.client != client);
                !waiters.is_empty()
            });
            n.waiting_writes.retain(|_, queue| {
                queue.retain(|qw| qw.client != client);
                !queue.is_empty()
            });
            n.txn_rounds.retain(|_, round| round.client != client);
            n.scope_rounds.retain(|_, round| round.client != client);
        }

        // Tear down transaction state: the attempt is lost, a retry draws
        // fresh requests.
        if let Some(txn) = self.cstate[client.index()].txn.take() {
            self.active_txns.remove(txn);
        }
        let next_token = {
            let cr = &mut self.cstate[client.index()];
            cr.txn_requests.clear();
            cr.txn_first_issue.clear();
            cr.txn_index = 0;
            cr.txn_buffer.clear();
            cr.txn_writes.clear();
            cr.wounded = false;
            cr.group_conflicted = false;
            cr.txn_group_started = SimTime::MAX;
            cr.scope_counter += 1;
            cr.scope_reqs = 0;
            cr.phase = ClientPhase::Idle;
            cr.op_token = cr.op_token.wrapping_add(1);
            cr.op_token
        };
        ctx.schedule_in(
            self.cfg.faults.ack_timeout,
            Event::Issue(client, next_token),
        );
    }

    // ------------------------------------------------------------------
    // Retransmission.
    // ------------------------------------------------------------------

    /// Arms a round's ACK timeout in a fault run: attempt `attempt` fires
    /// `ack_timeout << (attempt - 1)` after `from`. No attempt is armed past
    /// `max_retransmits`.
    pub(crate) fn schedule_retry(
        &self,
        ctx: &mut Context<'_, Event>,
        from: SimTime,
        node: NodeId,
        round: Round,
        attempt: u32,
    ) {
        if !self.faults_active || attempt > self.cfg.faults.max_retransmits {
            return;
        }
        let wait = self.cfg.faults.ack_timeout * (1u64 << (attempt - 1));
        ctx.schedule_at(
            from + wait,
            Event::Retry {
                node,
                round,
                attempt,
            },
        );
    }

    /// A round's ACK timeout: re-send its message to the live followers
    /// whose acknowledgment is still missing, and arm the next timeout.
    pub(crate) fn on_retry(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        round: Round,
        attempt: u32,
    ) {
        if self.is_down(home) {
            return;
        }
        let Some((msg, kind, acks)) = self.retransmission(home, round) else {
            return;
        };
        let missing: Vec<NodeId> = (0..self.cfg.nodes)
            .map(NodeId)
            .filter(|&n| n != home && !acks.has(n))
            .collect();
        if missing.is_empty() {
            return;
        }
        for to in missing {
            // A crash credits the dead node in every open round, and a
            // round started while it is down starts with it credited.
            debug_assert!(!self.is_down(to), "{round:?} waits on crashed {to}");
            if self.measuring {
                self.stats.retransmits += 1;
            }
            self.send(ctx, home, to, msg.clone(), kind);
        }
        self.schedule_retry(ctx, ctx.now(), home, round, attempt + 1);
    }

    /// What a round re-sends and the followers it counts as acknowledged;
    /// `None` once the round is gone or its client abandoned it.
    fn retransmission(&self, home: NodeId, round: Round) -> Option<(Message, RdmaKind, AckSet)> {
        let node = &self.nodes[home.index()];
        match round {
            Round::Write(seq) => {
                let pw = node.pending.get(&seq).filter(|pw| !pw.abandoned)?;
                // A follower is missing while either ACK the model waits
                // for is.
                let (needs_c, needs_p) = self.write_ack_needs(pw.txn.is_some());
                let owed = |needed: bool, acks: AckSet| if needed { acks.0 } else { u64::MAX };
                let acks = AckSet(owed(needs_c, pw.acks) & owed(needs_p, pw.acks_p));
                let strict = self.pers == Persistency::Strict;
                let (msg, kind) = if self.cons.uses_inv_ack_val() {
                    let inv = Message::Inv {
                        write: pw.write,
                        key: pw.key,
                        version: pw.version,
                        value_bytes: pw.value_bytes,
                        scope: pw.scope,
                        txn: pw.txn,
                    };
                    let kind = if strict {
                        RdmaKind::WritePersistent
                    } else {
                        RdmaKind::WriteVolatile
                    };
                    (inv, kind)
                } else {
                    let upd = Message::Upd {
                        write: pw.write,
                        key: pw.key,
                        version: pw.version,
                        value_bytes: pw.value_bytes,
                        cauhist: pw.cauhist.clone(),
                        persist_on_arrival: strict,
                        scope: pw.scope,
                    };
                    (upd, RdmaKind::WritePersistent)
                };
                Some((msg, kind, acks))
            }
            Round::Txn(seq) => {
                let r = node.txn_rounds.get(&seq)?;
                let msg = if r.begin {
                    Message::InitX { txn: r.txn }
                } else {
                    Message::EndX {
                        txn: r.txn,
                        writes: r.writes,
                    }
                };
                Some((msg, RdmaKind::Send, r.acks))
            }
            Round::Scope(seq) => {
                let scope = ScopeId { node: home, seq };
                let r = node.scope_rounds.get(&scope)?;
                Some((Message::Persist { scope }, RdmaKind::RemoteFlush, r.acks))
            }
        }
    }

    // ------------------------------------------------------------------
    // Transient lease.
    // ------------------------------------------------------------------

    /// Schedules the transient lease for one just-applied INV (also used
    /// for the coordinator's own transient).
    pub(crate) fn schedule_transient_lease(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        key: Key,
        write: WriteId,
        version: u64,
    ) {
        if !self.faults_active {
            return;
        }
        ctx.schedule_in(
            self.cfg.faults.transient_timeout,
            Event::TransientExpire {
                node,
                key,
                write,
                version,
            },
        );
    }

    // ------------------------------------------------------------------
    // Node crash and rejoin.
    // ------------------------------------------------------------------

    /// A node crashes: its volatile hierarchy (caches, DRAM, all protocol
    /// state) is lost; its NVM image survives for the rejoin.
    pub(crate) fn on_node_crash(&mut self, ctx: &mut Context<'_, Event>, node: NodeId) {
        if !self.node_up[node.index()] {
            return;
        }
        self.node_up[node.index()] = false;
        self.node_epoch[node.index()] += 1;
        self.stats.crashes.push((node.0, ctx.now()));

        // In-flight compactions died with the node's background workers;
        // their CompactionDone events carry the old epoch and are dropped
        // at dispatch, so settle the gauge here.
        if self.lsm_active && self.compactions_per_node[node.index()] > 0 {
            self.compactions_total -= self.compactions_per_node[node.index()];
            self.compactions_per_node[node.index()] = 0;
            self.stats
                .compactions_active
                .set(ctx.now(), self.compactions_total);
        }

        // Capture the NVM image: the per-key durable version, exactly what
        // `crash_snapshot` would report for this node.
        let mut image = NodeImage::default();
        let mut bytes = BTreeMap::new();
        self.nodes[node.index()].store.for_each(&mut |key, st| {
            if st.local_persisted > 0 {
                image.versions.insert(key, st.local_persisted);
                bytes.insert(key, st.value_bytes);
            }
        });
        self.nvm_images[node.index()] = Some(image);
        self.nvm_bytes[node.index()] = bytes;

        // Volatile wipe. `next_seq` survives (it is an identifier source,
        // not state): a rejoined coordinator must not mint WriteIds that
        // collide with its pre-crash writes still referenced by in-flight
        // messages.
        let next_seq = self.nodes[node.index()].next_seq;
        let mut fresh = NodeState::new(node, &self.cfg);
        fresh.next_seq = next_seq;
        let wiped = std::mem::replace(&mut self.nodes[node.index()], fresh);
        self.causal_held -= wiped.causal_held();
        self.update_buffer_gauge(ctx.now());

        // Survivors drop transients coordinated by the dead node — the VAL
        // that would clear them can never be sent.
        let peers: Vec<NodeId> = (0..self.cfg.nodes)
            .map(NodeId)
            .filter(|&p| p != node && self.node_up[p.index()])
            .collect();
        for peer in &peers {
            let mut stale: Vec<Key> = Vec::new();
            self.nodes[peer.index()].store.for_each(&mut |key, st| {
                if st.inflight().map(|w| w.coordinator) == Some(node) {
                    stale.push(key);
                }
            });
            for key in stale {
                self.nodes[peer.index()]
                    .store
                    .state_mut(key)
                    .set_inflight(None);
                if self.measuring {
                    self.stats.transient_expirations += 1;
                }
                self.wake_reads(ctx, *peer, key);
                self.pop_queued_write(ctx, *peer, key);
            }
        }

        // Pretend-ack the dead node in every live round: writes and rounds
        // in flight complete on the surviving quorum.
        self.absorb_crashed_follower(ctx, node);

        // Transactions coordinated by the dead node release their conflict
        // sets, and their clients are wounded: the crash destroyed the
        // coordinator-side transaction state, so the attempt restarts from
        // INITX once the node rejoins.
        self.active_txns.remove_coordinated_by(node);
        for cr in &mut self.cstate {
            if cr.txn.is_some_and(|t| t.coordinator == node) {
                cr.wounded = true;
            }
        }
    }

    /// Credits `crashed` in every live node's pending write, transaction
    /// round, and scope round, then re-evaluates the ones it changed.
    fn absorb_crashed_follower(&mut self, ctx: &mut Context<'_, Event>, crashed: NodeId) {
        let peers: Vec<NodeId> = (0..self.cfg.nodes)
            .map(NodeId)
            .filter(|&p| p != crashed && self.node_up[p.index()])
            .collect();
        for peer in peers {
            let node = &mut self.nodes[peer.index()];
            let seqs: Vec<u64> = node
                .pending
                .iter_mut()
                .filter_map(|(&seq, pw)| {
                    let fresh_c = pw.acks.credit(crashed);
                    let fresh_p = pw.acks_p.credit(crashed);
                    (fresh_c || fresh_p).then_some(seq)
                })
                .collect();
            for seq in seqs {
                self.try_progress_write(ctx, peer, seq);
            }
            let node = &mut self.nodes[peer.index()];
            let txn_seqs: Vec<u64> = node
                .txn_rounds
                .iter_mut()
                .filter_map(|(&seq, r)| r.acks.credit(crashed).then_some(seq))
                .collect();
            for seq in txn_seqs {
                self.try_complete_txn_round(ctx, peer, seq);
            }
            let node = &mut self.nodes[peer.index()];
            let scopes: Vec<ScopeId> = node
                .scope_rounds
                .iter_mut()
                .filter_map(|(&scope, r)| r.acks.credit(crashed).then_some(scope))
                .collect();
            for scope in scopes {
                self.try_complete_scope(ctx, peer, scope);
            }
        }
    }

    /// A crashed node rejoins: restore its NVM image, then catch up from
    /// the live peers through the recovery machinery.
    pub(crate) fn on_node_recover(&mut self, ctx: &mut Context<'_, Event>, node: NodeId) {
        if self.node_up[node.index()] {
            return;
        }
        self.node_up[node.index()] = true;
        self.stats.rejoins.push((node.0, ctx.now()));

        // Restore the NVM image: durable versions become visible again.
        let image = self.nvm_images[node.index()].take().unwrap_or_default();
        let own_bytes = std::mem::take(&mut self.nvm_bytes[node.index()]);
        for (&key, &v) in &image.versions {
            let st = self.nodes[node.index()].store.state_mut(key);
            st.visible = v;
            st.local_persisted = v;
            st.value_bytes = own_bytes.get(&key).copied().unwrap_or(0);
            st.visible_origin = node.0;
        }

        // Catch-up target per key: the newest version visible at any live
        // peer. Every client-acknowledged write is visible at all live
        // replicas, so this restores read monotonicity for clients homed
        // here. `recover()` over the durable images gives the durable
        // floor the catch-up also re-persists.
        let peers: Vec<NodeId> = (0..self.cfg.nodes)
            .map(NodeId)
            .filter(|&p| p != node && self.node_up[p.index()])
            .collect();
        let mut snap = ClusterSnapshot {
            nvm: Vec::new(),
            volatile: Vec::new(),
        };
        // (version, bytes, origin, visible_seq) of the newest peer copy.
        let mut targets: BTreeMap<Key, (u64, u32, u8, u64)> = BTreeMap::new();
        let mut peer_vc: Vec<u64> = vec![0; self.cfg.nodes as usize];
        for peer in &peers {
            let mut durable = NodeImage::default();
            let mut seen = NodeImage::default();
            self.nodes[peer.index()].store.for_each(&mut |key, st| {
                if st.local_persisted > 0 {
                    durable.versions.insert(key, st.local_persisted);
                }
                if st.visible > 0 {
                    seen.versions.insert(key, st.visible);
                    let entry = targets.entry(key).or_insert((0, 0, 0, 0));
                    if st.visible > entry.0 {
                        *entry = (
                            st.visible,
                            st.value_bytes,
                            st.visible_origin,
                            st.visible_seq,
                        );
                    }
                }
            });
            snap.nvm.push(durable);
            snap.volatile.push(seen);
            for (i, vc) in peer_vc.iter_mut().enumerate() {
                *vc = (*vc).max(self.nodes[peer.index()].applied_vc.get(i));
            }
        }
        snap.nvm.push(image.clone());
        snap.volatile.push(image);
        let policy = if self.pers.persist_before_ack() {
            RecoveryPolicy::MajorityVote
        } else {
            RecoveryPolicy::NewestAvailable
        };
        let recovered = recover(&snap, policy);

        let keys: Vec<Key> = snap.all_keys();
        let mut caught_up = 0u64;
        for key in keys {
            let durable_floor = recovered.version_of(key);
            let (peer_v, peer_bytes, origin, vseq) =
                targets.get(&key).copied().unwrap_or((0, 0, 0, 0));
            let target = durable_floor.max(peer_v);
            let st = self.nodes[node.index()].store.state_mut(key);
            if target > st.visible {
                st.visible = target;
                if peer_v == target {
                    st.value_bytes = peer_bytes;
                    st.visible_origin = origin;
                    st.visible_seq = vseq;
                }
                caught_up += 1;
            }
            // The catch-up streams straight into NVM, and the recovered
            // state is treated as cluster-validated so reads here do not
            // stall on VALs that predate the crash.
            st.local_persisted = st.local_persisted.max(target);
            st.global_visible = st.global_visible.max(target);
            st.global_persisted = st.global_persisted.max(target);
        }
        if self.measuring {
            self.stats.catchup_keys += caught_up;
        }

        // Causal catch-up: adopt the peers' delivered-history watermark so
        // future UPDs are not buffered behind history this node will never
        // re-receive.
        if self.cons == Consistency::Causal {
            for (i, &vc) in peer_vc.iter().enumerate() {
                self.nodes[node.index()].applied_vc.set(i, vc);
                self.nodes[node.index()].history_vc.set(i, vc);
            }
        }
        self.update_buffer_gauge(ctx.now());
    }
}
