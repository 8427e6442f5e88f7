//! Transactional consistency: INITX/ENDX rounds, conflict detection, and
//! squash/retry (paper §5.4).
//!
//! A client under Transactional consistency runs its requests in groups of
//! `txn_size` (paper: 5). Each group is bracketed by INITX and ENDX rounds.
//! Writes inside the transaction complete immediately; the ENDX stalls
//! until every follower has applied (and, per the persistency model,
//! persisted) all the transaction's writes. At every access, the address is
//! checked against the read/write sets of all active transactions; on a
//! conflict, wound-wait decides which side waits and which restarts.
//!
//! The check reads a per-key index of the transactions holding the key
//! ([`TxnRegistry`]) instead of scanning every active transaction's sets;
//! the conflict semantics are the same as the scan's.

use std::collections::BTreeMap;

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::{Context, SimTime};
use ddp_store::Key;
use ddp_workload::{ClientId, OpKind};

use crate::message::{Message, TxnId, WriteId};
use crate::model::Persistency;

use super::{Cluster, Event, PendingTxnRound, PersistCtx, PersistPurpose};

/// Read/write sets of one active transaction (global conflict registry).
#[derive(Clone, Debug, Default)]
pub(crate) struct TxnSets {
    pub reads: Vec<Key>,
    pub writes: Vec<Key>,
    pub client: u32,
    /// When the transaction *group* first started (survives retries, so
    /// wound-wait ages a retried transaction toward winning).
    pub started_ns: u64,
}

/// One active transaction's access to one key.
#[derive(Clone, Copy, Debug)]
struct Holder {
    txn: TxnId,
    read: bool,
    write: bool,
}

/// The active transactions' read/write sets, indexed by key.
///
/// `holders` lists, per key, the transactions whose sets contain it. The
/// methods are the only mutations, so the index always matches the sets
/// and emptied keys leave no entry behind.
#[derive(Debug, Default)]
pub(crate) struct TxnRegistry {
    sets: BTreeMap<TxnId, TxnSets>,
    holders: BTreeMap<Key, Vec<Holder>>,
}

impl TxnRegistry {
    /// Registers a transaction attempt with empty sets.
    pub(crate) fn begin(&mut self, txn: TxnId, client: u32, started_ns: u64) {
        let prev = self.sets.insert(
            txn,
            TxnSets {
                client,
                started_ns,
                ..TxnSets::default()
            },
        );
        debug_assert!(prev.is_none(), "transaction ids are never reused");
    }

    /// Adds `key` to a registered transaction's read or write set.
    pub(crate) fn record(&mut self, txn: TxnId, key: Key, is_write: bool) {
        let Some(sets) = self.sets.get_mut(&txn) else {
            return;
        };
        let set = if is_write {
            &mut sets.writes
        } else {
            &mut sets.reads
        };
        if set.contains(&key) {
            return;
        }
        set.push(key);
        let holders = self.holders.entry(key).or_default();
        match holders.iter_mut().find(|h| h.txn == txn) {
            Some(h) if is_write => h.write = true,
            Some(h) => h.read = true,
            None => holders.push(Holder {
                txn,
                read: !is_write,
                write: is_write,
            }),
        }
    }

    /// Unregisters a transaction, returning its sets.
    pub(crate) fn remove(&mut self, txn: TxnId) -> Option<TxnSets> {
        let sets = self.sets.remove(&txn)?;
        for key in sets.reads.iter().chain(&sets.writes) {
            if let Some(holders) = self.holders.get_mut(key) {
                holders.retain(|h| h.txn != txn);
                if holders.is_empty() {
                    self.holders.remove(key);
                }
            }
        }
        Some(sets)
    }

    /// Unregisters every transaction coordinated by `node`.
    pub(crate) fn remove_coordinated_by(&mut self, node: NodeId) {
        let doomed: Vec<TxnId> = self
            .sets
            .keys()
            .filter(|t| t.coordinator == node)
            .copied()
            .collect();
        for txn in doomed {
            self.remove(txn);
        }
    }

    /// A registered transaction's sets.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&TxnSets> {
        self.sets.get(&txn)
    }

    /// The transactions other than `me` that conflict with an access to
    /// `key`: its writers for a read; its readers and writers for a write.
    pub(crate) fn conflicting(
        &self,
        me: TxnId,
        key: Key,
        is_write: bool,
    ) -> impl Iterator<Item = TxnId> + '_ {
        self.holders
            .get(&key)
            .into_iter()
            .flatten()
            .filter(move |h| h.txn != me && (h.write || (is_write && h.read)))
            .map(|h| h.txn)
    }
}

/// How an access fared against the active-transaction registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConflictOutcome {
    /// No live conflict remains; the access proceeds.
    Clear,
    /// An older transaction holds a conflicting key; ours waits and retries
    /// the access after a backoff.
    Wait,
}

/// A buffered completion inside an uncommitted transaction: statistics are
/// recorded only when the transaction commits.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TxnOpDone {
    pub is_read: bool,
    pub req_index: usize,
    pub t_done: SimTime,
    pub key: Key,
    pub version: u64,
}

impl Cluster {
    /// Drives one step of a transactional client: begin, next request, or
    /// end.
    pub(crate) fn issue_transactional(&mut self, ctx: &mut Context<'_, Event>, client: ClientId) {
        let home = self.home_of(client);
        // A wounded transaction abandons its current attempt and restarts
        // (its requests and group start time are retained).
        if self.cstate[client.index()].wounded {
            let cr = &mut self.cstate[client.index()];
            cr.wounded = false;
            if let Some(txn) = cr.txn.take() {
                cr.txn_index = 0;
                cr.txn_buffer.clear();
                cr.txn_writes.clear();
                self.active_txns.remove(txn);
            }
        }
        if self.cstate[client.index()].txn.is_none() {
            // Fresh transaction (or retry): draw its requests if new.
            if self.cstate[client.index()].txn_requests.is_empty() {
                let now = ctx.now();
                let cr = &mut self.cstate[client.index()];
                cr.txn_group_started = now;
                cr.group_conflicted = false;
                if self.measuring {
                    self.stats.txns_started += 1;
                }
                let size = self.cfg.txn_size as usize;
                for _ in 0..size {
                    let req = self.clients.client_mut(client).next_request();
                    self.cstate[client.index()].txn_requests.push(req);
                    self.cstate[client.index()]
                        .txn_first_issue
                        .push(SimTime::MAX);
                }
                // Open-loop sessions anchor the transaction's first request
                // at its arrival time (admission wait counts against it).
                if let Some(anchor) = self.cstate[client.index()].ol_anchor.take() {
                    self.cstate[client.index()].txn_first_issue[0] = anchor;
                }
            }
            self.begin_txn(ctx, client, home);
            return;
        }
        let idx = self.cstate[client.index()].txn_index;
        if idx >= self.cstate[client.index()].txn_requests.len() {
            self.begin_endx(ctx, client, home);
            return;
        }
        // Issue request `idx` of the transaction.
        let request = self.cstate[client.index()].txn_requests[idx];
        if self.cstate[client.index()].txn_first_issue[idx] == SimTime::MAX {
            self.cstate[client.index()].txn_first_issue[idx] = ctx.now();
        }
        let issued_at = self.cstate[client.index()].txn_first_issue[idx];
        let txn = self.cstate[client.index()].txn.expect("in txn");

        // Conflict detection against every other active transaction,
        // resolved wound-wait: the older transaction always prevails, so the
        // oldest transaction in the system is never squashed and progress is
        // guaranteed.
        let is_write = request.op == OpKind::Write;
        match self.resolve_conflicts(txn, request.key, is_write) {
            ConflictOutcome::Clear => {}
            ConflictOutcome::Wait => {
                self.note_group_conflict(client);
                let token = self.cstate[client.index()].op_token;
                ctx.schedule_in(self.cfg.txn_retry_backoff, Event::TxnRetry(client, token));
                return;
            }
        }
        self.active_txns.record(txn, request.key, is_write);
        self.cstate[client.index()].txn_index = idx + 1;
        let scope = self.current_scope(client);
        self.admit_request(ctx, client, request, issued_at, Some(txn), scope);
    }

    /// Wound-wait conflict resolution for one access.
    ///
    /// Conflicting transactions younger than ours are wounded (squashed at
    /// their next step); if any conflicting transaction is older, ours dies
    /// and retries with its original start time. The outcome depends only on
    /// the set of conflicting transactions, not on the order they are found.
    fn resolve_conflicts(&mut self, txn: TxnId, key: Key, is_write: bool) -> ConflictOutcome {
        let my_age = self
            .active_txns
            .get(txn)
            .map(|s| (s.started_ns, s.client))
            .expect("own txn is registered");
        let mut any = false;
        // Any older (or committing) conflicting transaction wins: we wait.
        for id in self.active_txns.conflicting(txn, key, is_write) {
            any = true;
            let sets = self.active_txns.get(id).expect("holders are registered");
            let their_age = (sets.started_ns, sets.client);
            let victim_cr = &self.cstate[sets.client as usize];
            let committing = victim_cr.txn_index >= victim_cr.txn_requests.len().max(1);
            if their_age < my_age || committing {
                return ConflictOutcome::Wait;
            }
        }
        if !any {
            return ConflictOutcome::Clear;
        }
        // All conflicting transactions are younger: wound them; they restart
        // at their next step while we proceed.
        let victims: Vec<TxnId> = self.active_txns.conflicting(txn, key, is_write).collect();
        for id in victims {
            let sets = self.active_txns.remove(id).expect("collected above");
            let victim = ClientId(sets.client);
            self.note_group_conflict(victim);
            self.cstate[victim.index()].wounded = true;
        }
        ConflictOutcome::Clear
    }

    /// Counts a transaction group as conflicted, once.
    fn note_group_conflict(&mut self, client: ClientId) {
        let cr = &mut self.cstate[client.index()];
        if !cr.group_conflicted {
            cr.group_conflicted = true;
            if self.measuring {
                self.stats.txns_conflicted += 1;
            }
        }
    }

    /// Starts the INITX round.
    fn begin_txn(&mut self, ctx: &mut Context<'_, Event>, client: ClientId, home: NodeId) {
        let cr = &mut self.cstate[client.index()];
        cr.txn_counter += 1;
        let txn = TxnId {
            coordinator: home,
            seq: (u64::from(client.0) << 32) | cr.txn_counter,
        };
        cr.txn = Some(txn);
        cr.txn_index = 0;
        cr.txn_buffer.clear();
        cr.txn_writes.clear();
        let started_ns = self.cstate[client.index()].txn_group_started.as_nanos();
        self.active_txns.begin(txn, client.0, started_ns);
        let needs_log_persist = self.pers.persist_before_ack();
        let needed = self.followers();
        let (down_mask, down_count) = self.down_mask();
        self.nodes[home.index()].txn_rounds.insert(
            txn.seq,
            PendingTxnRound {
                txn,
                client,
                begin: true,
                acks: down_count,
                acked: down_mask,
                needed,
                local_persisted: !needs_log_persist,
                local_persists_outstanding: 0,
                writes: 0,
            },
        );
        self.broadcast(ctx, home, &Message::InitX { txn }, RdmaKind::Send);
        if self.faults_active {
            ctx.schedule_in(
                self.cfg.faults.ack_timeout,
                Event::TxnRoundRetry {
                    node: home,
                    seq: txn.seq,
                    attempt: 1,
                },
            );
        }
        if needs_log_persist {
            let epoch = self.node_epoch[home.index()];
            self.issue_persist(
                ctx,
                home,
                ctx.now(),
                txn_log_addr(txn),
                64,
                PersistCtx {
                    key: txn_log_addr(txn) >> 6,
                    version: 0,
                    purpose: PersistPurpose::TxnLog { txn, begin: true },
                    epoch,
                },
                false,
            );
        }
        self.try_complete_txn_round(ctx, home, txn.seq);
    }

    /// Starts the ENDX round.
    fn begin_endx(&mut self, ctx: &mut Context<'_, Event>, client: ClientId, home: NodeId) {
        let txn = self.cstate[client.index()].txn.expect("in txn");
        // All the transaction's accesses are done; release its conflict
        // sets so waiters stop stalling on a transaction that is merely
        // draining its end-of-transaction round.
        self.active_txns.remove(txn);
        let writes = self.cstate[client.index()]
            .txn_requests
            .iter()
            .filter(|r| r.op == OpKind::Write)
            .count() as u32;
        let epoch = self.node_epoch[home.index()];
        let mut outstanding = 0;
        if self.pers == Persistency::Synchronous {
            // <Transactional, Synchronous>: the coordinator's own txn writes
            // persist now, bunched at the transaction end (paper Figure 4).
            let local_writes = std::mem::take(&mut self.cstate[client.index()].txn_writes);
            for (key, version, bytes) in local_writes {
                outstanding += 1;
                self.issue_persist(
                    ctx,
                    home,
                    ctx.now(),
                    Self::addr(key),
                    u64::from(bytes),
                    PersistCtx {
                        key,
                        version,
                        purpose: PersistPurpose::TxnEnd { txn },
                        epoch,
                    },
                    true,
                );
            }
        }
        let needed = self.followers();
        let (down_mask, down_count) = self.down_mask();
        self.nodes[home.index()].txn_rounds.insert(
            txn.seq,
            PendingTxnRound {
                txn,
                client,
                begin: false,
                acks: down_count,
                acked: down_mask,
                needed,
                local_persisted: true,
                local_persists_outstanding: outstanding,
                writes,
            },
        );
        self.broadcast(ctx, home, &Message::EndX { txn, writes }, RdmaKind::Send);
        if self.faults_active {
            ctx.schedule_in(
                self.cfg.faults.ack_timeout,
                Event::TxnRoundRetry {
                    node: home,
                    seq: txn.seq,
                    attempt: 1,
                },
            );
        }
        self.try_complete_txn_round(ctx, home, txn.seq);
    }

    /// INITX at a follower.
    pub(crate) fn on_initx(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, txn: TxnId) {
        // A retransmitted INITX re-runs the (idempotent) log persist and
        // re-acknowledges; only the statistics note the duplicate.
        if self.faults_active && self.nodes[node.index()].txns.contains_key(&txn) && self.measuring
        {
            self.stats.duplicates_suppressed += 1;
        }
        let txns = &mut self.nodes[node.index()].txns;
        if !self.faults_active {
            // The client's earlier attempts are done with this follower:
            // its coordinator commits only after every follower acknowledged
            // the ENDX, and an aborted attempt never sends one. Fault runs
            // keep them, since retransmitted rounds and the duplicate count
            // read them. A client's sequence numbers share its high 32 bits.
            let first = TxnId {
                seq: txn.seq & !0xFFFF_FFFF,
                ..txn
            };
            while let Some(&earlier) = txns.range(first..txn).next().map(|(t, _)| t) {
                txns.remove(&earlier);
            }
        }
        txns.entry(txn).or_default();
        if self.pers.persist_before_ack() {
            let epoch = self.node_epoch[node.index()];
            self.issue_persist(
                ctx,
                node,
                ctx.now(),
                txn_log_addr(txn),
                64,
                PersistCtx {
                    key: txn_log_addr(txn) >> 6,
                    version: 0,
                    purpose: PersistPurpose::TxnLog { txn, begin: true },
                    epoch,
                },
                false,
            );
        } else {
            self.send_ackx(ctx, node, txn, true);
        }
    }

    /// A transaction-tagged INV at a follower.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one transaction-tagged INV message"
    )]
    pub(crate) fn follower_txn_write(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
        write: WriteId,
        key: Key,
        version: u64,
        value_bytes: u32,
    ) {
        {
            let ft = self.nodes[node.index()].txns.entry(txn).or_default();
            ft.writes_applied += 1;
            ft.writes.push((key, version, value_bytes));
        }
        let epoch = self.node_epoch[node.index()];
        let coord = write.coordinator;
        match self.pers {
            Persistency::Strict => {
                // Persist before the per-write ACK.
                self.issue_persist(
                    ctx,
                    node,
                    ctx.now(),
                    Self::addr(key),
                    u64::from(value_bytes),
                    PersistCtx {
                        key,
                        version,
                        purpose: PersistPurpose::FollowerInv {
                            write,
                            txn: Some(txn),
                        },
                        epoch,
                    },
                    true,
                );
            }
            Persistency::Synchronous => {
                // ACK after the volatile apply; persists wait for ENDX.
                self.send(
                    ctx,
                    node,
                    coord,
                    Message::AckC { write, from: node },
                    RdmaKind::Send,
                );
            }
            Persistency::ReadEnforced => {
                self.send(
                    ctx,
                    node,
                    coord,
                    Message::AckC { write, from: node },
                    RdmaKind::Send,
                );
                self.issue_persist(
                    ctx,
                    node,
                    ctx.now(),
                    Self::addr(key),
                    u64::from(value_bytes),
                    PersistCtx {
                        key,
                        version,
                        purpose: PersistPurpose::FollowerInv { write, txn: None },
                        epoch,
                    },
                    true,
                );
            }
            Persistency::Scope => {
                self.send(
                    ctx,
                    node,
                    coord,
                    Message::AckC { write, from: node },
                    RdmaKind::Send,
                );
                // Scope membership was recorded by the INV handler's caller
                // only for non-txn writes; record it here from the write's
                // scope tag if present. Scoped transactional writes flush at
                // the scope's PERSIST.
            }
            Persistency::Eventual => {
                self.send(
                    ctx,
                    node,
                    coord,
                    Message::AckC { write, from: node },
                    RdmaKind::Send,
                );
                self.lazy_pending += 1;
                self.update_buffer_gauge(ctx.now());
                let fire = ctx.now() + self.cfg.lazy_persist_delay;
                ctx.schedule_at(
                    fire,
                    Event::LazyPersist(
                        node,
                        super::LazyPersistCtx {
                            key,
                            version,
                            bytes: value_bytes,
                            epoch,
                        },
                    ),
                );
            }
        }
        self.check_endx_ready(ctx, node, txn);
    }

    /// ENDX at a follower.
    pub(crate) fn on_endx(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
        writes: u32,
    ) {
        self.nodes[node.index()]
            .txns
            .entry(txn)
            .or_default()
            .endx_expected = Some(writes);
        self.check_endx_ready(ctx, node, txn);
    }

    /// Acknowledges the transaction end once all its writes are applied and
    /// (per the persistency model) durable at this follower.
    pub(crate) fn check_endx_ready(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
    ) {
        let Some(ft) = self.nodes[node.index()].txns.get(&txn) else {
            return;
        };
        let Some(expected) = ft.endx_expected else {
            return;
        };
        if ft.writes_applied < expected {
            return;
        }
        match self.pers {
            Persistency::Synchronous => {
                if ft.endx_persists_outstanding > 0 {
                    return;
                }
                if ft.writes_persisted < expected {
                    // Start the bunched ENDX persists once.
                    let writes = ft.writes.clone();
                    let remaining: Vec<_> = writes
                        .into_iter()
                        .skip(ft.writes_persisted as usize)
                        .collect();
                    let n = remaining.len() as u32;
                    if n > 0 {
                        let epoch = self.node_epoch[node.index()];
                        self.nodes[node.index()]
                            .txns
                            .get_mut(&txn)
                            .expect("present above")
                            .endx_persists_outstanding = n;
                        for (key, version, bytes) in remaining {
                            self.issue_persist(
                                ctx,
                                node,
                                ctx.now(),
                                Self::addr(key),
                                u64::from(bytes),
                                PersistCtx {
                                    key,
                                    version,
                                    purpose: PersistPurpose::TxnEnd { txn },
                                    epoch,
                                },
                                true,
                            );
                        }
                        return;
                    }
                }
                self.send_ackx(ctx, node, txn, false);
            }
            Persistency::Strict => {
                if ft.writes_persisted >= expected {
                    self.send_ackx(ctx, node, txn, false);
                }
            }
            Persistency::ReadEnforced | Persistency::Scope | Persistency::Eventual => {
                self.send_ackx(ctx, node, txn, false);
            }
        }
    }

    fn send_ackx(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, txn: TxnId, begin: bool) {
        self.send(
            ctx,
            node,
            txn.coordinator,
            Message::AckX {
                txn,
                begin,
                from: node,
            },
            RdmaKind::Send,
        );
    }

    /// ACK of INITX/ENDX at the coordinator.
    pub(crate) fn on_ackx(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
        begin: bool,
        from: NodeId,
    ) {
        if let Some(round) = self.nodes[node.index()].txn_rounds.get_mut(&txn.seq) {
            // A late duplicate INITX-ack must not credit the ENDX round
            // that reused the transaction's slot.
            if round.begin != begin {
                return;
            }
            if self.faults_active {
                let bit = Self::follower_bit(from);
                if round.acked & bit != 0 {
                    if self.measuring {
                        self.stats.duplicates_suppressed += 1;
                    }
                    return;
                }
                round.acked |= bit;
            }
            round.acks += 1;
        }
        self.try_complete_txn_round(ctx, node, txn.seq);
    }

    /// Completion of an INITX/ENDX log or bulk persist.
    pub(crate) fn txn_log_persist_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
        begin: bool,
    ) {
        if node == txn.coordinator {
            if let Some(round) = self.nodes[node.index()].txn_rounds.get_mut(&txn.seq) {
                round.local_persisted = true;
            }
            self.try_complete_txn_round(ctx, node, txn.seq);
        } else {
            self.send_ackx(ctx, node, txn, begin);
        }
    }

    /// Completion of one ENDX bulk persist element.
    pub(crate) fn txn_end_persist_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
    ) {
        if node == txn.coordinator {
            if let Some(round) = self.nodes[node.index()].txn_rounds.get_mut(&txn.seq) {
                round.local_persists_outstanding =
                    round.local_persists_outstanding.saturating_sub(1);
            }
            self.try_complete_txn_round(ctx, node, txn.seq);
        } else {
            {
                let ft = self.nodes[node.index()].txns.entry(txn).or_default();
                ft.endx_persists_outstanding = ft.endx_persists_outstanding.saturating_sub(1);
                ft.writes_persisted += 1;
            }
            self.check_endx_ready(ctx, node, txn);
        }
    }

    /// Checks an INITX/ENDX round for completion.
    pub(super) fn try_complete_txn_round(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        seq: u64,
    ) {
        let Some(round) = self.nodes[node.index()].txn_rounds.get(&seq) else {
            return;
        };
        if round.acks < round.needed
            || !round.local_persisted
            || round.local_persists_outstanding > 0
        {
            return;
        }
        let round = self.nodes[node.index()]
            .txn_rounds
            .remove(&seq)
            .expect("checked");
        let client = round.client;
        if round.begin {
            // Transaction open: the client issues its first request.
            self.schedule_next_issue(ctx, client, ctx.now());
        } else {
            self.commit_txn(ctx, client, round.txn);
        }
    }

    /// Commits a transaction: ValX broadcast, registry cleanup, deferred
    /// statistics flush, next transaction.
    fn commit_txn(&mut self, ctx: &mut Context<'_, Event>, client: ClientId, txn: TxnId) {
        self.broadcast(ctx, txn.coordinator, &Message::ValX { txn }, RdmaKind::Send);
        self.active_txns.remove(txn);
        if self.measuring {
            self.stats.txns_committed += 1;
        }
        let home = self.home_of(client);
        let buffered = std::mem::take(&mut self.cstate[client.index()].txn_buffer);
        let first_issues = std::mem::take(&mut self.cstate[client.index()].txn_first_issue);
        for op in buffered {
            let issued_at = first_issues.get(op.req_index).copied().unwrap_or(op.t_done);
            self.record_completed(
                ctx, client, op.is_read, issued_at, op.t_done, op.key, op.version, home,
            );
            if self.pers == Persistency::Scope {
                self.cstate[client.index()].scope_reqs += 1;
            }
        }
        let cr = &mut self.cstate[client.index()];
        cr.txn = None;
        cr.txn_requests.clear();
        cr.txn_index = 0;
        cr.txn_group_started = SimTime::MAX;
        cr.wounded = false;
        self.schedule_next_issue(ctx, client, ctx.now());
    }

    /// Retry entry point after a wait backoff or a wound. A stale token
    /// means the operation timeout already reset this client.
    pub(crate) fn on_txn_retry(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        token: u64,
    ) {
        if self.done || token != self.cstate[client.index()].op_token {
            return;
        }
        // The retry must not restart a transaction on a crashed
        // coordinator; park it until the node is back.
        if self.faults_active && self.is_down(self.home_of(client)) {
            ctx.schedule_in(self.cfg.faults.op_timeout, Event::TxnRetry(client, token));
            return;
        }
        self.issue_transactional(ctx, client);
    }

    /// ValX at a follower: drop the transaction's bookkeeping.
    pub(crate) fn on_valx(&mut self, _ctx: &mut Context<'_, Event>, node: NodeId, txn: TxnId) {
        self.nodes[node.index()].txns.remove(&txn);
    }

    /// Buffers a completed in-transaction operation until commit.
    pub(crate) fn txn_note_complete(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        is_read: bool,
        t_done: SimTime,
        key: Key,
        version: u64,
    ) {
        let cr = &mut self.cstate[client.index()];
        if cr.wounded || cr.txn.is_none() {
            // This attempt was wounded mid-flight; the next issue restarts
            // the transaction.
            self.schedule_next_issue(ctx, client, t_done);
            return;
        }
        let req_index = cr.txn_index.saturating_sub(1);
        cr.txn_buffer.push(TxnOpDone {
            is_read,
            req_index,
            t_done,
            key,
            version,
        });
        // Closed loop: the client proceeds to its next request immediately.
        self.schedule_next_issue(ctx, client, t_done);
    }

    /// Records a coordinator-local transactional write for the ENDX bulk
    /// persist (`<Transactional, Synchronous>`).
    pub(crate) fn note_txn_local_write(
        &mut self,
        client: ClientId,
        _txn: TxnId,
        key: Key,
        version: u64,
        bytes: u32,
    ) {
        self.cstate[client.index()]
            .txn_writes
            .push((key, version, bytes));
    }
}

/// NVM address of a transaction's log record (distinct from any key).
fn txn_log_addr(txn: TxnId) -> u64 {
    (1 << 40) | (u64::from(txn.coordinator.0) << 32) | (txn.seq & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use ddp_sim::SimRng;

    use super::*;

    const KEYS: u64 = 6;
    const COORDINATORS: u8 = 3;

    /// The conflict filter as a scan over every registered transaction's
    /// sets: the reference the per-key index must agree with.
    fn scan(reg: &TxnRegistry, me: TxnId, key: Key, is_write: bool) -> Vec<TxnId> {
        reg.sets
            .iter()
            .filter(|(&id, sets)| {
                id != me && (sets.writes.contains(&key) || (is_write && sets.reads.contains(&key)))
            })
            .map(|(&id, _)| id)
            .collect()
    }

    fn assert_index_matches_scan(reg: &TxnRegistry, probes: &[TxnId], step: usize) {
        for key in 0..KEYS {
            for is_write in [false, true] {
                for &me in probes {
                    let mut found: Vec<TxnId> = reg.conflicting(me, key, is_write).collect();
                    found.sort();
                    assert_eq!(
                        found,
                        scan(reg, me, key, is_write),
                        "step {step}: {me:?} {} key {key}",
                        if is_write { "writing" } else { "reading" },
                    );
                }
            }
        }
    }

    #[test]
    fn holder_index_matches_a_scan_of_the_sets() {
        for seed in 0..4 {
            let mut rng = SimRng::seed_from(seed);
            let mut reg = TxnRegistry::default();
            let mut live: Vec<TxnId> = Vec::new();
            let mut next_seq = [0u64; COORDINATORS as usize];
            // Never registered: probes the filter from outside the sets.
            let outsider = TxnId {
                coordinator: NodeId(COORDINATORS),
                seq: 0,
            };
            for step in 0..1_000 {
                match rng.next_below(100) {
                    0..=24 => {
                        let c = rng.next_below(u64::from(COORDINATORS)) as usize;
                        next_seq[c] += 1;
                        let txn = TxnId {
                            coordinator: NodeId(c as u8),
                            seq: next_seq[c],
                        };
                        reg.begin(txn, rng.next_below(8) as u32, rng.next_below(1_000));
                        live.push(txn);
                    }
                    25..=74 if !live.is_empty() => {
                        let txn = *rng.choose(&live);
                        reg.record(txn, rng.next_below(KEYS), rng.chance(0.5));
                    }
                    75..=89 if !live.is_empty() => {
                        let txn = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                        assert!(reg.remove(txn).is_some());
                        assert!(reg.remove(txn).is_none(), "removed twice");
                    }
                    90..=92 => {
                        let node = NodeId(rng.next_below(u64::from(COORDINATORS)) as u8);
                        reg.remove_coordinated_by(node);
                        live.retain(|t| t.coordinator != node);
                    }
                    _ => {
                        // An access by an unregistered transaction is ignored.
                        reg.record(outsider, rng.next_below(KEYS), rng.chance(0.5));
                    }
                }
                assert_eq!(reg.sets.len(), live.len(), "step {step}");
                let mut probes = live.clone();
                probes.push(outsider);
                assert_index_matches_scan(&reg, &probes, step);
            }
            for txn in live {
                reg.remove(txn);
            }
            assert!(reg.sets.is_empty());
            assert!(
                reg.holders.is_empty(),
                "seed {seed}: stale holders {:?}",
                reg.holders
            );
        }
    }
}
