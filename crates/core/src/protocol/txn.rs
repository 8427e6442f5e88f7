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
//! The check reads the active transactions' sets by client and their
//! holders by key ([`TxnRegistry`]) instead of scanning every active
//! transaction's sets; the conflict semantics are the same as the scan's.

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::{Context, SimTime};
use ddp_store::{HashTable, Key, KvStore};
use ddp_workload::{ClientId, OpKind};

use crate::message::{Message, TxnId};
use crate::model::Persistency;

use super::{AckSet, Cluster, Event, PendingTxnRound, PersistPurpose, Round, Update};

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

/// The client whose attempt `txn` is: [`Cluster::begin_txn`] numbers a
/// client's attempts in the low 32 bits of `seq`, under the client's id.
fn client_of(txn: TxnId) -> usize {
    (txn.seq >> 32) as usize
}

/// The active transactions' read/write sets, indexed by client and by key.
///
/// The engine keeps at most one registered attempt per client: a client
/// begins an attempt only after its previous one left the registry. So
/// `sets` holds, at each client's index, that client's attempt. `holders`
/// lists, per key, the transactions whose sets contain it; it is created by
/// the first access, so building a registry allocates nothing. The methods
/// are the only mutations, so the index always matches the sets and emptied
/// keys leave no entry behind.
#[derive(Debug, Default)]
pub(crate) struct TxnRegistry {
    sets: Vec<Option<(TxnId, TxnSets)>>,
    holders: Option<HashTable<Vec<Holder>>>,
}

impl TxnRegistry {
    /// Registers a transaction attempt with empty sets.
    pub(crate) fn begin(&mut self, txn: TxnId, client: u32, started_ns: u64) {
        let c = client as usize;
        debug_assert_eq!(client_of(txn), c, "{txn:?} does not encode client {c}");
        if self.sets.len() <= c {
            self.sets.resize_with(c + 1, || None);
        }
        let prev = self.sets[c].replace((
            txn,
            TxnSets {
                client,
                started_ns,
                ..TxnSets::default()
            },
        ));
        debug_assert!(
            prev.is_none(),
            "client {c} began {txn:?} with {prev:?} still registered"
        );
    }

    /// The registered attempt `txn`'s sets.
    fn sets_mut(&mut self, txn: TxnId) -> Option<&mut TxnSets> {
        match self.sets.get_mut(client_of(txn)) {
            Some(Some((id, sets))) if *id == txn => Some(sets),
            _ => None,
        }
    }

    /// Adds `key` to a registered transaction's read or write set.
    pub(crate) fn record(&mut self, txn: TxnId, key: Key, is_write: bool) {
        let Some(sets) = self.sets_mut(txn) else {
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
        let holder = Holder {
            txn,
            read: !is_write,
            write: is_write,
        };
        let table = self.holders.get_or_insert_with(HashTable::new);
        match table.get_mut(key) {
            None => {
                table.put(key, vec![holder]);
            }
            Some(holders) => match holders.iter_mut().find(|h| h.txn == txn) {
                Some(h) => {
                    h.read |= holder.read;
                    h.write |= holder.write;
                }
                None => holders.push(holder),
            },
        }
    }

    /// Unregisters a transaction, returning its sets.
    pub(crate) fn remove(&mut self, txn: TxnId) -> Option<TxnSets> {
        let (_, sets) = self
            .sets
            .get_mut(client_of(txn))?
            .take_if(|(id, _)| *id == txn)?;
        if let Some(table) = &mut self.holders {
            for &key in sets.reads.iter().chain(&sets.writes) {
                if let Some(holders) = table.get_mut(key) {
                    holders.retain(|h| h.txn != txn);
                    if holders.is_empty() {
                        table.remove(key);
                    }
                }
            }
        }
        Some(sets)
    }

    /// Unregisters every transaction coordinated by `node`.
    pub(crate) fn remove_coordinated_by(&mut self, node: NodeId) {
        let doomed: Vec<TxnId> = self
            .sets
            .iter()
            .flatten()
            .map(|&(txn, _)| txn)
            .filter(|t| t.coordinator == node)
            .collect();
        for txn in doomed {
            self.remove(txn);
        }
    }

    /// A registered transaction's sets.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&TxnSets> {
        match self.sets.get(client_of(txn)) {
            Some(Some((id, sets))) if *id == txn => Some(sets),
            _ => None,
        }
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
            .as_ref()
            .and_then(|table| table.get(key))
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
        // The client's id in the high half of `seq` is what the registry
        // indexes by (`client_of`).
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
        let acks = AckSet(self.down_mask());
        self.nodes[home.index()].txn_rounds.insert(
            txn.seq,
            PendingTxnRound {
                txn,
                client,
                begin: true,
                acks,
                local_persisted: !needs_log_persist,
                local_persists_outstanding: 0,
                writes: 0,
            },
        );
        self.broadcast(ctx, home, &Message::InitX { txn }, RdmaKind::Send);
        self.schedule_retry(ctx, ctx.now(), home, Round::Txn(txn.seq), 1);
        if needs_log_persist {
            self.persist_txn_log(ctx, home, txn);
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
        // <Transactional, Synchronous>: the coordinator's own txn writes
        // persist now, bunched at the transaction end (paper Figure 4).
        let local_writes = std::mem::take(&mut self.cstate[client.index()].txn_writes);
        let outstanding = self.flush(ctx, home, local_writes, PersistPurpose::TxnEnd { txn });
        let acks = AckSet(self.down_mask());
        self.nodes[home.index()].txn_rounds.insert(
            txn.seq,
            PendingTxnRound {
                txn,
                client,
                begin: false,
                acks,
                local_persisted: true,
                local_persists_outstanding: outstanding,
                writes,
            },
        );
        self.broadcast(ctx, home, &Message::EndX { txn, writes }, RdmaKind::Send);
        self.schedule_retry(ctx, ctx.now(), home, Round::Txn(txn.seq), 1);
        self.try_complete_txn_round(ctx, home, txn.seq);
    }

    /// INITX at a follower.
    pub(crate) fn on_initx(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, txn: TxnId) {
        // A retransmitted INITX re-runs the (idempotent) log persist and
        // re-acknowledges; only the statistics note the duplicate.
        if self.faults_active && self.nodes[node.index()].txns.contains_key(&txn) {
            self.suppress_duplicate();
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
            self.persist_txn_log(ctx, node, txn);
        } else {
            self.send_ackx(ctx, node, txn, true);
        }
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
                    let remaining: Vec<Update> = ft
                        .writes
                        .iter()
                        .skip(ft.writes_persisted as usize)
                        .copied()
                        .collect();
                    if !remaining.is_empty() {
                        let n = self.flush(ctx, node, remaining, PersistPurpose::TxnEnd { txn });
                        self.nodes[node.index()]
                            .txns
                            .get_mut(&txn)
                            .expect("present above")
                            .endx_persists_outstanding = n;
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
            if !round.acks.credit(from) {
                self.suppress_duplicate();
                return;
            }
        }
        self.try_complete_txn_round(ctx, node, txn.seq);
    }

    /// Completion of a transaction's begin-log persist.
    pub(crate) fn txn_log_persist_done(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        txn: TxnId,
    ) {
        if node == txn.coordinator {
            if let Some(round) = self.nodes[node.index()].txn_rounds.get_mut(&txn.seq) {
                round.local_persisted = true;
            }
            self.try_complete_txn_round(ctx, node, txn.seq);
        } else {
            self.send_ackx(ctx, node, txn, true);
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
        if !self.all_acked(round.acks)
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
}

#[cfg(test)]
mod tests {
    use ddp_sim::SimRng;

    use super::*;

    const KEYS: u64 = 6;
    const COORDINATORS: u8 = 3;
    const CLIENTS: u32 = 8;

    /// The registered transactions, in no particular order.
    fn registered(reg: &TxnRegistry) -> impl Iterator<Item = &(TxnId, TxnSets)> {
        reg.sets.iter().flatten()
    }

    /// The conflict filter as a scan over every registered transaction's
    /// sets: the reference the per-key index must agree with.
    fn scan(reg: &TxnRegistry, me: TxnId, key: Key, is_write: bool) -> Vec<TxnId> {
        let mut found: Vec<TxnId> = registered(reg)
            .filter(|(id, sets)| {
                *id != me && (sets.writes.contains(&key) || (is_write && sets.reads.contains(&key)))
            })
            .map(|&(id, _)| id)
            .collect();
        found.sort();
        found
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
            let mut attempts = [0u64; CLIENTS as usize];
            // Never registered: a client with no attempts, and a stale id
            // of client 0, whose live attempt (if any) has another seq.
            let outsider = TxnId {
                coordinator: NodeId(COORDINATORS),
                seq: u64::from(CLIENTS) << 32,
            };
            let stale = TxnId {
                coordinator: NodeId(0),
                seq: 0,
            };
            for step in 0..1_000 {
                match rng.next_below(100) {
                    0..=24 => {
                        // Like the engine, a client begins an attempt only
                        // when it has none registered, and numbers it in
                        // the low half of the seq, under its own id.
                        let idle: Vec<u32> = (0..CLIENTS)
                            .filter(|&c| live.iter().all(|&t| client_of(t) != c as usize))
                            .collect();
                        if !idle.is_empty() {
                            let client = *rng.choose(&idle);
                            attempts[client as usize] += 1;
                            let txn = TxnId {
                                coordinator: NodeId(rng.next_below(u64::from(COORDINATORS)) as u8),
                                seq: (u64::from(client) << 32) | attempts[client as usize],
                            };
                            reg.begin(txn, client, rng.next_below(1_000));
                            live.push(txn);
                        }
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
                        let other = if rng.chance(0.5) { outsider } else { stale };
                        reg.record(other, rng.next_below(KEYS), rng.chance(0.5));
                        assert!(reg.get(other).is_none() && reg.remove(other).is_none());
                    }
                }
                assert_eq!(registered(&reg).count(), live.len(), "step {step}");
                for &txn in &live {
                    assert_eq!(
                        reg.get(txn).map(|s| s.client as usize),
                        Some(client_of(txn))
                    );
                }
                let mut probes = live.clone();
                probes.extend([outsider, stale]);
                assert_index_matches_scan(&reg, &probes, step);
            }
            for txn in live {
                reg.remove(txn);
            }
            assert_eq!(registered(&reg).count(), 0);
            let holders = reg.holders.as_ref().map_or(0, HashTable::len);
            assert_eq!(holders, 0, "seed {seed}: stale holders {:?}", reg.holders);
        }
    }
}
