//! The coordinator write path.
//!
//! On a client write the coordinator updates its local cache, then — per the
//! consistency model — broadcasts INV(+data) and collects ACKs, or sends
//! one-way UPD(+cauhist) messages. The persistency model decides when the
//! update is pushed to NVM and whether the write's completion waits for it.

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::{Context, Duration, SimTime};
use ddp_store::Key;
use ddp_trace::TraceEventKind;
use ddp_workload::{ClientId, Request};

use crate::message::{Message, ScopeId, TxnId, WriteId};
use crate::model::{Consistency, Persistency};

use super::{AckSet, Cluster, Event, PendingWrite, PersistPurpose, QueuedWrite, Round, Update};

/// The VAL a coordinator sends once one of its writes settles (paper
/// Table 3); see [`Cluster::write_val`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteVal {
    /// VAL: visible and durable everywhere (Strict and Synchronous
    /// persistency), once every combined ACK and the local persist are in.
    Val,
    /// VAL_c: visible everywhere (Scope and Eventual persistency), once
    /// every ACK_c is in.
    ValC,
    /// VAL_p: durable everywhere (Read-Enforced persistency), once every
    /// ACK_p and the local persist are in.
    ValP,
}

/// Where a per-write VAL takes effect (see [`Cluster::apply_val`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ValAt {
    /// At the coordinator, as it sends the VAL. It starts the key's next
    /// queued write even when a remote INV has made the key transient
    /// again, where a follower waits; this breaks the per-key
    /// serialization of paper §5.2 and is kept until the Linearizable
    /// rows are revisited.
    Coordinator,
    /// At a follower, on the VAL's arrival.
    Follower,
    /// At a follower whose transient lease expired. It validates only a
    /// version the node has applied, acts only while the write is
    /// unsettled there (its transient set, or the version not yet
    /// validated visible and durable everywhere), and counts as an
    /// expiration only if it changed some state.
    Lease,
}

impl Cluster {
    /// Entry point for a client write at its coordinator.
    pub(crate) fn start_write(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
        txn: Option<TxnId>,
        scope: Option<ScopeId>,
    ) {
        let home = self.home_of(client);
        // A Linearizable coordinator cannot process another request on a key
        // with a write in progress (paper §5.2): queue behind it.
        if self.cons == Consistency::Linearizable {
            let st = self.nodes[home.index()].store.state(request.key);
            if st.is_transient() {
                self.nodes[home.index()]
                    .waiting_writes
                    .entry(request.key)
                    .or_default()
                    .push_back(QueuedWrite {
                        client,
                        request,
                        issued_at,
                        queued_at: ctx.now(),
                        txn,
                        scope,
                    });
                return;
            }
        }
        self.begin_write_round(ctx, home, client, request, issued_at, 0, txn, scope);
    }

    /// Starts the protocol round for one write. `queued_ns` is the time the
    /// write spent serialized behind a same-key predecessor (zero unless it
    /// came through [`Cluster::pop_queued_write`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "one write round's origin, request, timing and scope"
    )]
    pub(crate) fn begin_write_round(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
        queued_ns: u64,
        txn: Option<TxnId>,
        scope: Option<ScopeId>,
    ) {
        let version = self.next_version();
        let key = request.key;
        let bytes = request.value_bytes;
        let addr = Self::addr(key);
        let down = AckSet(self.down_mask());
        let (cons, pers) = (self.cons, self.pers);

        let node = &mut self.nodes[home.index()];
        let seq = node.next_seq;
        node.next_seq += 1;
        let write = WriteId {
            coordinator: home,
            seq,
        };

        // Local volatile apply.
        let apply_lat = node.mem.volatile_access(addr);
        let applied_at = ctx.now() + apply_lat;

        // Causal bookkeeping: the write's history is everything this node
        // has seen so far; its own slot advances by one.
        let cauhist = if cons == Consistency::Causal {
            let hist = node.history_vc.clone();
            let cs = node.history_vc.get(home.index()) + 1;
            node.history_vc.set(home.index(), cs);
            node.applied_vc.set(home.index(), cs);
            Some((hist, cs))
        } else {
            None
        };

        let st = node.store.state_mut(key);
        st.visible = version;
        st.value_bytes = bytes;
        st.visible_origin = home.0;
        if let Some((_, cs)) = &cauhist {
            st.visible_seq = *cs;
        }
        // Transactional reads never stall on transients; others do.
        if cons.uses_inv_ack_val() && cons != Consistency::Transactional {
            st.set_inflight(Some(write));
            st.inflight_version = version;
        }

        let inflight_set = st.inflight() == Some(write);
        let pw = PendingWrite {
            write,
            key,
            version,
            value_bytes: bytes,
            client,
            issued_at,
            exec_at: ctx.now(),
            queued_ns,
            cons_ok_at: None,
            pers_ok_at: None,
            earliest_complete: applied_at,
            acks: down,
            acks_p: down,
            local_applied: true,
            local_persisted: false,
            client_acked: false,
            val_sent: false,
            lazy_upd_sent: false,
            abandoned: false,
            txn,
            scope,
            cauhist: cauhist.as_ref().map(|(hist, _)| hist.clone()),
        };
        node.pending.insert(seq, pw);

        // Lifecycle: the write's Visibility Point is the local apply
        // instant. Recorded unconditionally (not just when measuring) so a
        // Durability Point landing inside the measured window still finds
        // the VP of a write issued during warm-up.
        self.lifecycle.visible(version, key, applied_at.as_nanos());
        self.trace(ctx, TraceEventKind::WriteIssue, home.0, key, version, 0);
        self.trace_at(
            ctx,
            applied_at,
            TraceEventKind::WriteVp,
            home.0,
            key,
            version,
            0,
        );

        // Propagate to the replicas.
        match cons {
            Consistency::Linearizable | Consistency::ReadEnforced | Consistency::Transactional => {
                let msg = Message::Inv {
                    write,
                    key,
                    version,
                    value_bytes: bytes,
                    scope,
                    txn,
                };
                let kind = if pers == Persistency::Strict {
                    RdmaKind::WritePersistent
                } else {
                    RdmaKind::WriteVolatile
                };
                self.broadcast_at(ctx, applied_at, home, &msg, kind);
            }
            Consistency::Causal => {
                let (hist, _) = cauhist.expect("computed above for causal");
                let msg = Message::Upd {
                    write,
                    key,
                    version,
                    value_bytes: bytes,
                    cauhist: Some(hist),
                    persist_on_arrival: pers == Persistency::Strict,
                    scope,
                };
                let kind = if pers == Persistency::Strict {
                    RdmaKind::WritePersistent
                } else {
                    RdmaKind::WriteVolatile
                };
                self.broadcast_at(ctx, applied_at, home, &msg, kind);
            }
            Consistency::Eventual => {
                if pers == Persistency::Strict {
                    // Strict persistency cannot wait for the lazy flush: the
                    // write only completes once every replica has persisted.
                    let msg = Message::Upd {
                        write,
                        key,
                        version,
                        value_bytes: bytes,
                        cauhist: None,
                        persist_on_arrival: true,
                        scope,
                    };
                    self.broadcast_at(ctx, applied_at, home, &msg, RdmaKind::WritePersistent);
                } else {
                    let fire = applied_at + self.cfg.lazy_propagation_delay;
                    ctx.schedule_at(fire, Event::LazyPropagate(home, seq));
                }
            }
        }

        // Fault nets: an ACK-timeout retransmission chain for rounds that
        // collect acknowledgments, and a transient lease on the
        // coordinator's own transient entry.
        if self.faults_active {
            let (needs_c, needs_p) = self.write_ack_needs(txn.is_some());
            if needs_c || needs_p {
                self.schedule_retry(ctx, applied_at, home, Round::Write(seq), 1);
            }
            if inflight_set {
                self.schedule_transient_lease(ctx, home, key, write, version);
            }
        }

        // Local durability.
        self.schedule_local_persist(ctx, home, seq, applied_at);
        self.update_buffer_gauge(ctx.now());
        self.try_progress_write(ctx, home, seq);
    }

    /// Persists the coordinator's own copy of a new write, or leaves it to
    /// the transaction's end.
    fn schedule_local_persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        seq: u64,
        applied_at: SimTime,
    ) {
        let pw = &self.nodes[home.index()].pending[&seq];
        let update = Update {
            key: pw.key,
            version: pw.version,
            bytes: pw.value_bytes,
        };
        let (client, in_txn, scope) = (pw.client, pw.txn.is_some(), pw.scope);
        let issued = if self.persists_at_endx(in_txn) {
            self.cstate[client.index()].txn_writes.push(update);
            false
        } else {
            let purpose = PersistPurpose::WriteLocal { seq };
            self.persist_applied(ctx, home, applied_at, update, purpose, scope)
        };
        if !issued {
            // Durability is settled at the transaction's or the scope's
            // end, or never gates anything (Eventual persistency).
            let pw = self.nodes[home.index()].pending.get_mut(&seq);
            pw.expect("just inserted").local_persisted = true;
        }
    }

    /// Fires a delayed Eventual-consistency UPD broadcast.
    pub(crate) fn on_lazy_propagate(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        seq: u64,
    ) {
        let Some(pw) = self.nodes[home.index()].pending.get_mut(&seq) else {
            return;
        };
        pw.lazy_upd_sent = true;
        let msg = Message::Upd {
            write: pw.write,
            key: pw.key,
            version: pw.version,
            value_bytes: pw.value_bytes,
            cauhist: None,
            persist_on_arrival: false,
            scope: pw.scope,
        };
        self.broadcast(ctx, home, &msg, RdmaKind::WriteVolatile);
        self.retire_if_finished(home, seq);
    }

    /// The VAL a coordinator sends for each of its writes, if any: the
    /// INV-based models send one, except Transactional consistency, which
    /// validates at ENDX unless its persistency is Read-Enforced.
    pub(crate) fn write_val(&self) -> Option<WriteVal> {
        if !self.cons.uses_inv_ack_val()
            || (self.cons == Consistency::Transactional && self.pers != Persistency::ReadEnforced)
        {
            return None;
        }
        Some(match self.pers {
            Persistency::Strict | Persistency::Synchronous => WriteVal::Val,
            Persistency::ReadEnforced => WriteVal::ValP,
            Persistency::Scope | Persistency::Eventual => WriteVal::ValC,
        })
    }

    /// True once no later event can act on a pending write: the client is
    /// acknowledged, the model's VAL (VAL_c, VAL_p) has gone out, and under
    /// Eventual consistency below Strict persistency the delayed UPD has
    /// fired (its handler reads the entry). Later ACKs and local-persist
    /// completions find nothing left to do.
    pub(crate) fn write_finished(&self, pw: &PendingWrite) -> bool {
        let val_done = self.write_val().is_none() || pw.val_sent;
        let upd_done = self.cons != Consistency::Eventual
            || self.pers == Persistency::Strict
            || pw.lazy_upd_sent;
        pw.client_acked && val_done && upd_done
    }

    /// Drops a finished write from its coordinator's pending map, so the
    /// map holds only writes in flight. Fault runs keep every write:
    /// retransmission, crash absorption and the duplicate-ACK count read
    /// finished writes.
    fn retire_if_finished(&mut self, home: NodeId, seq: u64) {
        if self.faults_active {
            return;
        }
        let pending = &self.nodes[home.index()].pending;
        if pending.get(&seq).is_some_and(|pw| self.write_finished(pw)) {
            self.nodes[home.index()].pending.remove(&seq);
        }
    }

    /// Re-evaluates a pending write after any contributing event: sends VAL
    /// messages and acknowledges the client when its conditions are met.
    pub(crate) fn try_progress_write(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        seq: u64,
    ) {
        let (cons, pers) = (self.cons, self.pers);
        let Some(pw) = self.nodes[home.index()].pending.get(&seq) else {
            return;
        };
        let (acked, acked_p) = (self.all_acked(pw.acks), self.all_acked(pw.acks_p));
        let (local_applied, local_persisted) = (pw.local_applied, pw.local_persisted);
        let (val_sent, client_acked, abandoned) = (pw.val_sent, pw.client_acked, pw.abandoned);
        let (key, version, client, issued_at) = (pw.key, pw.version, pw.client, pw.issued_at);
        let earliest = pw.earliest_complete;
        let txn = pw.txn;

        // --- VAL stage (INV-based consistency models only). ---
        if let Some(val) = self.write_val() {
            let settled = match val {
                WriteVal::Val => acked && local_persisted,
                WriteVal::ValC => acked,
                WriteVal::ValP => acked_p && local_persisted,
            };
            if settled && !val_sent {
                self.send_val(ctx, home, seq, val);
            }
        }

        // --- Client acknowledgment stage. ---
        let cons_ok = match cons {
            Consistency::Linearizable => acked,
            _ => true,
        };
        let pers_ok = match (cons, pers) {
            (Consistency::Linearizable, Persistency::Synchronous | Persistency::Strict) => {
                local_persisted
            }
            (_, Persistency::Strict) => acked_p && local_persisted,
            _ => true,
        };
        // Strict persistency over INV-based models acks through the combined
        // ACK (persist-inclusive), so `acks` already certifies durability.
        let pers_ok = if cons.uses_inv_ack_val() && pers == Persistency::Strict {
            acked && local_persisted
        } else {
            pers_ok
        };

        // Phase attribution: note the first instant each completion
        // condition held (clamped to the local-apply time, below which the
        // write could not have completed anyway).
        {
            let pw = self.nodes[home.index()]
                .pending
                .get_mut(&seq)
                .expect("present above");
            if cons_ok && pw.cons_ok_at.is_none() {
                pw.cons_ok_at = Some(ctx.now().max(earliest));
            }
            if pers_ok && pw.pers_ok_at.is_none() {
                pw.pers_ok_at = Some(ctx.now().max(earliest));
            }
        }

        if local_applied && cons_ok && pers_ok && !client_acked {
            let t_done = ctx.now().max(earliest);
            let (exec_at, queued_ns, cons_at, pers_at) = {
                let node = &mut self.nodes[home.index()];
                let pw = node.pending.get_mut(&seq).expect("present above");
                pw.client_acked = true;
                (
                    pw.exec_at,
                    pw.queued_ns,
                    pw.cons_ok_at.unwrap_or(t_done),
                    pw.pers_ok_at.unwrap_or(t_done),
                )
            };
            if self.measuring && !abandoned {
                let queue = Duration::from_nanos(queued_ns);
                // Service: issue to round start, minus time spent queued.
                let service = exec_at.saturating_since(issued_at).saturating_sub(queue);
                // Network: local apply (VP) to consistency satisfaction.
                let network = cons_at.saturating_since(earliest);
                // Persist stall: extra wait for durability beyond that.
                let persist_stall = pers_at.saturating_since(cons_at.max(earliest));
                self.stats
                    .phase
                    .record_write(service, queue, network, persist_stall);
                if let Some(w) = self.timeline.window(t_done.as_nanos()) {
                    w.service_ns += service.as_nanos();
                    w.queue_ns += queue.as_nanos();
                    w.network_ns += network.as_nanos();
                    w.persist_stall_ns += persist_stall.as_nanos();
                }
            }
            if !abandoned {
                if txn.is_some() {
                    self.txn_note_complete(ctx, client, false, t_done, key, version);
                } else {
                    self.complete_request(
                        ctx, client, false, issued_at, t_done, key, version, home,
                    );
                }
            }
        }
        self.retire_if_finished(home, seq);
    }

    /// Sends a write's VAL and applies it at the coordinator.
    fn send_val(&mut self, ctx: &mut Context<'_, Event>, home: NodeId, seq: u64, val: WriteVal) {
        let pw = self.nodes[home.index()]
            .pending
            .get_mut(&seq)
            .expect("caller checked");
        pw.val_sent = true;
        let (write, key, version) = (pw.write, pw.key, pw.version);
        let msg = match val {
            WriteVal::Val => Message::Val {
                write,
                key,
                version,
            },
            WriteVal::ValC => Message::ValC {
                write,
                key,
                version,
            },
            WriteVal::ValP => Message::ValP {
                write,
                key,
                version,
            },
        };
        self.broadcast(ctx, home, &msg, RdmaKind::Send);
        self.apply_val(ctx, home, write, key, version, ValAt::Coordinator);
    }

    /// Applies the model's per-write VAL of `write` at `node`, the same
    /// effect at the coordinator that sends it, at a follower that receives
    /// it and at a follower whose transient lease stands in for it: the
    /// version becomes visible everywhere, and durable everywhere if the
    /// VAL certifies durability (VAL and VAL_p, not VAL_c); the node's
    /// transient for the write clears; blocked reads re-check; and the
    /// key's next queued write starts.
    pub(crate) fn apply_val(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        key: Key,
        version: u64,
        at: ValAt,
    ) {
        let durable = self.write_val().is_some_and(|val| val != WriteVal::ValC);
        let st = self.nodes[node.index()].store.state_mut(key);
        let ours = st.inflight() == Some(write);
        let validates = at != ValAt::Lease || st.visible >= version;
        let unsettled =
            ours || (validates && (st.global_visible < version || st.global_persisted < version));
        let mut changed = ours;
        if ours {
            st.set_inflight(None);
        }
        if validates {
            if st.global_visible < version {
                st.global_visible = version;
                changed = true;
            }
            if durable && st.global_persisted < version {
                st.global_persisted = version;
                changed = true;
            }
        }
        if at == ValAt::Lease {
            if !unsettled {
                return;
            }
            if changed && self.measuring {
                self.stats.transient_expirations += 1;
            }
        }
        if self.faults_active {
            // The write is settled: forget its duplicate-suppression entry.
            self.nodes[node.index()].seen_invs.remove(&write);
        }
        self.wake_reads(ctx, node, key);
        if at == ValAt::Coordinator || !self.nodes[node.index()].store.state(key).is_transient() {
            self.pop_queued_write(ctx, node, key);
        }
    }

    /// Starts the next queued write on a key once its predecessor validates.
    pub(crate) fn pop_queued_write(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        key: ddp_store::Key,
    ) {
        let Some(queue) = self.nodes[home.index()].waiting_writes.get_mut(&key) else {
            return;
        };
        let Some(qw) = queue.pop_front() else {
            return;
        };
        if queue.is_empty() {
            self.nodes[home.index()].waiting_writes.remove(&key);
        }
        let queued_ns = ctx.now().saturating_since(qw.queued_at).as_nanos();
        self.begin_write_round(
            ctx,
            home,
            qw.client,
            qw.request,
            qw.issued_at,
            queued_ns,
            qw.txn,
            qw.scope,
        );
    }

    /// Broadcast helper that stamps the send at `when` (e.g. after the local
    /// cache apply) rather than the current event time.
    pub(crate) fn broadcast_at(
        &mut self,
        ctx: &mut Context<'_, Event>,
        when: SimTime,
        from: NodeId,
        msg: &Message,
        kind: RdmaKind,
    ) {
        let when = when.max(ctx.now());
        for to in (0..self.cfg.nodes).map(NodeId).filter(|&n| n != from) {
            self.send_at(ctx, when, from, to, msg.clone(), kind);
        }
    }
}
