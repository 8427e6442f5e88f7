//! The coordinator write path.
//!
//! On a client write the coordinator updates its local cache, then — per the
//! consistency model — broadcasts INV(+data) and collects ACKs, or sends
//! one-way UPD(+cauhist) messages. The persistency model decides when the
//! update is pushed to NVM and whether the write's completion waits for it.

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::{Context, Duration, SimTime};
use ddp_trace::TraceEventKind;
use ddp_workload::{ClientId, Request};

use crate::message::{Message, ScopeId, TxnId, WriteId};
use crate::model::{Consistency, Persistency};

use super::{
    AckSet, ChainedPersist, Cluster, Event, PendingWrite, PersistCtx, PersistPurpose, QueuedWrite,
    Round,
};

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
            val_p_sent: false,
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
            let (needs_c, needs_p) = self.write_ack_needs();
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

    /// Issues (or defers) the coordinator-local persist of a new write.
    fn schedule_local_persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        home: NodeId,
        seq: u64,
        applied_at: SimTime,
    ) {
        let (cons, pers) = (self.cons, self.pers);
        let epoch = self.node_epoch[home.index()];
        let (key, version, bytes) = {
            let pw = self.nodes[home.index()]
                .pending
                .get(&seq)
                .expect("just inserted");
            (pw.key, pw.version, pw.value_bytes)
        };
        let purpose = PersistPurpose::WriteLocal { seq };
        match pers {
            Persistency::Synchronous | Persistency::Strict => {
                if cons == Consistency::Transactional && pers == Persistency::Synchronous {
                    // <Transactional, Synchronous> defers all persists to the
                    // transaction end (paper Figure 4): record for ENDX.
                    let (client, txn) = {
                        let pw = self.nodes[home.index()]
                            .pending
                            .get_mut(&seq)
                            .expect("just inserted");
                        pw.local_persisted = true;
                        (
                            pw.client,
                            pw.txn.expect("transactional write carries its txn"),
                        )
                    };
                    self.note_txn_local_write(client, txn, key, version, bytes);
                } else if cons == Consistency::Causal {
                    // Causal: persists must respect the happens-before order,
                    // so they chain per origin (here: our own chain).
                    self.enqueue_chained_persist(
                        ctx,
                        home,
                        home,
                        ChainedPersist {
                            key,
                            version,
                            bytes,
                            purpose,
                        },
                    );
                } else {
                    self.issue_persist(
                        ctx,
                        home,
                        applied_at,
                        Self::addr(key),
                        u64::from(bytes),
                        PersistCtx {
                            key,
                            version,
                            purpose,
                            epoch,
                        },
                        true,
                    );
                }
            }
            Persistency::ReadEnforced => {
                self.issue_persist(
                    ctx,
                    home,
                    applied_at,
                    Self::addr(key),
                    u64::from(bytes),
                    PersistCtx {
                        key,
                        version,
                        purpose,
                        epoch,
                    },
                    true,
                );
            }
            Persistency::Scope => {
                let scope = {
                    let pw = self.nodes[home.index()]
                        .pending
                        .get_mut(&seq)
                        .expect("just inserted");
                    pw.local_persisted = true; // durability settled at scope end
                    pw.scope.expect("scoped write carries its scope")
                };
                self.nodes[home.index()]
                    .scopes
                    .entry(scope)
                    .or_default()
                    .writes
                    .push((key, version, bytes));
            }
            Persistency::Eventual => {
                self.nodes[home.index()]
                    .pending
                    .get_mut(&seq)
                    .expect("just inserted")
                    .local_persisted = true; // never gates anything
                self.lazy_pending += 1;
                self.update_buffer_gauge(ctx.now());
                let fire = applied_at + self.cfg.lazy_persist_delay;
                ctx.schedule_at(
                    fire,
                    Event::LazyPersist(
                        home,
                        super::LazyPersistCtx {
                            key,
                            version,
                            bytes,
                            epoch,
                        },
                    ),
                );
            }
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

    /// Whether the model validates each write with its own VAL (VAL_c,
    /// VAL_p): the INV-based models, except Transactional consistency,
    /// which validates at ENDX unless its persistency is Read-Enforced.
    fn per_write_vals(&self) -> bool {
        self.cons.uses_inv_ack_val()
            && (self.cons != Consistency::Transactional || self.pers == Persistency::ReadEnforced)
    }

    /// True once no later event can act on a pending write: the client is
    /// acknowledged, the model's VAL (VAL_c, VAL_p) has gone out, and under
    /// Eventual consistency below Strict persistency the delayed UPD has
    /// fired (its handler reads the entry). Later ACKs and local-persist
    /// completions find nothing left to do.
    pub(crate) fn write_finished(&self, pw: &PendingWrite) -> bool {
        let val_done = if !self.per_write_vals() {
            true
        } else if self.pers == Persistency::ReadEnforced {
            pw.val_p_sent
        } else {
            pw.val_sent
        };
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
        let (val_sent, val_p_sent, client_acked, abandoned) =
            (pw.val_sent, pw.val_p_sent, pw.client_acked, pw.abandoned);
        let (key, version, write, client, issued_at) =
            (pw.key, pw.version, pw.write, pw.client, pw.issued_at);
        let earliest = pw.earliest_complete;
        let txn = pw.txn;

        // --- VAL stage (INV-based consistency models only). ---
        if self.per_write_vals() {
            match pers {
                Persistency::Synchronous | Persistency::Strict => {
                    if !val_sent && acked && local_persisted {
                        self.emit_val(
                            ctx,
                            home,
                            seq,
                            Message::Val {
                                write,
                                key,
                                version,
                            },
                        );
                    }
                }
                Persistency::ReadEnforced => {
                    if !val_p_sent && acked_p && local_persisted {
                        self.emit_val_p(
                            ctx,
                            home,
                            seq,
                            Message::ValP {
                                write,
                                key,
                                version,
                            },
                        );
                    }
                }
                Persistency::Scope | Persistency::Eventual => {
                    if !val_sent && acked {
                        self.emit_val(
                            ctx,
                            home,
                            seq,
                            Message::ValC {
                                write,
                                key,
                                version,
                            },
                        );
                    }
                }
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

    /// Sends VAL/VAL_c for a write, applying the coordinator-local state
    /// changes a follower would make on receiving it.
    fn emit_val(&mut self, ctx: &mut Context<'_, Event>, home: NodeId, seq: u64, msg: Message) {
        let combined = matches!(msg, Message::Val { .. });
        let (key, version, write) = {
            let pw = self.nodes[home.index()]
                .pending
                .get_mut(&seq)
                .expect("caller checked");
            pw.val_sent = true;
            (pw.key, pw.version, pw.write)
        };
        self.broadcast(ctx, home, &msg, RdmaKind::Send);
        let st = self.nodes[home.index()].store.state_mut(key);
        st.global_visible = st.global_visible.max(version);
        if combined {
            st.global_persisted = st.global_persisted.max(version);
        }
        if st.inflight() == Some(write) {
            st.set_inflight(None);
        }
        self.wake_reads(ctx, home, key);
        self.pop_queued_write(ctx, home, key);
    }

    /// Sends VAL_p, the durability validation of Read-Enforced persistency.
    fn emit_val_p(&mut self, ctx: &mut Context<'_, Event>, home: NodeId, seq: u64, msg: Message) {
        let (key, version, write) = {
            let pw = self.nodes[home.index()]
                .pending
                .get_mut(&seq)
                .expect("caller checked");
            pw.val_p_sent = true;
            (pw.key, pw.version, pw.write)
        };
        self.broadcast(ctx, home, &msg, RdmaKind::Send);
        let st = self.nodes[home.index()].store.state_mut(key);
        st.global_visible = st.global_visible.max(version);
        st.global_persisted = st.global_persisted.max(version);
        if st.inflight() == Some(write) {
            st.set_inflight(None);
        }
        self.wake_reads(ctx, home, key);
        self.pop_queued_write(ctx, home, key);
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

    /// Enqueues a persist on a per-origin causal chain; starts it if the
    /// chain is idle.
    pub(crate) fn enqueue_chained_persist(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        origin: NodeId,
        entry: ChainedPersist,
    ) {
        let n = &mut self.nodes[node.index()];
        n.persist_chains[origin.index()].push_back(entry);
        self.update_buffer_gauge(ctx.now());
        self.advance_chain(ctx, node, origin);
    }

    /// Starts the next persist of a chain if none is in flight.
    pub(crate) fn advance_chain(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        origin: NodeId,
    ) {
        let epoch = self.node_epoch[node.index()];
        let entry = {
            let n = &mut self.nodes[node.index()];
            if n.chain_busy[origin.index()] {
                return;
            }
            let Some(entry) = n.persist_chains[origin.index()].pop_front() else {
                return;
            };
            n.chain_busy[origin.index()] = true;
            entry
        };
        self.issue_persist(
            ctx,
            node,
            ctx.now(),
            Self::addr(entry.key),
            u64::from(entry.bytes),
            PersistCtx {
                key: entry.key,
                version: entry.version,
                purpose: entry.purpose,
                epoch,
            },
            true,
        );
        self.update_buffer_gauge(ctx.now());
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
