//! Message arrival handlers for followers and coordinators.

use ddp_net::{NodeId, RdmaKind};
use ddp_sim::Context;
use ddp_trace::TraceEventKind;

use crate::cauhist::VectorClock;
use crate::message::{Message, ScopeId, TxnId, WriteId};
use crate::model::{Consistency, Persistency};

use super::write::ValAt;
use super::{BufferedUpd, Cluster, Event, PersistPurpose, Update};

/// A follower's acknowledgment of one write (paper Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteAck {
    /// ACK: the update is applied and durable here.
    Ack,
    /// ACK_c: the update is applied here.
    AckC,
    /// ACK_p: the update is durable here.
    AckP,
}

/// The acknowledgments a follower sends for one write it applied (see
/// [`Cluster::follower_acks`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FollowerAcks {
    /// Sent once the update is applied.
    pub on_apply: Option<WriteAck>,
    /// Sent once the follower's persist of the update completes.
    pub on_persist: Option<WriteAck>,
}

impl Cluster {
    /// Dispatches one delivered message.
    pub(crate) fn on_deliver(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, msg: Message) {
        match msg {
            Message::Inv {
                write,
                key,
                version,
                value_bytes,
                scope,
                txn,
            } => {
                let update = Update {
                    key,
                    version,
                    bytes: value_bytes,
                };
                self.on_inv(ctx, node, write, update, scope, txn);
            }
            Message::Upd {
                write,
                key,
                version,
                value_bytes,
                cauhist,
                persist_on_arrival,
                scope,
            } => self.on_upd(
                ctx,
                node,
                BufferedUpd {
                    write,
                    key,
                    version,
                    value_bytes,
                    cauhist: cauhist.unwrap_or_else(|| VectorClock::new(self.cfg.nodes as usize)),
                    persist_on_arrival,
                    scope,
                },
            ),
            Message::Ack { write, from } | Message::AckC { write, from } => {
                self.on_ack(ctx, node, write, from, false);
            }
            Message::AckP { write, from } => self.on_ack(ctx, node, write, from, true),
            // A node receives only its model's VAL, and applies it as the
            // coordinator did.
            Message::Val {
                write,
                key,
                version,
            }
            | Message::ValC {
                write,
                key,
                version,
            }
            | Message::ValP {
                write,
                key,
                version,
            } => self.apply_val(ctx, node, write, key, version, ValAt::Follower),
            Message::InitX { txn } => self.on_initx(ctx, node, txn),
            Message::EndX { txn, writes } => self.on_endx(ctx, node, txn, writes),
            Message::AckX { txn, begin, from } => self.on_ackx(ctx, node, txn, begin, from),
            Message::ValX { txn } => self.on_valx(ctx, node, txn),
            Message::Persist { scope } => self.on_persist_msg(ctx, node, scope),
            Message::AckScope { scope, from } => self.on_ack_scope(ctx, node, scope, from),
            Message::ValScope { scope } => self.on_val_scope(ctx, node, scope),
        }
    }

    /// INV(+data) at a follower: DDIO-inject the update, apply it to the
    /// volatile replica, then acknowledge and persist it per the model.
    fn on_inv(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        update: Update,
        scope: Option<ScopeId>,
        txn: Option<TxnId>,
    ) {
        let Update { key, version, .. } = update;
        let acks = self.follower_acks(txn.is_some());
        // Retransmitted INV: the apply is not repeated (it would re-arm
        // transient state a VAL may already have cleared); the follower
        // only re-acknowledges, in case the original ACK was lost. An ACK
        // that waits for the persist is re-sent only once the version is
        // durable here; otherwise the persist's completion sends it.
        if self.faults_active && !self.nodes[node.index()].seen_invs.insert(write) {
            self.suppress_duplicate();
            let durable = self.nodes[node.index()].store.state(key).local_persisted >= version;
            if let Some(ack) = acks.on_apply {
                self.send_write_ack(ctx, node, write, ack);
            }
            if let Some(ack) = acks.on_persist.filter(|_| durable) {
                self.send_write_ack(ctx, node, write, ack);
            }
            return;
        }

        let n = &mut self.nodes[node.index()];
        n.mem.ddio_inject(Self::addr(key));
        let st = n.store.state_mut(key);
        if version > st.visible {
            st.visible = version;
            st.value_bytes = update.bytes;
            st.visible_origin = write.coordinator.0;
        }
        // Hermes transient state: reads stall until the VAL under
        // Linearizable/Read-Enforced consistency. Transactional reads don't.
        let mut lease = false;
        if self.cons != Consistency::Transactional && version >= st.inflight_version {
            st.set_inflight(Some(write));
            st.inflight_version = version;
            lease = true;
        }
        if let Some(txn) = txn {
            let ft = n.txns.entry(txn).or_default();
            ft.writes_applied += 1;
            ft.writes.push(update);
        }
        if lease {
            self.schedule_transient_lease(ctx, node, key, write, version);
        }
        self.trace(ctx, TraceEventKind::ReplicaApply, node.0, key, version, 0);

        if let Some(ack) = acks.on_apply {
            self.send_write_ack(ctx, node, write, ack);
        }
        if !self.persists_at_endx(txn.is_some()) {
            // Only Strict persistency counts a transaction's persists
            // toward its ENDX; transactional writes join no scope buffer.
            let purpose = PersistPurpose::FollowerInv {
                write,
                txn: txn.filter(|_| self.pers == Persistency::Strict),
            };
            let scope = scope.filter(|_| txn.is_none());
            self.persist_applied(ctx, node, ctx.now(), update, purpose, scope);
        }
        if let Some(txn) = txn {
            self.check_endx_ready(ctx, node, txn);
        }
    }

    /// The ACKs a follower sends for one write it applied: the one rule
    /// behind the INV handler, a duplicate INV's re-acknowledgment, the
    /// persist completion and the coordinator's wait
    /// ([`Cluster::write_ack_needs`]).
    ///
    /// An ACK (Strict, Synchronous) certifies the apply and the persist, so
    /// it follows the persist; an ACK_c follows the apply and an ACK_p the
    /// persist (Read-Enforced). Scope and Eventual persistency acknowledge
    /// the apply only. Inside a transaction, Synchronous persistency
    /// persists at ENDX, so the write's ACK is an ACK_c. UPDs are one-way:
    /// only Strict persistency acknowledges them, with an ACK_p.
    pub(crate) fn follower_acks(&self, in_txn: bool) -> FollowerAcks {
        use WriteAck::{Ack, AckC, AckP};
        let (on_apply, on_persist) = if !self.cons.uses_inv_ack_val() {
            (None, (self.pers == Persistency::Strict).then_some(AckP))
        } else if self.persists_at_endx(in_txn) {
            (Some(AckC), None)
        } else {
            match self.pers {
                Persistency::Strict | Persistency::Synchronous => (None, Some(Ack)),
                Persistency::ReadEnforced => (Some(AckC), Some(AckP)),
                Persistency::Scope | Persistency::Eventual => (Some(AckC), None),
            }
        };
        FollowerAcks {
            on_apply,
            on_persist,
        }
    }

    /// Which acknowledgments gate a write at its coordinator: `(ACK or
    /// ACK_c, ACK_p)`, the ones its followers send.
    pub(crate) fn write_ack_needs(&self, in_txn: bool) -> (bool, bool) {
        let acks = self.follower_acks(in_txn);
        let sends = |ack| acks.on_apply == Some(ack) || acks.on_persist == Some(ack);
        (
            sends(WriteAck::Ack) || sends(WriteAck::AckC),
            sends(WriteAck::AckP),
        )
    }

    /// Whether a write's persists wait for its transaction's end: under
    /// `<Transactional, Synchronous>` a transaction's writes persist
    /// together at ENDX (paper Figure 4).
    pub(crate) fn persists_at_endx(&self, in_txn: bool) -> bool {
        in_txn && self.pers == Persistency::Synchronous
    }

    /// Sends one follower acknowledgment of `write` to its coordinator.
    pub(crate) fn send_write_ack(
        &mut self,
        ctx: &mut Context<'_, Event>,
        from: NodeId,
        write: WriteId,
        ack: WriteAck,
    ) {
        let msg = match ack {
            WriteAck::Ack => Message::Ack { write, from },
            WriteAck::AckC => Message::AckC { write, from },
            WriteAck::AckP => Message::AckP { write, from },
        };
        self.send(ctx, from, write.coordinator, msg, RdmaKind::Send);
    }

    /// UPD(+cauhist) at a follower (Causal/Eventual consistency).
    pub(crate) fn on_upd(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, upd: BufferedUpd) {
        if self.cons == Consistency::Eventual {
            // Eventual: apply in arrival order, unconditionally.
            self.apply_upd(ctx, node, upd);
            return;
        }
        // Causal: apply only once the happens-before history is in place;
        // buffer otherwise (paper Figure 2(f)).
        if self.nodes[node.index()].applied_vc.dominates(&upd.cauhist) {
            self.apply_upd(ctx, node, upd);
            self.drain_upd_buffer(ctx, node);
        } else {
            self.nodes[node.index()].upd_buffer.push(upd);
            self.causal_held += 1;
            self.update_buffer_gauge(ctx.now());
        }
    }

    /// Applies one UPD to the volatile replica and schedules its persist.
    fn apply_upd(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, upd: BufferedUpd) {
        let origin = upd.write.coordinator;
        let n = &mut self.nodes[node.index()];
        n.mem.ddio_inject(Self::addr(upd.key));
        let st = n.store.state_mut(upd.key);
        if self.cons == Consistency::Eventual {
            // Arrival order wins (naive eventual consistency).
            st.visible = upd.version;
            st.value_bytes = upd.value_bytes;
            st.visible_origin = origin.0;
        } else if upd.version > st.visible {
            st.visible = upd.version;
            st.value_bytes = upd.value_bytes;
            st.visible_origin = origin.0;
            // A causal write's own sequence is one past its history's own
            // component.
            st.visible_seq = upd.cauhist.get(origin.index()) + 1;
        }
        if self.cons == Consistency::Causal {
            let cs = upd.cauhist.get(origin.index()) + 1;
            let prev = n.applied_vc.get(origin.index());
            n.applied_vc.set(origin.index(), prev.max(cs));
        }
        self.trace(
            ctx,
            TraceEventKind::ReplicaApply,
            node.0,
            upd.key,
            upd.version,
            0,
        );

        // Strict persistency pushes the update persistent: the
        // coordinator waits for this persist's ACK_p.
        let purpose = if upd.persist_on_arrival {
            PersistPurpose::FollowerInv {
                write: upd.write,
                txn: None,
            }
        } else {
            PersistPurpose::CausalApply { origin }
        };
        let update = Update {
            key: upd.key,
            version: upd.version,
            bytes: upd.value_bytes,
        };
        self.persist_applied(ctx, node, ctx.now(), update, purpose, upd.scope);
        self.wake_reads(ctx, node, upd.key);
    }

    /// Applies every buffered UPD whose causal history is now satisfied,
    /// repeating until a fixed point.
    fn drain_upd_buffer(&mut self, ctx: &mut Context<'_, Event>, node: NodeId) {
        loop {
            let idx = {
                let n = &self.nodes[node.index()];
                n.upd_buffer
                    .iter()
                    .position(|u| n.applied_vc.dominates(&u.cauhist))
            };
            match idx {
                Some(i) => {
                    let upd = self.nodes[node.index()].upd_buffer.swap_remove(i);
                    self.causal_held -= 1;
                    self.update_buffer_gauge(ctx.now());
                    self.apply_upd(ctx, node, upd);
                }
                None => break,
            }
        }
    }

    /// ACK / ACK_c / ACK_p at the coordinator.
    fn on_ack(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        from: NodeId,
        is_p: bool,
    ) {
        debug_assert_eq!(node, write.coordinator, "ACK must reach the coordinator");
        let Some(pw) = self.nodes[node.index()].pending.get_mut(&write.seq) else {
            return;
        };
        let acks = if is_p { &mut pw.acks_p } else { &mut pw.acks };
        if !acks.credit(from) {
            self.suppress_duplicate();
            return;
        }
        self.try_progress_write(ctx, node, write.seq);
    }
}
