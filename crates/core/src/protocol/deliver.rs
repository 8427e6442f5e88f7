//! Message arrival handlers for followers and coordinators.

use ddp_net::NodeId;
use ddp_sim::Context;
use ddp_trace::TraceEventKind;

use crate::cauhist::VectorClock;
use crate::message::{Message, ScopeId, WriteId};
use crate::model::{Consistency, Persistency};

use super::{BufferedUpd, ChainedPersist, Cluster, Event, PersistCtx, PersistPurpose};

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
            } => self.on_inv(ctx, node, write, key, version, value_bytes, scope, txn),
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
            Message::Ack { write, from } => self.on_ack(ctx, node, write, from, false, true),
            Message::AckC { write, from } => self.on_ack(ctx, node, write, from, false, false),
            Message::AckP { write, from } => self.on_ack(ctx, node, write, from, true, false),
            Message::Val {
                write,
                key,
                version,
            } => self.on_val(ctx, node, write, key, version, true, true),
            Message::ValC {
                write,
                key,
                version,
            } => {
                self.on_val(ctx, node, write, key, version, true, false);
            }
            Message::ValP {
                write,
                key,
                version,
            } => {
                self.on_val(ctx, node, write, key, version, true, true);
            }
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
    /// volatile replica, then acknowledge per the persistency model.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one INV message, unpacked by the dispatcher"
    )]
    fn on_inv(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        key: ddp_store::Key,
        version: u64,
        value_bytes: u32,
        scope: Option<ScopeId>,
        txn: Option<crate::message::TxnId>,
    ) {
        // Retransmitted INV: the apply is not repeated (it would re-arm
        // transient state a VAL may already have cleared); the follower
        // only re-acknowledges, in case the original ACK was lost.
        if self.faults_active && !self.nodes[node.index()].seen_invs.insert(write) {
            if self.measuring {
                self.stats.duplicates_suppressed += 1;
            }
            self.re_ack_inv(ctx, node, write, key, version, txn.is_some());
            return;
        }

        let n = &mut self.nodes[node.index()];
        n.mem.ddio_inject(Self::addr(key));
        let st = n.store.state_mut(key);
        if version > st.visible {
            st.visible = version;
            st.value_bytes = value_bytes;
            st.visible_origin = write.coordinator.0;
        }
        // Hermes transient state: reads stall until the VAL under
        // Linearizable/Read-Enforced consistency. Transactional reads don't.
        let mut lease = false;
        if self.cons != Consistency::Transactional && version >= st.inflight_version {
            st.inflight = Some(write);
            st.inflight_version = version;
            lease = true;
        }
        if lease {
            self.schedule_transient_lease(ctx, node, key, write, version);
        }
        self.trace(ctx, TraceEventKind::ReplicaApply, node.0, key, version, 0);

        if let Some(txn_id) = txn {
            self.follower_txn_write(ctx, node, txn_id, write, key, version, value_bytes);
            return;
        }

        let epoch = self.node_epoch[node.index()];
        match self.pers {
            Persistency::Synchronous | Persistency::Strict => {
                // Persist first; the combined ACK follows from the persist
                // completion handler.
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
            Persistency::ReadEnforced => {
                let coord = write.coordinator;
                self.send_ack_c(ctx, node, coord, write);
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
                let coord = write.coordinator;
                self.send_ack_c(ctx, node, coord, write);
                let scope = scope.expect("scoped INV carries its scope");
                self.nodes[node.index()]
                    .scopes
                    .entry(scope)
                    .or_default()
                    .writes
                    .push((key, version, value_bytes));
            }
            Persistency::Eventual => {
                let coord = write.coordinator;
                self.send_ack_c(ctx, node, coord, write);
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
    }

    /// Re-acknowledges a duplicate INV per the model's ACK discipline: the
    /// coordinator is retransmitting, so the original ACK was likely lost.
    /// Persist-gated ACKs are only re-sent once the version is durable here
    /// (otherwise the original persist's completion will send them).
    fn re_ack_inv(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        key: ddp_store::Key,
        version: u64,
        in_txn: bool,
    ) {
        let coord = write.coordinator;
        let durable = self.nodes[node.index()].store.state(key).local_persisted >= version;
        match self.pers {
            Persistency::Strict => {
                if durable {
                    self.send(
                        ctx,
                        node,
                        coord,
                        Message::Ack { write, from: node },
                        ddp_net::RdmaKind::Send,
                    );
                }
            }
            Persistency::Synchronous => {
                if in_txn {
                    // Transactional+Synchronous acks on volatile apply.
                    self.send_ack_c(ctx, node, coord, write);
                } else if durable {
                    self.send(
                        ctx,
                        node,
                        coord,
                        Message::Ack { write, from: node },
                        ddp_net::RdmaKind::Send,
                    );
                }
            }
            Persistency::ReadEnforced => {
                self.send_ack_c(ctx, node, coord, write);
                if durable {
                    self.send(
                        ctx,
                        node,
                        coord,
                        Message::AckP { write, from: node },
                        ddp_net::RdmaKind::Send,
                    );
                }
            }
            Persistency::Scope | Persistency::Eventual => {
                self.send_ack_c(ctx, node, coord, write);
            }
        }
    }

    fn send_ack_c(
        &mut self,
        ctx: &mut Context<'_, Event>,
        from: NodeId,
        to: NodeId,
        write: WriteId,
    ) {
        self.send(
            ctx,
            from,
            to,
            Message::AckC { write, from },
            ddp_net::RdmaKind::Send,
        );
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
            self.update_buffer_gauge(ctx.now());
        }
    }

    /// Applies one UPD to the volatile replica and schedules its persist.
    fn apply_upd(&mut self, ctx: &mut Context<'_, Event>, node: NodeId, upd: BufferedUpd) {
        let origin = upd.write.coordinator;
        let epoch = self.node_epoch[node.index()];
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

        // Durability per the persistency model.
        match self.pers {
            Persistency::Synchronous | Persistency::Strict => {
                let purpose = if upd.persist_on_arrival {
                    // Strict: the coordinator waits for this persist.
                    PersistPurpose::FollowerInv {
                        write: upd.write,
                        txn: None,
                    }
                } else {
                    PersistPurpose::CausalApply { origin }
                };
                if self.cons == Consistency::Causal {
                    // Persists respect causal order: chain per origin.
                    self.enqueue_chained_persist(
                        ctx,
                        node,
                        origin,
                        ChainedPersist {
                            key: upd.key,
                            version: upd.version,
                            bytes: upd.value_bytes,
                            purpose,
                        },
                    );
                } else {
                    self.issue_persist(
                        ctx,
                        node,
                        ctx.now(),
                        Self::addr(upd.key),
                        u64::from(upd.value_bytes),
                        PersistCtx {
                            key: upd.key,
                            version: upd.version,
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
                    node,
                    ctx.now(),
                    Self::addr(upd.key),
                    u64::from(upd.value_bytes),
                    PersistCtx {
                        key: upd.key,
                        version: upd.version,
                        purpose: PersistPurpose::Lazy,
                        epoch,
                    },
                    true,
                );
            }
            Persistency::Scope => {
                if let Some(scope) = upd.scope {
                    self.nodes[node.index()]
                        .scopes
                        .entry(scope)
                        .or_default()
                        .writes
                        .push((upd.key, upd.version, upd.value_bytes));
                }
            }
            Persistency::Eventual => {
                self.lazy_pending += 1;
                self.update_buffer_gauge(ctx.now());
                let fire = ctx.now() + self.cfg.lazy_persist_delay;
                ctx.schedule_at(
                    fire,
                    Event::LazyPersist(
                        node,
                        super::LazyPersistCtx {
                            key: upd.key,
                            version: upd.version,
                            bytes: upd.value_bytes,
                            epoch,
                        },
                    ),
                );
            }
        }
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
        _combined: bool,
    ) {
        debug_assert_eq!(node, write.coordinator, "ACK must reach the coordinator");
        let Some(pw) = self.nodes[node.index()].pending.get_mut(&write.seq) else {
            return;
        };
        if self.faults_active {
            // Per-follower bitmask: duplicated (fabric or retransmission)
            // acknowledgments count once.
            let bit = Self::follower_bit(from);
            let mask = if is_p {
                &mut pw.acked_p
            } else {
                &mut pw.acked_c
            };
            if *mask & bit != 0 {
                if self.measuring {
                    self.stats.duplicates_suppressed += 1;
                }
                return;
            }
            *mask |= bit;
        }
        if is_p {
            pw.acks_p += 1;
        } else {
            pw.acks += 1;
        }
        self.try_progress_write(ctx, node, write.seq);
    }

    /// VAL / VAL_c / VAL_p at a follower.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one VAL message, unpacked by the dispatcher"
    )]
    fn on_val(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        write: WriteId,
        key: ddp_store::Key,
        version: u64,
        _visible: bool,
        persisted: bool,
    ) {
        if self.faults_active {
            // The write is settled: forget its duplicate-suppression entry.
            self.nodes[node.index()].seen_invs.remove(&write);
        }
        let st = self.nodes[node.index()].store.state_mut(key);
        st.global_visible = st.global_visible.max(version);
        if persisted {
            st.global_persisted = st.global_persisted.max(version);
        }
        if st.inflight == Some(write) {
            st.inflight = None;
        }
        self.wake_reads(ctx, node, key);
        // Writes queued at this node behind the remote write can now start.
        if !self.nodes[node.index()].store.state(key).is_transient() {
            self.pop_queued_write(ctx, node, key);
        }
    }
}
