//! The closed-loop client driver: issuing requests, completing them,
//! warm-up handling, and run termination.

use ddp_net::NodeId;
use ddp_sim::{Context, LevelGauge, SimTime};
use ddp_store::Key;
use ddp_trace::TraceEventKind;
use ddp_workload::{ClientId, OpKind, Request};

use crate::message::{ScopeId, TxnId};
use crate::model::{Consistency, Persistency};
use crate::stats::RunStats;

use super::{ClientPhase, Cluster, Event, ObservationLog, ReadObservation, WriteObservation};

impl Cluster {
    /// The node that coordinates a client's requests.
    pub(crate) fn home_of(&self, client: ClientId) -> NodeId {
        NodeId(self.clients.client(client).home_node())
    }

    /// Handles a client being ready to issue its next request. `token` is
    /// the progress token the event was scheduled with: a stale token means
    /// the operation timeout already moved the client on, and this issue
    /// path must die so the client does not fork into two loops.
    pub(crate) fn on_issue(&mut self, ctx: &mut Context<'_, Event>, client: ClientId, token: u64) {
        if self.done || token != self.cstate[client.index()].op_token {
            return;
        }
        if self.faults_active {
            // A dead home node cannot coordinate anything: park the client
            // and probe again, rather than timing out request by request.
            if self.is_down(self.home_of(client)) {
                self.clients.client_mut(client).note_deferred();
                ctx.schedule_in(self.cfg.faults.op_timeout, Event::Issue(client, token));
                return;
            }
            ctx.schedule_in(
                self.cfg.faults.op_timeout,
                Event::OpTimeout { client, token },
            );
        }
        // Scope persistency: after `scope_size` requests, the client issues a
        // Persist call for the scope before continuing (paper §7: scopes are
        // 10 client requests).
        if self.pers == Persistency::Scope
            && self.cstate[client.index()].scope_reqs >= self.cfg.scope_size
        {
            self.cstate[client.index()].scope_reqs = 0;
            self.start_scope_persist(ctx, client);
            return;
        }
        if self.cons == Consistency::Transactional {
            self.issue_transactional(ctx, client);
            return;
        }
        let request = self.clients.client_mut(client).next_request();
        let cr = &mut self.cstate[client.index()];
        cr.phase = ClientPhase::Busy;
        // Open-loop sessions anchor latency at the arrival, so admission
        // queue wait and rejection backoff count against the request.
        // Closed loops never set the anchor.
        let issued_at = cr.ol_anchor.take().unwrap_or(ctx.now());
        self.dispatch_request(ctx, client, request, issued_at);
    }

    /// Routes one plain (non-transactional) request into the protocol.
    pub(crate) fn dispatch_request(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
    ) {
        let scope = self.current_scope(client);
        self.admit_request(ctx, client, request, issued_at, None, scope);
    }

    /// Admits a request through the client link and a worker core: the
    /// protocol round starts once a worker has processed the request.
    pub(crate) fn admit_request(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
        txn: Option<TxnId>,
        scope: Option<ScopeId>,
    ) {
        let home = self.home_of(client);
        let arrive = ctx.now() + self.cfg.client_link_delay;
        let mut service = self.cfg.request_service;
        if self.cons == Consistency::Causal {
            service += self.cfg.causal_tracking_overhead;
        }
        let start = {
            let workers = &mut self.nodes[home.index()].workers;
            let (idx, free) = workers
                .iter()
                .copied()
                .enumerate()
                .min_by_key(|&(_, t)| t)
                .expect("node has at least one worker");
            let start = free.max(arrive);
            workers[idx] = start + service;
            start + service
        };
        ctx.schedule_at(
            start,
            Event::ExecOp {
                client,
                request,
                issued_at,
                txn,
                scope,
                token: self.cstate[client.index()].op_token,
            },
        );
    }

    /// A request clears worker admission and enters the protocol.
    pub(crate) fn on_exec_op(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        request: Request,
        issued_at: SimTime,
        txn: Option<TxnId>,
        scope: Option<ScopeId>,
    ) {
        match request.op {
            OpKind::Read => self.start_read(ctx, client, request, issued_at),
            OpKind::Write => self.start_write(ctx, client, request, issued_at, txn, scope),
        }
    }

    /// The scope a client's current requests belong to (Scope persistency).
    pub(crate) fn current_scope(&self, client: ClientId) -> Option<ScopeId> {
        if self.pers != Persistency::Scope {
            return None;
        }
        let cr = &self.cstate[client.index()];
        Some(ScopeId {
            node: self.home_of(client),
            seq: (u64::from(client.0) << 32) | cr.scope_counter,
        })
    }

    /// Records a completed read or write and schedules the client's next
    /// request. `issued_at` is the (first) issue time; `t_done` is when the
    /// value/acknowledgment reached the client.
    #[expect(
        clippy::too_many_arguments,
        reason = "one completion's client, kind, times, key, version and node"
    )]
    pub(crate) fn complete_request(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        is_read: bool,
        issued_at: SimTime,
        t_done: SimTime,
        key: Key,
        version: u64,
        node: NodeId,
    ) {
        self.record_completed(ctx, client, is_read, issued_at, t_done, key, version, node);
        self.cstate[client.index()].phase = ClientPhase::Idle;
        if self.pers == Persistency::Scope {
            self.cstate[client.index()].scope_reqs += 1;
        }
        self.schedule_next_issue(ctx, client, t_done);
    }

    /// Statistics and bookkeeping shared by plain and transactional
    /// completions.
    #[expect(
        clippy::too_many_arguments,
        reason = "one completion's client, kind, times, key, version and node"
    )]
    pub(crate) fn record_completed(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        is_read: bool,
        issued_at: SimTime,
        t_done: SimTime,
        key: Key,
        version: u64,
        node: NodeId,
    ) {
        let t_done = t_done + self.cfg.client_link_delay;
        let latency = t_done.saturating_since(issued_at);
        let kind = if is_read {
            TraceEventKind::ReadComplete
        } else {
            TraceEventKind::WriteComplete
        };
        self.trace_at(ctx, t_done, kind, node.0, key, version, latency.as_nanos());
        if self.measuring {
            if is_read {
                self.stats.reads_completed += 1;
                self.stats.read_latency.record(latency);
            } else {
                self.stats.writes_completed += 1;
                self.stats.write_latency.record(latency);
            }
            self.stats.access_latency.record(latency);
            if let Some(w) = self.timeline.window(t_done.as_nanos()) {
                if is_read {
                    w.reads_completed += 1;
                } else {
                    w.writes_completed += 1;
                }
            }
            self.measured_completed += 1;
        }
        if self.cfg.record_observations {
            record_observation(
                &mut self.observations,
                client,
                node,
                is_read,
                key,
                version,
                t_done,
            );
        }
        self.total_completed += 1;
        if !self.measuring && self.total_completed >= self.cfg.warmup_requests {
            self.begin_measurement(ctx.now());
        }
        if self.measuring && self.measured_completed >= self.cfg.measured_requests {
            self.done = true;
            ctx.request_stop();
        }
    }

    /// Starts the measured window: statistics reset, clock noted.
    fn begin_measurement(&mut self, now: SimTime) {
        self.measuring = true;
        self.stats = RunStats {
            window_start: now,
            // Carry the gauges' current levels across the reset, each
            // opening its window at `now` so the warm-up is not averaged
            // in as level 0.
            causal_buffered: LevelGauge::starting_at(now, self.stats.causal_buffered.current()),
            admission_queue: LevelGauge::starting_at(now, self.stats.admission_queue.current()),
            nvm_bank_queue: LevelGauge::starting_at(now, self.nvm_queued_total),
            compactions_active: LevelGauge::starting_at(now, self.compactions_total),
            // The fault trace describes the whole run, not the window.
            crashes: std::mem::take(&mut self.stats.crashes),
            rejoins: std::mem::take(&mut self.stats.rejoins),
            ..RunStats::default()
        };
        // Window 0 of the timeline starts at the measurement boundary so
        // per-window sums match the measured totals by construction.
        self.timeline.anchor(now.as_nanos());
        self.update_buffer_gauge(now);
    }

    /// Schedules the client's next issue after its think time (closed
    /// loop), or continues/releases the bound session (open loop).
    pub(crate) fn schedule_next_issue(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        not_before: SimTime,
    ) {
        if self.done {
            return;
        }
        if self.ol.is_some() {
            self.open_loop_next(ctx, client, not_before);
            return;
        }
        let think = self.clients.client_mut(client).think();
        let at = not_before.max(ctx.now()) + think;
        // Advancing the token here retires any operation timeout armed for
        // the request that just completed.
        let token = {
            let cr = &mut self.cstate[client.index()];
            cr.op_token = cr.op_token.wrapping_add(1);
            cr.op_token
        };
        ctx.schedule_at(at, Event::Issue(client, token));
        self.clients.client_mut(client).complete_one();
    }
}

/// Appends one observation to the log.
fn record_observation(
    log: &mut ObservationLog,
    client: ClientId,
    node: NodeId,
    is_read: bool,
    key: Key,
    version: u64,
    t_done: SimTime,
) {
    if is_read {
        log.reads.push(ReadObservation {
            client: client.0,
            node: node.0,
            key,
            version,
            completed_at: t_done,
        });
    } else {
        log.writes.push(WriteObservation {
            client: client.0,
            key,
            version,
            completed_at: t_done,
        });
    }
}
