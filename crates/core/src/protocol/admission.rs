//! Open-loop admission control: arrival dispatch, bounded per-node queues,
//! load shedding, and client-side retry with exponential backoff.
//!
//! Under [`OpenLoopPlan`] the run is driven by an arrival *rate* instead of
//! a closed loop: [`Event::Arrival`] fires per request, independent of
//! service progress, so offered load can exceed capacity. Each arrival is a
//! timing signal only — it binds one of the node's session slots (the
//! `cfg.clients` pool, spread round-robin as before), and the bound slot's
//! own request stream supplies the request content. That keeps every
//! protocol path (transactions, scopes, fault recovery) unchanged: a
//! session replays exactly the closed-loop issue machinery for one logical
//! request (or one whole transaction / scope persist), then releases its
//! slot to the next queued arrival.
//!
//! When all slots of the target node are busy the arrival waits in that
//! node's admission queue, bounded by `queue_capacity`. A full queue
//! rejects the arrival; the client retries with exponential backoff plus
//! uniform jitter up to `max_retries` times, after which the request is
//! shed. `queue_capacity: None` models the unbounded-queue strawman the
//! overload bench compares against: nothing is ever shed, and latency
//! grows without bound past the saturation knee.
//!
//! [`OpenLoopPlan`]: crate::config::OpenLoopPlan

use std::collections::VecDeque;

use ddp_net::NodeId;
use ddp_sim::{Context, Duration, SimRng, SimTime};
use ddp_workload::{ArrivalGen, ClientId};

use crate::config::ClusterConfig;
use crate::model::Persistency;

use super::{Cluster, Event};

/// One arrival waiting in a node's admission queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct QueuedArrival {
    /// The arrival's original time: latency anchors here, so queue wait
    /// and retry backoff count against the request.
    pub anchor: SimTime,
}

/// All open-loop state, present only when the run has an [`OpenLoopPlan`].
///
/// [`OpenLoopPlan`]: crate::config::OpenLoopPlan
#[derive(Debug)]
pub(crate) struct OpenLoopState {
    /// The deterministic arrival-time stream.
    pub gen: ArrivalGen,
    /// Round-robin arrival target.
    pub next_node: u8,
    /// Retry-jitter stream.
    pub retry_rng: SimRng,
    /// Free session slots per node.
    pub free: Vec<VecDeque<ClientId>>,
    /// Admission queue per node.
    pub queue: Vec<VecDeque<QueuedArrival>>,
    /// Whole-run arrival count (survives the warm-up stats reset).
    pub arrivals_total: u64,
    /// Whole-run shed count.
    pub shed_total: u64,
    /// Retries currently scheduled but not yet fired.
    pub retry_pending: u64,
    /// Whole-run completed session count.
    pub sessions_completed_total: u64,
}

impl OpenLoopState {
    /// Builds the open-loop state for a validated configuration; returns
    /// `None` on closed-loop runs.
    pub(crate) fn for_config(
        cfg: &ClusterConfig,
        clients: &ddp_workload::ClientPool,
    ) -> Option<Self> {
        let plan = cfg.open_loop.as_ref()?;
        let n = cfg.nodes as usize;
        let mut free = vec![VecDeque::new(); n];
        for c in clients.clients() {
            free[c.home_node() as usize].push_back(c.id());
        }
        Some(OpenLoopState {
            gen: ArrivalGen::new(plan.arrival_process(), cfg.seed),
            next_node: 0,
            retry_rng: SimRng::seed_from(cfg.seed ^ 0x0BAC_0FF0_1177_E2E2),
            free,
            queue: vec![VecDeque::new(); n],
            arrivals_total: 0,
            shed_total: 0,
            retry_pending: 0,
            sessions_completed_total: 0,
        })
    }

    /// Arrivals currently waiting in admission queues, across all nodes.
    pub(crate) fn queued(&self) -> u64 {
        self.queue.iter().map(|q| q.len() as u64).sum()
    }

    /// Free session slots, across all nodes.
    pub(crate) fn free_slots(&self) -> u64 {
        self.free.iter().map(|f| f.len() as u64).sum()
    }
}

/// Whole-run open-loop accounting, for the conservation invariant
/// `arrivals == completed_sessions + shed + queued + retry_pending +
/// in_flight`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenLoopAccounting {
    /// Arrivals generated.
    pub arrivals: u64,
    /// Sessions that ran to completion.
    pub completed_sessions: u64,
    /// Arrivals shed after exhausting their retry budget.
    pub shed: u64,
    /// Arrivals still waiting in admission queues.
    pub queued: u64,
    /// Rejected arrivals with a retry still scheduled.
    pub retry_pending: u64,
    /// Sessions bound to a slot and still in service.
    pub in_flight: u64,
}

impl Cluster {
    /// Whole-run open-loop accounting; `None` on closed-loop runs.
    #[must_use]
    pub fn open_loop_accounting(&self) -> Option<OpenLoopAccounting> {
        let ol = self.ol.as_ref()?;
        Some(OpenLoopAccounting {
            arrivals: ol.arrivals_total,
            completed_sessions: ol.sessions_completed_total,
            shed: ol.shed_total,
            queued: ol.queued(),
            retry_pending: ol.retry_pending,
            in_flight: u64::from(self.cfg.clients) - ol.free_slots(),
        })
    }

    /// Handles one open-loop arrival: chain the next one, pick a target
    /// node round-robin, and try to admit.
    pub(crate) fn on_arrival(&mut self, ctx: &mut Context<'_, Event>) {
        // The next arrival is scheduled unconditionally first: an open
        // loop's arrival process does not depend on service progress.
        let gap = {
            let ol = self
                .ol
                .as_mut()
                .expect("Arrival event on a closed-loop run");
            ol.arrivals_total += 1;
            ol.gen.next_interarrival()
        };
        ctx.schedule_in(gap, Event::Arrival);
        if self.measuring {
            self.stats.ol_arrivals += 1;
            if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                w.ol_arrivals += 1;
            }
        }
        let node = {
            let ol = self.ol.as_mut().expect("checked above");
            let node = ol.next_node;
            ol.next_node = (ol.next_node + 1) % self.cfg.nodes;
            NodeId(node)
        };
        self.try_admit(ctx, node, ctx.now(), 0);
    }

    /// A rejected arrival's backoff expired; try again.
    pub(crate) fn on_arrival_retry(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        anchor: SimTime,
        attempt: u32,
    ) {
        let ol = self.ol.as_mut().expect("ArrivalRetry on a closed-loop run");
        ol.retry_pending -= 1;
        self.try_admit(ctx, node, anchor, attempt);
    }

    /// Admission decision for one arrival at `node`: bind a free slot,
    /// queue, or reject.
    fn try_admit(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        anchor: SimTime,
        attempt: u32,
    ) {
        // A crashed node accepts nothing; its clients see a rejection and
        // retry, by which time the node may have rejoined.
        if self.is_down(node) {
            self.reject_arrival(ctx, node, anchor, attempt);
            return;
        }
        let slot = self.ol.as_mut().expect("open loop").free[node.index()].pop_front();
        if let Some(client) = slot {
            self.bind_session(ctx, client, anchor);
            return;
        }
        let capacity = self
            .cfg
            .open_loop
            .as_ref()
            .expect("open loop")
            .queue_capacity;
        let queue = &mut self.ol.as_mut().expect("open loop").queue[node.index()];
        if capacity.map_or(true, |cap| (queue.len() as u32) < cap) {
            queue.push_back(QueuedArrival { anchor });
            self.update_admission_gauge(ctx.now());
            return;
        }
        self.reject_arrival(ctx, node, anchor, attempt);
    }

    /// Load shedding: schedule a backed-off retry, or drop for good once
    /// the retry budget is spent.
    fn reject_arrival(
        &mut self,
        ctx: &mut Context<'_, Event>,
        node: NodeId,
        anchor: SimTime,
        attempt: u32,
    ) {
        if self.measuring {
            self.stats.ol_rejections += 1;
            if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                w.ol_rejections += 1;
            }
        }
        let plan = self.cfg.open_loop.as_ref().expect("open loop");
        if attempt < plan.max_retries {
            let backoff_ns = plan.retry_backoff.as_nanos() << attempt;
            let jitter_max = plan.retry_jitter.as_nanos();
            let ol = self.ol.as_mut().expect("open loop");
            let jitter_ns = if jitter_max == 0 {
                0
            } else {
                ol.retry_rng.range_inclusive(0, jitter_max)
            };
            ol.retry_pending += 1;
            if self.measuring {
                self.stats.ol_retries += 1;
                if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                    w.ol_retries += 1;
                }
            }
            ctx.schedule_in(
                Duration::from_nanos(backoff_ns + jitter_ns),
                Event::ArrivalRetry {
                    node,
                    anchor,
                    attempt: attempt + 1,
                },
            );
        } else {
            self.ol.as_mut().expect("open loop").shed_total += 1;
            if self.measuring {
                self.stats.ol_shed += 1;
                if let Some(w) = self.timeline.window(ctx.now().as_nanos()) {
                    w.ol_shed += 1;
                }
            }
        }
    }

    /// Binds an arrival to a free session slot: the slot's client issues
    /// its next request now, with latency anchored at the arrival time.
    fn bind_session(&mut self, ctx: &mut Context<'_, Event>, client: ClientId, anchor: SimTime) {
        let wait = ctx.now().saturating_since(anchor);
        if self.measuring {
            self.stats.admission_wait += wait;
            self.stats.admissions += 1;
        }
        let cr = &mut self.cstate[client.index()];
        cr.ol_anchor = Some(anchor);
        let token = cr.op_token;
        ctx.schedule_at(ctx.now(), Event::Issue(client, token));
    }

    /// Open-loop counterpart of `schedule_next_issue`: the bound session
    /// either continues (mid-transaction, pending scope persist) or
    /// releases its slot to the next queued arrival.
    pub(crate) fn open_loop_next(
        &mut self,
        ctx: &mut Context<'_, Event>,
        client: ClientId,
        not_before: SimTime,
    ) {
        // Advancing the token retires any operation timeout armed for the
        // step that just completed, exactly as in the closed loop.
        let token = {
            let cr = &mut self.cstate[client.index()];
            cr.op_token = cr.op_token.wrapping_add(1);
            cr.op_token
        };
        self.clients.client_mut(client).complete_one();
        // One arrival is one logical session: a single request, or a whole
        // transaction, or the requests-plus-Persist of a scope. The slot
        // is held until the session's remaining protocol steps finish.
        let continues = {
            let cr = &self.cstate[client.index()];
            cr.txn.is_some()
                || !cr.txn_requests.is_empty()
                || cr.wounded
                || (self.pers == Persistency::Scope && cr.scope_reqs >= self.cfg.scope_size)
        };
        if continues {
            ctx.schedule_at(not_before.max(ctx.now()), Event::Issue(client, token));
            return;
        }
        let home = self.home_of(client);
        let next = {
            let ol = self.ol.as_mut().expect("open loop");
            ol.sessions_completed_total += 1;
            ol.queue[home.index()].pop_front()
        };
        match next {
            Some(qa) => {
                self.update_admission_gauge(ctx.now());
                self.bind_session(ctx, client, qa.anchor);
            }
            None => {
                self.ol.as_mut().expect("open loop").free[home.index()].push_back(client);
            }
        }
    }

    /// Refreshes the admission-queue depth gauge.
    pub(crate) fn update_admission_gauge(&mut self, now: SimTime) {
        let depth = self.ol.as_ref().map_or(0, OpenLoopState::queued);
        self.stats.admission_queue.set(now, depth);
    }
}
