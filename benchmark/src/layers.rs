//! The traced run: per-layer metrics and spans.
//!
//! Every cell runs three times on this thread: untraced (the layer times
//! of `core` and `harness`), with event tracing on (the event count and
//! the tracer's cost), and with the timeline flipped (the timeline's
//! cost). Then the substrate layers the run went through are replayed
//! from outside through their public APIs: each replay measures host ns
//! per call, and a layer's estimated share of `core.run_s` is that cost
//! times the number of calls the run itself reported. Spans are kept in
//! memory and returned to the caller.

use std::hint::black_box;
use std::time::Instant;

use ddp_core::{ClusterConfig, ReplicaStore, TraceConfig};
use ddp_harness::JsonObject;
use ddp_mem::MemoryController;
use ddp_net::{Fabric, NodeId, RdmaKind};
use ddp_sim::{Duration, EventQueue, SimRng, SimTime};
use ddp_workload::{ClientPool, OpKind};

use crate::exec::{now, run_cell, CellRun, Counts, Interval};
use crate::results::{records_digest, Metric, RunResult};
use crate::stats::{geomean, median};
use crate::workloads::{Cell, Workload, TIMELINE_WINDOW};

/// Calls per substrate replay.
const REPLAY_CALLS: u64 = 100_000;

/// One timed interval of the traced run.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    cell: usize,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
}

/// Spans of one traced run, timed from a shared epoch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: now(),
            list: Vec::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        cell: usize,
        parent: Option<u64>,
        iv: Interval,
        calls: u64,
    ) -> u64 {
        let id = self.list.len() as u64;
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.list.push(Span {
            name,
            cell,
            id,
            parent,
            start_ns: ns(iv.start),
            end_ns: ns(iv.end),
            calls,
        });
        id
    }

    /// One JSON line per span.
    pub fn json_lines(&self, workload: &str, seed: u64) -> Vec<String> {
        self.list
            .iter()
            .map(|s| {
                let mut o = JsonObject::new();
                o.str("kind", "span");
                o.str("workload", workload);
                o.u64("seed", seed);
                o.u64("cell", s.cell as u64);
                o.str("name", s.name);
                o.u64("id", s.id);
                match s.parent {
                    Some(p) => o.u64("parent", p),
                    None => o.raw("parent", "null"),
                }
                o.u64("start_ns", s.start_ns);
                o.u64("end_ns", s.end_ns);
                o.u64("calls", s.calls);
                o.finish()
            })
            .collect()
    }
}

/// A replay's duration over its calls.
#[derive(Clone, Copy, Debug)]
struct Replay {
    iv: Interval,
    calls: u64,
}

impl Replay {
    fn ns_per_call(&self) -> f64 {
        self.iv.secs() * 1e9 / self.calls as f64
    }
}

/// What one cell contributed to the per-layer breakdown.
struct CellLayers {
    label: String,
    nodes: u8,
    plain: CellRun,
    traced_run_s: f64,
    events: u64,
    /// Run time with the timeline on, then off.
    timeline_on_off_s: (f64, f64),
    client_pool_s: f64,
    queue: Replay,
    unicast: Replay,
    persist: Replay,
    store: Replay,
}

impl CellLayers {
    /// Whole-run calls for a measured-window count: the counters cover
    /// only the measured window, `core.run_s` the warm-up as well.
    fn whole_run(&self, count: u64) -> f64 {
        let measured = self.plain.counts.completed().max(1);
        count as f64 * self.plain.requests as f64 / measured as f64
    }

    fn store_ops(&self) -> u64 {
        // A read touches the coordinator's store; a write every replica's.
        self.plain.counts.reads + self.plain.counts.writes * u64::from(self.nodes)
    }

    /// Set-up plus run: what the cell costs a sweep.
    fn cell_s(&self) -> f64 {
        self.plain.new.secs() + self.plain.run.secs()
    }

    fn sim_est_s(&self) -> f64 {
        self.queue.ns_per_call() * self.events as f64 / 1e9
    }

    fn net_est_s(&self) -> f64 {
        self.unicast.ns_per_call() * self.whole_run(self.plain.counts.messages) / 1e9
    }

    fn mem_est_s(&self) -> f64 {
        self.persist.ns_per_call() * self.whole_run(self.plain.counts.persists) / 1e9
    }

    fn store_est_s(&self) -> f64 {
        self.store.ns_per_call() * self.whole_run(self.store_ops()) / 1e9
    }
}

/// The cell's tracing configuration with event recording switched on.
fn events_on(cell: &Cell) -> TraceConfig {
    TraceConfig {
        events: true,
        ..cell.base().trace
    }
}

/// The cell's tracing configuration with the timeline switched over.
fn timeline_flipped(cell: &Cell) -> TraceConfig {
    let mut t = cell.base().trace;
    t.timeline_window = match t.timeline_window {
        Some(_) => None,
        None => Some(TIMELINE_WINDOW),
    };
    t
}

fn cell_layers(
    index: usize,
    label: &str,
    cell: &Cell,
    spans: &mut Spans,
) -> Result<CellLayers, String> {
    let started = now();
    let plain = run_cell(index, label, cell)?;
    let traced = run_cell(index, label, &cell.with_trace(events_on(cell)))?;
    let flipped = run_cell(index, label, &cell.with_trace(timeline_flipped(cell)))?;
    // Tracing and the timeline are read-only: the records must not move.
    for (what, other) in [("event tracing", &traced), ("the timeline", &flipped)] {
        if other.line != plain.line {
            return Err(format!("{what} changed the cell's record"));
        }
    }
    let timeline_on_off_s = if cell.base().trace.timeline_window.is_some() {
        (plain.run.secs(), flipped.run.secs())
    } else {
        (flipped.run.secs(), plain.run.secs())
    };

    let (pools, replay_cfg) = match cell {
        Cell::Solo(cfg) => (vec![cfg.clone()], cfg.clone()),
        Cell::Fleet(fleet) => {
            let shards = fleet.shard_configs();
            let first = shards[0].clone();
            (shards, first)
        }
    };
    let ((), pool_iv) = Interval::time(|| {
        for cfg in &pools {
            black_box(ClientPool::new(
                &cfg.workload,
                cfg.clients,
                cfg.nodes,
                cfg.seed,
            ));
        }
    });
    let counts = plain.counts;
    // One pool per replica group: the cell's nodes are all groups' nodes.
    let nodes = u64::from(replay_cfg.nodes) * pools.len() as u64;
    let node_ns = counts.measured_ns.max(1) * nodes;
    let queue = replay_queue(cell.base().clients as usize);
    let unicast = replay_unicast(&replay_cfg, counts.network_bytes, counts.messages, node_ns);
    let persist = replay_persist(&replay_cfg, counts.persists, node_ns);
    let store = replay_store(&replay_cfg);

    let root_iv = Interval {
        start: started,
        end: now(),
    };
    let root = Some(spans.push("cell", index, None, root_iv, 1));
    spans.push("core.new", index, root, plain.new, 1);
    spans.push("core.run", index, root, plain.run, 1);
    spans.push("harness.record", index, root, plain.record, 1);
    spans.push("trace.events_run", index, root, traced.run, 1);
    spans.push("trace.timeline_run", index, root, flipped.run, 1);
    spans.push(
        "workload.client_pool",
        index,
        root,
        pool_iv,
        pools.len() as u64,
    );
    for (name, r) in [
        ("sim.queue", queue),
        ("net.unicast", unicast),
        ("mem.persist", persist),
        ("store.ops", store),
    ] {
        spans.push(name, index, root, r.iv, r.calls);
    }

    Ok(CellLayers {
        label: label.to_string(),
        nodes: replay_cfg.nodes,
        events: traced.events.unwrap_or(0),
        traced_run_s: traced.run.secs(),
        timeline_on_off_s,
        client_pool_s: pool_iv.secs(),
        plain,
        queue,
        unicast,
        persist,
        store,
    })
}

/// `EventQueue` push + pop at a standing depth of `depth` events.
fn replay_queue(depth: usize) -> Replay {
    let mut rng = SimRng::seed_from(0x51);
    let delays: Vec<u64> = (0..REPLAY_CALLS)
        .map(|_| 1 + rng.next_below(2_000))
        .collect();
    let mut q = EventQueue::with_capacity(depth + 1);
    for i in 0..depth.max(1) {
        q.push(SimTime::from_nanos(delays[i % delays.len()]), [i as u64; 4]);
    }
    let ((), iv) = Interval::time(|| {
        for &d in &delays {
            let (t, e) = q.pop().expect("the queue holds `depth` events");
            q.push(t + Duration::from_nanos(d), black_box(e));
        }
    });
    Replay {
        iv,
        calls: REPLAY_CALLS,
    }
}

/// `Fabric::unicast` of the run's mean message size, at the run's mean
/// per-node message spacing. `node_ns` is the measured window's simulated
/// ns times the node count: divided by a cluster-wide call count it gives
/// one node's mean spacing between calls.
fn replay_unicast(cfg: &ClusterConfig, bytes: u64, messages: u64, node_ns: u64) -> Replay {
    let n = cfg.nodes;
    let size = bytes / messages.max(1);
    let step = Duration::from_nanos((node_ns / messages.max(1)).max(1));
    let mut fabric = Fabric::new(usize::from(n), cfg.network);
    let mut at = SimTime::ZERO;
    let ((), iv) = Interval::time(|| {
        for i in 0..REPLAY_CALLS {
            let from = (i % u64::from(n)) as u8;
            let hop = 1 + (i / u64::from(n)) % u64::from(n - 1);
            let to = ((u64::from(from) + hop) % u64::from(n)) as u8;
            black_box(fabric.unicast(at, NodeId(from), NodeId(to), size, RdmaKind::Send));
            at += step;
        }
    });
    Replay {
        iv,
        calls: REPLAY_CALLS,
    }
}

/// `MemoryController::persist` of one value at the run's mean per-node
/// persist spacing (see [`replay_unicast`]), over the cell's key space.
fn replay_persist(cfg: &ClusterConfig, persists: u64, node_ns: u64) -> Replay {
    let step = Duration::from_nanos((node_ns / persists.max(1)).max(1));
    let mut rng = SimRng::seed_from(0x9e);
    let addrs: Vec<u64> = (0..REPLAY_CALLS)
        .map(|_| rng.next_below(cfg.workload.key_space) << 6)
        .collect();
    let bytes = u64::from(cfg.workload.value_bytes);
    let mut mc = MemoryController::new(cfg.memory);
    let mut at = SimTime::ZERO;
    let ((), iv) = Interval::time(|| {
        for &addr in &addrs {
            black_box(mc.persist(at, addr, bytes));
            at += step;
        }
    });
    Replay {
        iv,
        calls: REPLAY_CALLS,
    }
}

/// The cell's replica store driven by the cell's own request stream.
fn replay_store(cfg: &ClusterConfig) -> Replay {
    let requests: Vec<_> = cfg
        .workload
        .stream(cfg.seed)
        .take(REPLAY_CALLS as usize)
        .collect();
    let mut store = ReplicaStore::with_compaction(
        cfg.store,
        cfg.compaction.memtable_entries as usize,
        cfg.compaction.fanout as usize,
    );
    let ((), iv) = Interval::time(|| {
        for r in &requests {
            match r.op {
                OpKind::Read => {
                    black_box(store.state(r.key));
                }
                OpKind::Write => store.state_mut(r.key).visible += 1,
            }
            if store.has_compaction_work() {
                black_box(store.take_compaction_work());
            }
        }
    });
    Replay {
        iv,
        calls: REPLAY_CALLS,
    }
}

/// A traced run's result plus the label of its slowest cell.
pub struct TraceReport {
    pub result: RunResult,
    pub slowest_cell: String,
}

/// The traced run of workload `w`: per-layer metrics, with spans
/// appended to `spans`.
pub fn trace(w: &Workload, seed: u64, spans: &mut Spans) -> TraceReport {
    let mut cells = Vec::new();
    let mut failed = 0;
    let mut lines = Vec::new();
    for (i, (label, cell)) in w.cells.iter().enumerate() {
        eprintln!("[{}] tracing {label}", w.name);
        match cell_layers(i, label, cell, spans) {
            Ok(c) => {
                lines.push(c.plain.line.clone());
                cells.push(c);
            }
            Err(e) => {
                eprintln!("FAILED {label}: {e}");
                failed += 1;
                lines.push(format!("failed {label}"));
            }
        }
    }
    let metrics = if cells.is_empty() {
        Vec::new()
    } else {
        layer_metrics(&cells)
    };
    let slowest_cell = cells
        .iter()
        .max_by(|a, b| a.cell_s().total_cmp(&b.cell_s()))
        .map_or_else(String::new, |c| c.label.clone());
    TraceReport {
        result: RunResult {
            workload: w.name.to_string(),
            seed,
            traced: true,
            passes: 1,
            attempted: w.cells.len() as u64,
            failed,
            correct: failed == 0,
            records_digest: records_digest(lines.iter().map(String::as_str)),
            metrics,
        },
        slowest_cell,
    }
}

fn layer_metrics(cells: &[CellLayers]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&CellLayers) -> f64| cells.iter().map(f).sum::<f64>();
    let count = |f: &dyn Fn(&CellLayers) -> u64| cells.iter().map(f).sum::<u64>();
    let pooled_ns = |f: &dyn Fn(&CellLayers) -> Replay| {
        sum(&|c| f(c).iv.secs()) * 1e9 / count(&|c| f(c).calls) as f64
    };
    let mean = |f: &dyn Fn(&CellLayers) -> f64| sum(f) / cells.len() as f64;
    let ratio = |num: u64, den: u64, empty: f64| {
        if den == 0 {
            empty
        } else {
            num as f64 / den as f64
        }
    };

    let new_s = sum(&|c| c.plain.new.secs());
    let run_s = sum(&|c| c.plain.run.secs());
    let requests = count(&|c| c.plain.requests);
    let events = count(&|c| c.events);
    let client_pool_s = sum(&|c| c.client_pool_s);
    let sim_est = sum(&|c| c.sim_est_s());
    let net_est = sum(&|c| c.net_est_s());
    let mem_est = sum(&|c| c.mem_est_s());
    let store_est = sum(&|c| c.store_est_s());
    let cell_s: Vec<f64> = cells.iter().map(CellLayers::cell_s).collect();
    let c = |f: &dyn Fn(&Counts) -> u64| count(&|cl| f(&cl.plain.counts));
    let messages = c(&|k| k.messages);
    let (on, off) = (
        sum(&|c| c.timeline_on_off_s.0),
        sum(&|c| c.timeline_on_off_s.1),
    );
    let traced = sum(&|c| c.traced_run_s);
    let phase = |f: &dyn Fn(&ddp_core::PhaseBreakdown) -> f64| mean(&|c| f(&c.plain.summary.phase));

    vec![
        Metric::new("workload.client_pool_s", client_pool_s, "s"),
        Metric::new("workload.setup_share", client_pool_s / new_s, "ratio"),
        Metric::new("workload.requests", requests as f64, "count"),
        Metric::new("core.new_s", new_s, "s"),
        Metric::new("core.run_s", run_s, "s"),
        Metric::new("core.run_ns_per_req", run_s * 1e9 / requests as f64, "ns"),
        Metric::new("core.events", events as f64, "count"),
        Metric::new(
            "core.events_per_req",
            events as f64 / requests as f64,
            "events/req",
        ),
        Metric::new("core.ns_per_event", run_s * 1e9 / events as f64, "ns"),
        Metric::new(
            "core.self_est_s",
            run_s - sim_est - net_est - mem_est - store_est,
            "s",
        ),
        Metric::new("core.cell_p50_s", median(&cell_s), "s"),
        Metric::new(
            "core.cell_max_s",
            cell_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        Metric::new(
            "core.txn_commit_ratio",
            ratio(
                c(&|k| k.txns_committed),
                c(&|k| k.txns_committed + k.txns_conflicted),
                1.0,
            ),
            "ratio",
        ),
        Metric::new(
            "core.read_stall_ratio",
            ratio(c(&|k| k.reads_stalled_on_persist), c(&|k| k.reads), 0.0),
            "ratio",
        ),
        Metric::new("sim.queue_ns_per_op", pooled_ns(&|c| c.queue), "ns"),
        Metric::new("sim.est_s", sim_est, "s"),
        Metric::new("net.messages", messages as f64, "count"),
        Metric::new(
            "net.bytes_per_msg",
            ratio(c(&|k| k.network_bytes), messages, 0.0),
            "B",
        ),
        Metric::new("net.unicast_ns", pooled_ns(&|c| c.unicast), "ns"),
        Metric::new("net.est_s", net_est, "s"),
        Metric::new("mem.persists", c(&|k| k.persists) as f64, "count"),
        Metric::new("mem.persist_ns", pooled_ns(&|c| c.persist), "ns"),
        Metric::new("mem.est_s", mem_est, "s"),
        Metric::new("store.ops", count(&CellLayers::store_ops) as f64, "count"),
        Metric::new("store.op_ns", pooled_ns(&|c| c.store), "ns"),
        Metric::new("store.est_s", store_est, "s"),
        Metric::new("store.lsm_seals", c(&|k| k.lsm_seals) as f64, "count"),
        Metric::new("store.lsm_merges", c(&|k| k.lsm_merges) as f64, "count"),
        Metric::new(
            "store.compaction_mib",
            c(&|k| k.compaction_bytes) as f64 / f64::from(1 << 20),
            "MiB",
        ),
        Metric::new(
            "admission.admit_ratio",
            ratio(c(&|k| k.admissions), c(&|k| k.ol_arrivals), 1.0),
            "ratio",
        ),
        Metric::new(
            "admission.shed_rate",
            ratio(c(&|k| k.ol_shed), c(&|k| k.ol_arrivals), 0.0),
            "ratio",
        ),
        Metric::new("admission.retries", c(&|k| k.ol_retries) as f64, "count"),
        Metric::new(
            "trace.tracer_overhead_pct",
            (traced - run_s) / run_s * 100.0,
            "%",
        ),
        Metric::new("trace.timeline_overhead_pct", (on - off) / off * 100.0, "%"),
        Metric::new("harness.record_s", sum(&|c| c.plain.record.secs()), "s"),
        Metric::new(
            "model.sim_ops_per_s",
            geomean(
                &cells
                    .iter()
                    .map(|c| c.plain.summary.throughput)
                    .collect::<Vec<_>>(),
            ),
            "req/sim_s",
        ),
        Metric::new(
            "model.p50_write_ns",
            mean(&|c| c.plain.summary.p50_write_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.p99_write_ns",
            mean(&|c| c.plain.summary.p99_write_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.p99_read_ns",
            mean(&|c| c.plain.summary.p99_read_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.vp_dp_lag_p95_ns",
            mean(&|c| c.plain.summary.vp_dp_lag_p95_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.nvm_bank_queue_mean",
            mean(&|c| c.plain.summary.mean_nvm_bank_queue),
            "count",
        ),
        Metric::new("model.phase.service_ns", phase(&|p| p.service_ns), "sim_ns"),
        Metric::new("model.phase.queue_ns", phase(&|p| p.queue_ns), "sim_ns"),
        Metric::new("model.phase.network_ns", phase(&|p| p.network_ns), "sim_ns"),
        Metric::new(
            "model.phase.persist_stall_ns",
            phase(&|p| p.persist_stall_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.phase.nvm_queue_ns",
            phase(&|p| p.nvm_queue_ns),
            "sim_ns",
        ),
        Metric::new(
            "model.phase.read_stall_ns",
            phase(&|p| p.read_stall_ns),
            "sim_ns",
        ),
    ]
}
