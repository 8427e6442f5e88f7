//! Running one cell and checking its output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ddp_core::{FleetConfig, FleetSimulation, RunStats, RunSummary, Simulation, TraceDump};
use ddp_harness::{fleet_record_to_json, record_to_json, FleetRecord, RunRecord};

use crate::workloads::Cell;

/// The host clock. Measuring host time is what this crate is for; the
/// workspace lint that keeps wall-clock time out of simulation code is
/// lifted here and nowhere else.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// A host-time interval.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    /// Runs `f` and returns its result with the interval it took.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Interval) {
        let start = now();
        let out = f();
        (out, Interval { start, end: now() })
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Run counters of the measured window, copied out of [`RunStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub reads: u64,
    pub writes: u64,
    pub messages: u64,
    pub network_bytes: u64,
    pub persists: u64,
    pub reads_stalled_on_persist: u64,
    pub txns_conflicted: u64,
    pub txns_committed: u64,
    pub lsm_seals: u64,
    pub lsm_merges: u64,
    pub compaction_bytes: u64,
    pub ol_arrivals: u64,
    pub admissions: u64,
    pub ol_shed: u64,
    pub ol_retries: u64,
    /// Simulated ns of the measured window.
    pub measured_ns: u64,
}

impl Counts {
    fn from_stats(s: &RunStats) -> Self {
        Counts {
            reads: s.reads_completed,
            writes: s.writes_completed,
            messages: s.messages_sent,
            network_bytes: s.network_bytes,
            persists: s.persists_issued,
            reads_stalled_on_persist: s.reads_stalled_on_persist,
            txns_conflicted: s.txns_conflicted,
            txns_committed: s.txns_committed,
            lsm_seals: s.lsm_seals,
            lsm_merges: s.lsm_merges,
            compaction_bytes: s.compaction_bytes,
            ol_arrivals: s.ol_arrivals,
            admissions: s.admissions,
            ol_shed: s.ol_shed,
            ol_retries: s.ol_retries,
            measured_ns: s.measured_time.as_nanos(),
        }
    }

    pub fn completed(&self) -> u64 {
        self.reads + self.writes
    }
}

/// One finished, checked cell.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// `Simulation::new` (or `FleetSimulation::new`).
    pub new: Interval,
    /// `run()`.
    pub run: Interval,
    /// Record construction and its JSON serialization.
    pub record: Interval,
    /// The record as one JSON line.
    pub line: String,
    /// Simulated requests completed over the whole run, warm-up included.
    pub requests: u64,
    pub counts: Counts,
    pub summary: RunSummary,
    /// Events dispatched (the highest trace sequence number), when traced.
    pub events: Option<u64>,
}

/// Runs one cell on the calling thread. A panic or a failed output check
/// comes back as `Err`.
pub fn run_cell(index: usize, label: &str, cell: &Cell) -> Result<CellRun, String> {
    catch_unwind(AssertUnwindSafe(|| match cell {
        Cell::Solo(cfg) => {
            let (mut sim, new) = Interval::time(|| Simulation::new(cfg.clone()));
            let ((), run) = Interval::time(|| {
                sim.run();
            });
            let (line, record) = Interval::time(|| {
                record_to_json(&RunRecord::from_simulation(
                    index,
                    label.to_string(),
                    &mut sim,
                ))
            });
            check_solo(&sim)?;
            let stats = sim.cluster().stats();
            Ok(CellRun {
                new,
                run,
                record,
                line,
                requests: cfg.warmup_requests + stats.completed(),
                counts: Counts::from_stats(stats),
                summary: RunSummary::from_stats(stats),
                events: sim.take_trace().as_ref().map(last_seq),
            })
        }
        Cell::Fleet(cfg) => {
            let (mut sim, new) = Interval::time(|| FleetSimulation::new(cfg.clone()));
            let (report, run) = Interval::time(|| sim.run());
            let (rec, record) = Interval::time(|| {
                let rec = FleetRecord::from_simulation(index, label.to_string(), &mut sim);
                let line = fleet_record_to_json(&rec);
                (rec, line)
            });
            let (rec, line) = rec;
            check_fleet(&rec, cfg)?;
            let traces = sim.take_traces();
            Ok(CellRun {
                new,
                run,
                record,
                line,
                requests: fleet_requests(&rec, cfg),
                counts: Counts::from_stats(&sim.merged_stats()),
                summary: report.aggregate,
                events: traces.iter().map(|(_, d)| last_seq(d)).max(),
            })
        }
    }))
    .unwrap_or_else(|panic| Err(panic_message(&*panic)))
}

/// Closed loops complete their quota; open loops conserve arrivals.
fn check_solo(sim: &Simulation) -> Result<(), String> {
    let cluster = sim.cluster();
    match cluster.open_loop_accounting() {
        Some(a) => {
            let accounted =
                a.completed_sessions + a.shed + a.queued + a.retry_pending + a.in_flight;
            if a.arrivals == 0 || a.arrivals != accounted {
                return Err(format!("open-loop conservation violated: {a:?}"));
            }
        }
        None => {
            let (done, quota) = (
                cluster.stats().completed(),
                cluster.config().measured_requests,
            );
            if done < quota {
                return Err(format!("completed {done} of {quota} measured requests"));
            }
        }
    }
    Ok(())
}

/// Every shard's completions together cover the fleet's measured quota.
pub fn check_fleet(rec: &FleetRecord, cfg: &FleetConfig) -> Result<(), String> {
    let done: u64 = rec.shard_completed.iter().sum();
    let quota = cfg.base.measured_requests;
    if rec.shard_completed.len() != usize::from(cfg.shards) || done < quota {
        return Err(format!(
            "fleet completed {done} of {quota} measured requests over {} shards",
            rec.shard_completed.len()
        ));
    }
    Ok(())
}

/// Simulated requests a fleet completed, warm-up included.
fn fleet_requests(rec: &FleetRecord, cfg: &FleetConfig) -> u64 {
    cfg.base.warmup_requests + rec.shard_completed.iter().sum::<u64>()
}

fn last_seq(dump: &TraceDump) -> u64 {
    dump.events.iter().map(|e| e.seq).max().unwrap_or(0)
}

/// The text of a caught panic.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic".to_string());
    format!("panicked: {text}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::records_digest;
    use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};

    fn tiny_cells() -> Vec<(String, Cell)> {
        let causal = DdpModel::new(Consistency::Causal, Persistency::Synchronous);
        [DdpModel::baseline(), causal]
            .into_iter()
            .map(|m| {
                let mut cfg = ClusterConfig::micro21(m).quick();
                cfg.warmup_requests = 20;
                cfg.measured_requests = 300;
                (m.to_string(), Cell::Solo(cfg))
            })
            .collect()
    }

    fn digest_of(cells: &[(String, Cell)]) -> u64 {
        let lines: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, (label, cell))| run_cell(i, label, cell).expect("cell runs").line)
            .collect();
        records_digest(lines.iter().map(String::as_str))
    }

    #[test]
    fn two_cell_digest_is_stable_across_runs() {
        let cells = tiny_cells();
        assert_eq!(digest_of(&cells), digest_of(&cells));
        let mut reseeded = cells.clone();
        if let Cell::Solo(cfg) = &mut reseeded[0].1 {
            cfg.seed ^= 1;
        }
        assert_ne!(digest_of(&cells), digest_of(&reseeded));
    }

    #[test]
    fn a_panicking_cell_is_reported_not_propagated() {
        let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        cfg.clients = 0; // fails validation inside Simulation::new
        let err = run_cell(0, "bad", &Cell::Solo(cfg)).expect_err("must fail");
        assert!(err.starts_with("panicked"), "{err}");
    }
}
