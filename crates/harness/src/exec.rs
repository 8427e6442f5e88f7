//! The parallel deterministic executor.
//!
//! Trials are independent seeded simulations, so a sweep parallelizes
//! perfectly — the only thing that must *not* change with the thread
//! count is the output. The executor therefore:
//!
//! * flattens a sweep into one simulation per job — a solo trial is one
//!   job, a fleet trial one job per shard ([`run_simulations`]), so a
//!   single large fleet still fills every worker;
//! * pulls jobs off a shared atomic work queue (no static partitioning,
//!   so a slow model cannot strand an idle worker);
//! * writes each finished job into the result slot keyed by its position,
//!   making the returned stream independent of completion order;
//! * keeps host wall-clock out of the records entirely — progress and
//!   timing go to **stderr**, so stdout tables and `--json` streams stay
//!   byte-identical for any `--threads N`.
//!
//! The work queue, the worker threads, and all wall-clock access live in
//! [`crate::progress`] — the one module whose lint escapes let it touch
//! host time and threads. This file only decides *what* each worker runs.

use ddp_core::{ClusterConfig, RunOutcome, Simulation, TimelineDump, TraceDump};

use crate::args::HarnessArgs;
use crate::csv::CsvWriter;
use crate::fleet::{fleet_record_to_json, run_fleet_sweep_instrumented, FleetRecord, FleetSweep};
use crate::json::JsonLinesWriter;
use crate::progress::{run_pool, Stopwatch};
use crate::record::RunRecord;
use crate::seeds::SeedAggregate;
use crate::sweep::Sweep;
use crate::timeline::{timeline_end_to_json, timeline_window_to_json};
use crate::trace::{trace_end_to_json, trace_event_to_json};

/// The default timeline window width when `--timeline` is given without
/// `--window-ns`: 50 µs of simulated time, a few hundred windows on a
/// figure-scale run.
pub const DEFAULT_WINDOW_NS: u64 = 50_000;

/// Runs every trial's simulations on `threads` workers as one flat job
/// list and returns each trial's [`RunOutcome`]s in trial-then-shard
/// order. A trial is its label plus one config per simulation (one for a
/// solo trial, one per shard for a fleet). Each [`Simulation`] is
/// finished inside its worker, so a sweep never holds more live
/// simulations than it has workers.
pub(crate) fn run_simulations(
    name: &str,
    trials: &[(String, Vec<ClusterConfig>)],
    threads: usize,
) -> Vec<Vec<RunOutcome>> {
    let mut labels = Vec::new();
    let mut cfgs = Vec::new();
    for (label, shards) in trials {
        for (s, cfg) in shards.iter().enumerate() {
            labels.push(if shards.len() == 1 {
                label.clone()
            } else {
                format!("{label} shard {s}")
            });
            cfgs.push(cfg);
        }
    }
    let mut runs = run_pool(name, "simulations", &labels, threads, |i| {
        Simulation::new(cfgs[i].clone()).finish()
    })
    .into_iter();
    trials
        .iter()
        .map(|(_, cfgs)| runs.by_ref().take(cfgs.len()).collect())
        .collect()
}

/// Runs every trial of a sweep on `threads` workers and returns, in grid
/// order, each trial's record plus its drained trace dump and timeline
/// dump (each `None` unless the trial's config enabled it). This is the
/// executor's full-fidelity entry point; [`run_sweep_traced`] and
/// [`run_sweep_named`] are narrower views.
#[must_use]
pub fn run_sweep_instrumented(
    name: &str,
    sweep: Sweep,
    threads: usize,
) -> Vec<(RunRecord, Option<TraceDump>, Option<TimelineDump>)> {
    let trials = sweep.into_trials();
    let jobs: Vec<(String, Vec<ClusterConfig>)> = trials
        .iter()
        .map(|t| (t.label.clone(), vec![t.cfg.clone()]))
        .collect();
    let runs = run_simulations(name, &jobs, threads);
    trials
        .into_iter()
        .zip(runs)
        .map(|(trial, mut runs)| {
            let run = runs.pop().expect("one simulation per solo trial");
            let record =
                RunRecord::from_stats(trial.index, trial.label, trial.cfg.model, &run.stats);
            (record, run.trace, run.timeline)
        })
        .collect()
}

/// [`run_sweep_instrumented`] without the timeline dumps.
#[must_use]
pub fn run_sweep_traced(
    name: &str,
    sweep: Sweep,
    threads: usize,
) -> Vec<(RunRecord, Option<TraceDump>)> {
    run_sweep_instrumented(name, sweep, threads)
        .into_iter()
        .map(|(record, trace, _)| (record, trace))
        .collect()
}

/// Runs every trial of a sweep on `threads` workers and returns the
/// records in grid order (index `i` of the result is trial `i` of the
/// sweep, regardless of which worker ran it or when it finished).
///
/// Progress is reported on stderr as `[name] trial k/N <label> (t s)`
/// plus a closing total; stdout is never touched.
#[must_use]
pub fn run_sweep_named(name: &str, sweep: Sweep, threads: usize) -> Vec<RunRecord> {
    run_sweep_traced(name, sweep, threads)
        .into_iter()
        .map(|(record, _)| record)
        .collect()
}

/// [`run_sweep_named`] with an anonymous progress prefix.
#[must_use]
pub fn run_sweep(sweep: Sweep, threads: usize) -> Vec<RunRecord> {
    run_sweep_named("sweep", sweep, threads)
}

/// The per-binary facade every bench bin runs through: parses the shared
/// flags, owns the optional JSON-lines writer, applies `--quick`, and
/// reports total wall-clock on exit.
///
/// ```no_run
/// use ddp_core::ClusterConfig;
/// use ddp_harness::{Harness, Sweep};
///
/// let mut harness = Harness::from_env("fig6");
/// let records = harness.run(Sweep::grid25(ClusterConfig::micro21));
/// // ... print tables from `records` ...
/// harness.finish();
/// ```
#[derive(Debug)]
pub struct Harness {
    name: &'static str,
    args: HarnessArgs,
    writer: Option<JsonLinesWriter>,
    csv_writer: Option<CsvWriter>,
    trace_writer: Option<JsonLinesWriter>,
    timeline_writer: Option<JsonLinesWriter>,
    started: Stopwatch,
}

impl Harness {
    /// Builds a harness from already-parsed arguments.
    ///
    /// # Panics
    ///
    /// Panics if the `--json`, `--csv`, or `--trace` path cannot be
    /// created.
    #[must_use]
    pub fn new(name: &'static str, args: HarnessArgs) -> Self {
        let writer = args.json.as_ref().map(|path| {
            JsonLinesWriter::create(path)
                .unwrap_or_else(|e| panic!("cannot create --json {}: {e}", path.display()))
        });
        let csv_writer = args.csv.as_ref().map(|path| {
            CsvWriter::create(path)
                .unwrap_or_else(|e| panic!("cannot create --csv {}: {e}", path.display()))
        });
        let trace_writer = args.trace.as_ref().map(|path| {
            JsonLinesWriter::create(path)
                .unwrap_or_else(|e| panic!("cannot create --trace {}: {e}", path.display()))
        });
        let timeline_writer = args.timeline.as_ref().map(|path| {
            JsonLinesWriter::create(path)
                .unwrap_or_else(|e| panic!("cannot create --timeline {}: {e}", path.display()))
        });
        Harness {
            name,
            args,
            writer,
            csv_writer,
            trace_writer,
            timeline_writer,
            started: Stopwatch::start(),
        }
    }

    /// Parses the process arguments; on a parse error prints the usage to
    /// stderr and exits with status 2.
    #[must_use]
    pub fn from_env(name: &'static str) -> Self {
        match HarnessArgs::from_env() {
            Ok(args) => Harness::new(name, args),
            Err(e) => {
                eprintln!("{name}: {e}\n{}", HarnessArgs::usage(name));
                std::process::exit(2);
            }
        }
    }

    /// The parsed flags.
    #[must_use]
    pub fn args(&self) -> &HarnessArgs {
        &self.args
    }

    /// Applies the shared flags to one trial config: `--quick` shortens
    /// the run, `--store` swaps the store backend, and `--trace` /
    /// `--timeline` (with `--trace-sample` / `--window-ns`) enable the
    /// corresponding instrumentation. [`Harness::run`] applies it to every
    /// trial; fleet sweeps apply it to each trial's base config (see
    /// [`Harness::run_fleet`]).
    #[must_use]
    pub fn configure(&self, cfg: ClusterConfig) -> ClusterConfig {
        let args = &self.args;
        let mut cfg = if args.quick { cfg.quick() } else { cfg };
        if let Some(kind) = args.store {
            cfg = cfg.with_store(kind);
        }
        if args.trace.is_some() || args.timeline.is_some() {
            let mut trace_cfg = if args.trace.is_some() {
                ddp_core::TraceConfig::enabled()
            } else {
                ddp_core::TraceConfig::default()
            };
            if let Some(ns) = args.trace_sample {
                trace_cfg = trace_cfg.with_sample_interval(ddp_sim::Duration::from_nanos(ns));
            }
            if args.timeline.is_some() {
                let ns = args.window_ns.unwrap_or(DEFAULT_WINDOW_NS);
                trace_cfg = trace_cfg.with_timeline(ddp_sim::Duration::from_nanos(ns));
            }
            cfg = cfg.with_trace(trace_cfg);
        }
        cfg
    }

    /// Runs one sweep: applies [`Harness::configure`] to every trial,
    /// executes on `--threads` workers, appends every record to the
    /// `--json`/`--csv` streams, every trial's event stream to the
    /// `--trace` stream, and every trial's window rows to the
    /// `--timeline` stream, and returns the records in grid order.
    pub fn run(&mut self, sweep: Sweep) -> Vec<RunRecord> {
        let sweep = sweep.map_cfg(|cfg| self.configure(cfg));
        let results = run_sweep_instrumented(self.name, sweep, self.args.threads);
        let mut records = Vec::with_capacity(results.len());
        for (record, trace, timeline) in results {
            if let Some(dump) = &trace {
                self.write_trace(record.index, None, &record.label, dump);
            }
            if let Some(dump) = &timeline {
                self.write_timeline(record.index, None, &record.label, dump);
            }
            records.push(record);
        }
        if let Some(writer) = &mut self.writer {
            writer
                .write_records(&records)
                .expect("writing --json records");
        }
        if let Some(writer) = &mut self.csv_writer {
            writer
                .write_records(&records)
                .expect("writing --csv records");
        }
        records
    }

    /// Runs one fleet sweep, the sharded counterpart of [`Harness::run`]:
    /// executes on `--threads` workers, appends one `fleet_record` line
    /// per trial to the `--json` stream, and each shard's event and window
    /// streams (led by a `shard` column) to `--trace` / `--timeline`.
    ///
    /// Build each trial's base config with [`Harness::configure`]: fleet
    /// totals may be derived from the flagged config (weak scaling
    /// multiplies the `--quick` quotas), so the flags cannot be applied
    /// after the fact. `--csv` does not cover fleet records.
    pub fn run_fleet(&mut self, sweep: FleetSweep) -> Vec<FleetRecord> {
        let results = run_fleet_sweep_instrumented(self.name, sweep, self.args.threads);
        let mut records = Vec::with_capacity(results.len());
        for (record, traces, timelines) in results {
            for (shard, dump) in &traces {
                self.write_trace(record.index, Some(*shard), &record.label, dump);
            }
            for (shard, dump) in &timelines {
                self.write_timeline(record.index, Some(*shard), &record.label, dump);
            }
            self.emit_json_line(&fleet_record_to_json(&record));
            records.push(record);
        }
        records
    }

    /// Appends one simulation's event stream and its trailer to the
    /// `--trace` stream (a no-op without `--trace`).
    fn write_trace(&mut self, trial: usize, shard: Option<u16>, label: &str, dump: &TraceDump) {
        if let Some(writer) = &mut self.trace_writer {
            for event in &dump.events {
                writer
                    .write_line(&trace_event_to_json(trial, shard, event))
                    .expect("writing --trace event");
            }
            writer
                .write_line(&trace_end_to_json(trial, shard, label, dump))
                .expect("writing --trace trailer");
        }
    }

    /// Appends one simulation's window rows and their trailer to the
    /// `--timeline` stream (a no-op without `--timeline`).
    fn write_timeline(
        &mut self,
        trial: usize,
        shard: Option<u16>,
        label: &str,
        dump: &TimelineDump,
    ) {
        if let Some(writer) = &mut self.timeline_writer {
            for (k, w) in dump.windows.iter().enumerate() {
                writer
                    .write_line(&timeline_window_to_json(trial, shard, k, w))
                    .expect("writing --timeline window");
            }
            writer
                .write_line(&timeline_end_to_json(trial, shard, label, dump))
                .expect("writing --timeline trailer");
        }
    }

    /// Runs one sweep under `--seeds N` replication: every trial runs once
    /// per derived seed (replica 0 unchanged, so `--seeds 1` is exactly
    /// [`Harness::run`]), all `cells × N` records flow to the
    /// `--json`/`--csv` streams, and one `seed_aggregate` JSON line per
    /// original cell (mean, stddev, min, max of the headline metrics)
    /// follows the records. Returns the flat seed-major records plus the
    /// per-cell aggregates.
    pub fn run_seeded(&mut self, sweep: Sweep) -> (Vec<RunRecord>, Vec<SeedAggregate>) {
        let seeds = self.args.seeds.max(1);
        let cells = sweep.len();
        let records = self.run(crate::seeds::replicate(&sweep, seeds));
        let aggregates = crate::seeds::aggregate_records(&records, cells, seeds);
        if self.writer.is_some() {
            for a in &aggregates {
                let line = crate::seeds::aggregate_to_json(a);
                self.emit_json_line(&line);
            }
        }
        (records, aggregates)
    }

    /// Writes one extra pre-serialized JSON line (for derived, non-sweep
    /// rows such as Table 4's). A no-op without `--json`.
    pub fn emit_json_line(&mut self, json: &str) {
        if let Some(writer) = &mut self.writer {
            writer.write_line(json).expect("writing --json line");
        }
    }

    /// Flushes the output streams and reports the bin's total wall-clock
    /// to stderr.
    pub fn finish(mut self) {
        if let Some(writer) = &mut self.writer {
            writer.flush().expect("flushing --json stream");
            eprintln!(
                "[{}] wrote {} JSON-lines record(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.csv_writer {
            writer.flush().expect("flushing --csv stream");
            eprintln!(
                "[{}] wrote {} CSV row(s) to {}",
                self.name,
                writer.rows(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.trace_writer {
            writer.flush().expect("flushing --trace stream");
            eprintln!(
                "[{}] wrote {} trace line(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        if let Some(writer) = &mut self.timeline_writer {
            writer.flush().expect("flushing --timeline stream");
            eprintln!(
                "[{}] wrote {} timeline line(s) to {}",
                self.name,
                writer.lines(),
                writer.path().display()
            );
        }
        eprintln!(
            "[{}] total wall-clock {:.2}s",
            self.name,
            self.started.elapsed_secs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::DdpModel;

    fn tiny_grid() -> Sweep {
        Sweep::grid25(|m| {
            let mut cfg = ClusterConfig::micro21(m).quick();
            cfg.warmup_requests = 20;
            cfg.measured_requests = 150;
            cfg
        })
    }

    #[test]
    fn records_come_back_in_grid_order() {
        let records = run_sweep(tiny_grid(), 4);
        assert_eq!(records.len(), DdpModel::COUNT);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.model.grid_index(), i);
            assert!(
                r.summary.throughput > 0.0,
                "{} produced no throughput",
                r.model
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sequential = run_sweep(tiny_grid(), 1);
        let parallel = run_sweep(tiny_grid(), 4);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_sweep_is_a_noop() {
        assert!(run_sweep(Sweep::new(), 8).is_empty());
    }

    #[test]
    fn store_override_reaches_every_trial() {
        use ddp_core::StoreKind;
        let mut args = HarnessArgs::sequential();
        args.store = Some(StoreKind::Lsm);
        let mut h = Harness::new("exec-test", args);
        let flagged = h.run(tiny_grid());
        let explicit = run_sweep(tiny_grid().map_cfg(|c| c.with_store(StoreKind::Lsm)), 1);
        assert_eq!(flagged, explicit);
    }

    #[test]
    fn store_override_reaches_every_fleet_trial() {
        use crate::fleet::run_fleet_sweep;
        use ddp_core::{CompactionConfig, FleetConfig, StoreKind};
        // A memtable small enough that LSM shards seal even on tiny runs.
        let churn = CompactionConfig {
            memtable_entries: 16,
            ..CompactionConfig::default()
        };
        let fleet = |flags: &dyn Fn(ClusterConfig) -> ClusterConfig| {
            let mut sweep = FleetSweep::new();
            for trial in tiny_grid().into_trials().into_iter().step_by(6) {
                let base = flags(trial.cfg.with_compaction(churn));
                sweep.push(trial.label, FleetConfig::new(base, 2));
            }
            sweep
        };
        let mut args = HarnessArgs::sequential();
        args.store = Some(StoreKind::Lsm);
        let mut h = Harness::new("exec-test", args);
        let sweep = fleet(&|c| h.configure(c));
        let flagged = h.run_fleet(sweep);
        let explicit = run_fleet_sweep("exec-test", fleet(&|c| c.with_store(StoreKind::Lsm)), 1);
        assert_eq!(flagged, explicit);
        assert!(flagged.iter().any(|r| r.summary.lsm_seals > 0));
    }
}
