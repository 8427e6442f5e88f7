//! The untraced run: end-to-end metrics.
//!
//! A run first makes one serial pass over the workload's cells with event
//! recording on, which counts the events each cell dispatches. It then
//! repeats untraced passes until `--seconds` would be exceeded and reports
//! medians over them. Every pass runs the same configurations, so every
//! pass, the counting one included, must produce the same records.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ddp_core::{FleetSimulation, TraceConfig};
use ddp_harness::{fleet_record_to_json, run_fleet_sweep, FleetSweep};

use crate::exec::{check_fleet, now, panic_message, run_cell, Interval};
use crate::results::{records_digest, Metric, RunResult};
use crate::stats::median;
use crate::workloads::{Cell, Workload, FLEET_THREADS};

/// Set-up repetitions for the fleet workload, whose executor builds its
/// simulations out of sight.
const FLEET_SETUP_REPS: usize = 5;

/// Trace ring of the counting pass: only the newest record's sequence
/// number is read, so a small ring is enough and adds no memory.
const COUNT_RING: usize = 1 << 10;

/// One pass over every cell of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time of the whole pass.
    pub wall_s: f64,
    /// Host time spent building simulations (`NaN` for fleet passes).
    pub setup_s: f64,
    /// Host time spent running simulations (the sweep's wall time for
    /// fleet passes).
    pub run_s: f64,
    /// The record JSON lines, one per cell; a failed cell leaves a marker.
    pub lines: Vec<String>,
    pub failed: u64,
    /// Events the cells dispatched, when the pass counted them and every
    /// cell ran.
    pub events: Option<u64>,
}

impl Pass {
    pub fn digest(&self) -> u64 {
        records_digest(self.lines.iter().map(String::as_str))
    }
}

/// Runs one untraced pass: cell by cell on this thread, or through the
/// harness fleet executor on `threads` workers.
pub fn run_pass(w: &Workload, threads: usize) -> Pass {
    if w.is_fleet() {
        fleet_pass(w, threads)
    } else {
        serial_pass(w, false)
    }
}

/// Runs every cell one after another on this thread; with `count_events`,
/// each with event recording on.
fn serial_pass(w: &Workload, count_events: bool) -> Pass {
    let started = now();
    let mut pass = Pass {
        wall_s: 0.0,
        setup_s: 0.0,
        run_s: 0.0,
        lines: Vec::with_capacity(w.cells.len()),
        failed: 0,
        events: count_events.then_some(0),
    };
    for (i, (label, cell)) in w.cells.iter().enumerate() {
        let counted;
        let cell = if count_events {
            counted = cell.with_trace(TraceConfig {
                events: true,
                ring_capacity: COUNT_RING,
                ..cell.base().trace
            });
            &counted
        } else {
            cell
        };
        match run_cell(i, label, cell) {
            Ok(r) => {
                pass.setup_s += r.new.secs();
                pass.run_s += r.run.secs();
                pass.lines.push(r.line);
                pass.events = pass.events.zip(r.events).map(|(a, b)| a + b);
            }
            Err(e) => fail(&mut pass, label, &e),
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn fleet_pass(w: &Workload, threads: usize) -> Pass {
    let mut sweep = FleetSweep::new();
    for (label, cell) in &w.cells {
        if let Cell::Fleet(cfg) = cell {
            sweep.push(label.clone(), cfg.clone());
        }
    }
    let started = now();
    let records = catch_unwind(AssertUnwindSafe(|| run_fleet_sweep(w.name, sweep, threads)));
    let run_s = started.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall_s: 0.0,
        setup_s: f64::NAN,
        run_s,
        lines: Vec::with_capacity(w.cells.len()),
        failed: 0,
        events: None,
    };
    match records {
        Ok(records) => {
            for (rec, (label, cell)) in records.iter().zip(&w.cells) {
                let Cell::Fleet(cfg) = cell else { continue };
                pass.lines.push(fleet_record_to_json(rec));
                if let Err(e) = check_fleet(rec, cfg) {
                    pass.failed += 1;
                    eprintln!("[{}] {label}: {e}", w.name);
                }
            }
        }
        Err(panic) => {
            for (label, _) in &w.cells {
                fail(&mut pass, label, &panic_message(&*panic));
            }
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

fn fail(pass: &mut Pass, label: &str, why: &str) {
    eprintln!("FAILED {label}: {why}");
    pass.failed += 1;
    pass.lines.push(format!("failed {label}"));
    pass.events = None;
}

/// Host time to build every fleet of the workload, repeated; `None` if a
/// build panicked.
fn fleet_setup_samples(w: &Workload) -> Option<Vec<f64>> {
    catch_unwind(AssertUnwindSafe(|| {
        (0..FLEET_SETUP_REPS)
            .map(|_| {
                w.cells
                    .iter()
                    .filter_map(|(_, cell)| match cell {
                        Cell::Fleet(cfg) => Some(
                            Interval::time(|| FleetSimulation::new(cfg.clone()))
                                .1
                                .secs(),
                        ),
                        Cell::Solo(_) => None,
                    })
                    .sum()
            })
            .collect()
    }))
    .ok()
}

/// The end-to-end run of workload `w` for about `seconds` of host time.
pub fn measure(w: &Workload, seed: u64, seconds: f64) -> RunResult {
    let started = now();
    let counting = serial_pass(w, true);
    let fleet_setup = w.is_fleet().then(|| fleet_setup_samples(w));
    // The memory of one cell at a time: fleet passes run cells in parallel.
    let serial_peak_rss = w.is_fleet().then(peak_rss_mib);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(w, FLEET_THREADS);
        let wall = pass.wall_s;
        eprintln!(
            "[{}] pass {} {:.3}s failed={}",
            w.name,
            passes.len() + 1,
            wall,
            pass.failed
        );
        passes.push(pass);
        if started.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    let digest = counting.digest();
    let cells = w.cells.len() as u64;
    let mut failed = counting.failed;
    for (k, p) in passes.iter().enumerate() {
        if p.digest() == digest {
            failed += p.failed;
        } else {
            eprintln!(
                "[{}] pass {} records differ from the counting pass",
                w.name,
                k + 1
            );
            failed += cells;
        }
    }
    let setup = match &fleet_setup {
        Some(Some(samples)) => median(samples),
        Some(None) => {
            failed += cells;
            f64::NAN
        }
        None => median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()),
    };
    let events = counting.events.map_or(f64::NAN, |e| e as f64);
    let of = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("wall_s", of(&|p| p.wall_s), "s"),
        Metric::new("setup_s", setup, "s"),
        Metric::new("sim_events_per_s", of(&|p| events / p.run_s), "events/s"),
        Metric::new(
            "peak_rss_mb",
            serial_peak_rss.unwrap_or_else(peak_rss_mib),
            "MiB",
        ),
    ];
    RunResult {
        workload: w.name.to_string(),
        seed,
        traced: false,
        passes: passes.len() as u64,
        attempted: cells * (passes.len() as u64 + 1),
        failed,
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        records_digest: digest,
        metrics,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; `NaN`
/// where the kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}
