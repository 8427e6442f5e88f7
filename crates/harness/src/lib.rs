//! # ddp-harness — the sweep layer of the DDP evaluation stack
//!
//! The paper's entire evaluation (Figures 6–9, Tables 1/4, the §8 prose
//! statistics, and the fault sweeps) is a grid of *independent* seeded
//! simulations. This crate factors that shape out of the individual bench
//! binaries into three layers:
//!
//! 1. **Sweep model** ([`Sweep`], [`Trial`], [`ModelGrid`]) — declare the
//!    grid once; results come back as [`RunRecord`]s addressable by grid
//!    index (O(1), replacing per-figure `iter().find(...)` scans).
//! 2. **Parallel deterministic executor** ([`run_sweep`], [`Harness`]) —
//!    a work-queue over `std::thread::scope` with `--threads N` /
//!    `DDP_THREADS` control. Records are written into index-keyed slots
//!    and contain only simulation output, so stdout tables and JSON
//!    streams are **byte-identical regardless of thread count or
//!    completion order**; progress goes to stderr.
//! 3. **Structured output + presentation** ([`JsonLinesWriter`],
//!    [`record_to_json`], [`print_row`]/[`print_rule`]/[`bar`],
//!    [`ratio`]/[`normalized`]) — a hand-rolled JSON-lines writer (the
//!    build is offline; no serde) behind `--json PATH`, a CSV twin behind
//!    `--csv PATH` that walks the same [`record_fields`] schema (the two
//!    formats cannot drift), per-trial trace event streams behind
//!    `--trace PATH`, per-window timeline rows behind `--timeline PATH` /
//!    `--window-ns NS`, plus the table helpers every figure prints
//!    through.
//!
//! ```
//! use ddp_core::{ClusterConfig, DdpModel};
//! use ddp_harness::{run_sweep, ModelGrid, Sweep};
//!
//! let sweep = Sweep::grid25(|m| {
//!     let mut cfg = ClusterConfig::micro21(m).quick();
//!     cfg.warmup_requests = 20;
//!     cfg.measured_requests = 200;
//!     cfg
//! });
//! let records = run_sweep(sweep, 4);
//! let grid = ModelGrid::new(&records);
//! assert!(grid.baseline().summary.throughput > 0.0);
//! ```

#![warn(missing_docs)]

pub mod args;
pub mod csv;
pub mod exec;
pub mod fields;
pub mod fleet;
pub mod json;
pub mod progress;
pub mod record;
pub mod seeds;
pub mod sweep;
pub mod table;
pub mod timeline;
pub mod trace;

pub use args::{default_threads, HarnessArgs};
pub use csv::{csv_header, escape_csv, record_to_csv, CsvWriter};
pub use exec::{run_sweep, run_sweep_instrumented, run_sweep_named, run_sweep_traced, Harness};
pub use fields::{record_fields, FieldValue};
pub use fleet::{
    fleet_record_to_json, run_fleet_sweep, run_fleet_sweep_instrumented, FleetRecord, FleetSweep,
    FleetTrial,
};
pub use json::{escape_json, json_f64, record_to_json, unescape_json, JsonLinesWriter, JsonObject};
pub use progress::{available_threads, run_pool, Stopwatch};
pub use record::RunRecord;
pub use seeds::{
    aggregate_records, aggregate_to_json, replicate, reseed, run_sweep_seeded, SeedAggregate,
    SeedStat,
};
pub use sweep::{ModelGrid, Sweep, Trial};
pub use table::{
    bar, normalized, print_persistency_header, print_row, print_rule, ratio, sensitivity_figure,
    AxisPoint,
};
pub use timeline::{timeline_end_to_json, timeline_window_to_json};
pub use trace::{trace_end_to_json, trace_event_to_json};

use ddp_core::{ClusterConfig, DdpModel, RunSummary, Simulation};

/// Compile-time `Send` witness: calling this with a type is a static
/// assertion that the type can cross the executor's thread boundary.
pub const fn assert_send<T: Send>() {}

// The executor moves simulations, configurations, and records across
// worker threads; if any of them ever grows a non-Send field (an `Rc`, a
// raw pointer, a thread-local handle), the build fails here rather than
// deep inside `std::thread::scope`.
const _: () = {
    assert_send::<Simulation>();
    assert_send::<ClusterConfig>();
    assert_send::<RunRecord>();
    assert_send::<RunSummary>();
    assert_send::<Sweep>();
    assert_send::<ddp_core::FleetSimulation>();
    assert_send::<ddp_core::FleetConfig>();
    assert_send::<FleetRecord>();
    assert_send::<FleetSweep>();
};

/// The experiment length used by the figure harnesses. Large enough for
/// stable ratios, small enough that a full figure regenerates in seconds.
#[must_use]
pub fn figure_config(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 2_000;
    cfg.measured_requests = 20_000;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_config_lengths() {
        let cfg = figure_config(DdpModel::baseline());
        assert_eq!(cfg.measured_requests, 20_000);
    }

    #[test]
    fn simulation_is_send() {
        // Mirrors the const assertion above in a named test so the suite
        // documents the property explicitly.
        assert_send::<Simulation>();
    }
}
