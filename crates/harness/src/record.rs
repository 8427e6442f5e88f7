//! The per-trial result record the executor produces.

use ddp_core::{DdpModel, RunStats, RunSummary, Simulation};

/// One completed trial: the grid position, the model, and the condensed
/// summary (metrics, fault/transaction counters and the run length).
///
/// Records are pure simulation output — no host wall-clock, no thread
/// ids — so a sweep's record stream is byte-identical no matter how many
/// executor threads produced it or in which order trials finished.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Position of the trial in its sweep (stable under parallelism).
    pub index: usize,
    /// The trial's label.
    pub label: String,
    /// The DDP model that ran.
    pub model: DdpModel,
    /// Condensed metrics and counters (what the figures plot).
    pub summary: RunSummary,
}

impl RunRecord {
    /// A default-valued record used where only the field *shape* matters
    /// (e.g. deriving the CSV header from the shared field schema).
    #[must_use]
    pub fn empty_schema_probe() -> Self {
        RunRecord {
            index: 0,
            label: String::new(),
            model: DdpModel::baseline(),
            summary: RunSummary::from_stats(&RunStats::default()),
        }
    }

    /// Condenses one finished run of `model` into a record.
    #[must_use]
    pub(crate) fn from_stats(
        index: usize,
        label: String,
        model: DdpModel,
        stats: &RunStats,
    ) -> Self {
        RunRecord {
            index,
            label,
            model,
            summary: RunSummary::from_stats(stats),
        }
    }

    /// Condenses one simulation into a record, running it first if it has
    /// not run yet.
    #[must_use]
    pub fn from_simulation(index: usize, label: String, sim: &mut Simulation) -> Self {
        let report = sim.run();
        Self::from_stats(index, label, report.model, sim.cluster().stats())
    }
}
