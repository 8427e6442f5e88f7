//! The declarative sweep model: a grid of independent trials.
//!
//! Every table and figure of the paper is a grid of independent
//! simulations — 25 DDP models, times workloads, client counts, RTTs,
//! loss rates, store backends. A [`Sweep`] declares that grid once; the
//! executor in [`crate::exec`] runs it (in parallel, deterministically)
//! and hands back one [`RunRecord`] per trial, in declaration order,
//! addressable by grid index.

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};

use crate::record::RunRecord;

/// One independent simulation in a sweep: a label, the model under test,
/// and the full configuration to run.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Position in the sweep (stable: results carry the same index).
    pub index: usize,
    /// Human-readable label, echoed in progress lines and JSON records.
    pub label: String,
    /// The experiment configuration.
    pub cfg: ClusterConfig,
}

/// A declarative grid of independent trials, built once and handed to the
/// executor.
///
/// # Examples
///
/// ```
/// use ddp_core::{ClusterConfig, DdpModel};
/// use ddp_harness::Sweep;
///
/// // The Figure 6 shape: all 25 models in the paper's grid order.
/// let sweep = Sweep::grid25(|m| ClusterConfig::micro21(m).quick());
/// assert_eq!(sweep.len(), 25);
/// assert_eq!(sweep.trials()[1].cfg.model, DdpModel::baseline());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    trials: Vec<Trial>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Appends one trial; returns its grid index.
    pub fn push(&mut self, label: impl Into<String>, cfg: ClusterConfig) -> usize {
        let index = self.trials.len();
        self.trials.push(Trial {
            index,
            label: label.into(),
            cfg,
        });
        index
    }

    /// Builder-style [`Sweep::push`].
    #[must_use]
    pub fn trial(mut self, label: impl Into<String>, cfg: ClusterConfig) -> Self {
        self.push(label, cfg);
        self
    }

    /// The full 25-model grid in the paper's consistency-major order, one
    /// trial per DDP model, configured by `configure`. Results from this
    /// sweep can be viewed through [`ModelGrid`] for O(1) per-model lookup.
    #[must_use]
    pub fn grid25(mut configure: impl FnMut(DdpModel) -> ClusterConfig) -> Self {
        let mut sweep = Sweep::new();
        for model in DdpModel::all() {
            sweep.push(model.to_string(), configure(model));
        }
        sweep
    }

    /// Applies a configuration transform to every trial (e.g. shrinking
    /// request counts for a smoke run).
    #[must_use]
    pub fn map_cfg(mut self, mut f: impl FnMut(ClusterConfig) -> ClusterConfig) -> Self {
        for t in &mut self.trials {
            t.cfg = f(t.cfg.clone());
        }
        self
    }

    /// Number of trials in the sweep.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// True if the sweep holds no trials.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The declared trials, in grid order.
    #[must_use]
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Consumes the sweep into its trials (the executor's entry point).
    #[must_use]
    pub fn into_trials(self) -> Vec<Trial> {
        self.trials
    }
}

/// An indexed view over the records of a [`Sweep::grid25`] run: O(1)
/// lookup by model, replacing the old `results.iter().find(...)` scans.
///
/// # Examples
///
/// ```
/// use ddp_core::{ClusterConfig, DdpModel};
/// use ddp_harness::{run_sweep, ModelGrid, Sweep};
///
/// let mut cfg = |m: DdpModel| {
///     let mut c = ClusterConfig::micro21(m).quick();
///     c.warmup_requests = 20;
///     c.measured_requests = 200;
///     c
/// };
/// let records = run_sweep(Sweep::grid25(&mut cfg), 2);
/// let grid = ModelGrid::new(&records);
/// assert_eq!(grid.baseline().model, DdpModel::baseline());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ModelGrid<'a> {
    records: &'a [RunRecord],
}

impl<'a> ModelGrid<'a> {
    /// Wraps the records of a 25-model grid sweep.
    ///
    /// # Panics
    ///
    /// Panics if `records` is not a full grid in [`DdpModel::grid_index`]
    /// order (the shape [`Sweep::grid25`] produces).
    #[must_use]
    pub fn new(records: &'a [RunRecord]) -> Self {
        assert_eq!(records.len(), DdpModel::COUNT, "expected a 25-model grid");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.model.grid_index(), i, "record {i} out of grid order");
        }
        ModelGrid { records }
    }

    /// The record for one DDP model.
    #[must_use]
    pub fn model(&self, model: DdpModel) -> &'a RunRecord {
        &self.records[model.grid_index()]
    }

    /// The record for a `<consistency, persistency>` pair.
    #[must_use]
    pub fn get(&self, c: Consistency, p: Persistency) -> &'a RunRecord {
        self.model(DdpModel::new(c, p))
    }

    /// The `<Linearizable, Synchronous>` record every figure normalizes to.
    #[must_use]
    pub fn baseline(&self) -> &'a RunRecord {
        self.model(DdpModel::baseline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid25_is_in_paper_order() {
        let sweep = Sweep::grid25(|m| ClusterConfig::micro21(m).quick());
        assert_eq!(sweep.len(), DdpModel::COUNT);
        for (i, t) in sweep.trials().iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!(t.cfg.model.grid_index(), i);
            assert_eq!(t.label, t.cfg.model.to_string());
        }
    }

    #[test]
    fn push_assigns_stable_indices() {
        let mut sweep = Sweep::new();
        let a = sweep.push("a", ClusterConfig::micro21(DdpModel::baseline()));
        let b = sweep.push("b", ClusterConfig::micro21(DdpModel::baseline()));
        assert_eq!((a, b), (0, 1));
        assert_eq!(sweep.trials()[1].label, "b");
    }

    #[test]
    fn map_cfg_transforms_every_trial() {
        let sweep = Sweep::grid25(ClusterConfig::micro21).map_cfg(ClusterConfig::quick);
        assert!(sweep
            .trials()
            .iter()
            .all(|t| t.cfg.measured_requests == 2_000));
    }
}
