//! Table presentation and baseline-normalization helpers.
//!
//! Moved here from `ddp-bench`'s lib so the bench crate can stay a set of
//! thin binaries: every figure prints through the same row/rule/bar
//! primitives, labels its persistency columns once, and normalizes through
//! the same ratio helpers. The sensitivity figures (7–9) share one sweep
//! and print loop, [`sensitivity_figure`].

use ddp_core::{ClusterConfig, Consistency, DdpModel, Persistency};

use crate::{Harness, Sweep};

/// Prints one table row: a label plus values formatted to two decimals.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:<28}");
    for v in values {
        print!(" {v:>8.2}");
    }
    println!();
}

/// The column label of a persistency model in the figure tables.
fn persistency_label(p: Persistency) -> &'static str {
    match p {
        Persistency::Strict => "Strict",
        Persistency::Synchronous => "Sync",
        Persistency::ReadEnforced => "RdEnf",
        Persistency::Scope => "Scope",
        Persistency::Eventual => "Evntl",
    }
}

/// Prints the header of a table with one column per persistency model,
/// in [`Persistency::ALL`] order.
pub fn print_persistency_header() {
    print!("{:<28}", "");
    for p in Persistency::ALL {
        print!(" {:>8}", persistency_label(p));
    }
    println!();
}

/// Prints a rule line sized to `cols` value columns.
pub fn print_rule(cols: usize) {
    println!("{}", "-".repeat(28 + 9 * cols));
}

/// An ASCII bar for quick visual comparison (one '#' per 0.1 units).
#[must_use]
pub fn bar(value: f64) -> String {
    let n = (value * 10.0).round().clamp(0.0, 80.0) as usize;
    "#".repeat(n.max(1))
}

/// `value / base`, with a zero baseline mapping to 0 rather than a NaN —
/// the figure convention for "normalized to `<Linearizable, Synchronous>`".
#[must_use]
pub fn ratio(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        value / base
    }
}

/// Normalizes a slice of values to a baseline via [`ratio`].
#[must_use]
pub fn normalized(values: &[f64], base: f64) -> Vec<f64> {
    values.iter().map(|&v| ratio(v, base)).collect()
}

/// One point on a sensitivity figure's axis.
#[derive(Clone, Debug)]
pub struct AxisPoint<T> {
    /// Appended to each trial's model name in its label (`clients=10`).
    pub label: String,
    /// The heading of the point's rows (`10 clients`).
    pub heading: String,
    /// The axis value the point's configs are built from.
    pub value: T,
}

/// Runs and prints a sensitivity figure (Figures 7–9): Linearizable and
/// Causal consistency with all five persistency models at every point of
/// one axis, each cell's throughput normalized to `<Linearizable,
/// Synchronous>` at `points[baseline]`. `config` builds a model's cell at
/// an axis value. Prints the column header, one section per point and a
/// closing rule.
///
/// # Panics
///
/// Panics if `baseline` is not an index into `points`.
pub fn sensitivity_figure<T>(
    harness: &mut Harness,
    points: &[AxisPoint<T>],
    baseline: usize,
    config: impl Fn(DdpModel, &T) -> ClusterConfig,
) {
    const CONSISTENCY: [Consistency; 2] = [Consistency::Linearizable, Consistency::Causal];
    // Trial index of `(point, consistency, persistency)` in the sweep grid.
    let idx = |point: usize, cons: usize, p: Persistency| {
        (point * CONSISTENCY.len() + cons) * Persistency::ALL.len() + p.index()
    };
    let mut sweep = Sweep::new();
    for point in points {
        for c in CONSISTENCY {
            for p in Persistency::ALL {
                let model = DdpModel::new(c, p);
                sweep.push(
                    format!("{model} {}", point.label),
                    config(model, &point.value),
                );
            }
        }
    }
    let records = harness.run(sweep);
    // The baseline <Lin, Sync> is part of the grid.
    let base = records[idx(baseline, 0, Persistency::Synchronous)]
        .summary
        .throughput;

    print_persistency_header();
    for (pi, point) in points.iter().enumerate() {
        println!("--- {} ---", point.heading);
        for (ci, c) in CONSISTENCY.into_iter().enumerate() {
            let values: Vec<f64> = Persistency::ALL
                .iter()
                .map(|&p| ratio(records[idx(pi, ci, p)].summary.throughput, base))
                .collect();
            print_row(&c.to_string(), &values);
        }
    }
    print_rule(5);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(1.0).len(), 10);
        assert_eq!(bar(3.3).len(), 33);
        assert_eq!(bar(0.0).len(), 1);
        assert_eq!(bar(100.0).len(), 80);
    }

    #[test]
    fn ratio_guards_zero_baseline() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn normalized_maps_every_value() {
        assert_eq!(normalized(&[1.0, 2.0, 4.0], 2.0), vec![0.5, 1.0, 2.0]);
    }
}
