//! `--compare BASE NEW`: the regression verdict between two sets of runs.

use std::path::Path;

use crate::json::Json;
use crate::results::RunResult;
use crate::stats::{median, quartiles, relative_iqr};
use crate::workloads::NAMES;

/// Where the benchmark's metric bounds live.
pub const SPEC_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Pairs needed before a gain can be claimed.
const MIN_PAIRS: usize = 10;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_spec() -> Result<Json, String> {
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))
}

/// The `end_to_end` metrics of `BENCHMARK.json`.
pub fn load_end_to_end() -> Result<Vec<MetricSpec>, String> {
    let v = read_spec()?;
    let text_of = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{SPEC_PATH}: metric without {k}"))
    };
    let mut end_to_end = Vec::new();
    let list = v.get("end_to_end").and_then(Json::as_arr);
    for m in list.ok_or(format!("{SPEC_PATH}: no end_to_end list"))? {
        end_to_end.push(MetricSpec {
            name: text_of(m, "name")?,
            unit: text_of(m, "unit")?,
            lower_is_better: text_of(m, "better")? == "lower",
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or(format!("{SPEC_PATH}: metric without bound"))?,
        });
    }
    Ok(end_to_end)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoChange,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric of one workload. `base[i]` and `new[i]` form
/// pair `i` (the same seed on both sides).
///
/// * `improved`: at least ten pairs, the change wins nine tenths of them
///   (ties count for neither), and the medians differ by more than the
///   base runs' interquartile range.
/// * `unresolved`: either side's spread exceeds the bound, unless every
///   new run reads better than every base run.
/// * `regressed`: the new median is worse than the base median by more
///   than the bound.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Positive means worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (mb, mn) = (median(base), median(new));
    let (q1, q3) = quartiles(base);
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| sign * (*n - *b) < 0.0)
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && sign * (mb - mn) > q3 - q1 {
        return Verdict::Improved;
    }
    let all_better = new
        .iter()
        .all(|n| base.iter().all(|b| sign * (*n - *b) < 0.0));
    if relative_iqr(base).max(relative_iqr(new)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    if sign * (mn - mb) / mb.abs() > bound {
        return Verdict::Regressed;
    }
    Verdict::NoChange
}

fn read_results(path: &Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if v.get("kind").and_then(Json::as_str) == Some("result") {
            out.push(
                RunResult::from_json(&v)
                    .map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?,
            );
        }
    }
    Ok(out)
}

/// Prints the comparison; returns false when a metric regressed or a
/// simulated output differs.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let end_to_end = load_end_to_end()?;
    let base = read_results(base_path)?;
    let new = read_results(new_path)?;
    let mut workloads: Vec<String> = NAMES.iter().map(|s| s.to_string()).collect();
    for r in base.iter().chain(&new) {
        if !workloads.contains(&r.workload) {
            workloads.push(r.workload.clone());
        }
    }
    let mut ok = true;
    println!(
        "{:<20} {:<28} {:>34} {:>34} {:>8}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "delta"
    );
    for w in &workloads {
        let side = |runs: &[RunResult]| {
            let mut v: Vec<RunResult> = runs
                .iter()
                .filter(|r| &r.workload == w && !r.traced)
                .cloned()
                .collect();
            v.sort_by_key(|r| r.seed);
            v
        };
        let (b, n) = (side(&base), side(&new));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        for m in &end_to_end {
            let values = |runs: &[RunResult]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(&m.name)).collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, m.lower_is_better, m.bound);
            ok &= v != Verdict::Regressed;
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4e} [{:.4e}, {:.4e}]", median(x), q1, q3)
            };
            println!(
                "{:<20} {:<28} {:>34} {:>34} {:>+7.2}%  {} (n={}/{}, bound {:.0}%)",
                w,
                format!("{} [{}]", m.name, m.unit),
                show(&bv),
                show(&nv),
                (median(&nv) / median(&bv) - 1.0) * 100.0,
                v.label(),
                bv.len(),
                nv.len(),
                m.bound * 100.0
            );
        }
    }
    // Simulated outputs are exact: the same seed must give the same records
    // and the same model.* metrics on both sides.
    for b in &base {
        for n in new
            .iter()
            .filter(|n| n.workload == b.workload && n.seed == b.seed && n.traced == b.traced)
        {
            if n.records_digest != b.records_digest {
                ok = false;
                println!(
                    "DIFFERS {} seed {}: records_digest {:016x} -> {:016x}",
                    b.workload, b.seed, b.records_digest, n.records_digest
                );
            }
            for m in b.metrics.iter().filter(|m| m.name.starts_with("model.")) {
                if n.metric(&m.name) != Some(m.value) {
                    ok = false;
                    println!(
                        "DIFFERS {} seed {}: {} {} -> {:?}",
                        b.workload,
                        b.seed,
                        m.name,
                        m.value,
                        n.metric(&m.name)
                    );
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + step * (f64::from(i) - 4.5))
            .collect()
    }

    #[test]
    fn identical_runs_show_no_change() {
        let runs = around(100.0, 0.1);
        assert_eq!(verdict(&runs, &runs, true, 0.05), Verdict::NoChange);
    }

    #[test]
    fn a_steady_slowdown_beyond_the_bound_regresses() {
        let base = around(100.0, 0.1);
        let new = around(110.0, 0.1);
        assert_eq!(verdict(&base, &new, true, 0.05), Verdict::Regressed);
        // Within the bound it is no change, and for a higher-is-better
        // metric the same numbers are a gain.
        assert_eq!(verdict(&base, &new, true, 0.15), Verdict::NoChange);
        assert_eq!(verdict(&base, &new, false, 0.05), Verdict::Improved);
    }

    #[test]
    fn nine_wins_in_ten_pairs_improve_but_eight_do_not() {
        let base = around(100.0, 0.1);
        let mut new = around(90.0, 0.1);
        new[9] = 200.0; // one lost pair
        assert_eq!(verdict(&base, &new, true, 0.05), Verdict::Improved);
        new[8] = 200.0; // two lost pairs
        assert_ne!(verdict(&base, &new, true, 0.05), Verdict::Improved);
    }

    #[test]
    fn fewer_than_ten_pairs_never_improve() {
        let base = around(100.0, 0.1)[..9].to_vec();
        let new = around(90.0, 0.1)[..9].to_vec();
        assert_eq!(verdict(&base, &new, true, 0.05), Verdict::NoChange);
    }

    #[test]
    fn a_gap_inside_the_base_spread_is_not_a_gain() {
        // Every pair wins by a hair, but the medians differ by less than
        // the base interquartile range.
        let base = around(100.0, 1.0);
        let new: Vec<f64> = base.iter().map(|b| b - 0.5).collect();
        assert_eq!(verdict(&base, &new, true, 0.5), Verdict::NoChange);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let base = around(100.0, 4.0); // IQR ~20% of the median
        let new = around(101.0, 4.0);
        assert_eq!(verdict(&base, &new, true, 0.10), Verdict::Unresolved);
        // ... unless every new run beats every base run.
        let far = around(40.0, 1.0);
        assert_ne!(verdict(&base, &far, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn benchmark_json_bounds_are_in_range() {
        let e2e = load_end_to_end().expect("BENCHMARK.json");
        assert!(e2e.iter().any(|m| m.name == "setup_s"));
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let spec = read_spec().expect("BENCHMARK.json");
        let run_seconds = spec.get("run_seconds").and_then(Json::as_u64);
        assert_eq!(run_seconds, Some(crate::DEFAULT_SECONDS));
    }
}
