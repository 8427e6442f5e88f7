//! Host-time benchmark of the DDP simulator: four workloads, end-to-end
//! metrics from untraced runs, and a per-layer breakdown from traced runs.
//!
//! ```text
//! ddp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out PATH] [--check]
//! ddp-benchmark --compare BASE.jsonl NEW.jsonl
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own so that its peak memory is its own. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or the per-layer ones with
//! `--trace 1`). See `README.md` for the metrics and workloads.

mod compare;
mod exec;
mod json;
mod layers;
mod measure;
mod results;
mod stats;
mod workloads;

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use results::RunResult;
use workloads::{Workload, DEFAULT_SEED, FLEET_THREADS, NAMES, REFERENCE_DIGESTS};

/// Host seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;

const USAGE: &str = "usage: ddp-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out PATH] [--check]\n       \
                     ddp-benchmark --compare BASE.jsonl NEW.jsonl";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check: false,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {NAMES:?}"));
                }
                a.workload = Some(name);
            }
            "--seed" => a.seed = parse_u64(&value()?)?,
            "--seconds" => {
                a.seconds = parse_u64(&value()?)?;
                if a.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--check" => a.check = true,
            "--compare" => {
                let base = PathBuf::from(value()?);
                a.compare = Some((base, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// A decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("{text:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((base, new)) = &args.compare {
        compare::compare(base, new)
    } else {
        match &args.workload {
            Some(name) => run_workload(name, &args),
            None => run_children(&args),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in a child process of its own, one after another.
fn run_children(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        if args.check {
            cmd.arg("--check");
        }
        let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let w = workloads::build(name, args.seed).ok_or(format!("unknown workload {name:?}"))?;
    if args.check {
        return Ok(check(&w));
    }
    let mut extra = Vec::new();
    let result = if args.trace {
        let mut spans = layers::Spans::new();
        let report = layers::trace(&w, args.seed, &mut spans);
        extra = spans.json_lines(name, args.seed);
        print_metrics(&report.result);
        println!("slowest cell: {}", report.slowest_cell);
        report.result
    } else {
        let result = measure::measure(&w, args.seed, args.seconds as f64);
        print_metrics(&result);
        result
    };
    print_digest(&result);
    if let Some(out) = &args.out {
        let mut lines = vec![result.out_line()];
        lines.append(&mut extra);
        append_lines(out, &lines)?;
    }
    println!("{}", result.summary_line());
    Ok(result.correct)
}

fn print_metrics(r: &RunResult) {
    println!(
        "{} seed {} ({} pass{}, {}/{} cells ok)",
        r.workload,
        r.seed,
        r.passes,
        if r.passes == 1 { "" } else { "es" },
        r.attempted - r.failed,
        r.attempted
    );
    for m in &r.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_digest(r: &RunResult) {
    let reference = REFERENCE_DIGESTS
        .iter()
        .find(|(w, _)| *w == r.workload)
        .map(|(_, d)| *d)
        .filter(|_| r.seed == DEFAULT_SEED);
    let digest = format!("{:016x}", r.records_digest);
    match reference {
        Some(d) if d == digest => println!("records_digest {digest} (matches the reference)"),
        Some(d) => println!("records_digest {digest} (reference {d}: the modelled outputs moved)"),
        None => println!("records_digest {digest} (no reference for this seed)"),
    }
}

fn append_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut text = lines.join("\n");
    text.push('\n');
    f.write_all(text.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--check`: two passes must give identical records, and the fleet
/// workload must give the same records on one worker as on two.
fn check(w: &Workload) -> bool {
    let first = measure::run_pass(w, FLEET_THREADS);
    let second = measure::run_pass(w, if w.is_fleet() { 1 } else { FLEET_THREADS });
    let (a, b) = (first.digest(), second.digest());
    let ok = a == b && first.failed == 0 && second.failed == 0;
    println!(
        "check {}: {} (records_digest {a:016x} / {b:016x}, failed {} / {})",
        w.name,
        if ok { "ok" } else { "FAILED" },
        first.failed,
        second.failed
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_flags_parse() {
        let a = parse(&[
            "--workload",
            "reads-uniform-b",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("reads-uniform-b"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert_eq!(parse(&["--seed", "0xDD9"]).expect("hex").seed, 0xDD9);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--size", "3"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    fn tiny(cells: Vec<(String, workloads::Cell)>) -> Workload {
        Workload {
            name: "tiny",
            cells,
        }
    }

    fn solo_cell() -> (String, workloads::Cell) {
        let mut cfg = ddp_core::ClusterConfig::micro21(ddp_core::DdpModel::baseline());
        cfg.workload.zipf_theta = None;
        cfg.warmup_requests = 20;
        cfg.measured_requests = 200;
        ("solo".into(), workloads::Cell::Solo(cfg))
    }

    fn fleet_cell() -> (String, workloads::Cell) {
        let (_, cell) = solo_cell();
        let base = cell.base().clone();
        let fleet = ddp_core::FleetConfig::new(base, 2);
        ("fleet".into(), workloads::Cell::Fleet(fleet))
    }

    fn names_units(metrics: &[results::Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    }

    fn listed(key: &str) -> Vec<(String, String)> {
        let spec = compare::read_spec().expect("BENCHMARK.json");
        let field = |m: &json::Json, k: &str| {
            m.get(k)
                .and_then(json::Json::as_str)
                .expect("metric field")
                .to_string()
        };
        spec.get(key)
            .and_then(json::Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn runs_report_exactly_the_metrics_benchmark_json_lists() {
        let w = tiny(vec![solo_cell()]);
        let e2e = measure::measure(&w, 1, 0.0);
        assert!(e2e.correct, "{e2e:?}");
        assert_eq!(names_units(&e2e.metrics), listed("end_to_end"));
        let mut spans = layers::Spans::new();
        let traced = layers::trace(&w, 1, &mut spans).result;
        assert!(traced.correct, "{traced:?}");
        assert_eq!(names_units(&traced.metrics), listed("per_layer"));
        assert_eq!(traced.records_digest, e2e.records_digest);
    }

    #[test]
    fn fleet_cells_measure_check_and_trace() {
        let w = tiny(vec![fleet_cell(), fleet_cell()]);
        assert!(w.is_fleet());
        assert!(check(&w));
        let e2e = measure::measure(&w, 1, 0.0);
        assert!(e2e.correct, "{e2e:?}");
        let mut spans = layers::Spans::new();
        let traced = layers::trace(&w, 1, &mut spans).result;
        assert!(traced.correct, "{traced:?}");
        assert_eq!(traced.records_digest, e2e.records_digest);
    }

    #[test]
    fn spans_form_one_tree_per_cell() {
        let w = tiny(vec![solo_cell(), solo_cell()]);
        let mut spans = layers::Spans::new();
        let _ = layers::trace(&w, 1, &mut spans);
        let lines = spans.json_lines("tiny", 1);
        let parsed: Vec<json::Json> = lines
            .iter()
            .map(|l| json::Json::parse(l).expect("span line parses"))
            .collect();
        let roots: Vec<u64> = parsed
            .iter()
            .filter(|s| s.get("name").and_then(json::Json::as_str) == Some("cell"))
            .map(|s| s.get("id").and_then(json::Json::as_u64).expect("id"))
            .collect();
        assert_eq!(roots.len(), 2);
        for s in &parsed {
            let start = s
                .get("start_ns")
                .and_then(json::Json::as_u64)
                .expect("start");
            let end = s.get("end_ns").and_then(json::Json::as_u64).expect("end");
            assert!(start <= end);
            match s.get("parent") {
                Some(json::Json::Null) => {}
                Some(p) => assert!(roots.contains(&p.as_u64().expect("parent id"))),
                None => panic!("span without parent field"),
            }
        }
    }
}
