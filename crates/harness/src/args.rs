//! Shared command-line arguments for every bench bin.
//!
//! All sweep binaries understand the same flags, so figure regeneration,
//! CI smoke runs, and ad-hoc sweeps compose uniformly:
//!
//! * `--threads N` — executor worker threads (default: `DDP_THREADS` or
//!   the host's available parallelism);
//! * `--json PATH` — append every run record to `PATH` as JSON lines;
//! * `--csv PATH` — the same records as CSV (same field list by
//!   construction: both serializers walk [`record_fields`]);
//! * `--trace PATH` — enable event tracing and write the per-trial event
//!   streams to `PATH` as JSON lines;
//! * `--timeline PATH` — enable the windowed metrics timeline and write
//!   one JSON line per `(trial, window)` to `PATH`;
//! * `--window-ns NS` — with `--timeline`, the window width in simulated
//!   nanoseconds (default 50 µs);
//! * `--quick` — shrink each trial to `ClusterConfig::quick()` request
//!   counts (smoke-test scale);
//! * `--seeds N` — replicate every trial under `N` derived seeds and
//!   report mean ± spread per cell (see [`crate::seeds`]);
//! * `--load R1,R2,…` — offered-load points for open-loop sweeps
//!   (interpretation is bin-specific: the `overload` bin reads them as
//!   multiples of each model's measured closed-loop capacity);
//! * `--shards S1,S2,…` — shard counts for sharded fleet sweeps (the
//!   `scaling` bin's x-axis);
//! * `--burst B1,B2,…` — MMPP burst ratios for open-loop sweeps
//!   (1.0 = plain Poisson; the `overload` bin adds one sweep row per
//!   ratio);
//! * `--store NAME` — override the replica store backend on every trial
//!   (`hashtable`, `map`, `btree`, `bplustree`, `memcached`, or `lsm`).
//!
//! [`record_fields`]: crate::fields::record_fields

use std::path::PathBuf;

use ddp_core::StoreKind;

/// Parsed harness flags.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessArgs {
    /// Executor worker threads (≥ 1).
    pub threads: usize,
    /// JSON-lines output path, if requested.
    pub json: Option<PathBuf>,
    /// CSV output path, if requested.
    pub csv: Option<PathBuf>,
    /// Trace event-stream output path; also enables event tracing on
    /// every trial.
    pub trace: Option<PathBuf>,
    /// Timeline output path; also enables the windowed metrics timeline
    /// on every trial.
    pub timeline: Option<PathBuf>,
    /// Timeline window width in simulated ns (requires `--timeline`).
    pub window_ns: Option<u64>,
    /// Shrink every trial to smoke-test request counts.
    pub quick: bool,
    /// Seed replicas per trial (≥ 1; 1 means no replication).
    pub seeds: u32,
    /// Offered-load points for open-loop sweeps (empty: bin default).
    pub load: Vec<f64>,
    /// Shard counts for sharded fleet sweeps (empty: bin default).
    pub shards: Vec<u16>,
    /// MMPP burst ratios for open-loop sweeps (empty: bin default;
    /// 1.0 = plain Poisson arrivals).
    pub burst: Vec<f64>,
    /// Replica store backend override applied to every trial (`None`:
    /// each bin's own default).
    pub store: Option<StoreKind>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            threads: default_threads(),
            json: None,
            csv: None,
            trace: None,
            timeline: None,
            window_ns: None,
            quick: false,
            seeds: 1,
            load: Vec::new(),
            shards: Vec::new(),
            burst: Vec::new(),
            store: None,
        }
    }
}

impl HarnessArgs {
    /// Sequential, table-only defaults (for tests and library callers).
    #[must_use]
    pub fn sequential() -> Self {
        HarnessArgs {
            threads: 1,
            ..HarnessArgs::default()
        }
    }

    /// Parses harness flags from an argument list (without the program
    /// name).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut parsed = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    parsed.threads =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--threads needs a positive integer, got {v:?}")
                        })?;
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    parsed.json = Some(PathBuf::from(v));
                }
                "--csv" => {
                    let v = it.next().ok_or("--csv needs a path")?;
                    parsed.csv = Some(PathBuf::from(v));
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace needs a path")?;
                    parsed.trace = Some(PathBuf::from(v));
                }
                "--timeline" => {
                    let v = it.next().ok_or("--timeline needs a path")?;
                    parsed.timeline = Some(PathBuf::from(v));
                }
                "--window-ns" => {
                    let v = it.next().ok_or("--window-ns needs a value")?;
                    parsed.window_ns =
                        Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--window-ns needs a positive ns count, got {v:?}")
                        })?);
                }
                "--quick" => parsed.quick = true,
                "--seeds" => {
                    let v = it.next().ok_or("--seeds needs a value")?;
                    parsed.seeds =
                        v.parse::<u32>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--seeds needs a positive integer, got {v:?}")
                        })?;
                }
                "--load" => {
                    let v = it.next().ok_or("--load needs a comma-separated list")?;
                    parsed.load = v
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|x| x.is_finite() && *x > 0.0)
                                .ok_or_else(|| format!("--load needs positive numbers, got {p:?}"))
                        })
                        .collect::<Result<Vec<f64>, String>>()?;
                    if parsed.load.is_empty() {
                        return Err("--load needs at least one point".to_string());
                    }
                }
                "--shards" => {
                    let v = it.next().ok_or("--shards needs a comma-separated list")?;
                    parsed.shards = v
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse::<u16>()
                                .ok()
                                .filter(|&s| s >= 1)
                                .ok_or_else(|| {
                                    format!("--shards needs positive shard counts, got {p:?}")
                                })
                        })
                        .collect::<Result<Vec<u16>, String>>()?;
                    if parsed.shards.is_empty() {
                        return Err("--shards needs at least one count".to_string());
                    }
                }
                "--burst" => {
                    let v = it.next().ok_or("--burst needs a comma-separated list")?;
                    parsed.burst = v
                        .split(',')
                        .map(|p| {
                            p.trim()
                                .parse::<f64>()
                                .ok()
                                .filter(|x| x.is_finite() && *x >= 1.0)
                                .ok_or_else(|| format!("--burst needs ratios >= 1.0, got {p:?}"))
                        })
                        .collect::<Result<Vec<f64>, String>>()?;
                    if parsed.burst.is_empty() {
                        return Err("--burst needs at least one ratio".to_string());
                    }
                }
                "--store" => {
                    let v = it.next().ok_or("--store needs a backend name")?;
                    parsed.store = Some(StoreKind::parse_name(&v).ok_or_else(|| {
                        format!(
                            "--store needs one of hashtable|map|btree|bplustree|memcached|lsm, \
                             got {v:?}"
                        )
                    })?);
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if parsed.window_ns.is_some() && parsed.timeline.is_none() {
            return Err("--window-ns requires --timeline PATH".to_string());
        }
        Ok(parsed)
    }

    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown or malformed argument.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// The usage string bins print on a parse error.
    #[must_use]
    pub fn usage(bin: &str) -> String {
        format!(
            "usage: {bin} [--threads N] [--json PATH] [--csv PATH] [--trace PATH] \
             [--timeline PATH] [--window-ns NS] [--quick] [--seeds N] \
             [--load R1,R2,...] [--shards S1,S2,...] [--burst B1,B2,...] [--store NAME]\n\
             \x20 --threads N        executor worker threads (default: DDP_THREADS or all cores)\n\
             \x20 --json PATH        write every run record to PATH as JSON lines\n\
             \x20 --csv PATH         write every run record to PATH as CSV (same fields)\n\
             \x20 --trace PATH       enable event tracing; write event streams to PATH as JSON lines\n\
             \x20 --timeline PATH    enable the windowed timeline; write window rows to PATH as JSON lines\n\
             \x20 --window-ns NS     with --timeline, window width in simulated ns (default 50000)\n\
             \x20 --quick            smoke-test request counts (ClusterConfig::quick)\n\
             \x20 --seeds N          replicate each trial under N derived seeds; report mean ± spread\n\
             \x20 --load R1,R2,...   offered-load points for open-loop sweeps (bin-specific units)\n\
             \x20 --shards S1,S2,... shard counts for sharded fleet sweeps\n\
             \x20 --burst B1,B2,...  MMPP burst ratios for open-loop sweeps (1.0 = plain Poisson)\n\
             \x20 --store NAME       replica store backend for every trial (hashtable|map|btree|\n\
             \x20                    bplustree|memcached|lsm; default: bin-specific)"
        )
    }
}

/// The default worker-thread count: `DDP_THREADS` if set to a positive
/// integer, else the host's available parallelism, else 1.
#[must_use]
pub fn default_threads() -> usize {
    std::env::var("DDP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(crate::progress::available_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--threads",
            "4",
            "--json",
            "/tmp/out.jsonl",
            "--csv",
            "/tmp/out.csv",
            "--trace",
            "/tmp/trace.jsonl",
            "--timeline",
            "/tmp/timeline.jsonl",
            "--window-ns",
            "50000",
            "--quick",
            "--seeds",
            "5",
            "--load",
            "0.5,0.8, 1.1,2.5",
            "--shards",
            "1,2, 4,8",
            "--burst",
            "1.0,4.0",
            "--store",
            "lsm",
        ])
        .unwrap();
        assert_eq!(a.threads, 4);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.load, vec![0.5, 0.8, 1.1, 2.5]);
        assert_eq!(a.shards, vec![1, 2, 4, 8]);
        assert_eq!(a.burst, vec![1.0, 4.0]);
        assert_eq!(
            a.json.as_deref(),
            Some(std::path::Path::new("/tmp/out.jsonl"))
        );
        assert_eq!(a.csv.as_deref(), Some(std::path::Path::new("/tmp/out.csv")));
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/trace.jsonl"))
        );
        assert_eq!(
            a.timeline.as_deref(),
            Some(std::path::Path::new("/tmp/timeline.jsonl"))
        );
        assert_eq!(a.window_ns, Some(50_000));
        assert!(a.quick);
        assert_eq!(a.store, Some(StoreKind::Lsm));
    }

    #[test]
    fn store_axis_parses_every_backend_and_rejects_unknown_names() {
        for (name, kind) in [
            ("hashtable", StoreKind::HashTable),
            ("map", StoreKind::Map),
            ("btree", StoreKind::BTree),
            ("bplustree", StoreKind::BPlusTree),
            ("memcached", StoreKind::Memcached),
            ("lsm", StoreKind::Lsm),
        ] {
            assert_eq!(parse(&["--store", name]).unwrap().store, Some(kind));
        }
        assert!(parse(&["--store"]).is_err());
        assert!(parse(&["--store", "rocksdb"]).is_err());
        assert!(parse(&["--store", "LSM"]).is_err(), "names are lowercase");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "four"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--csv"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--trace-sample", "1000", "--trace", "/tmp/t.jsonl"]).is_err());
        assert!(parse(&["--timeline"]).is_err());
        assert!(parse(&["--window-ns", "0", "--timeline", "/tmp/w.jsonl"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--seeds", "three"]).is_err());
        assert!(parse(&["--load"]).is_err());
        assert!(parse(&["--load", ""]).is_err());
        assert!(parse(&["--load", "1.0,-2.0"]).is_err());
        assert!(parse(&["--load", "1.0,nope"]).is_err());
        assert!(parse(&["--shards"]).is_err());
        assert!(parse(&["--shards", ""]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--shards", "2,none"]).is_err());
        assert!(parse(&["--burst"]).is_err());
        assert!(parse(&["--burst", "0.5"]).is_err());
        assert!(parse(&["--burst", "2.0,nope"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn window_ns_requires_timeline() {
        assert!(parse(&["--window-ns", "1000"]).is_err());
        assert!(parse(&["--timeline", "/tmp/w.jsonl", "--window-ns", "1000"]).is_ok());
    }

    #[test]
    fn empty_args_use_defaults() {
        let a = parse(&[]).unwrap();
        assert!(a.threads >= 1);
        assert!(a.json.is_none() && a.csv.is_none() && a.trace.is_none() && !a.quick);
        assert!(a.timeline.is_none() && a.window_ns.is_none());
        assert_eq!(a.seeds, 1);
        assert!(a.load.is_empty());
        assert!(a.shards.is_empty());
        assert!(a.burst.is_empty());
        assert!(a.store.is_none());
    }
}
