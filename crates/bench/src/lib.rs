//! # ddp-bench — the evaluation binaries of the DDP paper reproduction
//!
//! One binary per table/figure regenerates the corresponding result:
//!
//! | target | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — motivation: three environments' relative throughput |
//! | `table4` | Table 4 — qualitative model comparison (derived) |
//! | `fig6`   | Figure 6(a–f) — 25 DDP models, throughput + latencies |
//! | `fig6_stores` | Figure 6(a) per store backend |
//! | `fig7`   | Figure 7 — client-count sensitivity (10/100/150) |
//! | `fig8`   | Figure 8 — NIC-to-NIC RTT sensitivity (0.5/1/2 µs) |
//! | `fig9`   | Figure 9 — workload-mix sensitivity (B/A/W) |
//! | `stats`  | §8.1–8.2 prose statistics (conflict rates, buffering, ...) |
//! | `ablation` | design-choice ablations (NVM banks/latency, lazy delays, NIC message rate) |
//! | `faults` | robustness sweep — lossy fabric + mid-run crash across all 25 models |
//!
//! Run them with `cargo run -p ddp-bench --release --bin <target>`. Every
//! binary understands the shared sweep flags `--threads N` (parallel
//! deterministic execution), `--json PATH` (JSON-lines records), and
//! `--quick` (smoke-test request counts); see [`ddp_harness`].
//!
//! The sweep machinery itself — grid building, the parallel executor, the
//! JSON-lines writer, and the table helpers — lives in [`ddp_harness`];
//! this crate re-exports the pieces the binaries and external callers use
//! so existing `ddp_bench::...` imports keep working.
//!
//! The `benches/` directory holds Criterion microbenchmarks of the
//! substrate crates (`cargo bench --workspace`).

pub use ddp_harness::{bar, figure_config, measure, measure_sim, print_row, print_rule};
