//! Sharded scaling sweep — throughput-scaling curves and shard-imbalance
//! tables for the 25 DDP models over a fleet of replica groups.
//!
//! Part 1 weak-scales the fleet under **uniform** YCSB-A: the per-shard
//! problem size (clients, request quota) is held constant while the shard
//! count grows, so each added shard brings its own replica group, fabric,
//! and NVM banks along with its own offered work. Aggregate throughput
//! must therefore grow monotonically with the shard count; the table
//! prints each model's absolute single-shard throughput and its speedup
//! at every swept count, plus a fleet-wide monotonicity check.
//!
//! Part 2 switches to the paper's Zipf-skewed YCSB-A at the top shard
//! count and contrasts hash against range placement: modulo hashing
//! scatters the scrambled-Zipfian hot keys, range placement concentrates
//! contiguous hot ranges, and the table reports the resulting
//! shard-imbalance index (max/mean completed requests) next to the count
//! of transaction groups the router had to re-home across shards.
//!
//! `--shards S1,S2,…` overrides the swept shard counts (default 1,2,4,8);
//! `--json PATH` writes one `fleet_record` line per trial; `--trace PATH`
//! streams per-shard event traces with a leading `shard` field;
//! `--timeline PATH` streams per-shard timeline windows the same way;
//! `--quick` and `--store KIND` apply to every shard as in the other bins.

use ddp_core::{ClusterConfig, DdpModel, FleetConfig, Placement};
use ddp_harness::{print_rule, FleetSweep, Harness};

/// Default swept shard counts.
const SHARD_COUNTS: [u16; 4] = [1, 2, 4, 8];

/// The Part 1 base config: uniform key choice isolates the scaling curve
/// from popularity skew (skew is Part 2's subject).
fn uniform_config(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.workload.zipf_theta = None;
    cfg.warmup_requests = 500;
    cfg.measured_requests = 5_000;
    cfg
}

/// The Part 2 base config: the paper's Zipf-skewed YCSB-A.
fn skewed_config(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model);
    cfg.warmup_requests = 500;
    cfg.measured_requests = 5_000;
    cfg
}

/// Weak-scales a base config to `s` shards: the fleet totals grow with
/// the shard count so the apportionment hands every shard the same
/// per-shard problem size the single-shard baseline ran. Applied after
/// the shared flags ([`Harness::configure`]) so the `--quick` quotas
/// scale too.
fn weak_scale(mut cfg: ClusterConfig, s: u16) -> ClusterConfig {
    cfg.clients *= u32::from(s);
    cfg.warmup_requests *= u64::from(s);
    cfg.measured_requests *= u64::from(s);
    cfg
}

fn main() {
    let mut harness = Harness::from_env("scaling");
    let args = harness.args().clone();
    let shard_counts: Vec<u16> = if args.shards.is_empty() {
        SHARD_COUNTS.to_vec()
    } else {
        args.shards.clone()
    };
    if args.seeds > 1 {
        eprintln!("[scaling] note: --seeds is not supported for fleet sweeps; running one seed");
    }
    if args.csv.is_some() {
        eprintln!("[scaling] note: --csv is not supported for fleet records; use --json");
    }
    println!("Sharded keyspace scaling: 25 DDP models over a fleet of replica groups\n");

    // Part 1 grid: model-major, shard-count-minor, uniform YCSB-A.
    let mut curve_sweep = FleetSweep::new();
    for model in DdpModel::all() {
        for &s in &shard_counts {
            curve_sweep.push(
                format!("{model} S={s}"),
                FleetConfig::new(weak_scale(harness.configure(uniform_config(model)), s), s),
            );
        }
    }
    let curve_records = harness.run_fleet(curve_sweep);
    let stride = shard_counts.len();

    println!("Part 1 - uniform YCSB-A: aggregate throughput vs shard count");
    print!("{:<28} {:>12}", "model", "S1(req/s)");
    for &s in &shard_counts {
        print!(" {:>8}", format!("xS={s}"));
    }
    println!(" {:>9}", "imbal@max");
    print_rule(3 + stride);
    let mut non_monotone = 0;
    for model in DdpModel::all() {
        let row = &curve_records[model.grid_index() * stride..(model.grid_index() + 1) * stride];
        let base = row[0].summary.throughput;
        print!("{:<28} {:>12.3e}", model.to_string(), base);
        for r in row {
            print!(" {:>8.2}", r.summary.throughput / base);
        }
        println!(" {:>9.3}", row[stride - 1].imbalance);
        // Monotone within a 2 % tolerance band (shard splits reseed the
        // workload, so neighbouring counts carry a little sampling noise).
        if row
            .windows(2)
            .any(|w| w[1].summary.throughput < 0.98 * w[0].summary.throughput)
        {
            non_monotone += 1;
            eprintln!(
                "[scaling] WARN {model}: aggregate throughput not monotone over {shard_counts:?}"
            );
        }
    }
    println!(
        "\nmonotone aggregate-throughput growth for {}/{} models over shards {:?}",
        DdpModel::COUNT - non_monotone,
        DdpModel::COUNT,
        shard_counts
    );

    // Part 2 grid: Zipf-skewed YCSB-A at the top shard count, hash vs
    // range placement.
    let top = *shard_counts.iter().max().expect("at least one shard count");
    let placements = [Placement::Hash, Placement::Range];
    let mut imbalance_sweep = FleetSweep::new();
    for model in DdpModel::all() {
        for placement in placements {
            imbalance_sweep.push(
                format!("{model} S={top} {placement}"),
                FleetConfig::new(harness.configure(skewed_config(model)), top)
                    .with_placement(placement),
            );
        }
    }
    let imbalance_records = harness.run_fleet(imbalance_sweep);

    println!("\nPart 2 - Zipf-skewed YCSB-A at S={top}: hash vs range placement");
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "model", "hash.imb", "range.imb", "hash.xsh", "range.xsh", "hash.Mrps"
    );
    print_rule(6);
    for model in DdpModel::all() {
        let hash = &imbalance_records[model.grid_index() * 2];
        let range = &imbalance_records[model.grid_index() * 2 + 1];
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>10} {:>10} {:>10.2}",
            model.to_string(),
            hash.imbalance,
            range.imbalance,
            hash.cross_shard_groups,
            range.cross_shard_groups,
            hash.summary.throughput / 1e6
        );
    }

    println!(
        "\ntakeaway: independent replica groups scale aggregate throughput with the\n\
         shard count under uniform keys; under Zipf skew the placement decides the\n\
         imbalance -- hashing scatters the scrambled hot keys while range placement\n\
         concentrates hot ranges onto single shards."
    );
    harness.finish();
}
