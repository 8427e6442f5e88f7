//! Integration tests of the LSM store tier: determinism of background
//! compaction under parallel sweeps, inertness of the compaction
//! machinery for every non-LSM backend, and the interference mechanism
//! itself (background seal/merge traffic on the NVM bank path).

use ddp_core::{
    ClusterConfig, CompactionConfig, Consistency, DdpModel, OpenLoopPlan, Persistency, Simulation,
    StoreKind, TraceConfig, TraceEventKind,
};
use ddp_harness::{record_to_json, run_sweep, Sweep};
use ddp_workload::WorkloadSpec;

/// An aggressive tuning that seals and merges constantly, so the tests
/// exercise real background traffic rather than an idle memtable.
fn storm() -> CompactionConfig {
    CompactionConfig {
        memtable_entries: 16,
        fanout: 2,
        ..CompactionConfig::default()
    }
}

fn quick_grid(store: StoreKind, compaction: CompactionConfig) -> Sweep {
    Sweep::grid25(move |m| {
        let mut cfg = ClusterConfig::micro21(m)
            .quick()
            .with_store(store)
            .with_compaction(compaction);
        cfg.warmup_requests = 30;
        cfg.measured_requests = 400;
        cfg
    })
}

/// Background compaction events ride the same deterministic event queue
/// as the protocol: the 25-model grid with the LSM backend (and constant
/// seal/merge churn) must serialize byte-identically at any `--threads`.
#[test]
fn lsm_grid25_is_bit_identical_at_any_thread_count() {
    let sequential = run_sweep(quick_grid(StoreKind::Lsm, storm()), 1);
    let parallel = run_sweep(quick_grid(StoreKind::Lsm, storm()), 4);
    assert_eq!(sequential, parallel);
    let seq_json: Vec<String> = sequential.iter().map(record_to_json).collect();
    let par_json: Vec<String> = parallel.iter().map(record_to_json).collect();
    assert_eq!(seq_json, par_json);
    assert!(
        sequential.iter().any(|r| r.summary.lsm_seals > 0),
        "the storm tuning must actually generate compaction work"
    );
}

/// The compaction tier is strictly off-path for every other backend: a
/// non-LSM sweep must be byte-identical whatever the compaction tuning
/// says, and must report zero compaction activity.
#[test]
fn non_lsm_runs_are_inert_to_compaction_tuning() {
    for store in StoreKind::ALL {
        let default_cfg = run_sweep(quick_grid(store, CompactionConfig::default()), 4);
        let stormy_cfg = run_sweep(quick_grid(store, storm()), 4);
        let a: Vec<String> = default_cfg.iter().map(record_to_json).collect();
        let b: Vec<String> = stormy_cfg.iter().map(record_to_json).collect();
        assert_eq!(a, b, "{store}: compaction tuning leaked into a non-LSM run");
        for r in &default_cfg {
            assert_eq!(r.summary.lsm_seals, 0, "{store} sealed");
            assert_eq!(r.summary.lsm_merges, 0, "{store} merged");
            assert_eq!(r.summary.compaction_bytes, 0, "{store} wrote bytes");
            assert_eq!(r.summary.max_active_compactions, 0, "{store} ran merges");
        }
    }
}

/// The mechanism end to end: an LSM run under write pressure seals,
/// merges, pushes background bytes through the banked NVM device, and
/// surfaces all of it in the summary.
#[test]
fn lsm_compaction_generates_background_nvm_traffic() {
    let mut cfg = ClusterConfig::micro21(DdpModel::baseline())
        .quick()
        .with_store(StoreKind::Lsm)
        .with_compaction(storm());
    cfg.warmup_requests = 30;
    cfg.measured_requests = 1_000;
    let mut sim = Simulation::new(cfg);
    let report = sim.run();
    let s = &report.summary;
    assert!(s.lsm_seals > 0, "no seals under write pressure");
    assert!(s.lsm_merges > 0, "fanout 2 must cascade merges");
    assert!(s.compaction_bytes > 0, "seal/merge work must cost bytes");
    assert!(s.max_active_compactions >= 1);
    assert!(s.mean_active_compactions >= 0.0);
    // Every sealed or merged entry prices the configured byte cost, so the
    // byte counter is a multiple of entry_bytes.
    assert_eq!(s.compaction_bytes % storm().entry_bytes, 0);
    assert!(s.throughput > 0.0);
}

/// The `compactions_active` gauge must describe the measured window
/// only, starting from the level carried in from the warm-up: its mean
/// and max equal the level integrated from the run's own
/// `compaction_begin`/`compaction_end` trace events over
/// `[window_start, window_start + measured_time]`, on every model.
#[test]
fn active_compaction_gauge_matches_the_trace_on_every_model() {
    for model in DdpModel::all() {
        let mut cfg = ClusterConfig::micro21(model)
            .quick()
            .with_store(StoreKind::Lsm)
            .with_compaction(storm())
            .with_trace(TraceConfig::enabled());
        cfg.warmup_requests = 300;
        cfg.measured_requests = 400;
        let mut sim = Simulation::new(cfg);
        let summary = sim.run().summary;
        let trace = sim.take_trace().expect("event tracing enabled");
        assert_eq!(trace.dropped, 0, "{model}: the trace must be complete");

        // Compaction events are stamped at dispatch, so they are in time
        // order.
        let steps: Vec<(u64, bool)> = trace
            .events
            .iter()
            .filter_map(|r| match r.kind {
                TraceEventKind::CompactionBegin => Some((r.at_ns, true)),
                TraceEventKind::CompactionEnd => Some((r.at_ns, false)),
                _ => None,
            })
            .collect();
        let step = |level: u64, begin: bool| if begin { level + 1 } else { level - 1 };
        let (start, end) = (summary.window_start_ns, summary.run_ns());
        let split = steps.partition_point(|&(at, _)| at < start);
        let mut level = steps[..split].iter().fold(0, |l, &(_, b)| step(l, b));
        let (mut max, mut area, mut last) = (level, 0u128, start);
        for &(at, begin) in &steps[split..] {
            area += u128::from(level) * u128::from(at - last);
            last = at;
            level = step(level, begin);
            max = max.max(level);
        }
        area += u128::from(level) * u128::from(end - last);
        let mean = area as f64 / (end - start) as f64;

        assert!(split < steps.len(), "{model}: no compaction in the window");
        assert_eq!(summary.max_active_compactions, max, "{model}: max");
        assert!(
            (summary.mean_active_compactions - mean).abs() <= 1e-9 * mean,
            "{model}: mean {} against the trace's {mean}",
            summary.mean_active_compactions
        );
    }
}

/// Each of the run's four level gauges averages over exactly the measured
/// window: every `set` lands at or after the one before it. A gauge
/// stamped ahead of the dispatch clock moves its own clock back, and the
/// next `set` counts that span a second time.
#[test]
fn level_gauges_observe_exactly_the_measured_window() {
    let mut cells = Vec::new();
    for model in DdpModel::all() {
        for store in [StoreKind::HashTable, StoreKind::Lsm] {
            cells.push(ClusterConfig::micro21(model).quick().with_store(store));
        }
    }
    for model in [
        DdpModel::new(Consistency::Linearizable, Persistency::Synchronous),
        DdpModel::new(Consistency::ReadEnforced, Persistency::ReadEnforced),
        DdpModel::new(Consistency::Causal, Persistency::Strict),
    ] {
        for offered in [2e6, 2e7] {
            cells.push(
                ClusterConfig::micro21(model)
                    .quick()
                    .with_workload(WorkloadSpec::workload_w())
                    .with_store(StoreKind::Lsm)
                    .with_open_loop(OpenLoopPlan::poisson(offered)),
            );
        }
    }
    for cfg in cells {
        let label = format!(
            "{} {:?} {:?}",
            cfg.model,
            cfg.store,
            cfg.open_loop.as_ref().map(|p| p.offered_per_sec)
        );
        let st = Simulation::new(cfg).finish().stats;
        let gauges = [
            ("causal_buffered", &st.causal_buffered),
            ("admission_queue", &st.admission_queue),
            ("nvm_bank_queue", &st.nvm_bank_queue),
            ("compactions_active", &st.compactions_active),
        ];
        for (name, gauge) in gauges {
            assert_eq!(gauge.observed(), st.measured_time, "{label}: {name}");
        }
    }
}

/// Crashes interleaved with active compactions: stale completions are
/// dropped by epoch, the active gauge is zeroed for the crashed node, and
/// the run still terminates deterministically.
#[test]
fn lsm_survives_crashes_mid_compaction() {
    let make = || {
        let mut cfg =
            ClusterConfig::micro21(DdpModel::new(Consistency::Causal, Persistency::Synchronous))
                .quick()
                .with_store(StoreKind::Lsm)
                .with_compaction(storm())
                .with_crash(
                    1,
                    ddp_sim::Duration::from_micros(30),
                    ddp_sim::Duration::from_micros(40),
                );
        cfg.warmup_requests = 30;
        cfg.measured_requests = 800;
        let mut sim = Simulation::new(cfg);
        let summary = sim.run().summary;
        let crashes = sim.cluster().stats().crashes.clone();
        (summary, crashes)
    };
    let (a, crashes_a) = make();
    let (b, crashes_b) = make();
    assert_eq!(
        a, b,
        "crash + compaction interleaving must be deterministic"
    );
    assert_eq!(crashes_a, crashes_b);
    assert!(!crashes_a.is_empty(), "the crash plan must fire");
    assert!(
        a.lsm_seals > 0,
        "compaction must be active around the crash"
    );
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The store's compaction work, the simulator's only view of its runs,
/// is pinned for a seeded Zipf stream of upserts at the default
/// thresholds: every seal and merge, in order, with its entry count. A
/// change to how runs or values are held must not move it.
#[test]
fn compaction_work_of_a_zipf_stream_is_pinned() {
    use ddp_sim::SimRng;
    use ddp_store::{KvStore, LsmStore, LsmWork};
    use ddp_workload::{Zipfian, YCSB_THETA};

    let zipf = Zipfian::new(100_000, YCSB_THETA);
    let mut rng = SimRng::seed_from(0x15D);
    let mut store: LsmStore<u64> = LsmStore::new();
    let mut work = Vec::new();
    for i in 0..200_000u64 {
        let key = zipf.sample(&mut rng);
        match rng.next_below(10) {
            0..=2 => {
                store.put(key, i);
            }
            3 => {
                if let Some(v) = store.get_mut(key) {
                    *v ^= i;
                }
            }
            _ => *store.get_or_insert_with(key, || i) += 1,
        }
        if i % 1_000 == 0 {
            work.extend(store.take_work());
        }
    }
    work.extend(store.take_work());
    let bytes = work.iter().flat_map(|w| {
        let (tag, level) = match *w {
            LsmWork::Seal { .. } => (0u32, 0u32),
            LsmWork::Merge { level, .. } => (1, level),
        };
        [tag, level]
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .chain(w.entries().to_le_bytes())
    });
    let mut live = Vec::new();
    store.for_each(&mut |k, v| live.extend([k, *v]));
    let live_digest = fnv1a(live.iter().flat_map(|x| x.to_le_bytes()));
    assert_eq!(
        (work.len(), fnv1a(bytes), store.len(), live_digest),
        (709, 0x3db4_ed5a_b835_4c3f, 36_320, 0xa5bb_02bf_470d_a683)
    );
}
