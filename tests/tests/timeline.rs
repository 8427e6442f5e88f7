//! Integration tests of the windowed metrics timeline: per-window sums
//! must equal the measured `RunStats` totals on every model (the windows
//! partition the measured interval — nothing is lost or double-counted),
//! timeline streams must be byte-identical across executor thread counts,
//! and the timeline must be read-only with respect to the simulation.

use ddp_core::{
    ClusterConfig, CompactionConfig, DdpModel, OpenLoopPlan, Simulation, StoreKind, TimelineDump,
    TimelineWindow, TraceConfig,
};
use ddp_harness::{run_sweep_instrumented, timeline_end_to_json, timeline_window_to_json, Sweep};
use ddp_sim::Duration;

fn quick_cfg(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).quick();
    cfg.warmup_requests = 30;
    cfg.measured_requests = 400;
    cfg
}

fn timed(cfg: ClusterConfig) -> ClusterConfig {
    cfg.with_trace(TraceConfig::default().with_timeline(Duration::from_micros(20)))
}

/// Runs one config and returns its timeline next to the finished
/// simulation (for the `RunStats` the totals are checked against).
fn run_timed(cfg: ClusterConfig) -> (TimelineDump, Simulation) {
    let mut sim = Simulation::new(timed(cfg));
    sim.run();
    let dump = sim.take_timeline().expect("timeline was enabled");
    (dump, sim)
}

fn sum(dump: &TimelineDump, f: fn(&TimelineWindow) -> u64) -> u64 {
    dump.windows.iter().map(f).sum()
}

#[test]
fn window_counters_sum_to_run_totals_on_every_model() {
    for model in DdpModel::all() {
        let (dump, sim) = run_timed(quick_cfg(model));
        let stats = sim.cluster().stats();
        assert!(!dump.windows.is_empty(), "{model}: no windows recorded");
        assert_eq!(dump.clipped, 0, "{model}: quick run must not clip");

        assert_eq!(
            sum(&dump, |w| w.reads_completed),
            stats.reads_completed,
            "{model}: reads leaked across windows"
        );
        assert_eq!(
            sum(&dump, |w| w.writes_completed),
            stats.writes_completed,
            "{model}: writes leaked across windows"
        );
        assert_eq!(
            sum(&dump, |w| w.persists_issued),
            stats.persists_issued,
            "{model}: persists leaked across windows"
        );
        assert_eq!(
            sum(&dump, |w| w.lag_count()),
            stats.vp_dp_lag.count(),
            "{model}: VP->DP lag samples leaked across windows"
        );
        assert_eq!(
            sum(&dump, |w| w.nvm_queue_ns),
            stats.nvm_queue_wait.as_nanos(),
            "{model}: NVM queue-wait time diverged"
        );
        assert_eq!(
            sum(&dump, |w| w.service_ns),
            stats.phase.write_service.as_nanos(),
            "{model}: write service time diverged"
        );
        assert_eq!(
            sum(&dump, |w| w.queue_ns),
            stats.phase.write_queue.as_nanos(),
            "{model}: write queue time diverged"
        );
        assert_eq!(
            sum(&dump, |w| w.network_ns),
            stats.phase.write_network.as_nanos(),
            "{model}: invalidation time diverged"
        );
        assert_eq!(
            sum(&dump, |w| w.persist_stall_ns),
            stats.phase.write_persist_stall.as_nanos(),
            "{model}: persist-stall time diverged"
        );
        assert_eq!(
            sum(&dump, |w| w.read_stall_ns),
            stats.phase.read_stall.as_nanos(),
            "{model}: read-stall time diverged"
        );

        // Windows tile the measured interval gap-free from the origin,
        // which is exactly the RunStats measurement start.
        for (i, w) in dump.windows.iter().enumerate() {
            assert_eq!(w.start_ns, dump.origin_ns + i as u64 * dump.window_ns);
        }
        assert_eq!(
            stats.window_start.as_nanos(),
            dump.origin_ns,
            "{model}: timeline origin must be the measurement start"
        );
    }
}

#[test]
fn open_loop_flow_counters_sum_to_run_totals() {
    // An overloaded open-loop run exercises the arrival / rejection /
    // retry / shed hooks the closed-loop grid leaves at zero.
    let mut plan = OpenLoopPlan::poisson(50_000_000.0);
    // A shallow queue and a single retry make shedding certain even in a
    // quick run.
    plan.queue_capacity = Some(4);
    plan.max_retries = 1;
    let cfg = quick_cfg(DdpModel::baseline()).with_open_loop(plan);
    let (dump, sim) = run_timed(cfg);
    let stats = sim.cluster().stats();
    assert!(stats.ol_arrivals > 0, "the run saw no open-loop arrivals");
    assert!(stats.ol_shed > 0, "the run was meant to overload and shed");
    assert_eq!(sum(&dump, |w| w.ol_arrivals), stats.ol_arrivals);
    assert_eq!(sum(&dump, |w| w.ol_rejections), stats.ol_rejections);
    assert_eq!(sum(&dump, |w| w.ol_retries), stats.ol_retries);
    assert_eq!(sum(&dump, |w| w.ol_shed), stats.ol_shed);
}

#[test]
fn compaction_bytes_sum_to_the_run_total() {
    // The LSM store at a storm tuning (seal every 16 entries, fanout 2)
    // compacts throughout a quick run; no other store ever compacts.
    let storm = CompactionConfig {
        memtable_entries: 16,
        fanout: 2,
        ..CompactionConfig::default()
    };
    let cfg = quick_cfg(DdpModel::baseline())
        .with_store(StoreKind::Lsm)
        .with_compaction(storm);
    let (dump, sim) = run_timed(cfg);
    let stats = sim.cluster().stats();
    assert!(stats.compaction_bytes > 0, "the storm tuning must compact");
    assert_eq!(sum(&dump, |w| w.compaction_bytes), stats.compaction_bytes);
}

#[test]
fn timeline_streams_are_bit_identical_across_thread_counts() {
    let sweep = || Sweep::grid25(|m| timed(quick_cfg(m)));
    let serial = run_sweep_instrumented("timeline-seq", sweep(), 1);
    let parallel = run_sweep_instrumented("timeline-par", sweep(), 4);
    assert_eq!(serial.len(), parallel.len());
    for ((seq_rec, _, seq_tl), (par_rec, _, par_tl)) in serial.iter().zip(&parallel) {
        assert_eq!(seq_rec, par_rec);
        let (seq_tl, par_tl) = (seq_tl.as_ref().unwrap(), par_tl.as_ref().unwrap());
        assert_eq!(seq_tl.windows.len(), par_tl.windows.len());
        // The serialized stream matches byte for byte, window by window.
        for (k, (a, b)) in seq_tl.windows.iter().zip(&par_tl.windows).enumerate() {
            assert_eq!(
                timeline_window_to_json(seq_rec.index, None, k, a),
                timeline_window_to_json(par_rec.index, None, k, b),
                "{} window {k} diverged",
                seq_rec.model
            );
        }
        assert_eq!(
            timeline_end_to_json(seq_rec.index, None, &seq_rec.label, seq_tl),
            timeline_end_to_json(par_rec.index, None, &par_rec.label, par_tl)
        );
    }
}

#[test]
fn timeline_runs_report_byte_identical_summaries() {
    // The timeline is read-only: enabling it must not perturb a single
    // bit of the simulation's result, on any of the 25 models.
    for model in DdpModel::all() {
        let plain = Simulation::new(quick_cfg(model)).run().summary;
        let observed = Simulation::new(timed(quick_cfg(model))).run().summary;
        assert_eq!(plain, observed, "{model}: the timeline perturbed the run");
    }
}
