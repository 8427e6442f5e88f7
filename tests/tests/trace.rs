//! Integration tests of the tracing subsystem: the tracer must be
//! read-only (a traced run reports byte-identical results to an untraced
//! run of the same config), trace streams must be deterministic across
//! executor thread counts, and the stream must actually carry the VP/DP
//! lifecycle the paper's argument is built on.

use ddp_core::{ClusterConfig, DdpModel, Simulation, TraceConfig, TraceEventKind};
use ddp_harness::{run_sweep_traced, trace_event_to_json, Sweep};

fn quick_cfg(model: DdpModel) -> ClusterConfig {
    let mut cfg = ClusterConfig::micro21(model).quick();
    cfg.warmup_requests = 30;
    cfg.measured_requests = 400;
    cfg
}

fn traced(cfg: ClusterConfig) -> ClusterConfig {
    cfg.with_trace(TraceConfig::enabled())
}

#[test]
fn traced_and_untraced_runs_report_byte_identical_summaries() {
    for model in DdpModel::all() {
        let plain = Simulation::new(quick_cfg(model)).run().summary;
        let observed = Simulation::new(traced(quick_cfg(model))).run().summary;
        // RunSummary is PartialEq over every field, floats included: the
        // tracer being read-only means equality bit for bit, not
        // approximately.
        assert_eq!(plain, observed, "{model}: tracing perturbed the run");
    }
}

#[test]
fn trace_streams_are_bit_identical_across_thread_counts() {
    let sweep = || Sweep::grid25(|m| traced(quick_cfg(m)));
    let sequential = run_sweep_traced("trace-seq", sweep(), 1);
    let parallel = run_sweep_traced("trace-par", sweep(), 4);
    assert_eq!(sequential.len(), parallel.len());
    for ((seq_rec, seq_dump), (par_rec, par_dump)) in sequential.iter().zip(&parallel) {
        assert_eq!(seq_rec, par_rec);
        // TraceDump is Eq: every record, in order, including drop counts.
        assert_eq!(seq_dump, par_dump, "{} trace diverged", seq_rec.model);
        // And the serialized stream matches byte for byte.
        let (seq_dump, par_dump) = (seq_dump.as_ref().unwrap(), par_dump.as_ref().unwrap());
        for (a, b) in seq_dump.events.iter().zip(&par_dump.events) {
            assert_eq!(
                trace_event_to_json(seq_rec.index, None, a),
                trace_event_to_json(par_rec.index, None, b)
            );
        }
    }
}

#[test]
fn every_completed_write_has_vp_and_dp_events() {
    // Under <Linearizable, Synchronous> a write acks only after its
    // persist, so every completed write's VP and DP must both be in the
    // stream (ring sized well above the run's event count).
    let mut sim = Simulation::new(traced(quick_cfg(DdpModel::baseline())));
    sim.run();
    let dump = sim.take_trace().expect("tracing was enabled");
    assert_eq!(dump.dropped, 0, "ring must hold the full quick run");

    let versions = |kind: TraceEventKind| -> Vec<u64> {
        let mut v: Vec<u64> = dump
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.b)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let completed = versions(TraceEventKind::WriteComplete);
    let vps = versions(TraceEventKind::WriteVp);
    let dps = versions(TraceEventKind::WriteDp);
    assert!(!completed.is_empty(), "the run completed no writes");
    for v in &completed {
        assert!(
            vps.binary_search(v).is_ok(),
            "version {v} completed without a VP event"
        );
        assert!(
            dps.binary_search(v).is_ok(),
            "version {v} completed without a DP event"
        );
    }

    // VP precedes DP for every version, and the recorded lag matches the
    // timestamps.
    for dp in dump
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::WriteDp)
    {
        let vp = dump
            .events
            .iter()
            .find(|e| e.kind == TraceEventKind::WriteVp && e.b == dp.b)
            .expect("every DP has a VP");
        assert!(vp.at_ns <= dp.at_ns, "version {} DP before VP", dp.b);
        assert_eq!(dp.c, dp.at_ns - vp.at_ns, "version {} lag mismatch", dp.b);
    }
}
