//! The shared run-record field schema.
//!
//! `--json` and `--csv` must never drift apart, so neither serializer
//! owns a field list: both walk the one produced by [`record_fields`].
//! Adding a field here adds it to the JSON object *and* the CSV header in
//! the same position; forgetting one output format is impossible by
//! construction.
//!
//! The converse — adding a `RunRecord`/`RunSummary`/`PhaseBreakdown`
//! field and forgetting to export it here — is a compile error:
//! [`record_fields`] binds every field of those structs with an
//! exhaustive pattern (a new field is E0027) and denies unused variables
//! (a bound field without a column fails the build).

use ddp_core::{PhaseBreakdown, RunSummary};

use crate::record::RunRecord;

/// One field value of a serialized run record.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue<'a> {
    /// An unsigned integer.
    U64(u64),
    /// A float (serialized as `null` in JSON when not finite).
    F64(f64),
    /// A string (escaped per output format).
    Str(String),
    /// A `(node, simulated ns)` event trace.
    Pairs(&'a [(u8, u64)]),
}

/// The ordered `(name, value)` field list of one run record — the single
/// schema both the JSON-lines and CSV writers serialize.
#[must_use]
#[deny(unused_variables)]
pub fn record_fields(r: &RunRecord) -> Vec<(&'static str, FieldValue<'_>)> {
    use FieldValue::{Pairs, Str, F64, U64};
    // No `..`: a field without a column is E0027 or an unused variable.
    let RunRecord {
        index,
        label,
        model,
        summary,
    } = r;
    let RunSummary {
        throughput,
        mean_read_ns,
        mean_write_ns,
        mean_access_ns,
        p50_read_ns,
        p50_write_ns,
        p95_read_ns,
        p95_write_ns,
        p99_read_ns,
        p99_write_ns,
        p999_read_ns,
        p999_write_ns,
        traffic_bytes_per_req,
        read_persist_conflict_rate,
        txn_conflict_rate,
        mean_buffered_writes,
        max_buffered_writes,
        messages_dropped,
        messages_duplicated,
        retransmits,
        client_timeouts,
        duplicates_suppressed,
        transient_expirations,
        catchup_keys,
        txns_started,
        txns_conflicted,
        txns_committed,
        crashes,
        rejoins,
        window_start_ns,
        measured_ns,
        vp_dp_lag_mean_ns,
        vp_dp_lag_p95_ns,
        vp_dp_lag_max_ns,
        phase,
        offered_per_sec,
        shed_rate,
        ol_arrivals,
        ol_rejections,
        ol_retries,
        ol_shed,
        admissions,
        mean_admission_queue,
        max_admission_queue,
        mean_admission_wait_ns,
        mean_nvm_bank_queue,
        max_nvm_bank_queue,
        lsm_seals,
        lsm_merges,
        compaction_bytes,
        mean_active_compactions,
        max_active_compactions,
    } = summary;
    let PhaseBreakdown {
        service_ns,
        queue_ns,
        network_ns,
        persist_stall_ns,
        nvm_queue_ns,
        read_stall_ns,
    } = phase;
    vec![
        ("index", U64(*index as u64)),
        ("label", Str(label.clone())),
        ("consistency", Str(model.consistency.to_string())),
        ("persistency", Str(model.persistency.to_string())),
        ("throughput", F64(*throughput)),
        ("mean_read_ns", F64(*mean_read_ns)),
        ("mean_write_ns", F64(*mean_write_ns)),
        ("mean_access_ns", F64(*mean_access_ns)),
        ("p50_read_ns", F64(*p50_read_ns)),
        ("p50_write_ns", F64(*p50_write_ns)),
        ("p95_read_ns", F64(*p95_read_ns)),
        ("p95_write_ns", F64(*p95_write_ns)),
        ("p99_read_ns", F64(*p99_read_ns)),
        ("p99_write_ns", F64(*p99_write_ns)),
        ("p999_read_ns", F64(*p999_read_ns)),
        ("p999_write_ns", F64(*p999_write_ns)),
        ("traffic_bytes_per_req", F64(*traffic_bytes_per_req)),
        (
            "read_persist_conflict_rate",
            F64(*read_persist_conflict_rate),
        ),
        ("txn_conflict_rate", F64(*txn_conflict_rate)),
        ("mean_buffered_writes", F64(*mean_buffered_writes)),
        ("max_buffered_writes", U64(*max_buffered_writes)),
        ("vp_dp_lag_mean_ns", F64(*vp_dp_lag_mean_ns)),
        ("vp_dp_lag_p95_ns", F64(*vp_dp_lag_p95_ns)),
        ("vp_dp_lag_max_ns", F64(*vp_dp_lag_max_ns)),
        ("phase_service_ns", F64(*service_ns)),
        ("phase_queue_ns", F64(*queue_ns)),
        ("phase_network_ns", F64(*network_ns)),
        ("phase_persist_stall_ns", F64(*persist_stall_ns)),
        ("phase_nvm_queue_ns", F64(*nvm_queue_ns)),
        ("phase_read_stall_ns", F64(*read_stall_ns)),
        ("messages_dropped", U64(*messages_dropped)),
        ("messages_duplicated", U64(*messages_duplicated)),
        ("retransmits", U64(*retransmits)),
        ("client_timeouts", U64(*client_timeouts)),
        ("duplicates_suppressed", U64(*duplicates_suppressed)),
        ("transient_expirations", U64(*transient_expirations)),
        ("catchup_keys", U64(*catchup_keys)),
        ("txns_started", U64(*txns_started)),
        ("txns_conflicted", U64(*txns_conflicted)),
        ("txns_committed", U64(*txns_committed)),
        ("crashes", Pairs(crashes)),
        ("rejoins", Pairs(rejoins)),
        ("window_start_ns", U64(*window_start_ns)),
        ("measured_ns", U64(*measured_ns)),
        ("offered_per_sec", F64(*offered_per_sec)),
        ("shed_rate", F64(*shed_rate)),
        ("ol_arrivals", U64(*ol_arrivals)),
        ("ol_rejections", U64(*ol_rejections)),
        ("ol_retries", U64(*ol_retries)),
        ("ol_shed", U64(*ol_shed)),
        ("admissions", U64(*admissions)),
        ("mean_admission_queue", F64(*mean_admission_queue)),
        ("max_admission_queue", U64(*max_admission_queue)),
        ("mean_admission_wait_ns", F64(*mean_admission_wait_ns)),
        ("mean_nvm_bank_queue", F64(*mean_nvm_bank_queue)),
        ("max_nvm_bank_queue", U64(*max_nvm_bank_queue)),
        ("lsm_seals", U64(*lsm_seals)),
        ("lsm_merges", U64(*lsm_merges)),
        ("compaction_bytes", U64(*compaction_bytes)),
        ("mean_active_compactions", F64(*mean_active_compactions)),
        ("max_active_compactions", U64(*max_active_compactions)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddp_core::{ClusterConfig, DdpModel, Simulation};

    fn record() -> RunRecord {
        let mut cfg = ClusterConfig::micro21(DdpModel::baseline()).quick();
        cfg.warmup_requests = 20;
        cfg.measured_requests = 150;
        let mut sim = Simulation::new(cfg);
        sim.run();
        RunRecord::from_simulation(0, "t".into(), &mut sim)
    }

    #[test]
    fn field_names_are_unique_and_stable_at_the_front() {
        let r = record();
        let fields = record_fields(&r);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        // The leading identity fields anchor downstream tooling.
        assert_eq!(
            &names[..4],
            &["index", "label", "consistency", "persistency"]
        );
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field name");
    }
}
