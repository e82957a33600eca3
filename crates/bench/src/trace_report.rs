//! Structured-trace capture for the report path.
//!
//! `all_figures --trace <path>` runs one reference end-to-end scenario with
//! the [`sim_core::trace`] sink enabled, audits the event stream with
//! [`sim_core::audit`], and dumps it as JSONL for offline debugging. This
//! keeps every published record backed by a run the invariant auditor has
//! checked.

use fragvisor::{scenarios, Distribution, HypervisorProfile};
use sim_core::time::SimTime;
use workloads::LempConfig;

/// Outcome of a traced reference run.
pub struct TraceReport {
    /// The captured trace, one JSON object per line.
    pub jsonl: String,
    /// Events captured (post-truncation).
    pub events: usize,
    /// Events dropped by the ring buffer, if any.
    pub dropped: u64,
    /// Rendered audit violations (empty on a clean run).
    pub violations: Vec<String>,
}

/// Runs the reference scenario (3-node LEMP serving 30 requests, with a
/// mid-run consolidation) under tracing and audits the stream.
pub fn capture_reference_trace() -> TraceReport {
    let mut sim = scenarios::lemp(
        LempConfig::paper(100, 3),
        HypervisorProfile::fragvisor(),
        &Distribution::OneVcpuPerNode,
        30,
    );
    let tracer = sim.enable_tracing(1 << 17);
    sim.run_until(SimTime::from_secs(1));
    let _ = fragvisor::aggregate::consolidate_onto(&mut sim, comm::NodeId::new(0));
    sim.run_client();

    let violations = sim_core::audit::audit_tracer(&tracer)
        .expect("the reference trace is unsampled")
        .iter()
        .map(|v| v.to_string())
        .collect();
    TraceReport {
        jsonl: tracer.to_jsonl(),
        events: tracer.len(),
        dropped: tracer.dropped(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace audits clean, exports one line per event, and its bytes
    /// are pinned. It is the only tier-1 trace with a `set_link` override
    /// (the client's Ethernet) and several bulk classes on one link, so the
    /// only pin on the fabric's `queued_ns`, `serialize_ns` and `bound_ns`
    /// fields.
    #[test]
    fn reference_trace_is_clean_and_exportable() {
        let r = capture_reference_trace();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.jsonl.lines().count(), r.events);
        assert_eq!(r.events, 27_272);
        assert_eq!(r.dropped, 0);
        let sends = |class: &str| {
            let class = format!(r#""class":"{class}""#);
            r.jsonl
                .lines()
                .filter(|l| l.starts_with(r#"{"ev":"fabric_send","#) && l.contains(&class))
                .count()
        };
        let counts = ["dsm", "io", "interrupt", "migration"].map(sends);
        assert_eq!(counts, [9_650, 120, 43, 6]);
        let digest = sim_core::digest::fnv1a(r.jsonl.as_bytes());
        assert_eq!(digest, 0xa8c4_fd94_0af3_3c74, "digest {digest:016x}");
    }
}
