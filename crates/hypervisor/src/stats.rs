//! VM-level measurement state.

use sim_core::stats::{Histogram, Meter, TimeSeries};
use sim_core::time::SimTime;

use crate::vm::VmError;

/// Statistics collected while a [`crate::vm::VmWorld`] runs.
#[derive(Debug)]
pub struct VmStats {
    /// Completion time of each vCPU's program.
    pub vcpu_finish: Vec<Option<SimTime>>,
    /// Workload-defined samples recorded per vCPU via [`Op::Observe`]
    /// (e.g. request latencies in ns); fleet experiments map vCPUs back
    /// to tenants and fold these into per-tenant percentiles.
    ///
    /// [`Op::Observe`]: crate::program::Op::Observe
    pub samples: Vec<Vec<u64>>,
    /// End-to-end latency of client requests.
    pub request_latency: Histogram,
    /// Request latencies over time: `(completion time, latency in ms)`.
    pub latency_series: TimeSeries,
    /// Number of client requests completed.
    pub completed_requests: u64,
    /// IPIs sent (program-level and TLB shootdowns).
    pub ipis: Meter,
    /// vCPU migrations performed.
    pub migrations: u64,
    /// Total time spent in migrations.
    pub migration_time: SimTime,
    /// Transmissions dropped on a full ring.
    pub tx_drops: u64,
    /// Receives dropped on a full ring.
    pub rx_drops: u64,
    /// FIFO watermark of the (single) physical disk.
    pub disk_free_at: SimTime,
    /// Non-fatal execution errors (lost IPIs, unreachable devices).
    pub errors: Vec<VmError>,
    /// Scripted node crashes that fired.
    pub node_crashes: u64,
    /// Heartbeat probes the monitor recorded as missed.
    pub heartbeat_misses: u64,
    /// Nodes the detector declared dead.
    pub detections: u64,
    /// Total crash-to-declaration latency across detections.
    pub detection_latency: SimTime,
    /// Total crash-to-resume downtime across recoveries.
    pub recovery_downtime: SimTime,
    /// Guest work lost to checkpoint rollback across recoveries.
    pub lost_work: SimTime,
    /// DSM pages quarantined (lost with a dead slice and restored).
    pub pages_quarantined: u64,
    /// DSM master copies moved by proactive drains.
    pub pages_drained: u64,
    /// Total duration of proactive drains: each lasts until the slower of
    /// its page stream and a vCPU migration finishes.
    pub drain_time: SimTime,
    /// Scripted partition windows that opened.
    pub partitions: u64,
    /// Fenced nodes readmitted after a partition healed.
    pub rejoins: u64,
    /// Recoveries that fell back from the configured restore target to
    /// another live node.
    pub restore_fallbacks: u64,
    /// vCPU migrations refused during drains.
    pub migrations_refused: u64,
}

impl VmStats {
    /// Creates zeroed stats for `vcpus` vCPUs.
    pub fn new(vcpus: usize) -> Self {
        VmStats {
            vcpu_finish: vec![None; vcpus],
            samples: vec![Vec::new(); vcpus],
            request_latency: Histogram::new(),
            latency_series: TimeSeries::new(),
            completed_requests: 0,
            ipis: Meter::new(),
            migrations: 0,
            migration_time: SimTime::ZERO,
            tx_drops: 0,
            rx_drops: 0,
            disk_free_at: SimTime::ZERO,
            errors: Vec::new(),
            node_crashes: 0,
            heartbeat_misses: 0,
            detections: 0,
            detection_latency: SimTime::ZERO,
            recovery_downtime: SimTime::ZERO,
            lost_work: SimTime::ZERO,
            pages_quarantined: 0,
            pages_drained: 0,
            drain_time: SimTime::ZERO,
            partitions: 0,
            rejoins: 0,
            restore_fallbacks: 0,
            migrations_refused: 0,
        }
    }

    /// Completion time of the last vCPU to finish (zero if none finished).
    pub fn makespan(&self) -> SimTime {
        self.vcpu_finish
            .iter()
            .flatten()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Client throughput in requests/second over `span`.
    pub fn requests_per_sec(&self, span: SimTime) -> f64 {
        let s = span.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.completed_requests as f64 / s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_is_max_finish() {
        let mut s = VmStats::new(3);
        s.vcpu_finish[0] = Some(SimTime::from_millis(5));
        s.vcpu_finish[2] = Some(SimTime::from_millis(9));
        assert_eq!(s.makespan(), SimTime::from_millis(9));
    }

    #[test]
    fn empty_makespan_is_zero() {
        let s = VmStats::new(2);
        assert_eq!(s.makespan(), SimTime::ZERO);
    }

    #[test]
    fn throughput() {
        let mut s = VmStats::new(1);
        s.completed_requests = 100;
        assert_eq!(s.requests_per_sec(SimTime::from_secs(4)), 25.0);
    }
}
