//! Failure detection and recovery policy for a running VM (§4).
//!
//! A fault plan ([`sim_core::fault::FaultPlan`]) tells the *fabric* when
//! nodes die and links degrade; this module is the *hypervisor's* side of
//! the story: a heartbeat failure detector on the monitor slice (node 0)
//! probes every other slice over the fabric's `Control` class, counts
//! consecutive misses, and — past a threshold — declares the slice dead
//! and drives recovery:
//!
//! * **Reactive** (default): quarantine every DSM page homed on the dead
//!   slice ([`dsm::Dsm::quarantine_node`]), restore their contents from
//!   the last distributed checkpoint image ([`crate::checkpoint::restore`]),
//!   and resume the dead slice's vCPUs on the restore node once the image
//!   is streamed back.
//! * **Proactive** (when [`FailureConfig::prediction_lead`] is set):
//!   hardware monitoring predicts the failure ahead of time and the
//!   hypervisor drains the suspect slice — vCPU k migrates to pCPU k of
//!   the restore node, and the DSM master copies follow as one bulk
//!   page stream priced on the fabric — so the eventual crash hits an
//!   empty slice and costs no lost work.
//!
//! The detector's timing knobs trade detection latency against false
//! positives under link loss; `exp_fault_recovery` in the bench harness
//! sweeps them, and `exp_reliability` sets the drain against
//! checkpoint/restart.

use comm::NodeId;
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;

/// Heartbeat failure detector + recovery parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Node hosting the failure detector (probes every other slice).
    ///
    /// Seeded fault plans ([`sim_core::fault::FaultPlan::seeded`] /
    /// `chaotic`) take the same monitor index and spare it from crashes
    /// and partitions: a cut-off monitor would mass-declare the peers it
    /// can no longer reach, and the quorum protocol that real clusters
    /// use to survive that is out of scope here (see DESIGN.md §14).
    pub monitor: NodeId,
    /// Interval between heartbeat probe rounds from the monitor slice.
    pub heartbeat_interval: SimTime,
    /// Consecutive missed probes before a slice is declared dead.
    pub miss_threshold: u32,
    /// Node that adopts the dead slice's pages and vCPUs.
    ///
    /// If this node is itself dead (or dies mid-restore), recovery falls
    /// back to the lowest-numbered live node.
    pub restore_to: NodeId,
    /// Disk holding the checkpoint image (restore bandwidth).
    pub restore_disk: Bandwidth,
    /// Wall time between distributed checkpoints (bounds lost work).
    pub checkpoint_interval: SimTime,
    /// If set, failures are predicted this far ahead and the suspect
    /// slice is proactively drained instead of crash-restored.
    pub prediction_lead: Option<SimTime>,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            monitor: NodeId::new(0),
            heartbeat_interval: SimTime::from_millis(5),
            miss_threshold: 3,
            restore_to: NodeId::new(0),
            restore_disk: Bandwidth::mb_per_sec(500.0),
            checkpoint_interval: SimTime::from_secs(60),
            prediction_lead: None,
        }
    }
}

impl FailureConfig {
    /// Worst-case detection latency: every probe of a dead slice misses,
    /// so declaration happens `miss_threshold` rounds after the crash
    /// (plus up to one interval of phase offset).
    pub fn worst_case_detection(&self) -> SimTime {
        let rounds = u64::from(self.miss_threshold) + 1;
        SimTime::from_nanos(self.heartbeat_interval.as_nanos().saturating_mul(rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_detection_bound_is_milliseconds() {
        let cfg = FailureConfig::default();
        assert_eq!(cfg.worst_case_detection(), SimTime::from_millis(20));
    }
}
