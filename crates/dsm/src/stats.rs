//! DSM protocol counters.

use sim_core::time::SimTime;

/// Counters maintained by the DSM directory.
///
/// Fault *rates* (the x-axis of the paper's Figure 1) are computed by
/// dividing these counters by a measurement span.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Accesses satisfied by a valid local mapping.
    pub hits: u64,
    /// Zero-fill first-touch allocations (no traffic).
    pub first_touches: u64,
    /// Read faults (shared-copy fetches).
    pub read_faults: u64,
    /// Write faults (upgrades + ownership transfers).
    pub write_faults: u64,
    /// Invalidation messages implied by write faults.
    pub invalidations: u64,
    /// Pages delivered by read prefetch (no separate fault).
    pub prefetched: u64,
    /// Master copies evicted to another node by memory reclaim (borrow).
    pub evictions: u64,
    /// Pages discarded outright by memory reclaim (balloon / deflate).
    pub releases: u64,
    /// Accesses rejected because the issuing node was epoch-fenced.
    pub stale_rejections: u64,
    /// Cluster-epoch bumps (one per node declared dead).
    pub epoch_bumps: u64,
    /// Fenced nodes readmitted at the current epoch.
    pub rejoins: u64,
}

impl DsmStats {
    /// Total faults of either kind.
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults
    }

    /// Faults per second over `span`.
    pub fn faults_per_sec(&self, span: SimTime) -> f64 {
        let s = span.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.total_faults() as f64 / s
        }
    }

    /// Hit rate over all classified accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.total_faults();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_hit_rate() {
        let s = DsmStats {
            hits: 90,
            read_faults: 6,
            write_faults: 4,
            ..DsmStats::default()
        };
        assert_eq!(s.total_faults(), 10);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.faults_per_sec(SimTime::from_secs(2)), 5.0);
        assert_eq!(s.faults_per_sec(SimTime::ZERO), 0.0);
    }

    #[test]
    fn empty_stats_hit_rate_is_one() {
        let s = DsmStats::default();
        assert_eq!(s.hit_rate(), 1.0);
    }
}
