//! Single-machine placement: best-fit (the paper's BFF baseline) plus
//! first-fit and worst-fit comparison policies.
//!
//! All three ride the cluster's free-CPU bucket index instead of a full
//! scan over thousands of machines — the enabling change for the
//! data-center-scale study. Best fit and worst fit skip empty buckets in
//! one load each and read the free RAM of the members of the first bucket
//! that holds a fit, stopping early at a member on the bucket's RAM
//! floor; first fit reads the buckets at or above the request a 64-node
//! word at a time, up to the first fitting id.

use cluster::{Cluster, ResourceRequest, VmId};
use comm::NodeId;

/// A single-machine fitting rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitAlgo {
    /// Tightest machine that fits (least free CPUs left over, then least
    /// free RAM, then lowest node id) — the BFF baseline.
    #[default]
    BestFit,
    /// Lowest-numbered machine that fits.
    FirstFit,
    /// Machine with the most free CPUs.
    WorstFit,
}

impl FitAlgo {
    /// Short policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FitAlgo::BestFit => "bestfit",
            FitAlgo::FirstFit => "firstfit",
            FitAlgo::WorstFit => "worstfit",
        }
    }

    /// Picks a node for `req`, or `None` if no single machine fits.
    pub fn pick(&self, cluster: &Cluster, req: ResourceRequest) -> Option<NodeId> {
        match self {
            FitAlgo::BestFit => cluster.best_fit(req),
            FitAlgo::FirstFit => cluster.first_fit(req),
            FitAlgo::WorstFit => cluster.worst_fit(req),
        }
    }

    /// Places `vm` per this rule; returns the chosen node.
    pub fn place(&self, cluster: &mut Cluster, vm: VmId, req: ResourceRequest) -> Option<NodeId> {
        let node = self.pick(cluster, req)?;
        cluster
            .allocate(node, vm, req)
            .expect("pick() verified capacity");
        Some(node)
    }
}

/// The baseline scheduler: places each VM on the machine that fits it
/// with the least free capacity left over (best fit), first match wins
/// ties deterministically by node id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bff;

impl Bff {
    /// Picks the best-fit node for `req`, or `None` if no single machine
    /// fits (the case FragBFF takes over).
    pub fn pick(&self, cluster: &Cluster, req: ResourceRequest) -> Option<NodeId> {
        FitAlgo::BestFit.pick(cluster, req)
    }

    /// Places `vm` via best fit; returns the chosen node.
    pub fn place(&self, cluster: &mut Cluster, vm: VmId, req: ResourceRequest) -> Option<NodeId> {
        FitAlgo::BestFit.place(cluster, vm, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MachineSpec;
    use sim_core::units::ByteSize;

    fn req(cpus: u32) -> ResourceRequest {
        ResourceRequest::new(cpus, ByteSize::gib(u64::from(cpus)))
    }

    #[test]
    fn best_fit_picks_tightest_machine() {
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        // node0: 10 free, node1: 4 free, node2: 16 free.
        c.allocate(NodeId::new(0), VmId::new(90), req(6)).unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), req(12)).unwrap();
        let got = Bff.pick(&c, req(4));
        assert_eq!(got, Some(NodeId::new(1)));
    }

    #[test]
    fn returns_none_when_fragmented() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), req(14)).unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), req(14)).unwrap();
        // 4 CPUs free in aggregate (2+2) but no single fit.
        assert_eq!(Bff.pick(&c, req(4)), None);
        assert_eq!(c.total_free_cpus(), 4);
    }

    #[test]
    fn place_allocates() {
        let mut c = Cluster::homogeneous(1, MachineSpec::testbed());
        let node = Bff.place(&mut c, VmId::new(1), req(4)).unwrap();
        assert_eq!(node, NodeId::new(0));
        assert_eq!(c.machine(node).free_cpus(), 12);
    }

    #[test]
    fn tie_breaks_by_node_id() {
        let c = Cluster::homogeneous(3, MachineSpec::testbed());
        assert_eq!(Bff.pick(&c, req(2)), Some(NodeId::new(0)));
    }

    #[test]
    fn fit_algos_diverge_deterministically() {
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        // Free: node0 = 6, node1 = 16, node2 = 10.
        c.allocate(NodeId::new(0), VmId::new(90), req(10)).unwrap();
        c.allocate(NodeId::new(2), VmId::new(91), req(6)).unwrap();
        assert_eq!(FitAlgo::BestFit.pick(&c, req(4)), Some(NodeId::new(0)));
        assert_eq!(FitAlgo::FirstFit.pick(&c, req(4)), Some(NodeId::new(0)));
        assert_eq!(FitAlgo::WorstFit.pick(&c, req(4)), Some(NodeId::new(1)));
        assert_eq!(FitAlgo::FirstFit.pick(&c, req(8)), Some(NodeId::new(1)));
    }

    #[test]
    fn place_with_each_algo_allocates() {
        for algo in [FitAlgo::BestFit, FitAlgo::FirstFit, FitAlgo::WorstFit] {
            let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
            let node = algo.place(&mut c, VmId::new(1), req(4)).unwrap();
            assert_eq!(c.machine(node).allocation_of(VmId::new(1)).unwrap().cpus, 4);
            c.check_invariants();
        }
    }
}
