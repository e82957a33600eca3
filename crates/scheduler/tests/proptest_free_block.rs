//! Property test for the room check of `DatacenterSim`'s delayed-retry
//! pass: without Aggregate VMs, a delayed VM needing more vCPUs than the
//! cluster's largest free block is kept without a placement call, which
//! is exact only if no single machine fits more than that block.

use cluster::{Cluster, MachineSpec, ResourceRequest, VmId};
use comm::NodeId;
use proptest::prelude::*;
use scheduler::FitAlgo;
use sim_core::rng::DetRng;
use sim_core::units::ByteSize;

const FITS: [FitAlgo; 3] = [FitAlgo::BestFit, FitAlgo::FirstFit, FitAlgo::WorstFit];

/// Fills `cluster` with up to `vms` random allocations, skipping those
/// that do not fit where they land.
fn load(cluster: &mut Cluster, rng: &mut DetRng, vms: usize) {
    for k in 0..vms {
        let node = NodeId::from_usize(rng.below(cluster.len() as u64) as usize);
        let req = ResourceRequest::new(1 + rng.below(6) as u32, ByteSize::mib(256 * rng.below(33)));
        let _ = cluster.allocate(node, VmId::from_usize(k), req);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No fitting rule finds a machine for more vCPUs than the largest
    /// free block, and every rule finds one for a zero-RAM request that
    /// size.
    #[test]
    fn largest_free_block_bounds_single_fit(
        seed in 0u64..100_000,
        nodes in 1usize..12,
        vms in 0usize..120,
    ) {
        let mut rng = DetRng::new(seed);
        let mut cluster = Cluster::homogeneous(nodes, MachineSpec::fig14());
        load(&mut cluster, &mut rng, vms);
        let block = cluster.largest_free_block();
        for fit in FITS {
            let over = ResourceRequest::new(block + 1, ByteSize::bytes(0));
            prop_assert!(fit.pick(&cluster, over).is_none());
            let at = ResourceRequest::new(block, ByteSize::bytes(0));
            prop_assert!(fit.pick(&cluster, at).is_some());
        }
    }
}
