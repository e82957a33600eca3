//! FragBFF: Aggregate-VM placement over fragments, and consolidation.

use cluster::{Cluster, ResourceRequest, VmId};
use comm::NodeId;
use sim_core::units::ByteSize;

/// Which objective consolidation (and fragment selection) optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsolidationPolicy {
    /// Minimize overall cluster fragmentation: prefer consuming the
    /// smallest free blocks and leaving large blocks intact for future
    /// single-machine VMs (the policy of the Figure 14 run).
    MinFragmentation,
    /// Minimize the number of nodes each Aggregate VM spans at any time.
    MinNodes,
}

/// How an Aggregate VM is split across nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceAssignment {
    /// `(node, vcpus)` parts, in allocation order.
    pub parts: Vec<(NodeId, u32)>,
}

impl SliceAssignment {
    /// Total vCPUs across all parts.
    pub fn total_cpus(&self) -> u32 {
        self.parts.iter().map(|&(_, c)| c).sum()
    }

    /// Number of nodes the VM spans.
    pub fn node_count(&self) -> usize {
        self.parts.len()
    }
}

/// A commanded slice migration (`cpus` vCPUs from one node to another).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCmd {
    /// The VM whose vCPUs move.
    pub vm: VmId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Number of vCPUs to move.
    pub cpus: u32,
}

/// The FragBFF scheduler extension.
#[derive(Debug, Clone, Copy)]
pub struct FragBff {
    /// Consolidation objective.
    pub policy: ConsolidationPolicy,
}

/// Worst-case RAM charged per vCPU in a split: `ceil(ram / cpus)`.
///
/// Used only to bound how many vCPUs a fragment can host; the actual
/// split (`ram_shares`) hands out exact amounts that sum to `req.ram`.
/// The ceiling guarantees every exact share fits wherever the bound said
/// it would (a floor here silently under-allocated RAM for non-divisible
/// shapes like 4 vCPUs / 5 GiB).
fn per_cpu_ram_ceil(req: ResourceRequest) -> u64 {
    if req.cpus == 0 {
        return 0;
    }
    req.ram.as_u64().div_ceil(u64::from(req.cpus))
}

/// Splits `req.ram` across `parts` proportionally to their vCPU counts,
/// distributing the non-divisible remainder so the shares sum *exactly*
/// to `req.ram`. Share `i` gets
/// `floor(ram·(c₀+…+cᵢ)/cpus) − floor(ram·(c₀+…+cᵢ₋₁)/cpus)`,
/// which telescopes to the total and never exceeds `ceil(ram/cpus)·cᵢ`.
fn ram_shares(req: ResourceRequest, parts: &[(NodeId, u32)]) -> Vec<u64> {
    let ram = u128::from(req.ram.as_u64());
    let cpus = u128::from(req.cpus);
    if cpus == 0 {
        return vec![0; parts.len()];
    }
    let mut shares = Vec::with_capacity(parts.len());
    let mut cum = 0u128;
    let mut given = 0u128;
    for &(_, c) in parts {
        cum += u128::from(c);
        let upto = ram * cum / cpus;
        shares.push(u64::try_from(upto - given).expect("share fits u64"));
        given = upto;
    }
    shares
}

impl FragBff {
    /// Creates a FragBFF with the given policy.
    pub fn new(policy: ConsolidationPolicy) -> Self {
        FragBff { policy }
    }

    /// Places `vm` as an Aggregate VM across fragmented nodes; `None` when
    /// the cluster lacks aggregate capacity (the VM must be delayed).
    ///
    /// Fragments are harvested through the cluster's free-CPU bucket
    /// index — smallest blocks first for `MinFragmentation`, largest first
    /// for `MinNodes` — and the walk stops as soon as enough vCPUs are
    /// gathered, so a placement touches O(parts) machines rather than
    /// scanning the whole cluster.
    pub fn place_aggregate(
        &self,
        cluster: &mut Cluster,
        vm: VmId,
        req: ResourceRequest,
    ) -> Option<SliceAssignment> {
        if cluster.total_free_cpus() < req.cpus {
            return None;
        }
        let per_cpu = per_cpu_ram_ceil(req);
        let parts = match self.policy {
            // Least fragmentation: hoover up the smallest fragments first.
            ConsolidationPolicy::MinFragmentation => {
                gather(cluster, cluster.fragments_ascending(), per_cpu, req.cpus)
            }
            // Fewest nodes: consume the largest fragments first.
            ConsolidationPolicy::MinNodes => {
                gather(cluster, cluster.fragments_descending(), per_cpu, req.cpus)
            }
        }?;
        let shares = ram_shares(req, &parts);
        for (&(n, cpus), &share) in parts.iter().zip(&shares) {
            cluster
                .allocate(n, vm, ResourceRequest::new(cpus, ByteSize::bytes(share)))
                .expect("capacity verified");
        }
        Some(SliceAssignment { parts })
    }

    /// Attempts to consolidate `vm` (an Aggregate VM) after resources were
    /// freed; applies the moves to the cluster ledger and returns them.
    ///
    /// MinNodes consolidates whenever a move reduces the node count.
    /// MinFragmentation additionally avoids moves that would carve into a
    /// node's large free block (it only fills gaps no bigger than needed).
    ///
    /// Works from the VM's *actual* per-node allocations (via the
    /// cluster's VM → nodes ledger), so uneven RAM splits move exactly
    /// and destinations are checked for RAM room as well as CPUs.
    pub fn consolidate(&self, cluster: &mut Cluster, vm: VmId) -> Vec<MigrationCmd> {
        let mut cmds = Vec::new();
        loop {
            let homes: Vec<(NodeId, ResourceRequest)> = cluster
                .home_nodes(vm)
                .map(|n| {
                    let alloc = cluster
                        .machine(n)
                        .allocation_of(vm)
                        .expect("ledger says VM lives here");
                    (n, alloc)
                })
                .collect();
            if homes.len() <= 1 {
                break;
            }
            // Full consolidation: can any current home absorb the rest?
            let total_cpus: u32 = homes.iter().map(|&(_, r)| r.cpus).sum();
            let total_ram: u64 = homes.iter().map(|&(_, r)| r.ram.as_u64()).sum();
            let full_target = homes
                .iter()
                .filter(|&&(n, r)| {
                    let m = cluster.machine(n);
                    m.free_cpus() >= total_cpus - r.cpus
                        && m.free_ram().as_u64() >= total_ram - r.ram.as_u64()
                })
                // Tightest fit for MinFragmentation, biggest share for
                // MinNodes — both deterministic.
                .min_by_key(|&&(n, r)| match self.policy {
                    ConsolidationPolicy::MinFragmentation => {
                        (cluster.machine(n).free_cpus() - (total_cpus - r.cpus), n.0)
                    }
                    ConsolidationPolicy::MinNodes => (u32::MAX - r.cpus, n.0),
                })
                .map(|&(n, _)| n);
            if let Some(dst) = full_target {
                for &(src, part) in &homes {
                    if src == dst {
                        continue;
                    }
                    cluster
                        .migrate(vm, src, dst, part)
                        .expect("capacity verified");
                    cmds.push(MigrationCmd {
                        vm,
                        from: src,
                        to: dst,
                        cpus: part.cpus,
                    });
                }
                break;
            }
            // Partial move: pick a destination home node with free
            // capacity, then shrink the smallest other slice into it.
            let dst = homes
                .iter()
                .filter(|&&(n, _)| cluster.machine(n).free_cpus() > 0)
                .min_by_key(|&&(n, r)| match self.policy {
                    // Fill the tightest gap.
                    ConsolidationPolicy::MinFragmentation => (cluster.machine(n).free_cpus(), n.0),
                    // Grow the biggest slice.
                    ConsolidationPolicy::MinNodes => (u32::MAX - r.cpus, n.0),
                })
                .map(|&(n, _)| n);
            let Some(dst) = dst else { break };
            let Some(&(src, src_alloc)) = homes
                .iter()
                .filter(|&&(n, r)| n != dst && r.cpus > 0)
                .min_by_key(|&&(n, r)| (r.cpus, n.0))
            else {
                break;
            };
            let dst_machine = cluster.machine(dst);
            let mut movable = src_alloc.cpus.min(dst_machine.free_cpus());
            // The slice's RAM rides proportionally; clamp the move so the
            // RAM share fits the destination too.
            if src_alloc.ram.as_u64() > 0 {
                let by_ram = u128::from(dst_machine.free_ram().as_u64())
                    * u128::from(src_alloc.cpus)
                    / u128::from(src_alloc.ram.as_u64());
                movable = movable.min(u32::try_from(by_ram).unwrap_or(u32::MAX));
            }
            if movable == 0 {
                break;
            }
            let move_ram = if movable == src_alloc.cpus {
                src_alloc.ram.as_u64()
            } else {
                u64::try_from(
                    u128::from(src_alloc.ram.as_u64()) * u128::from(movable)
                        / u128::from(src_alloc.cpus),
                )
                .expect("ram share fits u64")
            };
            cluster
                .migrate(
                    vm,
                    src,
                    dst,
                    ResourceRequest::new(movable, ByteSize::bytes(move_ram)),
                )
                .expect("capacity verified");
            cmds.push(MigrationCmd {
                vm,
                from: src,
                to: dst,
                cpus: movable,
            });
            // A partial move may enable a full consolidation next round;
            // loop until no further move applies.
            if movable < src_alloc.cpus {
                break;
            }
        }
        cmds
    }
}

/// Walks `order` (a fragment iterator over `cluster`) gathering vCPU
/// capacity until `want` vCPUs are covered. Returns `None` when the walk
/// exhausts the cluster first (RAM limits can strand free CPUs).
fn gather(
    cluster: &Cluster,
    order: impl Iterator<Item = NodeId>,
    per_cpu_ram: u64,
    want: u32,
) -> Option<Vec<(NodeId, u32)>> {
    let mut parts = Vec::new();
    let mut remaining = want;
    for n in order {
        if remaining == 0 {
            break;
        }
        let m = cluster.machine(n);
        let cpu_cap = m.free_cpus();
        let ram_cap = m
            .free_ram()
            .as_u64()
            .checked_div(per_cpu_ram)
            .unwrap_or(u64::from(cpu_cap));
        let usable = cpu_cap.min(u32::try_from(ram_cap).unwrap_or(u32::MAX));
        if usable == 0 {
            continue;
        }
        let take = usable.min(remaining);
        parts.push((n, take));
        remaining -= take;
    }
    (remaining == 0).then_some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MachineSpec;

    fn req(cpus: u32) -> ResourceRequest {
        ResourceRequest::new(cpus, ByteSize::gib(u64::from(cpus)))
    }

    fn fragmented_cluster() -> Cluster {
        // node0: 2 free, node1: 3 free, node2: 1 free.
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), req(14)).unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), req(13)).unwrap();
        c.allocate(NodeId::new(2), VmId::new(92), req(15)).unwrap();
        c
    }

    /// Total RAM held by `vm` across the cluster, in bytes.
    fn ram_of(c: &Cluster, vm: VmId) -> u64 {
        c.nodes_of(vm)
            .iter()
            .map(|&n| c.machine(n).allocation_of(vm).unwrap().ram.as_u64())
            .sum()
    }

    #[test]
    fn aggregate_placement_min_nodes_uses_largest_fragments() {
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinNodes);
        let a = f.place_aggregate(&mut c, VmId::new(1), req(4)).unwrap();
        assert_eq!(a.total_cpus(), 4);
        // Largest fragment first: node1 (3) then node0 (1 of 2).
        assert_eq!(a.parts[0], (NodeId::new(1), 3));
        assert_eq!(a.parts[1], (NodeId::new(0), 1));
        assert_eq!(a.node_count(), 2);
    }

    #[test]
    fn aggregate_placement_min_frag_hoovers_small_fragments() {
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinFragmentation);
        let a = f.place_aggregate(&mut c, VmId::new(1), req(4)).unwrap();
        // Smallest fragments first: node2 (1), node0 (2), node1 (1 of 3).
        assert_eq!(a.parts[0], (NodeId::new(2), 1));
        assert_eq!(a.parts[1], (NodeId::new(0), 2));
        assert_eq!(a.parts[2], (NodeId::new(1), 1));
    }

    #[test]
    fn placement_fails_without_aggregate_capacity() {
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinNodes);
        assert!(f.place_aggregate(&mut c, VmId::new(1), req(7)).is_none());
        // A failed placement leaves no partial allocation behind.
        assert!(c.nodes_of(VmId::new(1)).is_empty());
        c.check_invariants();
    }

    #[test]
    fn non_divisible_ram_allocates_exactly() {
        // 4 vCPUs / 5 GiB: per-vCPU floor is 1.25 GiB → the old floor
        // split placed 4 × 1 GiB and silently lost 1 GiB.
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinFragmentation);
        let vm = VmId::new(1);
        let want = ResourceRequest::new(4, ByteSize::gib(5));
        let a = f.place_aggregate(&mut c, vm, want).unwrap();
        assert_eq!(a.total_cpus(), 4);
        assert_eq!(
            ram_of(&c, vm),
            ByteSize::gib(5).as_u64(),
            "RAM must sum exactly"
        );
        c.check_invariants();
    }

    #[test]
    fn ram_shares_telescope_exactly() {
        let req = ResourceRequest::new(7, ByteSize::bytes(1_000_000_000));
        let parts = vec![
            (NodeId::new(0), 3),
            (NodeId::new(1), 1),
            (NodeId::new(2), 3),
        ];
        let shares = ram_shares(req, &parts);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_000_000);
        let ceil = per_cpu_ram_ceil(req);
        for (&(_, c), &s) in parts.iter().zip(&shares) {
            assert!(s <= ceil * u64::from(c), "share {s} exceeds bound");
        }
    }

    #[test]
    fn full_consolidation_when_space_frees() {
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinNodes);
        let vm = VmId::new(1);
        let _ = f.place_aggregate(&mut c, vm, req(4)).unwrap();
        // The big VM on node1 terminates: 12 CPUs free there.
        c.release(NodeId::new(1), VmId::new(91), req(13)).unwrap();
        let cmds = f.consolidate(&mut c, vm);
        assert!(!cmds.is_empty());
        assert_eq!(c.nodes_of(vm).len(), 1);
        let total: u32 = c
            .nodes_of(vm)
            .iter()
            .map(|&n| c.machine(n).allocation_of(vm).unwrap().cpus)
            .sum();
        assert_eq!(total, 4);
        // Consolidation carries the RAM along exactly.
        assert_eq!(ram_of(&c, vm), req(4).ram.as_u64());
        c.check_invariants();
    }

    #[test]
    fn partial_consolidation_fills_gaps() {
        // VM split 2+2 over node0/node1; 1 CPU frees on node0.
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), req(14)).unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), req(14)).unwrap();
        let f = FragBff::new(ConsolidationPolicy::MinFragmentation);
        let vm = VmId::new(1);
        let a = f.place_aggregate(&mut c, vm, req(4)).unwrap();
        assert_eq!(a.node_count(), 2);
        // One co-located CPU frees on node0 — not enough for full
        // consolidation (need 2), but a partial move uses it.
        c.release(NodeId::new(0), VmId::new(90), req(1)).unwrap();
        let cmds = f.consolidate(&mut c, vm);
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].cpus, 1);
        // Still on two nodes, but the distribution shifted.
        assert_eq!(c.nodes_of(vm).len(), 2);
        assert_eq!(ram_of(&c, vm), req(4).ram.as_u64());
        c.check_invariants();
    }

    #[test]
    fn consolidation_noop_when_single_node() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        let f = FragBff::new(ConsolidationPolicy::MinNodes);
        let vm = VmId::new(1);
        c.allocate(NodeId::new(0), vm, req(4)).unwrap();
        assert!(f.consolidate(&mut c, vm).is_empty());
    }

    #[test]
    fn consolidation_respects_destination_ram() {
        // Two homes; the CPU-roomy destination is RAM-starved, so a full
        // consolidation there must be refused (the old CPU-only check
        // panicked on the migrate).
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        // node0: 10 CPUs free but only 2 GiB RAM free.
        c.allocate(
            NodeId::new(0),
            VmId::new(90),
            ResourceRequest::new(4, ByteSize::gib(28)),
        )
        .unwrap();
        // node1: plenty of RAM but no CPU headroom once the VM lands.
        c.allocate(NodeId::new(1), VmId::new(91), req(14)).unwrap();
        let vm = VmId::new(1);
        // An 8-GiB aggregate split 2+2: 2 cpus + 2 GiB on node0,
        // 2 cpus + 6 GiB on node1.
        c.allocate(
            NodeId::new(0),
            vm,
            ResourceRequest::new(2, ByteSize::gib(2)),
        )
        .unwrap();
        c.allocate(
            NodeId::new(1),
            vm,
            ResourceRequest::new(2, ByteSize::gib(6)),
        )
        .unwrap();
        let f = FragBff::new(ConsolidationPolicy::MinNodes);
        let cmds = f.consolidate(&mut c, vm);
        // node0 cannot take 6 GiB (RAM), node1 cannot take 2 more CPUs
        // (0 free) — and the partial move is RAM-clamped to zero, so
        // nothing moves and nothing panics.
        assert!(cmds.is_empty());
        assert_eq!(ram_of(&c, vm), ByteSize::gib(8).as_u64());
        c.check_invariants();
    }

    #[test]
    fn ledger_consistent_after_consolidation() {
        let mut c = fragmented_cluster();
        let f = FragBff::new(ConsolidationPolicy::MinFragmentation);
        let vm = VmId::new(1);
        let _ = f.place_aggregate(&mut c, vm, req(4)).unwrap();
        let before_free = c.total_free_cpus();
        c.release_vm(VmId::new(92));
        let _ = f.consolidate(&mut c, vm);
        // Consolidation moves, never creates or destroys, allocations.
        assert_eq!(c.total_free_cpus(), before_free + 15);
        c.check_invariants();
    }
}
