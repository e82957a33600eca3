//! Machines and the cluster allocator.
//!
//! Besides the per-machine allocation ledger, [`Cluster`] maintains two
//! incremental indices sized for data-center simulations (thousands of
//! nodes, tens of thousands of VM events):
//!
//! * a **free-CPU bucket index** — for each possible free-CPU count, a
//!   bitset of the nodes currently at that count, over a dense free-RAM
//!   column — so placement queries ([`Cluster::best_fit`],
//!   [`Cluster::first_fit`], [`Cluster::worst_fit`]) and fragment
//!   enumeration ([`Cluster::fragments_ascending`]) touch only candidate
//!   machines instead of scanning the whole cluster per arrival, and
//! * a **VM → nodes ledger** — which machines hold a piece of each VM,
//!   a dense table indexed by VM id — so [`Cluster::nodes_of`] and
//!   consolidation are O(nodes of that VM), not O(cluster).
//!
//! Both indices are updated on every `allocate`/`release`/`migrate` and
//! can be audited against a fresh scan with [`Cluster::check_invariants`].

use comm::NodeId;
use sim_core::units::ByteSize;

use crate::free_index::FreeIndex;
use crate::VmId;

/// A class of physical device a machine can host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceKind {
    /// Network interface card.
    Nic,
    /// Block storage (the testbed's SATA SSD).
    Disk,
    /// An accelerator (GPU/TPU); modelled for completeness of the design,
    /// the prototype (like the paper's) does not exercise it.
    Accelerator,
}

/// Static description of one server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Number of pCPUs available to VMs.
    pub cpus: u32,
    /// Amount of RAM available to VMs.
    pub ram: ByteSize,
    /// Devices physically attached to this machine.
    pub devices: Vec<DeviceKind>,
}

impl MachineSpec {
    /// The paper's testbed server: Xeon E5-2620 v4 (8 cores / 16 threads),
    /// 32 GiB RAM, one NIC, one SSD. The evaluation pins vCPUs to cores,
    /// so we expose 16 schedulable pCPUs.
    pub fn testbed() -> Self {
        MachineSpec {
            cpus: 16,
            ram: ByteSize::gib(32),
            devices: vec![DeviceKind::Nic, DeviceKind::Disk],
        }
    }

    /// The Figure-14 configuration: 12 pCPUs usable by VMs (4 reserved for
    /// management tasks).
    pub fn fig14() -> Self {
        MachineSpec {
            cpus: 12,
            ram: ByteSize::gib(32),
            devices: vec![DeviceKind::Nic, DeviceKind::Disk],
        }
    }
}

/// A resource request: what one VM (or one slice of it) needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceRequest {
    /// Number of vCPUs (each pinned to one pCPU).
    pub cpus: u32,
    /// Guest RAM.
    pub ram: ByteSize,
}

impl ResourceRequest {
    /// Convenience constructor.
    pub fn new(cpus: u32, ram: ByteSize) -> Self {
        ResourceRequest { cpus, ram }
    }
}

/// One server and its current allocations.
#[derive(Debug, Clone)]
pub struct Machine {
    spec: MachineSpec,
    /// Per-VM allocations on this machine, sorted by VM id. A machine
    /// hosts a handful of VMs, so a linear scan finds one.
    allocs: Vec<(VmId, ResourceRequest)>,
    /// Incrementally-maintained totals, so capacity queries are O(1)
    /// instead of a sum over `allocs` (the inner loop of every placement).
    used_cpus: u32,
    used_ram: u64,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new(spec: MachineSpec) -> Self {
        Machine {
            spec,
            allocs: Vec::new(),
            used_cpus: 0,
            used_ram: 0,
        }
    }

    /// The machine's static spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// pCPUs currently allocated.
    pub fn used_cpus(&self) -> u32 {
        self.used_cpus
    }

    /// RAM currently allocated.
    pub fn used_ram(&self) -> ByteSize {
        ByteSize::bytes(self.used_ram)
    }

    /// Free pCPUs.
    pub fn free_cpus(&self) -> u32 {
        self.spec.cpus - self.used_cpus
    }

    /// Free RAM.
    pub fn free_ram(&self) -> ByteSize {
        self.spec.ram - ByteSize::bytes(self.used_ram)
    }

    /// Whether `req` fits in the free capacity.
    pub fn fits(&self, req: ResourceRequest) -> bool {
        self.free_cpus() >= req.cpus && self.free_ram().as_u64() >= req.ram.as_u64()
    }

    /// Whether this machine hosts a device of the given kind.
    pub fn has_device(&self, kind: DeviceKind) -> bool {
        self.spec.devices.contains(&kind)
    }

    /// The VMs with an allocation here, in id order.
    pub fn resident_vms(&self) -> impl Iterator<Item = (VmId, ResourceRequest)> + '_ {
        self.allocs.iter().copied()
    }

    /// The allocation of a specific VM on this machine, if any.
    pub fn allocation_of(&self, vm: VmId) -> Option<ResourceRequest> {
        self.slot(vm).map(|k| self.allocs[k].1)
    }

    /// Position of the VM's entry in `allocs`.
    fn slot(&self, vm: VmId) -> Option<usize> {
        self.allocs.iter().position(|&(v, _)| v == vm)
    }

    /// Adds `req` to the VM's allocation (capacity already validated).
    fn add(&mut self, vm: VmId, req: ResourceRequest) {
        let k = self.allocs.partition_point(|&(v, _)| v < vm);
        match self.allocs.get_mut(k) {
            Some((v, entry)) if *v == vm => {
                entry.cpus += req.cpus;
                entry.ram += req.ram;
            }
            _ => self.allocs.insert(k, (vm, req)),
        }
        self.used_cpus += req.cpus;
        self.used_ram += req.ram.as_u64();
    }

    /// Subtracts `req` from the VM's allocation; returns `true` when the
    /// ledger entry disappeared (the VM no longer lives here).
    fn sub(&mut self, vm: VmId, req: ResourceRequest) -> bool {
        let k = self.slot(vm).expect("validated allocation");
        let entry = &mut self.allocs[k].1;
        entry.cpus -= req.cpus;
        entry.ram = entry.ram - req.ram;
        self.used_cpus -= req.cpus;
        self.used_ram -= req.ram.as_u64();
        if entry.cpus == 0 && entry.ram.as_u64() == 0 {
            self.allocs.remove(k);
            true
        } else {
            false
        }
    }

    /// Removes the VM's whole allocation, returning it.
    fn take(&mut self, vm: VmId) -> Option<ResourceRequest> {
        let (_, r) = self.allocs.remove(self.slot(vm)?);
        self.used_cpus -= r.cpus;
        self.used_ram -= r.ram.as_u64();
        Some(r)
    }
}

/// The cluster: a set of machines plus an allocation ledger.
///
/// The VM → nodes ledger is a table indexed by [`VmId::index`], so its
/// memory is O(largest VM id ever allocated): callers allocate VM ids
/// densely. The data-center simulator uses arrival indices; the unit and
/// property tests use ids below about 1,100.
#[derive(Debug, Clone)]
pub struct Cluster {
    machines: Vec<Machine>,
    /// Bucket index: every machine by exact free pCPUs, with its free RAM.
    index: FreeIndex,
    /// Ledger: `vm_nodes[vm]` lists the machines on which the VM currently
    /// holds resources, ascending; an empty list means it holds none.
    vm_nodes: Vec<Vec<u32>>,
    /// Cluster-wide free pCPUs, maintained incrementally.
    total_free: u64,
    /// Monotone change clock: bumped by every mutation, with the new value
    /// recorded in `node_touched` for the mutated node. Lets callers prove
    /// "nothing on these nodes changed since clock `t`" in O(nodes asked)
    /// — the consolidation scan of the data-center simulator rides this.
    clock: u64,
    /// Per-node last-mutation clock values.
    node_touched: Vec<u64>,
}

/// `(free pCPUs, free RAM bytes)` of each machine, in node order.
fn free_of(machines: &[Machine]) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
    machines
        .iter()
        .map(|m| (m.free_cpus(), m.free_ram().as_u64()))
}

/// Errors returned by the cluster allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The requested machine lacks capacity for the request.
    Insufficient {
        /// The machine that could not satisfy the request.
        node: NodeId,
    },
    /// The VM has no allocation on the given machine.
    NotAllocated {
        /// The machine that holds no allocation for the VM.
        node: NodeId,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Insufficient { node } => {
                write!(f, "insufficient capacity on {node}")
            }
            AllocError::NotAllocated { node } => {
                write!(f, "no allocation on {node}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

impl Cluster {
    /// Creates a cluster of `n` identical machines.
    pub fn homogeneous(n: usize, spec: MachineSpec) -> Self {
        let machines: Vec<Machine> = (0..n).map(|_| Machine::new(spec.clone())).collect();
        let max_cpus = machines.iter().map(|m| m.spec.cpus).max().unwrap_or(0);
        let index = FreeIndex::new(max_cpus as usize + 1, free_of(&machines));
        let total_free = machines.iter().map(|m| u64::from(m.free_cpus())).sum();
        let node_touched = vec![0; n];
        Cluster {
            machines,
            index,
            vm_nodes: Vec::new(),
            total_free,
            clock: 0,
            node_touched,
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Returns true if the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Immutable access to one machine.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn machine(&self, node: NodeId) -> &Machine {
        &self.machines[node.index()]
    }

    /// Iterates machines in node order.
    pub fn machines(&self) -> impl Iterator<Item = (NodeId, &Machine)> {
        self.machines
            .iter()
            .enumerate()
            .map(|(i, m)| (NodeId::from_usize(i), m))
    }

    /// Brings node `i`'s index entry and the free counter up to date after
    /// a mutation that found it with `was` free pCPUs, and stamps the
    /// change clock.
    fn reindex(&mut self, i: usize, was: u32) {
        let m = &self.machines[i];
        let now = m.free_cpus();
        self.index.update(i, was, now, m.free_ram().as_u64());
        self.total_free = self.total_free - u64::from(was) + u64::from(now);
        self.clock += 1;
        self.node_touched[i] = self.clock;
    }

    /// Allocates `req` for `vm` on `node`; requests for a VM that already
    /// has an allocation there are *added* to it (used when a slice grows).
    pub fn allocate(
        &mut self,
        node: NodeId,
        vm: VmId,
        req: ResourceRequest,
    ) -> Result<(), AllocError> {
        let i = node.index();
        let m = &mut self.machines[i];
        if m.free_cpus() < req.cpus || m.free_ram().as_u64() < req.ram.as_u64() {
            return Err(AllocError::Insufficient { node });
        }
        let was = m.free_cpus();
        m.add(vm, req);
        self.reindex(i, was);
        if self.vm_nodes.len() <= vm.index() {
            self.vm_nodes.resize_with(vm.index() + 1, Vec::new);
        }
        let nodes = &mut self.vm_nodes[vm.index()];
        if let Err(k) = nodes.binary_search(&(i as u32)) {
            nodes.insert(k, i as u32);
        }
        Ok(())
    }

    /// Releases part of a VM's allocation on `node`.
    ///
    /// Releasing everything removes the ledger entry.
    pub fn release(
        &mut self,
        node: NodeId,
        vm: VmId,
        req: ResourceRequest,
    ) -> Result<(), AllocError> {
        let i = node.index();
        let Some(entry) = self.machines[i].allocation_of(vm) else {
            return Err(AllocError::NotAllocated { node });
        };
        if entry.cpus < req.cpus || entry.ram.as_u64() < req.ram.as_u64() {
            return Err(AllocError::NotAllocated { node });
        }
        let was = self.machines[i].free_cpus();
        let gone = self.machines[i].sub(vm, req);
        self.reindex(i, was);
        if gone {
            let nodes = &mut self.vm_nodes[vm.index()];
            if let Ok(k) = nodes.binary_search(&(i as u32)) {
                nodes.remove(k);
            }
        }
        Ok(())
    }

    /// Releases every allocation of `vm` across the cluster.
    pub fn release_vm(&mut self, vm: VmId) {
        let Some(held) = self.vm_nodes.get_mut(vm.index()).map(std::mem::take) else {
            return;
        };
        for i in held {
            let i = i as usize;
            let was = self.machines[i].free_cpus();
            self.machines[i]
                .take(vm)
                .expect("ledger said VM lives here");
            self.reindex(i, was);
        }
    }

    /// Moves part of a VM's allocation from one node to another (the
    /// allocator-side effect of a slice migration).
    pub fn migrate(
        &mut self,
        vm: VmId,
        from: NodeId,
        to: NodeId,
        req: ResourceRequest,
    ) -> Result<(), AllocError> {
        // Validate the source first so a failed destination leaves state
        // untouched.
        let src = &self.machines[from.index()];
        let Some(have) = src.allocation_of(vm) else {
            return Err(AllocError::NotAllocated { node: from });
        };
        if have.cpus < req.cpus || have.ram.as_u64() < req.ram.as_u64() {
            return Err(AllocError::NotAllocated { node: from });
        }
        self.allocate(to, vm, req)?;
        self.release(from, vm, req)
            .expect("validated source allocation");
        Ok(())
    }

    /// Total free pCPUs across the cluster (O(1), maintained incrementally).
    pub fn total_free_cpus(&self) -> u32 {
        u32::try_from(self.total_free).unwrap_or(u32::MAX)
    }

    /// The most free pCPUs on any one machine (O(buckets)): no single
    /// machine fits a request for more.
    pub fn largest_free_block(&self) -> u32 {
        let top = (0..self.index.buckets()).rposition(|f| !self.index.is_empty(f));
        top.map_or(0, |cpus| cpus as u32)
    }

    /// The nodes on which a VM currently holds resources, in node order.
    pub fn nodes_of(&self, vm: VmId) -> Vec<NodeId> {
        self.home_nodes(vm).collect()
    }

    /// Like [`Cluster::nodes_of`], but iterates without allocating.
    pub fn home_nodes(&self, vm: VmId) -> impl Iterator<Item = NodeId> + '_ {
        self.vm_nodes
            .get(vm.index())
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .map(|&i| NodeId::new(i))
    }

    /// The current value of the change clock (see [`Cluster::node_touched`]).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The change-clock value of the last mutation that touched `node`.
    /// `node_touched(n) <= t` proves node `n` is bit-for-bit unchanged
    /// since the moment [`Cluster::clock`] read `t`.
    pub fn node_touched(&self, node: NodeId) -> u64 {
        self.node_touched[node.index()]
    }

    /// Best-fit placement query: among machines that fit `req`, the one
    /// with the least free CPUs left over, then least free RAM, then
    /// lowest node id. Scans the buckets from the request size up and
    /// stops in the first that holds a fitting machine, not O(cluster).
    pub fn best_fit(&self, req: ResourceRequest) -> Option<NodeId> {
        let ram = req.ram.as_u64();
        (req.cpus as usize..self.index.buckets())
            .find_map(|f| self.index.least_fitting(f, ram))
            .map(NodeId::new)
    }

    /// First-fit placement query: the lowest-numbered machine that fits
    /// `req`.
    pub fn first_fit(&self, req: ResourceRequest) -> Option<NodeId> {
        self.index
            .first_fitting(req.cpus as usize, req.ram.as_u64())
            .map(NodeId::new)
    }

    /// Worst-fit placement query: among machines that fit `req`, the one
    /// with the most free CPUs, then least free RAM, then lowest node id.
    pub fn worst_fit(&self, req: ResourceRequest) -> Option<NodeId> {
        let ram = req.ram.as_u64();
        (req.cpus as usize..self.index.buckets())
            .rev()
            .find_map(|f| self.index.least_fitting(f, ram))
            .map(NodeId::new)
    }

    /// Machines with at least one free pCPU, smallest free block first
    /// (then least free RAM, then node id) — the MinFragmentation
    /// harvesting order. Lazily walks the bucket index, sorting a bucket
    /// only when the walk reaches it, so callers that stop early (enough
    /// fragments gathered) never touch the rest of the cluster.
    pub fn fragments_ascending(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fragments(1..self.index.buckets())
    }

    /// Machines with at least one free pCPU, largest free block first
    /// (then least free RAM, then node id) — the MinNodes harvesting
    /// order.
    pub fn fragments_descending(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.fragments((1..self.index.buckets()).rev())
    }

    /// The machines of `buckets`, in that bucket order, each bucket by
    /// `(free RAM, node id)`.
    fn fragments(
        &self,
        buckets: impl Iterator<Item = usize> + 'static,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let mut buckets = buckets.filter(|&f| !self.index.is_empty(f));
        // One buffer for the whole walk, sorted largest first per bucket.
        let mut buf = Vec::new();
        std::iter::from_fn(move || loop {
            if let Some((_, i)) = buf.pop() {
                return Some(NodeId::new(i));
            }
            self.index.sorted_desc_into(buckets.next()?, &mut buf);
        })
    }

    /// Audits every incremental structure against a fresh scan: per-machine
    /// totals vs their allocation maps, the free-CPU bucket index, the
    /// VM → nodes ledger, and the cluster-wide free counter.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency found.
    pub fn check_invariants(&self) {
        let mut total_free = 0u64;
        for (i, m) in self.machines.iter().enumerate() {
            let cpus: u32 = m.allocs.iter().map(|(_, r)| r.cpus).sum();
            let ram: u64 = m.allocs.iter().map(|(_, r)| r.ram.as_u64()).sum();
            assert_eq!(m.used_cpus, cpus, "node {i}: stale used_cpus counter");
            assert_eq!(m.used_ram, ram, "node {i}: stale used_ram counter");
            assert!(
                m.used_cpus <= m.spec.cpus && m.used_ram <= m.spec.ram.as_u64(),
                "node {i}: over-allocated ({}/{} cpus, {}/{} bytes)",
                m.used_cpus,
                m.spec.cpus,
                m.used_ram,
                m.spec.ram.as_u64()
            );
            total_free += u64::from(m.free_cpus());
            assert!(
                m.allocs.windows(2).all(|w| w[0].0 < w[1].0),
                "node {i}: allocations not strictly ascending by VM id"
            );
            for &(vm, _) in &m.allocs {
                assert!(
                    self.vm_nodes
                        .get(vm.index())
                        .is_some_and(|ns| ns.binary_search(&(i as u32)).is_ok()),
                    "ledger missing {vm} on node {i}"
                );
            }
        }
        assert_eq!(self.total_free, total_free, "stale total_free counter");
        self.index.check(free_of(&self.machines));
        for (v, nodes) in self.vm_nodes.iter().enumerate() {
            let vm = VmId::from_usize(v);
            assert!(
                nodes.windows(2).all(|w| w[0] < w[1]),
                "ledger nodes of {vm} not strictly ascending"
            );
            for &i in nodes {
                assert!(
                    self.machines[i as usize].allocation_of(vm).is_some(),
                    "ledger claims {vm} on node {i} but machine disagrees"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_req(cpus: u32) -> ResourceRequest {
        ResourceRequest::new(cpus, ByteSize::gib(1))
    }

    #[test]
    fn allocate_and_release() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        let vm = VmId::new(1);
        c.allocate(NodeId::new(0), vm, small_req(4)).unwrap();
        assert_eq!(c.machine(NodeId::new(0)).free_cpus(), 12);
        assert_eq!(c.machine(NodeId::new(0)).used_ram(), ByteSize::gib(1));
        c.check_invariants();
        c.release(NodeId::new(0), vm, small_req(4)).unwrap();
        assert_eq!(c.machine(NodeId::new(0)).free_cpus(), 16);
        assert!(c.machine(NodeId::new(0)).allocation_of(vm).is_none());
        c.check_invariants();
    }

    #[test]
    fn over_allocation_rejected() {
        let mut c = Cluster::homogeneous(1, MachineSpec::testbed());
        let vm = VmId::new(1);
        let r = c.allocate(NodeId::new(0), vm, small_req(17));
        assert_eq!(
            r,
            Err(AllocError::Insufficient {
                node: NodeId::new(0)
            })
        );
        // RAM limits too.
        let r = c.allocate(
            NodeId::new(0),
            vm,
            ResourceRequest::new(1, ByteSize::gib(33)),
        );
        assert!(r.is_err());
        c.check_invariants();
    }

    #[test]
    fn allocations_accumulate_per_vm() {
        let mut c = Cluster::homogeneous(1, MachineSpec::testbed());
        let vm = VmId::new(3);
        c.allocate(NodeId::new(0), vm, small_req(2)).unwrap();
        c.allocate(NodeId::new(0), vm, small_req(2)).unwrap();
        assert_eq!(
            c.machine(NodeId::new(0)).allocation_of(vm),
            Some(ResourceRequest::new(4, ByteSize::gib(2)))
        );
        c.check_invariants();
    }

    #[test]
    fn release_more_than_held_fails() {
        let mut c = Cluster::homogeneous(1, MachineSpec::testbed());
        let vm = VmId::new(1);
        c.allocate(NodeId::new(0), vm, small_req(2)).unwrap();
        assert!(c.release(NodeId::new(0), vm, small_req(3)).is_err());
        // State unchanged.
        assert_eq!(c.machine(NodeId::new(0)).free_cpus(), 14);
        c.check_invariants();
    }

    #[test]
    fn migrate_moves_allocation() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        let vm = VmId::new(1);
        c.allocate(NodeId::new(0), vm, small_req(4)).unwrap();
        c.migrate(vm, NodeId::new(0), NodeId::new(1), small_req(2))
            .unwrap();
        assert_eq!(c.machine(NodeId::new(0)).allocation_of(vm).unwrap().cpus, 2);
        assert_eq!(c.machine(NodeId::new(1)).allocation_of(vm).unwrap().cpus, 2);
        assert_eq!(c.nodes_of(vm), vec![NodeId::new(0), NodeId::new(1)]);
        c.check_invariants();
    }

    #[test]
    fn migrate_to_full_node_leaves_state_untouched() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        let a = VmId::new(1);
        let b = VmId::new(2);
        c.allocate(NodeId::new(1), b, small_req(16)).unwrap();
        c.allocate(NodeId::new(0), a, small_req(4)).unwrap();
        assert!(c
            .migrate(a, NodeId::new(0), NodeId::new(1), small_req(2))
            .is_err());
        assert_eq!(c.machine(NodeId::new(0)).allocation_of(a).unwrap().cpus, 4);
        c.check_invariants();
    }

    #[test]
    fn release_vm_clears_everywhere() {
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        let vm = VmId::new(9);
        c.allocate(NodeId::new(0), vm, small_req(1)).unwrap();
        c.allocate(NodeId::new(2), vm, small_req(1)).unwrap();
        assert_eq!(c.nodes_of(vm), vec![NodeId::new(0), NodeId::new(2)]);
        c.release_vm(vm);
        assert_eq!(c.total_free_cpus(), 48);
        assert!(c.nodes_of(vm).is_empty());
        c.check_invariants();
    }

    #[test]
    fn device_inventory() {
        let c = Cluster::homogeneous(1, MachineSpec::testbed());
        assert!(c.machine(NodeId::new(0)).has_device(DeviceKind::Nic));
        assert!(c.machine(NodeId::new(0)).has_device(DeviceKind::Disk));
        assert!(!c
            .machine(NodeId::new(0))
            .has_device(DeviceKind::Accelerator));
    }

    #[test]
    fn best_fit_matches_naive_scan() {
        let mut c = Cluster::homogeneous(4, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), small_req(6))
            .unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), small_req(12))
            .unwrap();
        c.allocate(NodeId::new(3), VmId::new(92), small_req(12))
            .unwrap();
        for cpus in 1..=16 {
            let req = small_req(cpus);
            let naive = c
                .machines()
                .filter(|(_, m)| m.fits(req))
                .min_by_key(|(n, m)| (m.free_cpus() - req.cpus, m.free_ram().as_u64(), n.0))
                .map(|(n, _)| n);
            assert_eq!(c.best_fit(req), naive, "cpus = {cpus}");
        }
    }

    #[test]
    fn first_fit_picks_lowest_id() {
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), small_req(14))
            .unwrap();
        // node0 has 2 free, node1/node2 are empty: first fit of 4 → node1.
        assert_eq!(c.first_fit(small_req(4)), Some(NodeId::new(1)));
        assert_eq!(c.first_fit(small_req(2)), Some(NodeId::new(0)));
        assert_eq!(c.first_fit(small_req(17)), None);
    }

    #[test]
    fn worst_fit_picks_most_free() {
        let mut c = Cluster::homogeneous(3, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), small_req(2))
            .unwrap();
        c.allocate(NodeId::new(1), VmId::new(91), small_req(10))
            .unwrap();
        // Free: node0 = 14, node1 = 6, node2 = 16.
        assert_eq!(c.worst_fit(small_req(4)), Some(NodeId::new(2)));
        c.allocate(NodeId::new(2), VmId::new(92), small_req(4))
            .unwrap();
        // Free: node0 = 14, node1 = 6, node2 = 12.
        assert_eq!(c.worst_fit(small_req(4)), Some(NodeId::new(0)));
    }

    #[test]
    fn ram_bound_machines_skipped_by_fit_queries() {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        // node0: plenty of CPUs, almost no RAM left.
        c.allocate(
            NodeId::new(0),
            VmId::new(90),
            ResourceRequest::new(1, ByteSize::gib(31)),
        )
        .unwrap();
        let req = ResourceRequest::new(2, ByteSize::gib(4));
        assert_eq!(c.best_fit(req), Some(NodeId::new(1)));
        assert_eq!(c.first_fit(req), Some(NodeId::new(1)));
        assert_eq!(c.worst_fit(req), Some(NodeId::new(1)));
    }

    #[test]
    fn fragment_iteration_orders() {
        let mut c = Cluster::homogeneous(4, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(90), small_req(14))
            .unwrap(); // 2 free
        c.allocate(NodeId::new(1), VmId::new(91), small_req(13))
            .unwrap(); // 3 free
        c.allocate(NodeId::new(2), VmId::new(92), small_req(16))
            .unwrap(); // full
        c.allocate(NodeId::new(3), VmId::new(93), small_req(15))
            .unwrap(); // 1 free
        let asc: Vec<u32> = c.fragments_ascending().map(|n| n.0).collect();
        assert_eq!(asc, vec![3, 0, 1]);
        let desc: Vec<u32> = c.fragments_descending().map(|n| n.0).collect();
        assert_eq!(desc, vec![1, 0, 3]);
    }

    /// A cluster hosting VM 5 on node 0 and VM 2 on nodes 0 and 1, so the
    /// dense ledger has holes below and between the live ids.
    fn two_vm_cluster() -> Cluster {
        let mut c = Cluster::homogeneous(2, MachineSpec::testbed());
        c.allocate(NodeId::new(0), VmId::new(5), small_req(2))
            .unwrap();
        c.allocate(NodeId::new(0), VmId::new(2), small_req(1))
            .unwrap();
        c.allocate(NodeId::new(1), VmId::new(2), small_req(1))
            .unwrap();
        c.check_invariants();
        c
    }

    #[test]
    fn resident_vms_in_id_order_with_holes_in_the_ledger() {
        let mut c = two_vm_cluster();
        let ids: Vec<VmId> = c
            .machine(NodeId::new(0))
            .resident_vms()
            .map(|(vm, _)| vm)
            .collect();
        assert_eq!(ids, vec![VmId::new(2), VmId::new(5)]);
        assert!(c.nodes_of(VmId::new(3)).is_empty());
        assert!(c.nodes_of(VmId::new(1_000)).is_empty());
        c.release_vm(VmId::new(3));
        assert!(c.nodes_of(VmId::new(3)).is_empty());
        assert_eq!(
            c.nodes_of(VmId::new(2)),
            vec![NodeId::new(0), NodeId::new(1)]
        );
        c.release_vm(VmId::new(2));
        // A departed VM keeps an empty ledger entry, which is not drift.
        assert!(c.nodes_of(VmId::new(2)).is_empty());
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "ledger claims vm5 on node 1 but machine disagrees")]
    fn audit_catches_a_ledger_node_the_machine_does_not_host() {
        let mut c = two_vm_cluster();
        c.vm_nodes[5].push(1);
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "ledger missing vm2 on node 1")]
    fn audit_catches_a_resident_vm_the_ledger_omits() {
        let mut c = two_vm_cluster();
        c.vm_nodes[2].pop();
        c.check_invariants();
    }
}
