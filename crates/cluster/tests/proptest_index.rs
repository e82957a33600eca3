//! Property tests for the cluster's incremental bookkeeping: the free-CPU
//! bucket index, the VM → nodes ledger, and the O(1) capacity counters
//! must stay consistent with a fresh scan under arbitrary interleavings
//! of arrivals, departures, and slice migrations — the op mix the
//! data-center simulator drives at scale. VM ids are allocated with gaps,
//! so the dense ledger holds entries for ids that never lived.

use std::cmp::Reverse;

use cluster::{Cluster, MachineSpec, ResourceRequest, VmId};
use comm::NodeId;
use proptest::prelude::*;
use sim_core::units::ByteSize;

const GIB: u64 = 1 << 30;

/// One scripted operation: `(opcode, selector, cpus, shape)`.
type Op = (u32, u32, u32, u32);

fn request(cpus: u32, shape: u32) -> ResourceRequest {
    // Shapes: 1, 1.25 and 1.5 GiB per vCPU; the uneven ones exercise the
    // RAM dimension of the index ordering.
    let ram = u64::from(cpus) * GIB * u64::from(4 + shape % 3) / 4;
    ResourceRequest::new(cpus, ByteSize::bytes(ram))
}

/// Naive re-derivations of the three fit queries, straight off a full
/// machine scan.
fn naive_best_fit(c: &Cluster, req: ResourceRequest) -> Option<NodeId> {
    c.machines()
        .filter(|(_, m)| m.fits(req))
        .min_by_key(|(n, m)| (m.free_cpus() - req.cpus, m.free_ram().as_u64(), n.index()))
        .map(|(n, _)| n)
}

fn naive_first_fit(c: &Cluster, req: ResourceRequest) -> Option<NodeId> {
    c.machines().find(|(_, m)| m.fits(req)).map(|(n, _)| n)
}

fn naive_worst_fit(c: &Cluster, req: ResourceRequest) -> Option<NodeId> {
    c.machines()
        .filter(|(_, m)| m.fits(req))
        .min_by_key(|(n, m)| (Reverse(m.free_cpus()), m.free_ram().as_u64(), n.index()))
        .map(|(n, _)| n)
}

/// The nodes hosting `vm`, ascending, straight off a full machine scan.
fn naive_homes(c: &Cluster, vm: VmId) -> Vec<NodeId> {
    c.machines()
        .filter(|(_, m)| m.allocation_of(vm).is_some())
        .map(|(n, _)| n)
        .collect()
}

/// Replays an op script against a fresh cluster, asserting the ledger
/// invariants after every step. Returns a digest of the final state.
fn replay(nodes: usize, ops: &[Op], audit: bool) -> Result<String, TestCaseError> {
    let mut c = Cluster::homogeneous(nodes, MachineSpec::testbed());
    let capacity_cpus = u64::from(MachineSpec::testbed().cpus) * nodes as u64;
    let capacity_ram = MachineSpec::testbed().ram.as_u64() * nodes as u64;
    // Shadow model: what we believe is allocated, per live VM.
    let mut live: Vec<(VmId, u64, u64)> = Vec::new(); // (vm, cpus, ram)
    let mut departed: Vec<VmId> = Vec::new();
    let mut next_vm = 0u32;
    for &(opcode, selector, cpus, shape) in ops {
        match opcode % 4 {
            // Arrival: place via best fit if anything fits.
            0 | 1 => {
                let req = request(cpus % 8 + 1, shape);
                if let Some(node) = c.best_fit(req) {
                    let vm = VmId::new(next_vm);
                    next_vm += 1 + selector % 3;
                    c.allocate(node, vm, req).expect("best_fit said it fits");
                    live.push((vm, u64::from(req.cpus), req.ram.as_u64()));
                }
            }
            // Departure: release a live VM everywhere.
            2 => {
                if !live.is_empty() {
                    let (vm, _, _) = live.swap_remove(selector as usize % live.len());
                    c.release_vm(vm);
                    departed.push(vm);
                }
            }
            // Migration: move part of a live VM's slice to the emptiest
            // machine that can take it.
            3 => {
                if !live.is_empty() {
                    let (vm, _, _) = live[selector as usize % live.len()];
                    let held = c.nodes_of(vm);
                    if let Some(&from) = held.first() {
                        let alloc = c.machine(from).allocation_of(vm).expect("ledger");
                        let move_cpus = cpus % alloc.cpus + 1;
                        let move_ram =
                            alloc.ram.as_u64() * u64::from(move_cpus) / u64::from(alloc.cpus);
                        let part = ResourceRequest::new(move_cpus, ByteSize::bytes(move_ram));
                        if let Some(to) = c.worst_fit(part) {
                            if to != from {
                                c.migrate(vm, from, to, part)
                                    .expect("worst_fit said it fits");
                            }
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
        if audit {
            // Index, ledger, and counters agree with a fresh scan.
            c.check_invariants();
            // Conservation: allocations on machines equal the shadow model,
            // and nothing is created or destroyed by migrations.
            let want_cpus: u64 = live.iter().map(|&(_, cp, _)| cp).sum();
            let want_ram: u64 = live.iter().map(|&(_, _, r)| r).sum();
            let used_cpus: u64 = c.machines().map(|(_, m)| u64::from(m.used_cpus())).sum();
            let used_ram: u64 = c.machines().map(|(_, m)| m.used_ram().as_u64()).sum();
            prop_assert_eq!(used_cpus, want_cpus, "CPU conservation violated");
            prop_assert_eq!(used_ram, want_ram, "RAM conservation violated");
            prop_assert_eq!(
                u64::from(c.total_free_cpus()),
                capacity_cpus - want_cpus,
                "O(1) free counter drifted"
            );
            prop_assert!(used_ram <= capacity_ram);
            // The ledger agrees with the machines, VM by VM, holes and all.
            for &(vm, _, _) in &live {
                let naive = naive_homes(&c, vm);
                prop_assert!(!naive.is_empty(), "live {} hosted nowhere", vm);
                prop_assert_eq!(c.home_nodes(vm).collect::<Vec<_>>(), naive.clone());
                prop_assert_eq!(c.nodes_of(vm), naive);
            }
            for &vm in &departed {
                prop_assert_eq!(c.home_nodes(vm).next(), None, "departed {} has homes", vm);
            }
            for (n, m) in c.machines() {
                let ids: Vec<VmId> = m.resident_vms().map(|(vm, _)| vm).collect();
                prop_assert!(
                    ids.windows(2).all(|w| w[0] < w[1]),
                    "{} residents out of order: {:?}",
                    n,
                    ids
                );
            }
            // The indexed fit queries match a naive scan exactly.
            let probe = request(cpus % 8 + 1, shape + 1);
            prop_assert_eq!(c.best_fit(probe), naive_best_fit(&c, probe));
            prop_assert_eq!(c.first_fit(probe), naive_first_fit(&c, probe));
            prop_assert_eq!(c.worst_fit(probe), naive_worst_fit(&c, probe));
        }
    }
    // Digest: the exact final allocation state.
    let mut digest = String::new();
    for (n, m) in c.machines() {
        digest.push_str(&format!(
            "{}:{}c{}b;",
            n.index(),
            m.used_cpus(),
            m.used_ram().as_u64()
        ));
    }
    Ok(digest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary arrival/departure/migration sequences conserve resources,
    /// never over-allocate, and keep every incremental structure equal to
    /// a fresh scan.
    #[test]
    fn op_sequences_keep_ledger_consistent(
        nodes in 2usize..7,
        ops in proptest::collection::vec((0u32..4, any_selector(), 0u32..16, 0u32..3), 1..60),
    ) {
        replay(nodes, &ops, true)?;
    }

    /// Replaying the same script twice produces byte-identical state.
    #[test]
    fn replay_is_deterministic(
        nodes in 2usize..7,
        ops in proptest::collection::vec((0u32..4, any_selector(), 0u32..16, 0u32..3), 1..60),
    ) {
        let a = replay(nodes, &ops, false)?;
        let b = replay(nodes, &ops, false)?;
        prop_assert_eq!(a, b);
    }
}

fn any_selector() -> std::ops::Range<u32> {
    0u32..1_000_000
}
