//! End-to-end memory elasticity: a VM under a tight per-node budget runs
//! each reclaim policy, finishes, audits clean, and reports the expected
//! counters.

use dsm::{Access, PageId};
use hypervisor::program::Scripted;
use hypervisor::{
    HypervisorProfile, MemoryConfig, MemoryPressure, Op, Placement, ReclaimPolicy, VmBuilder, VmSim,
};
use sim_core::units::ByteSize;

const NODES: usize = 4;

/// vCPU `v`'s private working-set size: node 0 far above the per-node
/// budget, later nodes progressively lighter. The imbalance matters:
/// borrowing needs at least one donor below the moderate watermark.
fn ws(v: u32, pages_per_vcpu: u32) -> u32 {
    pages_per_vcpu / (v + 1)
}

/// A VM whose vCPU 0 writes a private working set far above the per-node
/// budget (forcing reclaim on the fault path) while the other slices stay
/// light enough to lend memory.
fn pressured_vm(policy: Option<ReclaimPolicy>, pages_per_vcpu: u32) -> VmSim {
    let mut cfg = MemoryConfig::new(ByteSize::gib(4)).node_budget(ByteSize::kib(4 * 600));
    if let Some(p) = policy {
        cfg = cfg.policy(p);
    }
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), NODES).with_memory(cfg);
    for v in 0..NODES as u32 {
        let set = ws(v, pages_per_vcpu);
        // Two passes so ballooned/swapped pages get re-touched.
        let script: Vec<Op> = (0..2 * set)
            .map(|i| Op::Touch {
                page: PageId::new(1_000_000 + v * 100_000 + (i % set)),
                access: Access::Write,
            })
            .collect();
        b = b.vcpu(Placement::new(v, 0), Box::new(Scripted::new(script)));
    }
    b.build()
}

#[test]
fn no_policy_means_no_elasticity() {
    let mut sim = pressured_vm(None, 1000);
    sim.run();
    assert!(sim.world.mem.reclaim_counters().is_none());
}

#[test]
fn every_policy_runs_reclaims_and_audits_clean() {
    for policy in ReclaimPolicy::ALL {
        let mut sim = pressured_vm(Some(policy), 1000);
        let tracer = sim.enable_tracing(1 << 20);
        sim.run();
        let c = sim.world.mem.reclaim_counters().unwrap();
        assert!(
            c.pressure_stalls > 0,
            "{policy:?}: the working set exceeds the budget, reclaim must fire"
        );
        let reclaimed = match policy {
            ReclaimPolicy::Borrow => c.pages_evicted,
            ReclaimPolicy::Balloon => c.pages_ballooned,
            ReclaimPolicy::Deflate => c.pages_deflated,
            ReclaimPolicy::Swap => c.pages_swapped,
        };
        assert!(reclaimed > 0, "{policy:?}: reclaimed nothing");
        sim_core::audit::assert_clean(&tracer.snapshot());
    }
}

#[test]
fn borrow_charges_stall_time_but_keeps_pages_resident() {
    let mut sim = pressured_vm(Some(ReclaimPolicy::Borrow), 1000);
    sim.run();
    let c = sim.world.mem.reclaim_counters().unwrap();
    assert!(c.reclaim_latency > sim_core::time::SimTime::ZERO);
    // Borrowing moves pages, never discards them: every touched page is
    // still in the directory.
    for v in 0..NODES as u32 {
        for i in 0..ws(v, 1000) {
            let p = PageId::new(1_000_000 + v * 100_000 + i);
            assert!(
                sim.world.mem.dsm.owner(p).is_some(),
                "borrow must not lose {p}"
            );
        }
    }
}

#[test]
fn swap_pays_asymmetric_refault_cost() {
    // The second pass re-touches swapped pages: swap-ins must show up.
    let mut sim = pressured_vm(Some(ReclaimPolicy::Swap), 1000);
    sim.run();
    let c = sim.world.mem.reclaim_counters().unwrap();
    assert!(c.pages_swapped > 0);
    assert!(
        c.pages_swapped_in > 0,
        "re-touching a swapped page must swap it back in"
    );
}

#[test]
fn balloon_refaults_on_reuse() {
    let mut sim = pressured_vm(Some(ReclaimPolicy::Balloon), 1000);
    sim.run();
    let c = sim.world.mem.reclaim_counters().unwrap();
    assert!(c.pages_ballooned > 0);
    assert!(c.refaults > 0, "re-touching a ballooned page must refault");
}

#[test]
fn deflate_shrinks_the_allocation_limit() {
    let mut sim = pressured_vm(Some(ReclaimPolicy::Deflate), 1000);
    let before = sim.world.mem.alloc.limit_pages();
    sim.run();
    let after = sim.world.mem.alloc.limit_pages();
    assert!(
        after < before,
        "deflation must lower the limit ({before} -> {after})"
    );
}

#[test]
fn pressure_level_is_reported() {
    let mut sim = pressured_vm(Some(ReclaimPolicy::Borrow), 1000);
    sim.run();
    // After reclaim the pressured nodes sit at or below High; the level
    // query itself must be consistent with the thresholds.
    for v in 0..NODES as u32 {
        let level = sim.world.mem.pressure_of(comm::NodeId::new(v));
        assert!(level <= MemoryPressure::Critical);
    }
}

#[test]
fn same_seed_elastic_runs_replay_bit_for_bit() {
    for policy in ReclaimPolicy::ALL {
        let run = || {
            let mut sim = pressured_vm(Some(policy), 600);
            let t = sim.run();
            let c = *sim.world.mem.reclaim_counters().unwrap();
            (
                t,
                sim.world.mem.dsm.stats().total_faults(),
                sim.world.fabric.messages_sent(),
                c.pressure_stalls,
                c.pages_evicted + c.pages_ballooned + c.pages_deflated + c.pages_swapped,
                c.reclaim_latency,
            )
        };
        assert_eq!(run(), run(), "{policy:?} must replay deterministically");
    }
}
