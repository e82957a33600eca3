//! Chaos soak: seeded chaotic fault plans against DSM-heavy guests.
//!
//! Each seed expands ([`FaultPlan::chaotic`]) into a plan mixing node
//! crashes (including a second crash timed to land mid-restore),
//! minority partitions, and lossy link windows — always sparing the
//! monitor slice. The plan runs through two scenario shapes:
//!
//! * **sharing** — the fig04/fig05 shape: every vCPU writes a shared
//!   page window, so ownership ping-pongs across the fabric and a fenced
//!   minority immediately collides with the survivors' writes;
//! * **recovery** — the `exp_fault_recovery` shape: survivors stream
//!   reads from a dataset homed on a likely victim while the plan kills
//!   and cuts nodes under them.
//!
//! Every run must satisfy two properties or the harness panics (CI fails):
//!
//! 1. **Clean audit** — the trace auditor reports zero violations: no
//!    stale-epoch mutation applied, one exclusive owner per page across
//!    every heal, every rejoin preceded by a fence.
//! 2. **Bit-identical replay** — running the same plan twice produces
//!    byte-identical traces (compared by FNV-1a digest over the JSONL).
//!
//! Set `CHAOS_SMOKE=1` for the 8-seed CI version.

use comm::NodeId;
use dsm::{Access, PageClass, PageId};
use hypervisor::failure::FailureConfig;
use hypervisor::program::{Op, Scripted};
use hypervisor::vm::{Placement, VmBuilder, VmSim};
use hypervisor::HypervisorProfile;
use sim_core::digest::fnv1a;
use sim_core::fault::FaultPlan;
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;

use crate::report::Table;

/// Cluster size for every chaos scenario.
const NODES: u32 = 4;

/// The monitor slice; [`FaultPlan::chaotic`] spares it from crashes and
/// partitions (a cut-off monitor mass-declares its peers — see the
/// quorum note in DESIGN.md §14).
const MONITOR: u32 = 0;

/// Fault-plan horizon: disturbances land inside the guests' runtime.
const HORIZON: SimTime = SimTime::from_millis(80);

/// The detector every chaos run uses: aggressive probing so even short
/// scripted partitions cross the declaration threshold.
fn detector() -> FailureConfig {
    FailureConfig {
        monitor: NodeId::new(MONITOR),
        heartbeat_interval: SimTime::from_millis(1),
        miss_threshold: 3,
        restore_to: NodeId::new(0),
        restore_disk: Bandwidth::mb_per_sec(500.0),
        checkpoint_interval: SimTime::from_millis(20),
        prediction_lead: None,
    }
}

/// The fig04/fig05-style sharing scenario: every vCPU interleaves compute
/// with writes into one shared page window.
fn sharing_vm(plan: FaultPlan) -> VmSim {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), NODES as usize)
        .with_fault_plan(plan)
        .with_failure_detector(detector());
    for i in 0..NODES {
        let mut ops = Vec::new();
        for round in 0..25u32 {
            ops.push(Op::Compute(SimTime::from_millis(4)));
            ops.push(Op::Touch {
                page: PageId::new(4096 + ((round + i) % 8)),
                access: Access::Write,
            });
        }
        b = b.vcpu(Placement::new(i, 0), Box::new(Scripted::new(ops)));
    }
    b.build()
}

/// The fault-recovery-style scenario: vCPUs 0/1/3 stream reads from a
/// dataset homed on node 2 (the likeliest victim) while computing.
fn recovery_vm(plan: FaultPlan) -> VmSim {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), NODES as usize)
        .with_fault_plan(plan)
        .with_failure_detector(detector());
    for i in 0..NODES {
        let mut ops = Vec::new();
        for round in 0..20u64 {
            ops.push(Op::Compute(SimTime::from_millis(5)));
            let batch: Vec<_> = (0..8)
                .map(|k| {
                    (
                        PageId::new(8192 + ((u64::from(i) * 64 + round * 8 + k) % 256) as u32),
                        Access::Read,
                    )
                })
                .collect();
            ops.push(Op::TouchBatch(batch));
        }
        b = b.vcpu(Placement::new(i, 0), Box::new(Scripted::new(ops)));
    }
    let mut sim = b.build();
    let pages: Vec<PageId> = (0..256).map(|k| PageId::new(8192 + k)).collect();
    sim.world
        .mem
        .register_pages(&pages, NodeId::new(2), PageClass::AppShared);
    sim
}

/// A scenario constructor: builds a fresh VM around a fault plan.
type Scenario = fn(FaultPlan) -> VmSim;

/// Metrics from one audited run.
struct RunOutcome {
    digest: u64,
    events: usize,
    crashes: u64,
    partitions: u64,
    rejections: u64,
    rejoins: u64,
    fallbacks: u64,
    violations: usize,
}

/// Runs one scenario once, audits the trace, digests the JSONL.
fn run_once(build: impl Fn(FaultPlan) -> VmSim, plan: FaultPlan) -> RunOutcome {
    let mut sim = build(plan);
    let tracer = sim.enable_tracing(1 << 20);
    let _ = sim.run();
    let violations = sim_core::audit::audit_tracer(&tracer)
        .expect("chaos traces must fit the ring")
        .len();
    let jsonl = tracer.to_jsonl();
    let s = &sim.world.stats;
    RunOutcome {
        digest: fnv1a(jsonl.as_bytes()),
        events: tracer.len(),
        crashes: s.node_crashes,
        partitions: s.partitions,
        rejections: sim.world.mem.dsm.stats().stale_rejections,
        rejoins: s.rejoins,
        fallbacks: s.restore_fallbacks,
        violations,
    }
}

/// Runs `seeds` chaotic plans through both scenario shapes, enforcing a
/// clean audit and a bit-identical replay for every run.
///
/// # Panics
///
/// Panics — failing the bench run — on any audit violation or any
/// digest divergence between a run and its replay.
pub fn chaos_soak() -> Table {
    let smoke = std::env::var("CHAOS_SMOKE").is_ok_and(|v| v == "1");
    let seeds: u64 = if smoke { 8 } else { 24 };

    let mut t = Table::new(
        "Chaos soak",
        "seeded chaotic fault plans (crashes x partitions x loss), \
         audited and replay-checked",
        &[
            "seed",
            "scenario",
            "events",
            "crashes",
            "partitions",
            "rejections",
            "rejoins",
            "fallbacks",
            "violations",
            "replay",
        ],
    );
    let scenarios: &[(&str, Scenario)] = &[("sharing", sharing_vm), ("recovery", recovery_vm)];
    let mut total_rejections = 0u64;
    let mut total_crashes = 0u64;
    let mut total_partitions = 0u64;
    for seed in 0..seeds {
        let plan = FaultPlan::chaotic(0xC4A0_5000 + seed, NODES, HORIZON, MONITOR);
        for &(name, build) in scenarios {
            let a = run_once(build, plan.clone());
            let b = run_once(build, plan.clone());
            assert_eq!(
                a.digest, b.digest,
                "seed {seed} scenario {name}: replay diverged"
            );
            assert_eq!(
                a.violations, 0,
                "seed {seed} scenario {name}: audit violations"
            );
            total_rejections += a.rejections;
            total_crashes += a.crashes;
            total_partitions += a.partitions;
            t.row(vec![
                seed.to_string(),
                name.to_string(),
                a.events.to_string(),
                a.crashes.to_string(),
                a.partitions.to_string(),
                a.rejections.to_string(),
                a.rejoins.to_string(),
                a.fallbacks.to_string(),
                a.violations.to_string(),
                "ok".to_string(),
            ]);
        }
    }
    // The soak only proves something if the plans actually disturbed the
    // cluster. (Individual seeds may draw zero crashes; the batch never.)
    assert!(total_crashes + total_partitions > 0, "inert chaos batch");
    t.note(format!(
        "{} runs x 2 replays, all audits clean, all replays bit-identical. \
         {} crashes and {} partition windows injected; {} stale-epoch \
         accesses rejected (none applied — the audit's epoch-stale-mutation \
         rule would have flagged them).",
        seeds * 2,
        total_crashes,
        total_partitions,
        total_rejections,
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_chaos_seed_soaks_clean() {
        // One fixed seed through both shapes: audit-clean, replay-stable.
        let plan = FaultPlan::chaotic(0xC4A0_5001, NODES, HORIZON, MONITOR);
        for build in [sharing_vm as Scenario, recovery_vm] {
            let a = run_once(build, plan.clone());
            let b = run_once(build, plan.clone());
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.violations, 0);
            assert!(a.events > 0);
        }
    }

    /// The JSONL digests of the soak's first plan through both shapes:
    /// any byte the trace export (or the run it records) changes fails
    /// here, not only a divergence between a run and its replay.
    #[test]
    fn first_plan_jsonl_digests_are_pinned() {
        let plan = FaultPlan::chaotic(0xC4A0_5000, NODES, HORIZON, MONITOR);
        let sharing = run_once(sharing_vm, plan.clone());
        let recovery = run_once(recovery_vm, plan);
        assert_eq!(sharing.digest, 0x7840_bcb6_c95c_7503);
        assert_eq!(recovery.digest, 0xa304_8d2b_8455_c342);
    }

    #[test]
    fn fnv_digest_separates_different_traces() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"same"), fnv1a(b"same"));
    }
}
