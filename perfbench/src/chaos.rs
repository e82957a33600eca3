//! The chaos soak, driven from outside the simulator.
//!
//! Mirrors `bench_harness::experiments::chaos_soak` from public pieces:
//! [`FaultPlan::chaotic`] plans, [`VmBuilder`] scenario shapes,
//! [`VmSim::enable_tracing`], stepping through [`crate::stepper`],
//! [`audit_tracer`] and [`Tracer::to_jsonl`]. Benchmark seed `s` runs plan
//! seeds `BASE + 96 s .. BASE + 96 s + 96`, so the first 24 plans of seed 0
//! are the soak's own.

use std::time::Instant;

use comm::NodeId;
use dsm::{Access, PageClass, PageId};
use hypervisor::failure::FailureConfig;
use hypervisor::program::{Op, Scripted};
use hypervisor::vm::{Placement, VmBuilder, VmSim};
use hypervisor::HypervisorProfile;
use sim_core::audit::audit_tracer;
use sim_core::fault::FaultPlan;
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;
use sim_core::{Fnv1a, Tracer};

use crate::stepper::{step, Until, VmProfile};

/// Cluster size of every chaos scenario.
const NODES: u32 = 4;

/// The monitor slice, spared by the chaotic plans.
const MONITOR: u32 = 0;

/// Fault-plan horizon.
const HORIZON: SimTime = SimTime::from_millis(80);

/// First plan seed of the soak.
const BASE: u64 = 0xC4A0_5000;

/// Plans the soak runs (its full, non-smoke count).
pub const SOAK_PLANS: u64 = 24;

/// Plans per benchmark seed: four soaks' worth, so that one seed's plans
/// cost about what another's do.
pub const PLANS: u64 = 4 * SOAK_PLANS;

/// Trace ring capacity per run.
const RING: usize = 1 << 20;

/// A scenario shape: its name and the constructor that builds a VM
/// around a fault plan.
pub type Shape = (&'static str, fn(FaultPlan) -> VmSim);

/// Scenario shapes, in soak order.
pub const SHAPES: [Shape; 2] = [("sharing", sharing_vm), ("recovery", recovery_vm)];

/// The plan seed of plan `i` under benchmark seed `seed`.
pub fn plan_seed(seed: u64, i: u64) -> u64 {
    BASE + seed * PLANS + i
}

/// The chaotic plan for plan seed `plan_seed`.
pub fn plan(plan_seed: u64) -> FaultPlan {
    FaultPlan::chaotic(plan_seed, NODES, HORIZON, MONITOR)
}

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

/// Every vCPU interleaves compute with writes into one shared page window.
pub fn sharing_vm(plan: FaultPlan) -> VmSim {
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

/// vCPUs stream reads from a dataset homed on node 2 while computing.
pub fn recovery_vm(plan: FaultPlan) -> VmSim {
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

/// One audited chaos run: the soak's table row plus its trace digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// FNV-1a digest of the trace JSONL.
    pub digest: u64,
    /// Trace events recorded.
    pub events: usize,
    /// Node crashes.
    pub crashes: u64,
    /// Partition windows opened.
    pub partitions: u64,
    /// Stale-epoch DSM accesses rejected.
    pub rejections: u64,
    /// Nodes that rejoined.
    pub rejoins: u64,
    /// Restores that fell back to another node.
    pub fallbacks: u64,
    /// Audit violations.
    pub violations: usize,
    /// JSONL bytes.
    pub bytes: usize,
}

/// Host time of the audit and export layers (traced runs only).
#[derive(Debug, Clone, Default)]
pub struct AuditProfile {
    /// Seconds in `audit_tracer`.
    pub audit_s: f64,
    /// Seconds in `Tracer::to_jsonl` plus the digest.
    pub jsonl_s: f64,
}

/// Runs one chaos VM: traces it, steps it to completion, audits the
/// trace and digests its JSONL. With profiles attached, the steps and the
/// audit/export calls are timed into them.
pub fn run_once(
    mut sim: VmSim,
    profiles: Option<(&mut VmProfile, &mut AuditProfile)>,
) -> Result<(Outcome, VmSim), String> {
    let tracer = sim.enable_tracing(RING);
    let (vm, audit) = match profiles {
        Some((vm, audit)) => (Some(vm), Some(audit)),
        None => (None, None),
    };
    step(&mut sim, Until::Finished, vm)?;
    let t = Instant::now();
    let violations = audit_tracer(&tracer)?.len();
    let audit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (digest, bytes) = digest_jsonl(&tracer);
    let jsonl_s = t.elapsed().as_secs_f64();
    if let Some(a) = audit {
        a.audit_s += audit_s;
        a.jsonl_s += jsonl_s;
    }
    let s = &sim.world.stats;
    let out = Outcome {
        digest,
        events: tracer.len(),
        crashes: s.node_crashes,
        partitions: s.partitions,
        rejections: sim.world.mem.dsm.stats().stale_rejections,
        rejoins: s.rejoins,
        fallbacks: s.restore_fallbacks,
        violations,
        bytes,
    };
    Ok((out, sim))
}

fn digest_jsonl(tracer: &Tracer) -> (u64, usize) {
    let jsonl = tracer.to_jsonl();
    let mut h = Fnv1a::new();
    h.write_bytes(jsonl.as_bytes());
    (h.finish(), jsonl.len())
}
