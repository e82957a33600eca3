//! End-to-end fault injection: scripted crashes, heartbeat detection,
//! quarantine + checkpoint restore, and deterministic replay.

use comm::{MsgClass, NodeId};
use dsm::PageClass;
use hypervisor::failure::FailureConfig;
use hypervisor::program::FixedCompute;
use hypervisor::vm::{Placement, VmBuilder, VmSim};
use hypervisor::{HypervisorProfile, VcpuId};
use proptest::prelude::*;
use sim_core::fault::FaultPlan;
use sim_core::time::SimTime;
use sim_core::trace::TraceEvent;
use sim_core::units::{Bandwidth, ByteSize};

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// A 4-node FragVisor VM with one 100 ms vCPU per node and a dataset
/// homed on node 2 (the crash victim in most scenarios).
fn build_vm(plan: FaultPlan, detector: Option<FailureConfig>) -> VmSim {
    build_vm_on(HypervisorProfile::fragvisor(), plan, detector)
}

/// [`build_vm`] under another hypervisor profile.
fn build_vm_on(
    profile: HypervisorProfile,
    plan: FaultPlan,
    detector: Option<FailureConfig>,
) -> VmSim {
    let mut b = VmBuilder::new(profile, 4).with_fault_plan(plan);
    if let Some(cfg) = detector {
        b = b.with_failure_detector(cfg);
    }
    for i in 0..4 {
        b = b.vcpu(Placement::new(i, 0), Box::new(FixedCompute::new(ms(100))));
    }
    let mut sim = b.build();
    let _ = sim
        .world
        .mem
        .alloc_app_region("data", 256, NodeId::new(2), PageClass::Private);
    sim
}

fn detector() -> FailureConfig {
    FailureConfig {
        monitor: NodeId::new(0),
        heartbeat_interval: ms(1),
        miss_threshold: 3,
        restore_to: NodeId::new(0),
        restore_disk: Bandwidth::mb_per_sec(500.0),
        checkpoint_interval: ms(50),
        prediction_lead: None,
    }
}

#[test]
fn crash_is_detected_quarantined_and_restored() {
    let plan = FaultPlan::scripted(7).crash(2, ms(10));
    let mut sim = build_vm(plan, Some(detector()));
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();

    // The crash fired, was detected within the heartbeat budget, and the
    // dead slice's pages were quarantined.
    let s = &sim.world.stats;
    assert_eq!(s.node_crashes, 1);
    assert_eq!(s.detections, 1);
    assert!(s.heartbeat_misses >= 3);
    assert!(
        s.detection_latency <= detector().worst_case_detection(),
        "detection took {}",
        s.detection_latency
    );
    assert!(s.pages_quarantined >= 256, "{}", s.pages_quarantined);
    assert_eq!(sim.world.mem.dsm.pages_owned_by(NodeId::new(2)), 0);
    assert_eq!(sim.world.crash_time(NodeId::new(2)), Some(ms(10)));

    // The guest resumed and finished: the victim vCPU re-ran its burst on
    // the restore node, so the makespan exceeds the fault-free 100 ms.
    assert!(done > ms(100), "makespan {done}");
    assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(0));
    for f in &sim.world.stats.vcpu_finish {
        assert!(f.is_some(), "every vCPU must finish after recovery");
    }

    // DSM invariants hold post-recovery and the trace audits clean.
    sim.world
        .mem
        .dsm
        .check_invariants()
        .expect("dsm invariants");
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "audit violations: {violations:?}");

    // Detection and recovery are visible in the trace, in causal order.
    let events = tracer.snapshot();
    let crash_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeCrash { at, node: 2 } => Some(*at),
            _ => None,
        })
        .expect("NodeCrash traced");
    let dead_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeDeclaredDead { at, node: 2, .. } => Some(*at),
            _ => None,
        })
        .expect("NodeDeclaredDead traced");
    let restore_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeRestore { at, node: 2, .. } => Some(*at),
            _ => None,
        })
        .expect("NodeRestore traced");
    assert!(crash_at < dead_at && dead_at <= restore_at);
    let quarantines = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::PageQuarantine { dead: 2, .. }))
        .count();
    assert!(quarantines >= 256, "{quarantines}");
}

#[test]
fn detector_stays_quiet_without_crashes() {
    // Loss-free plan, no crashes: the detector must not declare anyone
    // dead (the audit's detector-false-dead rule enforces the same).
    let plan = FaultPlan::scripted(7);
    let mut sim = build_vm(plan, Some(detector()));
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();
    assert_eq!(done, ms(100));
    assert_eq!(sim.world.stats.detections, 0);
    assert_eq!(sim.world.stats.heartbeat_misses, 0);
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn predicted_failure_drains_instead_of_restoring() {
    let plan = FaultPlan::scripted(7).crash(2, ms(10));
    let mut cfg = detector();
    cfg.prediction_lead = Some(ms(5));
    let mut sim = build_vm(plan, Some(cfg));
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();

    // The drain beat the crash: master copies moved ahead of time, so
    // recovery had nothing to quarantine and charges no rollback.
    let s = &sim.world.stats;
    assert!(s.pages_drained >= 256, "{}", s.pages_drained);
    assert_eq!(s.pages_quarantined, 0);
    assert_eq!(s.lost_work, SimTime::ZERO);
    assert_eq!(s.recovery_downtime, SimTime::ZERO);
    assert!(s.migrations >= 1);
    assert_eq!(sim.world.mem.dsm.pages_owned_by(NodeId::new(2)), 0);
    assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(0));
    // A 1 MiB drain takes well under 2 ms on 56 Gbps InfiniBand.
    assert!(s.drain_time >= sim.world.profile().vcpu_migration_cost);
    assert!(s.drain_time < ms(2), "{}", s.drain_time);
    assert!(done > ms(100));
    // The page stream is priced on the fabric as migration traffic.
    let migration = sim.world.fabric.traffic(MsgClass::Migration);
    assert!(
        migration.bytes >= s.pages_drained * (4096 + 64),
        "{} bytes",
        migration.bytes
    );

    // vCPU 2 drains to its own spare core of node 0, so the VM ends
    // sooner than the same crash restored reactively.
    let reactive = build_vm(FaultPlan::scripted(7).crash(2, ms(10)), Some(detector())).run();
    assert!(done < reactive, "drained {done} vs reactive {reactive}");
    sim.world
        .mem
        .dsm
        .check_invariants()
        .expect("dsm invariants");
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn crash_mid_checkpoint_leaves_clean_audit() {
    // A checkpoint is in flight (trace events emitted at 5 ms) when the
    // node dies at 10 ms: recovery must still leave exactly one owner per
    // page and a violation-free trace.
    let plan = FaultPlan::scripted(11).crash(2, ms(10));
    let mut sim = build_vm(plan, Some(detector()));
    let tracer = sim.enable_tracing(1 << 20);
    sim.run_until(ms(5));
    let report = hypervisor::checkpoint::checkpoint(
        &sim.world.mem,
        NodeId::new(0),
        Bandwidth::mb_per_sec(500.0),
        sim.world.profile().link,
    );
    assert!(report.duration > SimTime::ZERO);
    let done = sim.run();
    assert!(done > ms(100));
    sim.world
        .mem
        .dsm
        .check_invariants()
        .expect("dsm invariants");
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn predicted_drain_refuses_a_migrating_vcpu() {
    // The prediction fires at 5 ms, while vCPU 2 is still mid-way
    // through a migration to node 1 started just before: the drain must
    // refuse it and say so rather than pretend the node is clear.
    let plan = FaultPlan::scripted(3).crash(2, ms(10));
    let mut cfg = detector();
    cfg.prediction_lead = Some(ms(5));
    let mut sim = build_vm(plan, Some(cfg));
    let tracer = sim.enable_tracing(1 << 20);
    sim.run_until(ms(5) - SimTime::from_micros(10));
    assert!(sim.migrate_vcpu(VcpuId::new(2), Placement::new(1, 1)));
    let done = sim.run();
    assert_eq!(sim.world.stats.migrations_refused, 1);
    assert!(tracer.snapshot().iter().any(|e| matches!(
        e,
        TraceEvent::VcpuMigrateRefused {
            vcpu: 2,
            from_node: 2,
            to_node: 0,
            ..
        }
    )));
    assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(1));
    assert!(done >= ms(100));
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn giantvm_cannot_drain_and_restores_reactively() {
    // Without mobility a predicted failure changes nothing: the crash is
    // detected and node 2's vCPU is restored from the checkpoint.
    let plan = FaultPlan::scripted(7).crash(2, ms(10));
    let mut cfg = detector();
    cfg.prediction_lead = Some(ms(5));
    let mut sim = build_vm_on(HypervisorProfile::giantvm(), plan, Some(cfg));
    sim.run();
    let s = &sim.world.stats;
    assert_eq!(s.pages_drained, 0);
    assert_eq!(s.drain_time, SimTime::ZERO);
    assert_eq!(s.migrations, 0);
    assert_eq!(s.detections, 1);
    assert!(s.lost_work > SimTime::ZERO);
    assert!(s.recovery_downtime > SimTime::ZERO);
    assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(0));
}

/// Runs the full seeded scenario and returns the trace as JSONL bytes.
fn run_seeded(seed: u64) -> (String, SimTime) {
    let plan = FaultPlan::seeded(seed, 4, ms(100));
    let mut sim = build_vm(plan, Some(detector()));
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();
    (tracer.to_jsonl(), done)
}

#[test]
fn seeded_scenario_replays_bit_for_bit() {
    let (a, done_a) = run_seeded(0xFA11);
    let (b, done_b) = run_seeded(0xFA11);
    assert_eq!(done_a, done_b);
    assert_eq!(a, b, "same seed must give byte-identical traces");
    assert!(!a.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded fault plan replays byte-for-byte and audits clean.
    #[test]
    fn seeded_plans_replay_and_audit_clean(seed in 0u64..1_000_000) {
        let plan = FaultPlan::seeded(seed, 4, ms(100));
        let run = |plan: FaultPlan| {
            let mut sim = build_vm(plan, Some(detector()));
            let tracer = sim.enable_tracing(1 << 20);
            let done = sim.run();
            let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
            (tracer.to_jsonl(), done, violations)
        };
        let (trace_a, done_a, violations) = run(plan.clone());
        let (trace_b, done_b, _) = run(plan);
        prop_assert_eq!(done_a, done_b);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }
}

/// A 4-node VM whose vCPUs all hammer the same shared page window, so a
/// cut-off minority that kept writing unfenced would corrupt survivors.
fn partition_vm(plan: FaultPlan, cfg: FailureConfig) -> VmSim {
    use dsm::{Access, PageId};
    use hypervisor::program::{Op, Scripted};
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 4)
        .with_fault_plan(plan)
        .with_failure_detector(cfg);
    for i in 0..4 {
        let mut ops = Vec::new();
        for round in 0..30u32 {
            ops.push(Op::Compute(ms(2)));
            ops.push(Op::Touch {
                page: PageId::new(100 + (round % 8)),
                access: Access::Write,
            });
        }
        b = b.vcpu(Placement::new(i, 0), Box::new(Scripted::new(ops)));
    }
    b.build()
}

#[test]
fn partitioned_minority_is_fenced_heals_and_rejoins() {
    // Node 2 is cut off from 10 ms to 45 ms. The detector declares it
    // dead (~14 ms), fencing it at a new epoch; its writes from then on
    // are rejected, not applied. At the heal it rejoins, re-fetches, and
    // finishes its program.
    let plan = FaultPlan::scripted(21).partition(vec![2], ms(10), ms(45));
    let mut sim = partition_vm(plan, detector());
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();

    let s = &sim.world.stats;
    assert_eq!(s.partitions, 1);
    assert_eq!(s.node_crashes, 0, "a partition is not a crash");
    assert!(s.detections >= 1);
    assert_eq!(sim.world.mem.dsm.stats().epoch_bumps, 1);
    assert_eq!(s.rejoins, 1);
    for f in &s.vcpu_finish {
        assert!(f.is_some(), "every vCPU finishes after the heal");
    }
    assert!(done > ms(60), "makespan {done}");

    let events = tracer.snapshot();
    let rejected = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::StaleEpochRejected { node: 2, .. }))
        .count();
    assert!(rejected > 0, "the minority kept writing after the fence");
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::EpochBump {
            epoch: 1,
            dead: 2,
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::NodeRejoin {
            node: 2,
            epoch: 1,
            ..
        }
    )));
    // Fence before the first rejection, rejection before the rejoin.
    let bump_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::EpochBump { at, .. } => Some(*at),
            _ => None,
        })
        .expect("EpochBump traced");
    let first_reject = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::StaleEpochRejected { at, .. } => Some(*at),
            _ => None,
        })
        .expect("StaleEpochRejected traced");
    let rejoin_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeRejoin { at, .. } => Some(*at),
            _ => None,
        })
        .expect("NodeRejoin traced");
    assert!(bump_at <= first_reject && first_reject < rejoin_at);

    // Zero rejected writes were applied: the audit's epoch rules and the
    // single-owner invariant both come up clean.
    sim.world
        .mem
        .dsm
        .check_invariants()
        .expect("dsm invariants");
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "audit violations: {violations:?}");
}

#[test]
fn partition_scenario_replays_bit_for_bit() {
    let run = || {
        let plan = FaultPlan::scripted(21).partition(vec![2], ms(10), ms(45));
        let mut sim = partition_vm(plan, detector());
        let tracer = sim.enable_tracing(1 << 20);
        let done = sim.run();
        (tracer.to_jsonl(), done)
    };
    let (a, done_a) = run();
    let (b, done_b) = run();
    assert_eq!(done_a, done_b);
    assert_eq!(a, b, "same plan must give byte-identical traces");
    assert!(!a.is_empty());
}

#[test]
fn restore_target_crash_mid_restore_falls_back_to_spare() {
    // Monitor on node 3. Node 2 dies at 10 ms and restores to node 0 —
    // which dies at 14 ms, mid-restore. Recovery must fall back to the
    // next live node (1) and still finish every vCPU.
    let plan = FaultPlan::scripted(9).crash(2, ms(10)).crash(0, ms(14));
    let mut cfg = detector();
    cfg.monitor = NodeId::new(3);
    let mut sim = partition_vm(plan, cfg);
    let tracer = sim.enable_tracing(1 << 20);
    let done = sim.run();

    let s = &sim.world.stats;
    assert_eq!(s.node_crashes, 2);
    assert_eq!(s.detections, 2);
    assert!(s.restore_fallbacks >= 1, "node 0's recovery must fall back");
    for f in &s.vcpu_finish {
        assert!(f.is_some(), "every vCPU finishes on the fallback node");
    }
    assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(1));
    assert_eq!(sim.world.placement_of(VcpuId::new(0)).node, NodeId::new(1));
    assert!(done > ms(60), "makespan {done}");
    sim.world
        .mem
        .dsm
        .check_invariants()
        .expect("dsm invariants");
    let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
    assert!(violations.is_empty(), "audit violations: {violations:?}");
}

#[test]
fn barrier_party_restored_after_a_crash_is_not_woken_again() {
    use hypervisor::program::{Op, Scripted};
    // vCPU1 waits at the barrier when its node crashes at 5 ms; recovery
    // restores it past the barrier and it finishes long before vCPU0
    // arrives at 20 ms. The release must leave the finished vCPU alone,
    // so vCPU0 still runs its last millisecond.
    let mut cfg = detector();
    cfg.restore_to = NodeId::new(1);
    let barrier = Op::Barrier { id: 1, parties: 2 };
    let mut sim = VmBuilder::new(HypervisorProfile::fragvisor(), 3)
        .with_fault_plan(FaultPlan::scripted(7).crash(2, ms(5)))
        .with_failure_detector(cfg)
        .vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(20)),
                barrier.clone(),
                Op::Compute(ms(1)),
            ])),
        )
        .vcpu(
            Placement::new(2, 0),
            Box::new(Scripted::new([barrier, Op::Compute(ms(1))])),
        )
        .build();
    assert_eq!(sim.run(), ms(21));
    let finish = &sim.world.stats.vcpu_finish;
    assert_eq!(finish[0], Some(ms(21)));
    assert!(finish[1].is_some_and(|t| t < ms(20)), "{finish:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any chaotic plan (crashes × partitions × loss, monitor spared)
    /// replays byte-for-byte and audits clean.
    #[test]
    fn chaotic_plans_replay_and_audit_clean(seed in 0u64..1_000_000) {
        let plan = FaultPlan::chaotic(seed, 4, ms(100), 0);
        let run = |plan: FaultPlan| {
            let mut sim = partition_vm(plan, detector());
            let tracer = sim.enable_tracing(1 << 20);
            let done = sim.run();
            let violations = sim_core::audit::audit_tracer(&tracer).expect("full trace");
            (tracer.to_jsonl(), done, violations)
        };
        let (trace_a, done_a, violations) = run(plan.clone());
        let (trace_b, done_b, _) = run(plan);
        prop_assert_eq!(done_a, done_b);
        prop_assert_eq!(trace_a, trace_b);
        prop_assert!(violations.is_empty(), "audit violations: {:?}", violations);
    }
}

#[test]
fn netsend_without_device_degrades_instead_of_panicking() {
    use hypervisor::program::{Op, Scripted};
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 1);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([
            Op::NetSend {
                conn: 1,
                bytes: ByteSize::bytes(512),
                payload: vec![],
            },
            Op::BlkIo {
                bytes: ByteSize::bytes(4096),
                write: true,
                tmpfs: false,
                buffer: vec![],
            },
            Op::Compute(ms(1)),
        ])),
    );
    let mut sim = b.build();
    let done = sim.run();
    assert_eq!(done, ms(1));
    let errs = sim.world.errors();
    assert_eq!(errs.len(), 2, "{errs:?}");
    assert!(matches!(errs[0], hypervisor::VmError::NoNetDevice { .. }));
    assert!(matches!(errs[1], hypervisor::VmError::NoBlkDevice { .. }));
}
