//! Extension experiments beyond the paper's figures.
//!
//! * [`ablation_study`] — how much each FragVisor mechanism contributes
//!   (the paper only evaluates the full system plus the guest-kernel
//!   toggle of Figure 10).
//! * [`reliability_study`] — quantifies §4's reliability sketch in the
//!   running VM: a predicted-failure drain vs checkpoint/restart.
//! * [`provisioning_study`] — the paper's goal (a): Aggregate VMs start
//!   *now* on fragments instead of waiting for a whole machine; measures
//!   time-to-start against the delayed-allocation baseline.

use cluster::MachineSpec;
use comm::{LinkProfile, NodeId};
use dsm::DsmConfig;
use fragvisor::{scenarios, Distribution, HypervisorProfile};
use guest::GuestConfig;
use hypervisor::checkpoint;
use hypervisor::failure::FailureConfig;
use hypervisor::program::FixedCompute;
use hypervisor::{Placement, VmBuilder};
use scheduler::{ArrivalTrace, ConsolidationPolicy, DatacenterSim};
use sim_core::audit::audit_tracer;
use sim_core::fault::FaultPlan;
use sim_core::rng::DetRng;
use sim_core::time::SimTime;
use sim_core::units::{Bandwidth, ByteSize};
use virtio::IoPathMode;
use workloads::{LempConfig, NpbClass, NpbKernel};

use crate::report::{f2, ratio, secs, Table};

/// The mechanism variants the ablation flips, one at a time.
fn variants() -> Vec<(&'static str, HypervisorProfile)> {
    let full = HypervisorProfile::fragvisor();
    vec![
        ("full fragvisor", full),
        (
            "- contextual DSM",
            HypervisorProfile {
                dsm: DsmConfig {
                    contextual: false,
                    ..full.dsm
                },
                ..full
            },
        ),
        (
            "+ EPT dirty-bit traffic",
            HypervisorProfile {
                dsm: DsmConfig {
                    dirty_bit_tracking: true,
                    ..full.dsm
                },
                ..full
            },
        ),
        (
            "- padded guest layout",
            HypervisorProfile {
                guest: GuestConfig {
                    optimized_layout: false,
                    ..full.guest
                },
                ..full
            },
        ),
        (
            "- NUMA updates",
            HypervisorProfile {
                numa_updates: false,
                guest: GuestConfig {
                    numa_aware: false,
                    ..full.guest
                },
                ..full
            },
        ),
        (
            "- DSM-bypass (multiqueue only)",
            full.with_io_mode("mq", IoPathMode::Multiqueue),
        ),
        (
            "- multiqueue (shared ring)",
            full.with_io_mode("shared", IoPathMode::SharedRing),
        ),
        (
            "+ user-space fault path",
            HypervisorProfile {
                fault_handler_cpu: SimTime::from_micros(7),
                ..full
            },
        ),
    ]
}

/// Ablation: per-mechanism contribution on three representative
/// workloads (alloc-heavy NPB, LEMP, FaaS), reported as slowdown relative
/// to the full system.
pub fn ablation_study() -> Table {
    let mut t = Table::new(
        "Ablation",
        "per-mechanism contribution (slowdown vs full FragVisor, 4 vCPUs)",
        &["variant", "NPB IS", "LEMP 100ms", "OpenLambda"],
    );
    let dist = Distribution::OneVcpuPerNode;
    let mut base: Option<[f64; 3]> = None;
    for (name, profile) in variants() {
        let npb = {
            let mut sim =
                scenarios::npb_multiprocess(NpbKernel::Is, NpbClass::Sim, 4, profile, &dist);
            sim.run().as_secs_f64()
        };
        let lemp = {
            let mut sim = scenarios::lemp(LempConfig::paper(100, 4), profile, &dist, 20);
            sim.run_client().as_secs_f64()
        };
        let faas = {
            let (mut sim, _) = scenarios::faas(4, 1, profile, &dist);
            sim.run().as_secs_f64()
        };
        let times = [npb, lemp, faas];
        let b = *base.get_or_insert(times);
        t.row(vec![
            name.to_string(),
            ratio(times[0] / b[0]),
            ratio(times[1] / b[1]),
            ratio(times[2] / b[2]),
        ]);
    }
    t.note(
        "Each row disables (or adds the cost of) one mechanism; 1.00x = no \
         effect on that workload. Expected: guest layout & dirty-bit hit \
         IS; bypass & multiqueue hit OpenLambda's download; contextual DSM \
         is a small broad win.",
    );
    t
}

/// Heartbeat detector of the reliability study: 125 ms probes, three
/// misses, so a crash is declared within half a second.
fn reliability_detector(checkpoint_interval: SimTime) -> FailureConfig {
    FailureConfig {
        heartbeat_interval: SimTime::from_millis(125),
        miss_threshold: 3,
        checkpoint_interval,
        ..FailureConfig::default()
    }
}

/// Runs the reliability study's VM to completion: 4 slices, 12 GiB, a
/// 2 GiB resident dataset per node, and node 3 crashing at `crash`. Every
/// vCPU computes for twice that, so the crash hits a running VM. The run
/// is traced and must audit clean.
fn reliability_run(crash: SimTime, cfg: FailureConfig) -> hypervisor::VmSim {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 4)
        .ram(ByteSize::gib(12))
        .with_fault_plan(FaultPlan::scripted(0).crash(3, crash))
        .with_failure_detector(cfg);
    for i in 0..4 {
        b = b.vcpu(Placement::new(i, 0), Box::new(FixedCompute::new(crash * 2)));
    }
    let mut sim = b.build();
    for n in 0..4u32 {
        let _ = sim.world.mem.register_resident_dataset(
            &format!("d{n}"),
            ByteSize::gib(2),
            NodeId::new(n),
        );
    }
    let tracer = sim.enable_tracing(1 << 16);
    sim.run();
    let violations = audit_tracer(&tracer).expect("the trace fits its ring");
    assert!(violations.is_empty(), "reliability run: {violations:?}");
    sim
}

/// Reliability: predicted-failure drain vs checkpoint/restart, both run
/// inside `VmSim` through the heartbeat detector and a scripted crash.
pub fn reliability_study() -> Table {
    let mut t = Table::new(
        "Reliability (§4)",
        "surviving a node failure: predicted drain vs checkpoint/restart",
        &["strategy", "downtime", "work lost", "steady-state cost"],
    );

    // Proactive: MCA/AER predicts node 3's crash 500 ms ahead; its vCPU
    // and master copies drain live to node 0.
    let cfg = FailureConfig {
        prediction_lead: Some(SimTime::from_millis(500)),
        ..reliability_detector(SimTime::from_secs(60))
    };
    let sim = reliability_run(SimTime::from_millis(1500), cfg);
    let s = &sim.world.stats;
    assert_eq!(
        s.lost_work,
        SimTime::ZERO,
        "a completed drain loses no work"
    );
    t.row(vec![
        "predicted-failure drain".to_string(),
        format!(
            "{} ({} drain, VM keeps running)",
            secs(s.recovery_downtime),
            s.drain_time
        ),
        secs(s.lost_work),
        format!(
            "{} vCPU migrations + {} of pages",
            s.migrations,
            ByteSize::bytes(s.pages_drained * 4096)
        ),
    ]);

    // Reactive: the crash lands mid-interval, so the realised rollback is
    // the expected half interval; node 3's slice restores from disk.
    for interval_s in [60u64, 300, 900] {
        let interval = SimTime::from_secs(interval_s);
        let cfg = reliability_detector(interval);
        let sim = reliability_run(interval / 2, cfg);
        let s = &sim.world.stats;
        // One checkpoint of the whole image per interval.
        let image = checkpoint::checkpoint(
            &sim.world.mem,
            cfg.restore_to,
            cfg.restore_disk,
            sim.world.profile().link,
        );
        t.row(vec![
            format!("checkpoint every {interval_s}s"),
            secs(s.recovery_downtime + s.lost_work),
            secs(s.lost_work),
            format!(
                "{:.1}% of runtime",
                image.duration.as_secs_f64() / interval.as_secs_f64() * 100.0
            ),
        ]);
    }
    t.note(
        "Unpredicted failures cost the detection timeout, the dead slice's \
         restore from disk and the work since the last checkpoint; a \
         predicted failure costs sub-second mobility work and loses \
         nothing — mobility is the cheap half of the paper's reliability \
         story.",
    );
    t
}

/// Memory borrowing: slowdown of sweeping a dataset as a function of the
/// fraction homed on a remote, memory-only slice. The paper cites prior
/// work for this result (§7: "Several papers already show the benefits of
/// memory borrowing") — this experiment closes that loop in-repo.
pub fn memory_borrowing_study() -> Table {
    let mut t = Table::new(
        "Memory borrowing",
        "dataset sweep time vs fraction of RAM borrowed from another node",
        &["borrowed", "sweep time", "slowdown", "DSM read faults"],
    );
    let mut base = None;
    for pct in [0u32, 25, 50, 75, 100] {
        let mut sim = scenarios::memory_borrowing(
            4096,
            f64::from(pct) / 100.0,
            3,
            HypervisorProfile::fragvisor(),
        );
        let dur = sim.run().as_secs_f64();
        let b = *base.get_or_insert(dur);
        t.row(vec![
            format!("{pct}%"),
            format!("{:.2}ms", dur * 1e3),
            ratio(dur / b),
            sim.world.mem.dsm.stats().read_faults.to_string(),
        ]);
    }
    // Extension: sequential read prefetch amortizes the first sweep.
    for window in [8u32, 32] {
        let profile = HypervisorProfile {
            dsm: DsmConfig {
                read_prefetch: window,
                ..DsmConfig::fragvisor()
            },
            ..HypervisorProfile::fragvisor()
        };
        let mut sim = scenarios::memory_borrowing(4096, 1.0, 3, profile);
        let dur = sim.run().as_secs_f64();
        t.row(vec![
            format!("100% + prefetch {window}"),
            format!("{:.2}ms", dur * 1e3),
            ratio(dur / base.expect("baseline row ran")),
            sim.world.mem.dsm.stats().read_faults.to_string(),
        ]);
    }
    t.note(
        "First-touch faults move borrowed pages once (~8us each over 56 Gbps); \
         subsequent sweeps hit the local copies. Borrowed RAM is cheap for \
         read-mostly working sets — the premise of memory-only VM slices.",
    );
    t.note(
        "Read prefetch (an extension beyond the paper) batches sequential \
         fetches into one round trip, shrinking the cold-sweep penalty.",
    );
    t
}

/// Interference with co-located Primary VMs (§7 "Test Measurements"):
/// FragVisor consumes no pCPUs beyond those running vCPUs, so a Primary
/// VM sharing the machine is untouched. GiantVM's helper threads must
/// run somewhere — co-located they slow GiantVM itself; on additional
/// pCPUs they slow whoever owns those pCPUs.
pub fn interference_study() -> Table {
    let mut t = Table::new(
        "Interference",
        "a distributed VM's cost to co-located Primary VMs",
        &[
            "configuration",
            "distributed VM (NPB CG, 4v)",
            "primary VM slowdown",
        ],
    );
    let dist = Distribution::OneVcpuPerNode;
    let run = |profile: HypervisorProfile| {
        let mut sim = scenarios::npb_multiprocess(NpbKernel::Cg, NpbClass::Sim, 4, profile, &dist);
        sim.run()
    };
    // A Primary VM is a compute job on a neighbouring pCPU; its slowdown
    // is the processor-sharing effect of any helper load placed there.
    let primary_slowdown = |helper_load: f64| {
        let mut cpu = sim_core::pscpu::PsCpu::new(1.0);
        cpu.set_background_load(SimTime::ZERO, helper_load);
        let c = cpu.add(SimTime::ZERO, 1, SimTime::from_millis(100));
        c.at.as_secs_f64() / 0.1
    };
    let frag = run(HypervisorProfile::fragvisor());
    t.row(vec![
        "FragVisor (kernel DSM, no helpers)".to_string(),
        secs(frag),
        ratio(primary_slowdown(0.0)),
    ]);
    let giant_colocated = run(HypervisorProfile::giantvm());
    t.row(vec![
        "GiantVM, helpers co-located".to_string(),
        secs(giant_colocated),
        ratio(primary_slowdown(0.0)),
    ]);
    // Helpers offloaded: GiantVM's own vCPUs run unimpeded, but the
    // helper load lands on a neighbour's pCPU.
    let offloaded = HypervisorProfile {
        helper_thread_load: 0.0,
        ..HypervisorProfile::giantvm()
    };
    let giant_offloaded = run(offloaded);
    t.row(vec![
        "GiantVM, helpers on extra pCPUs".to_string(),
        secs(giant_offloaded),
        ratio(primary_slowdown(
            HypervisorProfile::giantvm().helper_thread_load,
        )),
    ]);
    t.note(
        "The paper: FragVisor 'does not add any interference to other \
         pCPUs potentially running Primary VMs — not possible for GiantVM \
         without affecting the performance of other VMs, or reducing the \
         numbers of VMs on a server.' GiantVM must pick one of the two \
         losing rows.",
    );
    t
}

/// Provisioning latency: FragBFF vs delayed allocation on the same trace.
pub fn provisioning_study() -> Table {
    let mut t = Table::new(
        "Provisioning",
        "time-to-start: FragBFF aggregates vs delayed allocation",
        &[
            "scheduler",
            "started instantly",
            "delayed VMs",
            "mean wait",
            "p95 wait",
        ],
    );
    for (name, aggregates) in [("BFF only (delay)", false), ("BFF + FragBFF", true)] {
        let mut waits = Vec::new();
        let mut instant = 0u64;
        let mut delayed_total = 0u64;
        for seed in [3u64, 7, 11, 13] {
            let mut rng = DetRng::new(seed);
            // Load the cluster to ~85% so that capacity usually exists
            // but is frequently fragmented — the regime Aggregate VMs
            // target (a saturated cluster blocks everyone regardless).
            let trace = ArrivalTrace::generate(
                &mut rng,
                100,
                SimTime::from_secs(3),
                SimTime::from_secs(35),
            );
            let sim = DatacenterSim::new(
                4,
                MachineSpec::fig14(),
                ConsolidationPolicy::MinFragmentation,
                trace,
            );
            let sim = if aggregates {
                sim
            } else {
                sim.without_aggregates()
            };
            let report = sim.run();
            delayed_total += report.delayed;
            for &(_, w) in &report.wait_times {
                if w.is_zero() {
                    instant += 1;
                }
                waits.push(w.as_secs_f64());
            }
        }
        waits.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        let p95 = waits[(waits.len() as f64 * 0.95) as usize];
        t.row(vec![
            name.to_string(),
            instant.to_string(),
            delayed_total.to_string(),
            format!("{mean:.1}s"),
            format!("{p95:.1}s"),
        ]);
    }
    t.note(
        "Same four traces, same cluster. FragBFF turns stranded fragments \
         into immediate starts: goal (a) of the design — provisioning \
         faster than delayed execution.",
    );
    t.note(f2(0.0) + " = started the instant it arrived.");
    // The boot-time side of goal (a): distributing a boot costs
    // milliseconds, so starting on fragments *now* always beats waiting.
    let single = hypervisor::boot::boot_time(
        4,
        1,
        ByteSize::mib(24),
        Bandwidth::mb_per_sec(500.0),
        LinkProfile::infiniband_56g(),
    );
    let spread = hypervisor::boot::boot_time(
        4,
        4,
        ByteSize::mib(24),
        Bandwidth::mb_per_sec(500.0),
        LinkProfile::infiniband_56g(),
    );
    t.note(format!(
        "boot time: {} on one machine vs {} across four slices — the \
         aggregation tax is {}, dwarfed by multi-second placement delays.",
        secs(single.total),
        secs(spread.total),
        spread.total - single.total,
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closed form the in-sim restore must land near: detection after
    /// `miss_threshold` missed probes, the dead slice's 2 GiB share
    /// streamed back from disk, and half an interval of rolled-back work.
    #[test]
    fn checkpoint_restore_matches_closed_form() {
        for interval_s in [60u64, 300, 900] {
            let interval = SimTime::from_secs(interval_s);
            let cfg = reliability_detector(interval);
            let sim = reliability_run(interval / 2, cfg);
            let s = &sim.world.stats;
            let detection = cfg.heartbeat_interval * u64::from(cfg.miss_threshold);
            let restore = checkpoint::restore(
                ByteSize::gib(2),
                1,
                cfg.restore_disk,
                sim.world.profile().link,
            );
            let oracle = detection + restore + interval / 2;
            let got = s.recovery_downtime + s.lost_work;
            let gap = got.max(oracle) - got.min(oracle);
            assert!(
                gap <= cfg.heartbeat_interval,
                "{interval_s}s: in-sim {got} vs closed form {oracle}"
            );
            assert_eq!(s.lost_work, interval / 2);
        }
    }
}
