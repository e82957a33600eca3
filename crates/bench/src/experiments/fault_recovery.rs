//! Live-recovery study: detection timeout × checkpoint interval × loss.
//!
//! Where [`super::reliability_study`] sets one drain against a few
//! checkpoint intervals, this experiment sweeps the restore loop's knobs
//! inside `VmSim`: a scripted crash kills a slice mid-run, the heartbeat
//! detector notices,
//! the DSM quarantines the dead node's pages, and the guest resumes from
//! the checkpoint image. The sweep shows the two knobs an operator
//! actually holds — how aggressively to probe and how often to
//! checkpoint — and how ambient fabric loss stretches detection.

use comm::NodeId;
use dsm::{Access, PageClass};
use guest::memory::Region;
use hypervisor::failure::FailureConfig;
use hypervisor::program::{FixedCompute, Op, Scripted};
use hypervisor::vm::{Placement, VmBuilder};
use hypervisor::HypervisorProfile;
use sim_core::fault::{FaultPlan, LinkFault};
use sim_core::time::SimTime;
use sim_core::units::Bandwidth;

use crate::report::{f2, Table};

/// Crash instant for the victim slice.
const CRASH_AT_MS: u64 = 30;

/// Per-vCPU guest compute; the fault-free lower bound on the makespan.
const WORK_MS: u64 = 100;

/// Pages of shared guest data homed on the victim slice.
const DATA_PAGES: u64 = 2048;

/// One sweep point: probes every `heartbeat_ms` (3 misses declare death),
/// checkpoints every `ckpt_ms`, with `loss` ambient drop probability on
/// every link for the whole run.
struct Point {
    heartbeat_ms: u64,
    ckpt_ms: u64,
    loss: f64,
}

/// Discovers where the shared dataset lands in the guest address space.
///
/// Allocation is deterministic, so a throwaway build tells us the page
/// range the real runs will get for the same region.
fn probe_region() -> Region {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 4);
    for i in 0..4 {
        b = b.vcpu(
            Placement::new(i, 0),
            Box::new(FixedCompute::new(SimTime::from_millis(1))),
        );
    }
    let mut sim = b.build();
    sim.world
        .mem
        .alloc_app_region("data", DATA_PAGES, NodeId::new(2), PageClass::Private)
}

/// A survivor's program: compute interleaved with remote reads of the
/// dataset homed on the victim node, so DSM traffic crosses the degraded
/// fabric before the crash and the quarantined/restored pages afterwards.
fn survivor(region: &Region, stride: u64) -> Scripted {
    let mut ops = Vec::new();
    let rounds = 25u64;
    for r in 0..rounds {
        ops.push(Op::Compute(SimTime::from_millis(WORK_MS / rounds)));
        let batch: Vec<_> = (0..8)
            .map(|k| {
                (
                    region.page((stride + r * 8 + k) % region.pages),
                    Access::Read,
                )
            })
            .collect();
        ops.push(Op::TouchBatch(batch));
    }
    Scripted::new(ops)
}

/// Metrics from one sweep point.
struct Outcome {
    detection: SimTime,
    downtime: SimTime,
    lost_work: SimTime,
    makespan: SimTime,
    /// Messages the fault plan dropped (proves loss was exercised).
    drops: u64,
    /// Priority-class retry attempts that rode through the loss.
    retries: u64,
}

/// Runs the seeded crash scenario at one sweep point.
fn run(p: &Point) -> Outcome {
    let region = probe_region();
    let mut plan = FaultPlan::scripted(0xFA11).crash(2, SimTime::from_millis(CRASH_AT_MS));
    if p.loss > 0.0 {
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src != dst {
                    plan = plan.degrade_link(LinkFault {
                        src,
                        dst,
                        from: SimTime::ZERO,
                        until: SimTime::from_secs(10),
                        loss: p.loss,
                        duplication: 0.0,
                        extra_latency: SimTime::ZERO,
                    });
                }
            }
        }
    }
    let cfg = FailureConfig {
        monitor: NodeId::new(0),
        heartbeat_interval: SimTime::from_millis(p.heartbeat_ms),
        miss_threshold: 3,
        restore_to: NodeId::new(0),
        restore_disk: Bandwidth::mb_per_sec(500.0),
        checkpoint_interval: SimTime::from_millis(p.ckpt_ms),
        prediction_lead: None,
    };
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 4)
        .with_fault_plan(plan)
        .with_failure_detector(cfg);
    for i in 0..4 {
        let prog: Box<dyn hypervisor::program::Program> = if i == 2 {
            Box::new(FixedCompute::new(SimTime::from_millis(WORK_MS)))
        } else {
            Box::new(survivor(&region, u64::from(i) * 512))
        };
        b = b.vcpu(Placement::new(i, 0), prog);
    }
    let mut sim = b.build();
    let real =
        sim.world
            .mem
            .alloc_app_region("data", DATA_PAGES, NodeId::new(2), PageClass::Private);
    assert_eq!(real, region, "allocation must be deterministic");
    let makespan = sim.run();
    let s = &sim.world.stats;
    assert_eq!(s.detections, 1, "the crash must be detected");
    Outcome {
        detection: s.detection_latency,
        downtime: s.recovery_downtime,
        lost_work: s.lost_work,
        makespan,
        drops: sim.world.fabric.messages_dropped(),
        retries: sim.world.fabric.retry_attempts(),
    }
}

/// Extension study: end-to-end crash recovery inside the running
/// simulation, sweeping heartbeat aggressiveness, checkpoint interval and
/// ambient fabric loss. Set `FAULT_SMOKE=1` to run a single-point smoke
/// version (used by CI).
pub fn fault_recovery_study() -> Table {
    let smoke = std::env::var("FAULT_SMOKE").is_ok_and(|v| v == "1");
    let heartbeats: &[u64] = if smoke { &[1] } else { &[1, 5, 20] };
    let ckpts: &[u64] = if smoke { &[20] } else { &[4, 20, 1000] };
    let losses: &[f64] = if smoke { &[0.0] } else { &[0.0, 0.3] };

    let mut t = Table::new(
        "Fault recovery",
        "live crash recovery: detection x checkpoint interval x fabric loss \
         (4 slices, crash at 30 ms, 100 ms guest work)",
        &[
            "heartbeat (ms)",
            "checkpoint (ms)",
            "link loss",
            "detection (ms)",
            "downtime (ms)",
            "work lost (ms)",
            "makespan (ms)",
            "drops",
            "retries",
        ],
    );
    for &heartbeat_ms in heartbeats {
        for &ckpt_ms in ckpts {
            for &loss in losses {
                let p = Point {
                    heartbeat_ms,
                    ckpt_ms,
                    loss,
                };
                let o = run(&p);
                t.row(vec![
                    heartbeat_ms.to_string(),
                    ckpt_ms.to_string(),
                    format!("{:.0}%", loss * 100.0),
                    f2(o.detection.as_micros_f64() / 1000.0),
                    f2(o.downtime.as_micros_f64() / 1000.0),
                    f2(o.lost_work.as_micros_f64() / 1000.0),
                    f2(o.makespan.as_micros_f64() / 1000.0),
                    o.drops.to_string(),
                    o.retries.to_string(),
                ]);
            }
        }
    }
    t.note(
        "Detection scales with the heartbeat interval (worst case interval \
         x (threshold+1)); lost work with the checkpoint interval (crash \
         offset modulo interval). Ambient loss drops hundreds of messages \
         (drops column) yet leaves every recovery metric unchanged: \
         Control probes ride the bounded-retry path and the DSM \
         retransmits bulk protocol messages, so loss costs microseconds, \
         not missed detections. Downtime = detection + restore streaming, \
         so the probe knob dominates once checkpoints are frequent.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_tracks_heartbeat_interval() {
        let fast = run(&Point {
            heartbeat_ms: 1,
            ckpt_ms: 50,
            loss: 0.0,
        });
        let slow = run(&Point {
            heartbeat_ms: 20,
            ckpt_ms: 50,
            loss: 0.0,
        });
        assert!(
            fast.detection < slow.detection,
            "fast {} vs slow {}",
            fast.detection,
            slow.detection
        );
        // Detection is bounded by interval x (threshold + 1).
        assert!(fast.detection <= SimTime::from_millis(4));
        assert!(slow.detection <= SimTime::from_millis(80));
        // Slower detection means more downtime and a longer makespan.
        assert!(fast.downtime < slow.downtime);
        assert!(fast.makespan < slow.makespan);
    }

    #[test]
    fn lost_work_tracks_checkpoint_interval() {
        let tight = run(&Point {
            heartbeat_ms: 1,
            ckpt_ms: 20,
            loss: 0.0,
        });
        let loose = run(&Point {
            heartbeat_ms: 1,
            ckpt_ms: 1000,
            loss: 0.0,
        });
        // Crash at 30 ms: 20 ms interval loses 10 ms, 1000 ms loses 30 ms.
        assert_eq!(tight.lost_work, SimTime::from_millis(10));
        assert_eq!(loose.lost_work, SimTime::from_millis(30));
    }

    #[test]
    fn lossy_fabric_still_detects_and_recovers() {
        let clean = run(&Point {
            heartbeat_ms: 1,
            ckpt_ms: 50,
            loss: 0.0,
        });
        let lossy = run(&Point {
            heartbeat_ms: 1,
            ckpt_ms: 50,
            loss: 0.3,
        });
        // The loss really fired — and the retry/retransmit paths absorbed
        // it: detection stays bounded, recovery completes.
        assert!(lossy.drops > clean.drops, "loss must drop messages");
        assert!(lossy.retries > clean.retries);
        assert!(
            lossy.detection <= SimTime::from_millis(8),
            "detection {}",
            lossy.detection
        );
        assert!(lossy.makespan > SimTime::from_millis(WORK_MS));
    }
}
