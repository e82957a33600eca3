//! Semantics tests for the vCPU op machine: blocking, wakeups, barriers,
//! fairness, and the migration/wakeup races.

use hypervisor::program::Scripted;
use hypervisor::{
    Event, GuestMsg, HypervisorProfile, Op, Placement, ProgCtx, Program, VcpuId, VmBuilder, VmSim,
};
use sim_core::time::SimTime;

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// A program that records what each receive delivered.
struct RecordingReceiver {
    ops: Vec<Op>,
    idx: usize,
    pub log: std::rc::Rc<std::cell::RefCell<Vec<GuestMsg>>>,
}

impl RecordingReceiver {
    fn new(ops: Vec<Op>) -> (Self, std::rc::Rc<std::cell::RefCell<Vec<GuestMsg>>>) {
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        (
            RecordingReceiver {
                ops,
                idx: 0,
                log: std::rc::Rc::clone(&log),
            },
            log,
        )
    }
}

impl Program for RecordingReceiver {
    fn next(&mut self, cx: &mut ProgCtx<'_>) -> Op {
        if let Some(msg) = cx.delivered.take() {
            self.log.borrow_mut().push(msg);
        }
        let op = self.ops.get(self.idx).cloned().unwrap_or(Op::Done);
        self.idx += 1;
        op
    }
}

#[test]
fn recv_any_prefers_local_messages() {
    // vCPU1 receives one local message; RecvAny must deliver it.
    let (receiver, log) = RecordingReceiver::new(vec![Op::RecvAny]);
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([Op::LocalSend {
            to: VcpuId::new(1),
            tag: 9,
            bytes: 100,
        }])),
    );
    b = b.vcpu(Placement::new(1, 0), Box::new(receiver));
    let mut sim = b.build();
    let _ = sim.run();
    let log = log.borrow();
    assert_eq!(log.len(), 1);
    assert!(matches!(log[0], GuestMsg::Local { tag: 9, .. }));
}

#[test]
fn pending_ipis_accumulate_and_drain_one_by_one() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    // vCPU0 fires three IPIs immediately; vCPU1 waits for all three after
    // a delay (so they are all pending when it first waits).
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([
            Op::SendIpi(VcpuId::new(1)),
            Op::SendIpi(VcpuId::new(1)),
            Op::SendIpi(VcpuId::new(1)),
        ])),
    );
    b = b.vcpu(
        Placement::new(1, 0),
        Box::new(Scripted::new([
            Op::Sleep(ms(1)),
            Op::WaitIpi,
            Op::WaitIpi,
            Op::WaitIpi,
            Op::Compute(ms(1)),
        ])),
    );
    let mut sim = b.build();
    let done = sim.run();
    // All three waits satisfied from the pending count; no deadlock.
    assert_eq!(done, ms(2));
    assert_eq!(sim.world.stats.ipis.events, 3);
}

#[test]
fn barriers_are_reusable_after_completion() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    for v in 0..2 {
        b = b.vcpu(
            Placement::new(v, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(u64::from(v) + 1)),
                Op::Barrier { id: 1, parties: 2 },
                Op::Compute(ms(u64::from(v) + 1)),
                // Same id again: a fresh barrier instance.
                Op::Barrier { id: 1, parties: 2 },
                Op::Compute(ms(1)),
            ])),
        );
    }
    let done = b.build().run();
    // Phase 1 ends at 2ms, phase 2 at 4ms, tail at 5ms.
    assert_eq!(done, ms(5));
}

#[test]
fn zero_cost_spinner_does_not_starve_peers() {
    /// A program issuing unbounded zero-latency ops.
    struct Spinner {
        left: u64,
    }
    impl Program for Spinner {
        fn next(&mut self, _cx: &mut ProgCtx<'_>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            // A local touch: zero virtual time once owned.
            Op::Touch {
                page: dsm::PageId::new(999_999),
                access: dsm::Access::Write,
            }
        }
    }
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    b = b.vcpu(Placement::new(0, 0), Box::new(Spinner { left: 100_000 }));
    b = b.vcpu(
        Placement::new(1, 0),
        Box::new(Scripted::new([Op::Compute(ms(1))])),
    );
    let mut sim = b.build();
    let done = sim.run();
    // The spinner burns zero virtual time; the peer still finishes at 1ms
    // and the engine terminates (per-event op budget forces rescheduling,
    // not livelock).
    assert_eq!(done, ms(1));
}

#[test]
fn message_arriving_during_migration_is_delivered_after() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 3);
    // Sender fires a local message at ~1ms (after compute).
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([
            Op::Compute(ms(1)),
            Op::LocalSend {
                to: VcpuId::new(1),
                tag: 5,
                bytes: 64,
            },
        ])),
    );
    let (receiver, log) = RecordingReceiver::new(vec![Op::LocalRecv, Op::Compute(ms(1))]);
    b = b.vcpu(Placement::new(1, 0), Box::new(receiver));
    let mut sim = b.build();
    // Let the receiver block, then start a migration that will be in
    // flight when the message lands.
    sim.run_until(ms(1));
    assert!(sim.migrate_vcpu(VcpuId::new(1), Placement::new(2, 0)));
    let _ = sim.run();
    assert_eq!(log.borrow().len(), 1);
    assert_eq!(
        sim.world.placement_of(VcpuId::new(1)).node,
        comm::NodeId::new(2)
    );
}

#[test]
fn sleeping_vcpu_migrates_and_still_wakes() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([Op::Sleep(ms(10)), Op::Compute(ms(1))])),
    );
    let mut sim = b.build();
    sim.run_until(ms(2));
    assert!(sim.migrate_vcpu(VcpuId::new(0), Placement::new(1, 0)));
    let done = sim.run();
    // Sleep must not be cut short by the migration resume.
    assert_eq!(done, ms(11));
}

/// Compute the woken vCPU runs after its wake in
/// [`wakes_landing_mid_migration_resume_at_migration_done`].
const TAIL: SimTime = SimTime::from_millis(1);

/// A VM whose vCPU1 (on node 1 of 3) blocks at once and, unmigrated, is
/// woken at `wake_ns`; after the wake it computes [`TAIL`] and finishes.
struct WakeCase {
    name: &'static str,
    build: fn() -> VmSim,
    wake_ns: u64,
}

fn ipi_wake() -> VmSim {
    VmBuilder::new(HypervisorProfile::fragvisor(), 3)
        .vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(1)),
                Op::SendIpi(VcpuId::new(1)),
            ])),
        )
        .vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([Op::WaitIpi, Op::Compute(TAIL)])),
        )
        .build()
}

fn fleet_net_wake() -> VmSim {
    let mut sim = VmBuilder::new(HypervisorProfile::fragvisor(), 3)
        .vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([Op::Compute(ms(1))])),
        )
        .vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([Op::NetRecv, Op::Compute(TAIL)])),
        )
        .build();
    sim.engine.schedule_at(
        ms(1),
        Event::FleetDeliver {
            vcpu: VcpuId::new(1),
            msg: GuestMsg::Net { conn: 7, bytes: 64 },
        },
    );
    sim
}

fn blk_io_wake() -> VmSim {
    VmBuilder::new(HypervisorProfile::fragvisor(), 3)
        .with_blk(comm::NodeId::new(0))
        .vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([Op::Compute(ms(1))])),
        )
        .vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([
                Op::BlkIo {
                    bytes: sim_core::units::ByteSize::kib(256),
                    write: false,
                    tmpfs: false,
                    buffer: (0..4).map(|i| dsm::PageId::new(600_000 + i)).collect(),
                },
                Op::Compute(TAIL),
            ])),
        )
        .build()
}

fn barrier_wake() -> VmSim {
    VmBuilder::new(HypervisorProfile::fragvisor(), 3)
        .vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(1)),
                Op::Barrier { id: 3, parties: 2 },
            ])),
        )
        .vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([
                Op::Barrier { id: 3, parties: 2 },
                Op::Compute(TAIL),
            ])),
        )
        .build()
}

#[test]
fn wakes_landing_mid_migration_resume_at_migration_done() {
    let cases = [
        WakeCase {
            name: "WaitIpi",
            build: ipi_wake,
            wake_ns: 1_002_109,
        },
        WakeCase {
            name: "NetRecv via FleetDeliver",
            build: fleet_net_wake,
            wake_ns: 1_000_000,
        },
        WakeCase {
            name: "BlkIo",
            build: blk_io_wake,
            wake_ns: 565_955,
        },
        WakeCase {
            name: "Barrier",
            build: barrier_wake,
            wake_ns: 1_000_000,
        },
    ];
    let waiter = VcpuId::new(1);
    let migration = HypervisorProfile::fragvisor().vcpu_migration_cost;
    for case in cases {
        // Unmigrated, the waiter finishes TAIL after its wake.
        let mut sim = (case.build)();
        let _ = sim.run();
        let wake = SimTime::from_nanos(case.wake_ns);
        assert_eq!(
            sim.world.stats.vcpu_finish[1],
            Some(wake + TAIL),
            "{}",
            case.name
        );
        // Start the migration 40us before the wake, so the wake lands
        // while the vCPU is in flight (86us): it must be replayed when the
        // migration lands, and the waiter finishes TAIL after that.
        let start = wake - SimTime::from_micros(40);
        let mut sim = (case.build)();
        sim.run_until(start);
        assert!(
            sim.migrate_vcpu(waiter, Placement::new(2, 0)),
            "{}",
            case.name
        );
        let _ = sim.run();
        assert_eq!(
            sim.world.stats.vcpu_finish[1],
            Some(start + migration + TAIL),
            "{}",
            case.name
        );
        assert_eq!(
            sim.world.placement_of(waiter).node,
            comm::NodeId::new(2),
            "{}",
            case.name
        );
        assert_eq!(sim.world.stats.migrations, 1, "{}", case.name);
    }
}

#[test]
fn computing_vcpu_migration_preserves_total_work() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([Op::Compute(ms(100))])),
    );
    let mut sim = b.build();
    sim.run_until(ms(30));
    assert!(sim.migrate_vcpu(VcpuId::new(0), Placement::new(1, 0)));
    let done = sim.run();
    // 30ms done + 86us migration + 70ms remaining.
    let expect = ms(100) + SimTime::from_micros(86);
    assert_eq!(done, expect);
}

#[test]
fn back_to_back_migrations_work() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 3);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([Op::Compute(ms(50))])),
    );
    let mut sim = b.build();
    sim.run_until(ms(10));
    assert!(sim.migrate_vcpu(VcpuId::new(0), Placement::new(1, 0)));
    // A second request while the first is in flight must be refused.
    assert!(!sim.migrate_vcpu(VcpuId::new(0), Placement::new(2, 0)));
    sim.run_until(ms(20));
    assert!(sim.migrate_vcpu(VcpuId::new(0), Placement::new(2, 0)));
    let done = sim.run();
    assert_eq!(
        sim.world.placement_of(VcpuId::new(0)).node,
        comm::NodeId::new(2)
    );
    assert!(done > ms(50));
    assert_eq!(sim.world.stats.migrations, 2);
}

#[test]
fn console_writes_route_to_bootstrap_pty_worker() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
    b = b.vcpu(
        Placement::new(0, 0),
        Box::new(Scripted::new([Op::ConsoleWrite { bytes: 80 }])),
    );
    b = b.vcpu(
        Placement::new(1, 0),
        Box::new(Scripted::new([Op::ConsoleWrite { bytes: 120 }])),
    );
    let mut sim = b.build();
    let _ = sim.run();
    let out = sim.world.console_out();
    assert_eq!(out.events, 2);
    assert_eq!(out.bytes, 200);
    // Only the remote slice's write crossed the fabric.
    assert_eq!(sim.world.fabric.traffic(comm::MsgClass::Io).events, 1);
}

#[test]
fn queue_full_sends_are_retried_not_lost() {
    // 300 back-to-back zero-latency sends overflow the 256-descriptor
    // ring; every one must eventually transmit (backpressure, not drops).
    let sends = 300u64;
    let ops: Vec<Op> = (0..sends)
        .map(|i| Op::NetSend {
            conn: i,
            bytes: sim_core::units::ByteSize::kib(1),
            payload: vec![],
        })
        .collect();
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2).with_net(comm::NodeId::new(0));
    b = b.vcpu(Placement::new(1, 0), Box::new(Scripted::new(ops)));
    let mut sim = b.build();
    let _ = sim.run();
    assert!(
        sim.world.stats.tx_drops > 0,
        "the test must actually hit backpressure"
    );
    // Every send produced a kick on the fabric (none silently lost).
    let io = sim.world.fabric.traffic(comm::MsgClass::Io);
    assert!(
        io.events >= sends,
        "only {} kicks for {sends} sends",
        io.events
    );
}

#[test]
fn net_send_without_client_transmits_into_the_void() {
    let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2).with_net(comm::NodeId::new(0));
    b = b.vcpu(
        Placement::new(1, 0),
        Box::new(Scripted::new([Op::NetSend {
            conn: 1,
            bytes: sim_core::units::ByteSize::kib(64),
            payload: vec![],
        }])),
    );
    let mut sim = b.build();
    let _ = sim.run();
    assert_eq!(sim.world.stats.completed_requests, 0);
    assert!(sim.world.fabric.messages_sent() > 0);
}
