//! Unit tests of the proactive drain that runs inside [`VmSim`]: a
//! failure predicted [`FailureConfig::prediction_lead`] ahead of a
//! scripted crash moves the suspect node's vCPUs and master copies off
//! it, and the page stream is priced on the fabric.

mod tests {
    use comm::{MsgClass, NodeId};
    use dsm::PageClass;
    use sim_core::fault::FaultPlan;
    use sim_core::time::SimTime;
    use virtio::VcpuId;

    use crate::failure::FailureConfig;
    use crate::profile::HypervisorProfile;
    use crate::program::FixedCompute;
    use crate::vm::{Placement, VmBuilder, VmSim};

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    /// A 3-node FragVisor VM with one 100 ms vCPU per node and 256 pages
    /// owned by node 2, which crashes at 15 ms. With `lead` set, the
    /// failure is predicted that far ahead and node 2 drains to node 0.
    fn build_vm(lead: Option<SimTime>) -> VmSim {
        let cfg = FailureConfig {
            heartbeat_interval: ms(1),
            restore_to: NodeId::new(0),
            checkpoint_interval: ms(50),
            prediction_lead: lead,
            ..FailureConfig::default()
        };
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 3)
            .with_fault_plan(FaultPlan::scripted(5).crash(2, ms(15)))
            .with_failure_detector(cfg);
        for i in 0..3 {
            b = b.vcpu(Placement::new(i, 0), Box::new(FixedCompute::new(ms(100))));
        }
        let mut sim = b.build();
        let _ = sim
            .world
            .mem
            .alloc_app_region("data", 256, NodeId::new(2), PageClass::Private);
        sim
    }

    #[test]
    fn drain_evacuates_vcpus_and_pages() {
        let mut sim = build_vm(Some(ms(5)));
        sim.run_until(ms(9));
        let before = sim.world.mem.dsm.pages_owned_by(NodeId::new(2));
        assert!(before >= 256);
        let done = sim.run();
        let s = &sim.world.stats;
        assert_eq!(s.migrations, 1);
        assert_eq!(s.pages_drained, before);
        assert_eq!(s.pages_quarantined, 0);
        assert_eq!(sim.world.mem.dsm.pages_owned_by(NodeId::new(2)), 0);
        // The VM finishes normally afterwards.
        assert!(done >= ms(100));
        assert_eq!(sim.world.placement_of(VcpuId::new(2)).node, NodeId::new(0));
    }

    #[test]
    fn drain_is_fast_relative_to_restart() {
        let mut sim = build_vm(Some(ms(5)));
        sim.run();
        let drain = sim.world.stats.drain_time;
        // A 1 MiB-scale drain takes well under a millisecond on 56 Gbps.
        assert!(drain < ms(2), "{drain}");
        let mut reactive = build_vm(None);
        reactive.run();
        let restart = reactive.world.stats.recovery_downtime;
        assert_eq!(reactive.world.stats.drain_time, SimTime::ZERO);
        assert!(drain < restart, "drain {drain} vs restart {restart}");
    }

    #[test]
    fn drain_traffic_metered() {
        let mut sim = build_vm(Some(ms(5)));
        sim.run();
        let pages = sim.world.stats.pages_drained;
        let m = sim.world.fabric.traffic(MsgClass::Migration);
        let mut reactive = build_vm(None);
        reactive.run();
        let r = reactive.world.fabric.traffic(MsgClass::Migration);
        // The page stream is one Migration-class message of 4160 bytes a
        // page; the rest is vCPU 2's 8 KiB state dump and its 64-byte
        // handoff. A reactive restore streams no migration traffic.
        let stream = pages * (4096 + 64);
        assert!(m.bytes >= stream, "{} bytes", m.bytes);
        assert!(m.bytes - stream <= 8192 + 64, "{} bytes", m.bytes);
        assert_eq!(r.events, 0);
    }
}
