//! Property tests for the message fabric.

use comm::{Fabric, LinkProfile, Message, MsgClass, NodeId, Scheduling};
use proptest::prelude::*;
use sim_core::time::SimTime;
use sim_core::units::ByteSize;

fn profiles() -> Vec<LinkProfile> {
    vec![
        LinkProfile::infiniband_56g(),
        LinkProfile::infiniband_56g_user_tcp(),
        LinkProfile::ethernet_1g(),
    ]
}

fn msg(size: u64, class: MsgClass) -> Message {
    Message::new(NodeId::new(0), NodeId::new(1), ByteSize::bytes(size), class)
}

/// All six classes, indexable by a generated `0..6`.
const CLASSES: [MsgClass; 6] = [
    MsgClass::Dsm,
    MsgClass::Interrupt,
    MsgClass::Io,
    MsgClass::Migration,
    MsgClass::Checkpoint,
    MsgClass::Control,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Messages of one class sent in time order on one directed link are
    /// delivered in order (FIFO), and never earlier than the link's floor
    /// latency.
    #[test]
    fn fifo_and_floor(
        profile_idx in 0usize..3,
        msgs in proptest::collection::vec((0u64..1_000_000, 1u64..65_536), 1..50),
    ) {
        let profile = profiles()[profile_idx];
        let mut fabric = Fabric::homogeneous(2, profile);
        let mut sorted = msgs.clone();
        sorted.sort();
        let mut last_delivery = SimTime::ZERO;
        for (at_us, size) in sorted {
            let now = SimTime::from_micros(at_us);
            let d = fabric.send(now, msg(size, MsgClass::Dsm)).unwrap();
            prop_assert!(d.deliver_at >= last_delivery, "reordering");
            prop_assert!(
                d.deliver_at >= now + profile.wire_latency,
                "faster than the wire"
            );
            last_delivery = d.deliver_at;
        }
    }

    /// Random interleavings of mixed-class sends preserve FIFO *within*
    /// every (link, class) pair — the QoS scheduler may reorder across
    /// classes but never within one — and the emitted trace passes the
    /// auditor's fabric rules.
    #[test]
    fn mixed_class_interleaving_preserves_class_fifo(
        profile_idx in 0usize..3,
        msgs in proptest::collection::vec(
            (0u64..10_000, 1u64..262_144, 0usize..6),
            2..60,
        ).prop_filter(
            "need at least two traffic classes to contend",
            |v| {
                let first = v[0].2;
                v.iter().any(|&(_, _, c)| c != first)
            },
        ),
    ) {
        let mut fabric = Fabric::homogeneous(2, profiles()[profile_idx]);
        let tracer = sim_core::trace::Tracer::ring(1 << 10);
        fabric.attach_tracer(tracer.clone());
        let mut sorted = msgs.clone();
        sorted.sort();
        let mut last_per_class = [SimTime::ZERO; 6];
        for (at_us, size, class_idx) in sorted {
            let now = SimTime::from_micros(at_us);
            let class = CLASSES[class_idx];
            let d = fabric.send(now, msg(size, class)).unwrap();
            prop_assert!(
                d.deliver_at >= last_per_class[class_idx],
                "class {} reordered: {} before {}",
                class.label(), d.deliver_at, last_per_class[class_idx]
            );
            last_per_class[class_idx] = d.deliver_at;
        }
        let violations = sim_core::audit::audit(&tracer.snapshot());
        prop_assert!(violations.is_empty(), "audit: {violations:?}");
    }

    /// Traffic accounting is exact.
    #[test]
    fn stats_account_every_byte(
        msgs in proptest::collection::vec(1u64..100_000, 1..60),
    ) {
        let mut fabric = Fabric::homogeneous(3, LinkProfile::infiniband_56g());
        let mut expect = 0u64;
        for (i, &size) in msgs.iter().enumerate() {
            let src = NodeId::new(i as u32 % 3);
            let dst = NodeId::new((i as u32 + 1) % 3);
            let m = Message::new(src, dst, ByteSize::bytes(size), MsgClass::Io);
            let _ = fabric.send(SimTime::ZERO, m).unwrap();
            expect += size;
        }
        prop_assert_eq!(fabric.traffic(MsgClass::Io).bytes, expect);
        prop_assert_eq!(fabric.messages_sent(), msgs.len() as u64);
    }

    /// Random sends over 3 nodes interleaved with `set_link` calls: a send
    /// on an idle link is priced exactly from the link's current profile.
    #[test]
    fn idle_sends_price_the_current_profile(
        ops in proptest::collection::vec(
            ((0u64..200, 0u32..3, 0u32..3), (1u64..100_000, 0usize..3, 0usize..8)),
            1..80,
        ),
    ) {
        let ib = LinkProfile::infiniband_56g();
        let mut fabric = Fabric::homogeneous(3, ib);
        let mut current = [[ib; 3]; 3];
        for (i, row) in current.iter_mut().enumerate() {
            row[i] = LinkProfile::local();
        }
        let mut busy_until = [[SimTime::ZERO; 3]; 3];
        let mut now = SimTime::ZERO;
        for ((gap_us, src, dst), (bytes, pick, op)) in ops {
            now += SimTime::from_micros(gap_us);
            let (s, d) = (src as usize, dst as usize);
            if op == 7 {
                let profile = profiles()[pick];
                fabric.set_link(NodeId::new(src), NodeId::new(dst), profile);
                current[s][d] = profile;
                busy_until[s][d] = SimTime::ZERO;
                continue;
            }
            let class = [MsgClass::Dsm, MsgClass::Io, MsgClass::Interrupt][op % 3];
            let size = ByteSize::bytes(bytes);
            let m = Message::new(NodeId::new(src), NodeId::new(dst), size, class);
            let got = fabric.send(now, m).unwrap().deliver_at;
            if now >= busy_until[s][d] {
                let p = current[s][d];
                let want = now
                    + p.bandwidth.transfer_time(size)
                    + p.wire_latency
                    + p.stack.per_message_latency();
                prop_assert_eq!(got, want);
            }
            busy_until[s][d] = busy_until[s][d].max(got);
        }
    }

    /// An idle link's latency is monotone in message size.
    #[test]
    fn latency_monotone_in_size(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let (small, large) = (a.min(b), a.max(b));
        let profile = LinkProfile::ethernet_1g();
        let t_small = profile.one_way(ByteSize::bytes(small));
        let t_large = profile.one_way(ByteSize::bytes(large));
        prop_assert!(t_small <= t_large);
    }

    /// A burst's last delivery is bounded below by pure serialization:
    /// total bytes at link bandwidth.
    #[test]
    fn burst_respects_bandwidth(
        sizes in proptest::collection::vec(1_000u64..100_000, 2..40),
    ) {
        let profile = LinkProfile::infiniband_56g();
        let mut fabric = Fabric::homogeneous(2, profile);
        let mut last = SimTime::ZERO;
        let total: u64 = sizes.iter().sum();
        for &s in &sizes {
            let d = fabric.send(SimTime::ZERO, msg(s, MsgClass::Dsm)).unwrap();
            last = last.max(d.deliver_at);
        }
        let floor = profile.bandwidth.transfer_time(ByteSize::bytes(total));
        prop_assert!(last >= floor, "last={last} floor={floor}");
    }
}

/// Regression: an `Interrupt` submitted mid-checkpoint-burst is delivered
/// before the burst drains. This is the head-of-line-blocking fix the QoS
/// scheduler exists for; under the legacy single-FIFO discipline the same
/// IPI waits out the entire stream.
#[test]
fn interrupt_mid_checkpoint_burst_is_delivered_before_the_burst_drains() {
    let run = |scheduling: Scheduling| {
        let profile = LinkProfile::infiniband_56g();
        let mut fabric = Fabric::homogeneous(2, profile);
        fabric.set_scheduling(scheduling);
        // A 256 MiB checkpoint stream, submitted as 4 MiB chunks at t=0.
        let chunk = ByteSize::mib(4);
        let mut burst_drains = SimTime::ZERO;
        for _ in 0..64 {
            let m = Message::new(NodeId::new(0), NodeId::new(1), chunk, MsgClass::Checkpoint);
            burst_drains = fabric.send(SimTime::ZERO, m).unwrap().deliver_at;
        }
        // Mid-burst (the stream takes ~38 ms at 56 Gbps), an IPI fires.
        let at = SimTime::from_millis(5);
        let ipi = fabric
            .send(at, msg(64, MsgClass::Interrupt))
            .unwrap()
            .deliver_at;
        (ipi - at, burst_drains - at)
    };

    let (qos_latency, remaining) = run(Scheduling::QosClassed);
    assert!(
        qos_latency < SimTime::from_micros(10),
        "IPI should cut through the burst, took {qos_latency}"
    );
    assert!(
        qos_latency < remaining,
        "IPI must beat the burst drain ({qos_latency} vs {remaining})"
    );

    let (fifo_latency, _) = run(Scheduling::SingleFifo);
    assert!(
        fifo_latency > SimTime::from_millis(30),
        "single FIFO should head-of-line block the IPI, took {fifo_latency}"
    );
}
