//! The cluster fabric: QoS-classed per-link queueing and delivery-time
//! computation.
//!
//! Each directed link schedules traffic in two tiers:
//!
//! * **Strict priority** — [`MsgClass::Interrupt`], [`MsgClass::Control`],
//!   and any message marked [`Urgency::Critical`] serialize on their own
//!   FIFO transmitter and never wait behind bulk traffic. (Priority
//!   payloads are tens of bytes; the cost model treats their bandwidth
//!   share as negligible rather than charging it to the bulk tier.)
//! * **Weighted-fair bulk** — `Dsm`/`Io`/`Migration`/`Checkpoint` each get
//!   a virtual per-class queue. When several bulk classes are backlogged,
//!   a message's serialization time is stretched by
//!   `Σ(weights of backlogged classes) / weight(class)`, approximating
//!   weighted-fair queueing while keeping the closed-form, event-free cost
//!   model. FIFO order is preserved *within* a class; a class with weight
//!   `w` is never slowed beyond `total_weight / w` (the starvation bound
//!   the trace auditor enforces).
//!
//! [`Scheduling::SingleFifo`] restores the pre-QoS behaviour (one FIFO per
//! link regardless of class) for A/B comparison in benchmarks.

use sim_core::fault::{Disruption, FaultInjector, FaultPlan};
use sim_core::stats::Meter;
use sim_core::time::SimTime;
use sim_core::trace::{TraceEvent, Tracer};
use sim_core::units::{Bandwidth, ByteSize};

use crate::profile::LinkProfile;
use crate::NodeId;

/// Coarse message classification. Classes drive both per-class traffic
/// statistics and the per-link QoS scheduler: `Interrupt` and `Control`
/// ride the strict-priority tier, the rest share bandwidth by weight
/// (see [`crate::profile::ClassWeights`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgClass {
    /// DSM protocol messages (page fetches, invalidations, acks).
    Dsm,
    /// Interrupt forwarding (IPI, MSI) between slices.
    Interrupt,
    /// I/O delegation (virtqueue notifications, DSM-bypass payloads).
    Io,
    /// vCPU migration state transfer.
    Migration,
    /// Checkpoint/restart traffic.
    Checkpoint,
    /// Cluster control plane (scheduler commands, heartbeats).
    Control,
}

impl MsgClass {
    /// Number of distinct classes.
    pub const COUNT: usize = 6;

    /// Every class, in declaration order.
    pub const ALL: [MsgClass; MsgClass::COUNT] = [
        MsgClass::Dsm,
        MsgClass::Interrupt,
        MsgClass::Io,
        MsgClass::Migration,
        MsgClass::Checkpoint,
        MsgClass::Control,
    ];

    /// Stable label used in trace events.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Dsm => "dsm",
            MsgClass::Interrupt => "interrupt",
            MsgClass::Io => "io",
            MsgClass::Migration => "migration",
            MsgClass::Checkpoint => "checkpoint",
            MsgClass::Control => "control",
        }
    }

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            MsgClass::Dsm => 0,
            MsgClass::Interrupt => 1,
            MsgClass::Io => 2,
            MsgClass::Migration => 3,
            MsgClass::Checkpoint => 4,
            MsgClass::Control => 5,
        }
    }

    /// Whether the class is scheduled on the strict-priority tier
    /// regardless of message urgency.
    pub fn latency_critical(self) -> bool {
        matches!(self, MsgClass::Interrupt | MsgClass::Control)
    }
}

/// How urgently a message must cut through link backlog, orthogonal to its
/// [`MsgClass`]. `Critical` promotes a bulk-class message (e.g. the 64-byte
/// vCPU location-table update that rides the `Migration` class) onto the
/// strict-priority tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Urgency {
    /// Scheduled by class: priority tier for `Interrupt`/`Control`,
    /// weighted-fair otherwise.
    #[default]
    Normal,
    /// Always scheduled on the strict-priority tier.
    Critical,
}

/// A typed fabric send request: who, where, what, and how urgently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload size.
    pub size: ByteSize,
    /// Traffic class (drives scheduling and statistics).
    pub class: MsgClass,
    /// Scheduling urgency (see [`Urgency`]).
    pub urgency: Urgency,
    /// The sender's cluster epoch, if it tags its traffic (Control and
    /// DSM messages do once a failure detector runs). Receivers fence
    /// stale senders on it; the fabric itself carries it opaquely.
    pub epoch: Option<u64>,
}

impl Message {
    /// A message with [`Urgency::Normal`] and no epoch tag.
    pub fn new(src: NodeId, dst: NodeId, size: ByteSize, class: MsgClass) -> Self {
        Message {
            src,
            dst,
            size,
            class,
            urgency: Urgency::Normal,
            epoch: None,
        }
    }

    /// Marks the message [`Urgency::Critical`], promoting it onto the
    /// strict-priority tier.
    pub fn urgent(mut self) -> Self {
        self.urgency = Urgency::Critical;
        self
    }

    /// Tags the message with the sender's cluster epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Whether this message rides the strict-priority tier.
    pub fn is_priority(&self) -> bool {
        self.class.latency_critical() || self.urgency == Urgency::Critical
    }
}

/// A fabric submission was rejected.
///
/// `Dropped` is transient (a lossy-link verdict on a single attempt —
/// retrying later may succeed); `Timeout` is terminal for this submission
/// (a crashed endpoint, or a priority-class retry chain exhausting its
/// [`RetryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// An endpoint does not name a node in this fabric.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// Number of nodes the fabric connects.
        nodes: usize,
    },
    /// The active fault plan lost the message on a degraded link.
    Dropped {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Class of the lost message.
        class: MsgClass,
    },
    /// The send cannot complete: an endpoint is crashed, or every retry
    /// the policy allows was itself dropped.
    Timeout {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Class of the abandoned message.
        class: MsgClass,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FabricError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node:?} out of range (fabric has {nodes} nodes)")
            }
            FabricError::Dropped { src, dst, class } => {
                write!(f, "{} message {src:?}->{dst:?} dropped", class.label())
            }
            FabricError::Timeout { src, dst, class } => {
                write!(f, "{} message {src:?}->{dst:?} timed out", class.label())
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Ack + bounded-retry policy for priority-class messages under an active
/// fault plan.
///
/// When a fault plan is injected, Interrupt/Control-class (and
/// [`Urgency::Critical`]) messages are acknowledged end-to-end: a dropped
/// attempt is retried after an exponential backoff, up to `max_attempts`
/// retries, each emitting a [`TraceEvent::FabricRetry`]. The ack itself is
/// modeled as free (piggybacked); its loss is folded into the link's loss
/// probability. Bulk classes are never retried by the fabric — their
/// callers own the recovery story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the initial attempt.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimTime,
    /// Backoff growth factor per retry (exponential).
    pub multiplier: u32,
}

impl RetryPolicy {
    /// The backoff waited before 1-based retry `attempt`.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let factor = u64::from(self.multiplier.max(1)).saturating_pow(attempt.saturating_sub(1));
        SimTime::from_nanos(self.base_backoff.as_nanos().saturating_mul(factor))
    }
}

impl Default for RetryPolicy {
    /// 4 retries, 20 µs base backoff, doubling: worst case ~300 µs of
    /// waiting before a priority send is declared timed out.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimTime::from_micros(20),
            multiplier: 2,
        }
    }
}

/// Link scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// One FIFO per link: every class serializes behind every other. This
    /// is the legacy behaviour, kept for A/B comparison.
    SingleFifo,
    /// Two-tier QoS: strict priority above weighted-fair per-class queues.
    #[default]
    QosClassed,
}

/// The outcome of submitting a message to the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// When the last byte arrives at the destination.
    pub deliver_at: SimTime,
    /// CPU time the sender spends in the messaging stack.
    pub sender_cpu: SimTime,
    /// CPU time the receiver spends in the messaging stack.
    pub receiver_cpu: SimTime,
}

/// A directed link: its profile and per-tier transmitter state.
#[derive(Debug, Clone)]
struct Link {
    profile: LinkProfile,
    /// When the strict-priority transmitter becomes free again.
    prio_free_at: SimTime,
    /// When each bulk class's virtual transmitter becomes free again
    /// (indexed by [`MsgClass::index`]).
    bulk_free_at: [SimTime; MsgClass::COUNT],
    /// Single shared transmitter, used in [`Scheduling::SingleFifo`].
    fifo_free_at: SimTime,
}

impl Link {
    fn new(profile: LinkProfile) -> Self {
        Link {
            profile,
            prio_free_at: SimTime::ZERO,
            bulk_free_at: [SimTime::ZERO; MsgClass::COUNT],
            fifo_free_at: SimTime::ZERO,
        }
    }
}

/// The last two transfer times priced on a fabric, newest first, keyed by
/// link bandwidth (its bits) and message size. Exact, as a transfer time
/// depends on nothing else. One memo per fabric, not per link: a
/// homogeneous cluster prices every remote link alike, and a per-link
/// memo would grow the dense `nodes²` link table.
#[derive(Debug, Clone, Default)]
struct TransferMemo([Option<(u64, u64, SimTime)>; 2]);

impl TransferMemo {
    fn transfer_time(&mut self, bandwidth: Bandwidth, size: ByteSize) -> SimTime {
        let key = (bandwidth.0.to_bits(), size.as_u64());
        match self.0 {
            [Some((b, n, t)), _] | [_, Some((b, n, t))] if (b, n) == key => t,
            [newest, _] => {
                let t = bandwidth.transfer_time(size);
                self.0 = [Some((key.0, key.1, t)), newest];
                t
            }
        }
    }
}

/// `t * num / den` in integer nanoseconds, rounded down. Widens to `u128`
/// only when `t * num` overflows `u64`.
fn stretch(t: SimTime, num: u32, den: u32) -> SimTime {
    SimTime::from_nanos(match t.as_nanos().checked_mul(u64::from(num)) {
        _ if num == den => t.as_nanos(),
        Some(p) => p / u64::from(den),
        None => (u128::from(t.as_nanos()) * u128::from(num) / u128::from(den)) as u64,
    })
}

/// The message fabric connecting every node pair.
///
/// Links are directed and independently queued; a homogeneous cluster is
/// built with [`Fabric::homogeneous`], and individual pairs (e.g. the
/// client's Ethernet link) can be overridden with [`Fabric::set_link`].
/// Every directed pair, self-pairs included, has its link built up front
/// in one dense table, so a send indexes rather than searches.
#[derive(Debug, Clone)]
pub struct Fabric {
    nodes: usize,
    scheduling: Scheduling,
    /// Link `src -> dst` at `src * nodes + dst`.
    links: Vec<Link>,
    /// Traffic per class (indexed by [`MsgClass::index`]).
    meters: [Meter; MsgClass::COUNT],
    messages_sent: u64,
    tracer: Tracer,
    /// Interpreter of the injected fault plan, if any.
    /// Boxed: most fabrics run without one, and a fabric is embedded in
    /// every VM.
    injector: Option<Box<FaultInjector>>,
    retry: RetryPolicy,
    dropped: u64,
    duplicated: u64,
    retries: u64,
    memo: TransferMemo,
}

impl Fabric {
    /// Creates a fabric of `nodes` machines, all pairs using `profile`;
    /// same-node messages use [`LinkProfile::local`]. Scheduling defaults
    /// to [`Scheduling::QosClassed`].
    pub fn homogeneous(nodes: usize, profile: LinkProfile) -> Self {
        let local = LinkProfile::local();
        let links = (0..nodes)
            .flat_map(|src| (0..nodes).map(move |dst| if src == dst { local } else { profile }))
            .map(Link::new)
            .collect();
        Fabric {
            nodes,
            scheduling: Scheduling::default(),
            links,
            meters: [Meter::new(); MsgClass::COUNT],
            messages_sent: 0,
            tracer: Tracer::disabled(),
            injector: None,
            retry: RetryPolicy::default(),
            dropped: 0,
            duplicated: 0,
            retries: 0,
            memo: TransferMemo::default(),
        }
    }

    /// Attaches a trace sink; every send emits a
    /// [`TraceEvent::FabricSend`].
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of nodes the fabric connects.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The active scheduling discipline.
    pub fn scheduling(&self) -> Scheduling {
        self.scheduling
    }

    /// Switches the scheduling discipline. Takes effect for subsequent
    /// sends; accumulated queue state per tier is kept.
    pub fn set_scheduling(&mut self, scheduling: Scheduling) {
        self.scheduling = scheduling;
    }

    /// Injects a fault plan: from now on every send consults it for
    /// crashed endpoints, loss, duplication and added latency. Replaces
    /// any previously injected plan (and its derived random stream).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.injector = Some(Box::new(FaultInjector::new(plan)));
    }

    /// The injected fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(|i| i.plan())
    }

    /// Replaces the retry policy for priority-class messages.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Messages lost to the fault plan (including sends to crashed nodes).
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages the fault plan delivered twice.
    pub fn messages_duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Retry attempts made for priority-class messages.
    pub fn retry_attempts(&self) -> u64 {
        self.retries
    }

    /// Index of link `src -> dst` in `links`.
    fn slot(&self, src: NodeId, dst: NodeId) -> usize {
        src.index() * self.nodes + dst.index()
    }

    /// Overrides the profile of one directed link. The link starts over
    /// idle: queue state built with the old profile is dropped.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, profile: LinkProfile) {
        assert!(src.index() < self.nodes && dst.index() < self.nodes);
        let slot = self.slot(src, dst);
        self.links[slot] = Link::new(profile);
        self.tracer.emit_with(|| TraceEvent::FabricLinkReset {
            src: src.0,
            dst: dst.0,
        });
    }

    /// Submits a message and returns its delivery schedule, or a typed
    /// error when an endpoint is out of range — or, under an injected
    /// fault plan, when the message is lost
    /// ([`FabricError::Dropped`]/[`FabricError::Timeout`]).
    ///
    /// Serialization is FIFO per (directed link, tier): priority messages
    /// queue only behind earlier priority messages; a bulk message queues
    /// behind its own class and is stretched by the weighted-fair share
    /// when competing classes are backlogged. The base latency is
    /// pipelined (it models propagation, not transmitter occupancy).
    ///
    /// With a fault plan injected, priority-tier messages get ack +
    /// bounded retry per the [`RetryPolicy`]; bulk-class messages surface
    /// the first loss to the caller. A degradation window's added latency
    /// is charged as extra wire occupancy (link-level retransmission), so
    /// per-(class, tier) FIFO — and the trace auditor's fabric rules —
    /// hold under degradation too.
    pub fn send(&mut self, now: SimTime, msg: Message) -> Result<Delivery, FabricError> {
        for node in [msg.src, msg.dst] {
            if node.index() >= self.nodes {
                return Err(FabricError::NodeOutOfRange {
                    node,
                    nodes: self.nodes,
                });
            }
        }
        if self.injector.is_none() {
            return Ok(self.transmit(now, msg, SimTime::ZERO));
        }
        // Take the injector out so `transmit` (which needs `&mut self`)
        // can run while the injector is borrowed.
        let mut inj = self.injector.take().expect("injector checked above");
        let res = self.send_faulty(now, msg, &mut inj);
        self.injector = Some(inj);
        res
    }

    /// The faulty-send path: consults the injector per attempt, retrying
    /// priority-class messages with exponential backoff.
    fn send_faulty(
        &mut self,
        now: SimTime,
        msg: Message,
        inj: &mut FaultInjector,
    ) -> Result<Delivery, FabricError> {
        let (src, dst, class) = (msg.src, msg.dst, msg.class);
        if inj.crashed(src.0, now) {
            // A dead sender emits nothing — not even a drop event; the
            // auditor separately flags any `FabricSend` from a crashed
            // node as `fabric-send-after-crash`.
            return Err(FabricError::Timeout { src, dst, class });
        }
        let retriable = msg.is_priority();
        let policy = self.retry;
        let mut t = now;
        let mut attempt: u32 = 0;
        loop {
            let dst_dead = inj.crashed(dst.0, t);
            // A send crossing an active partition cut is lost with
            // certainty. `severed` is a pure plan lookup, and a severed
            // send never reaches `disrupt`, so partitions neither consume
            // nor shift the degradation draw stream.
            let severed = !dst_dead && inj.severed(src.0, dst.0, t);
            let verdict = if dst_dead || severed {
                Disruption {
                    drop: true,
                    ..Disruption::default()
                }
            } else {
                inj.disrupt(t, src.0, dst.0)
            };
            if let Some((loss_ppm, extra_ns)) = verdict.announce {
                self.tracer.emit_with(|| TraceEvent::LinkDegrade {
                    at: t.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    loss_ppm,
                    extra_ns,
                });
            }
            if !verdict.drop {
                let delivery = self.transmit(t, msg, verdict.extra_latency);
                if verdict.duplicate {
                    // The duplicate charges the link and the stats like a
                    // real second copy; it lands after the original, so
                    // per-class FIFO is preserved.
                    self.duplicated += 1;
                    let _ = self.transmit(t, msg, verdict.extra_latency);
                }
                return Ok(delivery);
            }
            self.dropped += 1;
            if !dst_dead && !severed {
                // Genuine link loss. A send to a crashed node emits no
                // drop event (the `NodeCrash` already explains it), and
                // neither does a severed send (the `PartitionStart`
                // does); the audit's loss-free-plan detector rule keys
                // off `FabricDrop`/`LinkDegrade` presence.
                self.tracer.emit_with(|| TraceEvent::FabricDrop {
                    at: t.as_nanos(),
                    src: src.0,
                    dst: dst.0,
                    class: class.label(),
                });
            }
            if !retriable {
                return Err(if dst_dead || severed {
                    FabricError::Timeout { src, dst, class }
                } else {
                    FabricError::Dropped { src, dst, class }
                });
            }
            attempt += 1;
            if attempt > policy.max_attempts {
                return Err(FabricError::Timeout { src, dst, class });
            }
            let backoff = policy.backoff(attempt);
            t += backoff;
            self.retries += 1;
            self.tracer.emit_with(|| TraceEvent::FabricRetry {
                at: t.as_nanos(),
                src: src.0,
                dst: dst.0,
                class: class.label(),
                attempt,
                max_attempts: policy.max_attempts,
                backoff_ns: backoff.as_nanos(),
            });
        }
    }

    /// Schedules one message on its link unconditionally. `extra` is
    /// additional wire occupancy from an active degradation window; it
    /// inflates both the serialization time and the emitted bound, so the
    /// auditor's starvation rule stays exact.
    fn transmit(&mut self, now: SimTime, msg: Message, extra: SimTime) -> Delivery {
        let Message {
            src,
            dst,
            size,
            class,
            ..
        } = msg;
        let scheduling = self.scheduling;
        // Under SingleFifo there is no priority tier; the trace's `prio`
        // field records what actually happened, so the auditor's tier
        // rules stay vacuous on single-FIFO traces.
        let on_prio_tier = scheduling == Scheduling::QosClassed && msg.is_priority();
        let slot = self.slot(src, dst);
        let link = &mut self.links[slot];
        let base = self.memo.transfer_time(link.profile.bandwidth, size);
        let weighted = scheduling == Scheduling::QosClassed && !on_prio_tier;
        let (start, serialize) = match scheduling {
            Scheduling::SingleFifo => {
                let ser = base + extra;
                let start = now.max(link.fifo_free_at);
                link.fifo_free_at = start + ser;
                (start, ser)
            }
            Scheduling::QosClassed if on_prio_tier => {
                let ser = base + extra;
                let start = now.max(link.prio_free_at);
                link.prio_free_at = start + ser;
                (start, ser)
            }
            Scheduling::QosClassed => {
                let w = link.profile.weights;
                // Weighted-fair share: stretch serialization by the summed
                // weight of every bulk class currently backlogged (always
                // including this one, so the stretch factor is >= 1).
                let wc = w.weight(class).max(1);
                // `active` is clamped to at least `wc` so a class whose
                // configured weight is 0 still occupies its own virtual
                // transmitter (stretch >= 1) instead of serializing in
                // zero time.
                let active: u32 = MsgClass::ALL
                    .iter()
                    .filter(|c| !c.latency_critical())
                    .filter(|&&c| c == class || link.bulk_free_at[c.index()] > now)
                    .map(|&c| w.weight(c))
                    .sum::<u32>()
                    .max(wc);
                let serialize = stretch(base, active, wc) + extra;
                let start = now.max(link.bulk_free_at[class.index()]);
                link.bulk_free_at[class.index()] = start + serialize;
                (start, serialize)
            }
        };
        let profile = link.profile;
        let deliver_at =
            start + serialize + profile.wire_latency + profile.stack.per_message_latency();
        self.meters[class.index()].record(size.as_u64());
        self.messages_sent += 1;
        self.tracer.emit_with(|| {
            // The starvation bound is `base * bound_w / wc` (+ `extra`);
            // off the weighted-fair tier nothing stretches.
            let w = profile.weights;
            let (bound_w, wc) = match w.weight(class).max(1) {
                wc if weighted => (w.total().max(wc), wc),
                _ => (1, 1),
            };
            TraceEvent::FabricSend {
                at: now.as_nanos(),
                src: src.0,
                dst: dst.0,
                class: class.label(),
                prio: on_prio_tier,
                bytes: size.as_u64(),
                queued_ns: (start - now).as_nanos(),
                serialize_ns: serialize.as_nanos(),
                bound_ns: (stretch(base, bound_w, wc) + extra).as_nanos(),
                deliver_at: deliver_at.as_nanos(),
            }
        });
        Delivery {
            deliver_at,
            sender_cpu: profile.stack.sender_cpu(),
            receiver_cpu: profile.stack.receiver_cpu(),
        }
    }

    /// Total messages submitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Traffic sent so far in one class.
    pub fn traffic(&self, class: MsgClass) -> Meter {
        self.meters[class.index()]
    }

    /// Resets traffic statistics (not queue state).
    pub fn reset_stats(&mut self) {
        self.meters = [Meter::new(); MsgClass::COUNT];
        self.messages_sent = 0;
        self.dropped = 0;
        self.duplicated = 0;
        self.retries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ClassWeights, StackProfile};
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn test_profile() -> LinkProfile {
        LinkProfile {
            wire_latency: SimTime::from_micros(1),
            bandwidth: Bandwidth::bytes_per_sec(1e9), // 1 GB/s: 1 B == 1 ns.
            stack: StackProfile::KernelRdma,
            weights: ClassWeights::default_qos(),
        }
    }

    fn msg(src: u32, dst: u32, bytes: u64, class: MsgClass) -> Message {
        Message::new(n(src), n(dst), ByteSize::bytes(bytes), class)
    }

    #[test]
    fn idle_link_delivery_time() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let d = f
            .send(SimTime::ZERO, msg(0, 1, 1000, MsgClass::Dsm))
            .unwrap();
        // 1000 B at 1 GB/s = 1us serialize, + 1us wire + 1us stack.
        assert_eq!(d.deliver_at, SimTime::from_micros(3));
    }

    #[test]
    fn back_to_back_messages_queue() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let d1 = f
            .send(SimTime::ZERO, msg(0, 1, 1000, MsgClass::Dsm))
            .unwrap();
        let d2 = f
            .send(SimTime::ZERO, msg(0, 1, 1000, MsgClass::Dsm))
            .unwrap();
        // The second message starts serializing only after the first.
        assert_eq!(d2.deliver_at, d1.deliver_at + SimTime::from_micros(1));
    }

    #[test]
    fn reverse_direction_is_independent() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let _ = f.send(SimTime::ZERO, msg(0, 1, 1000, MsgClass::Dsm));
        let d = f
            .send(SimTime::ZERO, msg(1, 0, 1000, MsgClass::Dsm))
            .unwrap();
        assert_eq!(d.deliver_at, SimTime::from_micros(3));
    }

    #[test]
    fn link_drains_over_time() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let _ = f.send(SimTime::ZERO, msg(0, 1, 1000, MsgClass::Dsm));
        // After the first message's serialization window, the link is free.
        let d = f
            .send(SimTime::from_micros(10), msg(0, 1, 1000, MsgClass::Dsm))
            .unwrap();
        assert_eq!(d.deliver_at, SimTime::from_micros(13));
    }

    #[test]
    fn local_messages_are_cheap() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let d = f
            .send(SimTime::ZERO, msg(0, 0, 64, MsgClass::Interrupt))
            .unwrap();
        assert!(d.deliver_at < SimTime::from_micros(2), "{}", d.deliver_at);
    }

    #[test]
    fn link_override_applies() {
        let mut f = Fabric::homogeneous(3, test_profile());
        f.set_link(n(0), n(2), LinkProfile::ethernet_1g());
        let d = f.send(SimTime::ZERO, msg(0, 2, 64, MsgClass::Io)).unwrap();
        assert!(d.deliver_at > SimTime::from_micros(25));
        // Other pairs keep the default.
        let d = f.send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Io)).unwrap();
        assert!(d.deliver_at < SimTime::from_micros(5));
    }

    #[test]
    fn stats_accumulate_per_class() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let _ = f.send(SimTime::ZERO, msg(0, 1, 4096, MsgClass::Dsm));
        let _ = f.send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Interrupt));
        let _ = f.send(SimTime::ZERO, msg(0, 1, 4096, MsgClass::Dsm));
        assert_eq!(f.traffic(MsgClass::Dsm).events, 2);
        assert_eq!(f.traffic(MsgClass::Dsm).bytes, 8192);
        assert_eq!(f.traffic(MsgClass::Interrupt).events, 1);
        assert_eq!(f.messages_sent(), 3);
        f.reset_stats();
        assert_eq!(f.messages_sent(), 0);
    }

    #[test]
    fn partitioned_sends_time_out_without_drop_events() {
        use sim_core::fault::FaultPlan;
        let mut f = Fabric::homogeneous(4, test_profile());
        f.inject_faults(FaultPlan::scripted(1).partition(
            vec![2, 3],
            SimTime::ZERO,
            SimTime::from_millis(10),
        ));
        let tracer = Tracer::ring(256);
        f.attach_tracer(tracer.clone());
        // Bulk traffic across the cut fails terminally (no point retrying
        // at the caller's backoff scale).
        let err = f
            .send(SimTime::ZERO, msg(0, 2, 4096, MsgClass::Dsm))
            .unwrap_err();
        assert!(matches!(err, FabricError::Timeout { .. }));
        // Priority traffic retries, then times out; retries were charged.
        let err = f
            .send(SimTime::ZERO, msg(0, 3, 64, MsgClass::Control))
            .unwrap_err();
        assert!(matches!(err, FabricError::Timeout { .. }));
        assert!(f.retry_attempts() > 0);
        // Traffic wholly on either side of the cut still flows.
        assert!(f.send(SimTime::ZERO, msg(2, 3, 64, MsgClass::Dsm)).is_ok());
        assert!(f.send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Dsm)).is_ok());
        // After the heal, cross-cut traffic flows again.
        assert!(f
            .send(SimTime::from_millis(10), msg(0, 2, 64, MsgClass::Dsm))
            .is_ok());
        // Severed losses are explained by the partition, not FabricDrop
        // (which would disarm the audit's false-dead detector rule).
        let events = tracer.snapshot();
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::FabricDrop { .. })));
    }

    #[test]
    fn epoch_tag_rides_the_message() {
        let m = msg(0, 1, 64, MsgClass::Control).with_epoch(7);
        assert_eq!(m.epoch, Some(7));
        assert_eq!(msg(0, 1, 64, MsgClass::Control).epoch, None);
    }

    #[test]
    fn out_of_range_is_a_typed_error() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let err = f
            .send(SimTime::ZERO, msg(0, 5, 1, MsgClass::Dsm))
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::NodeOutOfRange {
                node: n(5),
                nodes: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
        // Nothing was charged for the rejected message.
        assert_eq!(f.messages_sent(), 0);
    }

    #[test]
    fn interrupt_preempts_bulk_backlog() {
        let mut f = Fabric::homogeneous(2, test_profile());
        // A 10 MB checkpoint chunk occupies the bulk tier for ~10 ms.
        let ck = f
            .send(SimTime::ZERO, msg(0, 1, 10_000_000, MsgClass::Checkpoint))
            .unwrap();
        let ipi = f
            .send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Interrupt))
            .unwrap();
        // The IPI does not wait for the checkpoint stream.
        assert!(
            ipi.deliver_at < SimTime::from_micros(5),
            "{}",
            ipi.deliver_at
        );
        assert!(ck.deliver_at > SimTime::from_millis(9));
    }

    #[test]
    fn urgent_bulk_message_rides_priority_tier() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let _ = f.send(SimTime::ZERO, msg(0, 1, 10_000_000, MsgClass::Migration));
        // A normal Migration message queues behind the stream...
        let normal = f
            .send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Migration))
            .unwrap();
        assert!(normal.deliver_at > SimTime::from_millis(9));
        // ...an urgent one (location-table update) cuts through.
        let urgent = f
            .send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Migration).urgent())
            .unwrap();
        assert!(urgent.deliver_at < SimTime::from_micros(5));
    }

    #[test]
    fn bulk_classes_share_by_weight() {
        let mut f = Fabric::homogeneous(2, test_profile());
        // Backlog the checkpoint class (weight 1).
        let _ = f.send(SimTime::ZERO, msg(0, 1, 1_000_000, MsgClass::Checkpoint));
        // A DSM page (weight 8) now shares with checkpoint: its 4096 ns
        // base serialization stretches by (8+1)/8.
        let d = f
            .send(SimTime::ZERO, msg(0, 1, 4096, MsgClass::Dsm))
            .unwrap();
        let serialize_ns = 4096 * 9 / 8;
        assert_eq!(
            d.deliver_at,
            SimTime::from_nanos(serialize_ns) + SimTime::from_micros(2)
        );
        // The slowdown is far below checkpoint's bound but present.
        assert!(serialize_ns > 4096);
    }

    #[test]
    fn zero_weight_class_still_occupies_its_transmitter() {
        let mut profile = test_profile();
        profile.weights.checkpoint = 0;
        let mut f = Fabric::homogeneous(2, profile);
        // Alone on the link, a zero-weight class serializes at full
        // bandwidth rather than in zero time...
        let d1 = f
            .send(SimTime::ZERO, msg(0, 1, 1_000_000, MsgClass::Checkpoint))
            .unwrap();
        assert!(
            d1.deliver_at >= SimTime::from_millis(1),
            "{}",
            d1.deliver_at
        );
        // ...and its virtual transmitter stays occupied, so a second
        // message queues behind the first instead of also finishing
        // instantly.
        let d2 = f
            .send(SimTime::ZERO, msg(0, 1, 1_000_000, MsgClass::Checkpoint))
            .unwrap();
        assert!(d2.deliver_at >= d1.deliver_at + SimTime::from_millis(1));
    }

    #[test]
    fn single_fifo_trace_records_no_priority_tier() {
        use sim_core::trace::Tracer;
        let mut f = Fabric::homogeneous(2, test_profile());
        f.set_scheduling(Scheduling::SingleFifo);
        let tracer = Tracer::ring(16);
        f.attach_tracer(tracer.clone());
        let _ = f.send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Interrupt));
        let _ = f.send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Migration).urgent());
        let events = tracer.snapshot();
        assert_eq!(events.len(), 2);
        for ev in &events {
            match ev {
                TraceEvent::FabricSend { prio, .. } => assert!(!prio),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn within_class_fifo_is_preserved() {
        let mut f = Fabric::homogeneous(2, test_profile());
        let mut last = SimTime::ZERO;
        for i in 0..10 {
            let d = f
                .send(
                    SimTime::from_micros(i),
                    msg(0, 1, 2000, MsgClass::Migration),
                )
                .unwrap();
            assert!(d.deliver_at > last, "send {i} reordered");
            last = d.deliver_at;
        }
    }

    #[test]
    fn single_fifo_mode_restores_head_of_line_blocking() {
        let mut f = Fabric::homogeneous(2, test_profile());
        f.set_scheduling(Scheduling::SingleFifo);
        assert_eq!(f.scheduling(), Scheduling::SingleFifo);
        let ck = f
            .send(SimTime::ZERO, msg(0, 1, 10_000_000, MsgClass::Checkpoint))
            .unwrap();
        let ipi = f
            .send(SimTime::ZERO, msg(0, 1, 64, MsgClass::Interrupt))
            .unwrap();
        // The legacy discipline makes the IPI wait out the whole stream.
        assert!(ipi.deliver_at > ck.deliver_at - SimTime::from_micros(5));
        assert!(ipi.deliver_at > SimTime::from_millis(9));
    }

    /// Message sizes that repeat often (the two DSM message sizes
    /// dominate real runs), with a random tail so the memo also misses.
    fn size() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0u64..4, 1 => 4u64..1_000_000]
            .prop_map(|k| [64, 65, 4160, 8192].get(k as usize).copied().unwrap_or(k))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The memoized transfer time changes nothing: a fabric whose memo
        /// is wiped before every send (so it prices each message with the
        /// bandwidth formula) returns the same deliveries and traces the
        /// same `FabricSend` fields, across `set_link` overrides.
        #[test]
        fn memoized_sends_match_the_unmemoized_formula(
            steps in proptest::collection::vec(
                ((0u64..20_000, 0u32..3), (0u32..3, size(), 0usize..7)),
                1..300,
            ),
            fifo in any::<bool>(),
        ) {
            let ib = LinkProfile::infiniband_56g();
            let (mut memo, mut plain) = (Fabric::homogeneous(3, ib), Fabric::homogeneous(3, ib));
            let (tm, tp) = (Tracer::ring(1 << 12), Tracer::ring(1 << 12));
            memo.attach_tracer(tm.clone());
            plain.attach_tracer(tp.clone());
            if fifo {
                memo.set_scheduling(Scheduling::SingleFifo);
                plain.set_scheduling(Scheduling::SingleFifo);
            }
            let mut now = SimTime::ZERO;
            for ((dt_ns, src), (dst, size, class)) in steps {
                // Class 6 stands for a link override instead of a send.
                if class == 6 {
                    let profile = [ib, LinkProfile::ethernet_1g(), test_profile()][size as usize % 3];
                    memo.set_link(n(src), n(dst), profile);
                    plain.set_link(n(src), n(dst), profile);
                    continue;
                }
                now += SimTime::from_nanos(dt_ns);
                let m = msg(src, dst, size, MsgClass::ALL[class]);
                plain.memo = TransferMemo::default();
                prop_assert_eq!(memo.send(now, m), plain.send(now, m));
            }
            prop_assert_eq!(tm.snapshot(), tp.snapshot());
        }

        /// `stretch`'s shortcuts (`num == den`, `u64` arithmetic) equal the
        /// `u128` formula, including products that overflow `u64`.
        #[test]
        fn stretch_matches_the_u128_formula(
            t in prop_oneof![0u64..1_000_000_000, (u64::MAX / 64)..u64::MAX],
            num in 0u32..66,
            den in 1u32..66,
        ) {
            let want = (u128::from(t) * u128::from(num) / u128::from(den)) as u64;
            let t = SimTime::from_nanos(t);
            prop_assert_eq!(stretch(t, num, den).as_nanos(), want);
            prop_assert_eq!(stretch(t, den, den), t);
        }
    }
}
