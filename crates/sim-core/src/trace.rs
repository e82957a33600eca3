//! Deterministic structured tracing.
//!
//! Every hot state machine in the workspace (the DSM directory, the message
//! fabric, the processor-sharing CPUs, the hypervisor's vCPU machinery) can
//! emit typed [`TraceEvent`]s into a shared [`Tracer`] sink. The sink is a
//! bounded ring buffer: enabling it costs one branch plus the event
//! construction per emission; *disabled* (the default) it costs a single
//! `Option` check and performs **no allocation** — the event closure is never
//! invoked.
//!
//! Traces serve two purposes:
//!
//! 1. **Debugging**: dump a run as JSONL (one event per line) and inspect the
//!    exact fault/message/scheduling choreography that produced a number.
//! 2. **Auditing**: replay a trace through [`crate::audit`] and check
//!    cross-crate invariants (coherence, FIFO delivery, work conservation)
//!    that no single crate's unit tests can see.
//!
//! Layering note: `sim-core` sits at the bottom of the workspace, so events
//! describe nodes/pages/tasks with raw integer ids and `&'static str` labels
//! rather than the typed ids of the upper crates.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Declares [`TraceEvent`] from one table and generates, from the same
/// entries, [`TraceEvent::at`], [`TraceEvent::write_json`] and (for tests)
/// the list of event names.
///
/// Each entry is `Variant = "json_name" { field: Type, ... }` with its doc
/// attributes. A record is `{"ev":"json_name"` followed by
/// `,"field":value` per field in declaration order, then `}`; the head and
/// every key are one `concat!` literal, and values go through
/// [`JsonValue`].
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $ev:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl TraceEvent {
            /// The event's time field (ns): DSM events report their clock
            /// hint, and an event without an `at` field reports 0.
            pub fn at(&self) -> u64 {
                match *self {
                    $(
                        #[allow(unused_variables)]
                        TraceEvent::$variant { $($field),* } => 0 $(+ at_or_zero!($field $field))*,
                    )*
                }
            }

            /// Appends the event to `out` as a single JSON object (one
            /// JSONL line, without the newline).
            ///
            /// All fields are integers, booleans, `f64` speeds or
            /// `&'static str` labels, so no escaping is required beyond
            /// quoting. Integers go through a small decimal writer; speeds
            /// keep `core::fmt`'s `Display` form.
            pub fn write_json(&self, out: &mut String) {
                match self {
                    $(
                        TraceEvent::$variant { $($field),* } => {
                            out.push_str(concat!("{\"ev\":\"", $ev, "\""));
                            $(
                                out.push_str(concat!(",\"", stringify!($field), "\":"));
                                JsonValue::write_to($field, out);
                            )*
                        }
                    )*
                }
                out.push('}');
            }
        }

        /// `(variant, "ev" name)` per table entry, in table order.
        #[cfg(test)]
        const EVENT_NAMES: &[(&str, &str)] = &[$((stringify!($variant), $ev)),*];
    };
}

/// The value of an `at` field, 0 for any other field (for
/// [`TraceEvent::at`]; the binding is passed in so it resolves).
macro_rules! at_or_zero {
    (at $v:ident) => {
        $v
    };
    ($field:ident $v:ident) => {
        0
    };
}

trace_events! {
    /// One structured trace event.
    ///
    /// `at` is virtual time in nanoseconds. For DSM directory events it is the
    /// *clock hint* of the access that triggered the transition (directory
    /// transitions are applied eagerly, so hints may run ahead of or behind the
    /// engine clock; their *order* in the trace is the causal order).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A page was allocated in the DSM directory (first touch or explicit
        /// registration), homed exclusively on `home`.
        DsmAlloc = "dsm_alloc" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Home node: initial owner and sole sharer.
            home: u32,
        },
        /// An access hit a valid local mapping (no protocol action).
        DsmHit = "dsm_hit" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Accessing node.
            node: u32,
            /// `true` for writes (which require exclusive ownership).
            write: bool,
        },
        /// A run of consecutive same-node accesses hit valid local mappings
        /// (no protocol action). Emitted by the batched access path in place
        /// of `len` individual [`TraceEvent::DsmHit`] events; semantically
        /// equivalent to hits on pages `page..page+len` in ascending order.
        DsmHitBatch = "dsm_hit_batch" {
            /// Clock hint (ns).
            at: u64,
            /// First page id of the run.
            page: u64,
            /// Number of consecutive pages hit.
            len: u64,
            /// Accessing node.
            node: u32,
            /// `true` for writes (which require exclusive ownership).
            write: bool,
        },
        /// An access faulted; the directory transition was applied eagerly.
        DsmFault = "dsm_fault" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Faulting node.
            node: u32,
            /// `"read_remote"`, `"upgrade"`, or `"write_remote"`.
            kind: &'static str,
        },
        /// A node's copy of a page was invalidated.
        DsmInvalidate = "dsm_invalidate" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Node losing its copy.
            node: u32,
        },
        /// Page ownership moved between nodes.
        DsmOwnerTransfer = "dsm_owner_transfer" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Previous owner.
            from: u32,
            /// New owner.
            to: u32,
        },
        /// A node gained a valid copy of a page.
        DsmGrant = "dsm_grant" {
            /// Clock hint (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// Node gaining the copy.
            node: u32,
            /// `true` when the grant is exclusive (write ownership).
            exclusive: bool,
        },
        /// A page rode a read response as a sequential prefetch.
        DsmPrefetch = "dsm_prefetch" {
            /// Clock hint (ns).
            at: u64,
            /// Prefetched page id.
            page: u64,
            /// Node receiving the prefetched copy.
            node: u32,
            /// Node serving the piggybacked data (must be the page's owner).
            owner: u32,
        },
        /// A message was submitted to the fabric.
        FabricSend = "fabric_send" {
            /// Submission time (ns).
            at: u64,
            /// Source node.
            src: u32,
            /// Destination node.
            dst: u32,
            /// Message class label (e.g. `"dsm"`, `"interrupt"`).
            class: &'static str,
            /// Whether the message rode the link's strict-priority tier.
            prio: bool,
            /// Payload size in bytes.
            bytes: u64,
            /// Time spent queueing behind earlier messages of the same
            /// scheduling tier on the link (ns).
            queued_ns: u64,
            /// Time the message occupied its (virtual) transmitter, after any
            /// weighted-fair stretch (ns).
            serialize_ns: u64,
            /// The scheduler's starvation bound for this message: the worst
            /// serialization stretch its class weight permits (ns).
            bound_ns: u64,
            /// Delivery time of the last byte (ns).
            deliver_at: u64,
        },
        /// A directed link's queue state was reset (profile override).
        FabricLinkReset = "fabric_link_reset" {
            /// Source node.
            src: u32,
            /// Destination node.
            dst: u32,
        },
        /// A task joined a processor-sharing CPU.
        CpuAdd = "cpu_add" {
            /// Time (ns).
            at: u64,
            /// CPU id (assigned when the tracer is attached).
            cpu: u32,
            /// Task id.
            task: u64,
            /// Dedicated work remaining (reference ns).
            work_ns: u64,
        },
        /// A task left a CPU early (migration, blocking I/O).
        CpuCancel = "cpu_cancel" {
            /// Time (ns).
            at: u64,
            /// CPU id.
            cpu: u32,
            /// Task id.
            task: u64,
            /// Work the task still had left (reference ns).
            rem_ns: u64,
            /// Total useful work the CPU has delivered (reference ns).
            delivered_ns: u64,
            /// Total non-idle time (ns).
            busy_ns: u64,
            /// Speed multiplier of the CPU.
            speed: f64,
        },
        /// A task completed on a CPU.
        CpuDone = "cpu_done" {
            /// Time (ns).
            at: u64,
            /// CPU id.
            cpu: u32,
            /// Task id.
            task: u64,
            /// Total useful work the CPU has delivered (reference ns).
            delivered_ns: u64,
            /// Total non-idle time (ns).
            busy_ns: u64,
            /// Speed multiplier of the CPU.
            speed: f64,
        },
        /// A vCPU migration was accepted and its state transfer started.
        VcpuMigrateStart = "vcpu_migrate_start" {
            /// Time (ns).
            at: u64,
            /// Migrating vCPU.
            vcpu: u32,
            /// Source node.
            from_node: u32,
            /// Destination node.
            to_node: u32,
        },
        /// A vCPU migration completed and the vCPU resumed on its new slice.
        VcpuMigrateDone = "vcpu_migrate_done" {
            /// Time (ns).
            at: u64,
            /// Migrated vCPU.
            vcpu: u32,
            /// Node it now runs on.
            node: u32,
        },
        /// An inter-processor interrupt was routed to a vCPU.
        Ipi = "ipi" {
            /// Time (ns).
            at: u64,
            /// Node the IPI originates from.
            src_node: u32,
            /// Target vCPU.
            to_vcpu: u32,
            /// `"ipi"` (directed wakeup) or `"shootdown"` (TLB broadcast).
            kind: &'static str,
        },
        /// A checkpoint of one slice's memory was taken.
        Checkpoint = "checkpoint" {
            /// Time (ns): when this slice's stream completes.
            at: u64,
            /// Slice whose pages were captured.
            node: u32,
            /// Bytes captured from this slice.
            bytes: u64,
        },
        /// The fault plan dropped a message on a degraded link (or a send
        /// attempt targeted a crashed node).
        FabricDrop = "fabric_drop" {
            /// Time of the dropped attempt (ns).
            at: u64,
            /// Sending node.
            src: u32,
            /// Receiving node.
            dst: u32,
            /// Message class label.
            class: &'static str,
        },
        /// A bounded-retry attempt for a priority-class message whose earlier
        /// attempt was dropped by the fault plan.
        FabricRetry = "fabric_retry" {
            /// Time this attempt goes out (ns) — submission plus backoff.
            at: u64,
            /// Sending node.
            src: u32,
            /// Receiving node.
            dst: u32,
            /// Message class label.
            class: &'static str,
            /// 1-based retry attempt number.
            attempt: u32,
            /// The policy's bound: attempts never exceed this.
            max_attempts: u32,
            /// Backoff waited before this attempt (ns).
            backoff_ns: u64,
        },
        /// A link entered a degradation window (announced on the first send
        /// the window affects).
        LinkDegrade = "link_degrade" {
            /// Time of the first affected send (ns).
            at: u64,
            /// Sending node of the degraded link.
            src: u32,
            /// Receiving node of the degraded link.
            dst: u32,
            /// Drop probability in parts-per-million.
            loss_ppm: u64,
            /// Extra wire occupancy per message (ns).
            extra_ns: u64,
        },
        /// A node fail-stopped per the fault plan.
        NodeCrash = "node_crash" {
            /// Crash time (ns).
            at: u64,
            /// The failed node.
            node: u32,
        },
        /// The failure detector's heartbeat probe to a node went unanswered.
        HeartbeatMiss = "heartbeat_miss" {
            /// Probe time (ns).
            at: u64,
            /// Probed node.
            node: u32,
            /// Consecutive misses including this one.
            misses: u32,
        },
        /// The failure detector crossed its miss threshold and declared a
        /// node dead, triggering recovery.
        NodeDeclaredDead = "node_declared_dead" {
            /// Declaration time (ns).
            at: u64,
            /// The suspected node.
            node: u32,
            /// Consecutive misses at declaration.
            misses: u32,
        },
        /// A page homed on a dead node was re-homed to the restore target
        /// (its master copy now comes from the checkpoint image).
        PageQuarantine = "page_quarantine" {
            /// Quarantine time (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// The crashed node that owned the master copy.
            dead: u32,
            /// The node the restored copy now lives on.
            to: u32,
        },
        /// Recovery finished restoring a dead node's state from the last
        /// checkpoint image.
        NodeRestore = "node_restore" {
            /// Time the restore completes and the node's vCPUs resume (ns).
            at: u64,
            /// The crashed node whose state was restored.
            node: u32,
            /// Directory pages re-homed during quarantine.
            pages: u64,
            /// Wall time of the restore stream (ns).
            restore_ns: u64,
        },
        /// A drain requested a vCPU migration the hypervisor refused.
        VcpuMigrateRefused = "vcpu_migrate_refused" {
            /// Time of the refused request (ns).
            at: u64,
            /// The vCPU that stayed put.
            vcpu: u32,
            /// Node it remains on.
            from_node: u32,
            /// Node the drain wanted it on.
            to_node: u32,
        },
        /// A node's memory-pressure level changed (sampled on the DSM fault
        /// path against the node's resident-page budget).
        PressureChange = "pressure_change" {
            /// Time of the access that crossed the threshold (ns).
            at: u64,
            /// The node whose pressure changed.
            node: u32,
            /// New level label (`"normal"`, `"moderate"`, `"high"`,
            /// `"critical"`).
            level: &'static str,
            /// Resident pages at the transition.
            resident: u64,
            /// The node's configured page budget.
            budget: u64,
        },
        /// A reclaim evicted a page's master copy toward a node with headroom
        /// (the borrow policy). Followed by the usual
        /// invalidate/transfer/grant events describing the move.
        PageEvict = "page_evict" {
            /// Eviction time (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// The pressured node giving the page up (must be the owner).
            from: u32,
            /// The node with headroom receiving the master copy.
            to: u32,
        },
        /// A reclaim discarded a page outright (balloon or deflate): the
        /// directory entry is gone and a later touch refaults as a fresh
        /// allocation. Preceded by an invalidate per surviving copy.
        PageRelease = "page_release" {
            /// Release time (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// The owner the page was released from.
            node: u32,
            /// Reclaim policy label (`"balloon"` or `"deflate"`).
            policy: &'static str,
        },
        /// A reclaim demoted a page to the swap tier; its directory entry
        /// survives but any reuse must swap it back in first.
        PageSwapOut = "page_swap_out" {
            /// Swap-out time (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// The pressured node demoting the page.
            node: u32,
        },
        /// A swapped-out page was faulted back in ahead of a reuse. Must
        /// follow the page's `PageSwapOut`.
        PageSwapIn = "page_swap_in" {
            /// Swap-in time (ns).
            at: u64,
            /// Page id.
            page: u64,
            /// The node paying the swap-in stall.
            node: u32,
        },
        /// The balloon driver inflated, handing guest-free pages back to the
        /// host (one event per reclaim round).
        BalloonInflate = "balloon_inflate" {
            /// Inflation time (ns).
            at: u64,
            /// The pressured node.
            node: u32,
            /// Pages reclaimed by this inflation.
            pages: u64,
        },
        /// A partition window opened and cut this node off from the rest of
        /// the fabric (one event per isolated node).
        PartitionStart = "partition_start" {
            /// Window start (ns).
            at: u64,
            /// An isolated node.
            node: u32,
        },
        /// The partition window closed; this node can reach the fabric again
        /// (one event per formerly isolated node). A fenced node must still
        /// rejoin ([`TraceEvent::NodeRejoin`]) before touching the directory.
        PartitionHeal = "partition_heal" {
            /// Heal time (ns).
            at: u64,
            /// The reconnected node.
            node: u32,
        },
        /// The failure detector bumped the cluster epoch while declaring a
        /// node dead; the declared node is fenced at the previous epoch.
        EpochBump = "epoch_bump" {
            /// Declaration time (ns).
            at: u64,
            /// The new cluster epoch.
            epoch: u64,
            /// The node fenced by this bump.
            dead: u32,
        },
        /// The directory rejected an access from a fenced node carrying a
        /// stale epoch: no directory state was mutated.
        StaleEpochRejected = "stale_epoch_rejected" {
            /// Rejection time (ns).
            at: u64,
            /// The fenced node that issued the access.
            node: u32,
            /// The page it tried to touch.
            page: u64,
            /// The epoch the node still believes in.
            node_epoch: u64,
            /// The cluster epoch it was checked against.
            cluster_epoch: u64,
        },
        /// A fenced node rejoined at the current epoch after a heal: its
        /// stale copies were discarded and it is donor-eligible again.
        NodeRejoin = "node_rejoin" {
            /// Rejoin time (ns).
            at: u64,
            /// The rejoining node.
            node: u32,
            /// The epoch the node resynced to.
            epoch: u64,
            /// Stale page copies discarded during resync.
            discarded: u64,
        },
        /// A cross-shard fleet message arrived at its destination tenant after
        /// the window-barrier merge (see `hypervisor::fleet`). `depart` is its
        /// departure time on the source shard; a conservative merge guarantees
        /// `at ≥ depart + lookahead` and the auditor's `fleet-*` rules hold the
        /// exchange to per-pair FIFO on top of that.
        FleetDeliver = "fleet_deliver" {
            /// Delivery time on the destination shard (ns).
            at: u64,
            /// Source shard.
            src_shard: u32,
            /// Destination shard.
            dst_shard: u32,
            /// Global source tenant.
            src: u32,
            /// Global destination tenant.
            dst: u32,
            /// Departure time on the source shard (ns).
            depart: u64,
            /// Payload bytes.
            bytes: u64,
        },
    }
}

impl TraceEvent {
    /// Renders the event as a single JSON object (see [`Self::write_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// A field value [`TraceEvent::write_json`] writes without escaping.
trait JsonValue {
    /// Appends the value's JSON form to `out`.
    fn write_to(&self, out: &mut String);
}

impl JsonValue for u64 {
    fn write_to(&self, out: &mut String) {
        push_u64(out, *self);
    }
}

impl JsonValue for u32 {
    fn write_to(&self, out: &mut String) {
        push_u64(out, u64::from(*self));
    }
}

impl JsonValue for bool {
    fn write_to(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonValue for &'static str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        out.push_str(self);
        out.push('"');
    }
}

impl JsonValue for f64 {
    fn write_to(&self, out: &mut String) {
        use std::fmt::Write as _;
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
}

/// Appends `v` in decimal, two digits per division, in one `extend`.
fn push_u64(out: &mut String, mut v: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let d = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    }
    if v >= 10 {
        let d = v as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend(buf[i..].iter().map(|&b| char::from(b)));
}

/// Bytes [`Tracer::to_jsonl`] reserves per buffered event: above the
/// ~100-byte mean line of a chaos trace, so one reservation usually holds
/// the whole export.
const JSONL_BYTES_PER_EVENT: usize = 128;

/// The bounded event sink behind an enabled tracer.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// A cloneable handle to a trace sink.
///
/// The default handle is *disabled*: [`Tracer::emit_with`] evaluates nothing
/// and allocates nothing. Handles created by [`Tracer::ring`] share one
/// bounded buffer — cloning the handle (e.g. into the fabric, the DSM and
/// each pCPU) shares the sink, so the merged trace preserves the global
/// causal order of emissions.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<Ring>>>,
}

impl Tracer {
    /// A disabled tracer (no sink; emissions are free).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer backed by a ring buffer holding up to `capacity`
    /// events; once full, the oldest events are dropped (and counted).
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(Ring {
                buf: VecDeque::with_capacity(capacity.min(1 << 16)),
                capacity: capacity.max(1),
                dropped: 0,
            }))),
        }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an event, constructing it only if the sink is enabled.
    ///
    /// This is the only emission API on purpose: call sites pass a closure,
    /// so the disabled path is one branch with zero allocation.
    #[inline]
    pub fn emit_with(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &self.inner {
            let mut r = ring.borrow_mut();
            if r.buf.len() == r.capacity {
                r.buf.pop_front();
                r.dropped += 1;
            }
            let ev = event();
            r.buf.push_back(ev);
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.borrow().buf.len())
    }

    /// Whether the buffer is empty (also true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.borrow().dropped)
    }

    /// Copies the buffered events out, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |r| r.borrow().buf.iter().cloned().collect())
    }

    /// Clears the buffer (keeps the sink attached).
    pub fn clear(&self) {
        if let Some(r) = &self.inner {
            let mut r = r.borrow_mut();
            r.buf.clear();
            r.dropped = 0;
        }
    }

    /// Runs `f` over the buffered events, oldest first, in place: the
    /// ring is made contiguous under the borrow instead of copied out.
    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        match &self.inner {
            Some(r) => f(r.borrow_mut().buf.make_contiguous()),
            None => f(&[]),
        }
    }

    /// Renders the buffered events as JSONL (one JSON object per line),
    /// straight from the ring into one buffer.
    pub fn to_jsonl(&self) -> String {
        let Some(ring) = &self.inner else {
            return String::new();
        };
        let r = ring.borrow();
        let mut out = String::with_capacity(r.buf.len() * JSONL_BYTES_PER_EVENT);
        for ev in &r.buf {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.emit_with(|| {
            ran = true;
            TraceEvent::FabricLinkReset { src: 0, dst: 1 }
        });
        assert!(!ran);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn ring_buffers_and_drops_oldest() {
        let t = Tracer::ring(2);
        for i in 0..4 {
            t.emit_with(|| TraceEvent::DsmAlloc {
                at: i,
                page: i,
                home: 0,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        let snap = t.snapshot();
        assert_eq!(snap[0].at(), 2);
        assert_eq!(snap[1].at(), 3);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Tracer::ring(16);
        let t2 = t.clone();
        t2.emit_with(|| TraceEvent::DsmAlloc {
            at: 1,
            page: 7,
            home: 3,
        });
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t2.is_empty());
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let t = Tracer::ring(16);
        t.emit_with(|| TraceEvent::DsmFault {
            at: 5,
            page: 9,
            node: 1,
            kind: "read_remote",
        });
        t.emit_with(|| TraceEvent::FabricSend {
            at: 6,
            src: 0,
            dst: 1,
            class: "dsm",
            prio: false,
            bytes: 64,
            queued_ns: 0,
            serialize_ns: 3,
            bound_ns: 45,
            deliver_at: 10,
        });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"ev":"dsm_fault""#));
        assert!(lines[0].contains(r#""kind":"read_remote""#));
        assert!(lines[1].contains(r#""deliver_at":10"#));
        assert!(lines[1].contains(r#""serialize_ns":3"#));
        assert!(lines[1].contains(r#""bound_ns":45"#));
        assert!(lines[1].contains(r#""prio":false"#));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    /// One event of each variant (plus extra `speed` values), with edge
    /// values in every integer field.
    fn every_variant() -> Vec<TraceEvent> {
        use TraceEvent::*;
        const W: u32 = u32::MAX;
        const Q: u64 = u64::MAX;
        vec![
            DsmAlloc {
                at: 0,
                page: Q,
                home: W,
            },
            DsmHit {
                at: Q,
                page: 0,
                node: 0,
                write: true,
            },
            DsmHitBatch {
                at: 9,
                page: 10,
                len: Q,
                node: W,
                write: false,
            },
            DsmFault {
                at: 100,
                page: 4096,
                node: 1,
                kind: "read_remote",
            },
            DsmInvalidate {
                at: Q,
                page: Q,
                node: W,
            },
            DsmOwnerTransfer {
                at: 0,
                page: 0,
                from: 0,
                to: W,
            },
            DsmGrant {
                at: 1,
                page: 2,
                node: 3,
                exclusive: true,
            },
            DsmPrefetch {
                at: 18_446_744_073_709,
                page: 7,
                node: W,
                owner: 0,
            },
            FabricSend {
                at: 12_345,
                src: 0,
                dst: W,
                class: "dsm",
                prio: false,
                bytes: 4096,
                queued_ns: 0,
                serialize_ns: Q,
                bound_ns: 99_999,
                deliver_at: 100_000,
            },
            FabricLinkReset { src: W, dst: 0 },
            CpuAdd {
                at: 0,
                cpu: W,
                task: Q,
                work_ns: 1_000_000,
            },
            CpuCancel {
                at: 5,
                cpu: 0,
                task: 0,
                rem_ns: Q,
                delivered_ns: 0,
                busy_ns: 10,
                speed: 1.0,
            },
            CpuCancel {
                at: 6,
                cpu: 1,
                task: 2,
                rem_ns: 3,
                delivered_ns: 4,
                busy_ns: 5,
                speed: 1.0 / 3.0,
            },
            CpuDone {
                at: Q,
                cpu: W,
                task: 1,
                delivered_ns: Q,
                busy_ns: 0,
                speed: 0.5,
            },
            CpuDone {
                at: 7,
                cpu: 0,
                task: 8,
                delivered_ns: 9,
                busy_ns: 10,
                speed: 2.0,
            },
            VcpuMigrateStart {
                at: 3,
                vcpu: W,
                from_node: 0,
                to_node: 1,
            },
            VcpuMigrateDone {
                at: Q,
                vcpu: 0,
                node: W,
            },
            Ipi {
                at: 0,
                src_node: 2,
                to_vcpu: W,
                kind: "shootdown",
            },
            Checkpoint {
                at: 20_000_000,
                node: 0,
                bytes: Q,
            },
            FabricDrop {
                at: 1,
                src: W,
                dst: 0,
                class: "interrupt",
            },
            FabricRetry {
                at: Q,
                src: 0,
                dst: 1,
                class: "control",
                attempt: W,
                max_attempts: 0,
                backoff_ns: 50_000,
            },
            LinkDegrade {
                at: 10,
                src: 1,
                dst: 2,
                loss_ppm: 1_000_000,
                extra_ns: Q,
            },
            NodeCrash { at: Q, node: W },
            HeartbeatMiss {
                at: 0,
                node: 3,
                misses: W,
            },
            NodeDeclaredDead {
                at: 3_000_000,
                node: 0,
                misses: 0,
            },
            PageQuarantine {
                at: 1,
                page: Q,
                dead: W,
                to: 0,
            },
            NodeRestore {
                at: Q,
                node: 2,
                pages: 0,
                restore_ns: 123_456_789,
            },
            VcpuMigrateRefused {
                at: 0,
                vcpu: 0,
                from_node: W,
                to_node: W,
            },
            PressureChange {
                at: 77,
                node: 1,
                level: "critical",
                resident: Q,
                budget: 0,
            },
            PageEvict {
                at: 0,
                page: 1,
                from: W,
                to: 2,
            },
            PageRelease {
                at: Q,
                page: 0,
                node: 0,
                policy: "balloon",
            },
            PageSwapOut {
                at: 10,
                page: Q,
                node: W,
            },
            PageSwapIn {
                at: 11,
                page: 0,
                node: 0,
            },
            BalloonInflate {
                at: 0,
                node: W,
                pages: Q,
            },
            PartitionStart {
                at: 40_000_000,
                node: 0,
            },
            PartitionHeal { at: Q, node: W },
            EpochBump {
                at: 1,
                epoch: Q,
                dead: 0,
            },
            StaleEpochRejected {
                at: 2,
                node: W,
                page: 0,
                node_epoch: 1,
                cluster_epoch: Q,
            },
            NodeRejoin {
                at: 0,
                node: 0,
                epoch: 0,
                discarded: Q,
            },
            FleetDeliver {
                at: Q,
                src_shard: 0,
                dst_shard: W,
                src: 999,
                dst: 0,
                depart: 0,
                bytes: 256,
            },
        ]
    }

    /// The exact JSONL bytes of [`every_variant`]: a change to any label,
    /// field order or number format shows up here, not as a silently
    /// different replay digest.
    #[test]
    fn every_variant_renders_its_pinned_line() {
        let expected = [
            r#"{"ev":"dsm_alloc","at":0,"page":18446744073709551615,"home":4294967295}"#,
            r#"{"ev":"dsm_hit","at":18446744073709551615,"page":0,"node":0,"write":true}"#,
            r#"{"ev":"dsm_hit_batch","at":9,"page":10,"len":18446744073709551615,"node":4294967295,"write":false}"#,
            r#"{"ev":"dsm_fault","at":100,"page":4096,"node":1,"kind":"read_remote"}"#,
            r#"{"ev":"dsm_invalidate","at":18446744073709551615,"page":18446744073709551615,"node":4294967295}"#,
            r#"{"ev":"dsm_owner_transfer","at":0,"page":0,"from":0,"to":4294967295}"#,
            r#"{"ev":"dsm_grant","at":1,"page":2,"node":3,"exclusive":true}"#,
            r#"{"ev":"dsm_prefetch","at":18446744073709,"page":7,"node":4294967295,"owner":0}"#,
            r#"{"ev":"fabric_send","at":12345,"src":0,"dst":4294967295,"class":"dsm","prio":false,"bytes":4096,"queued_ns":0,"serialize_ns":18446744073709551615,"bound_ns":99999,"deliver_at":100000}"#,
            r#"{"ev":"fabric_link_reset","src":4294967295,"dst":0}"#,
            r#"{"ev":"cpu_add","at":0,"cpu":4294967295,"task":18446744073709551615,"work_ns":1000000}"#,
            r#"{"ev":"cpu_cancel","at":5,"cpu":0,"task":0,"rem_ns":18446744073709551615,"delivered_ns":0,"busy_ns":10,"speed":1}"#,
            r#"{"ev":"cpu_cancel","at":6,"cpu":1,"task":2,"rem_ns":3,"delivered_ns":4,"busy_ns":5,"speed":0.3333333333333333}"#,
            r#"{"ev":"cpu_done","at":18446744073709551615,"cpu":4294967295,"task":1,"delivered_ns":18446744073709551615,"busy_ns":0,"speed":0.5}"#,
            r#"{"ev":"cpu_done","at":7,"cpu":0,"task":8,"delivered_ns":9,"busy_ns":10,"speed":2}"#,
            r#"{"ev":"vcpu_migrate_start","at":3,"vcpu":4294967295,"from_node":0,"to_node":1}"#,
            r#"{"ev":"vcpu_migrate_done","at":18446744073709551615,"vcpu":0,"node":4294967295}"#,
            r#"{"ev":"ipi","at":0,"src_node":2,"to_vcpu":4294967295,"kind":"shootdown"}"#,
            r#"{"ev":"checkpoint","at":20000000,"node":0,"bytes":18446744073709551615}"#,
            r#"{"ev":"fabric_drop","at":1,"src":4294967295,"dst":0,"class":"interrupt"}"#,
            r#"{"ev":"fabric_retry","at":18446744073709551615,"src":0,"dst":1,"class":"control","attempt":4294967295,"max_attempts":0,"backoff_ns":50000}"#,
            r#"{"ev":"link_degrade","at":10,"src":1,"dst":2,"loss_ppm":1000000,"extra_ns":18446744073709551615}"#,
            r#"{"ev":"node_crash","at":18446744073709551615,"node":4294967295}"#,
            r#"{"ev":"heartbeat_miss","at":0,"node":3,"misses":4294967295}"#,
            r#"{"ev":"node_declared_dead","at":3000000,"node":0,"misses":0}"#,
            r#"{"ev":"page_quarantine","at":1,"page":18446744073709551615,"dead":4294967295,"to":0}"#,
            r#"{"ev":"node_restore","at":18446744073709551615,"node":2,"pages":0,"restore_ns":123456789}"#,
            r#"{"ev":"vcpu_migrate_refused","at":0,"vcpu":0,"from_node":4294967295,"to_node":4294967295}"#,
            r#"{"ev":"pressure_change","at":77,"node":1,"level":"critical","resident":18446744073709551615,"budget":0}"#,
            r#"{"ev":"page_evict","at":0,"page":1,"from":4294967295,"to":2}"#,
            r#"{"ev":"page_release","at":18446744073709551615,"page":0,"node":0,"policy":"balloon"}"#,
            r#"{"ev":"page_swap_out","at":10,"page":18446744073709551615,"node":4294967295}"#,
            r#"{"ev":"page_swap_in","at":11,"page":0,"node":0}"#,
            r#"{"ev":"balloon_inflate","at":0,"node":4294967295,"pages":18446744073709551615}"#,
            r#"{"ev":"partition_start","at":40000000,"node":0}"#,
            r#"{"ev":"partition_heal","at":18446744073709551615,"node":4294967295}"#,
            r#"{"ev":"epoch_bump","at":1,"epoch":18446744073709551615,"dead":0}"#,
            r#"{"ev":"stale_epoch_rejected","at":2,"node":4294967295,"page":0,"node_epoch":1,"cluster_epoch":18446744073709551615}"#,
            r#"{"ev":"node_rejoin","at":0,"node":0,"epoch":0,"discarded":18446744073709551615}"#,
            r#"{"ev":"fleet_deliver","at":18446744073709551615,"src_shard":0,"dst_shard":4294967295,"src":999,"dst":0,"depart":0,"bytes":256}"#,
        ];
        let events = every_variant();
        assert_eq!(events.len(), expected.len());
        for (ev, line) in events.iter().zip(expected) {
            assert_eq!(ev.to_json(), line);
        }
        let labels: std::collections::BTreeSet<&str> = expected
            .iter()
            .filter_map(|l| l.split('"').nth(3))
            .collect();
        assert_eq!(labels.len(), 38, "one line per variant");

        let t = Tracer::ring(64);
        for ev in events {
            t.emit_with(|| ev);
        }
        let mut jsonl = expected.join("\n");
        jsonl.push('\n');
        assert_eq!(t.to_jsonl(), jsonl);
    }

    /// A table entry left out of [`every_variant`] would have no pinned
    /// line: the fixture must render every event name, once per run of
    /// extra `speed` samples, in table order — and each name must be its
    /// variant's name in snake case.
    #[test]
    fn every_variant_pins_each_table_entry() {
        let jsonl: String = every_variant()
            .iter()
            .map(|ev| ev.to_json() + "\n")
            .collect();
        let mut rendered: Vec<&str> = jsonl.lines().filter_map(|l| l.split('"').nth(3)).collect();
        rendered.dedup();
        let names: Vec<&str> = EVENT_NAMES.iter().map(|&(_, ev)| ev).collect();
        assert_eq!(rendered, names);
        for &(variant, ev) in EVENT_NAMES {
            let mut snake = String::new();
            for c in variant.chars() {
                if c.is_ascii_uppercase() && !snake.is_empty() {
                    snake.push('_');
                }
                snake.push(c.to_ascii_lowercase());
            }
            assert_eq!(snake, ev, "{variant}");
        }
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut values: Vec<u64> = (0..10_000).collect();
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            values.extend([p - 1, p, p + 1, next - 1]);
            p = next;
        }
        values.extend([u64::from(u32::MAX), u64::MAX - 1, u64::MAX]);
        let mut out = String::new();
        for v in values {
            out.clear();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }
}
