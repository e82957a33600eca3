//! Trace-replay invariant auditor.
//!
//! [`audit`] replays a [`TraceEvent`] stream and
//! checks the cross-crate invariants no single crate's unit tests can see:
//!
//! * **DSM coherence** — at most one exclusive owner per page, ownership
//!   only transfers from the current owner, exclusive grants require every
//!   other copy to have been invalidated first, and nodes never hit
//!   ("read") a copy they do not validly hold.
//! * **Sim-time monotonicity per component** — each pCPU's event stream and
//!   each vCPU's migration lifecycle move forward in time.
//! * **Work conservation** — a processor-sharing CPU never reports more
//!   delivered work than `busy_time × speed`, and is never busier than
//!   elapsed virtual time.
//! * **Per-(link, class, tier) FIFO** — a fabric link delivers messages
//!   of the same class *and the same scheduling tier* in submission order
//!   (modulo explicit queue resets when a link profile is replaced).
//!   Cross-class reordering is legal — that is what the QoS scheduler is
//!   for — and so is an `Urgency::Critical` bulk message overtaking
//!   normal same-class traffic: it rides the priority tier, which is a
//!   separate FIFO domain.
//! * **No priority inversion** — a message that rode the strict-priority
//!   tier (`prio: true`) queues only behind earlier priority traffic on
//!   its link, never behind bulk streams.
//! * **No class starvation** — a bulk message's weighted-fair
//!   serialization stretch never exceeds the bound its class weight
//!   permits (`serialize_ns <= bound_ns`).
//! * **Crash recovery** — no send originates from a node after its crash
//!   time, every fault-plan retry chain stays within its policy bound,
//!   quarantine restores exactly one owner per page (the page must still
//!   be owned by the dead node and hold no surviving stale copies when it
//!   is re-homed), and the failure detector never declares a live node
//!   dead on a trace with no message loss.
//! * **Epoch fencing** — the cluster epoch only moves forward, a node
//!   fenced by an `EpochBump` never has a directory mutation applied on
//!   its behalf (no grant, transfer, fault, or write-hit) until it
//!   rejoins, every `NodeRejoin` is preceded by a fence, and a
//!   `StaleEpochRejected` only ever names a node that actually is
//!   fenced. Nodes seen inside a `PartitionStart` window are exempt from
//!   the false-dead and quarantine-live-node rules: declaring an
//!   unreachable-but-live node dead is precisely what the fencing
//!   protocol makes safe.
//! * **Memory reclaim** — no page is lost by reclaim: a borrow eviction
//!   (`PageEvict`) must move the master copy from its actual owner (the
//!   single-owner rule then audits the transfer itself); a discard
//!   (`PageRelease`) must come from the owner after every surviving copy
//!   was invalidated, and only a released page may legally re-allocate;
//!   a swap-in must follow a swap-out, a page is never swapped out twice
//!   without an intervening swap-in, and no node hits or faults a
//!   swapped-out page before its `PageSwapIn`.
//!
//! The fabric rules assume a complete event stream. They hold under
//! either scheduling discipline: `Scheduling::SingleFifo`
//! traces record `prio: false` on every send (there is no priority tier
//! to ride), which keeps the priority-inversion rule vacuous there, and
//! single-FIFO serialization is trivially per-class FIFO and within the
//! emitted bound.
//!
//! [`audit`] tolerates a *truncated* slice: DSM events for pages whose
//! allocation fell out of the window are ignored rather than misreported.
//! [`audit_tracer`] refuses a ring that dropped events outright, because
//! a clean tail says nothing about the events that fell out of it.

use std::collections::{BTreeMap, BTreeSet};

use crate::trace::TraceEvent;

/// Slack (ns) allowed on work-conservation comparisons: delivered totals
/// are f64 accumulators rounded to whole nanoseconds at the trace boundary.
const ROUNDING_SLACK_NS: f64 = 2.0;

/// One invariant violation found during replay.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the offending event in the audited slice.
    pub index: usize,
    /// Time field of the offending event (ns).
    pub at: u64,
    /// Which invariant was broken.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] t={}ns {}: {}",
            self.index, self.at, self.rule, self.detail
        )
    }
}

/// Shadow DSM directory state for one page.
#[derive(Debug)]
struct ShadowPage {
    owner: u32,
    sharers: BTreeSet<u32>,
    exclusive: bool,
}

/// Per-link QoS shadow state.
#[derive(Debug, Default)]
struct ShadowLink {
    /// Latest delivery time seen per (message class, priority tier).
    /// The tiers are separate transmitters, so an urgent bulk message on
    /// the priority tier may legally overtake normal same-class traffic.
    last_deliver: BTreeMap<(&'static str, bool), u64>,
    /// When the strict-priority transmitter frees up, replayed from the
    /// priority messages seen so far.
    prio_free: u64,
}

/// Per-CPU accounting shadow state.
#[derive(Debug, Default)]
struct ShadowCpu {
    last_at: u64,
}

/// Per-vCPU migration shadow state.
#[derive(Debug, Default)]
struct ShadowVcpu {
    migrating: bool,
    last_at: u64,
}

/// Replays a trace and returns every invariant violation found.
pub fn audit(events: &[TraceEvent]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut pages: BTreeMap<u64, ShadowPage> = BTreeMap::new();
    let mut links: BTreeMap<(u32, u32), ShadowLink> = BTreeMap::new();
    let mut cpus: BTreeMap<u32, ShadowCpu> = BTreeMap::new();
    let mut vcpus: BTreeMap<u32, ShadowVcpu> = BTreeMap::new();
    // Crash-recovery shadow state: node -> crash time, and whether any
    // message loss (drop or degradation window) has been observed — the
    // detector rule only applies to loss-free traces.
    let mut crashed: BTreeMap<u32, u64> = BTreeMap::new();
    let mut lossy = false;
    // Pages currently demoted to the swap tier: any reuse must be
    // preceded by a PageSwapIn.
    let mut swapped: BTreeSet<u64> = BTreeSet::new();
    // Epoch-fencing shadow state: nodes ever seen inside a partition
    // window (exempt from false-dead/quarantine-live rules), the nodes
    // currently fenced at a stale epoch, and the highest cluster epoch
    // observed (jumps forward are tolerated — bumps may have fallen out
    // of a truncated ring — but regressions never are).
    let mut partitioned_ever: BTreeSet<u32> = BTreeSet::new();
    let mut fenced: BTreeMap<u32, u64> = BTreeMap::new();
    let mut cluster_epoch: u64 = 0;
    // Fleet shadow state: per (src,dst) tenant pair the last observed
    // (depart, deliver) times, and per destination tenant the last arrival
    // — the cross-shard barrier exchange must preserve both FIFOs, the
    // inter-shard analogue of the per-(link,class,tier) FIFO above.
    let mut fleet_pairs: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut fleet_ingress: BTreeMap<u32, u64> = BTreeMap::new();

    let mut flag = |index: usize, at: u64, rule: &'static str, detail: String| {
        violations.push(Violation {
            index,
            at,
            rule,
            detail,
        });
    };

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            TraceEvent::DsmAlloc { at, page, home } => {
                if pages.contains_key(&page) {
                    flag(i, at, "dsm-realloc", format!("page {page} allocated twice"));
                }
                pages.insert(
                    page,
                    ShadowPage {
                        owner: home,
                        sharers: BTreeSet::from([home]),
                        exclusive: true,
                    },
                );
            }
            TraceEvent::DsmHit {
                at,
                page,
                node,
                write,
            }
            | TraceEvent::DsmHitBatch {
                at,
                page,
                node,
                write,
                ..
            } => {
                // A hit is a one-page run; a batch is `len` individual hits
                // on consecutive pages, each held to the same rules.
                let len = match *ev {
                    TraceEvent::DsmHitBatch { len, .. } => len,
                    _ => 1,
                };
                for pg in page..page + len {
                    if swapped.contains(&pg) {
                        flag(
                            i,
                            at,
                            "reclaim-swapped-access",
                            format!("node {node} hit swapped-out page {pg} before its swap-in"),
                        );
                    }
                    let Some(p) = pages.get(&pg) else { continue };
                    if !p.sharers.contains(&node) {
                        flag(
                            i,
                            at,
                            "dsm-stale-read",
                            format!("node {node} hit page {pg} without a valid copy"),
                        );
                    }
                    if write && (p.owner != node || !p.exclusive) {
                        flag(
                            i,
                            at,
                            "dsm-stale-write",
                            format!(
                                "node {node} write-hit page {pg} (owner {}, exclusive {})",
                                p.owner, p.exclusive
                            ),
                        );
                    }
                    if write && fenced.contains_key(&node) {
                        flag(
                            i,
                            at,
                            "epoch-stale-mutation",
                            format!("fenced node {node} write-hit page {pg}"),
                        );
                    }
                }
            }
            TraceEvent::DsmFault { at, page, node, .. } => {
                // The transition itself arrives as invalidate/transfer/grant
                // events; the fault is context for debugging — except that
                // faulting a swapped-out page without swapping it in first
                // would read data that is not resident.
                if swapped.contains(&page) {
                    flag(
                        i,
                        at,
                        "reclaim-swapped-access",
                        format!("node {node} faulted swapped-out page {page} before its swap-in"),
                    );
                }
                if fenced.contains_key(&node) {
                    flag(
                        i,
                        at,
                        "epoch-stale-mutation",
                        format!("fenced node {node} faulted page {page} instead of being rejected"),
                    );
                }
            }
            TraceEvent::DsmInvalidate { at, page, node } => {
                let Some(p) = pages.get_mut(&page) else {
                    continue;
                };
                if !p.sharers.remove(&node) {
                    flag(
                        i,
                        at,
                        "dsm-phantom-invalidate",
                        format!("node {node} invalidated on page {page} without a copy"),
                    );
                }
            }
            TraceEvent::DsmOwnerTransfer { at, page, from, to } => {
                let Some(p) = pages.get_mut(&page) else {
                    continue;
                };
                if p.owner != from {
                    flag(
                        i,
                        at,
                        "dsm-transfer-from-non-owner",
                        format!(
                            "page {page} transferred from {from} but owner is {}",
                            p.owner
                        ),
                    );
                }
                if fenced.contains_key(&to) {
                    flag(
                        i,
                        at,
                        "epoch-stale-mutation",
                        format!("page {page} ownership transferred to fenced node {to}"),
                    );
                }
                p.owner = to;
            }
            TraceEvent::DsmGrant {
                at,
                page,
                node,
                exclusive,
            } => {
                if fenced.contains_key(&node) {
                    flag(
                        i,
                        at,
                        "epoch-stale-mutation",
                        format!("page {page} granted to fenced node {node}"),
                    );
                }
                let Some(p) = pages.get_mut(&page) else {
                    continue;
                };
                if exclusive {
                    let others: Vec<u32> =
                        p.sharers.iter().copied().filter(|&s| s != node).collect();
                    if !others.is_empty() {
                        flag(
                            i,
                            at,
                            "dsm-second-exclusive-owner",
                            format!(
                                "exclusive grant of page {page} to node {node} while {others:?} \
                                 still hold copies"
                            ),
                        );
                    }
                    if p.owner != node {
                        flag(
                            i,
                            at,
                            "dsm-exclusive-non-owner",
                            format!(
                                "exclusive grant of page {page} to node {node} but owner is {}",
                                p.owner
                            ),
                        );
                    }
                }
                p.sharers.insert(node);
                p.exclusive = exclusive;
                if !p.sharers.contains(&p.owner) {
                    flag(
                        i,
                        at,
                        "dsm-owner-not-sharer",
                        format!("page {page} owner {} holds no valid copy", p.owner),
                    );
                }
            }
            TraceEvent::DsmPrefetch {
                at,
                page,
                node,
                owner,
            } => {
                let Some(p) = pages.get_mut(&page) else {
                    continue;
                };
                // The piggyback source downgrades its own exclusive copy as
                // it serves the data, so prefetching an exclusive page is
                // fine — but only the owner holds data valid to serve.
                if p.owner != owner {
                    flag(
                        i,
                        at,
                        "dsm-prefetch-from-non-owner",
                        format!(
                            "page {page} prefetched by {node} from {owner} but owner is {}",
                            p.owner
                        ),
                    );
                }
                p.sharers.insert(node);
                p.exclusive = false;
            }
            TraceEvent::FabricSend {
                at,
                src,
                dst,
                class,
                prio,
                queued_ns,
                serialize_ns,
                bound_ns,
                deliver_at,
                ..
            } => {
                if let Some(&dead_at) = crashed.get(&src) {
                    if at >= dead_at {
                        flag(
                            i,
                            at,
                            "fabric-send-after-crash",
                            format!(
                                "node {src} sent a {class} message at {at} but \
                                 crashed at {dead_at}"
                            ),
                        );
                    }
                }
                let link = links.entry((src, dst)).or_default();
                let last = link.last_deliver.entry((class, prio)).or_default();
                if deliver_at < *last {
                    let tier = if prio { "priority" } else { "bulk" };
                    flag(
                        i,
                        at,
                        "fabric-class-fifo",
                        format!(
                            "link {src}->{dst} class {class} ({tier} tier) delivers \
                             at {deliver_at} before earlier message at {last}"
                        ),
                    );
                }
                *last = (*last).max(deliver_at);
                if deliver_at < at + queued_ns {
                    flag(
                        i,
                        at,
                        "fabric-time-travel",
                        format!(
                            "link {src}->{dst} delivery {deliver_at} precedes \
                             submission {at} + queueing {queued_ns}"
                        ),
                    );
                }
                if serialize_ns > bound_ns {
                    flag(
                        i,
                        at,
                        "fabric-class-starvation",
                        format!(
                            "link {src}->{dst} class {class} serialized for \
                             {serialize_ns}ns, beyond its weight bound {bound_ns}ns"
                        ),
                    );
                }
                if prio {
                    // A priority message may queue only behind earlier
                    // priority traffic still occupying the transmitter.
                    let backlog = link.prio_free.saturating_sub(at);
                    if queued_ns > backlog {
                        flag(
                            i,
                            at,
                            "fabric-prio-inversion",
                            format!(
                                "link {src}->{dst} priority {class} message queued \
                                 {queued_ns}ns but priority backlog was only {backlog}ns"
                            ),
                        );
                    }
                    link.prio_free = at + queued_ns + serialize_ns;
                }
            }
            TraceEvent::FabricLinkReset { src, dst } => {
                links.remove(&(src, dst));
            }
            TraceEvent::CpuAdd { at, cpu, .. } => {
                let c = cpus.entry(cpu).or_default();
                if at < c.last_at {
                    flag(
                        i,
                        at,
                        "cpu-time-regression",
                        format!("cpu {cpu} event at {at} after {}", c.last_at),
                    );
                }
                c.last_at = c.last_at.max(at);
            }
            TraceEvent::CpuCancel {
                at,
                cpu,
                delivered_ns,
                busy_ns,
                speed,
                ..
            }
            | TraceEvent::CpuDone {
                at,
                cpu,
                delivered_ns,
                busy_ns,
                speed,
                ..
            } => {
                let c = cpus.entry(cpu).or_default();
                if at < c.last_at {
                    flag(
                        i,
                        at,
                        "cpu-time-regression",
                        format!("cpu {cpu} event at {at} after {}", c.last_at),
                    );
                }
                c.last_at = c.last_at.max(at);
                if delivered_ns as f64 > busy_ns as f64 * speed + ROUNDING_SLACK_NS {
                    flag(
                        i,
                        at,
                        "cpu-work-conservation",
                        format!(
                            "cpu {cpu} delivered {delivered_ns}ns > busy {busy_ns}ns \
                             x speed {speed}"
                        ),
                    );
                }
                if busy_ns as f64 > at as f64 + ROUNDING_SLACK_NS {
                    flag(
                        i,
                        at,
                        "cpu-busy-exceeds-elapsed",
                        format!("cpu {cpu} busy {busy_ns}ns > elapsed {at}ns"),
                    );
                }
            }
            TraceEvent::VcpuMigrateStart {
                at,
                vcpu,
                from_node,
                to_node,
            } => {
                let v = vcpus.entry(vcpu).or_default();
                if v.migrating {
                    flag(
                        i,
                        at,
                        "vcpu-migration-overlap",
                        format!(
                            "vcpu {vcpu} commanded {from_node}->{to_node} while a \
                             migration is in flight"
                        ),
                    );
                }
                if at < v.last_at {
                    flag(
                        i,
                        at,
                        "vcpu-time-regression",
                        format!("vcpu {vcpu} event at {at} after {}", v.last_at),
                    );
                }
                v.migrating = true;
                v.last_at = v.last_at.max(at);
            }
            TraceEvent::VcpuMigrateDone { at, vcpu, .. } => {
                let v = vcpus.entry(vcpu).or_default();
                if !v.migrating {
                    flag(
                        i,
                        at,
                        "vcpu-migration-unsolicited",
                        format!("vcpu {vcpu} completed a migration that never started"),
                    );
                }
                if at < v.last_at {
                    flag(
                        i,
                        at,
                        "vcpu-time-regression",
                        format!("vcpu {vcpu} event at {at} after {}", v.last_at),
                    );
                }
                v.migrating = false;
                v.last_at = v.last_at.max(at);
            }
            TraceEvent::FabricDrop { .. } => {
                lossy = true;
            }
            TraceEvent::LinkDegrade { .. } => {
                lossy = true;
            }
            TraceEvent::FabricRetry {
                at,
                src,
                dst,
                class,
                attempt,
                max_attempts,
                ..
            } => {
                if attempt > max_attempts {
                    flag(
                        i,
                        at,
                        "fabric-retry-unbounded",
                        format!(
                            "link {src}->{dst} class {class} retry attempt {attempt} \
                             exceeds the policy bound {max_attempts}"
                        ),
                    );
                }
            }
            TraceEvent::NodeCrash { at, node } => {
                crashed.entry(node).or_insert(at);
            }
            TraceEvent::NodeDeclaredDead { at, node, .. } => {
                let actually_dead = crashed.get(&node).is_some_and(|&dead_at| dead_at <= at);
                // A partitioned node is unreachable-but-live: declaring it
                // dead is the detector doing its job (fencing makes the
                // declaration safe), so partitioned nodes are exempt.
                if !actually_dead && !lossy && !partitioned_ever.contains(&node) {
                    flag(
                        i,
                        at,
                        "detector-false-dead",
                        format!(
                            "node {node} declared dead at {at} under a loss-free \
                             plan while still live"
                        ),
                    );
                }
            }
            TraceEvent::PageQuarantine { at, page, dead, to } => {
                // Quarantine only makes sense against a crashed or
                // partitioned node; the check is skipped when neither kind
                // of fault survives in the (possibly truncated) window.
                let any_fault = !crashed.is_empty() || !partitioned_ever.is_empty();
                let dead_faulted = crashed.contains_key(&dead) || partitioned_ever.contains(&dead);
                if any_fault && !dead_faulted {
                    flag(
                        i,
                        at,
                        "recovery-quarantine-live-node",
                        format!("page {page} quarantined from live node {dead}"),
                    );
                }
                let Some(p) = pages.get_mut(&page) else {
                    continue;
                };
                if p.owner != dead {
                    flag(
                        i,
                        at,
                        "recovery-quarantine-non-owner",
                        format!(
                            "page {page} quarantined from {dead} but owner is {}",
                            p.owner
                        ),
                    );
                }
                if !p.sharers.is_empty() {
                    flag(
                        i,
                        at,
                        "recovery-quarantine-stale-copy",
                        format!(
                            "page {page} restored to {to} while {:?} still hold copies",
                            p.sharers
                        ),
                    );
                }
                // The restored master copy re-homes; the following
                // exclusive DsmGrant re-adds `to` as the sole sharer.
                p.owner = to;
            }
            TraceEvent::PageEvict { at, page, from, .. } => {
                // A borrow eviction moves the master copy; it must come
                // from the actual owner (the following invalidate /
                // transfer / grant events audit the move itself, so no
                // page is lost: ownership lands exactly once).
                let Some(p) = pages.get(&page) else {
                    continue;
                };
                if p.owner != from {
                    flag(
                        i,
                        at,
                        "reclaim-evict-non-owner",
                        format!("page {page} evicted from {from} but owner is {}", p.owner),
                    );
                }
                if swapped.contains(&page) {
                    flag(
                        i,
                        at,
                        "reclaim-swapped-access",
                        format!("page {page} evicted while swapped out"),
                    );
                }
            }
            TraceEvent::PageRelease { at, page, node, .. } => {
                swapped.remove(&page);
                let Some(p) = pages.get(&page) else {
                    continue;
                };
                if p.owner != node {
                    flag(
                        i,
                        at,
                        "reclaim-release-non-owner",
                        format!("page {page} released by {node} but owner is {}", p.owner),
                    );
                }
                if !p.sharers.is_empty() {
                    flag(
                        i,
                        at,
                        "reclaim-release-stale-copy",
                        format!(
                            "page {page} released while {:?} still hold copies",
                            p.sharers
                        ),
                    );
                }
                // The page is gone from the directory: a later first touch
                // may legally re-allocate it.
                pages.remove(&page);
            }
            TraceEvent::PageSwapOut { at, page, .. } => {
                if !swapped.insert(page) {
                    flag(
                        i,
                        at,
                        "reclaim-double-swap-out",
                        format!("page {page} swapped out twice without a swap-in"),
                    );
                }
            }
            TraceEvent::PageSwapIn { at, page, .. } => {
                if !swapped.remove(&page) {
                    flag(
                        i,
                        at,
                        "reclaim-swapin-without-swapout",
                        format!("page {page} swapped in but was never swapped out"),
                    );
                }
            }
            TraceEvent::PartitionStart { node, .. } => {
                partitioned_ever.insert(node);
            }
            TraceEvent::EpochBump { at, epoch, dead } => {
                if epoch <= cluster_epoch {
                    flag(
                        i,
                        at,
                        "epoch-regression",
                        format!(
                            "cluster epoch bumped to {epoch} at or below the \
                             current epoch {cluster_epoch}"
                        ),
                    );
                }
                cluster_epoch = cluster_epoch.max(epoch);
                fenced.insert(dead, epoch);
            }
            TraceEvent::StaleEpochRejected { at, node, page, .. } => {
                // The rejection itself is the safety mechanism working; a
                // rejection naming a node that is *not* fenced means the
                // directory fenced the wrong node.
                if !fenced.contains_key(&node) {
                    flag(
                        i,
                        at,
                        "epoch-reject-unfenced",
                        format!("unfenced node {node} rejected on page {page}"),
                    );
                }
            }
            TraceEvent::NodeRejoin {
                at, node, epoch, ..
            } => {
                if fenced.remove(&node).is_none() {
                    flag(
                        i,
                        at,
                        "rejoin-without-fence",
                        format!("node {node} rejoined without ever being fenced"),
                    );
                }
                if epoch < cluster_epoch {
                    flag(
                        i,
                        at,
                        "rejoin-stale-epoch",
                        format!(
                            "node {node} rejoined at epoch {epoch} below the \
                             cluster epoch {cluster_epoch}"
                        ),
                    );
                }
                cluster_epoch = cluster_epoch.max(epoch);
            }
            TraceEvent::FleetDeliver {
                at,
                src,
                dst,
                depart,
                ..
            } => {
                if at < depart {
                    flag(
                        i,
                        at,
                        "fleet-time-travel",
                        format!(
                            "fleet message {src}->{dst} delivered at {at} \
                             before its departure {depart}"
                        ),
                    );
                }
                let pair = fleet_pairs.entry((src, dst)).or_insert((0, 0));
                if depart < pair.0 {
                    flag(
                        i,
                        at,
                        "fleet-pair-reorder",
                        format!(
                            "fleet message {src}->{dst} departed at {depart} \
                             but a later departure ({}) was already delivered",
                            pair.0
                        ),
                    );
                }
                if at < pair.1 {
                    flag(
                        i,
                        at,
                        "fleet-pair-fifo",
                        format!(
                            "fleet message {src}->{dst} delivered at {at} \
                             before the pair's previous delivery at {}",
                            pair.1
                        ),
                    );
                }
                *pair = (pair.0.max(depart), pair.1.max(at));
                let ingress = fleet_ingress.entry(dst).or_insert(0);
                if at < *ingress {
                    flag(
                        i,
                        at,
                        "fleet-ingress-order",
                        format!(
                            "fleet delivery to tenant {dst} at {at} precedes \
                             the tenant's previous arrival at {ingress} — the \
                             barrier exchange reordered its ingress line"
                        ),
                    );
                }
                *ingress = (*ingress).max(at);
            }
            TraceEvent::Ipi { .. }
            | TraceEvent::Checkpoint { .. }
            | TraceEvent::HeartbeatMiss { .. }
            | TraceEvent::NodeRestore { .. }
            | TraceEvent::VcpuMigrateRefused { .. }
            | TraceEvent::PressureChange { .. }
            | TraceEvent::BalloonInflate { .. }
            | TraceEvent::PartitionHeal { .. } => {
                // Debugging context only: heartbeat misses below the
                // threshold, completed restores, refused migrations,
                // pressure transitions, balloon inflations and partition
                // heals carry no shadow state of their own (a heal does
                // not unfence — only a NodeRejoin does).
            }
        }
    }
    violations
}

/// Audits the events buffered in a [`Tracer`], refusing a truncated ring.
///
/// The replay rules assume every emission is present. A ring that
/// overflowed holds only the tail of the run, and a clean tail would be
/// reported as a clean run, so this entry point returns `Err` when
/// [`Tracer::dropped`] is nonzero. Audit a raw event slice with [`audit`]
/// only when you know it is complete.
///
/// The ring is audited in place, under a borrow, without copying it.
///
/// [`Tracer`]: crate::trace::Tracer
/// [`Tracer::dropped`]: crate::trace::Tracer::dropped
pub fn audit_tracer(tracer: &crate::trace::Tracer) -> Result<Vec<Violation>, &'static str> {
    if tracer.dropped() > 0 {
        return Err("refusing to audit a truncated trace: the ring dropped events");
    }
    Ok(tracer.with_events(audit))
}

/// Audits a trace and panics with a readable report if any invariant is
/// violated. Intended for integration tests.
///
/// # Panics
///
/// Panics when [`audit`] reports at least one violation.
#[allow(clippy::panic)] // test-facing assertion helper; panicking is its job
pub fn assert_clean(events: &[TraceEvent]) {
    let violations = audit(events);
    if !violations.is_empty() {
        let mut msg = format!("trace audit found {} violation(s):\n", violations.len());
        for v in violations.iter().take(20) {
            msg.push_str(&format!("  {v}\n"));
        }
        if violations.len() > 20 {
            msg.push_str(&format!("  ... and {} more\n", violations.len() - 20));
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent as E;

    #[test]
    fn clean_read_fault_sequence_passes() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 1,
                home: 0,
            },
            E::DsmFault {
                at: 10,
                page: 1,
                node: 1,
                kind: "read_remote",
            },
            E::DsmGrant {
                at: 10,
                page: 1,
                node: 1,
                exclusive: false,
            },
            E::DsmHit {
                at: 20,
                page: 1,
                node: 1,
                write: false,
            },
        ];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn two_exclusive_owners_is_flagged() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 1,
                home: 0,
            },
            // Node 1 claims exclusivity without node 0 being invalidated.
            E::DsmOwnerTransfer {
                at: 5,
                page: 1,
                from: 0,
                to: 1,
            },
            E::DsmGrant {
                at: 5,
                page: 1,
                node: 1,
                exclusive: true,
            },
        ];
        let v = audit(&events);
        assert!(
            v.iter().any(|v| v.rule == "dsm-second-exclusive-owner"),
            "{v:?}"
        );
    }

    #[test]
    fn stale_read_is_flagged() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 1,
                home: 0,
            },
            E::DsmGrant {
                at: 1,
                page: 1,
                node: 2,
                exclusive: false,
            },
            E::DsmInvalidate {
                at: 2,
                page: 1,
                node: 2,
            },
            // Node 2 reads again without refetching.
            E::DsmHit {
                at: 3,
                page: 1,
                node: 2,
                write: false,
            },
        ];
        let v = audit(&events);
        assert!(v.iter().any(|v| v.rule == "dsm-stale-read"), "{v:?}");
    }

    #[test]
    fn grant_to_fenced_node_is_flagged() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 1,
                home: 0,
            },
            E::PartitionStart { at: 5, node: 2 },
            E::EpochBump {
                at: 10,
                epoch: 1,
                dead: 2,
            },
            // A grant to the fenced minority node is exactly the stale
            // mutation fencing exists to prevent.
            E::DsmGrant {
                at: 20,
                page: 1,
                node: 2,
                exclusive: true,
            },
        ];
        let v = audit(&events);
        assert!(v.iter().any(|v| v.rule == "epoch-stale-mutation"), "{v:?}");
    }

    #[test]
    fn rejoin_clears_the_fence_and_needs_one() {
        let fenced_then_rejoined = [
            E::PartitionStart { at: 5, node: 2 },
            E::EpochBump {
                at: 10,
                epoch: 1,
                dead: 2,
            },
            E::PartitionHeal { at: 30, node: 2 },
            E::NodeRejoin {
                at: 30,
                node: 2,
                epoch: 1,
                discarded: 0,
            },
            // Post-rejoin activity is legal again.
            E::DsmAlloc {
                at: 40,
                page: 1,
                home: 2,
            },
            E::DsmHit {
                at: 41,
                page: 1,
                node: 2,
                write: true,
            },
        ];
        assert!(audit(&fenced_then_rejoined).is_empty());
        let unfenced_rejoin = [E::NodeRejoin {
            at: 10,
            node: 3,
            epoch: 1,
            discarded: 0,
        }];
        let v = audit(&unfenced_rejoin);
        assert!(v.iter().any(|v| v.rule == "rejoin-without-fence"), "{v:?}");
    }

    #[test]
    fn epoch_regression_and_unfenced_rejection_are_flagged() {
        let regress = [
            E::EpochBump {
                at: 10,
                epoch: 3,
                dead: 1,
            },
            E::EpochBump {
                at: 20,
                epoch: 3,
                dead: 2,
            },
        ];
        let v = audit(&regress);
        assert!(v.iter().any(|v| v.rule == "epoch-regression"), "{v:?}");
        let bogus_reject = [E::StaleEpochRejected {
            at: 10,
            node: 4,
            page: 9,
            node_epoch: 0,
            cluster_epoch: 1,
        }];
        let v = audit(&bogus_reject);
        assert!(v.iter().any(|v| v.rule == "epoch-reject-unfenced"), "{v:?}");
    }

    #[test]
    fn partitioned_node_may_be_declared_dead_and_quarantined() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 7,
                home: 2,
            },
            E::PartitionStart { at: 5, node: 2 },
            // Loss-free plan, node 2 never crashed — but it is
            // partitioned, so neither rule fires.
            E::NodeDeclaredDead {
                at: 10,
                node: 2,
                misses: 3,
            },
            E::EpochBump {
                at: 10,
                epoch: 1,
                dead: 2,
            },
            E::DsmInvalidate {
                at: 11,
                page: 7,
                node: 2,
            },
            E::PageQuarantine {
                at: 11,
                page: 7,
                dead: 2,
                to: 0,
            },
            E::DsmGrant {
                at: 11,
                page: 7,
                node: 0,
                exclusive: true,
            },
        ];
        assert!(audit(&events).is_empty(), "{:?}", audit(&events));
    }

    #[test]
    fn transfer_from_non_owner_is_flagged() {
        let events = [
            E::DsmAlloc {
                at: 0,
                page: 1,
                home: 0,
            },
            E::DsmOwnerTransfer {
                at: 1,
                page: 1,
                from: 3,
                to: 2,
            },
        ];
        let v = audit(&events);
        assert!(
            v.iter().any(|v| v.rule == "dsm-transfer-from-non-owner"),
            "{v:?}"
        );
    }

    /// A bulk send with consistent scheduling metadata.
    fn send(at: u64, class: &'static str, queued_ns: u64, deliver_at: u64) -> E {
        E::FabricSend {
            at,
            src: 0,
            dst: 1,
            class,
            prio: false,
            bytes: 64,
            queued_ns,
            serialize_ns: 10,
            bound_ns: 150,
            deliver_at,
        }
    }

    #[test]
    fn same_class_fifo_violation_is_flagged() {
        let events = [send(0, "dsm", 0, 100), send(10, "dsm", 0, 90)];
        let v = audit(&events);
        assert!(v.iter().any(|v| v.rule == "fabric-class-fifo"), "{v:?}");
    }

    #[test]
    fn cross_class_reordering_is_legal() {
        // A checkpoint chunk delivers long after a later-submitted DSM
        // page: exactly what the QoS scheduler is supposed to produce.
        let events = [send(0, "checkpoint", 0, 10_000), send(10, "dsm", 0, 90)];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn urgent_same_class_overtake_via_priority_tier_is_legal() {
        // A 10 MiB Migration stream drains on the bulk tier while a later
        // urgent 64 B Migration message (a vCPU location-table update)
        // rides the priority tier and delivers first. Same class, different
        // tier: separate FIFO domains, no violation.
        let events = [
            E::FabricSend {
                at: 0,
                src: 0,
                dst: 1,
                class: "migration",
                prio: false,
                bytes: 10 << 20,
                queued_ns: 0,
                serialize_ns: 10_000_000,
                bound_ns: 150_000_000,
                deliver_at: 10_002_000,
            },
            E::FabricSend {
                at: 10,
                src: 0,
                dst: 1,
                class: "migration",
                prio: true,
                bytes: 64,
                queued_ns: 0,
                serialize_ns: 64,
                bound_ns: 64,
                deliver_at: 2_074,
            },
        ];
        assert!(audit(&events).is_empty(), "{:?}", audit(&events));
    }

    #[test]
    fn same_tier_same_class_fifo_still_enforced_per_tier() {
        // Two urgent (priority-tier) migration messages delivering out of
        // order is still a FIFO violation within the (class, tier) domain.
        let mk = |at, deliver_at| E::FabricSend {
            at,
            src: 0,
            dst: 1,
            class: "migration",
            prio: true,
            bytes: 64,
            queued_ns: 0,
            serialize_ns: 64,
            bound_ns: 64,
            deliver_at,
        };
        let v = audit(&[mk(0, 2_000), mk(10, 1_500)]);
        assert!(v.iter().any(|v| v.rule == "fabric-class-fifo"), "{v:?}");
    }

    #[test]
    fn single_fifo_trace_audits_clean() {
        // Under Scheduling::SingleFifo the fabric emits prio: false even
        // for interrupts, so an IPI legally queueing behind a checkpoint
        // burst must not be flagged as priority inversion.
        let events = [
            send(0, "checkpoint", 0, 10_000),
            E::FabricSend {
                at: 10,
                src: 0,
                dst: 1,
                class: "interrupt",
                prio: false,
                bytes: 64,
                queued_ns: 9_990,
                serialize_ns: 64,
                bound_ns: 64,
                deliver_at: 11_000,
            },
        ];
        assert!(audit(&events).is_empty(), "{:?}", audit(&events));
    }

    #[test]
    fn link_reset_forgives_reordered_delivery() {
        let events = [
            send(0, "io", 0, 100),
            E::FabricLinkReset { src: 0, dst: 1 },
            send(10, "io", 0, 90),
        ];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn priority_inversion_is_flagged() {
        // An interrupt queued 5000ns with no earlier priority traffic on
        // the link: it must have waited behind a bulk stream.
        let events = [
            send(0, "checkpoint", 0, 10_000),
            E::FabricSend {
                at: 10,
                src: 0,
                dst: 1,
                class: "interrupt",
                prio: true,
                bytes: 64,
                queued_ns: 5_000,
                serialize_ns: 64,
                bound_ns: 64,
                deliver_at: 6_000,
            },
        ];
        let v = audit(&events);
        assert!(v.iter().any(|v| v.rule == "fabric-prio-inversion"), "{v:?}");
    }

    #[test]
    fn priority_messages_may_queue_behind_each_other() {
        let mk = |at, queued_ns, deliver_at| E::FabricSend {
            at,
            src: 0,
            dst: 1,
            class: "interrupt",
            prio: true,
            bytes: 64,
            queued_ns,
            serialize_ns: 64,
            bound_ns: 64,
            deliver_at,
        };
        // Second IPI waits out the first one's 64ns serialization.
        let events = [mk(0, 0, 100), mk(10, 54, 164)];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn class_starvation_is_flagged() {
        let events = [E::FabricSend {
            at: 0,
            src: 0,
            dst: 1,
            class: "checkpoint",
            prio: false,
            bytes: 4096,
            queued_ns: 0,
            serialize_ns: 90_000,
            bound_ns: 61_440,
            deliver_at: 100_000,
        }];
        let v = audit(&events);
        assert!(
            v.iter().any(|v| v.rule == "fabric-class-starvation"),
            "{v:?}"
        );
    }

    #[test]
    fn work_conservation_violation_is_flagged() {
        let events = [E::CpuDone {
            at: 1000,
            cpu: 0,
            task: 1,
            delivered_ns: 900,
            busy_ns: 500,
            speed: 1.0,
        }];
        let v = audit(&events);
        assert!(v.iter().any(|v| v.rule == "cpu-work-conservation"), "{v:?}");
    }

    #[test]
    fn overlapping_migrations_are_flagged() {
        let events = [
            E::VcpuMigrateStart {
                at: 0,
                vcpu: 1,
                from_node: 0,
                to_node: 1,
            },
            E::VcpuMigrateStart {
                at: 10,
                vcpu: 1,
                from_node: 1,
                to_node: 2,
            },
        ];
        let v = audit(&events);
        assert!(
            v.iter().any(|v| v.rule == "vcpu-migration-overlap"),
            "{v:?}"
        );
    }

    #[test]
    fn truncated_trace_without_alloc_is_tolerated() {
        let events = [E::DsmHit {
            at: 3,
            page: 99,
            node: 2,
            write: true,
        }];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn overflowed_ring_is_refused_not_audited() {
        let emit = |t: &crate::trace::Tracer, at: u64| {
            t.emit_with(|| E::DsmAlloc {
                at,
                page: at,
                home: 0,
            });
        };
        let tracer = crate::trace::Tracer::ring(4);
        for at in 0..4 {
            emit(&tracer, at);
        }
        assert_eq!(audit_tracer(&tracer).map(|v| v.len()), Ok(0));
        // Clean events all the same: only the overflow is refused.
        emit(&tracer, 4);
        assert_eq!(tracer.dropped(), 1);
        assert!(audit_tracer(&tracer).is_err());
    }

    #[test]
    #[should_panic(expected = "trace audit found")]
    fn assert_clean_panics_on_violation() {
        assert_clean(&[E::VcpuMigrateDone {
            at: 0,
            vcpu: 0,
            node: 1,
        }]);
    }

    fn fleet(at: u64, src: u32, dst: u32, depart: u64) -> E {
        E::FleetDeliver {
            at,
            src_shard: src / 64,
            dst_shard: dst / 64,
            src,
            dst,
            depart,
            bytes: 4096,
        }
    }

    #[test]
    fn fleet_fifo_clean_exchange_passes() {
        let events = [
            fleet(100, 1, 70, 50),
            fleet(120, 1, 70, 60),
            fleet(125, 2, 70, 60),
            fleet(90, 2, 130, 40),
        ];
        assert!(audit(&events).is_empty());
    }

    #[test]
    fn fleet_delivery_before_departure_is_flagged() {
        let v = audit(&[fleet(30, 1, 70, 50)]);
        assert!(v.iter().any(|v| v.rule == "fleet-time-travel"), "{v:?}");
    }

    #[test]
    fn fleet_pair_reorder_is_flagged() {
        // Second message of the pair departed earlier than the first —
        // the barrier exchange reordered the pair's FIFO.
        let v = audit(&[fleet(100, 1, 70, 60), fleet(110, 1, 70, 50)]);
        assert!(v.iter().any(|v| v.rule == "fleet-pair-reorder"), "{v:?}");
    }

    #[test]
    fn fleet_pair_delivery_regression_is_flagged() {
        let v = audit(&[fleet(100, 1, 70, 50), fleet(90, 1, 70, 60)]);
        assert!(v.iter().any(|v| v.rule == "fleet-pair-fifo"), "{v:?}");
    }

    #[test]
    fn fleet_ingress_reorder_is_flagged() {
        // Two different senders to one tenant: arrivals at the tenant's
        // ingress line must be non-decreasing.
        let v = audit(&[fleet(100, 1, 70, 50), fleet(80, 2, 70, 55)]);
        assert!(v.iter().any(|v| v.rule == "fleet-ingress-order"), "{v:?}");
    }
}
