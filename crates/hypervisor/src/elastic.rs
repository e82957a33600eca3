//! Memory elasticity: per-node pressure tracking and reclaim policies.
//!
//! The paper's thesis is that when a node runs short of memory it should
//! *borrow* from other nodes instead of shrinking the VM. This module
//! makes that an experiment rather than an assertion: a [`MemoryPressure`]
//! model (per-node resident pages vs a configurable budget, sampled on the
//! DSM fault path) drives a [`ReclaimPolicy`], and its four policies play
//! out the design space:
//!
//! * **Borrow** — evict DSM master copies toward the remote node with the
//!   most headroom (the Aggregate-VM answer); pages stay resident in the
//!   VM, later touches pay a normal remote fault.
//! * **Balloon** — a guest balloon driver hands private pages back to the
//!   host; reuse pays a fresh first-touch fault.
//! * **Deflate** — the slice's share shrinks: pages are discarded *and*
//!   the pseudo-physical limit drops, refusing allocations above it.
//! * **Swap** — demote to a slower swap tier with asymmetric latencies;
//!   the next touch stalls for the swap-in before the DSM even looks.
//!
//! Reclaim is synchronous with the faulting access (direct reclaim): the
//! triggering vCPU pays the reclaim latency as a pressure stall, which is
//! exactly the cost the head-to-head study measures.

use std::collections::{BTreeMap, BTreeSet};

use comm::{Fabric, Message, MsgClass, NodeId};
use dsm::{Dsm, PageClass, PageId};
use guest::memory::RegionAllocator;
use sim_core::time::SimTime;
use sim_core::trace::TraceEvent;
use sim_core::units::ByteSize;

use crate::memory::{VmMemory, DSM_PAGE};
use crate::profile::HypervisorProfile;

/// Guest balloon driver cost per page handed back (list manipulation and
/// a madvise-style host notification, amortized over a batch).
const BALLOON_PAGE_COST: SimTime = SimTime::from_nanos(200);

/// Host-side cost per page unmapped by deflation (EPT teardown).
const DEFLATE_PAGE_COST: SimTime = SimTime::from_nanos(300);

/// Latency to demote one page to the swap tier (a local NVMe-ish tier:
/// fast sequential write-out, slow synchronous fault-in).
const SWAP_OUT_PAGE_COST: SimTime = SimTime::from_micros(2);

/// Latency to bring one page back from the swap tier.
pub(crate) const SWAP_IN_PAGE_COST: SimTime = SimTime::from_micros(80);

/// Per-node memory pressure, derived from resident pages vs the budget.
///
/// Levels are ordered: reclaim triggers at [`MemoryPressure::High`] and
/// above, while [`MemoryPressure::Moderate`] only changes the trace
/// signal (the level every reclaim round drives back down to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemoryPressure {
    /// Below the moderate watermark: no action.
    Normal,
    /// Above the moderate watermark: watched, not reclaimed.
    Moderate,
    /// Above the high watermark: direct reclaim on the fault path.
    High,
    /// Above the critical watermark: reclaim with a larger target.
    Critical,
}

impl MemoryPressure {
    /// Stable lower-case label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            MemoryPressure::Normal => "normal",
            MemoryPressure::Moderate => "moderate",
            MemoryPressure::High => "high",
            MemoryPressure::Critical => "critical",
        }
    }
}

/// Watermarks as fractions of the node budget.
#[derive(Debug, Clone, Copy)]
pub struct PressureThresholds {
    /// Resident/budget ratio above which pressure is moderate.
    pub moderate: f64,
    /// Ratio above which pressure is high (reclaim triggers).
    pub high: f64,
    /// Ratio above which pressure is critical.
    pub critical: f64,
}

impl Default for PressureThresholds {
    fn default() -> Self {
        PressureThresholds {
            moderate: 0.70,
            high: 0.85,
            critical: 0.95,
        }
    }
}

impl PressureThresholds {
    /// Classifies `resident` pages against a `budget` in pages.
    pub fn level(&self, resident: u64, budget: u64) -> MemoryPressure {
        if budget == 0 {
            return MemoryPressure::Normal;
        }
        let r = resident as f64 / budget as f64;
        if r >= self.critical {
            MemoryPressure::Critical
        } else if r >= self.high {
            MemoryPressure::High
        } else if r >= self.moderate {
            MemoryPressure::Moderate
        } else {
            MemoryPressure::Normal
        }
    }
}

/// The reclaim policy a VM runs under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// Evict master copies to the remote node with the most headroom.
    Borrow,
    /// Guest balloon: discard private pages, fault-on-reuse.
    Balloon,
    /// Shrink the slice: discard pages and lower the allocation limit.
    Deflate,
    /// Demote to a slower swap tier (asymmetric in/out latencies).
    Swap,
}

impl ReclaimPolicy {
    /// All policies, in report order.
    pub const ALL: [ReclaimPolicy; 4] = [
        ReclaimPolicy::Borrow,
        ReclaimPolicy::Balloon,
        ReclaimPolicy::Deflate,
        ReclaimPolicy::Swap,
    ];

    /// Stable lower-case label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            ReclaimPolicy::Borrow => "borrow",
            ReclaimPolicy::Balloon => "balloon",
            ReclaimPolicy::Deflate => "deflate",
            ReclaimPolicy::Swap => "swap",
        }
    }

    /// Eviction priority for a page class: lower is evicted first,
    /// `None` exempts the class. Every policy pins kernel text, page
    /// tables and device rings (discarding those would tear the guest
    /// down, not slim it); the balloon driver only ever hands back
    /// guest-private pages.
    pub fn eviction_priority(self, class: PageClass) -> Option<u8> {
        match (self, class) {
            (_, PageClass::Private) => Some(0),
            (ReclaimPolicy::Balloon, _) => None,
            (_, PageClass::AppShared) => Some(1),
            (_, PageClass::KernelData) => Some(2),
            (_, PageClass::KernelText | PageClass::PageTable | PageClass::DeviceRing) => None,
        }
    }

    /// Frees up to `req.target_pages` pages on `ctx.node`, best effort.
    pub fn reclaim(self, req: &ReclaimRequest, ctx: &mut ReclaimCtx<'_>) -> ReclaimOutcome {
        match self {
            ReclaimPolicy::Borrow => reclaim_borrow(req, ctx),
            ReclaimPolicy::Balloon => reclaim_balloon(req, ctx),
            ReclaimPolicy::Deflate => reclaim_deflate(req, ctx),
            ReclaimPolicy::Swap => reclaim_swap(req, ctx),
        }
    }
}

/// One reclaim round's input: how bad things are and how much to free.
#[derive(Debug, Clone, Copy)]
pub struct ReclaimRequest {
    /// The pressure level that triggered the round.
    pub pressure: MemoryPressure,
    /// Best-effort target: pages to free to get back below moderate.
    pub target_pages: u64,
}

/// What one reclaim round achieved.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReclaimOutcome {
    /// Pages actually freed (may be less than the target).
    pub reclaimed_pages: u64,
    /// Synchronous stall charged to the faulting vCPU.
    pub latency: SimTime,
}

/// Running totals a reclaimer maintains; read them through
/// [`crate::memory::VmMemory::reclaim_counters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReclaimCounters {
    /// Faults that triggered a synchronous reclaim round.
    pub pressure_stalls: u64,
    /// Pages evicted to a remote node (borrow).
    pub pages_evicted: u64,
    /// Pages handed back by the balloon driver.
    pub pages_ballooned: u64,
    /// Pages discarded by deflation.
    pub pages_deflated: u64,
    /// Pages demoted to the swap tier.
    pub pages_swapped: u64,
    /// Pages brought back from the swap tier.
    pub pages_swapped_in: u64,
    /// First-touch refaults on ballooned/deflated pages.
    pub refaults: u64,
    /// Total synchronous reclaim stall time.
    pub reclaim_latency: SimTime,
}

/// Shared reclaim bookkeeping: which pages are out, and the counters.
///
/// Lives outside the reclaim round because the access path needs it too
/// (swap-ins and refaults happen on touch, not during reclaim).
#[derive(Debug, Default)]
pub struct ReclaimBook {
    /// Swapped-out pages and the node whose residency they left.
    pub swapped: BTreeMap<PageId, NodeId>,
    /// Swapped-out page count per node (indexed by node id).
    pub swapped_count: Vec<u64>,
    /// Pages discarded by balloon/deflate awaiting a refault.
    pub released: BTreeSet<PageId>,
    /// Pages the balloon currently holds (refault decrements).
    pub balloon_outstanding: u64,
    /// Running totals.
    pub counters: ReclaimCounters,
}

impl ReclaimBook {
    pub(crate) fn swapped_on(&self, node: NodeId) -> u64 {
        self.swapped_count.get(node.index()).copied().unwrap_or(0)
    }

    pub(crate) fn bump_swapped(&mut self, node: NodeId, delta: i64) {
        if self.swapped_count.len() <= node.index() {
            self.swapped_count.resize(node.index() + 1, 0);
        }
        let c = &mut self.swapped_count[node.index()];
        *c = c.saturating_add_signed(delta);
    }
}

/// Elasticity parameters resolved from a [`MemoryConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ElasticParams {
    /// Per-node resident-page budget.
    pub budget_pages: u64,
    /// Pressure watermarks.
    pub thresholds: PressureThresholds,
    /// Nodes the VM spans (the borrow policy's destination universe).
    pub nodes: u32,
    /// Fraction of the budget the balloon may hold at once.
    pub balloon_share: f64,
}

/// Everything a reclaim round may touch, borrowed disjointly from the
/// memory subsystem so a [`ReclaimPolicy`] can run against it.
pub struct ReclaimCtx<'a> {
    /// Simulated time the round starts at.
    pub now: SimTime,
    /// The pressured node.
    pub node: NodeId,
    /// The coherence directory (victim selection, eviction, release).
    pub dsm: &'a mut Dsm,
    /// The guest allocator (deflation shrinks its limit).
    pub alloc: &'a mut RegionAllocator,
    /// The fabric: borrow evictions occupy real link bandwidth.
    pub fabric: &'a mut Fabric,
    /// Shared reclaim bookkeeping.
    pub book: &'a mut ReclaimBook,
    /// Elasticity parameters.
    pub params: &'a ElasticParams,
}

impl ReclaimCtx<'_> {
    /// Pages resident on `node`: owned master copies minus those parked
    /// in the swap tier.
    pub fn resident(&self, node: NodeId) -> u64 {
        self.dsm
            .pages_owned_by(node)
            .saturating_sub(self.book.swapped_on(node))
    }
}

/// Borrow: evict master copies to the remote node with the most headroom.
fn reclaim_borrow(req: &ReclaimRequest, ctx: &mut ReclaimCtx<'_>) -> ReclaimOutcome {
    // Destination: most headroom below the *moderate* watermark, ties
    // to the lowest node id. Filling a donor past its own comfort zone
    // just moves the pressure next door and sets off eviction
    // ping-pong, so a donor is only good for the pages that keep it
    // under Moderate. A cluster with no such donor leaves nothing to
    // borrow — the fault stalls but nothing moves.
    let donor_fill = (ctx.params.thresholds.moderate * ctx.params.budget_pages as f64) as u64;
    let mut best: Option<(u64, u32)> = None;
    for id in 0..ctx.params.nodes {
        if id == ctx.node.0 {
            continue;
        }
        let headroom = donor_fill.saturating_sub(ctx.resident(NodeId::new(id)));
        if headroom > 0 && best.is_none_or(|(h, _)| headroom > h) {
            best = Some((headroom, id));
        }
    }
    let Some((headroom, dst)) = best else {
        return ReclaimOutcome::default();
    };
    let dst = NodeId::new(dst);
    let max = req.target_pages.min(headroom) as usize;
    let rank = |c: PageClass| ReclaimPolicy::Borrow.eviction_priority(c);
    let victims = ctx.dsm.reclaim_victims(ctx.node, max, rank);
    let mut t = ctx.now;
    let mut moved = 0u64;
    for v in victims {
        if ctx.dsm.evict_page(v, dst) {
            // The page body actually crosses the fabric.
            t = crate::memory::dsm_send(
                ctx.fabric,
                t,
                Message::new(ctx.node, dst, DSM_PAGE, MsgClass::Dsm),
            );
            moved += 1;
        }
    }
    ctx.book.counters.pages_evicted += moved;
    ReclaimOutcome {
        reclaimed_pages: moved,
        latency: t - ctx.now,
    }
}

/// Balloon: discard guest-private pages; reuse refaults as first touch.
fn reclaim_balloon(req: &ReclaimRequest, ctx: &mut ReclaimCtx<'_>) -> ReclaimOutcome {
    let cap = (ctx.params.balloon_share * ctx.params.budget_pages as f64) as u64;
    let room = cap.saturating_sub(ctx.book.balloon_outstanding);
    let max = req.target_pages.min(room) as usize;
    if max == 0 {
        return ReclaimOutcome::default();
    }
    let rank = |c: PageClass| ReclaimPolicy::Balloon.eviction_priority(c);
    let victims = ctx.dsm.reclaim_victims(ctx.node, max, rank);
    let mut freed = 0u64;
    for v in victims {
        if ctx.dsm.release_page(v, "balloon").is_some() {
            ctx.book.released.insert(v);
            freed += 1;
        }
    }
    if freed > 0 {
        let at = ctx.now.as_nanos();
        let node = ctx.node.0;
        ctx.dsm.tracer().emit_with(|| TraceEvent::BalloonInflate {
            at,
            node,
            pages: freed,
        });
    }
    ctx.book.balloon_outstanding += freed;
    ctx.book.counters.pages_ballooned += freed;
    ReclaimOutcome {
        reclaimed_pages: freed,
        latency: SimTime::from_nanos(freed * BALLOON_PAGE_COST.as_nanos()),
    }
}

/// Deflate: discard pages *and* shrink the pseudo-physical limit.
fn reclaim_deflate(req: &ReclaimRequest, ctx: &mut ReclaimCtx<'_>) -> ReclaimOutcome {
    let rank = |c: PageClass| ReclaimPolicy::Deflate.eviction_priority(c);
    let victims = ctx
        .dsm
        .reclaim_victims(ctx.node, req.target_pages as usize, rank);
    let mut freed = 0u64;
    for v in victims {
        if ctx.dsm.release_page(v, "deflate").is_some() {
            ctx.book.released.insert(v);
            freed += 1;
        }
    }
    if freed > 0 {
        // The share is gone for good: the guest may not allocate
        // above the deflated limit (clamped to what is in use).
        let limit = ctx.alloc.limit_pages();
        ctx.alloc.set_limit_pages(limit.saturating_sub(freed));
    }
    ctx.book.counters.pages_deflated += freed;
    ReclaimOutcome {
        reclaimed_pages: freed,
        latency: SimTime::from_nanos(freed * DEFLATE_PAGE_COST.as_nanos()),
    }
}

/// Swap: demote pages to a slower tier; the next touch pays the swap-in.
fn reclaim_swap(req: &ReclaimRequest, ctx: &mut ReclaimCtx<'_>) -> ReclaimOutcome {
    // Over-select: victims already in the swap tier (still owned in
    // the directory, so still candidates) are skipped below.
    let want = req.target_pages as usize;
    let rank = |c: PageClass| ReclaimPolicy::Swap.eviction_priority(c);
    let victims = ctx.dsm.reclaim_victims(
        ctx.node,
        want + ctx.book.swapped_on(ctx.node) as usize,
        rank,
    );
    let at = ctx.now.as_nanos();
    let node = ctx.node;
    let mut out = 0u64;
    for v in victims {
        if out as usize >= want {
            break;
        }
        if ctx.book.swapped.contains_key(&v) {
            continue;
        }
        ctx.book.swapped.insert(v, node);
        ctx.book.bump_swapped(node, 1);
        let pg = v.index() as u64;
        ctx.dsm.tracer().emit_with(|| TraceEvent::PageSwapOut {
            at,
            page: pg,
            node: node.0,
        });
        out += 1;
    }
    ctx.book.counters.pages_swapped += out;
    ReclaimOutcome {
        reclaimed_pages: out,
        latency: SimTime::from_nanos(out * SWAP_OUT_PAGE_COST.as_nanos()),
    }
}

/// The elasticity machinery attached to a [`VmMemory`] when a budget and
/// policy are configured.
#[derive(Debug)]
pub struct ElasticState {
    /// Resolved parameters.
    pub params: ElasticParams,
    /// The active policy.
    pub policy: ReclaimPolicy,
    /// Last sampled pressure level per node (trace-on-change).
    pub last_level: Vec<MemoryPressure>,
    /// Shared bookkeeping.
    pub book: ReclaimBook,
}

impl ElasticState {
    pub(crate) fn new(params: ElasticParams, policy: ReclaimPolicy) -> Self {
        ElasticState {
            params,
            policy,
            last_level: Vec::new(),
            book: ReclaimBook::default(),
        }
    }

    pub(crate) fn level_slot(&mut self, node: NodeId) -> &mut MemoryPressure {
        if self.last_level.len() <= node.index() {
            self.last_level
                .resize(node.index() + 1, MemoryPressure::Normal);
        }
        &mut self.last_level[node.index()]
    }
}

/// Builder for a VM's memory subsystem: capacity, layout inputs, and the
/// optional elasticity configuration (budget, watermarks, reclaim policy).
///
/// Replaces the positional `VmMemory::new(profile, vcpus, ram, bootstrap)`
/// — mirroring the `DeviceConfig` builder — and is accepted by
/// `VmBuilder::with_memory`. Elasticity engages only when both a
/// [`MemoryConfig::node_budget`] and a [`MemoryConfig::policy`] are set;
/// otherwise the subsystem behaves exactly as before.
///
/// # Examples
///
/// ```
/// use hypervisor::{HypervisorProfile, MemoryConfig, ReclaimPolicy};
/// use sim_core::units::ByteSize;
///
/// let mem = MemoryConfig::new(ByteSize::gib(4))
///     .vcpus(4)
///     .nodes(4)
///     .node_budget(ByteSize::mib(64))
///     .policy(ReclaimPolicy::Borrow)
///     .build(&HypervisorProfile::fragvisor());
/// assert!(mem.reclaim_counters().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    pub(crate) ram: ByteSize,
    pub(crate) vcpus: usize,
    pub(crate) bootstrap: NodeId,
    pub(crate) nodes: u32,
    pub(crate) budget: Option<ByteSize>,
    pub(crate) thresholds: PressureThresholds,
    pub(crate) policy: Option<ReclaimPolicy>,
    pub(crate) balloon_share: f64,
}

impl MemoryConfig {
    /// Starts a config for a VM with `ram` bytes of guest memory.
    pub fn new(ram: ByteSize) -> Self {
        MemoryConfig {
            ram,
            vcpus: 1,
            bootstrap: NodeId::new(0),
            nodes: 1,
            budget: None,
            thresholds: PressureThresholds::default(),
            policy: None,
            balloon_share: 0.25,
        }
    }

    /// Number of vCPUs (sizes the kernel layout).
    pub fn vcpus(mut self, vcpus: usize) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// The node the guest boots on (home of kernel pages).
    pub fn bootstrap(mut self, node: NodeId) -> Self {
        self.bootstrap = node;
        self
    }

    /// Nodes the VM spans — the borrow policy's destination universe.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Per-node resident-page budget; pressure is resident/budget.
    pub fn node_budget(mut self, budget: ByteSize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Pressure watermarks (defaults: 0.70 / 0.85 / 0.95).
    pub fn thresholds(mut self, t: PressureThresholds) -> Self {
        self.thresholds = t;
        self
    }

    /// The reclaim policy to run under pressure.
    pub fn policy(mut self, policy: ReclaimPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Fraction of the budget the balloon may hold (default 0.25).
    pub fn balloon_share(mut self, share: f64) -> Self {
        self.balloon_share = share;
        self
    }

    /// Builds the memory subsystem; elasticity engages when both a
    /// budget and a policy were configured.
    pub fn build(self, profile: &HypervisorProfile) -> VmMemory {
        let mut mem = VmMemory::new(profile, self.vcpus, self.ram, self.bootstrap);
        mem.enable_elasticity(&self);
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_classify() {
        let t = PressureThresholds::default();
        assert_eq!(t.level(0, 100), MemoryPressure::Normal);
        assert_eq!(t.level(69, 100), MemoryPressure::Normal);
        assert_eq!(t.level(70, 100), MemoryPressure::Moderate);
        assert_eq!(t.level(85, 100), MemoryPressure::High);
        assert_eq!(t.level(95, 100), MemoryPressure::Critical);
        assert_eq!(t.level(200, 100), MemoryPressure::Critical);
        assert_eq!(
            t.level(10, 0),
            MemoryPressure::Normal,
            "no budget, no pressure"
        );
    }

    #[test]
    fn pressure_orders() {
        assert!(MemoryPressure::Critical > MemoryPressure::High);
        assert!(MemoryPressure::High > MemoryPressure::Moderate);
        assert!(MemoryPressure::Moderate > MemoryPressure::Normal);
    }

    #[test]
    fn default_priorities_pin_kernel_structure() {
        let r = ReclaimPolicy::Borrow;
        assert_eq!(r.eviction_priority(PageClass::Private), Some(0));
        assert_eq!(r.eviction_priority(PageClass::KernelText), None);
        assert_eq!(r.eviction_priority(PageClass::PageTable), None);
        assert_eq!(r.eviction_priority(PageClass::DeviceRing), None);
        let b = ReclaimPolicy::Balloon;
        assert_eq!(
            b.eviction_priority(PageClass::AppShared),
            None,
            "balloon is private-only"
        );
    }

    #[test]
    fn policy_labels_stable() {
        let labels: Vec<&str> = ReclaimPolicy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, vec!["borrow", "balloon", "deflate", "swap"]);
    }
}
