//! The directory-based MSI page-coherence protocol.
//!
//! # Directory data layout
//!
//! The directory is built for speed on the simulator's hottest path: every
//! remote access in every figure experiment walks [`Dsm::access`].
//!
//! * Page state lives in a dense **struct-of-arrays slab** (`PageTable`)
//!   indexed directly by page number — pages are dense per-VM, so the
//!   SipHash lookup a `HashMap` would pay on every access becomes a bounds
//!   check and an array read. The access-path fields (owner, mode, sharer
//!   set, generation) and the cold fields (class, busy window) live in
//!   separate arrays so a hit touches the minimum number of cache lines.
//! * Sharer sets are [`NodeSet`] bitsets (one inline `u64` word for up to
//!   64 nodes, spilling to a boxed word vector beyond) — membership is a
//!   bit test, invalidation fan-out is a word scan.
//! * Every page carries a **generation stamp**, bumped on each directory
//!   transition. Per-node log entries record the stamp at which the node
//!   gained its copy: a matching stamp *proves* the entry is still
//!   current, so [`Dsm::drain_node`], [`Dsm::quarantine_node`] and log
//!   compaction skip the per-page membership confirmation for untouched
//!   pages and fall back to the sharer-set check only for pages that
//!   transitioned since. (Stamps are `u64`: wraparound is unreachable.)
//! * Per-node accounting is maintained *incrementally* on every
//!   transition: exact `owned`/`cached` counters (so
//!   [`Dsm::pages_owned_by`], [`Dsm::pages_cached_on`] and
//!   [`Dsm::owned_distribution`] are O(1)/O(nodes) instead of
//!   O(directory)) plus an append-only per-node page log with amortized
//!   compaction, so [`Dsm::drain_node`] walks only the pages the drained
//!   node actually holds instead of the whole directory — while the fault
//!   path pays a single `Vec::push`, not a tree insert.
//! * Sequential scans resolve through [`Dsm::access_batch`], which runs a
//!   whole run of consecutive pages through the directory in one pass and
//!   aggregates the hit trace into a single
//!   [`TraceEvent::DsmHitBatch`] per contiguous hit run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use comm::NodeId;
use sim_core::nodeset::NodeSet;
use sim_core::time::SimTime;
use sim_core::trace::{TraceEvent, Tracer};
use sim_core::units::ByteSize;

use crate::stats::DsmStats;
use crate::PageId;

/// Semantic class of a guest page.
///
/// The hypervisor "knows a lot about the content of the guest physical
/// address space" (§5.1); contextual DSM and the guest-kernel optimizations
/// key off this classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageClass {
    /// Application private data (the common case).
    Private,
    /// Application memory shared between threads.
    AppShared,
    /// Guest kernel text — read-only, replicated freely.
    KernelText,
    /// Guest kernel mutable data (runqueues, slab, counters).
    KernelData,
    /// Guest page tables — targets of the contextual-DSM optimization.
    PageTable,
    /// VirtIO ring buffers living in guest RAM.
    DeviceRing,
}

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Coherence mode of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exactly one copy, writable by its owner.
    Exclusive,
    /// One or more read-only copies; the owner retains the master copy.
    Shared,
}

/// Owner sentinel marking an unallocated slab slot.
const ABSENT: u32 = u32::MAX;

/// log2 of [`CHUNK`].
const CHUNK_BITS: u32 = 12;
/// Slots per page-table chunk (one 16 MiB guest span per chunk).
const CHUNK: usize = 1 << CHUNK_BITS;

/// Sharer set returned for pages in never-allocated chunks.
static EMPTY_SHARERS: NodeSet = NodeSet::new();

/// One dense struct-of-arrays tile of the page-id space.
///
/// The hot arrays (`owner`, `mode`, `sharers`, `gen`) are what
/// [`Dsm::access`] touches; `class` and `busy_until` are only read on
/// faults and by the fault executor.
#[derive(Debug, Clone)]
struct Chunk {
    owner: Vec<u32>,
    mode: Vec<Mode>,
    sharers: Vec<NodeSet>,
    /// Generation stamp, bumped on every transition of the slot (including
    /// release + re-allocation, so stamps are monotone per slot).
    gen: Vec<u64>,
    class: Vec<PageClass>,
    busy_until: Vec<SimTime>,
    /// Cluster epoch at the last ownership grant: a copy granted before a
    /// fence is provably stale relative to any re-grant after it.
    epoch: Vec<u64>,
    /// One bit per slot (64 words), allocated by the first log compaction
    /// that reaches the chunk: the pages a compaction pass has already
    /// kept. All zero between passes.
    marks: Vec<u64>,
}

impl Chunk {
    fn new() -> Box<Chunk> {
        Box::new(Chunk {
            owner: vec![ABSENT; CHUNK],
            mode: vec![Mode::Exclusive; CHUNK],
            sharers: std::iter::repeat_with(NodeSet::default)
                .take(CHUNK)
                .collect(),
            gen: vec![0; CHUNK],
            class: vec![PageClass::Private; CHUNK],
            busy_until: vec![SimTime::ZERO; CHUNK],
            epoch: vec![0; CHUNK],
            marks: Vec::new(),
        })
    }
}

/// The two-level struct-of-arrays page table, indexed by page number:
/// a vector of [`CHUNK`]-slot tiles, allocated the first time any page
/// in their range is declared.
///
/// Chunking matters because workloads address sparse bands of the page
/// space (the micro scenarios sit at page 2M by design): a flat slab
/// sized to the highest id would zero tens of MiB per short-lived
/// directory, dominating small experiments. A chunk lookup is one
/// shift + bounds-checked load, so per-access cost stays O(1).
///
/// Presence is encoded in the `owner` array ([`ABSENT`] = no entry).
/// Chunks are never reclaimed while the directory lives, and releasing a
/// page resets its slot and bumps its generation, so stale log entries
/// can never resurrect it — generation monotonicity survives release.
#[derive(Debug, Clone, Default)]
struct PageTable {
    chunks: Vec<Option<Box<Chunk>>>,
    /// Number of present entries.
    live: usize,
}

impl PageTable {
    #[inline]
    fn chunk(&self, idx: usize) -> Option<&Chunk> {
        self.chunks
            .get(idx >> CHUNK_BITS)
            .and_then(|c| c.as_deref())
    }

    /// The (allocated) chunk covering `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the chunk was never allocated — mutation sites only run
    /// on pages that passed a `present` check or a `grow_to`.
    #[inline]
    fn chunk_mut(&mut self, idx: usize) -> &mut Chunk {
        self.chunks[idx >> CHUNK_BITS]
            .as_deref_mut()
            .expect("page-table chunk")
    }

    /// Whether an access by `node` is served without a transition: a
    /// read of a page it holds, or a write to a page it owns exclusively.
    #[inline]
    fn hits(&self, idx: usize, node: u32, access: Access) -> bool {
        self.chunk(idx).is_some_and(|c| {
            let i = idx & (CHUNK - 1);
            match access {
                Access::Read => c.sharers[i].contains(node),
                Access::Write => c.owner[i] == node && c.mode[i] == Mode::Exclusive,
            }
        })
    }

    #[inline]
    fn present(&self, idx: usize) -> bool {
        self.chunk(idx)
            .is_some_and(|c| c.owner[idx & (CHUNK - 1)] != ABSENT)
    }

    /// The chunk covering `idx`, allocated if it does not exist yet.
    fn grow_to(&mut self, idx: usize) -> &mut Chunk {
        let ci = idx >> CHUNK_BITS;
        if self.chunks.len() <= ci {
            self.chunks.resize_with(ci + 1, || None);
        }
        self.chunks[ci].get_or_insert_with(Chunk::new)
    }

    #[inline]
    fn owner(&self, idx: usize) -> u32 {
        self.chunk(idx)
            .map_or(ABSENT, |c| c.owner[idx & (CHUNK - 1)])
    }

    #[inline]
    fn set_owner(&mut self, idx: usize, v: u32) {
        self.chunk_mut(idx).owner[idx & (CHUNK - 1)] = v;
    }

    #[inline]
    fn mode(&self, idx: usize) -> Mode {
        self.chunk(idx)
            .map_or(Mode::Exclusive, |c| c.mode[idx & (CHUNK - 1)])
    }

    #[inline]
    fn set_mode(&mut self, idx: usize, v: Mode) {
        self.chunk_mut(idx).mode[idx & (CHUNK - 1)] = v;
    }

    #[inline]
    fn sharers(&self, idx: usize) -> &NodeSet {
        self.chunk(idx)
            .map_or(&EMPTY_SHARERS, |c| &c.sharers[idx & (CHUNK - 1)])
    }

    #[inline]
    fn sharers_mut(&mut self, idx: usize) -> &mut NodeSet {
        &mut self.chunk_mut(idx).sharers[idx & (CHUNK - 1)]
    }

    #[inline]
    fn gen(&self, idx: usize) -> u64 {
        self.chunk(idx).map_or(0, |c| c.gen[idx & (CHUNK - 1)])
    }

    /// Bumps the slot's generation and returns the new value (the stamp
    /// for a log entry recording this transition).
    #[inline]
    fn bump_gen(&mut self, idx: usize) -> u64 {
        let g = &mut self.chunk_mut(idx).gen[idx & (CHUNK - 1)];
        *g += 1;
        *g
    }

    #[inline]
    fn class(&self, idx: usize) -> PageClass {
        self.chunk(idx)
            .map_or(PageClass::Private, |c| c.class[idx & (CHUNK - 1)])
    }

    #[inline]
    fn busy_until(&self, idx: usize) -> SimTime {
        self.chunk(idx)
            .map_or(SimTime::ZERO, |c| c.busy_until[idx & (CHUNK - 1)])
    }

    #[inline]
    fn epoch(&self, idx: usize) -> u64 {
        self.chunk(idx).map_or(0, |c| c.epoch[idx & (CHUNK - 1)])
    }

    /// Indices of all present entries, ascending (verification paths only).
    fn iter_present(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, c)| {
            let base = ci << CHUNK_BITS;
            c.as_deref()
                .map(move |c| {
                    (0..CHUNK)
                        .filter(move |&i| c.owner[i] != ABSENT)
                        .map(move |i| base | i)
                })
                .into_iter()
                .flatten()
        })
    }
}

/// One append-only log record: `node` gained a copy of `page` while the
/// page's generation was `stamp`. If the page's generation still equals
/// `stamp`, the record is provably current (the page has not transitioned
/// since), so consumers skip the membership confirmation.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    page: PageId,
    stamp: u64,
}

/// Incrementally-maintained accounting for one node, updated on every
/// directory transition.
///
/// The counters are exact (every transition adds/subtracts), which makes
/// the accounting queries O(1). The page *index* is an append-only log:
/// gaining a copy or ownership pushes one entry (a `Vec::push`, so the
/// fault path pays almost nothing); *losing* a copy leaves a stale entry
/// behind. [`Dsm::drain_node`] sorts + dedups the log and skips entries
/// the directory no longer confirms, and amortized compaction
/// ([`Dsm::maybe_compact`]) keeps each log within a constant factor of the
/// node's live footprint. Log order carries no meaning.
///
/// Invariant: every page where this node is a sharer (or owner) has at
/// least one log entry. Compaction preserves it, and only compaction or
/// drain remove entries.
#[derive(Debug, Clone, Default)]
struct NodeIndex {
    /// Pages whose master copy lives on this node (excludes bulk pages).
    owned: u64,
    /// Pages this node holds a valid copy of (owned or shared).
    cached: u64,
    /// Append-only candidate index: every page this node gained a copy of
    /// since the last compaction (may contain stale entries + duplicates).
    log: Vec<LogEntry>,
}

/// Logs below this length never compact (the pass isn't worth it).
const COMPACT_MIN: usize = 64;

/// The index slot for `node`, growing the table on first sight. A free
/// function (not a method) so callers can hold a page-table borrow and
/// still update the node indices — the borrows are on disjoint fields.
#[inline]
fn slot(nodes: &mut Vec<NodeIndex>, node: NodeId) -> &mut NodeIndex {
    let i = node.index();
    if nodes.len() <= i {
        nodes.resize_with(i + 1, NodeIndex::default);
    }
    &mut nodes[i]
}

/// Sorts a log so the freshest record of each page comes first, then
/// keeps exactly one record per page.
fn sort_dedup(log: &mut Vec<LogEntry>) {
    log.sort_unstable_by_key(|e| (e.page, Reverse(e.stamp)));
    log.dedup_by_key(|e| e.page);
}

/// The protocol action a fault requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Fetch a read-only copy from the owner.
    ReadRemote {
        /// Current owner holding the master copy.
        owner: NodeId,
    },
    /// The faulting node owns the page but must invalidate other sharers
    /// before writing.
    Upgrade {
        /// Sharers to invalidate (never contains the faulting node).
        invalidate: Vec<NodeId>,
    },
    /// Fetch the page with ownership; the old owner invalidates sharers.
    WriteRemote {
        /// Previous owner.
        owner: NodeId,
        /// Sharers the old owner must invalidate (excludes the faulting
        /// node and the old owner itself).
        invalidate: Vec<NodeId>,
    },
}

/// A fault and everything the executor needs to cost it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faulting page.
    pub page: PageId,
    /// Message choreography required.
    pub kind: FaultKind,
    /// Class of the page (affects contextual-DSM handling).
    pub class: PageClass,
    /// Whether the contextual-DSM shortcut applies (invalidation round
    /// piggybacked on an already-sent TLB-shootdown IPI).
    pub contextual: bool,
    /// Whether an extra dirty-bit bookkeeping message is required.
    pub dirty_bit_msg: bool,
    /// Additional pages piggybacked on the same response (read prefetch).
    pub prefetched: Vec<PageId>,
}

/// Outcome of a guest memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// The access hits a valid local mapping; no protocol action.
    Hit,
    /// The access faults; the executor must play out the plan.
    Fault(FaultPlan),
    /// The accessing node is fenced at a stale epoch: the directory
    /// refused the access without mutating any state. The caller charges
    /// a stall; the guest's effect is discarded (split-brain minority
    /// semantics — the write can never corrupt re-granted pages).
    Rejected,
}

/// Outcome of a batched run of accesses ([`Dsm::access_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Accesses that resolved without protocol traffic: valid local
    /// mappings plus first-touch allocations.
    pub hits: u64,
    /// Plans for the accesses that faulted, in ascending page order. The
    /// directory transitions are already applied; the executor costs each
    /// plan exactly as it would a plan from [`Dsm::access`].
    pub faults: Vec<FaultPlan>,
    /// Accesses rejected because the node is fenced at a stale epoch
    /// (all-or-nothing: a fenced node's whole batch is rejected).
    pub rejected: u64,
}

/// DSM configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsmConfig {
    /// Page size (4 KiB everywhere in the paper).
    pub page_size: ByteSize,
    /// Contextual DSM: elide invalidation rounds for page-table pages.
    pub contextual: bool,
    /// EPT dirty-bit tracking (vanilla KVM). FragVisor disables it because
    /// the DSM already tracks dirtiness, making the EPT traffic redundant.
    pub dirty_bit_tracking: bool,
    /// Sequential read prefetch: on a read fault, up to this many
    /// following pages with the same owner ride the same response
    /// (an extension beyond the paper; 0 disables).
    pub read_prefetch: u32,
}

impl DsmConfig {
    /// FragVisor's configuration: contextual DSM on, dirty-bit traffic off.
    pub fn fragvisor() -> Self {
        DsmConfig {
            page_size: ByteSize::kib(4),
            contextual: true,
            dirty_bit_tracking: false,
            read_prefetch: 0,
        }
    }

    /// An unoptimized configuration (GiantVM-like / vanilla guest).
    pub fn unoptimized() -> Self {
        DsmConfig {
            page_size: ByteSize::kib(4),
            contextual: false,
            dirty_bit_tracking: true,
            read_prefetch: 0,
        }
    }
}

/// The per-VM DSM directory.
#[derive(Debug, Clone)]
pub struct Dsm {
    config: DsmConfig,
    pt: PageTable,
    /// Bulk-registered resident pages per home node: datasets that exist
    /// (and are checkpointed, migrated, etc.) but are never accessed
    /// individually by a program. Keeps multi-GiB guests cheap to model.
    bulk: BTreeMap<NodeId, u64>,
    /// Per-node incremental indices (`nodes[i]` is node `i`); grown on
    /// demand. Kept in sync with the page table on every transition so the
    /// accounting queries never scan the directory.
    nodes: Vec<NodeIndex>,
    stats: DsmStats,
    tracer: Tracer,
    /// Clock hint stamped on trace events. The directory itself is untimed
    /// (transitions apply eagerly); the fault executor updates this via
    /// [`Dsm::set_clock`] so traces carry the triggering access's time.
    clock: SimTime,
    /// Cluster epoch: bumped by the failure detector on every declaration
    /// ([`Dsm::bump_epoch`]); grants stamp it onto pages.
    cluster_epoch: u64,
    /// Per-node believed epoch, grown on demand. A node absent from the
    /// table is implicitly current (it syncs on every bump).
    node_epoch: Vec<u64>,
    /// Nodes fenced at a stale epoch: every access they issue is rejected
    /// until [`Dsm::rejoin_node`] resyncs them.
    fenced: Vec<bool>,
}

impl Dsm {
    /// Creates an empty directory.
    pub fn new(config: DsmConfig) -> Self {
        Dsm {
            config,
            pt: PageTable::default(),
            bulk: BTreeMap::new(),
            nodes: Vec::new(),
            stats: DsmStats::default(),
            tracer: Tracer::disabled(),
            clock: SimTime::ZERO,
            cluster_epoch: 0,
            node_epoch: Vec::new(),
            fenced: Vec::new(),
        }
    }

    /// Attaches a trace sink; directory transitions emit typed events.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Updates the clock hint stamped on subsequent trace events.
    pub fn set_clock(&mut self, now: SimTime) {
        self.clock = now;
    }

    /// The configuration in force.
    pub fn config(&self) -> DsmConfig {
        self.config
    }

    /// The current cluster epoch.
    pub fn cluster_epoch(&self) -> u64 {
        self.cluster_epoch
    }

    /// The epoch `node` believes in. Lags [`Dsm::cluster_epoch`] exactly
    /// while the node is fenced.
    pub fn node_epoch(&self, node: NodeId) -> u64 {
        self.node_epoch
            .get(node.index())
            .copied()
            .unwrap_or(self.cluster_epoch)
    }

    /// Whether `node` is fenced at a stale epoch (every access rejected).
    pub fn is_fenced(&self, node: NodeId) -> bool {
        self.fenced.get(node.index()).copied().unwrap_or(false)
    }

    /// The cluster epoch stamped at the page's last grant, if allocated.
    pub fn page_epoch(&self, page: PageId) -> Option<u64> {
        let idx = page.index();
        self.pt.present(idx).then(|| self.pt.epoch(idx))
    }

    /// Bumps the cluster epoch for the declaration of `dead`: every live
    /// node syncs to the new epoch, `dead` is fenced at the epoch it last
    /// believed in, and an [`TraceEvent::EpochBump`] is emitted. Returns
    /// the new epoch.
    ///
    /// Called by the failure detector on every `NodeDeclaredDead`
    /// (crashed *and* partitioned nodes alike — the detector cannot tell
    /// them apart, which is the whole point of fencing). Idempotent per
    /// declaration, not per node: declaring two nodes dead bumps twice.
    pub fn bump_epoch(&mut self, dead: NodeId) -> u64 {
        let prev = self.cluster_epoch;
        self.cluster_epoch += 1;
        let epoch = self.cluster_epoch;
        let di = dead.index();
        if self.fenced.len() <= di {
            self.fenced.resize(di + 1, false);
        }
        if self.node_epoch.len() <= di {
            self.node_epoch.resize(di + 1, prev);
        }
        for (i, e) in self.node_epoch.iter_mut().enumerate() {
            if i != di && !self.fenced.get(i).copied().unwrap_or(false) {
                *e = epoch;
            }
        }
        // The dead node keeps whatever epoch it last synced to.
        self.fenced[di] = true;
        self.stats.epoch_bumps += 1;
        self.tracer.emit_with(|| TraceEvent::EpochBump {
            at: self.clock.as_nanos(),
            epoch,
            dead: dead.0,
        });
        epoch
    }

    /// Rejoins a fenced node after its partition healed: any copy it
    /// still holds is discarded (it cannot know what changed behind the
    /// fence), its epoch resyncs to the cluster epoch, and it returns to
    /// service as a donor. Emits one [`TraceEvent::DsmInvalidate`] per
    /// discarded copy and a closing [`TraceEvent::NodeRejoin`]. Returns
    /// `(epoch, discarded)`.
    ///
    /// A node that was quarantined at declaration holds nothing, so
    /// `discarded` is usually 0; the discard sweep covers the window
    /// where a heal lands between fence and quarantine.
    pub fn rejoin_node(&mut self, node: NodeId) -> (u64, u64) {
        let i = node.index();
        let epoch = self.cluster_epoch;
        let was_fenced = self.is_fenced(node);
        if i < self.fenced.len() {
            self.fenced[i] = false;
        }
        if self.node_epoch.len() <= i {
            self.node_epoch.resize(i + 1, epoch);
        }
        self.node_epoch[i] = epoch;
        let mut discarded = 0u64;
        if was_fenced && i < self.nodes.len() {
            let at = self.clock.as_nanos();
            let mut log = std::mem::take(&mut self.nodes[i].log);
            sort_dedup(&mut log);
            for e in log {
                let idx = e.page.index();
                if !self.pt.present(idx) || !self.pt.sharers(idx).contains(node.0) {
                    continue;
                }
                if self.pt.owner(idx) == node.0 {
                    // Never discard a master copy: if the heal landed
                    // before quarantine re-homed the node's pages, the
                    // only valid data still lives here. Keep its log
                    // entry so drain/quarantine can still find it.
                    let stamp = self.pt.gen(idx);
                    self.nodes[i].log.push(LogEntry {
                        page: e.page,
                        stamp,
                    });
                    continue;
                }
                self.pt.sharers_mut(idx).remove(node.0);
                self.pt.bump_gen(idx);
                self.nodes[i].cached -= 1;
                discarded += 1;
                let pg = u64::from(e.page.0);
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: node.0,
                });
            }
        }
        self.stats.rejoins += 1;
        self.tracer.emit_with(|| TraceEvent::NodeRejoin {
            at: self.clock.as_nanos(),
            node: node.0,
            epoch,
            discarded,
        });
        debug_assert!(self.verify_indices().is_ok(), "{:?}", self.verify_indices());
        (epoch, discarded)
    }

    /// Declares a page, backed on `home` (first-touch allocation). A page
    /// that already exists is left untouched.
    pub fn ensure_page(&mut self, page: PageId, home: NodeId, class: PageClass) {
        let idx = page.index();
        let (c, i) = (self.pt.grow_to(idx), idx & (CHUNK - 1));
        if c.owner[i] != ABSENT {
            return;
        }
        self.tracer.emit_with(|| TraceEvent::DsmAlloc {
            at: self.clock.as_nanos(),
            page: u64::from(page.0),
            home: home.0,
        });
        c.owner[i] = home.0;
        c.mode[i] = Mode::Exclusive;
        c.sharers[i].clear();
        c.sharers[i].insert(home.0);
        c.class[i] = class;
        c.busy_until[i] = SimTime::ZERO;
        c.epoch[i] = self.cluster_epoch;
        c.gen[i] += 1;
        let stamp = c.gen[i];
        self.pt.live += 1;
        let ni = slot(&mut self.nodes, home);
        ni.owned += 1;
        ni.cached += 1;
        ni.log.push(LogEntry { page, stamp });
    }

    /// Returns whether the page is known to the directory.
    pub fn contains(&self, page: PageId) -> bool {
        self.pt.present(page.index())
    }

    /// Current owner of a page, if allocated.
    pub fn owner(&self, page: PageId) -> Option<NodeId> {
        let idx = page.index();
        self.pt
            .present(idx)
            .then(|| NodeId::new(self.pt.owner(idx)))
    }

    /// Current mode of a page, if allocated.
    pub fn mode(&self, page: PageId) -> Option<Mode> {
        let idx = page.index();
        self.pt.present(idx).then(|| self.pt.mode(idx))
    }

    /// Class of a page, if allocated.
    pub fn class(&self, page: PageId) -> Option<PageClass> {
        let idx = page.index();
        self.pt.present(idx).then(|| self.pt.class(idx))
    }

    /// Whether `node` holds a valid copy of `page`.
    pub fn is_cached(&self, page: PageId, node: NodeId) -> bool {
        let idx = page.index();
        self.pt.present(idx) && self.pt.sharers(idx).contains(node.0)
    }

    /// Completion time of the last transaction on this page; a new fault
    /// must queue behind it (directory serialization).
    pub fn busy_until(&self, page: PageId) -> SimTime {
        // An absent slot's horizon is zero: allocation and release reset it.
        self.pt.busy_until(page.index())
    }

    /// Records the completion time of an executed transaction.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown.
    pub fn set_busy(&mut self, page: PageId, until: SimTime) {
        let idx = page.index();
        assert!(self.pt.present(idx), "set_busy on unknown page");
        let b = &mut self.pt.chunk_mut(idx).busy_until[idx & (CHUNK - 1)];
        *b = (*b).max(until);
    }

    /// Classifies an access by `node` to `page`, applying the directory
    /// transition for faults eagerly.
    ///
    /// Unknown pages are first-touch allocated on the accessing node
    /// (a zero-fill mapping, free of DSM traffic) and report a [`Resolution::Hit`].
    pub fn access(&mut self, node: NodeId, page: PageId, access: Access) -> Resolution {
        self.access_classified(node, page, access, PageClass::Private, None)
    }

    /// Like [`Dsm::access`], but first-touch allocations take the given
    /// class instead of [`PageClass::Private`], and `home_on_alloc` picks
    /// their home exactly as in [`Dsm::access_batch`].
    pub fn access_classified(
        &mut self,
        node: NodeId,
        page: PageId,
        access: Access,
        class_on_alloc: PageClass,
        home_on_alloc: Option<NodeId>,
    ) -> Resolution {
        if self.is_fenced(node) {
            // A fenced node mutates nothing — not even a first touch.
            self.reject_stale(node, page);
            return Resolution::Rejected;
        }
        let idx = page.index();
        if !self.pt.present(idx) {
            let Some(home) = home_on_alloc else {
                // First touch: allocate locally, no protocol traffic.
                self.ensure_page(page, node, class_on_alloc);
                self.stats.first_touches += 1;
                return Resolution::Hit;
            };
            self.ensure_page(page, home, class_on_alloc);
        }
        if self.pt.hits(idx, node.0, access) {
            self.stats.hits += 1;
            self.tracer.emit_with(|| TraceEvent::DsmHit {
                at: self.clock.as_nanos(),
                page: u64::from(page.0),
                node: node.0,
                write: access == Access::Write,
            });
            return Resolution::Hit;
        }
        let plan = match access {
            Access::Read => self.read_fault(node, page),
            Access::Write => self.write_fault(node, page),
        };
        // Fault paths may have appended to the faulting node's page log;
        // bound it (amortized) now that the transition is applied.
        self.maybe_compact(node);
        Resolution::Fault(plan)
    }

    /// Resolves a run of `len` consecutive pages starting at `start`, all
    /// accessed by `node` with the same `access`, in one directory pass —
    /// the sequential-scan shape the workloads emit.
    ///
    /// Semantically identical to calling [`Dsm::access_classified`] on
    /// each page in ascending order (same transitions, same statistics,
    /// same fault plans in the same order), except that contiguous runs of
    /// hits emit one aggregated [`TraceEvent::DsmHitBatch`] instead of a
    /// `DsmHit` per page.
    ///
    /// `home_on_alloc` controls first-touch behaviour for unknown pages:
    /// `None` allocates on the accessing node and counts a first touch
    /// (exactly [`Dsm::access`]'s behaviour); `Some(home)` pre-allocates
    /// on `home` and then resolves the access against it (exactly the
    /// hypervisor's ensure-then-access sequence, faulting when
    /// `home != node`).
    pub fn access_batch(
        &mut self,
        node: NodeId,
        start: PageId,
        len: u32,
        access: Access,
        class_on_alloc: PageClass,
        home_on_alloc: Option<NodeId>,
    ) -> BatchOutcome {
        if self.is_fenced(node) {
            // All-or-nothing: the whole batch is rejected, one event per
            // page, exactly as the sequential path would emit.
            for i in 0..len {
                self.reject_stale(node, PageId::new(start.0 + i));
            }
            return BatchOutcome {
                hits: 0,
                faults: Vec::new(),
                rejected: u64::from(len),
            };
        }
        let mut hits = 0u64;
        let mut faults = Vec::new();
        // Current aggregated hit run: (first page, length).
        let mut run: Option<(u64, u64)> = None;
        let write = access == Access::Write;
        let at = self.clock.as_nanos();
        for i in 0..len {
            let page = PageId::new(start.0 + i);
            let idx = page.index();
            if !self.pt.present(idx) {
                // Keep trace order identical to the sequential path: the
                // DsmAlloc lands after the preceding hits' batch event.
                self.flush_hit_run(&mut run, node, write, at);
                match home_on_alloc {
                    None => {
                        self.ensure_page(page, node, class_on_alloc);
                        self.stats.first_touches += 1;
                        hits += 1;
                        continue;
                    }
                    Some(home) => self.ensure_page(page, home, class_on_alloc),
                }
            }
            if self.pt.hits(idx, node.0, access) {
                self.stats.hits += 1;
                hits += 1;
                run = match run {
                    Some((s, l)) => Some((s, l + 1)),
                    None => Some((u64::from(page.0), 1)),
                };
                continue;
            }
            self.flush_hit_run(&mut run, node, write, at);
            let plan = match access {
                Access::Read => self.read_fault(node, page),
                Access::Write => self.write_fault(node, page),
            };
            self.maybe_compact(node);
            faults.push(plan);
        }
        self.flush_hit_run(&mut run, node, write, at);
        BatchOutcome {
            hits,
            faults,
            rejected: 0,
        }
    }

    /// Emits the pending aggregated hit-run event, if any.
    fn flush_hit_run(&mut self, run: &mut Option<(u64, u64)>, node: NodeId, write: bool, at: u64) {
        if let Some((page, len)) = run.take() {
            self.tracer.emit_with(|| TraceEvent::DsmHitBatch {
                at,
                page,
                len,
                node: node.0,
                write,
            });
        }
    }

    /// Records (stats + trace) the rejection of one access from a fenced
    /// node. No directory state is touched.
    fn reject_stale(&mut self, node: NodeId, page: PageId) {
        self.stats.stale_rejections += 1;
        self.tracer.emit_with(|| TraceEvent::StaleEpochRejected {
            at: self.clock.as_nanos(),
            node: node.0,
            page: u64::from(page.0),
            node_epoch: self.node_epoch(node),
            cluster_epoch: self.cluster_epoch,
        });
    }

    /// Applies the read-miss transition (fetch a shared copy from the
    /// owner) and returns the plan. The caller has established that the
    /// page is present and `node` holds no copy.
    fn read_fault(&mut self, node: NodeId, page: PageId) -> FaultPlan {
        let idx = page.index();
        let at = self.clock.as_nanos();
        let pg = u64::from(page.0);
        let (c, i) = (self.pt.chunk_mut(idx), idx & (CHUNK - 1));
        let class = c.class[i];
        let owner = NodeId::new(c.owner[i]);
        c.mode[i] = Mode::Shared;
        c.sharers[i].insert(node.0);
        c.epoch[i] = self.cluster_epoch;
        c.gen[i] += 1;
        let stamp = c.gen[i];
        let ni = slot(&mut self.nodes, node);
        ni.cached += 1;
        ni.log.push(LogEntry { page, stamp });
        self.stats.read_faults += 1;
        self.tracer.emit_with(|| TraceEvent::DsmFault {
            at,
            page: pg,
            node: node.0,
            kind: "read_remote",
        });
        self.tracer.emit_with(|| TraceEvent::DsmGrant {
            at,
            page: pg,
            node: node.0,
            exclusive: false,
        });
        let prefetched = self.prefetch_reads(node, page, owner);
        FaultPlan {
            page,
            kind: FaultKind::ReadRemote { owner },
            class,
            contextual: false,
            dirty_bit_msg: false,
            prefetched,
        }
    }

    /// Applies the write-miss transition (upgrade or ownership transfer)
    /// and returns the plan. The caller has established that the page is
    /// present and `node` does not hold it exclusively.
    fn write_fault(&mut self, node: NodeId, page: PageId) -> FaultPlan {
        let idx = page.index();
        let at = self.clock.as_nanos();
        let pg = u64::from(page.0);
        let (c, i) = (self.pt.chunk_mut(idx), idx & (CHUNK - 1));
        let class = c.class[i];
        let contextual = self.config.contextual && class == PageClass::PageTable;
        let dirty_bit_msg = self.config.dirty_bit_tracking;
        let is_owner = c.owner[i] == node.0;
        let plan = if is_owner {
            // Owner upgrades a shared page: invalidate other copies.
            let mut invalidate = Vec::new();
            for s in c.sharers[i].iter() {
                if s == node.0 {
                    continue;
                }
                invalidate.push(NodeId::new(s));
                slot(&mut self.nodes, NodeId::new(s)).cached -= 1;
            }
            self.stats.invalidations += invalidate.len() as u64;
            self.tracer.emit_with(|| TraceEvent::DsmFault {
                at,
                page: pg,
                node: node.0,
                kind: "upgrade",
            });
            for &s in &invalidate {
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: s.0,
                });
            }
            FaultPlan {
                page,
                kind: FaultKind::Upgrade { invalidate },
                class,
                contextual,
                dirty_bit_msg,
                prefetched: Vec::new(),
            }
        } else {
            let owner = NodeId::new(c.owner[i]);
            let mut invalidate = Vec::new();
            let mut node_had_copy = false;
            for s in c.sharers[i].iter() {
                if s == node.0 {
                    node_had_copy = true;
                    continue;
                }
                if s == owner.0 {
                    continue;
                }
                invalidate.push(NodeId::new(s));
                slot(&mut self.nodes, NodeId::new(s)).cached -= 1;
            }
            // The old owner gives up its copy along with ownership;
            // the writer gains ownership (and a copy, unless its
            // shared copy upgrades in place).
            let o = slot(&mut self.nodes, owner);
            o.owned -= 1;
            o.cached -= 1;
            self.stats.invalidations += (invalidate.len() + 1) as u64;
            self.tracer.emit_with(|| TraceEvent::DsmFault {
                at,
                page: pg,
                node: node.0,
                kind: "write_remote",
            });
            for &s in &invalidate {
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: s.0,
                });
            }
            self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                at,
                page: pg,
                node: owner.0,
            });
            self.tracer.emit_with(|| TraceEvent::DsmOwnerTransfer {
                at,
                page: pg,
                from: owner.0,
                to: node.0,
            });
            let ni = slot(&mut self.nodes, node);
            ni.owned += 1;
            if !node_had_copy {
                ni.cached += 1;
                // The stamp the transition below gives the page.
                ni.log.push(LogEntry {
                    page,
                    stamp: c.gen[i] + 1,
                });
            }
            FaultPlan {
                page,
                kind: FaultKind::WriteRemote { owner, invalidate },
                class,
                contextual,
                dirty_bit_msg,
                prefetched: Vec::new(),
            }
        };
        c.owner[i] = node.0;
        c.mode[i] = Mode::Exclusive;
        c.sharers[i].clear();
        c.sharers[i].insert(node.0);
        c.epoch[i] = self.cluster_epoch;
        c.gen[i] += 1;
        self.stats.write_faults += 1;
        self.tracer.emit_with(|| TraceEvent::DsmGrant {
            at,
            page: pg,
            node: node.0,
            exclusive: true,
        });
        plan
    }

    /// Registers `pages` resident pages homed on `home` without creating
    /// per-page directory entries.
    ///
    /// Use for large at-rest datasets (multi-GiB checkpointing workloads)
    /// that contribute to footprint accounting but are never accessed
    /// through [`Dsm::access`]. Bulk pages are invisible to [`Dsm::access`]:
    /// they never fault, never appear in sharer sets, and only show up in
    /// the accounting queries ([`Dsm::pages_owned_by`],
    /// [`Dsm::owned_distribution`], [`Dsm::total_pages`]) and in
    /// [`Dsm::drain_node`], which moves them wholesale.
    pub fn register_bulk(&mut self, home: NodeId, pages: u64) {
        *self.bulk.entry(home).or_insert(0) += pages;
    }

    /// Transitions up to `read_prefetch` pages following `page` (same
    /// owner, not yet cached by `node`) to shared-with-`node`, returning
    /// them so the executor can piggyback their data on the response.
    fn prefetch_reads(&mut self, node: NodeId, page: PageId, owner: NodeId) -> Vec<PageId> {
        let n = self.config.read_prefetch;
        if n == 0 {
            return Vec::new();
        }
        let at = self.clock.as_nanos();
        let mut out = Vec::new();
        for i in 1..=n {
            let next = PageId::new(page.0 + i);
            let idx = next.index();
            if !self.pt.present(idx) {
                break;
            }
            if self.pt.owner(idx) != owner.0 || self.pt.sharers(idx).contains(node.0) {
                break;
            }
            self.pt.set_mode(idx, Mode::Shared);
            self.pt.sharers_mut(idx).insert(node.0);
            let stamp = self.pt.bump_gen(idx);
            let ni = slot(&mut self.nodes, node);
            ni.cached += 1;
            ni.log.push(LogEntry { page: next, stamp });
            self.tracer.emit_with(|| TraceEvent::DsmPrefetch {
                at,
                page: u64::from(next.0),
                node: node.0,
                owner: owner.0,
            });
            out.push(next);
            self.stats.prefetched += 1;
        }
        out
    }

    /// The attached trace sink (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-node count of pages whose master copy lives there (including
    /// bulk-registered pages), ascending by node id. Nodes owning nothing
    /// are omitted. O(nodes): reads the incremental indices, never the
    /// directory.
    pub fn owned_distribution(&self) -> Vec<(NodeId, u64)> {
        let mut map = self.bulk.clone();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.owned > 0 {
                *map.entry(NodeId::from_usize(i)).or_insert(0) += n.owned;
            }
        }
        map.into_iter().filter(|&(_, c)| c > 0).collect()
    }

    /// Number of pages whose master copy lives on `node`. O(1).
    pub fn pages_owned_by(&self, node: NodeId) -> u64 {
        self.nodes.get(node.index()).map_or(0, |n| n.owned)
            + self.bulk.get(&node).copied().unwrap_or(0)
    }

    /// Number of pages `node` holds a valid copy of (owned or shared).
    /// O(1).
    pub fn pages_cached_on(&self, node: NodeId) -> u64 {
        self.nodes.get(node.index()).map_or(0, |n| n.cached)
    }

    /// Compacts `node`'s page log once it has outgrown the node's live
    /// footprint. Amortized O(1) per log push — a compaction of length L
    /// is paid for by the ≥ L/2 pushes (or invalidations) since the last
    /// one.
    fn maybe_compact(&mut self, node: NodeId) {
        let Some(ni) = self.nodes.get(node.index()) else {
            return;
        };
        if ni.log.len() >= COMPACT_MIN && (ni.log.len() as u64) >= ni.cached.saturating_mul(2) {
            self.compact(node);
        }
    }

    /// Rewrites `node`'s log to hold each page the node still holds
    /// exactly once, in one pass and without sorting: an entry stays only
    /// if the directory confirms the copy and no earlier entry for the
    /// page was kept (the chunk's mark bitmap says so; the pass clears
    /// its marks before returning). The result is unordered; consumers that
    /// need page order sort it. Generation stamps make the confirmation a
    /// single compare for pages that have not transitioned since the
    /// entry was logged, and surviving entries are re-stamped (their
    /// membership was just proven), keeping the fast path effective for
    /// the next pass.
    fn compact(&mut self, node: NodeId) {
        let (log, pt) = (&mut self.nodes[node.index()].log, &mut self.pt);
        log.retain_mut(|e| {
            let idx = e.page.index();
            let (c, i) = (pt.chunk_mut(idx), idx & (CHUNK - 1));
            if c.marks.is_empty() {
                c.marks = vec![0; CHUNK / 64];
            }
            let bit = 1u64 << (i % 64);
            if c.owner[i] == ABSENT
                || c.marks[i / 64] & bit != 0
                || (c.gen[i] != e.stamp && !c.sharers[i].contains(node.0))
            {
                return false;
            }
            c.marks[i / 64] |= bit;
            e.stamp = c.gen[i];
            true
        });
        // Every set bit belongs to a kept page, so zeroing the kept
        // pages' words clears the bitmaps.
        for e in log.iter() {
            let i = e.page.index() & (CHUNK - 1);
            pt.chunk_mut(e.page.index()).marks[i / 64] = 0;
        }
    }

    /// Total pages allocated in the directory (including bulk).
    pub fn total_pages(&self) -> u64 {
        self.pt.live as u64 + self.bulk.values().sum::<u64>()
    }

    /// Evicts `node` from the directory: pages it owns move to `new_home`
    /// (master-copy transfer — e.g. slice consolidation or pre-failure
    /// drain); shared copies it held are dropped. Returns the number of
    /// pages whose master copy moved.
    ///
    /// O(pages the drained node holds a copy of), *not* O(directory): the
    /// node's page log says exactly which entries to touch, so a node with
    /// a small footprint drains in constant time regardless of how large
    /// the rest of the directory has grown. The log is sorted + deduped
    /// first and each surviving page is handled in ascending page order
    /// (stale entries — copies the node lost since logging — are skipped),
    /// so drain traces are deterministic. Entries whose generation stamp
    /// still matches the page's generation are provably current and skip
    /// the membership check entirely.
    ///
    /// A full drain emits up to three trace events per owned page
    /// (invalidate, owner-transfer, grant), so a traced multi-GiB drain
    /// needs a ring sized to match: an overflowed ring cannot be audited.
    pub fn drain_node(&mut self, node: NodeId, new_home: NodeId) -> u64 {
        // Draining a node onto itself is a no-op: nothing actually moves,
        // and counting every owned page as "moved" would be bogus.
        if node == new_home {
            return 0;
        }
        let at = self.clock.as_nanos();
        let mut moved = 0;
        if let Some(b) = self.bulk.remove(&node) {
            *self.bulk.entry(new_home).or_insert(0) += b;
            moved += b;
        }
        if node.index() >= self.nodes.len() {
            return moved; // The node holds no directory pages at all.
        }
        // Make sure new_home's slot exists before taking node's, so the
        // loop below can index both without re-borrowing.
        slot(&mut self.nodes, new_home);
        let mut log = std::mem::take(&mut self.nodes[node.index()]).log;
        sort_dedup(&mut log);
        for e in log {
            let page = e.page;
            let idx = page.index();
            if !self.pt.present(idx) {
                continue;
            }
            let pg = u64::from(page.0);
            // Stamp still current => the node provably holds the page
            // exactly as granted; otherwise confirm via the sharer set.
            let current = self.pt.gen(idx) == e.stamp;
            if self.pt.owner(idx) == node.0 {
                // Master-copy transfer to new_home.
                self.pt.set_owner(idx, new_home.0);
                self.pt.sharers_mut(idx).remove(node.0);
                let gained_copy = self.pt.sharers_mut(idx).insert(new_home.0);
                let stamp = self.pt.bump_gen(idx);
                let nh = &mut self.nodes[new_home.index()];
                nh.owned += 1;
                if gained_copy {
                    nh.cached += 1;
                    nh.log.push(LogEntry { page, stamp });
                }
                moved += 1;
                let exclusive = self.pt.mode(idx) == Mode::Exclusive;
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: node.0,
                });
                self.tracer.emit_with(|| TraceEvent::DsmOwnerTransfer {
                    at,
                    page: pg,
                    from: node.0,
                    to: new_home.0,
                });
                self.tracer.emit_with(|| TraceEvent::DsmGrant {
                    at,
                    page: pg,
                    node: new_home.0,
                    exclusive,
                });
            } else if current || self.pt.sharers_mut(idx).remove(node.0) {
                // A shared copy the node still held: drop it.
                if current {
                    self.pt.sharers_mut(idx).remove(node.0);
                }
                self.pt.bump_gen(idx);
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: node.0,
                });
            }
            // Else: a stale log entry for a copy lost before the drain.
        }
        debug_assert!(self.verify_indices().is_ok(), "{:?}", self.verify_indices());
        moved
    }

    /// Selects up to `max` eviction victims among the pages whose master
    /// copy lives on `node`, cheapest-to-evict first.
    ///
    /// `rank` maps a page's class to its eviction priority (lower is
    /// evicted first) or `None` to exempt the class entirely (e.g. the
    /// balloon driver only ever hands back guest-private pages). Victims
    /// are ordered by `(priority, page id)` so selection is deterministic.
    ///
    /// O(pages the node holds): the node's page log is compacted and
    /// scanned once — the same cost profile as [`Dsm::drain_node`], never
    /// a directory scan. Bulk pages
    /// have no per-page identity and are never selected.
    pub fn reclaim_victims(
        &mut self,
        node: NodeId,
        max: usize,
        rank: impl Fn(PageClass) -> Option<u8>,
    ) -> Vec<PageId> {
        if max == 0 || node.index() >= self.nodes.len() {
            return Vec::new();
        }
        // Full compaction doubles as candidate discovery: afterwards the
        // log holds exactly the pages the node shares or owns.
        self.compact(node);
        let pt = &self.pt;
        let mut ranked: Vec<(u8, PageId)> = self.nodes[node.index()]
            .log
            .iter()
            .filter_map(|e| {
                let idx = e.page.index();
                if pt.owner(idx) != node.0 {
                    return None;
                }
                rank(pt.class(idx)).map(|r| (r, e.page))
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(max);
        ranked.into_iter().map(|(_, p)| p).collect()
    }

    /// Evicts one page's master copy toward `to` (the borrow policy): the
    /// pressured owner gives the page up, `to` becomes the owner, and any
    /// third-party shared copies stay valid — exactly a single-page
    /// [`Dsm::drain_node`]. Returns `false` (and does nothing) if the page
    /// is unknown or `to` already owns it.
    ///
    /// Emits `PageEvict` followed by the invalidate / owner-transfer /
    /// grant events describing the move, so the trace auditor can check
    /// that the master copy is never lost and lands exactly once.
    pub fn evict_page(&mut self, page: PageId, to: NodeId) -> bool {
        let at = self.clock.as_nanos();
        let idx = page.index();
        if !self.pt.present(idx) {
            return false;
        }
        let from = NodeId::new(self.pt.owner(idx));
        if from == to {
            return false;
        }
        let pg = u64::from(page.0);
        self.tracer.emit_with(|| TraceEvent::PageEvict {
            at,
            page: pg,
            from: from.0,
            to: to.0,
        });
        self.pt.set_owner(idx, to.0);
        self.pt.sharers_mut(idx).remove(from.0);
        let gained_copy = self.pt.sharers_mut(idx).insert(to.0);
        let stamp = self.pt.bump_gen(idx);
        let exclusive = self.pt.mode(idx) == Mode::Exclusive;
        self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
            at,
            page: pg,
            node: from.0,
        });
        self.tracer.emit_with(|| TraceEvent::DsmOwnerTransfer {
            at,
            page: pg,
            from: from.0,
            to: to.0,
        });
        self.tracer.emit_with(|| TraceEvent::DsmGrant {
            at,
            page: pg,
            node: to.0,
            exclusive,
        });
        let f = slot(&mut self.nodes, from);
        f.owned -= 1;
        f.cached -= 1;
        let t = slot(&mut self.nodes, to);
        t.owned += 1;
        if gained_copy {
            t.cached += 1;
            t.log.push(LogEntry { page, stamp });
        }
        self.stats.evictions += 1;
        self.maybe_compact(to);
        true
    }

    /// Discards a page outright (balloon inflation or slice deflation):
    /// every copy is invalidated and the directory entry removed, so a
    /// later touch refaults as a fresh first-touch allocation. Returns
    /// the page's class, or `None` (doing nothing) if it was unknown.
    ///
    /// `policy` labels the `PageRelease` trace event (`"balloon"` /
    /// `"deflate"`); the auditor requires the release to come from the
    /// owner with every surviving copy invalidated first, and only a
    /// released page may legally re-allocate.
    pub fn release_page(&mut self, page: PageId, policy: &'static str) -> Option<PageClass> {
        let at = self.clock.as_nanos();
        let idx = page.index();
        if !self.pt.present(idx) {
            return None;
        }
        let pg = u64::from(page.0);
        let owner = self.pt.owner(idx);
        let class = self.pt.class(idx);
        let sharers = std::mem::take(self.pt.sharers_mut(idx));
        for s in sharers.iter() {
            self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                at,
                page: pg,
                node: s,
            });
            let ni = slot(&mut self.nodes, NodeId::new(s));
            ni.cached -= 1;
            if owner == s {
                ni.owned -= 1;
            }
            // Stale log entries are left behind; compaction and drain
            // skip pages the directory no longer confirms.
        }
        self.tracer.emit_with(|| TraceEvent::PageRelease {
            at,
            page: pg,
            node: owner,
            policy,
        });
        // Reset the slot; the generation bump ensures stale log entries
        // can never be mistaken for current after a re-allocation.
        let (c, i) = (self.pt.chunk_mut(idx), idx & (CHUNK - 1));
        c.owner[i] = ABSENT;
        c.busy_until[i] = SimTime::ZERO;
        c.gen[i] += 1;
        self.pt.live -= 1;
        self.stats.releases += 1;
        Some(class)
    }

    /// Quarantines a *crashed* node: every page whose master copy lived on
    /// `dead` is restored from the checkpoint image at `restore_home` —
    /// exclusively, with every surviving stale copy invalidated so
    /// post-crash faults refetch from the restored data instead of asking
    /// a dead machine. Shared copies `dead` held on pages it did not own
    /// are simply dropped. Returns the number of pages restored (including
    /// bulk-registered pages, which re-home without per-page events).
    ///
    /// The difference from [`Dsm::drain_node`] is the failure semantics:
    /// drain *moves* live master copies (other sharers stay valid), while
    /// quarantine declares them lost — the restored image is the new
    /// truth, so third-party copies must be invalidated too. Emits one
    /// `PageQuarantine` + exclusive `DsmGrant` per restored page (plus a
    /// `DsmInvalidate` per dropped copy); the trace auditor checks
    /// exactly-one-owner against this sequence.
    ///
    /// Like drain, this is O(pages the dead node holds), driven by its
    /// page log (with the same generation fast path).
    pub fn quarantine_node(&mut self, dead: NodeId, restore_home: NodeId) -> u64 {
        if dead == restore_home {
            return 0;
        }
        let at = self.clock.as_nanos();
        let mut restored = 0;
        if let Some(b) = self.bulk.remove(&dead) {
            *self.bulk.entry(restore_home).or_insert(0) += b;
            restored += b;
        }
        if dead.index() >= self.nodes.len() {
            return restored; // The node holds no directory pages at all.
        }
        slot(&mut self.nodes, restore_home);
        let mut log = std::mem::take(&mut self.nodes[dead.index()]).log;
        sort_dedup(&mut log);
        for e in log {
            let page = e.page;
            let idx = page.index();
            if !self.pt.present(idx) {
                continue;
            }
            let pg = u64::from(page.0);
            let current = self.pt.gen(idx) == e.stamp;
            if self.pt.owner(idx) == dead.0 {
                // The master copy died with the node. Invalidate every
                // copy (the dead node's and any survivor's — they are
                // stale relative to the restored image), then grant the
                // restored page exclusively at restore_home.
                let holders: Vec<u32> = self.pt.sharers(idx).iter().collect();
                for holder in holders {
                    self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                        at,
                        page: pg,
                        node: holder,
                    });
                    // The dead node's accounting was zeroed by the take
                    // above; survivors lose one cached copy (their logs
                    // keep a stale entry, which drain/compaction skip).
                    if holder != dead.0 {
                        self.nodes[holder as usize].cached -= 1;
                    }
                }
                let (c, i) = (self.pt.chunk_mut(idx), idx & (CHUNK - 1));
                let had_copy = c.sharers[i].contains(restore_home.0);
                c.owner[i] = restore_home.0;
                c.mode[i] = Mode::Exclusive;
                c.sharers[i] = NodeSet::singleton(restore_home.0);
                c.epoch[i] = self.cluster_epoch;
                c.gen[i] += 1;
                let stamp = c.gen[i];
                let nh = &mut self.nodes[restore_home.index()];
                nh.owned += 1;
                if !had_copy {
                    nh.log.push(LogEntry { page, stamp });
                }
                nh.cached += 1;
                restored += 1;
                self.tracer.emit_with(|| TraceEvent::PageQuarantine {
                    at,
                    page: pg,
                    dead: dead.0,
                    to: restore_home.0,
                });
                self.tracer.emit_with(|| TraceEvent::DsmGrant {
                    at,
                    page: pg,
                    node: restore_home.0,
                    exclusive: true,
                });
            } else if current || self.pt.sharers_mut(idx).remove(dead.0) {
                // A shared copy the dead node held: drop it.
                if current {
                    self.pt.sharers_mut(idx).remove(dead.0);
                }
                self.pt.bump_gen(idx);
                self.tracer.emit_with(|| TraceEvent::DsmInvalidate {
                    at,
                    page: pg,
                    node: dead.0,
                });
            }
            // Else: a stale log entry for a copy lost before the crash.
        }
        debug_assert!(self.verify_indices().is_ok(), "{:?}", self.verify_indices());
        restored
    }

    /// Deliberately corrupts the directory: grants `node` exclusive
    /// ownership of `page` WITHOUT invalidating the other copies, leaving
    /// two nodes believing they hold writable data.
    ///
    /// Exists only so tests can prove the trace auditor catches coherence
    /// violations; never call it from protocol code.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown.
    #[doc(hidden)]
    pub fn corrupt_grant_exclusive(&mut self, page: PageId, node: NodeId) {
        let at = self.clock.as_nanos();
        let pg = u64::from(page.0);
        let idx = page.index();
        assert!(
            self.pt.present(idx),
            "corrupt_grant_exclusive on unknown page"
        );
        let from = NodeId::new(self.pt.owner(idx));
        self.pt.set_owner(idx, node.0);
        self.pt.set_mode(idx, Mode::Exclusive);
        let had_copy = !self.pt.sharers_mut(idx).insert(node.0);
        let stamp = self.pt.bump_gen(idx);
        // Even a deliberate corruption keeps the accounting indices in
        // sync with the (corrupt) directory state: the old owner demotes
        // to a shared holder, the grantee becomes the owner.
        if from != node {
            // The old owner demotes to a shared holder (keeps its copy and
            // its log entry), the grantee becomes the owner.
            slot(&mut self.nodes, from).owned -= 1;
            let ni = slot(&mut self.nodes, node);
            ni.owned += 1;
            if !had_copy {
                ni.cached += 1;
                ni.log.push(LogEntry { page, stamp });
            }
        }
        self.tracer.emit_with(|| TraceEvent::DsmOwnerTransfer {
            at,
            page: pg,
            from: from.0,
            to: node.0,
        });
        self.tracer.emit_with(|| TraceEvent::DsmGrant {
            at,
            page: pg,
            node: node.0,
            exclusive: true,
        });
    }

    /// Deliberately applies a write from an epoch-fenced node as if the
    /// fence were not checked: the stale node takes exclusive ownership
    /// without the surviving copies being invalidated — exactly the
    /// split-brain a partition would cause without epoch fencing.
    ///
    /// Exists only so tests can prove the trace auditor catches unfenced
    /// stale-epoch mutations; never call it from protocol code.
    ///
    /// # Panics
    ///
    /// Panics if the page is unknown or `node` is not fenced.
    #[doc(hidden)]
    pub fn corrupt_stale_epoch_write(&mut self, page: PageId, node: NodeId) {
        assert!(
            self.is_fenced(node),
            "corrupt_stale_epoch_write needs a fenced node"
        );
        let at = self.clock.as_nanos();
        let pg = u64::from(page.0);
        // The mutation the fence should have blocked, announced the way
        // the real write path would announce it.
        self.tracer.emit_with(|| TraceEvent::DsmFault {
            at,
            page: pg,
            node: node.0,
            kind: "write_remote",
        });
        self.corrupt_grant_exclusive(page, node);
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &DsmStats {
        &self.stats
    }

    /// Resets statistics (directory state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DsmStats::default();
    }

    /// A deterministic FNV-1a digest of the full directory state: every
    /// present page's owner, mode, sharers, generation, class, epoch and
    /// busy horizon (in ascending page order), plus the bulk registrations
    /// and the epoch-fencing state. Two directories that evolved through
    /// the same transition sequence digest identically, so the sharded
    /// fleet engine compares serial and parallel runs with this (one
    /// digest per shard, combined in shard order) and differential tests
    /// catch divergence without storing full traces.
    pub fn state_digest(&self) -> u64 {
        let mut h = sim_core::Fnv1a::new();
        for idx in self.pt.iter_present() {
            h.write_u64(idx as u64);
            h.write_u64(u64::from(self.pt.owner(idx)));
            h.write_u64(match self.pt.mode(idx) {
                Mode::Exclusive => 0,
                Mode::Shared => 1,
            });
            for s in self.pt.sharers(idx).iter() {
                h.write_u64(u64::from(s));
            }
            h.write_u64(self.pt.gen(idx));
            h.write_u64(self.pt.class(idx) as u64);
            h.write_u64(self.pt.epoch(idx));
            h.write_u64(self.pt.busy_until(idx).as_nanos());
        }
        for (node, pages) in &self.bulk {
            h.write_u64(u64::from(node.0));
            h.write_u64(*pages);
        }
        h.write_u64(self.cluster_epoch);
        for e in &self.node_epoch {
            h.write_u64(*e);
        }
        for f in &self.fenced {
            h.write_u64(u64::from(*f));
        }
        h.finish()
    }

    /// Checks the protocol invariants; used by tests and debug assertions.
    ///
    /// Invariants: every page's owner is among its sharers; exclusive pages
    /// have exactly one sharer; the incremental per-node indices match a
    /// fresh scan of the directory (see [`Dsm::verify_indices`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        for idx in self.pt.iter_present() {
            let page = PageId::new(idx as u32);
            let owner = self.pt.owner(idx);
            let sharers = self.pt.sharers(idx);
            if !sharers.contains(owner) {
                return Err(format!("{page}: owner node{owner} not a sharer"));
            }
            if self.pt.mode(idx) == Mode::Exclusive && sharers.len() != 1 {
                return Err(format!("{page}: exclusive with {} sharers", sharers.len()));
            }
            if sharers.is_empty() {
                return Err(format!("{page}: no sharers"));
            }
        }
        self.verify_indices()
    }

    /// Entries in `node`'s page log, stale ones and duplicates included.
    /// For tests of log compaction.
    #[doc(hidden)]
    pub fn log_len(&self, node: NodeId) -> usize {
        self.nodes.get(node.index()).map_or(0, |n| n.log.len())
    }

    /// Rebuilds the per-node accounting from a fresh O(directory) scan and
    /// compares it with the incrementally-maintained counters, then checks
    /// the log-coverage invariant (every page a node holds appears in its
    /// log, and no log entry carries a stamp from the future) and that no
    /// compaction mark is left set. O(pages x sharers) — for tests and
    /// debug assertions, never the hot path.
    pub fn verify_indices(&self) -> Result<(), String> {
        let marked =
            |c: &Option<Box<Chunk>>| c.as_ref().is_some_and(|c| c.marks.iter().any(|&w| w != 0));
        if let Some(ci) = self.pt.chunks.iter().position(marked) {
            return Err(format!("chunk {ci}: compaction mark left set"));
        }
        let mut owned = vec![0u64; self.nodes.len()];
        let mut cached = vec![0u64; self.nodes.len()];
        let logged: Vec<BTreeSet<PageId>> = self
            .nodes
            .iter()
            .map(|n| n.log.iter().map(|e| e.page).collect())
            .collect();
        for (i, n) in self.nodes.iter().enumerate() {
            for e in &n.log {
                let idx = e.page.index();
                let cur = self.pt.gen(idx);
                if e.stamp > cur {
                    return Err(format!(
                        "node{i}: log entry for {} stamped {} beyond generation {}",
                        e.page, e.stamp, cur
                    ));
                }
                if e.stamp == cur && cur > 0 {
                    // A current stamp must prove membership.
                    if !self.pt.present(idx) || !self.pt.sharers(idx).contains(i as u32) {
                        return Err(format!(
                            "node{i}: current-stamp log entry for {} but no copy held",
                            e.page
                        ));
                    }
                }
            }
        }
        for idx in self.pt.iter_present() {
            let page = PageId::new(idx as u32);
            for s in self.pt.sharers(idx).iter() {
                let i = s as usize;
                if i >= self.nodes.len() {
                    return Err(format!("{page}: sharer node{s} has no index slot"));
                }
                cached[i] += 1;
                if self.pt.owner(idx) == s {
                    owned[i] += 1;
                }
                if !logged[i].contains(&page) {
                    return Err(format!("node{s}: holds {page} but its log lacks it"));
                }
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.owned != owned[i] {
                return Err(format!(
                    "node{i}: owned counter {} but fresh scan finds {}",
                    n.owned, owned[i]
                ));
            }
            if n.cached != cached[i] {
                return Err(format!(
                    "node{i}: cached counter {} but fresh scan finds {}",
                    n.cached, cached[i]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn p(i: u32) -> PageId {
        PageId::new(i)
    }

    fn dsm() -> Dsm {
        Dsm::new(DsmConfig::fragvisor())
    }

    #[test]
    fn state_digest_is_deterministic_and_divergence_sensitive() {
        let run = |writer: u32| {
            let mut d = dsm();
            d.ensure_page(p(1), n(0), PageClass::Private);
            let _ = d.access(n(1), p(1), Access::Read);
            let _ = d.access(n(writer), p(2), Access::Write);
            d.state_digest()
        };
        // Same transition sequence, same digest.
        assert_eq!(run(1), run(1));
        // One diverging transition flips it.
        assert_ne!(run(1), run(2));
        // Epoch-fencing state is part of the digest.
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let before = d.state_digest();
        d.bump_epoch(n(1));
        assert_ne!(before, d.state_digest());
    }

    #[test]
    fn first_touch_is_free_and_local() {
        let mut d = dsm();
        assert_eq!(d.access(n(0), p(1), Access::Write), Resolution::Hit);
        assert_eq!(d.owner(p(1)), Some(n(0)));
        assert_eq!(d.mode(p(1)), Some(Mode::Exclusive));
        assert_eq!(d.stats().first_touches, 1);
        d.check_invariants().unwrap();
    }

    #[test]
    fn local_reads_and_writes_hit() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        assert_eq!(d.access(n(0), p(1), Access::Read), Resolution::Hit);
        assert_eq!(d.access(n(0), p(1), Access::Write), Resolution::Hit);
        assert_eq!(d.stats().hits, 2);
        assert_eq!(d.stats().read_faults + d.stats().write_faults, 0);
    }

    #[test]
    fn remote_read_fetches_from_owner() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let r = d.access(n(1), p(1), Access::Read);
        match r {
            Resolution::Fault(plan) => {
                assert_eq!(plan.kind, FaultKind::ReadRemote { owner: n(0) });
            }
            r => panic!("expected fault, got {r:?}"),
        }
        assert_eq!(d.mode(p(1)), Some(Mode::Shared));
        assert!(d.is_cached(p(1), n(0)));
        assert!(d.is_cached(p(1), n(1)));
        // Second read by the same node hits.
        assert_eq!(d.access(n(1), p(1), Access::Read), Resolution::Hit);
        d.check_invariants().unwrap();
    }

    #[test]
    fn owner_write_after_sharing_upgrades() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read);
        let r = d.access(n(0), p(1), Access::Write);
        match r {
            Resolution::Fault(plan) => {
                assert_eq!(
                    plan.kind,
                    FaultKind::Upgrade {
                        invalidate: vec![n(1)]
                    }
                );
            }
            r => panic!("expected upgrade fault, got {r:?}"),
        }
        assert_eq!(d.mode(p(1)), Some(Mode::Exclusive));
        assert!(!d.is_cached(p(1), n(1)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn remote_write_transfers_ownership_and_invalidates() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read);
        let _ = d.access(n(2), p(1), Access::Read);
        let r = d.access(n(3), p(1), Access::Write);
        match r {
            Resolution::Fault(plan) => match plan.kind {
                FaultKind::WriteRemote { owner, invalidate } => {
                    assert_eq!(owner, n(0));
                    assert_eq!(invalidate, vec![n(1), n(2)]);
                }
                k => panic!("unexpected {k:?}"),
            },
            r => panic!("expected fault, got {r:?}"),
        }
        assert_eq!(d.owner(p(1)), Some(n(3)));
        assert_eq!(d.mode(p(1)), Some(Mode::Exclusive));
        for i in 0..3 {
            assert!(!d.is_cached(p(1), n(i)));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn write_ping_pong_alternates_ownership() {
        // The Figure 4/5 microbenchmark pattern: two nodes writing the same
        // page take a write fault each time.
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::AppShared);
        for round in 0..10 {
            let node = n(round % 2 + 1);
            let r = d.access(node, p(1), Access::Write);
            assert!(matches!(r, Resolution::Fault(_)), "round {round}");
            assert_eq!(d.owner(p(1)), Some(node));
        }
        assert_eq!(d.stats().write_faults, 10);
        d.check_invariants().unwrap();
    }

    #[test]
    fn contextual_dsm_applies_to_page_tables_only() {
        let mut d = Dsm::new(DsmConfig::fragvisor());
        d.ensure_page(p(1), n(0), PageClass::PageTable);
        d.ensure_page(p(2), n(0), PageClass::KernelData);
        let r1 = d.access(n(1), p(1), Access::Write);
        let r2 = d.access(n(1), p(2), Access::Write);
        let (Resolution::Fault(f1), Resolution::Fault(f2)) = (r1, r2) else {
            panic!("expected faults");
        };
        assert!(f1.contextual);
        assert!(!f2.contextual);

        // With contextual DSM off, page tables get no special treatment.
        let mut d = Dsm::new(DsmConfig::unoptimized());
        d.ensure_page(p(1), n(0), PageClass::PageTable);
        let Resolution::Fault(f) = d.access(n(1), p(1), Access::Write) else {
            panic!("expected fault");
        };
        assert!(!f.contextual);
    }

    #[test]
    fn dirty_bit_tracking_flags_write_faults() {
        let mut d = Dsm::new(DsmConfig::unoptimized());
        d.ensure_page(p(1), n(0), PageClass::Private);
        let Resolution::Fault(f) = d.access(n(1), p(1), Access::Write) else {
            panic!("expected fault");
        };
        assert!(f.dirty_bit_msg);
        let mut d = Dsm::new(DsmConfig::fragvisor());
        d.ensure_page(p(1), n(0), PageClass::Private);
        let Resolution::Fault(f) = d.access(n(1), p(1), Access::Write) else {
            panic!("expected fault");
        };
        assert!(!f.dirty_bit_msg);
    }

    #[test]
    fn busy_window_tracks_max() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        assert_eq!(d.busy_until(p(1)), SimTime::ZERO);
        d.set_busy(p(1), SimTime::from_micros(30));
        d.set_busy(p(1), SimTime::from_micros(10));
        assert_eq!(d.busy_until(p(1)), SimTime::from_micros(30));
    }

    #[test]
    fn drain_node_moves_master_copies() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        d.ensure_page(p(2), n(1), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read); // n1 shares p1.
        let moved = d.drain_node(n(1), n(0));
        assert_eq!(moved, 1); // p2's master copy moved.
        assert_eq!(d.owner(p(2)), Some(n(0)));
        assert!(!d.is_cached(p(1), n(1)));
        assert!(!d.is_cached(p(2), n(1)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn drain_node_onto_itself_is_a_noop() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        d.ensure_page(p(2), n(0), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read); // n1 shares p1.
        let moved = d.drain_node(n(0), n(0));
        assert_eq!(moved, 0, "self-drain must not report moved pages");
        assert_eq!(d.owner(p(1)), Some(n(0)));
        assert_eq!(d.owner(p(2)), Some(n(0)));
        assert!(d.is_cached(p(1), n(1)), "sharer copies must survive");
        d.check_invariants().unwrap();
    }

    #[test]
    fn reclaim_victims_ranks_filters_and_truncates() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::KernelText);
        d.ensure_page(p(2), n(0), PageClass::Private);
        d.ensure_page(p(3), n(0), PageClass::AppShared);
        d.ensure_page(p(4), n(0), PageClass::Private);
        d.ensure_page(p(5), n(1), PageClass::Private); // Not owned by n0.
        let _ = d.access(n(0), p(5), Access::Read); // ...but cached there.
        let rank = |c: PageClass| match c {
            PageClass::Private => Some(0),
            PageClass::AppShared => Some(1),
            _ => None, // Kernel text is exempt.
        };
        let v = d.reclaim_victims(n(0), 16, rank);
        assert_eq!(v, vec![p(2), p(4), p(3)], "priority then page order");
        let v = d.reclaim_victims(n(0), 2, rank);
        assert_eq!(v, vec![p(2), p(4)], "truncated to max");
        assert!(d.reclaim_victims(n(0), 0, rank).is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn evict_page_moves_master_copy_and_keeps_third_party_sharers() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        d.ensure_page(p(2), n(0), PageClass::Private);
        let _ = d.access(n(2), p(2), Access::Read); // n2 shares p2.
        assert!(d.evict_page(p(1), n(1)), "exclusive page evicts");
        assert_eq!(d.owner(p(1)), Some(n(1)));
        assert!(!d.is_cached(p(1), n(0)));
        assert!(d.evict_page(p(2), n(1)), "shared page evicts");
        assert_eq!(d.owner(p(2)), Some(n(1)));
        assert!(d.is_cached(p(2), n(2)), "third-party copy survives");
        assert!(!d.evict_page(p(2), n(1)), "already home: refused");
        assert!(!d.evict_page(p(9), n(1)), "unknown page: refused");
        assert_eq!(d.pages_owned_by(n(0)), 0);
        assert_eq!(d.pages_owned_by(n(1)), 2);
        assert_eq!(d.stats().evictions, 2);
        d.check_invariants().unwrap();
    }

    #[test]
    fn release_page_discards_all_copies_and_allows_reuse() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read);
        let _ = d.access(n(2), p(1), Access::Read);
        assert_eq!(d.release_page(p(1), "balloon"), Some(PageClass::Private));
        assert_eq!(d.owner(p(1)), None);
        for i in 0..3 {
            assert!(!d.is_cached(p(1), n(i)));
        }
        assert_eq!(d.release_page(p(1), "balloon"), None, "already gone");
        assert_eq!(d.stats().releases, 1);
        // Fault-on-reuse: the page can be allocated afresh elsewhere.
        d.ensure_page(p(1), n(2), PageClass::Private);
        assert_eq!(d.owner(p(1)), Some(n(2)));
        assert_eq!(d.access(n(2), p(1), Access::Write), Resolution::Hit);
        d.check_invariants().unwrap();
    }

    #[test]
    fn traced_reclaim_audits_clean() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(4096);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        for i in 0..8 {
            d.ensure_page(p(i), n(0), PageClass::Private);
        }
        let _ = d.access(n(1), p(0), Access::Read); // Shared victim.
        d.set_clock(SimTime::from_micros(5));
        let victims = d.reclaim_victims(n(0), 4, |_| Some(0));
        for v in victims {
            assert!(d.evict_page(v, n(2)));
        }
        assert_eq!(d.release_page(p(6), "balloon"), Some(PageClass::Private));
        d.ensure_page(p(6), n(1), PageClass::Private); // Fault-on-reuse.
        assert!(!tracer.is_empty());
        sim_core::audit::assert_clean(&tracer.snapshot());
        d.check_invariants().unwrap();
    }

    #[test]
    fn evicting_to_a_sharer_is_caught_if_master_copy_misreported() {
        use sim_core::trace::Tracer;
        // Eviction events claiming the wrong `from` node must be flagged:
        // hand-emit a PageEvict from a non-owner and check the rule fires.
        let tracer = Tracer::ring(256);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        d.ensure_page(p(0), n(0), PageClass::Private);
        tracer.emit_with(|| TraceEvent::PageEvict {
            at: 10,
            page: 0,
            from: 3, // Not the owner.
            to: 1,
        });
        let v = sim_core::audit::audit(&tracer.snapshot());
        assert!(
            v.iter().any(|v| v.rule == "reclaim-evict-non-owner"),
            "{v:?}"
        );
    }

    #[test]
    fn ownership_counts() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        d.ensure_page(p(2), n(0), PageClass::Private);
        d.ensure_page(p(3), n(1), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read);
        assert_eq!(d.pages_owned_by(n(0)), 2);
        assert_eq!(d.pages_owned_by(n(1)), 1);
        assert_eq!(d.pages_cached_on(n(1)), 2);
        assert_eq!(d.total_pages(), 3);
    }

    #[test]
    fn read_prefetch_piggybacks_sequential_pages() {
        let mut d = Dsm::new(DsmConfig {
            read_prefetch: 4,
            ..DsmConfig::fragvisor()
        });
        for i in 0..8 {
            d.ensure_page(p(i), n(0), PageClass::Private);
        }
        let Resolution::Fault(f) = d.access(n(1), p(0), Access::Read) else {
            panic!("expected fault");
        };
        assert_eq!(f.prefetched, vec![p(1), p(2), p(3), p(4)]);
        // The prefetched pages are now cached: no further faults.
        for i in 1..=4 {
            assert_eq!(d.access(n(1), p(i), Access::Read), Resolution::Hit);
        }
        // Page 5 was beyond the window: it faults (and prefetches onward).
        assert!(matches!(
            d.access(n(1), p(5), Access::Read),
            Resolution::Fault(_)
        ));
        assert_eq!(d.stats().prefetched, 4 + 2);
        d.check_invariants().unwrap();
    }

    #[test]
    fn prefetch_stops_at_ownership_boundary() {
        let mut d = Dsm::new(DsmConfig {
            read_prefetch: 4,
            ..DsmConfig::fragvisor()
        });
        d.ensure_page(p(0), n(0), PageClass::Private);
        d.ensure_page(p(1), n(0), PageClass::Private);
        d.ensure_page(p(2), n(2), PageClass::Private); // Different owner.
        d.ensure_page(p(3), n(0), PageClass::Private);
        let Resolution::Fault(f) = d.access(n(1), p(0), Access::Read) else {
            panic!("expected fault");
        };
        // Stops at the ownership boundary, never skipping past it.
        assert_eq!(f.prefetched, vec![p(1)]);
    }

    #[test]
    fn traced_transitions_audit_clean() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(4096);
        let mut d = Dsm::new(DsmConfig {
            read_prefetch: 2,
            ..DsmConfig::fragvisor()
        });
        d.attach_tracer(tracer.clone());
        for i in 0..6 {
            d.ensure_page(p(i), n(0), PageClass::Private);
        }
        d.set_clock(SimTime::from_micros(1));
        let _ = d.access(n(1), p(0), Access::Read);
        let _ = d.access(n(2), p(0), Access::Read);
        let _ = d.access(n(1), p(0), Access::Write);
        let _ = d.access(n(0), p(0), Access::Read);
        let _ = d.access(n(0), p(0), Access::Write);
        let _ = d.access(n(0), p(0), Access::Write); // Write hit.
        d.drain_node(n(1), n(0));
        assert!(!tracer.is_empty());
        sim_core::audit::assert_clean(&tracer.snapshot());
        d.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_directory_is_caught_by_auditor() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(256);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        d.ensure_page(p(0), n(0), PageClass::Private);
        let _ = d.access(n(1), p(0), Access::Read);
        // Hand node 2 exclusivity without invalidating nodes 0 and 1.
        d.corrupt_grant_exclusive(p(0), n(2));
        let v = sim_core::audit::audit(&tracer.snapshot());
        assert!(
            v.iter().any(|v| v.rule == "dsm-second-exclusive-owner"),
            "{v:?}"
        );
    }

    #[test]
    fn read_then_write_by_same_remote_node() {
        let mut d = dsm();
        d.ensure_page(p(1), n(0), PageClass::Private);
        let _ = d.access(n(1), p(1), Access::Read);
        // n1 holds a shared copy but is not owner: write must fault.
        let Resolution::Fault(f) = d.access(n(1), p(1), Access::Write) else {
            panic!("expected fault");
        };
        match f.kind {
            FaultKind::WriteRemote { owner, invalidate } => {
                assert_eq!(owner, n(0));
                assert!(invalidate.is_empty());
            }
            k => panic!("unexpected {k:?}"),
        }
        // Now n1 is exclusive owner: writes hit.
        assert_eq!(d.access(n(1), p(1), Access::Write), Resolution::Hit);
    }

    /// Runs the same mixed scan through `access_batch` and through a
    /// sequential `access_classified` loop and asserts identical stats,
    /// directory state, and fault plans.
    fn assert_batch_matches_sequential(access: Access) {
        let mut seq = dsm();
        let mut bat = dsm();
        for d in [&mut seq, &mut bat] {
            // A mixed landscape: pages 0..32 on n0, 32..40 missing (first
            // touch), 40..48 on n1, and n1 already shares 4..8.
            for i in 0..32 {
                d.ensure_page(p(i), n(0), PageClass::Private);
            }
            for i in 40..48 {
                d.ensure_page(p(i), n(1), PageClass::AppShared);
            }
            for i in 4..8 {
                let _ = d.access(n(1), p(i), Access::Read);
            }
        }
        let mut seq_hits = 0u64;
        let mut seq_faults = Vec::new();
        for i in 0..48 {
            match seq.access_classified(n(1), p(i), access, PageClass::KernelData, None) {
                Resolution::Hit => seq_hits += 1,
                Resolution::Fault(f) => seq_faults.push(f),
                Resolution::Rejected => panic!("nothing is fenced here"),
            }
        }
        let out = bat.access_batch(n(1), p(0), 48, access, PageClass::KernelData, None);
        assert_eq!(out.hits, seq_hits);
        assert_eq!(out.faults, seq_faults);
        assert_eq!(bat.stats(), seq.stats());
        for i in 0..48 {
            assert_eq!(bat.owner(p(i)), seq.owner(p(i)), "{i}");
            assert_eq!(bat.mode(p(i)), seq.mode(p(i)), "{i}");
            for node in 0..3 {
                assert_eq!(bat.is_cached(p(i), n(node)), seq.is_cached(p(i), n(node)));
            }
        }
        bat.check_invariants().unwrap();
    }

    #[test]
    fn batch_read_matches_sequential() {
        assert_batch_matches_sequential(Access::Read);
    }

    #[test]
    fn batch_write_matches_sequential() {
        assert_batch_matches_sequential(Access::Write);
    }

    #[test]
    fn batch_with_home_matches_ensure_then_access() {
        // `Some(home)` reproduces the hypervisor's ensure-then-access
        // sequence: unknown pages allocate at `home` and then fault.
        let mut seq = dsm();
        let mut bat = dsm();
        for i in 0..16 {
            seq.ensure_page(p(i), n(0), PageClass::Private);
            match seq.access_classified(n(1), p(i), Access::Read, PageClass::Private, None) {
                Resolution::Fault(_) => {}
                r => panic!("remote read must fault, got {r:?}"),
            }
        }
        let out = bat.access_batch(n(1), p(0), 16, Access::Read, PageClass::Private, Some(n(0)));
        assert_eq!(out.hits, 0);
        assert_eq!(out.faults.len(), 16);
        assert_eq!(bat.stats(), seq.stats());
        bat.check_invariants().unwrap();
        // A second pass is all hits in one run.
        let out = bat.access_batch(n(1), p(0), 16, Access::Read, PageClass::Private, Some(n(0)));
        assert_eq!(out.hits, 16);
        assert!(out.faults.is_empty());
    }

    #[test]
    fn batch_aggregates_hit_runs_into_one_trace_event() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(8192);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        for i in 0..64 {
            d.ensure_page(p(i), n(0), PageClass::Private);
        }
        d.set_clock(SimTime::from_micros(3));
        let before = tracer.snapshot().len();
        let out = d.access_batch(n(0), p(0), 64, Access::Read, PageClass::Private, None);
        assert_eq!(out.hits, 64);
        let events = tracer.snapshot();
        assert_eq!(events.len(), before + 1, "one aggregated event for 64 hits");
        match events.last().unwrap() {
            TraceEvent::DsmHitBatch {
                page,
                len,
                node,
                write,
                ..
            } => {
                assert_eq!((*page, *len, *node, *write), (0, 64, 0, false));
            }
            e => panic!("unexpected {e:?}"),
        }
        sim_core::audit::assert_clean(&events);
        d.check_invariants().unwrap();
    }

    #[test]
    fn batch_first_touch_allocates_on_accessor() {
        let mut d = dsm();
        let out = d.access_batch(n(2), p(10), 8, Access::Write, PageClass::Private, None);
        assert_eq!(out.hits, 8);
        assert!(out.faults.is_empty());
        assert_eq!(d.stats().first_touches, 8);
        for i in 10..18 {
            assert_eq!(d.owner(p(i)), Some(n(2)));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn generation_stamps_survive_release_and_reuse_churn() {
        // Churn a small page set hard enough that logs fill with stale
        // entries whose stamps lag the pages' generations, then drain and
        // quarantine: the generation fast path must never resurrect a
        // dropped copy or miss a held one (verify_indices checks both).
        let mut d = dsm();
        for round in 0u32..6 {
            for i in 0..32 {
                d.ensure_page(p(i), n(i % 3), PageClass::Private);
                let _ = d.access(n((i + 1) % 3), p(i), Access::Read);
                let _ = d.access(n((i + round) % 3), p(i), Access::Write);
            }
            for i in (0..32).step_by(5) {
                let _ = d.release_page(p(i), "balloon");
            }
        }
        d.verify_indices().unwrap();
        let moved = d.drain_node(n(1), n(0));
        assert!(moved > 0);
        d.check_invariants().unwrap();
        let restored = d.quarantine_node(n(2), n(0));
        assert!(restored > 0);
        d.check_invariants().unwrap();
        for node in 0..3 {
            assert_eq!(
                d.pages_cached_on(n(node)) > 0,
                node == 0,
                "only the restore target holds pages"
            );
        }
    }

    #[test]
    fn fenced_node_is_rejected_without_touching_the_directory() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(1024);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        d.ensure_page(p(0), n(0), PageClass::Private);
        let _ = d.access(n(1), p(0), Access::Read);
        assert_eq!(d.cluster_epoch(), 0);
        assert_eq!(d.bump_epoch(n(1)), 1);
        assert!(d.is_fenced(n(1)));
        assert_eq!(d.node_epoch(n(1)), 0, "fenced at the pre-bump epoch");
        assert_eq!(d.node_epoch(n(0)), 1, "survivors track the new epoch");
        // Reads, writes, and first touches are all refused...
        assert_eq!(d.access(n(1), p(0), Access::Read), Resolution::Rejected);
        assert_eq!(d.access(n(1), p(0), Access::Write), Resolution::Rejected);
        assert_eq!(d.access(n(1), p(9), Access::Write), Resolution::Rejected);
        assert!(!d.contains(p(9)), "no first-touch allocation while fenced");
        // ...including batched ones.
        let out = d.access_batch(n(1), p(0), 4, Access::Write, PageClass::Private, Some(n(0)));
        assert_eq!((out.hits, out.faults.len(), out.rejected), (0, 0, 4));
        assert_eq!(d.stats().stale_rejections, 7);
        // The directory never moved: n0 still owns, n1 still shares p0.
        assert_eq!(d.owner(p(0)), Some(n(0)));
        assert!(d.is_cached(p(0), n(1)));
        let events = tracer.snapshot();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::StaleEpochRejected { .. }))
                .count(),
            7
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn rejoin_discards_stale_copies_and_restores_access() {
        let mut d = dsm();
        d.ensure_page(p(0), n(0), PageClass::Private);
        d.ensure_page(p(1), n(1), PageClass::Private);
        let _ = d.access(n(1), p(0), Access::Read); // Stale shared copy.
        d.bump_epoch(n(1));
        assert_eq!(d.access(n(1), p(0), Access::Read), Resolution::Rejected);
        let (epoch, discarded) = d.rejoin_node(n(1));
        assert_eq!(epoch, 1);
        assert_eq!(discarded, 1, "the shared copy of p0 is dropped");
        assert!(!d.is_fenced(n(1)));
        assert_eq!(d.node_epoch(n(1)), 1);
        assert!(!d.is_cached(p(0), n(1)));
        assert_eq!(d.owner(p(1)), Some(n(1)), "owned pages stay put");
        // Access is live again and re-fetches the discarded copy.
        assert!(matches!(
            d.access(n(1), p(0), Access::Read),
            Resolution::Fault(_)
        ));
        d.check_invariants().unwrap();
    }

    #[test]
    fn grants_are_stamped_with_the_granting_epoch() {
        let mut d = dsm();
        d.ensure_page(p(0), n(0), PageClass::Private);
        assert_eq!(d.page_epoch(p(0)), Some(0));
        d.bump_epoch(n(2));
        let _ = d.access(n(1), p(0), Access::Write);
        assert_eq!(d.page_epoch(p(0)), Some(1), "transfer restamps");
        d.ensure_page(p(1), n(0), PageClass::Private);
        assert_eq!(d.page_epoch(p(1)), Some(1), "alloc stamps current epoch");
        d.bump_epoch(n(1));
        let restored = d.quarantine_node(n(1), n(0));
        assert_eq!(restored, 1, "p0 re-homed");
        assert_eq!(d.page_epoch(p(0)), Some(2), "quarantine restamps");
    }

    #[test]
    fn unfenced_stale_write_is_caught_by_the_auditor() {
        use sim_core::trace::Tracer;
        let tracer = Tracer::ring(1024);
        let mut d = dsm();
        d.attach_tracer(tracer.clone());
        d.ensure_page(p(0), n(0), PageClass::Private);
        let _ = d.access(n(1), p(0), Access::Read);
        d.bump_epoch(n(1));
        // Apply the minority write WITHOUT the fence check: n1 grabs
        // exclusive ownership while n0 still believes it owns the page.
        d.corrupt_stale_epoch_write(p(0), n(1));
        let v = sim_core::audit::audit(&tracer.snapshot());
        assert!(v.iter().any(|v| v.rule == "epoch-stale-mutation"), "{v:?}");
    }
}
