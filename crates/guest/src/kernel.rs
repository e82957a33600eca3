//! Guest kernel behaviour: hot pages and operation traces.
//!
//! Tracing the guest (as the authors did, §6.1) shows that the DSM traffic
//! of kernel-heavy phases comes from a small set of hot kernel pages:
//! zone/buddy allocator state, vmstat counters, runqueues, the slab, and
//! page tables. Vanilla Linux packs *uncorrelated* structures into the same
//! pages, so vCPUs on different nodes falsely share them; the paper's guest
//! patch pads these structures apart. We model both layouts.

use comm::NodeId;
use dsm::{Access, Dsm, PageClass, PageId};
use sim_core::time::SimTime;

use crate::memory::{Region, RegionAllocator};

/// Number of globally-shared hot kernel data pages (zones, vmstat,
/// timekeeping, runqueue array) in the vanilla layout.
const SHARED_HOT_PAGES: u64 = 8;

/// Per-vCPU kernel pages (kernel stack, per-cpu area, pcp page lists).
const PER_VCPU_PAGES: u64 = 4;

/// Page-table pages per vCPU working set, plus shared kernel mappings.
const PT_PAGES_PER_VCPU: u64 = 2;

/// A kernel entry performed by guest software on some vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// A lightweight syscall (read/write/poll on a ready fd).
    Syscall,
    /// Allocating `pages` fresh pages (buddy/slab work + zeroing).
    AllocPages(u64),
    /// Freeing `pages` pages.
    FreePages(u64),
    /// Mapping `pages` pages into a shared address space
    /// (page-table updates; may require TLB shootdown).
    MapShared(u64),
    /// Sending `bytes` over a guest-local socket (nginx→PHP style):
    /// touches shared socket buffer pages and wakes the peer.
    LocalSocketSend(u64),
    /// Scheduler timer tick.
    TimerTick,
    /// Process/thread creation (fork+exec or pthread_create).
    Spawn,
}

/// The expansion of one kernel operation: CPU time plus page touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Kernel CPU time consumed on the calling vCPU.
    pub cpu: SimTime,
    /// Pages touched, in order.
    pub touches: Vec<(PageId, Access)>,
    /// Whether the operation broadcasts a TLB-shootdown IPI to the other
    /// vCPUs of the same address space.
    pub tlb_shootdown: bool,
}

/// The guest kernel's memory footprint and layout policy.
#[derive(Debug, Clone)]
pub struct KernelPages {
    optimized: bool,
    vcpus: usize,
    text: Region,
    shared_hot: Region,
    per_vcpu: Vec<Region>,
    page_tables: Region,
    socket_buffers: Region,
    /// Round-robin cursor making traces deterministic without an RNG.
    cursor: u64,
    /// Separate cursor for the optimized layout's shared/per-vCPU split.
    hot_cursor: u64,
}

impl KernelPages {
    /// Lays out kernel regions for a guest with `vcpus` vCPUs.
    pub fn layout(alloc: &mut RegionAllocator, vcpus: usize, optimized: bool) -> Self {
        assert!(vcpus >= 1, "guest needs at least one vCPU");
        let text = alloc.alloc("kernel.text", 512);
        let shared_hot = alloc.alloc("kernel.shared_hot", SHARED_HOT_PAGES);
        let per_vcpu = (0..vcpus)
            .map(|i| alloc.alloc(&format!("kernel.percpu{i}"), PER_VCPU_PAGES))
            .collect();
        let page_tables = alloc.alloc("kernel.page_tables", PT_PAGES_PER_VCPU * vcpus as u64 + 2);
        let socket_buffers = alloc.alloc("kernel.sockbuf", 4);
        KernelPages {
            optimized,
            vcpus,
            text,
            shared_hot,
            per_vcpu,
            page_tables,
            socket_buffers,
            cursor: 0,
            hot_cursor: 0,
        }
    }

    /// Registers all kernel pages in the DSM, homed on the bootstrap node
    /// (where the guest booted).
    pub fn register(&self, dsm: &mut Dsm, bootstrap: NodeId) {
        for p in self.text.iter() {
            dsm.ensure_page(p, bootstrap, PageClass::KernelText);
        }
        for p in self.shared_hot.iter() {
            dsm.ensure_page(p, bootstrap, PageClass::KernelData);
        }
        for r in &self.per_vcpu {
            for p in r.iter() {
                dsm.ensure_page(p, bootstrap, PageClass::KernelData);
            }
        }
        for p in self.page_tables.iter() {
            dsm.ensure_page(p, bootstrap, PageClass::PageTable);
        }
        for p in self.socket_buffers.iter() {
            dsm.ensure_page(p, bootstrap, PageClass::KernelData);
        }
    }

    /// Number of vCPUs this layout was built for.
    pub fn vcpus(&self) -> usize {
        self.vcpus
    }

    /// The buddy-allocator zone page: truly shared state that both guest
    /// layouts contend on (padding removes false sharing, not the zone
    /// lock itself).
    fn zone_page(&self) -> PageId {
        self.shared_hot.page(0)
    }

    fn shared_page(&mut self) -> PageId {
        let i = self.cursor % self.shared_hot.pages;
        self.cursor += 1;
        self.shared_hot.page(i)
    }

    fn percpu_page(&mut self, vcpu: usize) -> PageId {
        let r = self.per_vcpu[vcpu % self.per_vcpu.len()];
        let i = self.cursor % r.pages;
        self.cursor += 1;
        r.page(i)
    }

    /// A hot kernel-data page for an operation on `vcpu`.
    ///
    /// This is where the layouts diverge: the vanilla kernel hits the
    /// globally shared pages; the padded kernel keeps ~15/16 of the
    /// accesses on per-vCPU pages (only truly-shared state remains shared).
    fn hot_page(&mut self, vcpu: usize) -> PageId {
        if self.optimized {
            let pick_shared = self.hot_cursor % 16 == 15;
            self.hot_cursor += 1;
            if pick_shared {
                self.shared_page()
            } else {
                self.percpu_page(vcpu)
            }
        } else {
            self.shared_page()
        }
    }

    /// A page-table page for `vcpu`'s address-space updates.
    fn pt_page(&mut self, vcpu: usize) -> PageId {
        let i = (vcpu as u64 * PT_PAGES_PER_VCPU + self.cursor % PT_PAGES_PER_VCPU)
            % self.page_tables.pages;
        self.cursor += 1;
        self.page_tables.page(i)
    }

    /// Expands a kernel operation on `vcpu` into its trace.
    pub fn op_trace(&mut self, vcpu: usize, op: KernelOp) -> OpTrace {
        match op {
            KernelOp::Syscall => OpTrace {
                cpu: SimTime::from_nanos(300),
                touches: vec![(self.hot_page(vcpu), Access::Write)],
                tlb_shootdown: false,
            },
            KernelOp::AllocPages(pages) => {
                // Per-cpu pageset (pcp) refills hit the *truly shared*
                // zone/buddy state about once per 32 pages — padding cannot
                // remove this sharing, only the false sharing of the
                // vmstat/accounting updates alongside it.
                let mut touches = Vec::new();
                let refills = pages.div_ceil(32).max(1);
                for _ in 0..refills {
                    // One zone, one lock: every refill serializes here.
                    touches.push((self.zone_page(), Access::Write));
                }
                touches.push((self.hot_page(vcpu), Access::Write));
                touches.push((self.hot_page(vcpu), Access::Write));
                touches.push((self.pt_page(vcpu), Access::Write));
                OpTrace {
                    // ~600ns/page covers zeroing and list work.
                    cpu: SimTime::from_nanos(1_000 + 600 * pages),
                    touches,
                    tlb_shootdown: false,
                }
            }
            KernelOp::FreePages(pages) => {
                let refills = pages.div_ceil(32).max(1);
                let mut touches: Vec<(PageId, Access)> =
                    vec![(self.zone_page(), Access::Write); refills as usize];
                touches.push((self.hot_page(vcpu), Access::Write));
                OpTrace {
                    cpu: SimTime::from_nanos(500 + 150 * pages),
                    touches,
                    tlb_shootdown: false,
                }
            }
            KernelOp::MapShared(pages) => {
                let mut touches = Vec::new();
                for _ in 0..pages.div_ceil(512).max(1) {
                    // One PTE page covers 512 mappings.
                    touches.push((self.pt_page(vcpu), Access::Write));
                }
                touches.push((self.hot_page(vcpu), Access::Write));
                OpTrace {
                    cpu: SimTime::from_nanos(800 + 100 * pages),
                    touches,
                    // Remapping a shared address space invalidates peers.
                    tlb_shootdown: self.vcpus > 1,
                }
            }
            KernelOp::LocalSocketSend(bytes) => {
                let pages = bytes.div_ceil(4096).max(1).min(self.socket_buffers.pages);
                let mut touches: Vec<(PageId, Access)> = (0..pages)
                    .map(|i| (self.socket_buffers.page(i), Access::Write))
                    .collect();
                touches.push((self.hot_page(vcpu), Access::Write));
                OpTrace {
                    cpu: SimTime::from_nanos(2_000 + bytes / 8),
                    touches,
                    tlb_shootdown: false,
                }
            }
            KernelOp::TimerTick => OpTrace {
                cpu: SimTime::from_nanos(500),
                touches: vec![(self.hot_page(vcpu), Access::Write)],
                tlb_shootdown: false,
            },
            KernelOp::Spawn => {
                let mut touches = vec![
                    (self.hot_page(vcpu), Access::Write),
                    (self.hot_page(vcpu), Access::Write),
                    (self.pt_page(vcpu), Access::Write),
                ];
                touches.push((self.shared_page(), Access::Write));
                OpTrace {
                    cpu: SimTime::from_micros(50),
                    touches,
                    tlb_shootdown: false,
                }
            }
        }
    }

    /// The socket-buffer pages (needed by workloads to model peers reading
    /// what was written).
    pub fn socket_buffer_pages(&self) -> Vec<PageId> {
        self.socket_buffers.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::ByteSize;

    fn setup(vcpus: usize, optimized: bool) -> (KernelPages, Dsm) {
        let mut alloc = RegionAllocator::new(ByteSize::gib(1));
        let kp = KernelPages::layout(&mut alloc, vcpus, optimized);
        let mut dsm = Dsm::new(dsm::DsmConfig::fragvisor());
        kp.register(&mut dsm, NodeId::new(0));
        (kp, dsm)
    }

    #[test]
    fn layout_registers_all_classes() {
        let (_, dsm) = setup(4, false);
        assert!(dsm.total_pages() > 512);
        // Spot-check classes.
        let mut alloc = RegionAllocator::new(ByteSize::gib(1));
        let kp = KernelPages::layout(&mut alloc, 4, false);
        let pt_page = kp.page_tables.page(0);
        let mut d = Dsm::new(dsm::DsmConfig::fragvisor());
        kp.register(&mut d, NodeId::new(0));
        assert_eq!(d.class(pt_page), Some(PageClass::PageTable));
        assert_eq!(d.class(kp.text.page(0)), Some(PageClass::KernelText));
    }

    #[test]
    fn vanilla_syscalls_hit_shared_pages() {
        let (mut kp, _) = setup(4, false);
        let shared = kp.shared_hot;
        for vcpu in 0..4 {
            let t = kp.op_trace(vcpu, KernelOp::Syscall);
            let (page, _) = t.touches[0];
            assert!(
                (shared.first.index()..shared.first.index() + shared.pages as usize)
                    .contains(&page.index()),
                "vcpu {vcpu} touched {page}"
            );
        }
    }

    #[test]
    fn optimized_syscalls_mostly_stay_per_vcpu() {
        let (mut kp, _) = setup(4, true);
        let shared = kp.shared_hot;
        let mut shared_hits = 0;
        let total = 160;
        for i in 0..total {
            let t = kp.op_trace(i % 4, KernelOp::Syscall);
            let (page, _) = t.touches[0];
            let in_shared = (shared.first.index()..shared.first.index() + shared.pages as usize)
                .contains(&page.index());
            if in_shared {
                shared_hits += 1;
            }
        }
        // ~1/16 of accesses go shared.
        assert!(shared_hits <= total / 8, "shared_hits = {shared_hits}");
        assert!(shared_hits > 0);
    }

    #[test]
    fn alloc_scales_with_size() {
        let (mut kp, _) = setup(2, false);
        let small = kp.op_trace(0, KernelOp::AllocPages(8));
        let large = kp.op_trace(0, KernelOp::AllocPages(256));
        assert!(large.cpu > small.cpu);
        assert!(large.touches.len() > small.touches.len());
    }

    #[test]
    fn map_shared_triggers_shootdown_only_when_smp() {
        let (mut kp, _) = setup(4, false);
        assert!(kp.op_trace(0, KernelOp::MapShared(1024)).tlb_shootdown);
        let (mut kp1, _) = setup(1, false);
        assert!(!kp1.op_trace(0, KernelOp::MapShared(1024)).tlb_shootdown);
    }

    #[test]
    fn socket_send_touches_socket_buffers() {
        let (mut kp, _) = setup(2, false);
        let bufs = kp.socket_buffer_pages();
        let t = kp.op_trace(0, KernelOp::LocalSocketSend(8192));
        assert!(t.touches.iter().filter(|(p, _)| bufs.contains(p)).count() >= 2);
    }

    #[test]
    fn traces_are_deterministic() {
        let (mut a, _) = setup(4, true);
        let (mut b, _) = setup(4, true);
        for i in 0..50 {
            assert_eq!(
                a.op_trace(i % 4, KernelOp::Syscall),
                b.op_trace(i % 4, KernelOp::Syscall)
            );
        }
    }

    #[test]
    fn driving_traces_through_dsm_shows_layout_difference() {
        // The end-to-end effect the paper's guest patch targets: with four
        // vCPUs on four nodes doing allocation-heavy kernel work, the
        // vanilla layout generates far more DSM faults.
        let run = |optimized: bool| -> u64 {
            let (mut kp, mut dsm) = setup(4, optimized);
            for round in 0..200 {
                let vcpu = round % 4;
                let t = kp.op_trace(vcpu, KernelOp::AllocPages(16));
                for (page, access) in t.touches {
                    let _ = dsm.access(NodeId::new(vcpu as u32), page, access);
                }
            }
            dsm.stats().total_faults()
        };
        let vanilla = run(false);
        let optimized = run(true);
        assert!(
            vanilla as f64 > optimized as f64 * 2.0,
            "vanilla {vanilla} vs optimized {optimized}"
        );
    }
}
