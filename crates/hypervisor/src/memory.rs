//! VM memory: guest layout + DSM + the fault executor.
//!
//! [`VmMemory`] binds the guest memory model to the DSM directory and
//! knows how to *cost* a fault: it plays the [`dsm::FaultPlan`] message
//! choreography out on the [`comm::Fabric`] (so DSM traffic occupies real
//! link bandwidth) and returns the completion time.

use comm::{Fabric, FabricError, Message, MsgClass, NodeId};
use dsm::{Access, Dsm, FaultKind, FaultPlan, PageClass, PageId, Resolution};
use guest::memory::{Region, RegionAllocator};
use guest::{GuestConfig, KernelPages};
use sim_core::time::SimTime;
use sim_core::trace::TraceEvent;
use sim_core::units::ByteSize;

use crate::elastic::{
    ElasticParams, ElasticState, MemoryConfig, MemoryPressure, ReclaimCounters, ReclaimCtx,
    ReclaimRequest, SWAP_IN_PAGE_COST,
};
use crate::profile::HypervisorProfile;

/// Size of a DSM control message (request, invalidation, ack).
const DSM_CTRL: ByteSize = ByteSize::bytes(64);

/// Page payload message: page plus header.
pub(crate) const DSM_PAGE: ByteSize = ByteSize::bytes(4096 + 64);

/// Cost of installing a received page/permission into the EPT.
const INSTALL_COST: SimTime = SimTime::from_nanos(500);

/// Retry backoff when a fault hits a page with an in-flight transaction.
///
/// Popcorn's DSM NACKs concurrent ownership requests; the loser backs off
/// and refaults. Under write contention this dominates the per-operation
/// cost (it is why the Figure-5 max-sharing traffic is only a few MB/s).
const CONTENTION_BACKOFF: SimTime = SimTime::from_micros(15);

/// Stall charged when a DSM protocol message cannot reach its peer at
/// all (the peer's slice is dead): the faulting vCPU spins until the
/// failure detector quarantines and re-homes the page.
const DEAD_STALL: SimTime = SimTime::from_micros(500);

/// DSM protocol retransmissions before giving up on a message.
const DSM_SEND_ATTEMPTS: u32 = 3;

/// Sends one DSM protocol message, riding out transient link loss.
///
/// The DSM runs its own timeout/retransmit on the bulk tier (the fabric
/// only acks priority classes): a [`FabricError::Dropped`] verdict is
/// retried after [`CONTENTION_BACKOFF`], up to [`DSM_SEND_ATTEMPTS`]
/// times. A dead endpoint (or exhausted retries) returns the
/// [`DEAD_STALL`] completion instead — the access stalls rather than
/// panicking, and recovery re-homes the page.
pub(crate) fn dsm_send(fabric: &mut Fabric, at: SimTime, msg: Message) -> SimTime {
    let mut t = at;
    for _ in 0..DSM_SEND_ATTEMPTS {
        match fabric.send(t, msg) {
            Ok(d) => return d.deliver_at,
            Err(FabricError::Dropped { .. }) => t += CONTENTION_BACKOFF,
            Err(_) => return t + DEAD_STALL,
        }
    }
    t + DEAD_STALL
}

/// The guest memory subsystem of one VM.
#[derive(Debug)]
pub struct VmMemory {
    /// The coherence directory.
    pub dsm: Dsm,
    /// The pseudo-physical region allocator.
    pub alloc: RegionAllocator,
    /// The guest kernel's page footprint.
    pub kernel: KernelPages,
    guest_config: GuestConfig,
    bootstrap: NodeId,
    fault_handler_cpu: SimTime,
    /// Pressure tracking + reclaim policy, when configured.
    elastic: Option<Box<ElasticState>>,
}

impl VmMemory {
    /// Lays out guest memory for a VM with `vcpus` vCPUs and `ram` bytes,
    /// booted on `bootstrap`. External callers go through
    /// [`MemoryConfig::build`].
    pub(crate) fn new(
        profile: &HypervisorProfile,
        vcpus: usize,
        ram: ByteSize,
        bootstrap: NodeId,
    ) -> Self {
        let mut alloc = RegionAllocator::new(ram);
        let kernel = KernelPages::layout(&mut alloc, vcpus, profile.guest.optimized_layout);
        let mut dsm = Dsm::new(profile.dsm);
        kernel.register(&mut dsm, bootstrap);
        // A NUMA-aware guest only helps if the hypervisor actually exposes
        // runtime NUMA topology updates.
        let mut guest_config = profile.guest;
        guest_config.numa_aware &= profile.numa_updates;
        VmMemory {
            dsm,
            alloc,
            kernel,
            guest_config,
            bootstrap,
            fault_handler_cpu: profile.fault_handler_cpu,
            elastic: None,
        }
    }

    /// Enables memory elasticity per `cfg`: requires both a
    /// [`MemoryConfig::node_budget`] and a [`MemoryConfig::policy`], and
    /// is a no-op (returning `false`) otherwise. [`MemoryConfig::build`]
    /// calls this; a VM built through another path (e.g. the canned
    /// scenarios) can call it on `sim.world.mem` before running.
    pub fn enable_elasticity(&mut self, cfg: &MemoryConfig) -> bool {
        let (Some(budget), Some(policy)) = (cfg.budget, cfg.policy) else {
            return false;
        };
        let params = ElasticParams {
            budget_pages: budget.pages_4k(),
            thresholds: cfg.thresholds,
            nodes: cfg.nodes,
            balloon_share: cfg.balloon_share,
        };
        self.elastic = Some(Box::new(ElasticState::new(params, policy)));
        true
    }

    /// Reclaim counters, present when elasticity is enabled.
    pub fn reclaim_counters(&self) -> Option<&ReclaimCounters> {
        self.elastic.as_deref().map(|e| &e.book.counters)
    }

    /// True if `page` currently sits in the swap tier.
    pub fn page_swapped(&self, page: PageId) -> bool {
        self.elastic
            .as_deref()
            .is_some_and(|e| e.book.swapped.contains_key(&page))
    }

    /// True if `page` was discarded by balloon/deflate and has not
    /// refaulted yet.
    pub fn page_released(&self, page: PageId) -> bool {
        self.elastic
            .as_deref()
            .is_some_and(|e| e.book.released.contains(&page))
    }

    /// `node`'s current pressure level (`Normal` when elasticity is off).
    pub fn pressure_of(&self, node: NodeId) -> MemoryPressure {
        let Some(el) = self.elastic.as_deref() else {
            return MemoryPressure::Normal;
        };
        let resident = self
            .dsm
            .pages_owned_by(node)
            .saturating_sub(el.book.swapped_on(node));
        el.params.thresholds.level(resident, el.params.budget_pages)
    }

    /// The node the guest booted on (home of kernel pages).
    pub fn bootstrap(&self) -> NodeId {
        self.bootstrap
    }

    /// The guest configuration in force.
    pub fn guest_config(&self) -> GuestConfig {
        self.guest_config
    }

    /// Allocates an application region and registers its pages, homed
    /// according to the guest's NUMA policy for a task on `vcpu_node`.
    pub fn alloc_app_region(
        &mut self,
        name: &str,
        pages: u64,
        vcpu_node: NodeId,
        class: PageClass,
    ) -> Region {
        let region = self.alloc.alloc(name, pages);
        let home = guest::alloc_home(self.guest_config, vcpu_node, self.bootstrap);
        for p in region.iter() {
            self.dsm.ensure_page(p, home, class);
        }
        region
    }

    /// Registers a large at-rest dataset homed on `node` without creating
    /// per-page directory entries (bulk accounting only). Use for the
    /// multi-GiB resident sets of checkpoint experiments.
    pub fn register_resident_dataset(
        &mut self,
        name: &str,
        bytes: ByteSize,
        node: NodeId,
    ) -> Region {
        let region = self.alloc.alloc_bytes(name, bytes);
        self.dsm.register_bulk(node, region.pages);
        region
    }

    /// Registers pre-existing pages (e.g. device rings) with a class.
    pub fn register_pages(&mut self, pages: &[PageId], home: NodeId, class: PageClass) {
        for &p in pages {
            self.dsm.ensure_page(p, home, class);
        }
    }

    /// Performs one access by `node`, playing any fault out on `fabric`.
    ///
    /// Returns the completion time (`now` for hits). Unknown pages are
    /// first-touch allocated per the guest NUMA policy.
    pub fn access(
        &mut self,
        now: SimTime,
        node: NodeId,
        page: PageId,
        access: Access,
        fabric: &mut Fabric,
    ) -> SimTime {
        // The directory is untimed; stamp its trace events with the
        // triggering access's time.
        self.dsm.set_clock(now);
        // An epoch-fenced node gets nothing — no swap-in, no first-touch
        // allocation, no directory transition. The access stalls like a
        // send to a dead peer and the guest retries after the stall.
        if self.dsm.is_fenced(node) {
            // Resolves to Rejected and emits the StaleEpochRejected event.
            let _ = self.dsm.access(node, page, access);
            return now + DEAD_STALL;
        }
        let mut t = now;
        if let Some(el) = self.elastic.as_deref_mut() {
            // A swapped-out page comes back from the swap tier before the
            // directory may even look at it (the auditor enforces the
            // swap-in-before-touch ordering).
            if let Some(home) = el.book.swapped.remove(&page) {
                let at = now.as_nanos();
                let pg = page.index() as u64;
                self.dsm.tracer().emit_with(|| TraceEvent::PageSwapIn {
                    at,
                    page: pg,
                    node: home.0,
                });
                el.book.bump_swapped(home, -1);
                el.book.counters.pages_swapped_in += 1;
                t += SWAP_IN_PAGE_COST + INSTALL_COST;
            }
            // A ballooned/deflated page refaults: charge the handler
            // re-entry; the first-touch path below re-creates the page.
            if el.book.released.remove(&page) {
                el.book.balloon_outstanding = el.book.balloon_outstanding.saturating_sub(1);
                el.book.counters.refaults += 1;
                t += self.fault_handler_cpu + INSTALL_COST;
            }
        }
        // An unknown page is allocated per the NUMA policy; a non-local
        // first touch then faults like any other access.
        let home = guest::alloc_home(self.guest_config, node, self.bootstrap);
        let done =
            match self
                .dsm
                .access_classified(node, page, access, PageClass::Private, Some(home))
            {
                Resolution::Hit => t,
                Resolution::Fault(plan) => self.execute_fault(t, node, &plan, fabric),
                // The node was fenced between the check above and the access
                // (impossible today — fencing happens between events — but
                // harmless to handle the same way).
                Resolution::Rejected => t + DEAD_STALL,
            };
        self.sample_pressure(done, node, fabric)
    }

    /// Samples the accessing node's pressure after a resolved access and
    /// runs direct reclaim synchronously when it crosses the high
    /// watermark; returns the (possibly stalled) completion time.
    fn sample_pressure(&mut self, done: SimTime, node: NodeId, fabric: &mut Fabric) -> SimTime {
        let VmMemory {
            dsm,
            alloc,
            elastic,
            ..
        } = self;
        let Some(el) = elastic.as_deref_mut() else {
            return done;
        };
        let resident = dsm
            .pages_owned_by(node)
            .saturating_sub(el.book.swapped_on(node));
        let budget = el.params.budget_pages;
        let level = el.params.thresholds.level(resident, budget);
        let slot = el.level_slot(node);
        if level != *slot {
            *slot = level;
            let at = done.as_nanos();
            dsm.tracer().emit_with(|| TraceEvent::PressureChange {
                at,
                node: node.0,
                level: level.label(),
                resident,
                budget,
            });
        }
        if level < MemoryPressure::High {
            return done;
        }
        // Direct reclaim: free enough to get back below the moderate
        // watermark, the stall charged to the faulting vCPU.
        let floor = (el.params.thresholds.moderate * budget as f64) as u64;
        let req = ReclaimRequest {
            pressure: level,
            target_pages: resident.saturating_sub(floor).max(1),
        };
        dsm.set_clock(done);
        let ElasticState {
            params,
            policy,
            book,
            ..
        } = el;
        let mut ctx = ReclaimCtx {
            now: done,
            node,
            dsm,
            alloc,
            fabric,
            book,
            params,
        };
        let outcome = policy.reclaim(&req, &mut ctx);
        book.counters.pressure_stalls += 1;
        book.counters.reclaim_latency += outcome.latency;
        done + outcome.latency
    }

    /// Performs a batch of accesses back-to-back, returning the final
    /// completion time.
    ///
    /// Runs of consecutive pages with the same access kind — the
    /// sequential-scan shape the workloads emit — resolve through
    /// [`Dsm::access_batch`] in one directory pass per run, with the
    /// fault plans played out in page order afterwards. Completion times
    /// and protocol statistics are identical to the per-touch path
    /// (directory transitions are untimed, hits cost nothing, and each
    /// fault executes from the previous fault's completion exactly as the
    /// sequential loop would); the only observable difference is that
    /// traced hit runs aggregate into one `DsmHitBatch` event. With
    /// elasticity enabled the per-touch path is used unconditionally:
    /// swap-in, refault charging and pressure sampling are per-access.
    pub fn access_batch(
        &mut self,
        now: SimTime,
        node: NodeId,
        touches: &[(PageId, Access)],
        fabric: &mut Fabric,
    ) -> SimTime {
        let mut t = now;
        if self.elastic.is_some() {
            for &(page, access) in touches {
                t = self.access(t, node, page, access, fabric);
            }
            return t;
        }
        let home = guest::alloc_home(self.guest_config, node, self.bootstrap);
        let mut i = 0;
        while i < touches.len() {
            let (start, access) = touches[i];
            let mut len = 1u32;
            while i + (len as usize) < touches.len() {
                let (p, a) = touches[i + len as usize];
                if a != access || p.0 != start.0.wrapping_add(len) {
                    break;
                }
                len += 1;
            }
            i += len as usize;
            if len == 1 {
                t = self.access(t, node, start, access, fabric);
                continue;
            }
            self.dsm.set_clock(t);
            let out =
                self.dsm
                    .access_batch(node, start, len, access, PageClass::Private, Some(home));
            for plan in &out.faults {
                t = self.execute_fault(t, node, plan, fabric);
            }
            // Fenced-node batches resolve to per-page rejections; each
            // stalls like its sequential counterpart.
            t += SimTime::from_nanos(DEAD_STALL.as_nanos() * out.rejected);
        }
        t
    }

    /// Plays out a fault's message choreography; returns completion time.
    fn execute_fault(
        &mut self,
        now: SimTime,
        node: NodeId,
        plan: &FaultPlan,
        fabric: &mut Fabric,
    ) -> SimTime {
        // Serialize behind any in-flight transaction on the same page
        // (NACK + retry when we lose the race), then charge the local
        // handler entry.
        let busy = self.dsm.busy_until(plan.page);
        let t0 = if now < busy {
            busy + CONTENTION_BACKOFF + self.fault_handler_cpu
        } else {
            now + self.fault_handler_cpu
        };
        let done = match &plan.kind {
            FaultKind::ReadRemote { owner } => {
                let req_at = dsm_send(
                    fabric,
                    t0,
                    Message::new(node, *owner, DSM_CTRL, MsgClass::Dsm),
                );
                let serve = req_at + remote_handler_of(self.fault_handler_cpu);
                // Prefetched pages ride the same response message.
                let resp_size =
                    ByteSize::bytes(DSM_PAGE.as_u64() + 4096 * plan.prefetched.len() as u64);
                let resp_at = dsm_send(
                    fabric,
                    serve,
                    Message::new(*owner, node, resp_size, MsgClass::Dsm),
                );
                resp_at + INSTALL_COST
            }
            FaultKind::Upgrade { invalidate } => {
                if invalidate.is_empty() {
                    t0 + INSTALL_COST
                } else if plan.contextual {
                    // Contextual DSM: the invalidation is piggybacked on a
                    // TLB-shootdown IPI the guest already sends; the
                    // faulting vCPU does not wait for acks.
                    for &s in invalidate {
                        let _ = fabric.send(t0, Message::new(node, s, DSM_CTRL, MsgClass::Dsm));
                    }
                    t0 + INSTALL_COST
                } else {
                    // Invalidate every sharer and collect acks.
                    let mut done = t0;
                    for &s in invalidate {
                        let inv_at =
                            dsm_send(fabric, t0, Message::new(node, s, DSM_CTRL, MsgClass::Dsm));
                        let ack_at = inv_at + remote_handler_of(self.fault_handler_cpu);
                        let ack = dsm_send(
                            fabric,
                            ack_at,
                            Message::new(s, node, DSM_CTRL, MsgClass::Dsm),
                        );
                        done = done.max(ack);
                    }
                    done + INSTALL_COST
                }
            }
            FaultKind::WriteRemote { owner, invalidate } => {
                let req_at = dsm_send(
                    fabric,
                    t0,
                    Message::new(node, *owner, DSM_CTRL, MsgClass::Dsm),
                );
                let at_owner = req_at + remote_handler_of(self.fault_handler_cpu);
                let ready = if invalidate.is_empty() || plan.contextual {
                    if plan.contextual {
                        // Fire-and-forget piggybacked invalidations.
                        for &s in invalidate {
                            let _ = fabric
                                .send(at_owner, Message::new(*owner, s, DSM_CTRL, MsgClass::Dsm));
                        }
                    }
                    at_owner
                } else {
                    let mut acks = at_owner;
                    for &s in invalidate {
                        let inv_at = dsm_send(
                            fabric,
                            at_owner,
                            Message::new(*owner, s, DSM_CTRL, MsgClass::Dsm),
                        );
                        let ack_at = inv_at + remote_handler_of(self.fault_handler_cpu);
                        let ack = dsm_send(
                            fabric,
                            ack_at,
                            Message::new(s, *owner, DSM_CTRL, MsgClass::Dsm),
                        );
                        acks = acks.max(ack);
                    }
                    acks
                };
                let resp_at = dsm_send(
                    fabric,
                    ready,
                    Message::new(*owner, node, DSM_PAGE, MsgClass::Dsm),
                );
                resp_at + INSTALL_COST
            }
        };
        let done = if plan.dirty_bit_msg {
            // Redundant EPT dirty-bit bookkeeping (vanilla guest): one more
            // control message plus handler work.
            let target = match &plan.kind {
                FaultKind::ReadRemote { owner } | FaultKind::WriteRemote { owner, .. } => *owner,
                FaultKind::Upgrade { .. } => self.bootstrap,
            };
            if target != node {
                let _ = fabric.send(done, Message::new(node, target, DSM_CTRL, MsgClass::Dsm));
            }
            done + SimTime::from_micros(1)
        } else {
            done
        };
        self.dsm.set_busy(plan.page, done);
        for &p in &plan.prefetched {
            self.dsm.set_busy(p, done);
        }
        done
    }
}

/// Remote-side handler cost from the local handler cost.
fn remote_handler_of(local: SimTime) -> SimTime {
    SimTime::from_nanos(local.as_nanos() / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::LinkProfile;

    fn setup(profile: HypervisorProfile) -> (VmMemory, Fabric) {
        let mem = VmMemory::new(&profile, 4, ByteSize::gib(4), NodeId::new(0));
        let fabric = Fabric::homogeneous(4, profile.link);
        (mem, fabric)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn hit_costs_nothing() {
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let r = mem.alloc_app_region("a", 4, n(0), PageClass::Private);
        let t = mem.access(SimTime::ZERO, n(0), r.page(0), Access::Write, &mut fab);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(fab.messages_sent(), 0);
    }

    #[test]
    fn remote_read_fault_cost_in_popcorn_range() {
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let r = mem.alloc_app_region("a", 4, n(0), PageClass::Private);
        let t = mem.access(SimTime::ZERO, n(1), r.page(0), Access::Read, &mut fab);
        let us = t.as_micros_f64();
        // Kernel-space DSM read faults are O(10 µs) on this hardware.
        assert!((5.0..20.0).contains(&us), "fault took {t}");
        assert_eq!(fab.messages_sent(), 2);
    }

    #[test]
    fn giantvm_faults_cost_more() {
        let (mut mem_f, mut fab_f) = setup(HypervisorProfile::fragvisor());
        let (mut mem_g, mut fab_g) = setup(HypervisorProfile::giantvm());
        let rf = mem_f.alloc_app_region("a", 4, n(0), PageClass::Private);
        let rg = mem_g.alloc_app_region("a", 4, n(0), PageClass::Private);
        let tf = mem_f.access(SimTime::ZERO, n(1), rf.page(0), Access::Read, &mut fab_f);
        let tg = mem_g.access(SimTime::ZERO, n(1), rg.page(0), Access::Read, &mut fab_g);
        assert!(
            tg.as_nanos() as f64 > tf.as_nanos() as f64 * 2.0,
            "giantvm {tg} vs fragvisor {tf}"
        );
    }

    #[test]
    fn write_remote_with_sharers_invalidate_round() {
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let r = mem.alloc_app_region("a", 1, n(0), PageClass::Private);
        let p = r.page(0);
        // Nodes 1 and 2 read-share the page.
        let t1 = mem.access(SimTime::ZERO, n(1), p, Access::Read, &mut fab);
        let t2 = mem.access(t1, n(2), p, Access::Read, &mut fab);
        // Node 3 writes: request → owner(0), invalidate {1,2}, transfer.
        let base = fab.messages_sent();
        let t3 = mem.access(t2, n(3), p, Access::Write, &mut fab);
        // req + 2 inval + 2 ack + page = 6 messages.
        assert_eq!(fab.messages_sent() - base, 6);
        assert!(t3 > t2);
    }

    #[test]
    fn contextual_dsm_skips_ack_round_for_page_tables() {
        let profile = HypervisorProfile::fragvisor();
        let (mut mem, mut fab) = setup(profile);
        let pt = mem.alloc.alloc("pt-extra", 1);
        mem.register_pages(&[pt.page(0)], n(0), PageClass::PageTable);
        let data = mem.alloc.alloc("data-extra", 1);
        mem.register_pages(&[data.page(0)], n(0), PageClass::KernelData);
        // Create two sharers of each page.
        for p in [pt.page(0), data.page(0)] {
            let _ = mem.access(SimTime::ZERO, n(1), p, Access::Read, &mut fab);
            let _ = mem.access(SimTime::ZERO, n(2), p, Access::Read, &mut fab);
        }
        let t_pt = {
            let start = SimTime::from_millis(1);
            mem.access(start, n(0), pt.page(0), Access::Write, &mut fab) - start
        };
        let t_data = {
            let start = SimTime::from_millis(2);
            mem.access(start, n(0), data.page(0), Access::Write, &mut fab) - start
        };
        assert!(
            t_pt.as_nanos() * 2 < t_data.as_nanos(),
            "contextual {t_pt} vs regular {t_data}"
        );
    }

    #[test]
    fn first_touch_follows_numa_policy() {
        // NUMA-aware guest: node 2's first touch lands locally.
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let p = PageId::new(900_000);
        let t = mem.access(SimTime::ZERO, n(2), p, Access::Write, &mut fab);
        assert_eq!(t, SimTime::ZERO);
        assert_eq!(mem.dsm.owner(p), Some(n(2)));

        // Vanilla guest: pages come from the bootstrap node's zones, so a
        // remote vCPU pays a fault immediately.
        let (mut mem, mut fab) = setup(HypervisorProfile::giantvm());
        let p = PageId::new(900_000);
        let t = mem.access(SimTime::ZERO, n(2), p, Access::Write, &mut fab);
        assert!(t > SimTime::ZERO);
        assert_eq!(mem.dsm.owner(p), Some(n(2)));
    }

    #[test]
    fn page_transactions_serialize() {
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let r = mem.alloc_app_region("a", 1, n(0), PageClass::AppShared);
        let p = r.page(0);
        // Two nodes write the same page at the same instant: the second
        // fault queues behind the first.
        let t1 = mem.access(SimTime::ZERO, n(1), p, Access::Write, &mut fab);
        let t2 = mem.access(SimTime::ZERO, n(2), p, Access::Write, &mut fab);
        assert!(t2 > t1, "t1={t1} t2={t2}");
        assert!(t2.as_nanos() >= 2 * t1.as_nanos() / 2);
    }

    #[test]
    fn batch_accumulates_latency() {
        let (mut mem, mut fab) = setup(HypervisorProfile::fragvisor());
        let r = mem.alloc_app_region("a", 8, n(0), PageClass::Private);
        let touches: Vec<(PageId, Access)> = r.iter().map(|p| (p, Access::Read)).collect();
        let t = mem.access_batch(SimTime::ZERO, n(1), &touches, &mut fab);
        let single = {
            let (mut mem2, mut fab2) = setup(HypervisorProfile::fragvisor());
            let r2 = mem2.alloc_app_region("a", 8, n(0), PageClass::Private);
            mem2.access(SimTime::ZERO, n(1), r2.page(0), Access::Read, &mut fab2)
        };
        assert!(
            t.as_nanos() > 6 * single.as_nanos(),
            "t={t} single={single}"
        );
    }

    #[test]
    fn batched_scan_matches_per_touch_path_exactly() {
        // The batched fast path must be timing- and stats-identical to
        // the per-touch loop: same completion time, same fault counters,
        // same fabric traffic. Mix hits, remote faults, first touches,
        // a direction change (write-back over the same pages) and a
        // non-consecutive stride so segmentation sees every shape.
        let build = || {
            let (mut mem, fab) = setup(HypervisorProfile::fragvisor());
            let r = mem.alloc_app_region("a", 32, n(0), PageClass::Private);
            (mem, fab, r)
        };
        let (mut seq_mem, mut seq_fab, r1) = build();
        let (mut bat_mem, mut bat_fab, r2) = build();
        assert_eq!(r1.page(0), r2.page(0));
        let mut touches: Vec<(PageId, Access)> = r1.iter().map(|p| (p, Access::Read)).collect();
        touches.extend(r1.iter().map(|p| (p, Access::Write)));
        touches.extend((0..8).map(|i| (PageId::new(700_000 + i * 3), Access::Write)));
        let mut t_seq = SimTime::from_micros(1);
        for &(page, access) in &touches {
            t_seq = seq_mem.access(t_seq, n(1), page, access, &mut seq_fab);
        }
        let t_bat = bat_mem.access_batch(SimTime::from_micros(1), n(1), &touches, &mut bat_fab);
        assert_eq!(t_bat, t_seq);
        assert_eq!(bat_mem.dsm.stats(), seq_mem.dsm.stats());
        assert_eq!(bat_fab.messages_sent(), seq_fab.messages_sent());
        bat_mem.dsm.check_invariants().unwrap();
    }

    #[test]
    fn ethernet_fabric_makes_faults_slower() {
        let mut profile = HypervisorProfile::fragvisor();
        profile.link = LinkProfile::ethernet_1g();
        let (mut mem, mut fab) = setup(profile);
        let r = mem.alloc_app_region("a", 1, n(0), PageClass::Private);
        let t = mem.access(SimTime::ZERO, n(1), r.page(0), Access::Read, &mut fab);
        assert!(t.as_micros_f64() > 60.0, "{t}");
    }
}
