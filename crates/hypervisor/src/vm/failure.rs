//! The failure family: scripted crashes, the heartbeat detector,
//! checkpoint recovery, partition windows and predicted drains.

use comm::{Message, MsgClass, NodeId};
use sim_core::fault::FaultPlan;
use sim_core::time::SimTime;
use sim_core::trace::TraceEvent;
use sim_core::units::ByteSize;
use sim_core::Ctx;
use virtio::VcpuId;

use super::{Event, FailureState, Placement, VcpuStatus, VmWorld};
use crate::checkpoint;
use crate::failure::FailureConfig;

impl FailureState {
    pub(super) fn new(cfg: FailureConfig, nodes: usize, plan: Option<&FaultPlan>) -> Self {
        let mut crash_at = vec![None; nodes];
        let mut last_disturbance = SimTime::ZERO;
        if let Some(plan) = plan {
            for c in plan.crashes() {
                if let Some(slot) = crash_at.get_mut(c.node as usize) {
                    *slot = Some(c.at);
                }
            }
            // Partitions extend the probing horizon past their heal so a
            // cut-off node is still being probed (and declared) while the
            // window is open.
            last_disturbance = plan.last_disturbance();
        }
        FailureState {
            cfg,
            misses: vec![0; nodes],
            suspected: vec![false; nodes],
            restored_to: vec![None; nodes],
            crash_at,
            last_disturbance,
        }
    }

    /// True while the detector still has scripted disturbances to catch.
    fn probing_needed(&self, now: SimTime) -> bool {
        now <= self.last_disturbance
            || self
                .crash_at
                .iter()
                .zip(&self.suspected)
                .any(|(c, s)| c.is_some() && !s)
    }
}

impl VmWorld {
    /// Schedules the fault plan's crashes (and their predictions), the
    /// heartbeat detector's first probe round, and the partition windows.
    pub(super) fn schedule_faults(&self, ctx: &mut Ctx<'_, Event>) {
        let plan = self.fabric.fault_plan();
        let lead = self.failure.as_ref().and_then(|f| f.cfg.prediction_lead);
        for c in plan.map_or(&[][..], |p| p.crashes()) {
            let node = NodeId::new(c.node);
            ctx.schedule_at(c.at, Event::NodeFail { node });
            if let Some(lead) = lead {
                ctx.schedule_at(c.at.saturating_sub(lead), Event::PredictFailure { node });
            }
        }
        if let Some(f) = &self.failure {
            ctx.schedule_in(f.cfg.heartbeat_interval, Event::Heartbeat);
        }
        // The fabric itself severs traffic; these events only bookend the
        // window (trace + rejoin bookkeeping).
        for (idx, w) in plan.map_or(&[][..], |p| p.partitions()).iter().enumerate() {
            ctx.schedule_at(w.from, Event::PartitionBegin { idx });
            ctx.schedule_at(w.until, Event::PartitionEnd { idx });
        }
    }

    /// A scripted node crash fires: the slice's vCPUs halt and their
    /// in-flight compute is lost.
    pub(super) fn node_fail(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
        if self.crashed[node.index()].is_some() {
            return;
        }
        self.crashed[node.index()] = Some(ctx.now);
        self.stats.node_crashes += 1;
        self.tracer.emit_with(|| TraceEvent::NodeCrash {
            at: ctx.now.as_nanos(),
            node: node.0,
        });
        // Cancel in-flight compute on the node's pCPUs so their timelines
        // stay audit-clean (the cancelled work is simply lost).
        let computing: Vec<(usize, u32)> = self
            .vcpus
            .iter()
            .enumerate()
            .filter(|&(_, v)| v.node == node && v.status == VcpuStatus::Computing)
            .map(|(i, v)| (i, v.pcpu_slot))
            .collect();
        let now = ctx.now;
        for &(i, slot) in &computing {
            // Stash the remainder: recovery re-executes it after restore
            // (the rollback cost itself is accounted analytically).
            let rem = self.pcpus[slot as usize].cancel(now, i as u64);
            self.vcpus[i].stashed_work = Some(rem);
            self.reschedule_cpu(ctx, slot);
        }
        // Every live vCPU on the slice halts, a blocked one keeping its
        // wait for the restore (as `resume_status` does across a
        // migration). Migrating vCPUs survive: their register state
        // already left with the dump.
        for v in self.vcpus.iter_mut() {
            if v.node == node
                && !matches!(
                    v.status,
                    VcpuStatus::Done | VcpuStatus::Migrating | VcpuStatus::Failed
                )
            {
                v.resume_status = match v.status {
                    VcpuStatus::Blocked(w) => VcpuStatus::Blocked(w),
                    _ => VcpuStatus::Ready,
                };
                v.status = VcpuStatus::Failed;
                if self.failure.is_none() {
                    self.terminal_vcpus += 1;
                }
            }
        }
    }

    /// One heartbeat round: the monitor slice probes every other slice it
    /// has not yet declared dead; consecutive misses past the threshold
    /// trigger an epoch bump (fencing the dead node) and recovery.
    pub(super) fn heartbeat_round(&mut self, ctx: &mut Ctx<'_, Event>) {
        let Some(f) = self.failure.as_ref() else {
            return;
        };
        let interval = f.cfg.heartbeat_interval;
        let threshold = f.cfg.miss_threshold;
        let monitor = f.cfg.monitor;
        let phys_nodes = self.fabric.nodes() - usize::from(self.client.is_some());
        let mut declare: Vec<NodeId> = Vec::new();
        for n in 0..phys_nodes {
            if n == monitor.index() || self.failure.as_ref().is_none_or(|f| f.suspected[n]) {
                continue;
            }
            let dst = NodeId::from_usize(n);
            let probe = Message::new(monitor, dst, ByteSize::bytes(64), MsgClass::Control);
            // The fabric acks Control-class messages end-to-end with
            // bounded retries, so Err means the probe (or its retries)
            // never got through — a miss.
            let ok = self.fabric.send(ctx.now, probe).is_ok();
            let f = self.failure.as_mut().expect("checked above");
            if ok {
                f.misses[n] = 0;
            } else {
                f.misses[n] += 1;
                let misses = f.misses[n];
                self.stats.heartbeat_misses += 1;
                self.tracer.emit_with(|| TraceEvent::HeartbeatMiss {
                    at: ctx.now.as_nanos(),
                    node: dst.0,
                    misses,
                });
                if misses >= threshold {
                    f.suspected[n] = true;
                    declare.push(dst);
                }
            }
        }
        for dst in declare {
            let misses = self.failure.as_ref().expect("checked above").misses[dst.index()];
            self.tracer.emit_with(|| TraceEvent::NodeDeclaredDead {
                at: ctx.now.as_nanos(),
                node: dst.0,
                misses,
            });
            self.stats.detections += 1;
            if let Some(crash) = self.crashed[dst.index()] {
                self.stats.detection_latency += ctx.now - crash;
            }
            // Fence the declared node at a fresh cluster epoch before any
            // recovery touches the directory: from here on its accesses
            // are rejected, even if it is merely partitioned and alive.
            self.mem.dsm.set_clock(ctx.now);
            self.mem.dsm.bump_epoch(dst);
            ctx.schedule_now(Event::RecoverNode { node: dst });
        }
        let f = self.failure.as_ref().expect("checked above");
        if f.probing_needed(ctx.now) {
            ctx.schedule_in(interval, Event::Heartbeat);
        }
    }

    /// Picks the node a dead slice restores to: the configured
    /// `restore_to` when it is live and reachable, otherwise the
    /// lowest-numbered node that is neither dead, currently partitioned,
    /// nor the dead node itself.
    fn restore_target(&self, dead: NodeId, now: SimTime) -> Option<NodeId> {
        let f = self.failure.as_ref()?;
        let phys_nodes = self.fabric.nodes() - usize::from(self.client.is_some());
        let eligible = |n: NodeId| {
            n != dead
                && n.index() < phys_nodes
                && self.crashed[n.index()].is_none()
                && !self
                    .fabric
                    .fault_plan()
                    .is_some_and(|p| p.is_partitioned(n.0, now))
        };
        let preferred = f.cfg.restore_to;
        if eligible(preferred) {
            return Some(preferred);
        }
        (0..phys_nodes)
            .map(NodeId::from_usize)
            .find(|&n| eligible(n))
    }

    /// Recovers a declared-dead slice: quarantine its DSM pages, restore
    /// their contents from the last checkpoint image, and resume its
    /// vCPUs on the restore node once the image is streamed back.
    pub(super) fn recover_node(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
        let Some(f) = self.failure.as_ref() else {
            return;
        };
        if f.restored_to[node.index()].is_some() {
            return;
        }
        let cfg = f.cfg;
        let Some(target) = self.restore_target(node, ctx.now) else {
            // No live node left to restore onto; recovery is stuck until
            // something heals (a later partition-end retries).
            return;
        };
        if target != cfg.restore_to {
            self.stats.restore_fallbacks += 1;
        }
        self.failure.as_mut().expect("checked above").restored_to[node.index()] = Some(target);
        // 1. Every page homed on the dead slice is declared lost and
        //    re-granted exclusively at the restore node (the checkpoint
        //    image is the new truth — survivors' stale copies included).
        self.mem.dsm.set_clock(ctx.now);
        let pages = self.mem.dsm.quarantine_node(node, target);
        self.stats.pages_quarantined += pages;
        // 2. Stream the slice's share of the checkpoint image back from
        //    disk. Survivors are not rolled back; the guest work lost
        //    since the last checkpoint is charged to the stats instead.
        let image = ByteSize::bytes(pages * 4096);
        let restore_time = checkpoint::restore(image, 1, cfg.restore_disk, self.profile.link);
        self.tracer.emit_with(|| TraceEvent::NodeRestore {
            at: ctx.now.as_nanos(),
            node: node.0,
            pages,
            restore_ns: restore_time.as_nanos(),
        });
        // 3. Re-place the slice's vCPUs on the restore node; they resume
        //    once the image is back in memory.
        let resume_at = ctx.now + restore_time;
        let mut restored_vcpus = 0;
        for i in 0..self.vcpus.len() {
            let v = &self.vcpus[i];
            if v.status != VcpuStatus::Failed || v.node != node {
                continue;
            }
            // Land each vCPU on its own spare core of the restore node
            // (pCPU k for vCPU k, as `predict_failure` drains) rather
            // than piling onto an already-busy core.
            let pcpu = i as u32;
            let slot = self.ensure_pcpu(target, pcpu);
            let v = &mut self.vcpus[i];
            v.node = target;
            v.pcpu = pcpu;
            v.pcpu_slot = slot;
            v.restore_at = Some(resume_at);
            ctx.schedule_at(
                resume_at,
                Event::VcpuRestore {
                    vcpu: VcpuId::from_usize(i),
                },
            );
            restored_vcpus += 1;
        }
        // 4. Charge the rollback only if this pass restored something: a
        //    slice a predicted drain already emptied loses no work.
        let crash = self.crashed[node.index()];
        if let Some(crash) = crash.filter(|_| pages > 0 || restored_vcpus > 0) {
            let interval = cfg.checkpoint_interval.as_nanos();
            if interval > 0 {
                self.stats.lost_work += SimTime::from_nanos(crash.as_nanos() % interval);
            }
            self.stats.recovery_downtime += (ctx.now - crash) + restore_time;
        }
        debug_assert!(
            self.mem.dsm.check_invariants().is_ok(),
            "DSM invariants violated after recovery: {:?}",
            self.mem.dsm.check_invariants()
        );
    }

    /// A restored vCPU resumes on the recovery node, re-executing the
    /// burst that was in flight at the crash. A vCPU that crashed while
    /// blocked re-enters its wait: if the wake already landed (`wake`
    /// keeps it in `resume_status`) it steps, otherwise it blocks again.
    pub(super) fn vcpu_restore(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        let v = &mut self.vcpus[vcpu.index()];
        if v.status != VcpuStatus::Failed {
            return;
        }
        // A cascading recovery superseded this restore (the target died
        // mid-restore and the vCPU was re-placed with a later due time),
        // or the restore landed on a node that has since crashed: stay
        // Failed and wait for the newer restore.
        if v.restore_at != Some(ctx.now) || self.crashed[v.node.index()].is_some() {
            return;
        }
        v.restore_at = None;
        if let Some(rem) = v.stashed_work.take() {
            let after = v.after_cpu;
            self.begin_compute(ctx, vcpu, rem, after);
        } else {
            v.status = std::mem::replace(&mut v.resume_status, VcpuStatus::Ready);
            self.step_vcpu(ctx, vcpu);
        }
    }

    /// The nodes a scripted partition window cuts off.
    fn partition_nodes(&self, idx: usize) -> Vec<u32> {
        self.fabric
            .fault_plan()
            .and_then(|p| p.partitions().get(idx))
            .map(|w| w.nodes.clone())
            .unwrap_or_default()
    }

    /// A scripted partition window opens: record the cut-off minority in
    /// the trace. The fabric already severs their traffic; the detector
    /// will miss probes and fence them like any other dead slice.
    pub(super) fn partition_begin(&mut self, ctx: &mut Ctx<'_, Event>, idx: usize) {
        let nodes = self.partition_nodes(idx);
        if nodes.is_empty() {
            return;
        }
        self.stats.partitions += 1;
        for node in nodes {
            self.tracer.emit_with(|| TraceEvent::PartitionStart {
                at: ctx.now.as_nanos(),
                node,
            });
        }
    }

    /// A partition heals: every cut-off node that was declared dead in
    /// the meantime rejoins — it discards its stale page copies, resyncs
    /// to the current cluster epoch, and is probed (and trusted) again.
    /// A node that *crashed* while cut off stays fenced; its recovery is
    /// re-run instead so the vCPUs that failed after the first recovery
    /// pass are restored too.
    pub(super) fn partition_end(&mut self, ctx: &mut Ctx<'_, Event>, idx: usize) {
        for node in self.partition_nodes(idx) {
            self.tracer.emit_with(|| TraceEvent::PartitionHeal {
                at: ctx.now.as_nanos(),
                node,
            });
            let dst = NodeId::new(node);
            // Still inside another overlapping window: not healed yet.
            if self
                .fabric
                .fault_plan()
                .is_some_and(|p| p.is_partitioned(node, ctx.now))
            {
                continue;
            }
            let declared = self
                .failure
                .as_ref()
                .is_some_and(|f| f.suspected[dst.index()]);
            if !declared {
                continue;
            }
            if self.crashed[dst.index()].is_some() {
                // Dead for real. Re-run recovery for the vCPUs that
                // failed after the partition-time recovery pass (and for
                // a recovery that found no eligible restore target).
                if let Some(f) = self.failure.as_mut() {
                    f.restored_to[dst.index()] = None;
                }
                ctx.schedule_now(Event::RecoverNode { node: dst });
                continue;
            }
            self.mem.dsm.set_clock(ctx.now);
            let (_epoch, _discarded) = self.mem.dsm.rejoin_node(dst);
            self.stats.rejoins += 1;
            if let Some(f) = self.failure.as_mut() {
                f.suspected[dst.index()] = false;
                f.misses[dst.index()] = 0;
                f.restored_to[dst.index()] = None;
            }
        }
    }

    /// A predicted failure: proactively drain the suspect slice (vCPU
    /// migrations + DSM master-copy drain) so the crash hits an empty
    /// node. Requires mobility — a GiantVM-style VM cannot drain.
    ///
    /// vCPU k lands on pCPU k of the restore node, so drained vCPUs do
    /// not pile onto a core that is already busy. The master copies
    /// stream to the target as one bulk `Migration` message; the drain
    /// lasts until the slower of that stream and a vCPU migration ends.
    pub(super) fn predict_failure(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
        if self.crashed[node.index()].is_some() || !self.profile.mobility {
            return;
        }
        let Some(f) = self.failure.as_ref() else {
            return;
        };
        let target = f.cfg.restore_to;
        for i in 0..self.vcpus.len() {
            let v = &self.vcpus[i];
            if v.node != node || v.status == VcpuStatus::Done {
                continue;
            }
            let vcpu = VcpuId::from_usize(i);
            let pcpu = i as u32;
            let _ = self.ensure_pcpu(target, pcpu);
            if !self.request_migration(ctx, vcpu, Placement { node: target, pcpu }) {
                self.stats.migrations_refused += 1;
                self.tracer.emit_with(|| TraceEvent::VcpuMigrateRefused {
                    at: ctx.now.as_nanos(),
                    vcpu: vcpu.0,
                    from_node: node.0,
                    to_node: target.0,
                });
            }
        }
        // Move the master copies off the suspect slice ahead of the crash.
        self.mem.dsm.set_clock(ctx.now);
        let moved = self.mem.dsm.drain_node(node, target);
        self.stats.pages_drained += moved;
        let mut drain = self.profile.vcpu_migration_cost;
        if moved > 0 {
            let stream = Message::new(
                node,
                target,
                ByteSize::bytes(moved * (4096 + 64)),
                MsgClass::Migration,
            );
            if let Ok(d) = self.fabric.send(ctx.now, stream) {
                drain = drain.max(d.deliver_at - ctx.now);
            }
        }
        self.stats.drain_time += drain;
    }
}
