//! The mobility family: live vCPU migration between nodes.

use comm::{Message, MsgClass, NodeId};
use sim_core::trace::TraceEvent;
use sim_core::units::ByteSize;
use sim_core::Ctx;
use virtio::VcpuId;

use super::{Event, Placement, VcpuStatus, VmWorld};

impl VmWorld {
    /// Starts a vCPU migration; returns false if the profile lacks
    /// mobility or the vCPU is in a non-migratable state.
    pub fn request_migration(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        to: Placement,
    ) -> bool {
        if !self.profile.mobility {
            return false;
        }
        let v = &mut self.vcpus[vcpu.index()];
        match v.status {
            VcpuStatus::Done | VcpuStatus::Migrating => return false,
            VcpuStatus::Computing => {
                let slot = v.pcpu_slot;
                v.status = VcpuStatus::Migrating;
                v.resume_status = VcpuStatus::Ready;
                v.missed_step = false;
                let rem = self.pcpus[slot as usize].cancel(ctx.now, vcpu.0 as u64);
                self.vcpus[vcpu.index()].stashed_work = Some(rem);
                self.reschedule_cpu(ctx, slot);
            }
            other => {
                // Blocked/sleeping/ready vCPUs migrate in place; wakeups
                // arriving mid-migration are recorded by `wake` and
                // replayed at MigrationDone.
                v.resume_status = other;
                v.missed_step = false;
                v.status = VcpuStatus::Migrating;
            }
        }
        // Register dump on the source, then state transfer.
        let src = self.vcpus[vcpu.index()].node;
        self.tracer.emit_with(|| TraceEvent::VcpuMigrateStart {
            at: ctx.now.as_nanos(),
            vcpu: vcpu.0,
            from_node: src.0,
            to_node: to.node.0,
        });
        let dump_done = ctx.now + self.profile.register_dump_cost;
        let dump = Message::new(src, to.node, ByteSize::kib(8), MsgClass::Migration);
        let _ = self.fabric.send(dump_done, dump);
        // Location-table update broadcast to every other slice. IPIs routed
        // through a stale entry stall until the table converges, so the tiny
        // update rides the priority tier ahead of any bulk migration stream.
        for n in 0..self.fabric.nodes() {
            let dst = NodeId::from_usize(n);
            if dst != src && dst != to.node {
                let update =
                    Message::new(src, dst, ByteSize::bytes(64), MsgClass::Migration).urgent();
                let _ = self.fabric.send(dump_done, update);
            }
        }
        let done_at = ctx.now + self.profile.vcpu_migration_cost;
        ctx.schedule_at(done_at, Event::MigrationDone { vcpu, to });
        self.stats.migrations += 1;
        self.stats.migration_time += self.profile.vcpu_migration_cost;
        true
    }

    /// A migration lands: the vCPU resumes on `to` in the state it left
    /// in, replaying whatever fired while it was in flight.
    pub(super) fn migration_done(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, to: Placement) {
        // The destination died while the state transfer was in flight:
        // the vCPU lands dead and is recovered with the rest of the slice.
        if self.crashed[to.node.index()].is_some() {
            // If the slice was already restored elsewhere, land there
            // instead and resume; otherwise wait for recovery with the
            // rest of the slice.
            let restored_to = self
                .failure
                .as_ref()
                .and_then(|f| f.restored_to[to.node.index()]);
            // Until recovery re-places the vCPU, the crashed placement may
            // have no pCPU; an out-of-range slot keeps any (buggy) use loud.
            let slot = match restored_to {
                Some(target) => self.ensure_pcpu(target, to.pcpu),
                None => u32::MAX,
            };
            let v = &mut self.vcpus[vcpu.index()];
            debug_assert_eq!(v.status, VcpuStatus::Migrating);
            v.node = restored_to.unwrap_or(to.node);
            v.pcpu = to.pcpu;
            v.pcpu_slot = slot;
            v.status = VcpuStatus::Failed;
            v.stashed_work = None;
            if self.failure.is_none() {
                self.terminal_vcpus += 1;
            }
            v.missed_step = false;
            v.missed_charge = None;
            if restored_to.is_some() {
                v.restore_at = Some(ctx.now);
                ctx.schedule_now(Event::VcpuRestore { vcpu });
            }
            return;
        }
        self.tracer.emit_with(|| TraceEvent::VcpuMigrateDone {
            at: ctx.now.as_nanos(),
            vcpu: vcpu.0,
            node: to.node.0,
        });
        let slot = self.alloc_pcpu(to.node, to.pcpu);
        let (stashed, resume, missed_step, missed_charge) = {
            let v = &mut self.vcpus[vcpu.index()];
            debug_assert_eq!(v.status, VcpuStatus::Migrating);
            v.node = to.node;
            v.pcpu = to.pcpu;
            v.pcpu_slot = slot;
            (
                v.stashed_work.take(),
                v.resume_status,
                std::mem::take(&mut v.missed_step),
                v.missed_charge.take(),
            )
        };
        if self.profile.helper_thread_load > 0.0 {
            let load = self.profile.helper_thread_load;
            self.pcpus[slot as usize].set_background_load(ctx.now, load);
        }
        // An interrupted burst, or a deferred charge that expired in
        // flight, starts on the new pCPU (after_cpu is still armed).
        if let Some(work) = stashed.or(missed_charge) {
            let after = self.vcpus[vcpu.index()].after_cpu;
            self.begin_compute(ctx, vcpu, work, after);
            return;
        }
        // Restore the pre-migration status; replay a missed step/wakeup.
        // For ready vCPUs without a missed step, the original wakeup event
        // is still queued and will arrive at the new placement.
        let v = &mut self.vcpus[vcpu.index()];
        v.status = resume;
        if missed_step {
            v.status = VcpuStatus::Ready;
            ctx.schedule_now(Event::VcpuStep(vcpu));
        }
    }
}
