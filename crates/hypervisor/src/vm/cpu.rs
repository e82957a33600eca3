//! The vCPU family: stepping guest programs op by op, compute bursts on
//! processor-shared pCPUs, IPIs, guest-local messages, barriers, timers,
//! and the one wake path every waker goes through ([`VmWorld::wake`]).

use comm::{Message, MsgClass, NodeId};
use dsm::Access;
use sim_core::time::SimTime;
use sim_core::trace::TraceEvent;
use sim_core::units::ByteSize;
use sim_core::Ctx;
use virtio::VcpuId;

use super::{AfterCpu, Event, FleetOutMsg, Inbox, VcpuStatus, VmError, VmWorld, Wait};
use crate::program::{GuestMsg, Op, ProgCtx};

/// Maximum zero-latency ops processed per engine event (fairness bound).
const OPS_PER_EVENT: u32 = 256;

/// Latency of a same-node IPI.
const LOCAL_IPI: SimTime = SimTime::from_nanos(200);

/// Socket-buffer chunk size for guest-local streams (16 KiB, four pages).
const SOCKET_CHUNK: u64 = 16 * 1024;

/// Same-node task wakeup (futex/scheduler, no hypervisor involvement).
const LOCAL_WAKEUP: SimTime = SimTime::from_micros(3);

/// When a woken vCPU takes its next step. The wakers differ here, and
/// the difference orders events, so each keeps its own.
#[derive(Debug, Clone, Copy)]
pub(super) enum Resume {
    /// Inline when `t` is now, else as a step event at `t` (a wake whose
    /// DSM touch ends at `t`).
    At(SimTime),
    /// As a step event now, behind the events already due.
    Queued,
}

impl VmWorld {
    /// A step event: a vCPU in flight only notes it for `migration_done`.
    pub(super) fn vcpu_step(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        let v = &mut self.vcpus[vcpu.index()];
        if v.status == VcpuStatus::Migrating {
            v.missed_step = true;
        } else {
            self.step_vcpu(ctx, vcpu);
        }
    }

    /// Advances a vCPU's program until it blocks, computes, or exhausts the
    /// per-event op budget.
    pub(super) fn step_vcpu(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        let mut budget = OPS_PER_EVENT;
        loop {
            if self.vcpus[vcpu.index()].status != VcpuStatus::Ready {
                return;
            }
            if budget == 0 {
                ctx.schedule_now(Event::VcpuStep(vcpu));
                return;
            }
            budget -= 1;
            let retried = self.vcpus[vcpu.index()].retry_op.take();
            let op = match retried {
                Some(op) => op,
                None => {
                    let v = &mut self.vcpus[vcpu.index()];
                    let mut cx = ProgCtx {
                        now: ctx.now,
                        vcpu,
                        rng: &mut v.rng,
                        delivered: v.delivered.take(),
                        inbox: &v.net_inbox,
                        alloc: &mut self.mem.alloc,
                    };
                    v.program.next(&mut cx)
                }
            };
            if !self.exec_op(ctx, vcpu, op) {
                return;
            }
        }
    }

    /// Executes one op; returns true if the program can continue in the
    /// same event.
    fn exec_op(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, op: Op) -> bool {
        let now = ctx.now;
        let node = self.vcpus[vcpu.index()].node;
        match op {
            Op::Compute(work) => {
                self.begin_compute(ctx, vcpu, work, AfterCpu::Continue);
                false
            }
            Op::Touch { page, access } => {
                let t = self.mem.access(now, node, page, access, &mut self.fabric);
                self.continue_at(ctx, vcpu, t)
            }
            Op::TouchBatch(touches) => {
                let t = self.mem.access_batch(now, node, &touches, &mut self.fabric);
                self.continue_at(ctx, vcpu, t)
            }
            Op::Kernel(kop) => {
                let trace = self.mem.kernel.op_trace(vcpu.index(), kop);
                let t = self
                    .mem
                    .access_batch(now, node, &trace.touches, &mut self.fabric);
                if trace.tlb_shootdown {
                    self.broadcast_shootdown(now, vcpu);
                }
                if trace.cpu.is_zero() {
                    return self.continue_at(ctx, vcpu, t);
                }
                if t == now {
                    self.begin_compute(ctx, vcpu, trace.cpu, AfterCpu::Continue);
                } else {
                    ctx.schedule_at(
                        t,
                        Event::ChargeCpu {
                            vcpu,
                            work: trace.cpu,
                        },
                    );
                    self.vcpus[vcpu.index()].after_cpu = AfterCpu::Continue;
                }
                false
            }
            op @ (Op::NetSend { .. } | Op::BlkIo { .. }) => self.io_op(ctx, vcpu, op),
            Op::NetRecv => self.recv(vcpu, Inbox::Net),
            Op::LocalRecv => self.recv(vcpu, Inbox::Local),
            Op::RecvAny => self.recv(vcpu, Inbox::Any),
            Op::LocalSend { to, tag, bytes } => {
                let trace = self
                    .mem
                    .kernel
                    .op_trace(vcpu.index(), guest::KernelOp::LocalSocketSend(bytes));
                let mut t = self
                    .mem
                    .access_batch(now, node, &trace.touches, &mut self.fabric);
                // Large payloads stream through the bounded socket buffer:
                // each 16 KiB chunk fills the buffer, wakes the receiver,
                // and waits for it to drain — a wakeup ping-pong whose cost
                // dominates cross-node guest IPC (§7.2, Figure 12).
                let dst_node = self.vcpus[to.index()].node;
                let chunks = bytes / SOCKET_CHUNK;
                if chunks > 0 {
                    let wake = if dst_node == node {
                        LOCAL_WAKEUP
                    } else {
                        self.profile.remote_wakeup
                    };
                    let bufs = self.mem.kernel.socket_buffer_pages();
                    for cursor in 0..chunks as usize {
                        // Sender refills the (shared) socket buffer page...
                        let page = bufs[cursor % bufs.len()];
                        t = self
                            .mem
                            .access(t, node, page, Access::Write, &mut self.fabric);
                        t += wake;
                        // ...and the receiver drains it.
                        t = self
                            .mem
                            .access(t, dst_node, page, Access::Read, &mut self.fabric);
                        t += wake;
                    }
                }
                let msg = GuestMsg::Local {
                    from: vcpu,
                    tag,
                    bytes,
                };
                ctx.schedule_at(
                    t,
                    Event::ChargeCpu {
                        vcpu,
                        work: trace.cpu,
                    },
                );
                self.vcpus[vcpu.index()].after_cpu = AfterCpu::DeliverLocal { to, msg };
                false
            }
            Op::ConsoleWrite { bytes } => {
                // printk is asynchronous: the guest pays a syscall-ish cost
                // and the PTY worker on the bootstrap slice drains it.
                if let Some(m) = self.console.plan_write(node, ByteSize::bytes(bytes)) {
                    let _ = self.fabric.send(now, m);
                }
                let t = now + SimTime::from_micros(1);
                self.continue_at(ctx, vcpu, t)
            }
            Op::SendIpi(to) => {
                self.send_ipi(ctx, node, to);
                true
            }
            Op::WaitIpi => {
                let v = &mut self.vcpus[vcpu.index()];
                if v.pending_ipis > 0 {
                    v.pending_ipis -= 1;
                    true
                } else {
                    v.status = VcpuStatus::Blocked(Wait::Ipi);
                    false
                }
            }
            Op::Barrier { id, parties } => {
                let b = self.barriers.entry(id).or_default();
                b.arrived.insert(vcpu.0);
                if (b.arrived.len() as u32) < parties {
                    self.vcpus[vcpu.index()].status = VcpuStatus::Blocked(Wait::Barrier);
                    return false;
                }
                let arrived = self.barriers.remove(&id).expect("just entered").arrived;
                for w in arrived.into_iter().filter(|&w| w != vcpu.0) {
                    // Every other party is still waiting, a crashed one
                    // in its `resume_status`.
                    let woke = self.wake(ctx, VcpuId::new(w), Wait::Barrier, Resume::Queued);
                    debug_assert!(woke, "barrier party vCPU{w} was not waiting");
                }
                true
            }
            Op::Sleep(d) => {
                self.vcpus[vcpu.index()].status = VcpuStatus::Blocked(Wait::Timer);
                ctx.schedule_in(d, Event::WakeVcpu(vcpu));
                false
            }
            Op::FleetSend { dst, bytes, tag } => {
                match self.fleet_outbox.as_mut() {
                    Some(outbox) => outbox.push(FleetOutMsg {
                        depart: now,
                        src_vcpu: vcpu,
                        dst,
                        bytes,
                        tag,
                    }),
                    None => {
                        // Outside a fleet the message vanishes (EIO) and
                        // the program keeps running.
                        self.stats.errors.push(VmError::NoFleet { vcpu });
                        self.stats.tx_drops += 1;
                    }
                }
                // Fire-and-forget: the guest pays a syscall-ish doorbell
                // cost; network latency is charged by the fleet engine's
                // ingress line at the window barrier.
                let t = now + SimTime::from_micros(1);
                self.continue_at(ctx, vcpu, t)
            }
            Op::Observe { value_ns } => {
                self.stats.samples[vcpu.index()].push(value_ns);
                true
            }
            Op::Done => {
                self.vcpus[vcpu.index()].status = VcpuStatus::Done;
                self.terminal_vcpus += 1;
                self.stats.vcpu_finish[vcpu.index()] = Some(now);
                false
            }
        }
    }

    /// Starts a compute burst on the vCPU's pCPU.
    #[inline]
    pub(super) fn begin_compute(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        work: SimTime,
        after: AfterCpu,
    ) {
        let slot = {
            let v = &mut self.vcpus[vcpu.index()];
            v.status = VcpuStatus::Computing;
            v.after_cpu = after;
            v.pcpu_slot
        };
        let now = ctx.now;
        // `add` already returns the fresh completion prediction; using it
        // directly saves re-deriving it through `next_completion`.
        let c = self.pcpus[slot as usize].add(now, vcpu.0 as u64, work);
        ctx.schedule_at(
            c.at,
            Event::CpuDone {
                slot,
                epoch: c.epoch,
            },
        );
    }

    /// Continues a program after a synchronous operation ending at `t`.
    #[inline]
    fn continue_at(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, t: SimTime) -> bool {
        if t <= ctx.now {
            true
        } else {
            ctx.schedule_at(t, Event::VcpuStep(vcpu));
            false
        }
    }

    /// A pCPU completion prediction expired: finished bursts run their
    /// `after_cpu` action and their programs continue.
    pub(super) fn cpu_done(&mut self, ctx: &mut Ctx<'_, Event>, slot: u32, epoch: u64) {
        let mut done = std::mem::take(&mut self.done_scratch);
        done.clear();
        self.pcpus[slot as usize].on_completion_event_into(ctx.now, epoch, &mut done);
        if done.is_empty() {
            self.done_scratch = done;
            return;
        }
        self.reschedule_cpu(ctx, slot);
        for &task in &done {
            let vcpu = VcpuId::new(task as u32);
            let v = &mut self.vcpus[vcpu.index()];
            debug_assert_eq!(v.status, VcpuStatus::Computing);
            v.status = VcpuStatus::Ready;
            let after = std::mem::replace(&mut v.after_cpu, AfterCpu::Continue);
            if let AfterCpu::DeliverLocal { to, msg } = after {
                let src = v.node;
                let dst = self.vcpus[to.index()].node;
                let at = if src == dst {
                    ctx.now + LOCAL_IPI
                } else {
                    // The wakeup crosses the fabric as an IPI; the payload
                    // moves through DSM socket buffers already touched on
                    // the send side. A lost wakeup is redelivered after a
                    // timeout so receivers blocked on a dead slice's
                    // sender resume after recovery.
                    let m = Message::new(src, dst, ByteSize::bytes(64), MsgClass::Interrupt);
                    self.send_or_retx(ctx.now, m)
                };
                ctx.schedule_at(at, Event::LocalDeliver { vcpu: to, msg });
            }
            self.step_vcpu(ctx, vcpu);
        }
        self.done_scratch = done;
    }

    /// A deferred CPU charge fires; a vCPU in flight starts it on landing.
    pub(super) fn charge_cpu(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, work: SimTime) {
        let v = &mut self.vcpus[vcpu.index()];
        if v.status == VcpuStatus::Migrating {
            v.missed_charge = Some(work);
            return;
        }
        let after = v.after_cpu;
        self.begin_compute(ctx, vcpu, work, after);
    }

    /// Wakes `vcpu` if it is blocked on a wait that `by` ends, first
    /// handing it the next message when `by` is a delivery. Returns false
    /// (and changes nothing) when it is not waiting for `by`.
    ///
    /// This is the only place a wakeup meets a migration or a crash: a
    /// vCPU in flight or `Failed` is woken in its `resume_status`, and
    /// `migration_done` or `vcpu_restore` replays the step. Otherwise the
    /// vCPU becomes ready and steps as `resume` says.
    pub(super) fn wake(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        by: Wait,
        resume: Resume,
    ) -> bool {
        let v = &mut self.vcpus[vcpu.index()];
        let away = matches!(v.status, VcpuStatus::Migrating | VcpuStatus::Failed);
        let waiting = if away { v.resume_status } else { v.status };
        if !matches!(waiting, VcpuStatus::Blocked(w) if by.ends(w)) {
            return false;
        }
        if let Wait::Recv(inbox) = by {
            v.hand_off(inbox);
        }
        if away {
            v.resume_status = VcpuStatus::Ready;
            v.missed_step = v.status == VcpuStatus::Migrating;
            return true;
        }
        v.status = VcpuStatus::Ready;
        match resume {
            Resume::At(t) if t > ctx.now => ctx.schedule_at(t, Event::VcpuStep(vcpu)),
            Resume::At(_) => self.step_vcpu(ctx, vcpu),
            Resume::Queued => ctx.schedule_now(Event::VcpuStep(vcpu)),
        }
        true
    }

    /// A receive op: takes the next message from `inbox`, or blocks.
    fn recv(&mut self, vcpu: VcpuId, inbox: Inbox) -> bool {
        let v = &mut self.vcpus[vcpu.index()];
        let got = v.hand_off(inbox);
        if !got {
            v.status = VcpuStatus::Blocked(Wait::Recv(inbox));
        }
        got
    }

    /// Queues `msg` in `vcpu`'s `inbox` and wakes a receiver blocked on it,
    /// a crashed one included (it takes the message when restored).
    pub(super) fn deliver(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        inbox: Inbox,
        msg: GuestMsg,
        resume: Resume,
    ) {
        let v = &mut self.vcpus[vcpu.index()];
        match inbox {
            Inbox::Net => v.net_inbox.push_back(msg),
            Inbox::Local => v.local_inbox.push_back(msg),
            Inbox::Any => unreachable!("a message arrives in one inbox"),
        }
        self.wake(ctx, vcpu, Wait::Recv(inbox), resume);
    }

    /// A guest-local message arrives: the receiver reads the socket
    /// buffer, then takes the message.
    pub(super) fn local_deliver(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, msg: GuestMsg) {
        let v = &self.vcpus[vcpu.index()];
        let node = v.node;
        let t = match self.mem.kernel.socket_buffer_pages().first() {
            Some(&page) if v.status != VcpuStatus::Failed => {
                self.mem
                    .access(ctx.now, node, page, Access::Read, &mut self.fabric)
            }
            _ => ctx.now,
        };
        self.deliver(ctx, vcpu, Inbox::Local, msg, Resume::At(t));
    }

    /// A cross-tenant fleet message arrives. Network latency was already
    /// charged by the fleet engine's ingress line: the message lands
    /// directly in the guest's net inbox.
    pub(super) fn fleet_deliver(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, msg: GuestMsg) {
        self.deliver(ctx, vcpu, Inbox::Net, msg, Resume::At(ctx.now));
    }

    /// Fire-and-forget TLB shootdown IPIs to all other vCPUs.
    fn broadcast_shootdown(&mut self, now: SimTime, from: VcpuId) {
        let src = self.vcpus[from.index()].node;
        let targets: Vec<(usize, NodeId)> = self
            .vcpus
            .iter()
            .enumerate()
            .filter(|&(i, v)| i != from.index() && v.status != VcpuStatus::Done)
            .map(|(i, v)| (i, v.node))
            .collect();
        for (vcpu, dst) in targets {
            self.stats.ipis.record(64);
            self.tracer.emit_with(|| TraceEvent::Ipi {
                at: now.as_nanos(),
                src_node: src.0,
                to_vcpu: vcpu as u32,
                kind: "shootdown",
            });
            if dst != src {
                let m = Message::new(src, dst, ByteSize::bytes(64), MsgClass::Interrupt);
                let _ = self.fabric.send(now, m);
            }
        }
    }

    /// Routes an IPI to a vCPU via the location table.
    fn send_ipi(&mut self, ctx: &mut Ctx<'_, Event>, src: NodeId, to: VcpuId) {
        self.stats.ipis.record(64);
        self.tracer.emit_with(|| TraceEvent::Ipi {
            at: ctx.now.as_nanos(),
            src_node: src.0,
            to_vcpu: to.0,
            kind: "ipi",
        });
        let dst = self.vcpus[to.index()].node;
        if dst == src {
            ctx.schedule_in(LOCAL_IPI, Event::IpiDeliver { vcpu: to });
        } else {
            let m = Message::new(src, dst, ByteSize::bytes(64), MsgClass::Interrupt);
            match self.fabric.send(ctx.now, m) {
                Ok(d) => ctx.schedule_at(d.deliver_at, Event::IpiDeliver { vcpu: to }),
                Err(_) => {
                    // Target slice dead or the fabric's bounded retries
                    // exhausted: the IPI is lost (the target, if it ever
                    // recovers, is restored from its checkpoint anyway).
                    self.stats.errors.push(VmError::IpiLost { src, vcpu: to });
                }
            }
        }
    }

    /// An IPI arrives: it wakes a vCPU waiting for one, or stays pending.
    pub(super) fn ipi_deliver(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        if !self.wake(ctx, vcpu, Wait::Ipi, Resume::At(ctx.now)) {
            self.vcpus[vcpu.index()].pending_ipis += 1;
        }
    }

    /// A sleeping vCPU's timer fires.
    pub(super) fn timer_fired(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        self.wake(ctx, vcpu, Wait::Timer, Resume::At(ctx.now));
    }

    /// A periodic guest timer tick: the handler touches hot kernel pages;
    /// its latency is absorbed (a tick steals ~microseconds of vCPU time).
    pub(super) fn guest_tick(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        let v = &self.vcpus[vcpu.index()];
        if v.status == VcpuStatus::Done {
            return;
        }
        // A dead slice touches no pages, but the tick chain stays alive
        // for after the restore.
        if v.status != VcpuStatus::Failed {
            let node = v.node;
            let trace = self
                .mem
                .kernel
                .op_trace(vcpu.index(), guest::KernelOp::TimerTick);
            let _ = self
                .mem
                .access_batch(ctx.now, node, &trace.touches, &mut self.fabric);
        }
        if let Some(interval) = self.timer_interval {
            ctx.schedule_in(interval, Event::GuestTick { vcpu });
        }
    }
}
