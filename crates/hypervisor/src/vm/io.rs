//! The I/O family: virtio submission, device-side processing and
//! completion, and the external client's RX and TX paths.

use comm::{Message, MsgClass};
use dsm::{Access, PageId};
use sim_core::time::SimTime;
use sim_core::units::{Bandwidth, ByteSize};
use sim_core::Ctx;
use virtio::device::BlkRequest;
use virtio::plan::{BackendWork, IoPlan, PageTouch};
use virtio::{QueueId, VcpuId};

use super::cpu::Resume;
use super::{ClientSend, Event, Inbox, VcpuStatus, VmError, VmWorld, Wait};
use crate::program::{GuestMsg, Op};

/// Transport-level retransmission delay after the fabric reports a drop
/// on a path whose caller cannot afford to lose the message (client
/// traffic, completion interrupts, guest-local wakeups).
const FABRIC_RETX: SimTime = SimTime::from_micros(500);

/// Delay of a same-node doorbell or interrupt (ioeventfd / irqfd).
const LOCAL_NOTIFY: SimTime = SimTime::from_nanos(500);

/// Throughput of tmpfs (page-cache memcpy) on the testbed.
fn tmpfs_bandwidth() -> Bandwidth {
    Bandwidth::gbit_per_sec(80.0)
}

/// Throughput of the SATA SSD in the testbed (paper: ~500 MB/s).
fn ssd_bandwidth() -> Bandwidth {
    Bandwidth::mb_per_sec(500.0)
}

impl VmWorld {
    /// Sends `m` at `at` and returns when it lands. A message the fabric
    /// drops is retransmitted by the transport after [`FABRIC_RETX`].
    pub(super) fn send_or_retx(&mut self, at: SimTime, m: Message) -> SimTime {
        match self.fabric.send(at, m) {
            Ok(d) => d.deliver_at,
            Err(_) => at + FABRIC_RETX,
        }
    }

    /// When a completion interrupt raised at `t` reaches the guest: it
    /// crosses the fabric when `irq` is set (re-raised after a timeout if
    /// lost), else it is a same-node irqfd.
    fn irq_at(&mut self, t: SimTime, irq: Option<Message>) -> SimTime {
        match irq {
            Some(m) => self.send_or_retx(t, m),
            None => t + LOCAL_NOTIFY,
        }
    }

    /// Frees a descriptor slot on the net or blk queue.
    fn release_queue(&mut self, is_net: bool, queue: QueueId) {
        if is_net {
            if let Some(net) = self.net.as_mut() {
                net.complete(queue);
            }
        } else if let Some(blk) = self.blk.as_mut() {
            blk.complete(queue);
        }
    }

    /// A `NetSend` or `BlkIo` op. Transmission is asynchronous for the
    /// guest; a block request blocks it until the completion arrives. A
    /// full queue stashes the op and reissues it after a backoff.
    pub(super) fn io_op(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, op: Op) -> bool {
        let node = self.vcpus[vcpu.index()].node;
        let (is_net, conn, planned) = match &op {
            Op::NetSend {
                conn,
                bytes,
                payload,
            } => {
                let Some(net) = self.net.as_mut() else {
                    // Misconfigured guest: the packet vanishes (EIO) and
                    // the program keeps running.
                    self.stats.errors.push(VmError::NoNetDevice { vcpu });
                    self.stats.tx_drops += 1;
                    return true;
                };
                (true, Some(*conn), net.plan_tx(vcpu, node, payload, *bytes))
            }
            Op::BlkIo {
                bytes,
                write,
                tmpfs,
                buffer,
            } => {
                let Some(blk) = self.blk.as_mut() else {
                    // Misconfigured guest: the request fails (EIO) and the
                    // program keeps running.
                    self.stats.errors.push(VmError::NoBlkDevice { vcpu });
                    return true;
                };
                let req = BlkRequest {
                    bytes: *bytes,
                    write: *write,
                    tmpfs: *tmpfs,
                };
                (false, None, blk.plan_io(vcpu, node, req, buffer))
            }
            _ => unreachable!("not an I/O op: {op:?}"),
        };
        let Ok((plan, queue)) = planned else {
            // Queue full: socket backpressure for a send, a wait on the
            // device for a block request. Reissue it after a backoff.
            if is_net {
                self.stats.tx_drops += 1;
            }
            self.vcpus[vcpu.index()].retry_op = Some(op);
            ctx.schedule_in(SimTime::from_micros(50), Event::VcpuStep(vcpu));
            return false;
        };
        let submitted = self.submit_io(ctx, vcpu, queue, is_net, plan, conn);
        if is_net {
            if !submitted {
                self.stats.tx_drops += 1;
            }
            true
        } else if submitted {
            self.vcpus[vcpu.index()].status = VcpuStatus::Blocked(Wait::Io);
            false
        } else {
            // The device home is unreachable: the guest sees EIO and
            // continues instead of blocking on a completion that will
            // never arrive.
            true
        }
    }

    /// Submits an I/O plan: guest-side touches now, then device processing
    /// after the kick crosses the fabric.
    ///
    /// Returns false (releasing the queue slot) when the kick cannot reach
    /// the device's home node — a crashed device home under fault
    /// injection. The caller surfaces the failure to the guest.
    fn submit_io(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        queue: QueueId,
        is_net: bool,
        plan: IoPlan,
        conn: Option<u64>,
    ) -> bool {
        let node = self.vcpus[vcpu.index()].node;
        let t = self.mem.access_batch(
            ctx.now,
            node,
            &touches_of(&plan.guest_touches),
            &mut self.fabric,
        );
        let process_at = match &plan.notify {
            Some(m) => match self.fabric.send(t, *m) {
                Ok(d) => d.deliver_at,
                Err(_) => {
                    self.stats
                        .errors
                        .push(VmError::DeviceUnreachable { vcpu, is_net });
                    self.release_queue(is_net, queue);
                    return false;
                }
            },
            None => t + LOCAL_NOTIFY,
        };
        ctx.schedule_at(
            process_at.max(ctx.now),
            Event::DevProcess {
                vcpu,
                queue,
                is_net,
                plan: Box::new(plan),
                conn,
            },
        );
        true
    }

    /// Device-side processing of a submitted plan.
    pub(super) fn dev_process(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        queue: QueueId,
        is_net: bool,
        plan: IoPlan,
        conn: Option<u64>,
    ) {
        // Device-side touches run where the plan puts them, else on the
        // device home.
        let home = if is_net {
            self.net.as_ref().map(|d| d.home())
        } else {
            self.blk.as_ref().map(|d| d.home())
        };
        let node = plan
            .device_touches
            .first()
            .map_or(home.unwrap_or_default(), |t| t.node);
        let touches = touches_of(&plan.device_touches);
        let t = self
            .mem
            .access_batch(ctx.now, node, &touches, &mut self.fabric);
        let t_backend = match plan.backend {
            BackendWork::None | BackendWork::NetRx { .. } => t,
            BackendWork::NetTx { bytes } => {
                // Transmit to the external client over its link; with no
                // client attached the packet leaves the cluster. A dropped
                // response is retransmitted by the transport after a
                // timeout so closed-loop clients never hang.
                if let (Some(conn), Some(client)) = (conn, self.client.as_ref()) {
                    let home = self.net.as_ref().expect("net device").home();
                    let m = Message::new(home, client.node, bytes, MsgClass::Io);
                    let deliver_at = self.send_or_retx(t, m);
                    ctx.schedule_at(
                        deliver_at,
                        Event::ClientDeliver {
                            conn,
                            bytes: bytes.as_u64(),
                        },
                    );
                }
                t
            }
            BackendWork::Disk { bytes, write: _ } => {
                let dur = ssd_bandwidth().transfer_time(bytes);
                let start = t.max(self.stats.disk_free_at);
                self.stats.disk_free_at = start + dur;
                start + dur
            }
            BackendWork::Tmpfs { bytes } => t + tmpfs_bandwidth().transfer_time(bytes),
        };
        // If the submitter's slice dies before the interrupt lands,
        // `io_complete` discards it.
        let complete_at = self.irq_at(t_backend, plan.completion.irq_msg);
        ctx.schedule_at(
            complete_at.max(ctx.now),
            Event::IoComplete {
                vcpu,
                queue,
                is_net,
                guest_touches: plan.completion.guest_touches,
            },
        );
    }

    /// Handles an I/O completion interrupt on the submitter's slice.
    pub(super) fn io_complete(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        queue: QueueId,
        is_net: bool,
        guest_touches: Vec<PageTouch>,
    ) {
        self.release_queue(is_net, queue);
        // A crashed submitter's slice touches nothing, but its wake is
        // kept for the restore.
        let v = &self.vcpus[vcpu.index()];
        if v.status != VcpuStatus::Failed {
            let node = v.node;
            let _ =
                self.mem
                    .access_batch(ctx.now, node, &touches_of(&guest_touches), &mut self.fabric);
        }
        // Block-I/O submitters wait synchronously; wake them.
        if !is_net {
            self.wake(ctx, vcpu, Wait::Io, Resume::Queued);
        }
    }

    /// Injects requests from the client model into the fabric.
    pub(super) fn inject_client_sends(&mut self, ctx: &mut Ctx<'_, Event>, sends: Vec<ClientSend>) {
        let Some(client) = self.client.as_ref() else {
            return;
        };
        let client_node = client.node;
        let home = self
            .net
            .as_ref()
            .expect("client requires a net device")
            .home();
        for s in sends {
            self.client_pending.insert(s.conn, ctx.now);
            let m = Message::new(client_node, home, s.bytes, MsgClass::Io);
            // Dropped requests are retransmitted by the client transport.
            let deliver_at = self.send_or_retx(ctx.now, m);
            ctx.schedule_at(
                deliver_at,
                Event::ClientRxArrive {
                    conn: s.conn,
                    bytes: s.bytes.as_u64(),
                    target: s.target,
                },
            );
        }
    }

    /// A client request reached the NIC: run the RX delegation path.
    pub(super) fn client_rx_arrive(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        conn: u64,
        bytes: u64,
        target: VcpuId,
    ) {
        let node = self.vcpus[target.index()].node;
        let bufs = self.rx_buffer_pages(bytes);
        let Some(net) = self.net.as_mut() else {
            return;
        };
        let Ok((plan, queue)) = net.plan_rx(target, node, &bufs, ByteSize::bytes(bytes)) else {
            // RX ring full: the transport retransmits after a backoff so
            // closed-loop clients never lose a request permanently.
            self.stats.rx_drops += 1;
            ctx.schedule_in(
                SimTime::from_micros(200),
                Event::ClientRxArrive {
                    conn,
                    bytes,
                    target,
                },
            );
            return;
        };
        // Device-side work happens here on the home node.
        let t = self.mem.access_batch(
            ctx.now,
            plan.device_touches.first().map(|t| t.node).unwrap_or(node),
            &touches_of(&plan.device_touches),
            &mut self.fabric,
        );
        let deliver_at = self.irq_at(t, plan.completion.irq_msg);
        ctx.schedule_at(
            deliver_at.max(ctx.now),
            Event::NetRxDeliver {
                vcpu: target,
                msg: GuestMsg::Net { conn, bytes },
                queue,
                guest_touches: plan.completion.guest_touches,
            },
        );
    }

    /// An RX payload reaches the target vCPU's slice: the guest touches
    /// the used ring, then takes the message. A crashed slice touches
    /// nothing.
    pub(super) fn net_rx_deliver(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        msg: GuestMsg,
        queue: QueueId,
        guest_touches: Vec<PageTouch>,
    ) {
        self.release_queue(true, queue);
        let v = &self.vcpus[vcpu.index()];
        let t = if v.status == VcpuStatus::Failed {
            ctx.now
        } else {
            let node = v.node;
            self.mem
                .access_batch(ctx.now, node, &touches_of(&guest_touches), &mut self.fabric)
        };
        self.deliver(ctx, vcpu, Inbox::Net, msg, Resume::At(t));
    }

    /// A response reaches the external client: record its latency and
    /// inject the follow-up requests.
    pub(super) fn client_deliver(&mut self, ctx: &mut Ctx<'_, Event>, conn: u64, bytes: u64) {
        if let Some(start) = self.client_pending.remove(&conn) {
            let latency = ctx.now - start;
            self.stats.request_latency.record_time(latency);
            self.stats
                .latency_series
                .push(ctx.now, latency.as_millis_f64());
            self.stats.completed_requests += 1;
        }
        if let Some(client) = self.client.as_mut() {
            let sends = client.model.on_response(ctx.now, conn, bytes);
            self.inject_client_sends(ctx, sends);
        }
    }

    /// Round-robin guest buffer pages for incoming payloads.
    fn rx_buffer_pages(&mut self, bytes: u64) -> Vec<PageId> {
        let Some(region) = self.rx_buffers else {
            return Vec::new();
        };
        let pages = ByteSize::bytes(bytes).pages_4k().max(1).min(region.pages);
        let mut out = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            out.push(region.page(self.rx_cursor % region.pages));
            self.rx_cursor += 1;
        }
        out
    }
}

/// Extracts `(page, access)` pairs from plan touches.
fn touches_of(touches: &[PageTouch]) -> Vec<(PageId, Access)> {
    touches.iter().map(|t| (t.page, t.access)).collect()
}
