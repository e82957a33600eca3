//! The distributed-VM simulator: vCPUs, devices, client, migration.
//!
//! [`VmBuilder`] assembles a VM (profile, placement, RAM, devices, guest
//! programs, optional external client) into a [`VmSim`] — an engine plus a
//! [`VmWorld`]. The world executes guest programs op by op:
//!
//! * compute bursts share pCPUs under processor sharing ([`sim_core::pscpu`]),
//!   which is what makes overcommitment slow;
//! * page touches run through the DSM fault executor ([`crate::memory`]),
//!   which is what makes distribution slow;
//! * I/O runs through delegated VirtIO devices, crossing the fabric when the
//!   submitting vCPU is not on the device's home node;
//! * vCPU migration pauses a vCPU, transfers its state, and resumes it on
//!   another node — the mobility mechanism GiantVM lacks;
//! * an optional fault plan crashes nodes and degrades links mid-run, and
//!   an optional heartbeat failure detector ([`crate::failure`]) detects
//!   the crash and drives live recovery (DSM quarantine + checkpoint
//!   restore, or a proactive drain when the failure was predicted).

use std::collections::{BTreeSet, HashMap, VecDeque};

use comm::{Fabric, LinkProfile, Message, MsgClass, NodeId};
use dsm::{Access, PageClass, PageId};
use guest::memory::Region;
use sim_core::fault::FaultPlan;
use sim_core::pscpu::PsCpu;
use sim_core::rng::DetRng;
use sim_core::time::SimTime;
use sim_core::trace::{TraceEvent, Tracer};
use sim_core::units::{Bandwidth, ByteSize};
use sim_core::{Ctx, Engine, World};
use virtio::device::{BlkRequest, DeviceConfig, VirtioBlk, VirtioConsole, VirtioNet};
use virtio::plan::{BackendWork, IoPlan};
use virtio::{QueueId, VcpuId};

use crate::checkpoint;
use crate::elastic::MemoryConfig;
use crate::failure::FailureConfig;
use crate::memory::VmMemory;
use crate::profile::HypervisorProfile;
use crate::program::{GuestMsg, Op, ProgCtx, Program};
use crate::stats::VmStats;

/// Maximum zero-latency ops processed per engine event (fairness bound).
const OPS_PER_EVENT: u32 = 256;

/// Latency of a same-node IPI.
const LOCAL_IPI: SimTime = SimTime::from_nanos(200);

/// Socket-buffer chunk size for guest-local streams (16 KiB, four pages).
const SOCKET_CHUNK: u64 = 16 * 1024;

/// Same-node task wakeup (futex/scheduler, no hypervisor involvement).
const LOCAL_WAKEUP: SimTime = SimTime::from_micros(3);

/// Transport-level retransmission delay after the fabric reports a drop
/// on a path whose caller cannot afford to lose the message (client
/// traffic, completion interrupts, guest-local wakeups).
const FABRIC_RETX: SimTime = SimTime::from_micros(500);

/// Throughput of tmpfs (page-cache memcpy) on the testbed.
fn tmpfs_bandwidth() -> Bandwidth {
    Bandwidth::gbit_per_sec(80.0)
}

/// Throughput of the SATA SSD in the testbed (paper: ~500 MB/s).
fn ssd_bandwidth() -> Bandwidth {
    Bandwidth::mb_per_sec(500.0)
}

/// Where one vCPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Host machine.
    pub node: NodeId,
    /// pCPU index on that machine.
    pub pcpu: u32,
}

impl Placement {
    /// Convenience constructor.
    pub fn new(node: u32, pcpu: u32) -> Self {
        Placement {
            node: NodeId::new(node),
            pcpu,
        }
    }
}

/// One request injection from the external client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSend {
    /// Connection identifier (latency is tracked per in-flight conn).
    pub conn: u64,
    /// Request payload size.
    pub bytes: ByteSize,
    /// The vCPU the request is dispatched to (e.g. the NGINX worker).
    pub target: VcpuId,
}

/// External load generator (ApacheBench-style closed loop, FaaS client...).
pub trait ClientModel {
    /// Requests to inject at simulation start.
    fn start(&mut self, now: SimTime) -> Vec<ClientSend>;

    /// Called when a response arrives; returns follow-up requests.
    fn on_response(&mut self, now: SimTime, conn: u64, bytes: u64) -> Vec<ClientSend>;

    /// True when the client has no more work outstanding or planned.
    fn is_done(&self) -> bool;
}

/// Client attachment configuration.
pub struct ClientConfig {
    /// The node the client machine occupies in the fabric.
    pub node: NodeId,
    /// Link between the client and the VM's NIC-home node (both ways).
    pub link: LinkProfile,
    /// The load-generation behaviour.
    pub model: Box<dyn ClientModel>,
}

/// A non-fatal execution error surfaced by the VM instead of a panic.
///
/// Errors accumulate in [`VmStats::errors`]; the guest degrades (lost
/// packet, failed I/O) rather than aborting the simulation, which is what
/// lets fault-injection runs ride out dead devices and lossy links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// A `NetSend` op ran on a VM without a net device.
    NoNetDevice {
        /// The issuing vCPU.
        vcpu: VcpuId,
    },
    /// A `BlkIo` op ran on a VM without a block device.
    NoBlkDevice {
        /// The issuing vCPU.
        vcpu: VcpuId,
    },
    /// A device kick could not reach the device's home node (the guest
    /// sees a failed I/O).
    DeviceUnreachable {
        /// The submitting vCPU.
        vcpu: VcpuId,
        /// True for the net device, false for blk.
        is_net: bool,
    },
    /// An IPI was lost: the target slice is dead or the fabric's bounded
    /// retries were exhausted.
    IpiLost {
        /// Sending node.
        src: NodeId,
        /// Target vCPU.
        vcpu: VcpuId,
    },
    /// A `FleetSend` op ran on a VM outside a fleet (no outbox attached);
    /// the message vanishes (EIO).
    NoFleet {
        /// The issuing vCPU.
        vcpu: VcpuId,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NoNetDevice { vcpu } => {
                write!(f, "vCPU{} issued NetSend without a net device", vcpu.0)
            }
            VmError::NoBlkDevice { vcpu } => {
                write!(f, "vCPU{} issued BlkIo without a block device", vcpu.0)
            }
            VmError::DeviceUnreachable { vcpu, is_net } => {
                let dev = if *is_net { "net" } else { "blk" };
                write!(f, "vCPU{} could not reach the {dev} device home", vcpu.0)
            }
            VmError::IpiLost { src, vcpu } => {
                write!(f, "IPI from node {} to vCPU{} was lost", src.0, vcpu.0)
            }
            VmError::NoFleet { vcpu } => {
                write!(f, "vCPU{} issued FleetSend outside a fleet", vcpu.0)
            }
        }
    }
}

/// What a vCPU is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VcpuStatus {
    /// Step scheduled or in progress.
    Ready,
    /// Running a compute burst on its pCPU.
    Computing,
    /// Waiting for a network message.
    BlockedNet,
    /// Waiting for a guest-local message.
    BlockedLocal,
    /// Waiting for any message (network or local).
    BlockedAny,
    /// Waiting for an IPI.
    BlockedIpi,
    /// Waiting on a barrier.
    BlockedBarrier,
    /// Waiting for a block-I/O completion.
    BlockedIo,
    /// Sleeping until a timer fires.
    Sleeping,
    /// Mid-migration.
    Migrating,
    /// Halted by a node crash; awaiting checkpoint restore.
    Failed,
    /// Program finished.
    Done,
}

/// What to do after a charged CPU burst completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterCpu {
    /// Continue the program.
    Continue,
    /// Deliver a guest-local message, then continue.
    DeliverLocal {
        /// Receiving vCPU.
        to: VcpuId,
        /// The message.
        msg: GuestMsg,
    },
}

struct VcpuState {
    node: NodeId,
    pcpu: u32,
    /// Slot of `(node, pcpu)` in the world's pCPU slab; refreshed whenever
    /// the placement changes so the compute hot path never hashes.
    pcpu_slot: u32,
    program: Box<dyn Program>,
    status: VcpuStatus,
    net_inbox: VecDeque<GuestMsg>,
    local_inbox: VecDeque<GuestMsg>,
    pending_ipis: u32,
    delivered: Option<GuestMsg>,
    after_cpu: AfterCpu,
    /// Op to re-execute after a transient queue-full backoff.
    retry_op: Option<Op>,
    /// Remaining compute stashed while migrating.
    stashed_work: Option<SimTime>,
    /// Pre-migration status to restore at MigrationDone.
    resume_status: VcpuStatus,
    /// A step/wake event fired while the vCPU was migrating.
    missed_step: bool,
    /// A deferred CPU charge fired while migrating.
    missed_charge: Option<SimTime>,
    /// When the pending `VcpuRestore` is due. A cascading recovery (the
    /// restore target itself dying mid-restore) re-places the vCPU and
    /// re-arms this; the superseded restore event sees a mismatched time
    /// and is ignored.
    restore_at: Option<SimTime>,
    finish: Option<SimTime>,
    rng: DetRng,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: BTreeSet<u32>,
}

/// Runtime state of the heartbeat failure detector (monitor = node 0).
#[derive(Debug)]
struct FailureState {
    cfg: FailureConfig,
    /// Consecutive missed probes per node.
    misses: Vec<u32>,
    /// Nodes already declared dead (no further probing).
    suspected: Vec<bool>,
    /// Where each node's recovery landed (None = not yet recovered).
    /// Usually `cfg.restore_to`; differs when the preferred target was
    /// dead or partitioned and recovery fell back to another node.
    restored_to: Vec<Option<NodeId>>,
    /// Scripted crash time per node (detection-latency accounting and
    /// the probing horizon).
    crash_at: Vec<Option<SimTime>>,
    /// Latest scripted disturbance (crash or partition heal); probing
    /// stops once every scripted crash has been detected and `now` is
    /// past this point.
    last_disturbance: SimTime,
}

impl FailureState {
    fn new(cfg: FailureConfig, nodes: usize, plan: Option<&FaultPlan>) -> Self {
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

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// Kick off all vCPUs and the client.
    Start,
    /// Advance a vCPU's program.
    VcpuStep(VcpuId),
    /// A pCPU completion prediction expires.
    CpuDone {
        /// Slot of the pCPU in the world's pCPU slab.
        slot: u32,
        /// Prediction epoch (stale epochs are ignored).
        epoch: u64,
    },
    /// Charge a CPU burst to a vCPU (deferred so pCPU timelines stay
    /// monotonic after synchronous fault latencies).
    ChargeCpu {
        /// Target vCPU.
        vcpu: VcpuId,
        /// Reference-core work.
        work: SimTime,
    },
    /// An IPI reaches its target vCPU.
    IpiDeliver {
        /// Target vCPU.
        vcpu: VcpuId,
    },
    /// A guest-local message reaches its target vCPU.
    LocalDeliver {
        /// Target vCPU.
        vcpu: VcpuId,
        /// The message.
        msg: GuestMsg,
    },
    /// A device processes a submitted I/O plan (runs on the device node).
    DevProcess {
        /// Submitting vCPU.
        vcpu: VcpuId,
        /// Queue the request occupies.
        queue: QueueId,
        /// True for the net device, false for blk.
        is_net: bool,
        /// The plan to execute.
        plan: Box<IoPlan>,
        /// Connection id for client-bound transmissions.
        conn: Option<u64>,
    },
    /// An I/O completion interrupt reaches the submitting vCPU.
    IoComplete {
        /// Submitting vCPU.
        vcpu: VcpuId,
        /// Queue to release.
        queue: QueueId,
        /// True for the net device.
        is_net: bool,
        /// Used-ring touches performed by the guest on completion.
        guest_touches: Vec<virtio::plan::PageTouch>,
    },
    /// A request from the external client reaches the NIC-home node.
    ClientRxArrive {
        /// Connection id.
        conn: u64,
        /// Request size.
        bytes: u64,
        /// Target vCPU.
        target: VcpuId,
    },
    /// An RX payload/interrupt reaches the target vCPU's slice.
    NetRxDeliver {
        /// Target vCPU.
        vcpu: VcpuId,
        /// The message to enqueue.
        msg: GuestMsg,
        /// RX queue to release.
        queue: QueueId,
        /// Guest-side touches to perform on delivery.
        guest_touches: Vec<virtio::plan::PageTouch>,
    },
    /// A response reaches the external client.
    ClientDeliver {
        /// Connection id.
        conn: u64,
        /// Response size.
        bytes: u64,
    },
    /// A sleeping vCPU's timer fires.
    WakeVcpu(VcpuId),
    /// Periodic guest timer tick on a vCPU (scheduler tick, timekeeping).
    GuestTick {
        /// The ticking vCPU.
        vcpu: VcpuId,
    },
    /// A vCPU migration completes on the destination.
    MigrationDone {
        /// The migrating vCPU.
        vcpu: VcpuId,
        /// Destination placement.
        to: Placement,
    },
    /// A scripted node crash from the fault plan fires.
    NodeFail {
        /// The crashing node.
        node: NodeId,
    },
    /// The monitor slice's periodic heartbeat probe round.
    Heartbeat,
    /// Hardware monitoring predicts `node` will fail: proactively drain it.
    PredictFailure {
        /// The suspect node.
        node: NodeId,
    },
    /// Recovery of a declared-dead node's slice begins.
    RecoverNode {
        /// The dead node.
        node: NodeId,
    },
    /// A restored vCPU resumes on the recovery node.
    VcpuRestore {
        /// The vCPU to resume.
        vcpu: VcpuId,
    },
    /// A scripted network partition from the fault plan opens.
    PartitionBegin {
        /// Index of the window in the plan's partition list.
        idx: usize,
    },
    /// A scripted network partition heals.
    PartitionEnd {
        /// Index of the window in the plan's partition list.
        idx: usize,
    },
    /// A cross-tenant fleet message reaches its target vCPU. Injected by
    /// the fleet engine (`crate::fleet`) after the window-barrier merge;
    /// never scheduled by the world itself.
    FleetDeliver {
        /// Target vCPU.
        vcpu: VcpuId,
        /// The message to enqueue (`conn` is the sender's global tenant
        /// id, `bytes` the payload size).
        msg: GuestMsg,
    },
}

/// A cross-tenant message staged on a world's fleet outbox by
/// [`Op::FleetSend`]; the fleet engine drains these at each window
/// barrier, maps `src_vcpu` back to its global tenant id, and routes the
/// message to the destination shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOutMsg {
    /// Virtual time the send was issued.
    pub depart: SimTime,
    /// The sending vCPU (within this world).
    pub src_vcpu: VcpuId,
    /// Global destination tenant id.
    pub dst: u32,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Opaque application tag (kept for traces and audit).
    pub tag: u64,
}

/// The simulated world of one (possibly aggregate) VM.
pub struct VmWorld {
    profile: HypervisorProfile,
    /// The inter-node fabric (plus client link).
    pub fabric: Fabric,
    /// Guest memory.
    pub mem: VmMemory,
    /// Physical CPUs, slab-indexed; `pcpu_slots` maps `(node, pcpu)` to a
    /// slot and `pcpu_keys` maps back. Slots are stable for the lifetime of
    /// the world, so vCPUs and queued `CpuDone` events can carry them and
    /// the per-event hot path indexes a `Vec` instead of hashing a key.
    pcpus: Vec<PsCpu>,
    pcpu_keys: Vec<(NodeId, u32)>,
    pcpu_slots: HashMap<(NodeId, u32), u32>,
    /// Reusable buffer for completed task ids (one allocation per run, not
    /// one per completion event).
    done_scratch: Vec<u64>,
    /// Number of vCPUs in a terminal state (`Done`, or `Failed` with no
    /// failure detector to revive them). Maintained at every status
    /// transition into a terminal state so the per-event `finished()`
    /// check is O(1) instead of a scan over all vCPUs.
    terminal_vcpus: usize,
    vcpus: Vec<VcpuState>,
    net: Option<VirtioNet>,
    blk: Option<VirtioBlk>,
    console: VirtioConsole,
    rx_buffers: Option<Region>,
    rx_cursor: u64,
    client: Option<ClientConfig>,
    client_pending: HashMap<u64, SimTime>,
    barriers: HashMap<u32, BarrierState>,
    timer_interval: Option<SimTime>,
    /// Heartbeat failure detector (None = no detector attached).
    failure: Option<FailureState>,
    /// Crash time per node, set when the scripted crash fires.
    crashed: Vec<Option<SimTime>>,
    tracer: Tracer,
    /// Cross-tenant messages staged by [`Op::FleetSend`] since the last
    /// window barrier. `None` outside a fleet (sends then vanish as EIO).
    fleet_outbox: Option<Vec<FleetOutMsg>>,
    /// Measurement output.
    pub stats: VmStats,
}

/// Stable trace id for a pCPU: packs `(node, pcpu)` so every physical core
/// in the cluster gets a distinct stream in the audit.
fn cpu_trace_id(node: NodeId, pcpu: u32) -> u32 {
    node.0 * 256 + pcpu
}

impl VmWorld {
    /// Number of vCPUs.
    pub fn vcpu_count(&self) -> usize {
        self.vcpus.len()
    }

    /// Current placement of a vCPU.
    pub fn placement_of(&self, vcpu: VcpuId) -> Placement {
        let v = &self.vcpus[vcpu.index()];
        Placement {
            node: v.node,
            pcpu: v.pcpu,
        }
    }

    /// True when every guest program has finished and the client (if any)
    /// is done.
    ///
    /// With a failure detector attached, crashed (`Failed`) vCPUs are
    /// *not* terminal — the detector will restore them, so the run keeps
    /// going until they finish. Without one there is no recovery path and
    /// `Failed` counts as terminal.
    pub fn finished(&self) -> bool {
        debug_assert_eq!(self.terminal_vcpus, {
            let terminal = |v: &VcpuState| {
                v.status == VcpuStatus::Done
                    || (self.failure.is_none() && v.status == VcpuStatus::Failed)
            };
            self.vcpus.iter().filter(|v| terminal(v)).count()
        });
        self.terminal_vcpus == self.vcpus.len()
            && self.client.as_ref().is_none_or(|c| c.model.is_done())
    }

    /// Crash time of `node`, if its scripted crash has fired.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.crashed.get(node.index()).copied().flatten()
    }

    /// Non-fatal errors surfaced so far (lost IPIs, unreachable devices).
    pub fn errors(&self) -> &[VmError] {
        &self.stats.errors
    }

    /// The hypervisor profile in force.
    pub fn profile(&self) -> &HypervisorProfile {
        &self.profile
    }

    /// Console output meter (the PTY worker lives on the bootstrap slice).
    pub fn console_out(&self) -> sim_core::stats::Meter {
        self.console.out
    }

    /// True when the external client (if any) has completed its load.
    pub fn client_done(&self) -> bool {
        self.client.as_ref().is_none_or(|c| c.model.is_done())
    }

    /// Attaches a trace sink to every instrumented component of the world:
    /// the fabric, the DSM directory, and all pCPUs (including those lazily
    /// created by later migrations).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.fabric.attach_tracer(tracer.clone());
        self.mem.dsm.attach_tracer(tracer.clone());
        for (slot, cpu) in self.pcpus.iter_mut().enumerate() {
            let (node, pcpu) = self.pcpu_keys[slot];
            cpu.attach_tracer(tracer.clone(), cpu_trace_id(node, pcpu));
        }
        self.tracer = tracer;
    }

    /// Attaches a fleet outbox: from here on [`Op::FleetSend`] stages
    /// messages for the window-barrier exchange instead of erroring.
    pub fn enable_fleet(&mut self) {
        self.fleet_outbox = Some(Vec::new());
    }

    /// Drains the messages staged since the last window barrier, in issue
    /// order. Empty when no fleet outbox is attached.
    pub fn drain_fleet_outbox(&mut self) -> Vec<FleetOutMsg> {
        match self.fleet_outbox.as_mut() {
            Some(ob) => std::mem::take(ob),
            None => Vec::new(),
        }
    }

    /// Slot of `(node, pcpu)`, creating an idle un-loaded pCPU if absent.
    fn alloc_pcpu(&mut self, node: NodeId, pcpu: u32) -> u32 {
        if let Some(&slot) = self.pcpu_slots.get(&(node, pcpu)) {
            return slot;
        }
        let slot = self.pcpus.len() as u32;
        let mut cpu = PsCpu::new(1.0);
        cpu.attach_tracer(self.tracer.clone(), cpu_trace_id(node, pcpu));
        self.pcpus.push(cpu);
        self.pcpu_keys.push((node, pcpu));
        self.pcpu_slots.insert((node, pcpu), slot);
        slot
    }

    /// Schedules the (new) completion prediction for a pCPU.
    #[inline]
    fn reschedule_cpu(&mut self, ctx: &mut Ctx<'_, Event>, slot: u32) {
        if let Some(c) = self.pcpus[slot as usize].next_completion() {
            ctx.schedule_at(
                c.at,
                Event::CpuDone {
                    slot,
                    epoch: c.epoch,
                },
            );
        }
    }

    /// Advances a vCPU's program until it blocks, computes, or exhausts the
    /// per-event op budget.
    fn step_vcpu(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId) {
        let mut budget = OPS_PER_EVENT;
        loop {
            {
                let v = &self.vcpus[vcpu.index()];
                if v.status != VcpuStatus::Ready {
                    return;
                }
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
                match net.plan_tx(vcpu, node, &payload, bytes) {
                    Ok((plan, queue)) => {
                        if !self.submit_io(ctx, vcpu, queue, true, plan, Some(conn)) {
                            self.stats.tx_drops += 1;
                        }
                        // Transmission is asynchronous for the guest.
                        true
                    }
                    Err(_) => {
                        // Ring full: socket backpressure. Stash the op and
                        // retry it once descriptors free up.
                        self.vcpus[vcpu.index()].retry_op = Some(Op::NetSend {
                            conn,
                            bytes,
                            payload,
                        });
                        ctx.schedule_in(SimTime::from_micros(50), Event::VcpuStep(vcpu));
                        self.stats.tx_drops += 1;
                        false
                    }
                }
            }
            Op::NetRecv => {
                let v = &mut self.vcpus[vcpu.index()];
                if let Some(msg) = v.net_inbox.pop_front() {
                    v.delivered = Some(msg);
                    true
                } else {
                    v.status = VcpuStatus::BlockedNet;
                    false
                }
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
                    bytes,
                    write,
                    tmpfs,
                };
                match blk.plan_io(vcpu, node, req, &buffer) {
                    Ok((plan, queue)) => {
                        if self.submit_io(ctx, vcpu, queue, false, plan, None) {
                            self.vcpus[vcpu.index()].status = VcpuStatus::BlockedIo;
                            false
                        } else {
                            // The device home is unreachable: the guest
                            // sees EIO and continues instead of blocking
                            // on a completion that will never arrive.
                            true
                        }
                    }
                    Err(_) => {
                        // Queue full: block on the device and reissue the
                        // same request after the backoff.
                        self.vcpus[vcpu.index()].retry_op = Some(Op::BlkIo {
                            bytes,
                            write,
                            tmpfs,
                            buffer,
                        });
                        ctx.schedule_in(SimTime::from_micros(50), Event::VcpuStep(vcpu));
                        false
                    }
                }
            }
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
            Op::LocalRecv => {
                let v = &mut self.vcpus[vcpu.index()];
                if let Some(msg) = v.local_inbox.pop_front() {
                    v.delivered = Some(msg);
                    true
                } else {
                    v.status = VcpuStatus::BlockedLocal;
                    false
                }
            }
            Op::RecvAny => {
                let v = &mut self.vcpus[vcpu.index()];
                if let Some(msg) = v.local_inbox.pop_front() {
                    v.delivered = Some(msg);
                    true
                } else if let Some(msg) = v.net_inbox.pop_front() {
                    v.delivered = Some(msg);
                    true
                } else {
                    v.status = VcpuStatus::BlockedAny;
                    false
                }
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
                    v.status = VcpuStatus::BlockedIpi;
                    false
                }
            }
            Op::Barrier { id, parties } => {
                let b = self.barriers.entry(id).or_default();
                b.arrived.insert(vcpu.0);
                if b.arrived.len() as u32 >= parties {
                    let woken: Vec<u32> = b.arrived.iter().copied().collect();
                    self.barriers.remove(&id);
                    for w in woken {
                        if w != vcpu.0 {
                            let peer = &mut self.vcpus[w as usize];
                            if peer.status == VcpuStatus::Migrating {
                                // The peer blocked on the barrier and was
                                // then migrated; replay the wake at
                                // MigrationDone.
                                debug_assert_eq!(peer.resume_status, VcpuStatus::BlockedBarrier);
                                peer.resume_status = VcpuStatus::Ready;
                                peer.missed_step = true;
                            } else {
                                debug_assert_eq!(peer.status, VcpuStatus::BlockedBarrier);
                                peer.status = VcpuStatus::Ready;
                                ctx.schedule_now(Event::VcpuStep(VcpuId::new(w)));
                            }
                        }
                    }
                    true
                } else {
                    self.vcpus[vcpu.index()].status = VcpuStatus::BlockedBarrier;
                    false
                }
            }
            Op::Sleep(d) => {
                self.vcpus[vcpu.index()].status = VcpuStatus::Sleeping;
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
                let v = &mut self.vcpus[vcpu.index()];
                v.status = VcpuStatus::Done;
                self.terminal_vcpus += 1;
                v.finish = Some(now);
                self.stats.vcpu_finish[vcpu.index()] = Some(now);
                false
            }
        }
    }

    /// Starts a compute burst on the vCPU's pCPU.
    #[inline]
    fn begin_compute(
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
                    if is_net {
                        if let Some(net) = self.net.as_mut() {
                            net.complete(queue);
                        }
                    } else if let Some(blk) = self.blk.as_mut() {
                        blk.complete(queue);
                    }
                    return false;
                }
            },
            None => t + SimTime::from_nanos(500), // local ioeventfd
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
    fn dev_process(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        queue: QueueId,
        is_net: bool,
        plan: IoPlan,
        conn: Option<u64>,
    ) {
        let t = self.mem.access_batch(
            ctx.now,
            device_node(&plan, self.net.as_ref(), self.blk.as_ref(), is_net),
            &touches_of(&plan.device_touches),
            &mut self.fabric,
        );
        let t_backend = match plan.backend {
            BackendWork::None => t,
            BackendWork::NetTx { bytes } => {
                // Transmit to the external client over its link.
                if let (Some(conn), Some(client)) = (conn, self.client.as_ref()) {
                    let home = self.net.as_ref().expect("net device").home();
                    let m = Message::new(home, client.node, bytes, MsgClass::Io);
                    // A dropped response is retransmitted by the transport
                    // after a timeout so closed-loop clients never hang.
                    let deliver_at = match self.fabric.send(t, m) {
                        Ok(d) => d.deliver_at,
                        Err(_) => t + FABRIC_RETX,
                    };
                    ctx.schedule_at(
                        deliver_at,
                        Event::ClientDeliver {
                            conn,
                            bytes: bytes.as_u64(),
                        },
                    );
                    t
                } else {
                    // No client attached: the packet leaves the cluster.
                    t
                }
            }
            BackendWork::NetRx { .. } => t,
            BackendWork::Disk { bytes, write: _ } => {
                let dur = ssd_bandwidth().transfer_time(bytes);
                let start = t.max(self.stats.disk_free_at);
                self.stats.disk_free_at = start + dur;
                start + dur
            }
            BackendWork::Tmpfs { bytes } => t + tmpfs_bandwidth().transfer_time(bytes),
        };
        let complete_at = match &plan.completion.irq_msg {
            Some(m) => match self.fabric.send(t_backend, *m) {
                // A lost completion interrupt is re-raised after a timeout
                // (virtio re-notification); if the submitter's slice died,
                // `io_complete` discards it.
                Ok(d) => d.deliver_at,
                Err(_) => t_backend + FABRIC_RETX,
            },
            None => t_backend + SimTime::from_nanos(500),
        };
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
    fn io_complete(
        &mut self,
        ctx: &mut Ctx<'_, Event>,
        vcpu: VcpuId,
        queue: QueueId,
        is_net: bool,
        guest_touches: Vec<virtio::plan::PageTouch>,
    ) {
        if is_net {
            if let Some(net) = self.net.as_mut() {
                net.complete(queue);
            }
        } else if let Some(blk) = self.blk.as_mut() {
            blk.complete(queue);
        }
        // The submitter's slice died since submission: the interrupt is
        // discarded (the vCPU restarts from its checkpoint).
        if self.vcpus[vcpu.index()].status == VcpuStatus::Failed {
            return;
        }
        let node = self.vcpus[vcpu.index()].node;
        let _ = self
            .mem
            .access_batch(ctx.now, node, &touches_of(&guest_touches), &mut self.fabric);
        // Block-I/O submitters wait synchronously; wake them.
        let v = &mut self.vcpus[vcpu.index()];
        if !is_net && v.status == VcpuStatus::BlockedIo {
            v.status = VcpuStatus::Ready;
            ctx.schedule_now(Event::VcpuStep(vcpu));
        } else if !is_net
            && v.status == VcpuStatus::Migrating
            && v.resume_status == VcpuStatus::BlockedIo
        {
            v.resume_status = VcpuStatus::Ready;
            v.missed_step = true;
        }
    }

    /// Injects requests from the client model into the fabric.
    fn inject_client_sends(&mut self, ctx: &mut Ctx<'_, Event>, sends: Vec<ClientSend>) {
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
            let deliver_at = match self.fabric.send(ctx.now, m) {
                Ok(d) => d.deliver_at,
                Err(_) => ctx.now + FABRIC_RETX,
            };
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
    fn client_rx_arrive(
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
        let deliver_at = match &plan.completion.irq_msg {
            Some(m) => match self.fabric.send(t, *m) {
                Ok(d) => d.deliver_at,
                Err(_) => t + FABRIC_RETX,
            },
            None => t + SimTime::from_nanos(500),
        };
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
                // arriving mid-migration are recorded and replayed at
                // MigrationDone.
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

    fn migration_done(&mut self, ctx: &mut Ctx<'_, Event>, vcpu: VcpuId, to: Placement) {
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
            let now = ctx.now;
            self.pcpus[slot as usize].set_background_load(now, load);
        }
        if let Some(rem) = stashed {
            self.vcpus[vcpu.index()].status = VcpuStatus::Computing;
            let now = ctx.now;
            let _ = self.pcpus[slot as usize].add(now, vcpu.0 as u64, rem);
            self.reschedule_cpu(ctx, slot);
            return;
        }
        if let Some(work) = missed_charge {
            // The deferred CPU charge expired mid-migration: start it now
            // (after_cpu is still armed on the vCPU).
            let after =
                std::mem::replace(&mut self.vcpus[vcpu.index()].after_cpu, AfterCpu::Continue);
            self.vcpus[vcpu.index()].status = VcpuStatus::Ready;
            self.begin_compute(ctx, vcpu, work, after);
            return;
        }
        // Restore the pre-migration status; replay a missed step/wakeup.
        let v = &mut self.vcpus[vcpu.index()];
        v.status = resume;
        if missed_step {
            v.status = VcpuStatus::Ready;
            ctx.schedule_now(Event::VcpuStep(vcpu));
        }
        // For ready vCPUs without a missed step, the original wakeup event
        // is still queued and will arrive at the new placement.
    }

    /// Lazily creates (and instruments) a pCPU on `node`; returns its slot.
    fn ensure_pcpu(&mut self, node: NodeId, pcpu: u32) -> u32 {
        if let Some(&slot) = self.pcpu_slots.get(&(node, pcpu)) {
            return slot;
        }
        let slot = self.alloc_pcpu(node, pcpu);
        if self.profile.helper_thread_load > 0.0 {
            let load = self.profile.helper_thread_load;
            self.pcpus[slot as usize].set_background_load(SimTime::ZERO, load);
        }
        slot
    }

    /// A scripted node crash fires: the slice's vCPUs halt and their
    /// in-flight compute is lost.
    fn node_fail(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
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
        // Every live vCPU on the slice halts. Migrating vCPUs survive:
        // their register state already left with the dump.
        for v in self.vcpus.iter_mut() {
            if v.node == node
                && !matches!(
                    v.status,
                    VcpuStatus::Done | VcpuStatus::Migrating | VcpuStatus::Failed
                )
            {
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
    fn heartbeat_round(&mut self, ctx: &mut Ctx<'_, Event>) {
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
    fn recover_node(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
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
            let failed_here = {
                let v = &self.vcpus[i];
                v.status == VcpuStatus::Failed && v.node == node
            };
            if !failed_here {
                continue;
            }
            // Land each vCPU on its own spare core of the restore node
            // (pCPU k for vCPU k, as `predict_failure` drains) rather
            // than piling onto an already-busy core.
            let pcpu = i as u32;
            let slot = self.ensure_pcpu(target, pcpu);
            self.vcpus[i].node = target;
            self.vcpus[i].pcpu = pcpu;
            self.vcpus[i].pcpu_slot = slot;
            self.vcpus[i].restore_at = Some(resume_at);
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

    /// A scripted partition window opens: record the cut-off minority in
    /// the trace. The fabric already severs their traffic; the detector
    /// will miss probes and fence them like any other dead slice.
    fn partition_begin(&mut self, ctx: &mut Ctx<'_, Event>, idx: usize) {
        let nodes: Vec<u32> = self
            .fabric
            .fault_plan()
            .and_then(|p| p.partitions().get(idx))
            .map(|w| w.nodes.clone())
            .unwrap_or_default();
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
    fn partition_end(&mut self, ctx: &mut Ctx<'_, Event>, idx: usize) {
        let nodes: Vec<u32> = self
            .fabric
            .fault_plan()
            .and_then(|p| p.partitions().get(idx))
            .map(|w| w.nodes.clone())
            .unwrap_or_default();
        for node in nodes {
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
    fn predict_failure(&mut self, ctx: &mut Ctx<'_, Event>, node: NodeId) {
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
                self.note_migration_refused(ctx.now, vcpu, node, target);
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

    /// Records a refused vCPU migration during a drain.
    fn note_migration_refused(&mut self, now: SimTime, vcpu: VcpuId, from: NodeId, to: NodeId) {
        self.stats.migrations_refused += 1;
        self.tracer.emit_with(|| TraceEvent::VcpuMigrateRefused {
            at: now.as_nanos(),
            vcpu: vcpu.0,
            from_node: from.0,
            to_node: to.0,
        });
    }
}

/// Extracts `(page, access)` pairs from plan touches.
fn touches_of(touches: &[virtio::plan::PageTouch]) -> Vec<(PageId, Access)> {
    touches.iter().map(|t| (t.page, t.access)).collect()
}

/// The node device-side touches run on (falls back to the device home).
fn device_node(
    plan: &IoPlan,
    net: Option<&VirtioNet>,
    blk: Option<&VirtioBlk>,
    is_net: bool,
) -> NodeId {
    plan.device_touches
        .first()
        .map(|t| t.node)
        .unwrap_or_else(|| {
            if is_net {
                net.map(|d| d.home()).unwrap_or_default()
            } else {
                blk.map(|d| d.home()).unwrap_or_default()
            }
        })
}

impl World for VmWorld {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, ev: Event) {
        match ev {
            Event::Start => {
                for i in 0..self.vcpus.len() {
                    ctx.schedule_now(Event::VcpuStep(VcpuId::from_usize(i)));
                    if let Some(interval) = self.timer_interval {
                        ctx.schedule_in(
                            interval,
                            Event::GuestTick {
                                vcpu: VcpuId::from_usize(i),
                            },
                        );
                    }
                }
                if let Some(client) = self.client.as_mut() {
                    let sends = client.model.start(ctx.now);
                    self.inject_client_sends(ctx, sends);
                }
                // Scripted crashes (and their predictions), plus the
                // heartbeat detector's first probe round.
                let crashes: Vec<(u32, SimTime)> = self
                    .fabric
                    .fault_plan()
                    .map(|p| p.crashes().iter().map(|c| (c.node, c.at)).collect())
                    .unwrap_or_default();
                let (heartbeat, lead) = match &self.failure {
                    Some(f) => (Some(f.cfg.heartbeat_interval), f.cfg.prediction_lead),
                    None => (None, None),
                };
                for &(node, at) in &crashes {
                    ctx.schedule_at(
                        at,
                        Event::NodeFail {
                            node: NodeId::new(node),
                        },
                    );
                    if let Some(lead) = lead {
                        ctx.schedule_at(
                            at.saturating_sub(lead),
                            Event::PredictFailure {
                                node: NodeId::new(node),
                            },
                        );
                    }
                }
                if let Some(interval) = heartbeat {
                    ctx.schedule_in(interval, Event::Heartbeat);
                }
                // Scripted partition windows open and heal on schedule;
                // the fabric itself severs traffic, these events only
                // bookend the window (trace + rejoin bookkeeping).
                let windows: Vec<(SimTime, SimTime)> = self
                    .fabric
                    .fault_plan()
                    .map(|p| p.partitions().iter().map(|w| (w.from, w.until)).collect())
                    .unwrap_or_default();
                for (idx, (from, until)) in windows.into_iter().enumerate() {
                    ctx.schedule_at(from, Event::PartitionBegin { idx });
                    ctx.schedule_at(until, Event::PartitionEnd { idx });
                }
            }
            Event::VcpuStep(v) => {
                let state = &mut self.vcpus[v.index()];
                if state.status == VcpuStatus::Migrating {
                    state.missed_step = true;
                } else {
                    self.step_vcpu(ctx, v);
                }
            }
            Event::CpuDone { slot, epoch } => {
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
                    let after = {
                        let v = &mut self.vcpus[vcpu.index()];
                        debug_assert_eq!(v.status, VcpuStatus::Computing);
                        v.status = VcpuStatus::Ready;
                        std::mem::replace(&mut v.after_cpu, AfterCpu::Continue)
                    };
                    match after {
                        AfterCpu::Continue => {}
                        AfterCpu::DeliverLocal { to, msg } => {
                            let src = self.vcpus[vcpu.index()].node;
                            let dst = self.vcpus[to.index()].node;
                            if src == dst {
                                ctx.schedule_in(LOCAL_IPI, Event::LocalDeliver { vcpu: to, msg });
                            } else {
                                // The wakeup crosses the fabric as an IPI;
                                // the payload moves through DSM socket
                                // buffers already touched on the send side.
                                let m = Message::new(
                                    src,
                                    dst,
                                    ByteSize::bytes(64),
                                    MsgClass::Interrupt,
                                );
                                // A lost wakeup is redelivered after a
                                // timeout so receivers blocked on a dead
                                // slice's sender resume after recovery.
                                let deliver_at = match self.fabric.send(ctx.now, m) {
                                    Ok(d) => d.deliver_at,
                                    Err(_) => ctx.now + FABRIC_RETX,
                                };
                                ctx.schedule_at(deliver_at, Event::LocalDeliver { vcpu: to, msg });
                            }
                        }
                    }
                    self.step_vcpu(ctx, vcpu);
                }
                self.done_scratch = done;
            }
            Event::ChargeCpu { vcpu, work } => {
                let state = &mut self.vcpus[vcpu.index()];
                if state.status == VcpuStatus::Migrating {
                    state.missed_charge = Some(work);
                    return;
                }
                let after =
                    std::mem::replace(&mut self.vcpus[vcpu.index()].after_cpu, AfterCpu::Continue);
                self.begin_compute(ctx, vcpu, work, after);
            }
            Event::IpiDeliver { vcpu } => {
                let v = &mut self.vcpus[vcpu.index()];
                if v.status == VcpuStatus::BlockedIpi {
                    v.status = VcpuStatus::Ready;
                    self.step_vcpu(ctx, vcpu);
                } else if v.status == VcpuStatus::Migrating
                    && v.resume_status == VcpuStatus::BlockedIpi
                {
                    v.resume_status = VcpuStatus::Ready;
                    v.missed_step = true;
                } else {
                    v.pending_ipis += 1;
                }
            }
            Event::LocalDeliver { vcpu, msg } => {
                let v = &mut self.vcpus[vcpu.index()];
                // A crashed receiver just queues the message: its pages
                // and program state come back with the checkpoint restore.
                if v.status == VcpuStatus::Failed {
                    v.local_inbox.push_back(msg);
                    return;
                }
                // The receiver reads the socket buffer pages.
                let node = v.node;
                let bufs = self.mem.kernel.socket_buffer_pages();
                let touches: Vec<(PageId, Access)> = bufs
                    .into_iter()
                    .take(1)
                    .map(|p| (p, Access::Read))
                    .collect();
                let t = self
                    .mem
                    .access_batch(ctx.now, node, &touches, &mut self.fabric);
                let v = &mut self.vcpus[vcpu.index()];
                v.local_inbox.push_back(msg);
                if matches!(v.status, VcpuStatus::BlockedLocal | VcpuStatus::BlockedAny) {
                    let msg = v.local_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.status = VcpuStatus::Ready;
                    if t > ctx.now {
                        ctx.schedule_at(t, Event::VcpuStep(vcpu));
                    } else {
                        self.step_vcpu(ctx, vcpu);
                    }
                } else if v.status == VcpuStatus::Migrating
                    && matches!(
                        v.resume_status,
                        VcpuStatus::BlockedLocal | VcpuStatus::BlockedAny
                    )
                {
                    let msg = v.local_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.resume_status = VcpuStatus::Ready;
                    v.missed_step = true;
                }
            }
            Event::DevProcess {
                vcpu,
                queue,
                is_net,
                plan,
                conn,
            } => self.dev_process(ctx, vcpu, queue, is_net, *plan, conn),
            Event::IoComplete {
                vcpu,
                queue,
                is_net,
                guest_touches,
            } => self.io_complete(ctx, vcpu, queue, is_net, guest_touches),
            Event::ClientRxArrive {
                conn,
                bytes,
                target,
            } => self.client_rx_arrive(ctx, conn, bytes, target),
            Event::NetRxDeliver {
                vcpu,
                msg,
                queue,
                guest_touches,
            } => {
                if let Some(net) = self.net.as_mut() {
                    net.complete(queue);
                }
                if self.vcpus[vcpu.index()].status == VcpuStatus::Failed {
                    self.vcpus[vcpu.index()].net_inbox.push_back(msg);
                    return;
                }
                let node = self.vcpus[vcpu.index()].node;
                let t = self.mem.access_batch(
                    ctx.now,
                    node,
                    &touches_of(&guest_touches),
                    &mut self.fabric,
                );
                let v = &mut self.vcpus[vcpu.index()];
                v.net_inbox.push_back(msg);
                if matches!(v.status, VcpuStatus::BlockedNet | VcpuStatus::BlockedAny) {
                    let msg = v.net_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.status = VcpuStatus::Ready;
                    if t > ctx.now {
                        ctx.schedule_at(t, Event::VcpuStep(vcpu));
                    } else {
                        self.step_vcpu(ctx, vcpu);
                    }
                } else if v.status == VcpuStatus::Migrating
                    && matches!(
                        v.resume_status,
                        VcpuStatus::BlockedNet | VcpuStatus::BlockedAny
                    )
                {
                    let msg = v.net_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.resume_status = VcpuStatus::Ready;
                    v.missed_step = true;
                }
            }
            Event::ClientDeliver { conn, bytes } => {
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
            Event::WakeVcpu(vcpu) => {
                let v = &mut self.vcpus[vcpu.index()];
                if v.status == VcpuStatus::Sleeping {
                    v.status = VcpuStatus::Ready;
                    self.step_vcpu(ctx, vcpu);
                } else if v.status == VcpuStatus::Migrating
                    && v.resume_status == VcpuStatus::Sleeping
                {
                    v.resume_status = VcpuStatus::Ready;
                    v.missed_step = true;
                }
            }
            Event::GuestTick { vcpu } => {
                let v = &self.vcpus[vcpu.index()];
                if v.status == VcpuStatus::Done {
                    return;
                }
                if v.status == VcpuStatus::Failed {
                    // Keep the tick chain alive for after the restore, but
                    // a dead slice touches no pages.
                    if let Some(interval) = self.timer_interval {
                        ctx.schedule_in(interval, Event::GuestTick { vcpu });
                    }
                    return;
                }
                let node = v.node;
                // The tick handler touches hot kernel pages; its latency
                // is absorbed (a tick steals ~microseconds of vCPU time).
                let trace = self
                    .mem
                    .kernel
                    .op_trace(vcpu.index(), guest::KernelOp::TimerTick);
                let _ = self
                    .mem
                    .access_batch(ctx.now, node, &trace.touches, &mut self.fabric);
                if let Some(interval) = self.timer_interval {
                    ctx.schedule_in(interval, Event::GuestTick { vcpu });
                }
            }
            Event::MigrationDone { vcpu, to } => self.migration_done(ctx, vcpu, to),
            Event::NodeFail { node } => self.node_fail(ctx, node),
            Event::Heartbeat => self.heartbeat_round(ctx),
            Event::PredictFailure { node } => self.predict_failure(ctx, node),
            Event::RecoverNode { node } => self.recover_node(ctx, node),
            Event::PartitionBegin { idx } => self.partition_begin(ctx, idx),
            Event::PartitionEnd { idx } => self.partition_end(ctx, idx),
            Event::FleetDeliver { vcpu, msg } => {
                // Network latency was already charged by the fleet
                // engine's ingress line: the message lands directly in the
                // guest's net inbox, waking a blocked receiver.
                let v = &mut self.vcpus[vcpu.index()];
                v.net_inbox.push_back(msg);
                if matches!(v.status, VcpuStatus::BlockedNet | VcpuStatus::BlockedAny) {
                    let msg = v.net_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.status = VcpuStatus::Ready;
                    self.step_vcpu(ctx, vcpu);
                } else if v.status == VcpuStatus::Migrating
                    && matches!(
                        v.resume_status,
                        VcpuStatus::BlockedNet | VcpuStatus::BlockedAny
                    )
                {
                    let msg = v.net_inbox.pop_front().expect("just pushed");
                    v.delivered = Some(msg);
                    v.resume_status = VcpuStatus::Ready;
                    v.missed_step = true;
                }
            }
            Event::VcpuRestore { vcpu } => {
                let v = &mut self.vcpus[vcpu.index()];
                if v.status != VcpuStatus::Failed {
                    return;
                }
                // A cascading recovery superseded this restore (the
                // target died mid-restore and the vCPU was re-placed
                // with a later due time), or the restore landed on a
                // node that has since crashed: stay Failed and wait for
                // the newer restore.
                if v.restore_at != Some(ctx.now) || self.crashed[v.node.index()].is_some() {
                    return;
                }
                v.restore_at = None;
                if let Some(rem) = v.stashed_work.take() {
                    // Re-execute the burst that was in flight at the crash
                    // (after_cpu is still armed on the vCPU).
                    v.status = VcpuStatus::Computing;
                    let slot = v.pcpu_slot;
                    let now = ctx.now;
                    let _ = self.pcpus[slot as usize].add(now, vcpu.0 as u64, rem);
                    self.reschedule_cpu(ctx, slot);
                } else {
                    v.status = VcpuStatus::Ready;
                    self.step_vcpu(ctx, vcpu);
                }
            }
        }
    }
}

/// Builder for a distributed VM simulation.
pub struct VmBuilder {
    profile: HypervisorProfile,
    nodes: usize,
    ram: ByteSize,
    placements: Vec<Placement>,
    programs: Vec<Box<dyn Program>>,
    net_home: Option<NodeId>,
    blk_home: Option<NodeId>,
    client: Option<ClientConfig>,
    timer_interval: Option<SimTime>,
    fault_plan: Option<FaultPlan>,
    failure: Option<FailureConfig>,
    mem_cfg: Option<MemoryConfig>,
    seed: u64,
    calendar_threshold: Option<usize>,
}

impl VmBuilder {
    /// Starts a builder for a VM on a cluster of `nodes` machines.
    pub fn new(profile: HypervisorProfile, nodes: usize) -> Self {
        VmBuilder {
            profile,
            nodes,
            ram: ByteSize::gib(4),
            placements: Vec::new(),
            programs: Vec::new(),
            net_home: None,
            blk_home: None,
            client: None,
            timer_interval: None,
            fault_plan: None,
            failure: None,
            mem_cfg: None,
            seed: 0x5EED,
            calendar_threshold: None,
        }
    }

    /// Overrides the event queue's calendarization threshold (see
    /// [`sim_core::engine::EventQueue::with_calendar_threshold`]). Fleet
    /// shards hosting many tenants set this low so the queue calendarizes
    /// early instead of waiting for the default high-water mark.
    pub fn with_calendar_threshold(mut self, threshold: usize) -> Self {
        self.calendar_threshold = Some(threshold);
        self
    }

    /// Configures the memory subsystem through a [`MemoryConfig`] (its
    /// RAM size supersedes [`VmBuilder::ram`]; vCPU count, bootstrap node
    /// and node count are filled in from the builder at build time).
    pub fn with_memory(mut self, cfg: MemoryConfig) -> Self {
        self.mem_cfg = Some(cfg);
        self
    }

    /// Injects a deterministic fault plan: the fabric interprets its link
    /// faults and the world schedules its node crashes.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches the heartbeat failure detector (monitor = node 0) with
    /// its recovery policy.
    pub fn with_failure_detector(mut self, cfg: FailureConfig) -> Self {
        self.failure = Some(cfg);
        self
    }

    /// Enables periodic guest timer ticks (CONFIG_HZ-style) on every
    /// vCPU. Each tick touches hot kernel pages — background DSM noise
    /// whose cost depends on the guest kernel layout.
    pub fn with_timer(mut self, interval: SimTime) -> Self {
        self.timer_interval = Some(interval);
        self
    }

    /// Sets guest RAM.
    pub fn ram(mut self, ram: ByteSize) -> Self {
        self.ram = ram;
        self
    }

    /// Sets the determinism seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a vCPU at `placement` running `program`.
    pub fn vcpu(mut self, placement: Placement, program: Box<dyn Program>) -> Self {
        self.placements.push(placement);
        self.programs.push(program);
        self
    }

    /// Attaches a virtio-net device homed on `node`.
    pub fn with_net(mut self, node: NodeId) -> Self {
        self.net_home = Some(node);
        self
    }

    /// Attaches a virtio-blk device homed on `node`.
    pub fn with_blk(mut self, node: NodeId) -> Self {
        self.blk_home = Some(node);
        self
    }

    /// Attaches an external client.
    pub fn with_client(mut self, client: ClientConfig) -> Self {
        self.client = Some(client);
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no vCPUs were added or a placement is out of range.
    pub fn build(self) -> VmSim {
        assert!(!self.placements.is_empty(), "VM needs at least one vCPU");
        for p in &self.placements {
            assert!(p.node.index() < self.nodes, "placement out of range");
        }
        let bootstrap = self.placements[0].node;
        let mut fabric = Fabric::homogeneous(
            self.nodes + usize::from(self.client.is_some()),
            self.profile.link,
        );
        if let Some(plan) = &self.fault_plan {
            fabric.inject_faults(plan.clone());
        }
        let failure = self
            .failure
            .map(|cfg| FailureState::new(cfg, self.nodes, self.fault_plan.as_ref()));
        let mut mem = self
            .mem_cfg
            .unwrap_or_else(|| MemoryConfig::new(self.ram))
            .vcpus(self.placements.len())
            .bootstrap(bootstrap)
            .nodes(u32::try_from(self.nodes).expect("node count fits u32"))
            .build(&self.profile);

        // Devices and their ring pages.
        let queues = self.placements.len();
        let net = self.net_home.map(|home| {
            let rings = mem.alloc.alloc("virtio-net.rings", 2 * queues as u64);
            let dev = DeviceConfig::new(home)
                .mode(self.profile.io_mode)
                .queues(queues)
                .rings_at(rings.first)
                .build_net();
            mem.register_pages(&dev.ring_pages(), home, PageClass::DeviceRing);
            dev
        });
        let blk = self.blk_home.map(|home| {
            let rings = mem.alloc.alloc("virtio-blk.rings", 2 * queues as u64);
            let dev = DeviceConfig::new(home)
                .mode(self.profile.io_mode)
                .queues(queues)
                .rings_at(rings.first)
                .build_blk();
            mem.register_pages(&dev.ring_pages(), home, PageClass::DeviceRing);
            dev
        });
        let rx_buffers = net.as_ref().map(|dev| {
            let r = mem.alloc.alloc("net.rxbuf", 1024);
            mem.register_pages(
                &r.iter().collect::<Vec<_>>(),
                dev.home(),
                PageClass::Private,
            );
            r
        });

        // Client link overrides.
        let client = self.client.map(|mut c| {
            let client_node = NodeId::from_usize(self.nodes);
            let home = net
                .as_ref()
                .map(|d| d.home())
                .expect("client requires a net device");
            fabric.set_link(client_node, home, c.link);
            fabric.set_link(home, client_node, c.link);
            c.node = client_node;
            c
        });

        // pCPUs and helper threads, slab-indexed in placement order.
        let mut pcpus: Vec<PsCpu> = Vec::with_capacity(self.placements.len());
        let mut pcpu_keys: Vec<(NodeId, u32)> = Vec::with_capacity(self.placements.len());
        let mut pcpu_slots: HashMap<(NodeId, u32), u32> =
            HashMap::with_capacity(self.placements.len());
        for p in &self.placements {
            pcpu_slots.entry((p.node, p.pcpu)).or_insert_with(|| {
                let mut cpu = PsCpu::new(1.0);
                if self.profile.helper_thread_load > 0.0 {
                    cpu.set_background_load(SimTime::ZERO, self.profile.helper_thread_load);
                }
                pcpus.push(cpu);
                pcpu_keys.push((p.node, p.pcpu));
                (pcpus.len() - 1) as u32
            });
        }

        let root_rng = DetRng::new(self.seed);
        let vcpus: Vec<VcpuState> = self
            .placements
            .iter()
            .zip(self.programs)
            .enumerate()
            .map(|(i, (p, program))| VcpuState {
                node: p.node,
                pcpu: p.pcpu,
                pcpu_slot: pcpu_slots[&(p.node, p.pcpu)],
                program,
                status: VcpuStatus::Ready,
                net_inbox: VecDeque::new(),
                local_inbox: VecDeque::new(),
                pending_ipis: 0,
                delivered: None,
                after_cpu: AfterCpu::Continue,
                retry_op: None,
                stashed_work: None,
                resume_status: VcpuStatus::Ready,
                missed_step: false,
                missed_charge: None,
                restore_at: None,
                finish: None,
                rng: root_rng.derive(i as u64),
            })
            .collect();

        let stats = VmStats::new(vcpus.len());
        let console = DeviceConfig::new(bootstrap).build_console();
        let crashed = vec![None; fabric.nodes()];
        let world = VmWorld {
            profile: self.profile,
            fabric,
            mem,
            pcpus,
            pcpu_keys,
            pcpu_slots,
            done_scratch: Vec::new(),
            terminal_vcpus: 0,
            vcpus,
            net,
            blk,
            console,
            rx_buffers,
            rx_cursor: 0,
            client,
            client_pending: HashMap::new(),
            barriers: HashMap::new(),
            timer_interval: self.timer_interval,
            failure,
            crashed,
            tracer: Tracer::disabled(),
            fleet_outbox: None,
            stats,
        };
        // Steady-state occupancy is a handful of events per vCPU (steps,
        // timer ticks, in-flight messages); reserving up front keeps the
        // queue from rehashing during boot storms.
        let mut engine = match self.calendar_threshold {
            Some(t) => Engine::with_calendar_threshold(t),
            None => Engine::with_capacity(world.vcpus.len() * 8 + 64),
        };
        engine.schedule_at(SimTime::ZERO, Event::Start);
        VmSim { engine, world }
    }
}

/// A ready-to-run VM simulation.
pub struct VmSim {
    /// The event loop.
    pub engine: Engine<Event>,
    /// The VM world.
    pub world: VmWorld,
}

impl VmSim {
    /// Runs until every program finishes (and the client drains);
    /// returns the completion time of the last vCPU.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while programs are still blocked —
    /// a deadlock in the workload definition.
    #[allow(clippy::panic)] // documented contract: a deadlocked workload is a caller bug
    pub fn run(&mut self) -> SimTime {
        while !self.world.finished() {
            if !self.engine.step(&mut self.world) {
                let blocked: Vec<String> = self
                    .world
                    .vcpus
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| {
                        // The same terminal predicate `finished()` uses: a
                        // Failed vCPU still counts as blocked while a
                        // failure injector could yet recover it.
                        v.status != VcpuStatus::Done
                            && !(self.world.failure.is_none() && v.status == VcpuStatus::Failed)
                    })
                    .map(|(i, v)| format!("vCPU{i} on node{} in {:?}", v.node.0, v.status))
                    .collect();
                panic!(
                    "event queue drained but the VM is not finished \
                     (deadlocked workload?): [{}]",
                    blocked.join(", ")
                );
            }
        }
        self.world
            .stats
            .vcpu_finish
            .iter()
            .flatten()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Runs until the given horizon (events after it stay queued).
    pub fn run_until(&mut self, until: SimTime) {
        self.engine.run_until(&mut self.world, until);
    }

    /// Runs until the external client completes its load (for VMs whose
    /// server programs loop forever); returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains before the client finishes, or if
    /// no client is attached.
    pub fn run_client(&mut self) -> SimTime {
        assert!(
            self.world.client.is_some(),
            "run_client on a VM without a client"
        );
        while !self.world.client_done() {
            assert!(
                self.engine.step(&mut self.world),
                "event queue drained before the client finished"
            );
        }
        self.engine.now()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Requests a vCPU migration at the current time; returns false if the
    /// profile lacks mobility.
    pub fn migrate_vcpu(&mut self, vcpu: VcpuId, to: Placement) -> bool {
        let mut ctx = self.engine.external_ctx();
        self.world.request_migration(&mut ctx, vcpu, to)
    }

    /// Turns on structured tracing with a ring buffer of `capacity` events
    /// and returns a handle sharing the sink (snapshot/export from it after
    /// the run).
    pub fn enable_tracing(&mut self, capacity: usize) -> Tracer {
        let tracer = Tracer::ring(capacity);
        self.world.attach_tracer(tracer.clone());
        tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{FixedCompute, Scripted};

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn single_vcpu_compute_runs_at_full_speed() {
        let mut sim = VmBuilder::new(HypervisorProfile::fragvisor(), 1)
            .vcpu(Placement::new(0, 0), Box::new(FixedCompute::new(ms(10))))
            .build();
        let done = sim.run();
        assert_eq!(done, ms(10));
    }

    #[test]
    fn overcommit_shares_the_pcpu() {
        // Four equal programs on one pCPU: each takes 4x as long.
        let mut b = VmBuilder::new(HypervisorProfile::single_machine(), 1);
        for _ in 0..4 {
            b = b.vcpu(Placement::new(0, 0), Box::new(FixedCompute::new(ms(10))));
        }
        let done = b.build().run();
        assert_eq!(done, ms(40));
    }

    #[test]
    fn distributed_compute_runs_in_parallel() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 4);
        for i in 0..4 {
            b = b.vcpu(Placement::new(i, 0), Box::new(FixedCompute::new(ms(10))));
        }
        let done = b.build().run();
        assert_eq!(done, ms(10));
    }

    #[test]
    fn giantvm_helper_threads_slow_compute() {
        let mut b = VmBuilder::new(HypervisorProfile::giantvm(), 2);
        for i in 0..2 {
            b = b.vcpu(Placement::new(i, 0), Box::new(FixedCompute::new(ms(10))));
        }
        let done = b.build().run();
        assert!(done > ms(10), "helper threads must steal cycles: {done}");
    }

    #[test]
    fn barrier_synchronizes() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
        b = b.vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(1)),
                Op::Barrier { id: 1, parties: 2 },
                Op::Compute(ms(1)),
            ])),
        );
        b = b.vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(5)),
                Op::Barrier { id: 1, parties: 2 },
                Op::Compute(ms(1)),
            ])),
        );
        let done = b.build().run();
        // Slow vCPU reaches the barrier at 5ms; both finish at 6ms.
        assert_eq!(done, ms(6));
    }

    #[test]
    fn ipi_wakeup() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
        b = b.vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::Compute(ms(2)),
                Op::SendIpi(VcpuId::new(1)),
            ])),
        );
        b = b.vcpu(Placement::new(1, 0), Box::new(Scripted::new([Op::WaitIpi])));
        let mut sim = b.build();
        let done = sim.run();
        assert!(done >= ms(2));
        assert_eq!(sim.world.stats.ipis.events, 1);
    }

    #[test]
    fn local_send_recv_across_nodes() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
        b = b.vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([Op::LocalSend {
                to: VcpuId::new(1),
                tag: 7,
                bytes: 4096,
            }])),
        );
        b = b.vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([Op::LocalRecv])),
        );
        let mut sim = b.build();
        let done = sim.run();
        assert!(done > SimTime::ZERO);
        // Socket buffers crossed the DSM: at least one fault occurred.
        assert!(sim.world.mem.dsm.stats().total_faults() > 0);
    }

    #[test]
    fn touch_batch_remote_pages_takes_time() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
        // vCPU0 creates pages; vCPU1 then reads them remotely.
        let touches: Vec<(PageId, Access)> = (0..32)
            .map(|i| (PageId::new(500_000 + i), Access::Write))
            .collect();
        let reads: Vec<(PageId, Access)> = (0..32)
            .map(|i| (PageId::new(500_000 + i), Access::Read))
            .collect();
        b = b.vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([
                Op::TouchBatch(touches),
                Op::Barrier { id: 1, parties: 2 },
            ])),
        );
        b = b.vcpu(
            Placement::new(1, 0),
            Box::new(Scripted::new([
                Op::Barrier { id: 1, parties: 2 },
                Op::TouchBatch(reads),
            ])),
        );
        let mut sim = b.build();
        let done = sim.run();
        // 32 remote read faults at ~8us each.
        assert!(done > SimTime::from_micros(200), "{done}");
        assert_eq!(sim.world.mem.dsm.stats().read_faults, 32);
    }

    #[test]
    fn blk_io_roundtrip_local_and_remote() {
        let run = |vcpu_node: u32| -> SimTime {
            let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2).with_blk(NodeId::new(0));
            b = b.vcpu(
                Placement::new(vcpu_node, 0),
                Box::new(Scripted::new([Op::BlkIo {
                    bytes: ByteSize::mib(1),
                    write: false,
                    tmpfs: false,
                    buffer: (0..4).map(|i| PageId::new(600_000 + i)).collect(),
                }])),
            );
            b.build().run()
        };
        let local = run(0);
        let remote = run(1);
        // 1 MiB at 500 MB/s ≈ 2.1ms dominates; delegation adds overhead.
        assert!(local > SimTime::from_millis(2), "{local}");
        assert!(remote > local, "remote {remote} vs local {local}");
    }

    #[test]
    fn vcpu_migration_moves_execution() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 2);
        b = b.vcpu(Placement::new(0, 0), Box::new(FixedCompute::new(ms(50))));
        let mut sim = b.build();
        sim.run_until(ms(10));
        assert!(sim.migrate_vcpu(VcpuId::new(0), Placement::new(1, 0)));
        let done = sim.run();
        assert_eq!(sim.world.placement_of(VcpuId::new(0)).node, NodeId::new(1));
        // 10ms before + ~86us migration + 40ms remaining.
        assert!(done >= ms(50), "{done}");
        assert!(done < ms(51), "{done}");
        assert_eq!(sim.world.stats.migrations, 1);
    }

    #[test]
    fn giantvm_cannot_migrate() {
        let mut b = VmBuilder::new(HypervisorProfile::giantvm(), 2);
        b = b.vcpu(Placement::new(0, 0), Box::new(FixedCompute::new(ms(5))));
        let mut sim = b.build();
        sim.run_until(ms(1));
        assert!(!sim.migrate_vcpu(VcpuId::new(0), Placement::new(1, 0)));
    }

    #[test]
    fn sleep_wakes_on_time() {
        let mut b = VmBuilder::new(HypervisorProfile::fragvisor(), 1);
        b = b.vcpu(
            Placement::new(0, 0),
            Box::new(Scripted::new([Op::Sleep(ms(7)), Op::Compute(ms(1))])),
        );
        let done = b.build().run();
        assert_eq!(done, ms(8));
    }
}
