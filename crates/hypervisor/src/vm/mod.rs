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
//!
//! [`VmWorld`]'s event handler only dispatches; each event family lives in
//! its own file: `cpu` (program stepping, compute, IPIs, guest-local
//! messages, barriers, timers and the one wake path), `io` (virtio
//! submission and completion, the external client), `mobility` (vCPU
//! migration) and `failure` (crashes, detection, recovery, partitions and
//! predicted drains).

mod cpu;
mod failure;
mod io;
mod mobility;

use std::collections::{BTreeSet, HashMap, VecDeque};

use comm::{Fabric, LinkProfile, NodeId};
use dsm::PageClass;
use guest::memory::Region;
use sim_core::fault::FaultPlan;
use sim_core::pscpu::PsCpu;
use sim_core::rng::DetRng;
use sim_core::time::SimTime;
use sim_core::trace::Tracer;
use sim_core::units::ByteSize;
use sim_core::{Ctx, Engine, World};
use virtio::device::{DeviceConfig, VirtioBlk, VirtioConsole, VirtioNet};
use virtio::{QueueId, VcpuId};

use crate::elastic::MemoryConfig;
use crate::failure::FailureConfig;
use crate::memory::VmMemory;
use crate::profile::HypervisorProfile;
use crate::program::{GuestMsg, Op, Program};
use crate::stats::VmStats;

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
    /// Blocked until a wake of the matching kind (see [`VmWorld::wake`]).
    Blocked(Wait),
    /// Mid-migration.
    Migrating,
    /// Halted by a node crash; awaiting checkpoint restore.
    Failed,
    /// Program finished.
    Done,
}

/// What a blocked vCPU waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// A message in an inbox (`NetRecv`, `LocalRecv`, `RecvAny`).
    Recv(Inbox),
    /// An IPI.
    Ipi,
    /// The other parties of a barrier.
    Barrier,
    /// A block-I/O completion.
    Io,
    /// A timer (`Sleep`).
    Timer,
}

impl Wait {
    /// True when a wake of kind `self` ends a wait for `waiting`: the same
    /// kind, or any message for a `RecvAny`.
    fn ends(self, waiting: Wait) -> bool {
        self == waiting || matches!((self, waiting), (Wait::Recv(_), Wait::Recv(Inbox::Any)))
    }
}

/// A vCPU's message inboxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inbox {
    /// Network messages (client requests, fleet messages).
    Net,
    /// Guest-local messages from other vCPUs.
    Local,
    /// Either; local messages first.
    Any,
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
    /// Pre-migration status to restore at MigrationDone (`Ready` once a
    /// wake has landed in flight; see [`VmWorld::wake`]).
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
    rng: DetRng,
}

impl VcpuState {
    /// Moves the next message a receive from `inbox` accepts into
    /// `delivered`; false when there is none.
    fn hand_off(&mut self, inbox: Inbox) -> bool {
        let msg = match inbox {
            Inbox::Net => self.net_inbox.pop_front(),
            Inbox::Local => self.local_inbox.pop_front(),
            Inbox::Any => self
                .local_inbox
                .pop_front()
                .or_else(|| self.net_inbox.pop_front()),
        };
        let Some(msg) = msg else {
            return false;
        };
        self.delivered = Some(msg);
        true
    }
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
        plan: Box<virtio::plan::IoPlan>,
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
        debug_assert_eq!(
            self.terminal_vcpus,
            self.vcpus.iter().filter(|v| self.is_terminal(v)).count()
        );
        self.terminal_vcpus == self.vcpus.len() && self.client_done()
    }

    /// Whether `v` will never run again: finished, or crashed with no
    /// failure detector to restore it.
    fn is_terminal(&self, v: &VcpuState) -> bool {
        v.status == VcpuStatus::Done || (self.failure.is_none() && v.status == VcpuStatus::Failed)
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

    /// Lazily creates (and instruments) a pCPU on `node`; returns its slot.
    fn ensure_pcpu(&mut self, node: NodeId, pcpu: u32) -> u32 {
        let fresh = !self.pcpu_slots.contains_key(&(node, pcpu));
        let slot = self.alloc_pcpu(node, pcpu);
        let load = self.profile.helper_thread_load;
        if fresh && load > 0.0 {
            self.pcpus[slot as usize].set_background_load(SimTime::ZERO, load);
        }
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

    /// Kicks off every vCPU (and its timer), the client, and the fault
    /// plan's scripted events.
    fn start(&mut self, ctx: &mut Ctx<'_, Event>) {
        for i in 0..self.vcpus.len() {
            let vcpu = VcpuId::from_usize(i);
            ctx.schedule_now(Event::VcpuStep(vcpu));
            if let Some(interval) = self.timer_interval {
                ctx.schedule_in(interval, Event::GuestTick { vcpu });
            }
        }
        if let Some(client) = self.client.as_mut() {
            let sends = client.model.start(ctx.now);
            self.inject_client_sends(ctx, sends);
        }
        self.schedule_faults(ctx);
    }
}

impl World for VmWorld {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<'_, Event>, ev: Event) {
        match ev {
            Event::Start => self.start(ctx),
            Event::VcpuStep(vcpu) => self.vcpu_step(ctx, vcpu),
            Event::CpuDone { slot, epoch } => self.cpu_done(ctx, slot, epoch),
            Event::ChargeCpu { vcpu, work } => self.charge_cpu(ctx, vcpu, work),
            Event::IpiDeliver { vcpu } => self.ipi_deliver(ctx, vcpu),
            Event::LocalDeliver { vcpu, msg } => self.local_deliver(ctx, vcpu, msg),
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
            } => self.net_rx_deliver(ctx, vcpu, msg, queue, guest_touches),
            Event::ClientDeliver { conn, bytes } => self.client_deliver(ctx, conn, bytes),
            Event::WakeVcpu(vcpu) => self.timer_fired(ctx, vcpu),
            Event::GuestTick { vcpu } => self.guest_tick(ctx, vcpu),
            Event::MigrationDone { vcpu, to } => self.migration_done(ctx, vcpu, to),
            Event::NodeFail { node } => self.node_fail(ctx, node),
            Event::Heartbeat => self.heartbeat_round(ctx),
            Event::PredictFailure { node } => self.predict_failure(ctx, node),
            Event::RecoverNode { node } => self.recover_node(ctx, node),
            Event::VcpuRestore { vcpu } => self.vcpu_restore(ctx, vcpu),
            Event::PartitionBegin { idx } => self.partition_begin(ctx, idx),
            Event::PartitionEnd { idx } => self.partition_end(ctx, idx),
            Event::FleetDeliver { vcpu, msg } => self.fleet_deliver(ctx, vcpu, msg),
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

        let root_rng = DetRng::new(self.seed);
        let vcpus: Vec<VcpuState> = self
            .placements
            .iter()
            .zip(self.programs)
            .enumerate()
            .map(|(i, (p, program))| VcpuState {
                node: p.node,
                pcpu: p.pcpu,
                pcpu_slot: u32::MAX,
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
                rng: root_rng.derive(i as u64),
            })
            .collect();

        let stats = VmStats::new(vcpus.len());
        let console = DeviceConfig::new(bootstrap).build_console();
        let crashed = vec![None; fabric.nodes()];
        let mut world = VmWorld {
            profile: self.profile,
            fabric,
            mem,
            pcpus: Vec::with_capacity(vcpus.len()),
            pcpu_keys: Vec::with_capacity(vcpus.len()),
            pcpu_slots: HashMap::with_capacity(vcpus.len()),
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
        // pCPUs and helper threads, slab-indexed in placement order.
        for i in 0..world.vcpus.len() {
            let (node, pcpu) = (world.vcpus[i].node, world.vcpus[i].pcpu);
            world.vcpus[i].pcpu_slot = world.ensure_pcpu(node, pcpu);
        }
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
                    .filter(|(_, v)| !self.world.is_terminal(v))
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
    use dsm::{Access, PageId};

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
