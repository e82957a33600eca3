//! The sharded parallel fleet engine: thousands of Aggregate VMs under
//! one deterministic conservative-DES merge.
//!
//! A *fleet* is `shards` independent [`VmWorld`](crate::vm::VmWorld)s, each hosting
//! `tenants_per_shard` tenants (an RPC client vCPU plus a server vCPU per
//! tenant) on a small cluster of nodes. Tenants exchange cross-shard RPCs
//! over a shared datacenter link ([`FleetConfig::fleet_link`]); intra-shard
//! traffic rides the shard's own fabric as usual.
//!
//! # Conservative windows
//!
//! Shards advance in lock-step windows bounded by the lookahead
//! `W =` [`LinkProfile::lookahead`] of the cross-shard link. Each window
//! ends at `LBTS + W − 1 ns`, where `LBTS` (the lower bound on time
//! stamps) is the earliest of every shard's next event and every merged
//! delivery not yet injected. Any message staged by [`Op::FleetSend`] in
//! the window departs at some `t ≥ LBTS`, so it arrives at
//! `t + W ≥ LBTS + W`, strictly after the (inclusive) window end: no
//! shard can ever receive a message for a time it has already simulated,
//! which is the conservative synchronization invariant, checked when each
//! delivery is injected. Because `LBTS` jumps straight to the next thing
//! that happens, an idle stretch of virtual time costs one barrier, and
//! window placement depends on simulation state only.
//!
//! The run ends when nothing is pending anywhere, or when a window's
//! merge comes back empty with every client finished (servers block in
//! `NetRecv` forever, and a pending request or reply implies an
//! unfinished client).
//!
//! # Deterministic merge
//!
//! At each barrier the coordinator k-way merges the shards' outboxes
//! (each already in key order) by the unique key
//! `(depart, src_shard, src_seq)` ([`StagedMsg::key`]), and feeds the
//! result in that order through a single [`IngressLine`] that serializes
//! deliveries per destination tenant and applies the tenant's
//! weighted-fair stretch. Windows partition virtual time, so admission
//! follows the global key order however the windows fall. Because the
//! merge order, the ingress-line state, and the per-shard injection order
//! are all functions of simulation state only — never of host thread
//! timing — a run with `jobs = 1` and a run with `jobs = N` produce
//! byte-identical results ([`FleetReport::digest`]).
//!
//! # Parallelism
//!
//! One barrier loop drives two executors. At `jobs = 1` every shard runs
//! inline on the calling thread: no threads, no channels. At `jobs > 1`
//! worker threads own disjoint shard subsets (round-robin by shard id)
//! for the whole run; worlds are built *inside* their worker so no
//! non-`Send` state ever crosses a thread boundary. The coordinator and
//! each worker exchange one plain-data message per window each way,
//! carrying the shards' reused delivery and staging buffers.

use std::sync::mpsc;
use std::thread;

use comm::{ClassWeights, IngressLine, LinkProfile, MsgClass, StagedMsg};
use dsm::Access;
use guest::memory::Region;
use sim_core::time::SimTime;
use sim_core::units::ByteSize;
use sim_core::Fnv1a;

use crate::profile::HypervisorProfile;
use crate::program::{GuestMsg, Op, ProgCtx, Program};
use crate::vm::{Event, Placement, VmBuilder, VmSim};
use crate::VcpuId;

/// Tag carried by request messages (client → server vCPU).
const TAG_REQ: u64 = 0;
/// Tag carried by reply messages (server → client vCPU).
const TAG_REP: u64 = 1;

/// Event-queue calendarization threshold of every shard engine. A shard
/// hosting many tenants calendarizes early instead of pre-reserving the
/// default heap of `vcpus * 8 + 64` entries, which raises peak RSS
/// without a wall-clock gain.
const SHARD_CALENDAR_THRESHOLD: usize = 256;

/// One tenant's shape: who it talks to and how hard it works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Global tenant id of the peer this tenant's client sends RPCs to.
    pub peer: u32,
    /// Number of request/reply rounds the client performs.
    pub rounds: u32,
    /// Request/reply payload size in bytes.
    pub bytes: u64,
    /// Server-side compute per request.
    pub service: SimTime,
    /// Client-side think time between rounds (jittered ±25%).
    pub think: SimTime,
    /// Guest pages the server writes per request (0 = no DSM traffic).
    pub pages: u64,
    /// Traffic class: its weighted-fair share stretches this tenant's
    /// deliveries when the destination's ingress line is backlogged.
    pub class: MsgClass,
}

impl TenantSpec {
    /// A balanced default tenant talking to `peer`.
    pub fn new(peer: u32) -> Self {
        TenantSpec {
            peer,
            rounds: 4,
            bytes: 4096,
            service: SimTime::from_micros(20),
            think: SimTime::from_micros(40),
            pages: 4,
            class: MsgClass::Io,
        }
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards (each one [`VmWorld`](crate::vm::VmWorld)).
    pub shards: u32,
    /// Tenants hosted per shard (two vCPUs each).
    pub tenants_per_shard: u32,
    /// Cluster nodes per shard.
    pub nodes_per_shard: u32,
    /// pCPUs per node; tenants overcommit the shared slab beyond
    /// `nodes_per_shard * pcpus_per_node` vCPUs.
    pub pcpus_per_node: u32,
    /// Cost model for each shard's hypervisor.
    pub profile: HypervisorProfile,
    /// The cross-shard datacenter link; its [`LinkProfile::lookahead`]
    /// bounds each conservative window.
    pub fleet_link: LinkProfile,
    /// Weighted-fair shares applied per tenant class at ingress.
    pub weights: ClassWeights,
    /// Determinism seed (each shard derives its own stream).
    pub seed: u64,
    /// Safety cap on window barriers before declaring the fleet hung.
    pub max_windows: u64,
}

impl FleetConfig {
    /// A fleet of `shards` shards with `tenants_per_shard` tenants each,
    /// on FragVisor-profile shards joined by a 1G datacenter link.
    pub fn new(shards: u32, tenants_per_shard: u32) -> Self {
        FleetConfig {
            shards,
            tenants_per_shard,
            nodes_per_shard: 4,
            pcpus_per_node: 4,
            profile: HypervisorProfile::fragvisor(),
            fleet_link: LinkProfile::ethernet_1g(),
            weights: ClassWeights::default_qos(),
            seed: 0xF1EE7,
            max_windows: 20_000_000,
        }
    }

    /// Total tenants in the fleet.
    pub fn tenants(&self) -> u32 {
        self.shards * self.tenants_per_shard
    }
}

/// Per-tenant output: the client's observed request latencies.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Global tenant id.
    pub tenant: u32,
    /// One latency sample (ns) per completed round, in completion order.
    pub samples: Vec<u64>,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-tenant latency samples, in tenant order.
    pub tenants: Vec<TenantStats>,
    /// Order-sensitive digest over every shard's final state, combined in
    /// shard order; byte-identical across `jobs` settings.
    pub digest: u64,
    /// Window barriers crossed.
    pub windows: u64,
    /// Events delivered across all shard engines.
    pub events: u64,
    /// Cross-shard messages merged.
    pub fleet_msgs: u64,
    /// Virtual completion time (max over shards).
    pub finish: SimTime,
}

/// A fleet of Aggregate VMs ready to run.
#[derive(Debug, Clone)]
pub struct FleetSim {
    config: FleetConfig,
    tenants: Vec<TenantSpec>,
}

/// A merged cross-shard message bound for one shard's engine.
struct Delivery {
    at: SimTime,
    vcpu: u32,
    conn: u64,
    bytes: u64,
}

/// What a shard reports at a barrier besides its staged sends.
#[derive(Clone, Copy, Default)]
struct Status {
    /// The shard's earliest pending event (`None` when its queue is empty).
    next: Option<SimTime>,
    /// Every client on the shard has finished its rounds.
    clients_done: bool,
}

/// The per-shard buffers of the barrier loop, indexed by shard id and
/// reused across windows.
struct Barrier {
    /// Merged deliveries to inject before the next window, in merge order.
    inboxes: Vec<Vec<Delivery>>,
    /// Sends staged during the last window, in issue (= key) order.
    outboxes: Vec<Vec<StagedMsg>>,
    /// Each shard's status after the last window.
    status: Vec<Status>,
}

/// One shard of the fleet: its world plus the sequence that numbers its
/// staged sends.
struct Shard {
    id: u32,
    tenants_per_shard: u32,
    sim: VmSim,
    seq: u64,
    /// Clients `0..finished` are known to be done; the check resumes at
    /// the first one that was not, so it costs O(1) per window.
    finished: u32,
}

impl Shard {
    /// Schedules `inbox`'s deliveries in order, leaving it empty.
    ///
    /// # Panics
    ///
    /// Panics if a delivery is not strictly after the shard's clock: the
    /// window ended before the message could have arrived, so running it
    /// would violate causality.
    #[allow(clippy::panic)] // a causality violation is an engine bug
    fn inject(&mut self, inbox: &mut Vec<Delivery>) {
        let now = self.sim.engine.now();
        for d in inbox.drain(..) {
            assert!(
                d.at > now,
                "shard {}: delivery at {} is not after the barrier at {}",
                self.id,
                d.at,
                now
            );
            self.sim.engine.schedule_at(
                d.at,
                Event::FleetDeliver {
                    vcpu: VcpuId::new(d.vcpu),
                    msg: GuestMsg::Net {
                        conn: d.conn,
                        bytes: d.bytes,
                    },
                },
            );
        }
    }

    /// Runs every event up to and including `end`, appends the sends
    /// staged meanwhile to `outbox` in issue order, and reports the
    /// shard's status.
    fn advance(&mut self, end: SimTime, outbox: &mut Vec<StagedMsg>) -> Status {
        self.sim.run_until(end);
        let base = self.id * self.tenants_per_shard;
        for m in self.sim.world.drain_fleet_outbox() {
            outbox.push(StagedMsg {
                depart: m.depart,
                src_shard: self.id,
                src_seq: self.seq,
                src: base + m.src_vcpu.0 / 2,
                dst: m.dst,
                bytes: m.bytes,
                tag: m.tag,
            });
            self.seq += 1;
        }
        let finish = &self.sim.world.stats.vcpu_finish;
        while self.finished < self.tenants_per_shard && finish[2 * self.finished as usize].is_some()
        {
            self.finished += 1;
        }
        Status {
            next: self.sim.engine.peek_time(),
            clients_done: self.finished == self.tenants_per_shard,
        }
    }

    /// Digest + stats for the finished shard.
    fn result(&self) -> ShardResult {
        let sim = &self.sim;
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(self.id));
        h.write_u64(sim.engine.delivered());
        h.write_u64(sim.engine.now().as_nanos());
        h.write_u64(sim.world.mem.dsm.state_digest());
        let stats = &sim.world.stats;
        for f in &stats.vcpu_finish {
            h.write_u64(f.map_or(u64::MAX, SimTime::as_nanos));
        }
        for s in &stats.samples {
            h.write_u64(s.len() as u64);
            for &x in s {
                h.write_u64(x);
            }
        }
        let base = self.id * self.tenants_per_shard;
        let tenants = (0..self.tenants_per_shard)
            .map(|local| (base + local, stats.samples[2 * local as usize].clone()))
            .collect();
        ShardResult {
            digest: h.finish(),
            events: sim.engine.delivered(),
            finish: stats.makespan(),
            tenants,
        }
    }
}

struct ShardResult {
    digest: u64,
    events: u64,
    finish: SimTime,
    /// `(global tenant id, client samples)`, in local tenant order.
    tenants: Vec<(u32, Vec<u64>)>,
}

/// Runs the shards' side of each window for the barrier loop.
trait Executor {
    /// Runs one window on every shard `s`: inject `inboxes[s]`, advance
    /// to `end`, stage the sends into `outboxes[s]` and set `status[s]`.
    fn window(&mut self, end: SimTime, barrier: &mut Barrier);

    /// Every shard's final result, in shard order.
    fn finish(self) -> Vec<ShardResult>;
}

/// The serial executor: every shard runs on the calling thread.
struct Inline(Vec<Shard>);

impl Executor for Inline {
    fn window(&mut self, end: SimTime, barrier: &mut Barrier) {
        for (i, shard) in self.0.iter_mut().enumerate() {
            shard.inject(&mut barrier.inboxes[i]);
            barrier.status[i] = shard.advance(end, &mut barrier.outboxes[i]);
        }
    }

    fn finish(self) -> Vec<ShardResult> {
        self.0.iter().map(Shard::result).collect()
    }
}

/// One shard's window buffers on their way to its worker and back.
struct ShardIo {
    shard: u32,
    inbox: Vec<Delivery>,
    outbox: Vec<StagedMsg>,
    status: Status,
}

/// Coordinator → worker.
enum Cmd {
    /// Run one window to `end` on the worker's shards, in shard order.
    Window { end: SimTime, io: Vec<ShardIo> },
    /// The fleet is done: report final shard state.
    Finish,
}

/// Worker → coordinator.
enum Report {
    /// The worker's shards after a window (the `Cmd::Window` buffers).
    Window(Vec<ShardIo>),
    /// The worker's shards' final state, in shard order.
    Done(Vec<(u32, ShardResult)>),
}

/// The parallel executor: worker threads own disjoint shard sets (shard
/// `s` on worker `s % jobs`) for the whole run.
struct Threads {
    cmds: Vec<mpsc::Sender<Cmd>>,
    reports: mpsc::Receiver<Report>,
}

impl Threads {
    /// Spawns `jobs` workers on `scope`; each builds its own shards, so
    /// worlds (which hold non-`Send` state) never cross threads.
    fn spawn<'scope>(
        fleet: &'scope FleetSim,
        scope: &'scope thread::Scope<'scope, '_>,
        jobs: usize,
    ) -> Self {
        let (report_tx, reports) = mpsc::channel();
        let cmds = (0..jobs)
            .map(|w| {
                let (tx, rx) = mpsc::channel();
                let report_tx = report_tx.clone();
                scope.spawn(move || {
                    let mut shards: Vec<Shard> = (w..fleet.config.shards as usize)
                        .step_by(jobs)
                        .map(|s| fleet.shard(s as u32))
                        .collect();
                    while let Ok(cmd) = rx.recv() {
                        let report = match cmd {
                            Cmd::Window { end, mut io } => {
                                for (shard, io) in shards.iter_mut().zip(&mut io) {
                                    debug_assert_eq!(shard.id, io.shard);
                                    shard.inject(&mut io.inbox);
                                    io.status = shard.advance(end, &mut io.outbox);
                                }
                                Report::Window(io)
                            }
                            Cmd::Finish => {
                                Report::Done(shards.iter().map(|s| (s.id, s.result())).collect())
                            }
                        };
                        report_tx.send(report).expect("coordinator alive");
                    }
                });
                tx
            })
            .collect();
        Threads { cmds, reports }
    }
}

impl Executor for Threads {
    fn window(&mut self, end: SimTime, barrier: &mut Barrier) {
        let jobs = self.cmds.len();
        for (w, tx) in self.cmds.iter().enumerate() {
            let io = (w..barrier.inboxes.len())
                .step_by(jobs)
                .map(|s| ShardIo {
                    shard: s as u32,
                    inbox: std::mem::take(&mut barrier.inboxes[s]),
                    outbox: std::mem::take(&mut barrier.outboxes[s]),
                    status: Status::default(),
                })
                .collect();
            tx.send(Cmd::Window { end, io }).expect("worker alive");
        }
        // Slot every shard's buffers back by shard id, so the order the
        // workers report in (host timing) cannot matter.
        for _ in 0..jobs {
            match self.reports.recv().expect("worker alive") {
                Report::Window(io) => {
                    for io in io {
                        let s = io.shard as usize;
                        barrier.inboxes[s] = io.inbox;
                        barrier.outboxes[s] = io.outbox;
                        barrier.status[s] = io.status;
                    }
                }
                Report::Done(_) => unreachable!("Done before Finish"),
            }
        }
    }

    fn finish(self) -> Vec<ShardResult> {
        for tx in &self.cmds {
            tx.send(Cmd::Finish).expect("worker alive");
        }
        let mut results: Vec<(u32, ShardResult)> = Vec::new();
        for _ in 0..self.cmds.len() {
            match self.reports.recv().expect("worker alive") {
                Report::Done(r) => results.extend(r),
                Report::Window(_) => unreachable!("Window after Finish"),
            }
        }
        results.sort_by_key(|(shard, _)| *shard);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

impl FleetSim {
    /// Builds a fleet; `tenants[t]` describes global tenant `t`, which
    /// lives on shard `t / tenants_per_shard`.
    ///
    /// # Panics
    ///
    /// Panics if the spec list does not cover exactly
    /// `shards * tenants_per_shard` tenants or a peer id is out of range.
    pub fn new(config: FleetConfig, tenants: Vec<TenantSpec>) -> Self {
        assert_eq!(
            tenants.len(),
            config.tenants() as usize,
            "one TenantSpec per tenant"
        );
        assert!(
            tenants.iter().all(|t| t.peer < config.tenants()),
            "peer id out of range"
        );
        FleetSim { config, tenants }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the fleet on `jobs` worker threads (clamped to `[1, shards]`;
    /// `jobs = 1` runs every shard on the calling thread) and returns the
    /// merged report. The report — including its digest — is independent
    /// of `jobs`: every executor runs the same windows in the same merge
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the fleet exceeds [`FleetConfig::max_windows`] barriers
    /// without finishing (a deadlocked tenant graph), or if a worker
    /// thread panics.
    pub fn run(&self, jobs: usize) -> FleetReport {
        let jobs = jobs.clamp(1, (self.config.shards as usize).max(1));
        if jobs == 1 {
            let shards = (0..self.config.shards).map(|s| self.shard(s)).collect();
            return self.drive(Inline(shards));
        }
        thread::scope(|scope| self.drive(Threads::spawn(self, scope, jobs)))
    }

    /// The barrier loop: runs windows on `exec` until the fleet is done,
    /// merging each window's sends into the next window's deliveries.
    #[allow(clippy::panic)] // documented contract: a hung fleet is a caller bug
    fn drive(&self, mut exec: impl Executor) -> FleetReport {
        let cfg = &self.config;
        let shards = cfg.shards as usize;
        let lookahead = cfg.fleet_link.lookahead();
        assert!(
            !lookahead.is_zero(),
            "cross-shard link needs nonzero latency"
        );

        let mut barrier = Barrier {
            inboxes: (0..shards).map(|_| Vec::new()).collect(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            // Unknown before the first window: time zero is a safe bound.
            status: vec![
                Status {
                    next: Some(SimTime::ZERO),
                    clients_done: false,
                };
                shards
            ],
        };
        let mut ingress = IngressLine::new(cfg.fleet_link);
        let mut merged: Vec<StagedMsg> = Vec::new();
        let mut earliest_delivery: Option<SimTime> = None;
        let mut windows = 0u64;
        let mut fleet_msgs = 0u64;
        loop {
            // The lower bound on any shard's next event. A message sent at
            // `t ≥ lbts` arrives at `t + W` or later, so a window ending
            // at `lbts + W − 1 ns` (inclusive) can never receive one.
            let lbts = barrier
                .status
                .iter()
                .filter_map(|s| s.next)
                .chain(earliest_delivery.take())
                .min();
            let Some(lbts) = lbts else {
                break; // nothing pending anywhere
            };
            windows += 1;
            assert!(
                windows <= cfg.max_windows,
                "fleet exceeded {} windows without finishing \
                 (deadlocked tenant graph?)",
                cfg.max_windows
            );
            let end = SimTime::from_nanos(lbts.as_nanos() + lookahead.as_nanos() - 1);
            exec.window(end, &mut barrier);

            // Deterministic merge: global (depart, src_shard, src_seq)
            // order, then per-destination ingress serialization.
            merged.clear();
            comm::merge_windows(&mut barrier.outboxes, &mut merged);
            // A fleet with every client done has no in-flight messages
            // (a pending request or reply implies a blocked, unfinished
            // client), so an empty merge with every client done is
            // quiescent even if shards still hold events.
            if merged.is_empty() && barrier.status.iter().all(|s| s.clients_done) {
                break;
            }
            fleet_msgs += merged.len() as u64;
            for m in &merged {
                let spec = &self.tenants[m.src as usize];
                let weight = cfg.weights.weight(spec.class).max(1);
                let stretch = (cfg.weights.total() / weight).max(1);
                let at = ingress.admit(m.dst, m.depart, ByteSize::bytes(m.bytes), stretch);
                earliest_delivery = Some(earliest_delivery.map_or(at, |f| f.min(at)));
                let local = m.dst % cfg.tenants_per_shard;
                // Requests land on the server vCPU, replies on the client
                // vCPU.
                barrier.inboxes[(m.dst / cfg.tenants_per_shard) as usize].push(Delivery {
                    at,
                    vcpu: 2 * local + u32::from(m.tag == TAG_REQ),
                    conn: u64::from(m.src),
                    bytes: m.bytes,
                });
            }
        }

        // Combine in shard order: the digest is a pure function of
        // simulation state.
        let mut digest = Fnv1a::new();
        let mut tenants = Vec::with_capacity(self.tenants.len());
        let mut events = 0u64;
        let mut finish = SimTime::ZERO;
        for r in exec.finish() {
            digest.write_u64(r.digest);
            events += r.events;
            finish = finish.max(r.finish);
            for (tenant, samples) in r.tenants {
                tenants.push(TenantStats { tenant, samples });
            }
        }
        FleetReport {
            tenants,
            digest: digest.finish(),
            windows,
            events,
            fleet_msgs,
            finish,
        }
    }

    /// Builds one shard: a small cluster hosting this shard's tenants,
    /// two vCPUs each, round-robin over the shared pCPU slab.
    fn shard(&self, shard: u32) -> Shard {
        let cfg = &self.config;
        let nodes = cfg.nodes_per_shard;
        let base = shard * cfg.tenants_per_shard;
        let mut b = VmBuilder::new(cfg.profile, nodes as usize)
            .seed(cfg.seed ^ (0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(u64::from(shard) + 1)))
            .with_calendar_threshold(SHARD_CALENDAR_THRESHOLD);
        for local in 0..cfg.tenants_per_shard {
            let tenant = base + local;
            let spec = self.tenants[tenant as usize];
            // Client and server land on different nodes so every RPC's
            // DSM traffic crosses the shard fabric.
            for role in 0..2u32 {
                let v = 2 * local + role;
                let node = v % nodes;
                let pcpu = (v / nodes) % cfg.pcpus_per_node;
                let prog: Box<dyn Program> = if role == 0 {
                    Box::new(FleetClient::new(spec))
                } else {
                    Box::new(FleetServer::new(tenant, spec))
                };
                b = b.vcpu(Placement::new(node, pcpu), prog);
            }
        }
        let mut sim = b.build();
        sim.world.enable_fleet();
        Shard {
            id: shard,
            tenants_per_shard: cfg.tenants_per_shard,
            sim,
            seq: 0,
            finished: 0,
        }
    }
}

/// Client phase machine: think → send → recv → observe, `rounds` times.
#[derive(Debug, Clone, Copy)]
enum ClientPhase {
    Think,
    Send,
    Recv,
    Observe,
}

/// The per-tenant RPC client: issues one request per round to the peer
/// tenant's server and records the observed round-trip latency.
struct FleetClient {
    spec: TenantSpec,
    phase: ClientPhase,
    round: u32,
    t0: SimTime,
}

impl FleetClient {
    fn new(spec: TenantSpec) -> Self {
        FleetClient {
            spec,
            phase: ClientPhase::Think,
            round: 0,
            t0: SimTime::ZERO,
        }
    }
}

impl Program for FleetClient {
    fn next(&mut self, cx: &mut ProgCtx<'_>) -> Op {
        match self.phase {
            ClientPhase::Think => {
                if self.round >= self.spec.rounds {
                    return Op::Done;
                }
                self.phase = ClientPhase::Send;
                // ±25% jitter keeps tenants out of lock-step without
                // perturbing the mean load.
                let base = self.spec.think.as_nanos();
                let jitter = cx.rng.range(0, base / 2 + 1);
                Op::Compute(SimTime::from_nanos(base * 3 / 4 + jitter))
            }
            ClientPhase::Send => {
                self.t0 = cx.now;
                self.phase = ClientPhase::Recv;
                Op::FleetSend {
                    dst: self.spec.peer,
                    bytes: self.spec.bytes,
                    tag: TAG_REQ,
                }
            }
            ClientPhase::Recv => {
                self.phase = ClientPhase::Observe;
                Op::NetRecv
            }
            ClientPhase::Observe => {
                self.round += 1;
                self.phase = ClientPhase::Think;
                Op::Observe {
                    value_ns: (cx.now - self.t0).as_nanos(),
                }
            }
        }
    }

    fn label(&self) -> &str {
        "fleet-client"
    }
}

/// Server phase machine: recv → compute → touch → reply, forever.
#[derive(Debug, Clone, Copy)]
enum ServerPhase {
    Recv,
    Work,
    Touch,
    Reply,
}

/// The per-tenant RPC server: echoes each request back to its sender
/// after a service burst and a page-write sweep over its heap region.
struct FleetServer {
    tenant: u32,
    spec: TenantSpec,
    phase: ServerPhase,
    region: Option<Region>,
    cursor: u64,
    reply_to: u32,
}

impl FleetServer {
    fn new(tenant: u32, spec: TenantSpec) -> Self {
        FleetServer {
            tenant,
            spec,
            phase: ServerPhase::Recv,
            region: None,
            cursor: 0,
            reply_to: 0,
        }
    }
}

impl Program for FleetServer {
    fn next(&mut self, cx: &mut ProgCtx<'_>) -> Op {
        match self.phase {
            ServerPhase::Recv => {
                self.phase = ServerPhase::Work;
                Op::NetRecv
            }
            ServerPhase::Work => {
                if let Some(GuestMsg::Net { conn, .. }) = cx.delivered {
                    self.reply_to = conn as u32;
                }
                self.phase = ServerPhase::Touch;
                Op::Compute(self.spec.service)
            }
            ServerPhase::Touch => {
                self.phase = ServerPhase::Reply;
                if self.spec.pages == 0 {
                    return self.next(cx);
                }
                let region = self.region.get_or_insert_with(|| {
                    cx.alloc
                        .alloc(&format!("tenant{}.heap", self.tenant), self.spec.pages * 8)
                });
                let touches = (0..self.spec.pages)
                    .map(|i| {
                        let p = region.page((self.cursor + i) % (self.spec.pages * 8));
                        (p, Access::Write)
                    })
                    .collect();
                self.cursor += self.spec.pages;
                Op::TouchBatch(touches)
            }
            ServerPhase::Reply => {
                self.phase = ServerPhase::Recv;
                Op::FleetSend {
                    dst: self.reply_to,
                    bytes: self.spec.bytes,
                    tag: TAG_REP,
                }
            }
        }
    }

    fn label(&self) -> &str {
        "fleet-server"
    }
}

/// Peer maps for the standard fleet scenarios.
pub mod scenario {
    /// Uniform all-to-all: tenant `t` pairs with the tenant half the
    /// fleet away, so every RPC crosses shards once `shards > 1`.
    pub fn uniform(total: u32) -> Vec<u32> {
        (0..total).map(|t| (t + total / 2) % total).collect()
    }

    /// Noisy neighbor: every `fan`-th tenant floods tenant 0's shard
    /// neighborhood; the rest behave as in [`uniform`].
    pub fn noisy_neighbor(total: u32, fan: u32) -> Vec<u32> {
        (0..total)
            .map(|t| {
                if t != 0 && t % fan == 0 {
                    0
                } else {
                    (t + total / 2) % total
                }
            })
            .collect()
    }

    /// Incast: all tenants converge on tenant 0 (one hot ingress line).
    pub fn incast(total: u32) -> Vec<u32> {
        (0..total)
            .map(|t| if t == 0 { total / 2 } else { 0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet(shards: u32, tenants_per_shard: u32, seed: u64) -> FleetSim {
        let mut cfg = FleetConfig::new(shards, tenants_per_shard);
        cfg.seed = seed;
        let total = cfg.tenants();
        let specs: Vec<TenantSpec> = scenario::uniform(total)
            .into_iter()
            .map(TenantSpec::new)
            .collect();
        FleetSim::new(cfg, specs)
    }

    #[test]
    fn fleet_completes_and_samples_every_round() {
        let report = small_fleet(2, 4, 7).run(1);
        assert_eq!(report.tenants.len(), 8);
        for t in &report.tenants {
            assert_eq!(t.samples.len(), 4, "tenant {} rounds", t.tenant);
            assert!(t.samples.iter().all(|&s| s > 0));
        }
        assert!(report.fleet_msgs >= 2 * 8 * 4); // request + reply per round
        assert!(report.windows > 1);
    }

    #[test]
    fn serial_and_parallel_runs_are_byte_identical() {
        let fleet = small_fleet(4, 3, 11);
        let serial = fleet.run(1);
        let par2 = fleet.run(2);
        let par4 = fleet.run(4);
        assert_eq!(serial.digest, par2.digest);
        assert_eq!(serial.digest, par4.digest);
        assert_eq!(serial.windows, par4.windows);
        assert_eq!(serial.events, par4.events);
        assert_eq!(serial.finish, par4.finish);
        for (a, b) in serial.tenants.iter().zip(&par4.tenants) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn incast_serializes_on_the_hot_ingress_line() {
        let mut cfg = FleetConfig::new(2, 4);
        cfg.seed = 3;
        let total = cfg.tenants();
        let specs: Vec<TenantSpec> = scenario::incast(total)
            .into_iter()
            .map(TenantSpec::new)
            .collect();
        let incast = FleetSim::new(cfg, specs).run(2);
        let uniform = small_fleet(2, 4, 3).run(2);
        let max = |r: &FleetReport| {
            r.tenants
                .iter()
                .flat_map(|t| t.samples.iter().copied())
                .max()
                .unwrap_or(0)
        };
        assert!(
            max(&incast) > max(&uniform),
            "incast tail {} should exceed uniform tail {}",
            max(&incast),
            max(&uniform)
        );
    }

    /// Hash of what the tenants observe: every tenant's samples, in
    /// tenant order, then the virtual finish time.
    fn tenant_hash(r: &FleetReport) -> u64 {
        let mut h = Fnv1a::new();
        for t in &r.tenants {
            h.write_u64(u64::from(t.tenant));
            for &s in &t.samples {
                h.write_u64(s);
            }
        }
        h.write_u64(r.finish.as_nanos());
        h.finish()
    }

    #[test]
    fn tenant_output_is_pinned() {
        // Recorded before the barrier loop was restructured: window
        // placement is host-side bookkeeping and must not move what any
        // tenant sees.
        const PINNED: [(&str, u64, u64); 9] = [
            ("uniform", 3, 0x8cd2_a8ab_d34e_904e),
            ("uniform", 7, 0x4466_854e_1de6_8a87),
            ("uniform", 11, 0x337f_e220_0be4_80ac),
            ("noisy", 3, 0xc363_02b6_f3b8_2ba8),
            ("noisy", 7, 0xdf0f_a47d_11e8_ea67),
            ("noisy", 11, 0xdbbf_7b81_d181_479b),
            ("incast", 3, 0x485f_f450_338a_0041),
            ("incast", 7, 0x2ab5_96b9_8ed5_5b82),
            ("incast", 11, 0x30f2_69e4_c4de_146f),
        ];
        for (name, seed, want) in PINNED {
            let mut cfg = FleetConfig::new(2, 8);
            cfg.seed = seed;
            let total = cfg.tenants();
            let peers = match name {
                "uniform" => scenario::uniform(total),
                "noisy" => scenario::noisy_neighbor(total, 4),
                _ => scenario::incast(total),
            };
            let specs = peers.into_iter().map(TenantSpec::new).collect();
            let got = tenant_hash(&FleetSim::new(cfg, specs).run(1));
            assert_eq!(got, want, "{name} seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeded 3 windows")]
    fn window_cap_trips_on_a_long_fleet() {
        let mut fleet = small_fleet(2, 4, 7);
        fleet.config.max_windows = 3;
        fleet.run(1);
    }

    #[test]
    fn digest_depends_on_seed() {
        let a = small_fleet(2, 2, 1).run(1);
        let b = small_fleet(2, 2, 2).run(1);
        assert_ne!(a.digest, b.digest);
    }
}
