//! The four workloads, each as one pass of checked operations.
//!
//! A pass builds its inputs and makes its simulating calls, timing each
//! operation's set-up and simulating calls on their own (summed as
//! `setup_s` and `wall_s`). Every operation returns either a digest of its
//! simulated output or the error that failed it. A traced pass makes the
//! same calls inside spans and also fills the per-layer metrics; a
//! workload leaves the layers it bypasses at zero.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bench_harness::experiments::{ScaleConfig, FIGURES, POLICIES};
use cluster::MachineSpec;
use fragvisor::scenarios;
use fragvisor::{Distribution, HypervisorProfile};
use hypervisor::fleet::{scenario, FleetConfig, FleetSim, TenantSpec};
use hypervisor::vm::VmSim;
use scheduler::{DatacenterSim, SimReport};
use sim_core::Fnv1a;
use workloads::{LempConfig, NpbClass, NpbKernel};

use crate::chaos::{self, AuditProfile};
use crate::stepper::{step, Until, VmProfile, FAMILIES};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The twelve paper figures, serially in paper order.
    Figures,
    /// The four placement policies at data-center scale.
    Fragbff,
    /// The three fleet scenarios at 1,000 Aggregate VMs.
    Fleet,
    /// The chaos soak: chaotic plans, audited and replayed.
    Chaos,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Figures,
        Workload::Fragbff,
        Workload::Fleet,
        Workload::Chaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::Fragbff => "fragbff",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass at benchmark seed `seed`.
    pub fn pass(self, seed: u64, traced: bool) -> Pass {
        match self {
            Workload::Figures => figures(traced),
            Workload::Fragbff => fragbff(seed, traced),
            Workload::Fleet => fleet(seed, traced),
            Workload::Chaos => chaos_pass(seed, traced),
        }
    }
}

/// The outcome of one checked operation: a digest of its simulated
/// output, or why it failed.
pub type OpResult = Result<u64, String>;

/// One pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds spent building each operation's inputs.
    pub setup_s: BTreeMap<String, f64>,
    /// Seconds spent in each operation's simulating calls.
    pub op_s: BTreeMap<String, f64>,
    /// Every checked operation, keyed by its workload and the inputs it
    /// names (figure, trace or fleet seed, policy or scenario).
    pub ops: Vec<(String, OpResult)>,
    /// Per-layer metrics by name (traced passes only).
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    /// Seconds spent in simulating calls.
    pub fn wall_s(&self) -> f64 {
        self.op_s.values().sum()
    }

    fn op(&mut self, key: String, result: OpResult) {
        self.ops.push((key, result));
    }

    fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

/// Fleet scenario names, in report order.
const FLEET_SCENARIOS: [&str; 3] = ["uniform", "noisy", "incast"];

/// Every per-layer metric name, in report order.
pub fn layer_names() -> Vec<String> {
    let mut names: Vec<String> = FIGURES.iter().map(|(f, _)| format!("fig.{f}_s")).collect();
    names.extend(
        [
            "engine.events",
            "engine.self_ns_per_event",
            "engine.queue_peak",
        ]
        .map(String::from),
    );
    for fam in FAMILIES {
        names.push(format!("vm.{fam}.count"));
        names.push(format!("vm.{fam}.ns"));
    }
    names.push("vm.ns_per_event".into());
    for m in [
        "hits",
        "faults",
        "invalidations",
        "hit_ratio",
        "stale_rejections",
    ] {
        names.push(format!("dsm.{m}"));
    }
    for m in ["messages", "retries", "dropped"] {
        names.push(format!("fabric.{m}"));
    }
    for s in FLEET_SCENARIOS {
        for m in [
            "run_s",
            "windows",
            "events",
            "msgs",
            "ns_per_window",
            "events_per_window",
        ] {
            names.push(format!("fleet.{s}.{m}"));
        }
    }
    for p in POLICIES {
        for m in ["run_s", "events", "retries", "migrations", "retry_yield"] {
            names.push(format!("sched.{}.{m}", p.name()));
        }
    }
    names.push("sched.trace_s".into());
    for m in [
        "audit.s",
        "audit.events",
        "audit.ns_per_event",
        "trace.jsonl_s",
        "trace.bytes",
    ] {
        names.push(m.into());
    }
    names.push("trace_overhead_frac".into());
    names
}

/// Runs `f`, turning a panic into an error.
fn checked<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- figures

/// The VMs behind fig09 (NPB, FragVisor vs GiantVM) and fig12 (LEMP over
/// three profiles), built exactly as those figures build them.
pub fn figure_replays() -> Vec<(VmSim, Until)> {
    let mut out = Vec::new();
    for kernel in NpbKernel::all() {
        for vcpus in [2usize, 3, 4] {
            for profile in [HypervisorProfile::fragvisor(), HypervisorProfile::giantvm()] {
                let sim = scenarios::npb_multiprocess(
                    kernel,
                    NpbClass::Sim,
                    vcpus,
                    profile,
                    &Distribution::OneVcpuPerNode,
                );
                out.push((sim, Until::Finished));
            }
        }
    }
    for proc_ms in [25u64, 40, 100, 250, 500] {
        for vcpus in [2usize, 3, 4] {
            let config = LempConfig::paper(proc_ms, vcpus);
            for (profile, dist) in [
                (
                    HypervisorProfile::single_machine(),
                    Distribution::Packed { pcpus: 1 },
                ),
                (HypervisorProfile::fragvisor(), Distribution::OneVcpuPerNode),
                (HypervisorProfile::giantvm(), Distribution::OneVcpuPerNode),
            ] {
                out.push((
                    scenarios::lemp(config, profile, &dist, 40),
                    Until::ClientDone,
                ));
            }
        }
    }
    out
}

/// DSM and fabric counters summed over stepped VMs.
#[derive(Debug, Clone, Default)]
struct Counters {
    hits: u64,
    faults: u64,
    invalidations: u64,
    stale_rejections: u64,
    messages: u64,
    retries: u64,
    dropped: u64,
}

impl Counters {
    fn add(&mut self, sim: &VmSim) {
        let d = sim.world.mem.dsm.stats();
        self.hits += d.hits;
        self.faults += d.total_faults();
        self.invalidations += d.invalidations;
        self.stale_rejections += d.stale_rejections;
        let f = &sim.world.fabric;
        self.messages += f.messages_sent();
        self.retries += f.retry_attempts();
        self.dropped += f.messages_dropped();
    }
}

/// Fills the engine, VM, DSM and fabric layers from stepped VMs.
fn vm_layers(pass: &mut Pass, p: &VmProfile, c: &Counters) {
    let events = p.events as f64;
    pass.layer("engine.events", events);
    pass.layer(
        "engine.self_ns_per_event",
        ratio(p.step_ns.saturating_sub(p.handler_ns) as f64, events),
    );
    pass.layer("engine.queue_peak", p.queue_peak as f64);
    for (i, fam) in FAMILIES.iter().enumerate() {
        pass.layer(format!("vm.{fam}.count"), p.family_count[i] as f64);
        pass.layer(format!("vm.{fam}.ns"), p.family_ns[i] as f64);
    }
    pass.layer("vm.ns_per_event", ratio(p.handler_ns as f64, events));
    pass.layer("dsm.hits", c.hits as f64);
    pass.layer("dsm.faults", c.faults as f64);
    pass.layer("dsm.invalidations", c.invalidations as f64);
    pass.layer(
        "dsm.hit_ratio",
        ratio(c.hits as f64, (c.hits + c.faults) as f64),
    );
    pass.layer("dsm.stale_rejections", c.stale_rejections as f64);
    pass.layer("fabric.messages", c.messages as f64);
    pass.layer("fabric.retries", c.retries as f64);
    pass.layer("fabric.dropped", c.dropped as f64);
}

/// Digest of a figure table's JSON.
fn table_digest(json: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(json.as_bytes());
    h.finish()
}

fn figures(traced: bool) -> Pass {
    let mut pass = Pass::default();
    // The figures build their VMs inside their own calls; what set-up
    // there is shows as building the VMs of the two longest figures.
    let t = Instant::now();
    let mut replays = figure_replays();
    pass.setup_s.insert("figures/replays".into(), secs(t));
    if !traced {
        replays.clear();
    }

    for &(name, f) in FIGURES {
        let t = Instant::now();
        let result = checked(|| Ok(table_digest(&f().to_json())));
        let fig_s = secs(t);
        if traced {
            pass.layer(format!("fig.{name}_s"), fig_s);
        }
        pass.op_s.insert(format!("figures/{name}"), fig_s);
        pass.op(format!("figures/{name}"), result);
    }

    if traced {
        let mut profile = VmProfile::default();
        let mut counters = Counters::default();
        for (i, (mut sim, until)) in replays.into_iter().enumerate() {
            let result =
                checked(|| step(&mut sim, until, Some(&mut profile)).map(|t| t.as_nanos()));
            counters.add(&sim);
            pass.op(format!("figures/replay{i}"), result);
        }
        vm_layers(&mut pass, &profile, &counters);
    }
    pass
}

// ---------------------------------------------------------------- fragbff

/// Traces replayed per pass.
const FRAGBFF_TRACES: u64 = 8;

/// The study's configurations at benchmark seed `seed`: eight traces at an
/// eighth of `ScaleConfig::full()` (250 nodes × 6,250 arrivals: the same
/// arrivals per node and offered load, and 50,000 arrivals per pass in
/// all), trace seeds `42 + 8 seed ..`. At full scale a pass is one 2–4 s
/// trace whose cost moves by ±15% from seed to seed; over ten seeds its
/// fastest pass spread by 12–26% of the median on a shared 2-core host.
/// Eight small traces average the seed out and give a run fifty passes.
pub fn fragbff_configs(seed: u64) -> Vec<ScaleConfig> {
    let full = ScaleConfig::full();
    (0..FRAGBFF_TRACES)
        .map(|i| {
            ScaleConfig {
                nodes: full.nodes / 8,
                arrivals: full.arrivals / 8,
                seed: full.seed.wrapping_add(seed * FRAGBFF_TRACES + i),
                sample_every: 0,
            }
            .autosample()
        })
        .collect()
}

/// Digest of a policy run's deterministic counters.
fn sched_digest(r: &SimReport) -> u64 {
    let f = &r.final_fragmentation;
    let mut h = Fnv1a::new();
    for v in [
        r.singles,
        r.aggregates,
        r.delayed,
        r.retry_attempts,
        r.migrations,
        r.events_processed,
        u64::from(f.free_cpus),
        u64::from(f.stranded_cpus),
        u64::from(f.fragmented_machines),
        u64::from(f.largest_free_block),
        f.stranded_fraction.to_bits(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

fn fragbff(seed: u64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut trace_s = 0.0;
    // Per policy, summed over the traces: run seconds, events, retries,
    // migrations and delayed placements.
    let mut totals = [[0.0; 5]; POLICIES.len()];
    for cfg in fragbff_configs(seed) {
        let full_cluster = cfg.nodes as u32 * MachineSpec::fig14().cpus;
        for (policy, total) in POLICIES.into_iter().zip(&mut totals) {
            // Each policy replays its own copy of the trace, as `run_policy`
            // does.
            let key = format!("fragbff/{}/{}", cfg.seed, policy.name());
            let t = Instant::now();
            let trace = cfg.trace();
            trace_s += secs(t);
            let sim = DatacenterSim::with_policy(cfg.nodes, MachineSpec::fig14(), policy, trace)
                .sample_every(cfg.sample_every);
            pass.setup_s.insert(key.clone(), secs(t));

            let t = Instant::now();
            let report = checked(|| Ok(sim.run()));
            let run_s = secs(t);
            pass.op_s.insert(key.clone(), run_s);
            let result = report.and_then(|r| {
                let counts = [
                    run_s,
                    r.events_processed as f64,
                    r.retry_attempts as f64,
                    r.migrations as f64,
                    r.delayed as f64,
                ];
                for (acc, v) in total.iter_mut().zip(counts) {
                    *acc += v;
                }
                // The cluster drains completely once every VM has left.
                if r.final_fragmentation.free_cpus != full_cluster {
                    return Err(format!(
                        "{} of {full_cluster} CPUs free after the trace drained",
                        r.final_fragmentation.free_cpus
                    ));
                }
                Ok(sched_digest(&r))
            });
            pass.op(key, result);
        }
    }
    if traced {
        for (policy, [run_s, events, retries, migrations, delayed]) in POLICIES.iter().zip(totals) {
            let name = policy.name();
            pass.layer(format!("sched.{name}.run_s"), run_s);
            pass.layer(format!("sched.{name}.events"), events);
            pass.layer(format!("sched.{name}.retries"), retries);
            pass.layer(format!("sched.{name}.migrations"), migrations);
            pass.layer(format!("sched.{name}.retry_yield"), ratio(delayed, retries));
        }
        pass.layer("sched.trace_s", trace_s);
    }
    pass
}

// ------------------------------------------------------------------ fleet

/// Tenants per shard and shards: `exp_fleet`'s full shape.
const FLEET_SHARDS: u32 = 4;
const FLEET_TENANTS_PER_SHARD: u32 = 250;
const FLEET_ROUNDS: u32 = 4;
const FLEET_NOISY_FAN: u32 = 16;

/// The three `exp_fleet` scenarios at benchmark seed `seed` (seed 0 is
/// the fleet's default seed).
pub fn fleet_sims(seed: u64) -> Vec<(&'static str, FleetSim)> {
    let total = FLEET_SHARDS * FLEET_TENANTS_PER_SHARD;
    let peers = [
        scenario::uniform(total),
        scenario::noisy_neighbor(total, FLEET_NOISY_FAN),
        scenario::incast(total),
    ];
    FLEET_SCENARIOS
        .into_iter()
        .zip(peers)
        .map(|(name, peers)| {
            let mut cfg = FleetConfig::new(FLEET_SHARDS, FLEET_TENANTS_PER_SHARD);
            cfg.seed = cfg.seed.wrapping_add(seed);
            let specs = peers
                .into_iter()
                .map(|peer| {
                    let mut s = TenantSpec::new(peer);
                    s.rounds = FLEET_ROUNDS;
                    s
                })
                .collect();
            (name, FleetSim::new(cfg, specs))
        })
        .collect()
}

fn fleet(seed: u64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let t = Instant::now();
    let sims = fleet_sims(seed);
    pass.setup_s.insert("fleet/sims".into(), secs(t));
    for (name, sim) in sims {
        let key = format!("fleet/{}/{name}", sim.config().seed);
        let t = Instant::now();
        let report = checked(|| Ok(sim.run(1)));
        let run_s = secs(t);
        pass.op_s.insert(key.clone(), run_s);
        let result = report.and_then(|r| {
            if traced {
                let windows = r.windows as f64;
                pass.layer(format!("fleet.{name}.run_s"), run_s);
                pass.layer(format!("fleet.{name}.windows"), windows);
                pass.layer(format!("fleet.{name}.events"), r.events as f64);
                pass.layer(format!("fleet.{name}.msgs"), r.fleet_msgs as f64);
                pass.layer(
                    format!("fleet.{name}.ns_per_window"),
                    ratio(run_s * 1e9, windows),
                );
                pass.layer(
                    format!("fleet.{name}.events_per_window"),
                    ratio(r.events as f64, windows),
                );
            }
            // Per-tenant samples and the virtual finish; window and event
            // counts are left out on purpose, since barrier work may change
            // them without changing what the tenants saw.
            let mut h = Fnv1a::new();
            for ts in &r.tenants {
                if ts.samples.len() != FLEET_ROUNDS as usize {
                    return Err(format!(
                        "tenant {} finished {} of {FLEET_ROUNDS} rounds",
                        ts.tenant,
                        ts.samples.len()
                    ));
                }
                h.write_u64(u64::from(ts.tenant));
                for &s in &ts.samples {
                    h.write_u64(s);
                }
            }
            h.write_u64(r.finish.as_nanos());
            Ok(h.finish())
        });
        pass.op(key, result);
    }
    pass
}

// ------------------------------------------------------------------ chaos

fn chaos_pass(seed: u64, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut vm = VmProfile::default();
    let mut audit = AuditProfile::default();
    let mut counters = Counters::default();
    let mut audited_events = 0usize;
    let mut bytes = 0usize;
    let mut disturbances = 0u64;
    // Every plan through both shapes, twice: the run and its replay. Each
    // pair is built just before it runs, so only one pair is alive at a
    // time; the builds are set-up.
    let runs =
        (0..chaos::PLANS).flat_map(|i| chaos::SHAPES.map(|(shape, build)| (i, shape, build)));
    for (i, shape, build) in runs {
        let plan_seed = chaos::plan_seed(seed, i);
        let key = format!("chaos/{plan_seed:x}/{shape}");
        let t = Instant::now();
        let plan = chaos::plan(plan_seed);
        let (first, replay) = (build(plan.clone()), build(plan));
        pass.setup_s.insert(key.clone(), secs(t));
        let t = Instant::now();
        let result = checked(|| {
            let mut outcome = |sim| {
                let profiles = traced.then_some((&mut vm, &mut audit));
                let (out, sim) = chaos::run_once(sim, profiles)?;
                if traced {
                    counters.add(&sim);
                }
                Ok::<_, String>(out)
            };
            let a = outcome(first)?;
            let b = outcome(replay)?;
            audited_events += a.events + b.events;
            bytes += a.bytes + b.bytes;
            disturbances += a.crashes + a.partitions;
            if a.digest != b.digest {
                return Err("replay diverged".into());
            }
            if a.violations != 0 {
                return Err(format!("{} audit violations", a.violations));
            }
            Ok(a.digest)
        });
        pass.op_s.insert(key.clone(), secs(t));
        pass.op(key, result);
    }
    // The soak proves something only if its plans disturbed the cluster.
    let batch = if disturbances > 0 {
        Ok(disturbances)
    } else {
        Err("inert chaos batch".into())
    };
    pass.op("chaos/batch".into(), batch);

    if traced {
        vm_layers(&mut pass, &vm, &counters);
        pass.layer("audit.s", audit.audit_s);
        pass.layer("audit.events", audited_events as f64);
        pass.layer(
            "audit.ns_per_event",
            ratio(audit.audit_s * 1e9, audited_events as f64),
        );
        pass.layer("trace.jsonl_s", audit.jsonl_s);
        pass.layer("trace.bytes", bytes as f64);
    }
    pass
}
