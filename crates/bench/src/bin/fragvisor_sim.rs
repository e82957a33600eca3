//! `fragvisor-sim` — command-line driver for one-off simulations.
//!
//! ```text
//! fragvisor_sim npb        --kernel IS --vcpus 4 --system fragvisor
//! fragvisor_sim lemp       --processing-ms 100 --vcpus 4 --requests 40
//! fragvisor_sim faas       --vcpus 4 --system giantvm
//! fragvisor_sim compute    --vcpus 4 --ms 200 --system overcommit
//! fragvisor_sim datacenter --arrivals 100 --policy minfrag --seed 7
//! ```
//!
//! Systems: `fragvisor` (one vCPU per node), `giantvm` (same placement,
//! GiantVM cost profile), `overcommit` (all vCPUs on one pCPU).

use std::collections::HashMap;
use std::process::ExitCode;

use cluster::MachineSpec;
use fragvisor::{scenarios, Distribution, HypervisorProfile, VmSim};
use scheduler::{ArrivalTrace, ConsolidationPolicy, DatacenterSim, PlacementPolicy};
use sim_core::rng::DetRng;
use sim_core::time::SimTime;
use workloads::{LempConfig, NpbClass, NpbKernel};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fragvisor_sim <npb|lemp|faas|compute|datacenter> [--key value]...\n\
         \n\
         common flags: --system fragvisor|giantvm|overcommit  --vcpus N  --seed N\n\
         npb:          --kernel BT|CG|EP|FT|IS|LU|MG|SP\n\
         lemp:         --processing-ms N  --requests N\n\
         compute:      --ms N\n\
         datacenter:   --arrivals N  --nodes N  --policy minfrag|minnodes|firstfit|worstfit\n\
         \x20             --sample-every N  --mixed  --no-aggregates"
    );
    ExitCode::FAILURE
}

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Option<Args> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("unexpected argument: {a}");
                return None;
            };
            // Value-less switches.
            if key == "no-aggregates" || key == "mixed" {
                switches.push(key.to_string());
                continue;
            }
            let Some(v) = it.next() else {
                eprintln!("--{key} needs a value");
                return None;
            };
            flags.insert(key.to_string(), v.clone());
        }
        Some(Args { flags, switches })
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v}")),
        }
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn system_of(args: &Args) -> Result<(HypervisorProfile, Distribution), String> {
    match args.get_str("system", "fragvisor").as_str() {
        "fragvisor" => Ok((HypervisorProfile::fragvisor(), Distribution::OneVcpuPerNode)),
        "giantvm" => Ok((HypervisorProfile::giantvm(), Distribution::OneVcpuPerNode)),
        "overcommit" => Ok((
            HypervisorProfile::single_machine(),
            Distribution::Packed { pcpus: 1 },
        )),
        other => Err(format!("unknown --system {other}")),
    }
}

fn kernel_of(name: &str) -> Result<NpbKernel, String> {
    NpbKernel::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown --kernel {name}"))
}

fn print_vm_summary(sim: &VmSim, makespan: SimTime) {
    let s = sim.world.mem.dsm.stats();
    println!("makespan            {makespan}");
    println!(
        "dsm                 {} read faults, {} write faults, {} hits ({:.0} faults/s)",
        s.read_faults,
        s.write_faults,
        s.hits,
        s.faults_per_sec(makespan)
    );
    let dsm_traffic = sim.world.fabric.traffic(comm::MsgClass::Dsm);
    println!(
        "fabric              {} messages, {:.2} MB DSM traffic",
        sim.world.fabric.messages_sent(),
        dsm_traffic.bytes as f64 / 1e6
    );
    if sim.world.stats.completed_requests > 0 {
        println!(
            "client              {} requests, mean latency {:.1} ms, throughput {:.1} req/s",
            sim.world.stats.completed_requests,
            sim.world.stats.request_latency.mean() / 1e6,
            sim.world.stats.requests_per_sec(makespan)
        );
    }
    if sim.world.stats.migrations > 0 {
        println!(
            "mobility            {} migrations, {} total",
            sim.world.stats.migrations, sim.world.stats.migration_time
        );
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return Err("missing command".to_string());
    };
    let args = Args::parse(&raw[1..]).ok_or("bad arguments")?;
    let vcpus = args.get_u64("vcpus", 4)? as usize;
    if vcpus == 0 && cmd != "datacenter" {
        return Err("--vcpus must be at least 1".to_string());
    }
    let seed = args.get_u64("seed", 42)?;
    match cmd.as_str() {
        "npb" => {
            let kernel = kernel_of(&args.get_str("kernel", "IS"))?;
            let (profile, dist) = system_of(&args)?;
            let mut sim = scenarios::npb_multiprocess(kernel, NpbClass::Sim, vcpus, profile, &dist);
            let makespan = sim.run();
            println!("NPB {} x{} on {}", kernel.name(), vcpus, profile.name);
            print_vm_summary(&sim, makespan);
        }
        "lemp" => {
            let processing = args.get_u64("processing-ms", 100)?;
            let requests = args.get_u64("requests", 40)?;
            let (profile, dist) = system_of(&args)?;
            let mut sim = scenarios::lemp(
                LempConfig::paper(processing, vcpus),
                profile,
                &dist,
                requests,
            );
            let makespan = sim.run_client();
            println!("LEMP {processing}ms x{vcpus} on {}", profile.name);
            print_vm_summary(&sim, makespan);
        }
        "faas" => {
            let (profile, dist) = system_of(&args)?;
            let (mut sim, phases) = scenarios::faas(vcpus, 1, profile, &dist);
            let makespan = sim.run();
            println!("OpenLambda x{vcpus} on {}", profile.name);
            print_vm_summary(&sim, makespan);
            for (i, p) in phases.iter().enumerate() {
                for ph in p.borrow().iter() {
                    println!(
                        "worker {i}           download {} extract {} detect {}",
                        ph.download, ph.extract, ph.detect
                    );
                }
            }
        }
        "compute" => {
            let ms = args.get_u64("ms", 200)?;
            let (profile, dist) = system_of(&args)?;
            let mut sim = fragvisor::AggregateVm::spec()
                .profile(profile)
                .vcpus(vcpus)
                .distribution(dist)
                .seed(seed)
                .compute_workload(SimTime::from_millis(ms))
                .build();
            let makespan = sim.run();
            println!("compute {ms}ms x{vcpus} on {}", profile.name);
            print_vm_summary(&sim, makespan);
        }
        "datacenter" => {
            let arrivals = args.get_u64("arrivals", 100)? as usize;
            let nodes = args.get_u64("nodes", 4)? as usize;
            let sample_every = args.get_u64("sample-every", 1)?.max(1);
            let policy = match args.get_str("policy", "minfrag").as_str() {
                "minfrag" => PlacementPolicy::FragBff(ConsolidationPolicy::MinFragmentation),
                "minnodes" => PlacementPolicy::FragBff(ConsolidationPolicy::MinNodes),
                "firstfit" => PlacementPolicy::FirstFit,
                "worstfit" => PlacementPolicy::WorstFit,
                other => return Err(format!("unknown --policy {other}")),
            };
            let mut rng = DetRng::new(seed);
            let trace = if args.has("mixed") {
                ArrivalTrace::generate_mixed(
                    &mut rng,
                    arrivals,
                    SimTime::from_secs(1),
                    SimTime::from_secs(40),
                )
            } else {
                ArrivalTrace::generate(
                    &mut rng,
                    arrivals,
                    SimTime::from_secs(1),
                    SimTime::from_secs(40),
                )
            };
            let mut sim = DatacenterSim::with_policy(nodes, MachineSpec::fig14(), policy, trace)
                .sample_every(sample_every)
                .observe_first_aggregate(4);
            if args.has("no-aggregates") {
                sim = sim.without_aggregates();
            }
            let started = std::time::Instant::now();
            let report = sim.run();
            let wall = started.elapsed().as_secs_f64();
            println!(
                "datacenter [{}]: {} singles, {} aggregates, {} delayed ({} retries), {} migrations",
                args.get_str("policy", "minfrag"),
                report.singles,
                report.aggregates,
                report.delayed,
                report.retry_attempts,
                report.migrations
            );
            println!(
                "throughput: {} events in {:.3}s wall ({:.0} events/sec), {} samples",
                report.events_processed,
                wall,
                report.events_processed as f64 / wall.max(1e-9),
                report.free_cpus.len()
            );
            let waits: Vec<f64> = report
                .wait_times
                .iter()
                .map(|&(_, w)| w.as_secs_f64())
                .collect();
            if !waits.is_empty() {
                println!(
                    "wait-to-start: mean {:.1}s, max {:.1}s",
                    waits.iter().sum::<f64>() / waits.len() as f64,
                    waits.iter().copied().fold(0.0, f64::max)
                );
            }
            println!(
                "final fragmentation: {} free CPUs, {} stranded",
                report.final_fragmentation.free_cpus, report.final_fragmentation.stranded_cpus
            );
        }
        _ => return Err(format!("unknown command {cmd}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage()
        }
    }
}
