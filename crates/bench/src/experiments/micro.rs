//! Figures 1, 4 and 5: the sharing study and the DSM microbenchmarks.

use fragvisor::scenarios;
use fragvisor::{Distribution, HypervisorProfile, Placement};
use sim_core::time::SimTime;
use workloads::{LempConfig, NpbClass, NpbKernel, SharingMode};

use crate::report::{f2, ratio, Table};

/// A single-machine (non-distributed) placement: every vCPU on node 0,
/// each on its own pCPU — "vanilla Linux" in the Figure 1 study.
fn single_machine(vcpus: usize) -> Distribution {
    Distribution::Custom((0..vcpus).map(|i| Placement::new(0, i as u32)).collect())
}

/// Figure 1: single-machine over DSM execution-time ratios as a function
/// of DSM faults per second. Ratio < 1 is a DSM slowdown.
pub fn fig01_sharing_study() -> Table {
    let mut t = Table::new(
        "Figure 1",
        "single-machine/DSM execution-time ratio vs DSM faults/s",
        &["workload", "nodes", "dsm faults/s", "ratio (higher=better)"],
    );

    // Serial NPB: one instance per node, no app-level sharing.
    for kernel in [NpbKernel::Ep, NpbKernel::Cg, NpbKernel::Is] {
        for nodes in [2usize, 4] {
            let mut dsm_sim = scenarios::npb_multiprocess(
                kernel,
                NpbClass::Sim,
                nodes,
                HypervisorProfile::fragvisor(),
                &Distribution::OneVcpuPerNode,
            );
            let t_dsm = dsm_sim.run();
            let faults = dsm_sim.world.mem.dsm.stats().faults_per_sec(t_dsm);
            let mut single_sim = scenarios::npb_multiprocess(
                kernel,
                NpbClass::Sim,
                nodes,
                HypervisorProfile::single_machine(),
                &single_machine(nodes),
            );
            let t_single = single_sim.run();
            t.row(vec![
                format!("NPB {} (serial)", kernel.name()),
                nodes.to_string(),
                f2(faults),
                f2(t_single.as_secs_f64() / t_dsm.as_secs_f64()),
            ]);
        }
    }

    // OpenMP NPB: sharing degree per benchmark (write probability per
    // 5 µs chunk, from the paper's qualitative classification).
    for (name, share) in [
        ("NPB EP-OMP", 0.01),
        ("NPB MG-OMP", 0.25),
        ("NPB FT-OMP", 0.45),
        ("NPB IS-OMP", 0.65),
    ] {
        for nodes in [2usize, 4] {
            let total = SimTime::from_millis(40);
            let mut dsm_sim = scenarios::npb_omp(
                share,
                nodes,
                total,
                HypervisorProfile::fragvisor(),
                &Distribution::OneVcpuPerNode,
            );
            let t_dsm = dsm_sim.run();
            let faults = dsm_sim.world.mem.dsm.stats().faults_per_sec(t_dsm);
            let mut single_sim = scenarios::npb_omp(
                share,
                nodes,
                total,
                HypervisorProfile::single_machine(),
                &single_machine(nodes),
            );
            let t_single = single_sim.run();
            t.row(vec![
                name.to_string(),
                nodes.to_string(),
                f2(faults),
                f2(t_single.as_secs_f64() / t_dsm.as_secs_f64()),
            ]);
        }
    }

    // LEMP at several page-generation latencies.
    for proc_ms in [25u64, 100, 500] {
        for nodes in [2usize, 4] {
            let config = LempConfig::paper(proc_ms, nodes);
            let requests = 20;
            let mut dsm_sim = scenarios::lemp(
                config,
                HypervisorProfile::fragvisor(),
                &Distribution::OneVcpuPerNode,
                requests,
            );
            let t_dsm = dsm_sim.run_client();
            let faults = dsm_sim.world.mem.dsm.stats().faults_per_sec(t_dsm);
            let mut single_sim = scenarios::lemp(
                config,
                HypervisorProfile::single_machine(),
                &single_machine(nodes),
                requests,
            );
            let t_single = single_sim.run_client();
            t.row(vec![
                format!("LEMP {proc_ms}ms"),
                nodes.to_string(),
                f2(faults),
                f2(t_single.as_secs_f64() / t_dsm.as_secs_f64()),
            ]);
        }
    }

    // OpenLambda FaaS.
    for nodes in [2usize, 4] {
        let (mut dsm_sim, _) = scenarios::faas(
            nodes,
            1,
            HypervisorProfile::fragvisor(),
            &Distribution::OneVcpuPerNode,
        );
        let t_dsm = dsm_sim.run();
        let faults = dsm_sim.world.mem.dsm.stats().faults_per_sec(t_dsm);
        let (mut single_sim, _) = scenarios::faas(
            nodes,
            1,
            HypervisorProfile::single_machine(),
            &single_machine(nodes),
        );
        let t_single = single_sim.run();
        t.row(vec![
            "OpenLambda".to_string(),
            nodes.to_string(),
            f2(faults),
            f2(t_single.as_secs_f64() / t_dsm.as_secs_f64()),
        ]);
    }

    t.note(
        "Paper: low-sharing workloads (serial NPB, EP-OMP, FaaS, LEMP ≥40ms) \
         sit near ratio 1.0; high-sharing OMP and fast LEMP drop to ~0.05-0.5, \
         with slowdown growing with faults/s.",
    );
    t
}

/// Figure 4: loop execution time by level of sharing, normalized to the
/// no-sharing case; false and true sharing behave identically at page
/// granularity, and the overhead grows with node count.
pub fn fig04_dsm_fault_overhead() -> Table {
    let mut t = Table::new(
        "Figure 4",
        "DSM overhead (EPT faults) by level of sharing",
        &["vCPUs", "no sharing", "false sharing", "true sharing"],
    );
    for vcpus in [2usize, 3, 4] {
        let mut times = Vec::new();
        for mode in [
            SharingMode::NoSharing,
            SharingMode::FalseSharing,
            SharingMode::TrueSharing,
        ] {
            let mut sim =
                scenarios::sharing_loop(mode, vcpus, 1_000, HypervisorProfile::fragvisor());
            times.push(sim.run().as_secs_f64());
        }
        let base = times[0];
        t.row(vec![
            vcpus.to_string(),
            ratio(times[0] / base),
            ratio(times[1] / base),
            ratio(times[2] / base),
        ]);
    }
    t.note(
        "Paper: normalized time grows roughly linearly with node count \
         (2x at 2 nodes, 3x at 3...), false sharing == true sharing.",
    );
    t
}

/// Figure 5: concurrent-write throughput by sharing level — FragVisor
/// (one vCPU per node) vs overcommitment (all vCPUs on one pCPU).
pub fn fig05_concurrent_writes() -> Table {
    let mut t = Table::new(
        "Figure 5",
        "concurrent writes: total ops in a fixed window",
        &[
            "sharing",
            "fragvisor ops",
            "overcommit ops",
            "fragvisor DSM MB/s",
        ],
    );
    let deadline = SimTime::from_millis(20);
    let cases: [(&str, [u32; 4]); 4] = [
        ("no-sharing", [0, 1, 2, 3]),
        ("low-sharing", [0, 0, 1, 1]),
        ("moderate-sharing", [0, 0, 0, 1]),
        ("max-sharing", [0, 0, 0, 0]),
    ];
    for (name, groups) in cases {
        let (mut frag, frag_counts) = scenarios::concurrent_writes(
            &groups,
            deadline,
            HypervisorProfile::fragvisor(),
            &Distribution::OneVcpuPerNode,
        );
        let _ = frag.run();
        let frag_ops: u64 = frag_counts.iter().map(|c| c.get()).sum();
        let traffic = frag
            .world
            .fabric
            .traffic(comm::MsgClass::Dsm)
            .bytes_per_sec(deadline)
            / 1e6;
        let (mut over, over_counts) = scenarios::concurrent_writes(
            &groups,
            deadline,
            HypervisorProfile::single_machine(),
            &Distribution::Packed { pcpus: 1 },
        );
        let _ = over.run();
        let over_ops: u64 = over_counts.iter().map(|c| c.get()).sum();
        t.row(vec![
            name.to_string(),
            frag_ops.to_string(),
            over_ops.to_string(),
            f2(traffic),
        ]);
    }
    t.note(
        "Paper: overcommit is flat across sharing levels (one pCPU's \
         worth of ops); FragVisor is ~4x overcommit with no sharing and \
         degrades as sharing rises; max-sharing traffic is ~8 MB/s.",
    );
    t
}
