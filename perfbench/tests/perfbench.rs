//! The benchmark's own checks: outside timing must not change what the
//! simulator computes, the chaos mirror must be the chaos soak, and the
//! seed must reach the inputs.

use bench_harness::experiments::{chaos_soak, ScaleConfig};
use hypervisor::vm::VmSim;
use perfbench::chaos;
use perfbench::stepper::{step, Until, VmProfile};
use perfbench::workloads::{figure_replays, fleet_sims, fragbff_configs, layer_names};

/// What a finished VM run is compared on.
fn outcome(sim: &VmSim, finish: sim_core::SimTime) -> (u64, u64, dsm::DsmStats) {
    (
        finish.as_nanos(),
        sim.engine.delivered(),
        sim.world.mem.dsm.stats().clone(),
    )
}

#[test]
fn timed_stepping_matches_the_simulators_own_run() {
    let reference = figure_replays();
    let timed = figure_replays();
    let plain = figure_replays();
    let mut profile = VmProfile::default();
    let mut delivered = 0;
    for (((mut r, until), (mut t, _)), (mut p, _)) in reference.into_iter().zip(timed).zip(plain) {
        let finish = match until {
            Until::Finished => r.run(),
            Until::ClientDone => r.run_client(),
        };
        let expected = outcome(&r, finish);
        let t_finish = step(&mut t, until, Some(&mut profile)).expect("timed run finishes");
        let p_finish = step(&mut p, until, None).expect("plain run finishes");
        assert_eq!(outcome(&t, t_finish), expected);
        assert_eq!(outcome(&p, p_finish), expected);
        delivered += expected.1;
    }
    assert_eq!(profile.events, delivered);
    assert_eq!(profile.family_count.iter().sum::<u64>(), delivered);
    assert!(profile.step_ns >= profile.handler_ns);
    assert!(profile.family_ns.iter().sum::<u64>() == profile.handler_ns);
}

#[test]
fn chaos_mirror_reproduces_the_soak_rows() {
    let soak = chaos_soak();
    let mut rows = Vec::new();
    for i in 0..chaos::SOAK_PLANS {
        let plan = chaos::plan(chaos::plan_seed(0, i));
        for (shape, build) in chaos::SHAPES {
            let (a, _) = chaos::run_once(build(plan.clone()), None).expect("chaos run");
            let (b, _) = chaos::run_once(build(plan.clone()), None).expect("chaos replay");
            assert_eq!(a.digest, b.digest, "plan {i} {shape}: replay diverged");
            rows.push(vec![
                i.to_string(),
                shape.to_string(),
                a.events.to_string(),
                a.crashes.to_string(),
                a.partitions.to_string(),
                a.rejections.to_string(),
                a.rejoins.to_string(),
                a.fallbacks.to_string(),
                a.violations.to_string(),
                "ok".to_string(),
            ]);
        }
    }
    assert_eq!(rows, soak.rows);
}

#[test]
fn traced_chaos_run_matches_the_untraced_one() {
    let plan = chaos::plan(chaos::plan_seed(0, 1));
    let (plain, _) = chaos::run_once(chaos::sharing_vm(plan.clone()), None).unwrap();
    let mut vm = VmProfile::default();
    let mut audit = chaos::AuditProfile::default();
    let (traced, _) =
        chaos::run_once(chaos::sharing_vm(plan), Some((&mut vm, &mut audit))).unwrap();
    assert_eq!(plain, traced);
    assert!(vm.events > 0 && audit.jsonl_s > 0.0);
}

#[test]
fn seed_changes_the_fragbff_arrival_traces() {
    let arrivals = |seed: u64| -> Vec<String> {
        fragbff_configs(seed)
            .iter()
            .map(|cfg| format!("{:?}", cfg.trace().arrivals))
            .collect()
    };
    let (a, b) = (arrivals(0), arrivals(1));
    assert_eq!(a, arrivals(0));
    assert!(a.iter().all(|t| !b.contains(t)));
    assert_eq!(fragbff_configs(0)[0].seed, ScaleConfig::full().seed);
}

#[test]
fn seed_reaches_the_chaos_plans_and_the_fleet() {
    assert_ne!(
        format!("{:?}", chaos::plan(chaos::plan_seed(0, 0))),
        format!("{:?}", chaos::plan(chaos::plan_seed(1, 0)))
    );
    let seeds = |seed| -> Vec<u64> {
        fleet_sims(seed)
            .iter()
            .map(|(_, s)| s.config().seed)
            .collect()
    };
    assert_ne!(seeds(0), seeds(1));
}

#[test]
fn every_per_layer_metric_is_declared_in_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec.find("\"per_layer\"").expect("per_layer list");
    let declared: Vec<String> = spec[start..]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect();
    assert_eq!(declared, layer_names());
}
