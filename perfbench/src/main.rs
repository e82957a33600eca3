//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in passes for about `--seconds` seconds and prints,
//! as its last line, one JSON object with the operations attempted and
//! failed and the metrics by name:
//!
//! * `--trace 0`: `wall_s` and `setup_s` (each operation at its fastest
//!   over the passes), `peak_rss_mb`, `ok_frac` and `fail_frac`;
//! * `--trace 1`: every per-layer metric, from traced passes alternating
//!   with untraced ones (each the lowest over the traced passes; counts
//!   are the same in every pass), plus `trace_overhead_frac`.
//!
//! `perfbench record` prints the output digests of seed 0 in `golden.txt`'s
//! format.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::workloads::{layer_names, Pass, Workload};
use perfbench::{golden, peak_rss_mb, quantile};

const USAGE: &str = "usage: perfbench --workload <figures|fragbff|fleet|chaos> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench record";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn record() {
    for w in [Workload::Figures, Workload::Fragbff, Workload::Fleet] {
        for (key, result) in w.pass(0, false).ops {
            match result {
                Ok(d) => println!("{key} {d:016x}"),
                Err(e) => eprintln!("{key} failed: {e}"),
            }
        }
    }
}

/// Checks each pass's operations against the digests recorded for the
/// same inputs and against the first pass of this run.
struct Checker {
    golden: BTreeMap<String, u64>,
    first: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, pass: &Pass) {
        for (key, result) in &pass.ops {
            self.attempted += 1;
            let err = match result {
                Err(e) => Some(e.clone()),
                Ok(d) => {
                    let first = *self.first.entry(key.clone()).or_insert(*d);
                    match self.golden.get(key) {
                        Some(&g) if g != *d => {
                            Some(format!("digest {d:016x} differs from recorded {g:016x}"))
                        }
                        _ if first != *d => Some("output differs between passes".into()),
                        _ => None,
                    }
                }
            };
            if let Some(e) = err {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{key}: {e}"));
                }
            }
        }
    }
}

/// Co-tenants on a shared host only ever slow work down, in bursts that
/// last seconds. So `wall_s` and `setup_s` sum each operation's fastest
/// time over a run's passes — the steady estimate of what the code costs
/// here — and each per-layer value is its lowest over the traced passes.
/// Passes are folded in as they finish, so the benchmark's own memory does
/// not grow with their number.
#[derive(Default)]
struct Fastest {
    setup_s: BTreeMap<String, f64>,
    op_s: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    /// Each pass's total simulating time, for the printed distribution.
    walls: Vec<f64>,
}

impl Fastest {
    fn add(&mut self, pass: Pass) {
        self.walls.push(pass.wall_s());
        for (best, values) in [
            (&mut self.setup_s, pass.setup_s),
            (&mut self.op_s, pass.op_s),
            (&mut self.layers, pass.layers),
        ] {
            for (key, v) in values {
                let b = best.entry(key).or_insert(v);
                *b = b.min(v);
            }
        }
    }

    fn wall_s(&self) -> f64 {
        self.op_s.values().sum()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) {
    let w = args.workload;
    let mut checker = Checker {
        golden: golden(),
        first: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    let (mut plain, mut traced) = (Fastest::default(), Fastest::default());
    let min_passes = if args.trace { 4 } else { 3 };
    loop {
        let tracing = args.trace && plain.walls.len() > traced.walls.len();
        let pass = w.pass(args.seed, tracing);
        checker.check(&pass);
        if tracing {
            traced.add(pass);
        } else {
            plain.add(pass);
        }
        let n = (plain.walls.len() + traced.walls.len()) as f64;
        let elapsed = start.elapsed().as_secs_f64();
        // Stop when the next pass would end further past the deadline
        // than stopping now falls short of it.
        if n >= f64::from(min_passes) && elapsed + elapsed / n / 2.0 >= args.seconds {
            break;
        }
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();
    if args.trace {
        for name in layer_names() {
            let value = traced.layers.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value));
        }
        let overhead = traced.wall_s() / plain.wall_s() - 1.0;
        if let Some(m) = metrics.iter_mut().find(|(n, _)| n == "trace_overhead_frac") {
            m.1 = overhead;
        }
    } else {
        let fail_frac = checker.failed as f64 / checker.attempted as f64;
        metrics.push(("wall_s".into(), plain.wall_s()));
        metrics.push(("setup_s".into(), plain.setup_s.values().sum()));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb()));
        metrics.push(("ok_frac".into(), 1.0 - fail_frac));
        metrics.push(("fail_frac".into(), fail_frac));
    }

    println!(
        "workload {} seed {} passes {} ({} traced) in {:.1} s",
        w.name(),
        args.seed,
        plain.walls.len() + traced.walls.len(),
        traced.walls.len(),
        start.elapsed().as_secs_f64()
    );
    for (label, walls) in [("untraced", &plain.walls), ("traced", &traced.walls)] {
        if !walls.is_empty() {
            println!(
                "{label} pass wall_s: n {} min {:.6} median {:.6} p90 {:.6} max {:.6}",
                walls.len(),
                quantile(walls, 0.0),
                quantile(walls, 0.5),
                quantile(walls, 0.9),
                quantile(walls, 1.0),
            );
        }
    }
    for f in &checker.failures {
        println!("FAILED {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    let failures: Vec<String> = checker.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        failures.join(", "),
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record") {
        record();
        return ExitCode::SUCCESS;
    }
    match parse(&args) {
        Ok(a) => {
            run(&a);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
