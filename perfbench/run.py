#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare

Run from the repository root. The first form builds `perfbench` (a Cargo
package of its own, in release mode, into `$CARGO_TARGET_DIR`, by default
`.bench_build`), runs one workload, prints every metric by name and unit,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are `BENCHMARK.json`'s `end_to_end` ones, with
`--trace 1` its `per_layer` ones. Each result is also appended, stamped
with the host (core count, CPU model, rustc version), to
`.bench_results/results.jsonl`; `--compare` summarises the results that
carry this host's stamp and skips the rest, since timings from different
hosts are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RESULTS = ROOT / ".bench_results" / "results.jsonl"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {"cores": os.cpu_count(), "cpu": model, "rustc": rustc}


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    exe = (target if target.is_absolute() else ROOT / target) / "release" / "perfbench"
    if not exe.is_file():
        fail(f"{exe} was not built")
    return exe


def run(args, spec):
    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # One CPU for the whole run: the fleet's coordinator and worker then
    # hand each window over on the same CPU instead of waking each other
    # across CPUs, a cost that on a shared host depends on the co-tenants.
    cpu = min(os.sched_getaffinity(0))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            fail(f"perfbench did not report {m['name']}")
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]], "unit": m["unit"]}

    stamp = host_stamp()
    for line in lines[:-1]:
        print(line)
    print(f"host: {stamp['cores']} cores, {stamp['cpu']}, {stamp['rustc']}")
    units = {m["name"]: m["unit"] for m in wanted}
    units["fail_frac"] = "ratio"
    for name, value in raw["metrics"].items():
        print(f"{name:<36} {value:>18.6g} {units.get(name, '')}")

    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    RESULTS.parent.mkdir(exist_ok=True)
    with RESULTS.open("a") as f:
        record = {"host": stamp, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, **result}
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


def compare():
    stamp = host_stamp()
    groups, skipped = {}, 0
    if RESULTS.is_file():
        for line in RESULTS.read_text().splitlines():
            rec = json.loads(line)
            if rec["host"] != stamp:
                skipped += 1
                continue
            key = (rec["workload"], rec["trace"])
            for name, m in rec["metrics"].items():
                groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    print(f"host: {stamp['cores']} cores, {stamp['cpu']}, {stamp['rustc']}")
    print(f"{skipped} result(s) from other hosts skipped")
    for (workload, trace), metrics in sorted(groups.items()):
        for name, values in metrics.items():
            q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{workload:<8} trace={trace} {name:<36} n={len(values):<3} "
                  f"median={statistics.median(values):.6g} "
                  f"q1={q[0]:.6g} q3={q[2]:.6g}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", action="store_true")
    args = p.parse_args()
    if args.compare:
        compare()
        return
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    run(args, spec)


if __name__ == "__main__":
    main()
