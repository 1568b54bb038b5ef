#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload <migrate|cr_restart|fleet_soak>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), pins it to one CPU, and runs it:

* `--trace 0`: the workload's own operations, untraced, for `--seconds`,
  then one untimed pass of each other workload for its virtual-clock
  results, so that every end-to-end metric is printed on every workload.
* `--trace 1`: the per-layer ledger from a traced pass of the workload.

Each metric gets its unit from BENCHMARK.json. `perfbench/layers.json`
records, for each per-layer metric, the end-to-end metrics it should move
and on which workloads. A machine block (nproc, rustc, CPU model, CPU
placement) is printed before the result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["migrate", "cr_restart", "fleet_soak"]
# Every run must end within this many seconds (the first one may build).
RUN_BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=850,
                             stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return "unknown"


def machine(cpu):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "placement": f"benchmark process and all its threads pinned to CPU {cpu}",
        "cpu_model": model,
        "rustc": first_line(["rustc", "--version"]),
    }


def run_part(binary, cpu, args, deadline):
    """Run the binary on `cpu`; return its result object."""
    # The program runs in its default configuration: no kernel overrides
    # from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMKIT_")}
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    try:
        res = subprocess.run([binary] + args, env=env, capture_output=True,
                             text=True, timeout=left,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: timed out")
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{' '.join(args)}: exit code {res.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2010)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    kind = "per_layer" if a.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    if missing:
        fail(f"per-layer metrics without an entry in layers.json: {missing}")

    binary = build()
    cpu = min(os.sched_getaffinity(0))
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--seed", str(a.seed), "--trace", str(a.trace)]
    parts = [run_part(binary, cpu, ["--workload", a.workload,
                                    "--seconds", str(a.seconds)] + common,
                      deadline)]
    if not a.trace:
        for other in WORKLOADS:
            if other != a.workload:
                parts.append(run_part(binary, cpu, ["--workload", other,
                                                    "--part", "virtual"] + common,
                                      deadline))

    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    values = {}
    for p in parts:
        for k, v in p["metrics"].items():
            if k in values:
                fail(f"metric {k} reported twice")
            values[k] = v
    if not a.trace:
        values["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    if set(values) != set(units):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(units) - set(values))}, extra "
             f"{sorted(set(values) - set(units))}")
    correct = failed == 0 and attempted > 0
    for k, v in values.items():
        if v is None or not math.isfinite(v):
            print(f"run.py: metric {k} is not a number", file=sys.stderr)
            correct = False
        elif not a.trace and v <= 0:
            print(f"run.py: end-to-end metric {k} is {v}", file=sys.stderr)
            correct = False

    print("machine " + json.dumps(machine(cpu), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in sorted(values)},
    }))


if __name__ == "__main__":
    main()
