#!/usr/bin/env python3
"""Build and run the AED update benchmark.

One run (the last stdout line is the JSON result):
  python3 perfbench/run.py --workload dc-reach --seed 1 --seconds 15 --trace 0

Many seeds per workload, with median, quartiles and spread per metric:
  python3 perfbench/run.py --sweep 10 [--trace 0] [--seconds 15]
                           [--out runs.json]

Two sweep files against each other, marked with the bounds in
BENCHMARK.json:
  python3 perfbench/run.py --compare old.json new.json

The benchmark is built from the sources in this checkout into
.bench_build/perfbench (CMake; Ninja when available).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "aed_perfbench"
WORKLOADS = ["dc-reach", "zoo-wan", "repair-deploy"]


def build():
    """Configures once, then brings the binary up to date. Build output goes
    to stderr so the result stays the last line of stdout."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD), "--target", "aed_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace):
    """Runs the binary and returns its parsed JSON result line."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} exited "
                 f"{proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as statistics.quantiles
    gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def by_workload(runs):
    """{workload: {metric: [values]}} from a list of run records."""
    table = {}
    for run in runs:
        metrics = table.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return table


def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def sweep(args):
    runs = []
    for workload in WORKLOADS:
        for seed in range(1, args.sweep + 1):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} wrong")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    bounds = load_bounds()
    for workload, metrics in by_workload(runs).items():
        print(f"{workload}: {args.sweep} seeds")
        for name, values in metrics.items():
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = f" bound {bound:.2f}" + (" OVER" if rel > bound else
                                                " >1/3" if rel > bound / 3
                                                else "")
            print(f"  {name:28s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {rel:7.4f}{note}")


def compare(old_path, new_path):
    old = by_workload(json.loads(Path(old_path).read_text())["runs"])
    new = by_workload(json.loads(Path(new_path).read_text())["runs"])
    bounds = load_bounds()
    for workload in sorted(set(old) & set(new)):
        print(f"{workload}:")
        for name in old[workload]:
            if name not in new[workload]:
                continue
            o_med, _, _, o_rel = spread(old[workload][name])
            n_med, _, _, n_rel = spread(new[workload][name])
            delta = (n_med - o_med) / o_med if o_med else 0.0
            spec = bounds.get(name, {})
            bound = spec.get("bound")
            mark = ""
            if bound is not None:
                worse = delta > 0 if spec["better"] == "lower" else delta < 0
                if max(o_rel, n_rel) > bound:
                    mark = "unresolved (spread over bound)"
                elif abs(delta) > bound:
                    mark = "REGRESSION" if worse else "improved"
            print(f"  {name:28s} {o_med:12.6g} -> {n_med:12.6g}  "
                  f"{100 * delta:+7.2f}%  {mark}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sweep", type=int, metavar="SEEDS")
    parser.add_argument("--out", help="sweep results file, for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()

    if args.compare:
        compare(*args.compare)
        return 0
    build()
    if args.sweep:
        sweep(args)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
