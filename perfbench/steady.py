#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, print every metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads corpus,enum-ladder,cli-requests]
        [--runs 10] [--sets 1] [--seed0 1] [--trace 0]

Each run is ``perfbench/run.py`` in a fresh process with its own seed and
BENCHMARK.json's run_seconds; runs of different workloads interleave.
Per workload and metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to
the metric's bound, and, for comparison, the spread of the unscaled
wall time (see ``harness.SpeedProbe``).  With ``--sets 2`` a second set
of runs on fresh seeds follows; its spread is printed too, and each
metric's second median is compared with the first.
The environment (seeds, nproc, Python, numpy, commit, jobs, the size cap)
is printed first; the raw results go to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

from harness import BENCHMARK_PATH, HERE, ROOT, WORKDIR


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = proc.stderr.splitlines()[0]
    # run.py reports scaled times; keep the unscaled wall time to show what scaling removes
    raw = re.search(r"unscaled: wall_s (\S+) s", proc.stderr)
    if raw:
        result["unscaled_wall_s"] = float(raw.group(1))
    if not result["correct"]:
        print(f"  INCORRECT {workload} seed {seed}:\n{proc.stderr}", file=sys.stderr)
    return result, env


def _spread(values):
    """Median, quartiles, and (q3 - q1) / median (0 for an all-zero metric)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    design = json.loads(BENCHMARK_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in design["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = design["per_layer"] if args.trace else design["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    import numpy
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    print(f"commit={commit} nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={numpy.__version__} RINGLAB_MAX_SIZE="
          f"{os.environ.get('RINGLAB_MAX_SIZE', 'unset')} (run.py unsets it) "
          f"runs={args.runs} sets={args.sets} seconds={design['run_seconds']}")

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    envs = {}
    for s in range(args.sets):
        seeds = [args.seed0 + s * args.runs + i for i in range(args.runs)]
        print(f"set {s + 1} seeds {seeds[0]}..{seeds[-1]}")
        for seed in seeds:
            for w in workloads:
                t0 = time.perf_counter()
                result, envs[w] = _run(w, seed, design["run_seconds"], args.trace)
                results[w][s].append(result)
                print(f"  {w} seed {seed}: {time.perf_counter() - t0:.1f}s "
                      f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}: {envs[w]}")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}" + (f" {'spread2':>8} {'2nd/1st':>8}" if args.sets == 2 else ""))
        for m in metrics:
            name = m["name"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            med, q1, q3, spread = _spread(sets[0])
            bound = bounds[name]
            line = (f"  {name:<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                    f"{bound if bound is not None else '-':>6}")
            flags = []
            spreads = [spread]
            if args.sets == 2 and med:
                spreads.append(_spread(sets[1])[3])
                med2 = statistics.median(sets[1])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                line += f" {spreads[1]:>8.4f} {worse:>+8.4f}"
                if bound is not None and worse > bound:
                    flags.append("WORSE THAN BOUND")
            if bound is not None:
                worst = max(worst, max(spreads) / bound)
                if max(spreads) > bound:
                    flags.append("SPREAD OVER BOUND")
            print(f"{line} {m['unit']}  {'  '.join(flags)}".rstrip())
        raw = [r["unscaled_wall_s"] for r in results[w][0] if "unscaled_wall_s" in r]
        if len(raw) >= 2:
            med, q1, q3, spread = _spread(raw)
            print(f"  {'(unscaled wall_s)':<36} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f}")
    print(f"\nlargest spread/bound: {worst:.3f}")

    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps({"commit": commit, "runs": args.runs, "results": results}))
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
