#!/usr/bin/env python3
"""ringlab benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus|enum-ladder|cli-requests \\
        --seed N --seconds S --trace 0|1

The run repeats whole passes over the workload's seeded operations until
S seconds have passed (at least one pass).  On a batch workload (corpus,
enum-ladder) a request is a whole pass; otherwise it is one operation.  Every operation's answer is
checked against ``perfbench/expected.json``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json and carries no tracing; ``--trace 1``
runs each operation untraced and traced and reports the per-layer
metrics.  Spans and per-operation latencies go to ``.perfbench_work/``, a
summary to stderr, and the JSON result is the last stdout line.

ringlab is imported from ``src/`` next to this directory, and the run
fails (exit 2) when that source tree is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

from harness import (BENCHMARK_PATH, ROOT, WORKDIR, SpeedProbe, Tracer, end_to_end,
                     failure_summary, load_record, per_layer, run_passes)

SRC = ROOT / "src"
WORKLOADS = {"corpus": "corpus", "enum-ladder": "ladder", "cli-requests": "cli_requests"}
# setup_s is the median of this many probes, spread over the run so that
# they see the same mix of fast and slow machine phases as the timed work.
SETUP_SAMPLES = 21


def _load(workload: str, seed: int):
    """Everything before the first timed operation: import ringlab, build inputs."""
    os.environ.pop("RINGLAB_MAX_SIZE", None)       # the default 256-element cap
    WORKDIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import ringlab
    if not ringlab.__file__.startswith(str(SRC)):
        raise ImportError(f"ringlab came from {ringlab.__file__}, not {SRC}")
    module = importlib.import_module(WORKLOADS[workload])
    return module, module.make_ops(seed, WORKDIR)


def _setup_seconds(workload: str, seed: int) -> float:
    """Process start to ready-to-time, in a fresh interpreter."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def _environment(workload_module) -> str:
    import numpy
    jobs = getattr(workload_module, "JOBS", 1)
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} jobs={jobs} RINGLAB_MAX_SIZE=unset")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "ringlab" / "__init__.py").is_file():
        print(f"error: no ringlab source tree at {SRC}", file=sys.stderr)
        return 2
    module, ops = _load(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    with open(BENCHMARK_PATH) as fh:
        design = json.load(fh)
    record = load_record()[args.workload]

    setup = []
    if args.trace:
        tracer = Tracer()
        plain, traced = run_passes(module, ops, record, args.seconds, tracer)
        flat_plain = [o for p in plain for o in p]
        extra = module.layer_counts(flat_plain) if hasattr(module, "layer_counts") else {}
        values = per_layer(design["per_layer"], tracer, plain, traced, extra)
        tracer.dump(WORKDIR / f"trace-{args.workload}-{args.seed}.json")
        passes = plain + traced
        units = {m["name"]: m["unit"] for m in design["per_layer"]}
        note, probe_samples = "", []
    else:
        with SpeedProbe() as speed:
            setup = [_setup_seconds(args.workload, args.seed)]
            last_probe = [time.perf_counter()]

            def probe():
                if time.perf_counter() - last_probe[0] >= args.seconds / SETUP_SAMPLES:
                    setup.append(_setup_seconds(args.workload, args.seed))
                    last_probe[0] = time.perf_counter()

            passes, _ = run_passes(module, ops, record, args.seconds, between=probe)
            while len(setup) < SETUP_SAMPLES:
                setup.append(_setup_seconds(args.workload, args.seed))
        values = end_to_end(passes, setup, getattr(module, "BATCH", False), speed)
        units = {m["name"]: m["unit"] for m in design["end_to_end"]}
        raw_wall = statistics.median(sum(o.seconds for o in p) for p in passes)
        probe_samples = speed.samples
        costs = sorted(c for _, c in probe_samples)
        note = (f"  unscaled: wall_s {raw_wall:.6g} s; probe loop "
                f"{costs[len(costs) // 2] * 1e3:.4g} ms median, {costs[0] * 1e3:.4g}-"
                f"{costs[-1] * 1e3:.4g} ms range, {len(costs)} samples")

    summary = failure_summary(passes)
    (WORKDIR / f"ops-{args.workload}-{args.seed}-t{args.trace}.json").write_text(json.dumps({
        "passes": [[[o.key, o.start, o.seconds, o.status, o.failure] for o in p]
                   for p in passes],
        "setup_s": setup, "probe": probe_samples}))
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] {_environment(module)}",
          file=sys.stderr)
    both = " (untraced + traced)" if args.trace else ""
    print(f"  passes={len(passes)}{both} attempted={summary['attempted']} ok={summary['ok']} "
          f"known failures: {', '.join(summary['known']) or 'none'}", file=sys.stderr)
    if note:
        print(note, file=sys.stderr)
    for line in summary["failed"]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["failed"],
        "attempted": summary["attempted"],
        "failed": len(summary["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
