"""Workload-independent parts of the benchmark.

An operation (``Op``) is one closed-loop unit of work: a corpus ring, a
ladder rung or a CLI request.  A workload module supplies three things:

* ``make_ops(seed, workdir)``: the seeded input list;
* ``execute(op, tracer)``: the calls into ringlab, returning raw results
  (``tracer`` is None in untraced runs, so those runs carry no spans);
* ``verdict(op, raw)``: the verdict-level fields the expected-answer
  record pins.

This module runs operations under their time budget, classifies each
outcome against ``expected.json`` and turns passes into metrics.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
RECORD_PATH = HERE / "expected.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


try:
    _malloc_trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
except (OSError, AttributeError, TypeError):   # not glibc
    _malloc_trim = None


class OverBudget(Exception):
    """An operation ran past its time budget and was stopped."""


class BadExit(Exception):
    """A CLI request returned an exit code outside {0, 1, 2}."""


@dataclass
class Op:
    key: str           # id in the expected-answer record
    budget_s: float
    args: dict


@dataclass
class Outcome:
    key: str
    seconds: float
    status: str                  # ok | known | failed
    failure: Optional[str]       # None | wrong | exception | over-budget | bad-exit
    verdict: Optional[dict]
    detail: str = ""
    start: float = 0.0           # perf_counter when the timed call began


# ---------------------------------------------------------------------------
# Budgets


@contextmanager
def time_budget(seconds: float):
    """Raise OverBudget in this (main) thread once ``seconds`` have passed.

    The interval timer interrupts pure-Python loops between bytecodes, so
    the stop lands within milliseconds of the budget and no helper thread
    or child process is involved.
    """
    def expire(signum, frame):
        raise OverBudget(f"over the {seconds:g}s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Machine speed


class SpeedProbe:
    """Samples the CPU's speed on a side thread while an untraced run measures.

    On a shared virtual machine the speed of a vCPU drifts by up to ~1.8x
    (2-vCPU Xeon VM at 2.1 GHz) in phases that last from seconds to
    hours, longer than an operation and often longer than a run.
    Every ``interval`` seconds the probe runs a fixed pure-Python loop and
    records its cost in the thread's own CPU time, so waiting for the GIL
    does not count.  ``scaled`` turns an operation's time into seconds on a
    CPU that runs the loop in ``REF_LOOP_S``: time * REF_LOOP_S / (the
    median loop cost around the measurement).  The probe holds the GIL
    about 1% of the time.
    """

    LOOP = 5_000
    REF_LOOP_S = 0.375e-3    # about the loop's cost on the VM above
    NEAREST = 5              # samples used when fewer fall inside a span

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []    # (perf_counter, cost)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe")

    @classmethod
    def loop_cost(cls) -> float:
        """The loop's cost, in this thread's CPU time."""
        c0 = time.thread_time()
        acc = 0
        for i in range(cls.LOOP):
            acc += i * i % 7
        return time.thread_time() - c0

    def _sample(self):
        while not self._stop.is_set():
            cost = self.loop_cost()
            self.samples.append((time.perf_counter(), cost))
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, seconds: float) -> float:
        end = start + seconds
        inside = [c for t, c in self.samples if start <= t <= end]
        if len(inside) < self.NEAREST:
            near = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end))
            inside = [c for _, c in near[:self.NEAREST]]
        return seconds * self.REF_LOOP_S / statistics.median(inside)


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans (name, start, end, parent, op) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: total time, and self time (total minus the time
        covered by its direct children)."""
        total, child = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return total, self_time

    def dump(self, path: Path):
        total, self_time = self.totals()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "summary": {n: {"total_s": total[n], "self_s": self_time[n]}
                                   for n in sorted(total)},
                       "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# Expected answers


def load_record() -> dict:
    with open(RECORD_PATH) as fh:
        return json.load(fh)


def tables_digest(tables) -> str:
    """sha256 of the listed map tables, in order, as little-endian int32."""
    arr = np.asarray([np.asarray(t) for t in tables], dtype="<i4")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def matches(verdict: dict, answer: dict) -> bool:
    """Every pinned field agrees; a field recorded as null is unknown."""
    return all(v is None or verdict.get(k) == v for k, v in answer.items())


def is_known(failure: str, detail: str, expected: dict) -> bool:
    """The failure the record expects: same kind and, where the record
    names one (``known_detail``), the same exception type."""
    if failure != expected.get("known_failure"):
        return False
    want = expected.get("known_detail")
    return want is None or detail.partition(":")[0] == want


def classify(key: str, seconds: float, verdict, failure, detail,
             expected: dict) -> Outcome:
    if failure is None and not matches(verdict, expected["answer"]):
        failure = "wrong"
        detail = "verdict differs from the record"
    if failure is None:
        return Outcome(key, seconds, "ok", None, verdict)
    status = "known" if is_known(failure, detail, expected) else "failed"
    return Outcome(key, seconds, status, failure, verdict, detail)


def run_op(workload, op: Op, expected: dict, tracer: Optional[Tracer] = None) -> Outcome:
    """One timed execution under the op's budget, then the answer check.

    Only ``execute`` is timed; the verdict and the comparison run after.
    """
    raw, failure, detail = None, None, ""
    if tracer is not None:
        tracer.op = op.key
    t0 = time.perf_counter()
    try:
        with time_budget(op.budget_s):
            if tracer is None:
                raw = workload.execute(op, None)
            else:
                with tracer.span("op"):
                    raw = workload.execute(op, tracer)
    except OverBudget as exc:
        failure, detail = "over-budget", str(exc)
    except BadExit as exc:
        failure, detail = "bad-exit", str(exc)
    except Exception as exc:  # a raised error is a counted failure, not a stop
        failure, detail = "exception", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    verdict = None
    if failure is None:
        try:
            verdict = workload.verdict(op, raw)
        except Exception as exc:  # unreadable output is a wrong answer
            failure, detail = "wrong", f"no verdict: {type(exc).__name__}: {exc}"
    del raw
    gc.collect()
    if _malloc_trim is not None:
        # hand freed heap back to the system, so an operation's memory does
        # not raise the peak of the operations that follow it
        _malloc_trim(0)
    outcome = classify(op.key, seconds, verdict, failure, detail, expected)
    outcome.start = t0
    return outcome


# ---------------------------------------------------------------------------
# Passes and metrics


def run_passes(workload, ops: list[Op], record: dict, seconds: float,
               tracer: Optional[Tracer] = None, between=None):
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    ``between``, if given, is called after every operation, outside the
    operation's timing.

    With a tracer each op runs twice, untraced and traced, alternating
    which goes first; both outcomes are checked.  Returns the untraced
    passes and the traced ones (empty without a tracer).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        p, t = [], []
        for i, op in enumerate(ops):
            expected = record[op.key]
            if tracer is None:
                p.append(run_op(workload, op, expected))
            elif i % 2 == 0:
                p.append(run_op(workload, op, expected))
                t.append(run_op(workload, op, expected, tracer))
            else:
                t.append(run_op(workload, op, expected, tracer))
                p.append(run_op(workload, op, expected))
            if between is not None:
                between()
        plain.append(p)
        if t:
            traced.append(t)
        if time.perf_counter() - start >= seconds:
            return plain, traced


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as an observed value (nearest-rank), so a percentile
    never interpolates across the gap between two request classes."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list[list[Outcome]], setup_samples: list[float],
               batch: bool, probe: SpeedProbe) -> dict:
    """``batch``: the workload is one job and a request is a whole pass;
    otherwise a request is one operation, and its latency is the median
    over the run's copies of the same request (one request of a few ms
    varies by ~30% from copy to copy).  Operation times are scaled by
    ``probe``; set-up times are not, since process start-up did not track
    the probe's loop."""
    scaled = {id(o): probe.scaled(o.start, o.seconds) for p in passes for o in p}
    walls = [sum(scaled[id(o)] for o in p) for p in passes]
    flat = [o for p in passes for o in p]
    if batch:
        requests = walls
    else:
        copies = defaultdict(list)
        for o in flat:
            copies[o.key].append(scaled[id(o)])
        requests = [statistics.median(v) for v in copies.values() for _ in v]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(o.status == "ok" for o in flat) / len(flat),
        "req_p50_ms": nearest_rank(requests, 0.5) * 1e3,
        "req_p90_ms": nearest_rank(requests, 0.9) * 1e3,
    }


def per_layer(spec: list[dict], tracer: Tracer, plain, traced, extra: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json, zero where a workload does
    not reach that layer.  ``<span>_s`` metrics are total span time;
    ``extra`` holds counts a workload takes from its untraced outcomes."""
    total, _ = tracer.totals()
    counts = tracer.counts
    done = [(p.seconds, t.seconds) for pp, tt in zip(plain, traced)
            for p, t in zip(pp, tt) if p.failure is None and t.failure is None]
    derived = {
        "maps.found_per_node": counts["maps.enum_found"] / max(1, counts["maps.enum_nodes"]),
        "integrals.empty_frac": (counts["integrals.integrate_empty"]
                                 / max(1, counts["integrals.integrate_calls"])),
        "trace.overhead_frac": (sum(t for _, t in done) / sum(p for p, _ in done) - 1
                                if done else 0.0),
        **extra,
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif m["unit"] == "s":
            value = total[name[:-2]]
        else:
            value = counts[name]
        out[name] = value
    return out


def failure_summary(passes) -> dict:
    flat = [o for p in passes for o in p]
    return {
        "attempted": len(flat),
        "ok": sum(o.status == "ok" for o in flat),
        "known": sorted({f"{o.key} ({o.failure})" for o in flat if o.status == "known"}),
        "failed": [f"{o.key} ({o.failure}: {o.detail})" for o in flat if o.status == "failed"],
    }
