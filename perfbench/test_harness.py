"""Self-test of the benchmark harness on a tiny slice of each workload.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
import tracemalloc

from harness import ROOT, SpeedProbe, Tracer, load_record, run_op

sys.path.insert(0, str(ROOT / "src"))

import cli_requests  # noqa: E402
import corpus  # noqa: E402
import ladder  # noqa: E402

RECORD = load_record()


def _op(module, key, workdir=None):
    return next(op for op in module.make_ops(0, workdir) if op.key == key)


def test_wrong_expected_value_is_a_failure():
    op = _op(ladder, "tp2-4.der")
    assert run_op(ladder, op, RECORD["enum-ladder"]["tp2-4.der"]).status == "ok"
    got = run_op(ladder, op, {"answer": {"count": 17, "digest": None}})   # true count: 16
    assert (got.status, got.failure) == ("failed", "wrong")


def test_known_exception_must_have_its_recorded_type(tmp_path):
    op = _op(cli_requests, "verify.tp34.formal.text", tmp_path)
    expected = RECORD["cli-requests"]["verify.tp34.formal.text"]
    assert expected["known_detail"] == "AssertionError"
    assert run_op(cli_requests, op, expected).status == "known"
    other = {**expected, "known_detail": "TypeError"}   # a different error is a regression
    got = run_op(cli_requests, op, other)
    assert (got.status, got.failure) == ("failed", "exception")


def test_budget_stop_is_over_budget_and_leaves_nothing_behind():
    op = _op(ladder, "tp2-4.jordan")     # lists 2^16 maps in ~4 s; stop it after 0.5 s
    op.budget_s = 0.5
    threads = threading.active_count()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = run_op(ladder, op, {"answer": {"count": 2 ** 16}, "known_failure": "over-budget"})
        leaked = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (got.status, got.failure) == ("known", "over-budget")
    assert got.seconds < 1.5
    assert threading.active_count() == threads
    assert not multiprocessing.active_children()
    assert leaked < 1 << 20, f"{leaked} bytes still held after the stop"
    # without the known-failure mark the same stop is a counted failure
    got = run_op(ladder, op, {"answer": {"count": 2 ** 16}})
    assert (got.status, got.failure) == ("failed", "over-budget")


def test_speed_probe_scales_by_the_samples_around_a_span():
    with SpeedProbe(interval=0.01) as probe:
        while len(probe.samples) < 3:
            time.sleep(0.01)
    assert not any(t.name == "speed-probe" for t in threading.enumerate())
    ref = SpeedProbe.REF_LOOP_S
    probe.samples = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 20)]
    assert probe.scaled(2.0, 4.0) == 4.0              # inside the fast phase
    assert probe.scaled(12.0, 4.0) == 2.0             # a slow phase halves the time
    assert probe.scaled(30.0, 0.001) == 0.0005        # past the samples: the nearest


def _same_verdicts(module, workload, keys, workdir=None):
    for key in keys:
        op = _op(module, key, workdir)
        expected = RECORD[workload][key]
        plain = run_op(module, op, expected)
        traced = run_op(module, op, expected, Tracer())
        assert plain.status in ("ok", "known"), (key, plain)
        assert (traced.status, traced.failure) == (plain.status, plain.failure), key
        if plain.verdict is not None:
            plain.verdict.pop("output_bytes", None)
        assert traced.verdict == plain.verdict, key


def test_traced_verdicts_equal_untraced(tmp_path):
    _same_verdicts(ladder, "enum-ladder", ["tp2-4.der", "m2-z2.jordan"])
    _same_verdicts(corpus, "corpus", ["Z4", "Z2[X]/(X^2)", "M2(Z2)"])
    _same_verdicts(cli_requests, "cli-requests", [
        "ring-info.z16.text", "ring-info.gf16", "integrate.m2z2.table",
        "integrate.tri2.enumerate5", "integrate.tp24.enumerate99",
        "derivations.m2z2.jordan", "verify.m2z2.enumerate.text", "verify.m2z2.inner",
        "verify.tp34.formal.text", "search.non-proper.zn",
        "search.jordan-not-derivation.zn"], tmp_path)
