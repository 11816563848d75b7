from __future__ import annotations

import numpy as np
import pytest

from ringlab import (AdditiveMap, CHECKER_ORDER, MapLawError, Product,
                     RingError, TheoremReport, Zn, build_ring,
                     enumerate_derivations, find_jordan_not_derivation,
                     formal_derivative, herstein_check, inner_derivation,
                     run_suite, suite_status, verify_basic,
                     verify_coset_structure, verify_jordan_suite,
                     verify_kernel_constants, verify_kernel_scaling,
                     verify_power_rules, verify_separation, zero_map)
from ringlab import maps, theorems


def _by_checker(reports):
    return {r.checker: r for r in reports}


def test_checker_order_is_fixed():
    assert CHECKER_ORDER == (
        "basic", "kernel-constants", "coset-structure", "kernel-scaling",
        "combination-rules", "additivity-parts", "power-rules",
        "jordan-suite", "separation", "herstein")


def test_full_suite_on_formal_derivative(tp33):
    d = formal_derivative(tp33)
    reports = run_suite(tp33, [("formal", d)])
    got = _by_checker(reports)
    assert set(got) == set(CHECKER_ORDER)
    for name in CHECKER_ORDER:
        assert got[name].status in ("pass", "skipped")
        assert got[name].runtime >= 0.0
    # d is a derivation, so the separation checker refuses it
    assert got["separation"].status == "skipped"
    assert got["separation"].reason == "map is a derivation"
    # Z3[X]/(X^3) is not prime, so the ring-level check is skipped
    assert got["herstein"].status == "skipped"
    assert got["herstein"].reason == "not prime"
    passing = [n for n in CHECKER_ORDER if got[n].status == "pass"]
    assert passing == ["basic", "kernel-constants", "coset-structure",
                       "kernel-scaling", "combination-rules",
                       "additivity-parts", "power-rules", "jordan-suite"]
    assert all(got[n].instances > 0 for n in passing)


def test_suite_on_matrix_inner(m2z2):
    d = inner_derivation(m2z2, m2z2.parse("E11"))
    got = _by_checker(run_suite(m2z2, [("inner:E11", d)]))
    assert got["power-rules"].status == "skipped"
    assert got["power-rules"].reason == "ring is not commutative"
    assert got["herstein"].status == "skipped"
    assert got["herstein"].reason == "not 2-torsion-free"
    assert got["basic"].status == "pass"
    assert got["combination-rules"].status == "pass"
    assert suite_status(list(got.values())) == "pass"


def test_suite_skips_without_unity(tri2):
    d = inner_derivation(tri2, tri2.parse("A"))
    got = _by_checker(run_suite(tri2, [("inner:A", d)]))
    assert got["kernel-constants"].status == "skipped"
    assert got["kernel-constants"].reason == "ring has no unity"
    assert got["power-rules"].status == "skipped"
    assert got["power-rules"].reason == "ring has no unity"
    assert got["coset-structure"].status == "pass"
    assert got["jordan-suite"].status == "pass"


def test_herstein(m2z3, zn4):
    report = herstein_check(m2z3)
    assert report.status == "pass"
    assert report.instances == 27
    assert herstein_check(zn4).reason == "not 2-torsion-free"
    z3z3 = build_ring(Product((Zn(3), Zn(3))))
    assert herstein_check(z3z3).reason == "not prime"


def test_herstein_lists_nothing(m2z3, monkeypatch):
    """herstein compares two counts of the solver; it lists no map."""
    def refuse(*args, **kwargs):
        raise AssertionError("herstein listed JDer(R)")

    monkeypatch.setattr(theorems, "enumerate_jordan_derivations", refuse)
    monkeypatch.setattr(maps, "enumerate_jordan_derivations", refuse)
    for ring, instances in [(m2z3, 27)] + [(build_ring(Zn(p)), 1) for p in (3, 5, 7)]:
        report = herstein_check(ring)
        assert (report.status, report.instances, report.witnesses) == ("pass", instances, [])


def test_herstein_fails_when_the_counts_differ(m2z3, monkeypatch):
    """A Jordan count above the derivation count fails with one witness
    that carries both counts."""
    solve = theorems._solve
    monkeypatch.setattr(theorems, "_solve", lambda ring, law: solve(ring, law)[:3] + (
        81 if law == "jordan" else 27,))
    report = herstein_check(m2z3)
    assert report.status == "fail"
    assert report.instances == 81
    assert report.witnesses == [{"kind": "jordan-not-derivation",
                                 "jordan": 81, "derivations": 27}]


def test_separation_finds_distinguishing_point(zn4):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])
    report = verify_separation(zn4, delta)
    assert report.status == "pass"
    assert report.instances >= 1
    assert report.witnesses == []
    kinds = {w.get("kind") for w in report.notes}
    assert "separated" in kinds


def test_separation_failure_is_witnessed_past_the_note_cap(zn4):
    """26 separated derivations fill the notes; the indistinguishable one
    after them is still a witness of the failing report."""
    delta = find_jordan_not_derivation(zn4)
    report = theorems._separation(zn4, delta, [zero_map(zn4)] * 26 + [delta])
    assert report.status == "fail"
    assert report.witnesses == [{"kind": "indistinguishable",
                                 "derivation": [int(v) for v in delta.table]}]
    assert len(report.notes) == theorems.MAX_WITNESSES
    assert {w["kind"] for w in report.notes} == {"separated"}


def test_separation_guards(zn4, tp33):
    with pytest.raises(MapLawError):
        verify_separation(zn4, zero_map(zn4))       # plain derivation
    ident = AdditiveMap(tp33, list(range(27)))
    with pytest.raises(MapLawError):
        verify_separation(tp33, ident)              # not even a Jordan map
    delta = AdditiveMap(zn4, [0, 2, 0, 2])
    with pytest.raises(RingError):
        verify_separation(tp33, delta)


def test_find_jordan_not_derivation(zn4, m2z3):
    found = find_jordan_not_derivation(zn4)
    assert found is not None
    assert found.as_tuple() == (0, 2, 0, 2)
    assert find_jordan_not_derivation(build_ring(Zn(3))) is None
    assert find_jordan_not_derivation(m2z3) is None


def test_checker_map_guards(zn4):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])   # not a derivation
    with pytest.raises(MapLawError):
        verify_basic(zn4, delta)
    ident = AdditiveMap(zn4, [0, 1, 2, 3])   # not jordan either
    with pytest.raises(MapLawError):
        verify_jordan_suite(zn4, ident)


def test_kernel_constants_range_cap(zn4):
    report = verify_kernel_constants(zn4, zero_map(zn4))
    assert report.status == "pass"
    assert report.witnesses == []
    kinds = {w.get("kind") for w in report.notes}
    assert "range-capped" in kinds


def test_kernel_scaling_strict_inclusion_witness(tp33):
    report = verify_kernel_scaling(tp33, formal_derivative(tp33))
    assert report.status == "pass"
    assert report.witnesses == []
    kinds = {w.get("kind") for w in report.notes}
    assert "strict-inclusion" in kinds


def test_coset_structure_counts(tp33):
    report = verify_coset_structure(tp33, formal_derivative(tp33))
    assert report.status == "pass"
    assert report.instances > 0
    assert report.witnesses == []


def test_power_rules_on_zn(zn4):
    report = verify_power_rules(zn4, zero_map(zn4))
    assert report.status == "pass"
    assert report.instances > 0


def test_pair_blocks_yield_every_pair_once():
    """Every (x, y) pair of a 3200-element ring once, row-major, in blocks
    of at most _BLOCK pairs; a block never holds less than one row."""
    n = 3200
    start = 0
    for x in theorems._row_blocks(n, n):
        xs, ys = (a.ravel() for a in np.broadcast_arrays(x[:, None], np.arange(n)))
        assert 0 < len(xs) == len(ys) <= maps._BLOCK
        assert 0 <= ys.min() and ys.max() < n
        assert np.array_equal(xs * n + ys, np.arange(start, start + len(xs)))
        if start == 0:
            assert (xs[0], ys[0]) == (0, 0)
        start += len(xs)
    assert (xs[-1], ys[-1]) == (n - 1, n - 1)
    assert start == n * n
    assert [list(x) for x in theorems._row_blocks(3, 10**6)] == [[0], [1], [2]]


def test_run_suite_selection_and_order(tp33):
    d = formal_derivative(tp33)
    reports = run_suite(tp33, [("formal", d)], checkers=["coset-structure", "basic"])
    assert [r.checker for r in reports] == ["basic", "coset-structure"]
    with pytest.raises(RingError):
        run_suite(tp33, [("formal", d)], checkers=["basic", "bogus"])


def test_run_suite_parallel_matches_serial(tp33):
    d = formal_derivative(tp33)
    serial = run_suite(tp33, [("formal", d)], jobs=1)
    parallel = run_suite(tp33, [("formal", d)], jobs=4)

    def strip(report):
        payload = report.to_json()
        payload.pop("runtime")
        return payload

    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


def test_run_suite_herstein_once(m2z3):
    ders = enumerate_derivations(m2z3)[:3]
    maps = [(f"enumerate#{i}", d) for i, d in enumerate(ders)]
    reports = run_suite(m2z3, maps, checkers=["basic", "herstein"])
    herstein = [r for r in reports if r.checker == "herstein"]
    assert len(herstein) == 1
    assert herstein[0].map_desc is None
    basic = [r for r in reports if r.checker == "basic"]
    assert len(basic) == 3


def test_run_suite_non_derivation_jordan_map(zn4):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])
    got = _by_checker(run_suite(zn4, [("table", delta)]))
    # derivation-law checkers must skip, jordan ones must run
    assert got["basic"].status == "skipped"
    assert got["basic"].reason == "map is not a validated derivation"
    assert got["jordan-suite"].status == "pass"
    assert got["separation"].status == "pass"


def test_run_suite_lists_derivations_once(tp22, monkeypatch):
    """Z2[X]/(X^2) has 12 Jordan maps that are not derivations; separation
    runs on each, against one listing of Der(R)."""
    from ringlab import enumerate_jordan_derivations, theorems
    jordan = [j for j in enumerate_jordan_derivations(tp22)
              if not j.is_derivation]
    calls = []

    def counted(ring, progress=None):
        calls.append(ring)
        return enumerate_derivations(ring, progress)

    monkeypatch.setattr(theorems, "enumerate_derivations", counted)
    reports = run_suite(tp22, [(str(i), j) for i, j in enumerate(jordan)],
                        checkers=["separation"])
    assert len(jordan) == 12
    assert [r.status for r in reports] == ["pass"] * 12
    assert len(calls) == 1


def test_report_json_key_order(tp33, zn4):
    d = formal_derivative(tp33)
    payload = verify_basic(tp33, d).to_json()
    assert list(payload) == ["checker", "status", "instances", "witnesses",
                             "notes", "runtime"]
    skipped = _by_checker(run_suite(zn4, [("trivial", zero_map(zn4))]))["herstein"].to_json()
    assert list(skipped) == ["checker", "status", "reason", "instances",
                             "witnesses", "notes", "runtime"]


def test_suite_status_fail_detection(tp33):
    good = TheoremReport(checker="basic", status="pass", reason=None,
                         instances=1, witnesses=[], runtime=0.0)
    bad = TheoremReport(checker="basic", status="fail", reason=None,
                        instances=1, witnesses=[{"kind": "x"}], runtime=0.0)
    assert suite_status([good]) == "pass"
    assert suite_status([good, bad]) == "fail"


def test_reports_record_context(tp33):
    d = formal_derivative(tp33)
    reports = run_suite(tp33, [("formal", d)], checkers=["basic"])
    assert reports[0].map_desc is not None
