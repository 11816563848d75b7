from __future__ import annotations

import numpy as np
import pytest

import reference_checkers
from ringlab import (AdditiveMap, CHECKER_ORDER, MapLawError, Matrix, Product,
                     RingError, Tables, TheoremReport, Zn, build_ring,
                     enumerate_derivations, enumerate_jordan_derivations,
                     find_jordan_not_derivation, formal_derivative,
                     herstein_check, inner_derivation,
                     run_suite, suite_status, verify_additivity_and_parts,
                     verify_basic, verify_combination_rules,
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


def _flagged_jordan_only(ring, table):
    """A table flagged, unchecked, as a Jordan non-derivation."""
    return AdditiveMap(ring, table, _trusted=True, _derivation=False, _jordan=True)


def test_unlisted_separation_still_finds_a_forged_derivation():
    """Above the listing cap a δ equal to some derivation is still caught.
    On Z2^5 with the zero product (2^25 derivations) every additive map is
    a derivation: the zero and identity maps, flagged as Jordan
    non-derivations, fail with themselves as the witness, and a table that
    is not additive, so no derivation, passes; alone and in one call."""
    add = build_ring(Product((Zn(2),) * 5)).add_table.tolist()
    zero32 = build_ring(Tables(32, add, [[0] * 32] * 32))
    tables = [[0] * 32, list(range(32)), [0, 1] + [0] * 30]
    flagged = [_flagged_jordan_only(zero32, t) for t in tables]
    note = {"kind": "derivations-not-listed", "derivations": 2 ** 25,
            "max_listed_maps": maps.MAX_LISTED_MAPS}
    expected = [("fail", 2 ** 25, [{"kind": "indistinguishable", "derivation": t}], [note])
                for t in tables[:2]] + [("pass", 2 ** 25, [], [note])]
    got = run_suite(zero32, [(str(i), m) for i, m in enumerate(flagged)], ["separation"])
    alone = [verify_separation(zero32, m) for m in flagged]
    for reports in (got, alone):
        assert [(r.status, r.instances, r.witnesses, r.notes) for r in reports] == expected


def test_one_corpus_op_solves_each_law_once(monkeypatch):
    """Listing both laws, then every checker, herstein and separation
    included, reduces one system per law: the ring keeps each solution.
    On M2(Z3) herstein counts both laws; on M2(Z2) separation runs on the
    Jordan non-derivations and counts Der(R)."""
    calls = []
    howell_form = maps._howell_form

    def counted(M, N):
        calls.append(N)
        return howell_form(M, N)

    monkeypatch.setattr(maps, "_howell_form", counted)
    for spec, ran in ((Matrix(Zn(3), 2), "herstein"), (Matrix(Zn(2), 2), "separation")):
        calls.clear()
        ring = build_ring(spec)
        ders = enumerate_derivations(ring)
        jordans = enumerate_jordan_derivations(ring)
        named = [(f"enumerate#{i}", m) for i, m in enumerate(ders)]
        named += [(f"enumerate:jordan#{i}", m) for i, m in enumerate(jordans)
                  if not m.is_derivation]
        named.append(("inner:E11", inner_derivation(ring, ring.parse("E11"))))
        reports = run_suite(ring, named, "all")
        assert {r.checker for r in reports} == set(CHECKER_ORDER)
        assert "pass" in {r.status for r in reports if r.checker == ran}
        assert len(calls) == 2


def test_separation_finds_distinguishing_point(zn4):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])
    report = verify_separation(zn4, delta)
    assert report.status == "pass"
    assert report.instances >= 1
    assert report.witnesses == []
    kinds = {w.get("kind") for w in report.notes}
    assert "separated" in kinds


def test_separation_failure_is_witnessed_past_the_note_cap():
    """On Z2^3 with the zero product every additive map is a derivation,
    512 of them.  Derivation #30 in table order, flagged as a Jordan
    non-derivation, equals itself: the report fails with its table as the
    one witness, and the 25 derivations before it fill the notes.  So do
    run_suite, the one-map call and the loop reference."""
    add = build_ring(Product((Zn(2),) * 3)).add_table.tolist()
    zero8 = build_ring(Tables(8, add, [[0] * 8] * 8))
    table = enumerate_derivations(zero8)[30].table
    delta = _flagged_jordan_only(zero8, table)
    [suite] = run_suite(zero8, [("forged", delta)], ["separation"])
    for report in (suite, verify_separation(zero8, delta)):
        assert (report.status, report.instances) == ("fail", 512)
        assert report.witnesses == [{"kind": "indistinguishable",
                                     "derivation": table.tolist()}]
        assert [(w["kind"], w["derivation_index"]) for w in report.notes] == [
            ("separated", j) for j in range(theorems.MAX_WITNESSES)]
        expected = reference_checkers.verify_separation(zero8, delta).to_json()
        assert {**report.to_json(), "runtime": expected["runtime"]} == expected


def test_every_map_checker_refuses_a_map_of_another_ring(zn4):
    """A map of Z4 given to Z2×Z2, a ring of the same size, is refused by
    every map checker: in run_suite, whether or not the checker would take
    it, and in the checker's one-map call."""
    z2z2 = build_ring(Product((Zn(2), Zn(2))))
    zero, delta = zero_map(zn4), find_jordan_not_derivation(zn4)
    verify = {"basic": verify_basic, "kernel-constants": verify_kernel_constants,
              "coset-structure": verify_coset_structure,
              "kernel-scaling": verify_kernel_scaling,
              "combination-rules": verify_combination_rules,
              "additivity-parts": verify_additivity_and_parts,
              "power-rules": verify_power_rules, "jordan-suite": verify_jordan_suite,
              "separation": verify_separation}
    assert (*verify, "herstein") == CHECKER_ORDER
    foreign = "map belongs to a different ring"
    for cid, call in verify.items():
        for amap in (zero, delta):
            with pytest.raises(RingError, match=foreign):
                run_suite(z2z2, [("Z4", amap)], [cid])
        with pytest.raises(RingError, match=foreign):
            call(z2z2, delta if cid in ("jordan-suite", "separation") else zero)


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


def test_jordan_search_lists_nothing_when_the_counts_agree(m2z3, monkeypatch):
    """|JDer(R)| = |Der(R)| means JDer(R) = Der(R): the search answers None
    without listing, and progress still gets the listing's one event."""
    def refuse(*args, **kwargs):
        raise AssertionError("the search listed JDer(R)")

    monkeypatch.setattr(theorems, "enumerate_jordan_derivations", refuse)
    monkeypatch.setattr(maps, "_listed_maps", refuse)
    for ring, count in [(m2z3, 27), (build_ring(Zn(3)), 1)]:
        events = []
        assert find_jordan_not_derivation(ring, events.append) is None
        assert events == [{"nodes": count, "pruned": 0, "found": count}]


def test_jordan_search_finds_the_first_witness_of_the_listing(m2z2):
    """Where the counts differ the search lists JDer(R) as before: the
    first Jordan non-derivation of M2(Z2) in listing order, one event."""
    listed = enumerate_jordan_derivations(m2z2)
    first = next(m for m in listed if not m.is_derivation)
    events = []
    found = find_jordan_not_derivation(m2z2, events.append)
    assert found.as_tuple() == first.as_tuple()
    assert events == [{"nodes": len(listed), "pruned": 0, "found": len(listed)}]


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
