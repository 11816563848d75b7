"""The array checkers of ringlab.theorems against their loop references.

Every report must equal the loop form's report apart from runtime: the
same status, instance count, witnesses (failures in loop order, capped at
MAX_WITNESSES) and notes (capped the same way).
"""

from __future__ import annotations

import json
import random

import pytest

import reference_checkers as ref
from conftest import CORPUS_SPECS
from ringlab import (AdditiveMap, CheckerConfig, MapLawError, Matrix,
                     Product, Tables, TriPattern, TruncPoly, Zn, build_ring,
                     enumerate_derivations, enumerate_jordan_derivations,
                     formal_derivative, inner_derivation, integrals, maps,
                     spec_name, theorems, zero_map)

# the two checkers that read the padded preimage rows of the fibre index
FIBRE_PAIRS = [
    (theorems.verify_coset_structure, ref.verify_coset_structure),
    (theorems.verify_kernel_scaling, ref.verify_kernel_scaling),
]

DERIVATION_PAIRS = [
    (theorems.verify_basic, ref.verify_basic),
    (theorems.verify_kernel_constants, ref.verify_kernel_constants),
    *FIBRE_PAIRS,
    (theorems.verify_combination_rules, ref.verify_combination_rules),
    (theorems.verify_additivity_and_parts, ref.verify_additivity_and_parts),
    (theorems.verify_power_rules, ref.verify_power_rules),
]

CONFIGS = {
    "default": CheckerConfig(),
    # kernel-constants' window is range-capped on Z2 and Z3 but windowed on
    # Z4 to Z8, which the default window range-caps
    "narrow": CheckerConfig(max_n=1, max_exp=2),
}

SPECS = CORPUS_SPECS + [Matrix(Zn(3), 2)]


def _maps(ring):
    """Every map scripts/run_corpus.py runs the suite on."""
    maps = list(enumerate_derivations(ring))
    seen = {m.as_tuple() for m in maps}
    maps += [m for m in enumerate_jordan_derivations(ring)
             if m.as_tuple() not in seen]
    spec = ring.spec
    if isinstance(spec, TruncPoly):
        maps.append(formal_derivative(ring))
    if isinstance(spec, Matrix) and ring.unity is not None:
        maps.append(inner_derivation(ring, ring.parse("E11")))
    if isinstance(spec, TriPattern):
        maps.append(inner_derivation(ring, ring.parse("A")))
    return maps


def _strip(report):
    """The report JSON without runtime, key order included."""
    payload = report.to_json()
    payload.pop("runtime")
    return json.dumps(payload)


def _compare(ring, amap, config):
    """Compare every applicable checker; return the reference reports."""
    got = []
    if amap.is_derivation:
        for new, old in DERIVATION_PAIRS:
            got.append((new(ring, amap, config), old(ring, amap, config)))
    if amap.is_jordan:
        got.append((theorems.verify_jordan_suite(ring, amap, config),
                    ref.verify_jordan_suite(ring, amap, config)))
    if amap.is_jordan and not amap.is_derivation:
        got.append((theorems.verify_separation(ring, amap, config),
                    ref.verify_separation(ring, amap, config)))
    for new, old in got:
        assert _strip(new) == _strip(old), (old.checker, amap.as_tuple())
    return [old for _, old in got]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("spec", SPECS, ids=spec_name)
def test_corpus_reports_match_reference(spec, config):
    ring = build_ring(spec)
    for amap in _maps(ring):
        _compare(ring, amap, CONFIGS[config])


# An additive map of M2(Z2) that fails the Leibniz law.  In additivity-parts
# its first pair with two empty part integrals falls between
# parts-membership failures, before the witness cap; the note it records
# takes no witness slot.
TANGLED = [0, 4, 1, 5, 8, 12, 9, 13, 9, 13, 8, 12, 1, 5, 0, 4]


def _forged(ring, table):
    """A table flagged as a derivation and a Jordan derivation unchecked."""
    return AdditiveMap(ring, table, _trusted=True, _derivation=True,
                       _jordan=True)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_forged_maps_match_reference(config):
    zn8 = build_ring(Zn(8))
    m2z2 = build_ring(Matrix(Zn(2), 2))
    cases = [(zn8, _forged(zn8, range(8))), (m2z2, _forged(m2z2, TANGLED))]
    refs = [{r.checker: r for r in _compare(ring, amap, CONFIGS[config])}
            for ring, amap in cases]
    assert len(refs[0]["jordan-suite"].witnesses) == theorems.MAX_WITNESSES
    parts = refs[1]["additivity-parts"]
    assert "parts-preconditions-empty" in [w["kind"] for w in parts.notes]
    assert ([w["kind"] for w in parts.witnesses]
            == ["parts-membership"] * theorems.MAX_WITNESSES)


# a 5-cell case is named by its config alone, so its id matches earlier runs
@pytest.mark.parametrize("config, block", [
    pytest.param(c, b, id=c if b == 5 else f"{c}-{b}")
    for b in (5, 48) for c in sorted(CONFIGS)])
def test_pair_blocks_split_the_stream(config, block, monkeypatch):
    """Rings in the corpus fit one block of pairs; with tiny blocks the
    witness order, the cap and the once-only notes must survive the
    split.  A 5-cell block holds one row; a 48-cell block cuts M2(Z2)'s
    16 rows into five 3-row blocks and a short 1-row block."""
    monkeypatch.setattr(maps, "_BLOCK", block)
    m2z2 = build_ring(Matrix(Zn(2), 2))
    _compare(m2z2, _forged(m2z2, TANGLED), CONFIGS[config])
    tp33 = build_ring(TruncPoly(3, 3))
    _compare(tp33, formal_derivative(tp33), CONFIGS[config])


# Rings of up to 256 elements, where the two fibre checkers scale kernels
# of up to 256 elements; the other loop forms are too slow here.
LARGE_SPECS = [TriPattern(Zn(3)), TruncPoly(2, 8), Zn(256),
               Product((Zn(16), Zn(16)))]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("spec", LARGE_SPECS, ids=spec_name)
def test_large_rings_fibre_checkers_match_reference(spec, config):
    ring = build_ring(spec)
    maps = [zero_map(ring)]
    if isinstance(spec, TruncPoly):
        maps.append(formal_derivative(ring))
    if isinstance(spec, TriPattern):
        maps.append(inner_derivation(ring, ring.parse("A")))
    for amap in maps:
        for new, old in FIBRE_PAIRS:
            assert (_strip(new(ring, amap, CONFIGS[config]))
                    == _strip(old(ring, amap, CONFIGS[config])))


def _relabelled(spec, perm):
    """spec's ring as a tables ring whose element i is element perm[i]."""
    base = build_ring(spec)
    back = {p: i for i, p in enumerate(perm)}
    n = len(perm)
    return build_ring(Tables(
        n, [[back[base.add(perm[i], perm[j])] for j in range(n)] for i in range(n)],
        [[back[base.mul(perm[i], perm[j])] for j in range(n)] for i in range(n)],
        back[base.unity]))


def test_strict_inclusion_note_stays_out_of_the_failures_of_its_row():
    """With zero relabelled away from index 0, a forged map's first strict
    inclusion falls on a (w, x) row that also fails: the note goes to
    notes, and that row's failure stays in the witnesses in loop order."""
    ring = _relabelled(Matrix(Zn(2), 2),
                       [3, 8, 10, 14, 6, 12, 13, 9, 1, 4, 5, 7, 15, 0, 11, 2])
    amap = _forged(ring, [1, 5, 9, 9, 1, 5, 5, 5, 13, 13, 13, 1, 9, 13, 9, 1])
    got = theorems.verify_kernel_scaling(ring, amap)
    assert _strip(got) == _strip(ref.verify_kernel_scaling(ring, amap))
    assert [(w["kind"], w["w"], w["x"]) for w in got.notes] == [
        ("strict-inclusion", 8, 5)]
    kinds = [(w["kind"], w["w"], w["x"]) for w in got.witnesses]
    assert kinds[:3] == [("left-scaling-escape", 8, 1),
                         ("right-scaling-escape", 8, 5),
                         ("left-scaling-escape", 8, 9)]


def test_forged_tables_with_non_coset_fibres_match_reference():
    """Tables that are not additive but whose zero fibre is a subgroup, so
    the kernel check passes while the fibres need not be kernel cosets:
    coset-structure fails on them, and kernel-scaling must read
    d(w·y) = w·x as the loop does, not the coset predicate."""
    rng = random.Random(6)
    failed = 0
    for spec in (Zn(6), Matrix(Zn(2), 2), TriPattern(Zn(2))):
        ring = build_ring(spec)
        tried = 0
        while tried < 40:
            amap = _forged(ring, [ring.zero] + [rng.randrange(ring.size)
                                                for _ in range(ring.size - 1)])
            try:
                amap.kernel
            except MapLawError:
                continue
            tried += 1
            for new, old in FIBRE_PAIRS:
                assert _strip(new(ring, amap)) == _strip(old(ring, amap))
            failed += theorems.verify_coset_structure(ring, amap).status == "fail"
    assert failed


def _image_structure(module, ring, amap):
    """is_proper and quotient_view of one form, with a MapLawError of
    quotient_view as its message."""
    try:
        view = module.quotient_view(ring, amap)
    except MapLawError as exc:
        view = str(exc)
    return module.is_proper(ring, amap), view


@pytest.mark.parametrize("spec", SPECS + LARGE_SPECS, ids=spec_name)
def test_image_structure_matches_reference(spec):
    """The array forms of is_proper and quotient_view against their loops:
    every map of the corpus, and on the larger rings the zero and identity
    maps, the named maps and a spread of derivations."""
    ring = build_ring(spec)
    if spec in SPECS:
        maps = _maps(ring)
    else:
        ders = enumerate_derivations(ring)
        maps = ders[::max(1, len(ders) // 4)] + [
            zero_map(ring), AdditiveMap(ring, range(ring.size))]
        if isinstance(spec, TruncPoly):
            maps.append(formal_derivative(ring))
        if isinstance(spec, TriPattern):
            maps.append(inner_derivation(ring, ring.parse("A")))
    for amap in maps:
        assert (_image_structure(integrals, ring, amap)
                == _image_structure(ref, ring, amap)), amap.as_tuple()


@pytest.mark.parametrize("table, message", [
    ([0, 0, 1, 1], "kernel failed the subgroup check"),
    ([0, 1, 0, 3], "induced map is not well defined on a coset"),
    ([0, 1, 1, 1], "induced map is not a bijection onto the image"),
    ([0, 1, 3, 2], "induced map is not additive on cosets"),
])
def test_forged_maps_fail_quotient_view_as_the_reference_does(table, message):
    """Tables of Z4 that are not additive, flagged unchecked, reach each
    self-check of quotient_view in turn; is_proper still answers."""
    zn4 = build_ring(Zn(4))
    amap = _forged(zn4, table)
    for module in (integrals, ref):
        with pytest.raises(MapLawError, match=message):
            module.quotient_view(zn4, amap)
    assert integrals.is_proper(zn4, amap) == ref.is_proper(zn4, amap)
