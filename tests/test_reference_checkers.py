"""The array checkers of ringlab.theorems against their loop references.

Every report must equal the loop form's report apart from runtime: the
same status, instance count, witnesses (failures and notes, in loop order,
capped at MAX_WITNESSES) and seed.
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
                     formal_derivative, inner_derivation, spec_name, theorems,
                     zero_map)

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
    "sampled": CheckerConfig(sample_threshold=50, sample_size=300, seed=3),
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
# parts-membership failures, before the witness cap.
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
    kinds = [w["kind"] for w in refs[1]["additivity-parts"].witnesses]
    at = kinds.index("parts-preconditions-empty")
    assert "parts-membership" in kinds[:at]
    assert "parts-membership" in kinds[at + 1:]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_pair_blocks_split_the_stream(config, monkeypatch):
    """Rings in the corpus fit one block of pairs; with tiny blocks the
    witness order, the cap and the once-only notes must survive the
    split."""
    monkeypatch.setattr(theorems, "_BLOCK", 5)
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


def test_strict_inclusion_note_follows_the_failures_of_its_row():
    """With zero relabelled away from index 0, a forged map's first strict
    inclusion falls on a (w, x) row that also fails: the loop records the
    note after that row's failures."""
    ring = _relabelled(Matrix(Zn(2), 2),
                       [3, 8, 10, 14, 6, 12, 13, 9, 1, 4, 5, 7, 15, 0, 11, 2])
    amap = _forged(ring, [1, 5, 9, 9, 1, 5, 5, 5, 13, 13, 13, 1, 9, 13, 9, 1])
    got = theorems.verify_kernel_scaling(ring, amap)
    assert _strip(got) == _strip(ref.verify_kernel_scaling(ring, amap))
    kinds = [(w["kind"], w["w"], w["x"]) for w in got.witnesses]
    at = kinds.index(("strict-inclusion", 8, 5))
    assert kinds[at - 1] == ("right-scaling-escape", 8, 5)


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
