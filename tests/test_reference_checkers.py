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

BASIC_PAIR = (theorems.verify_basic, ref.verify_basic)

DERIVATION_PAIRS = [
    BASIC_PAIR,
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


def test_pair_laws_of_a_forged_map_that_is_not_additive():
    """On Z4 with the zero product both product laws hold on every pair of
    any table with f(0) = 0, so [0, 1, 3, 2], which is not additive, passes
    them everywhere: only the additivity half of the generator proof sends
    it to the pair walk.  Its combination-rules and jordan-suite reports
    fail with the loop oracle's witnesses, alone and beside the zero map."""
    ring = build_ring(Tables(4, [[(a + b) % 4 for b in range(4)] for a in range(4)],
                             [[0] * 4] * 4))
    forged = _forged(ring, [0, 1, 3, 2])
    pairs = [(theorems.verify_combination_rules, ref.verify_combination_rules),
             (theorems.verify_jordan_suite, ref.verify_jordan_suite)]
    expected = [old(ring, forged) for _, old in pairs]
    assert [r.status for r in expected] == ["fail", "fail"]
    assert [_strip(new(ring, forged)) for new, _ in pairs] == [_strip(r) for r in expected]
    got = theorems.run_suite(ring, [("zero", zero_map(ring)), ("forged", forged)],
                             ["combination-rules", "jordan-suite"])
    assert [_strip(r) for r in got] == (
        [_strip(old(ring, zero_map(ring))) for _, old in pairs]
        + [_strip(r) for r in expected])


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


def _derivation(amap):
    return amap.is_derivation


def _jordan(amap):
    return amap.is_jordan


def _jordan_only(amap):
    return amap.is_jordan and not amap.is_derivation


# Each map checker, whose block form run_suite gives every map of a call:
# the maps it checks (run_suite skips the others), its one-map call and its
# loop reference.
BLOCK_PAIRS = {
    "basic": (_derivation, theorems.verify_basic, ref.verify_basic),
    "kernel-constants": (_derivation, theorems.verify_kernel_constants,
                         ref.verify_kernel_constants),
    "coset-structure": (_derivation, theorems.verify_coset_structure,
                        ref.verify_coset_structure),
    "kernel-scaling": (_derivation, theorems.verify_kernel_scaling,
                       ref.verify_kernel_scaling),
    "combination-rules": (_derivation, theorems.verify_combination_rules,
                          ref.verify_combination_rules),
    "additivity-parts": (_derivation, theorems.verify_additivity_and_parts,
                         ref.verify_additivity_and_parts),
    "power-rules": (_derivation, theorems.verify_power_rules, ref.verify_power_rules),
    "jordan-suite": (_jordan, theorems.verify_jordan_suite, ref.verify_jordan_suite),
    "separation": (_jordan_only, theorems.verify_separation, ref.verify_separation),
}

# the checkers that read the kernel, and refuse one that is no subgroup
KERNEL_READERS = [cid for cid in BLOCK_PAIRS if cid != "separation"]


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def block_cases(request):
    """(config, [(ring, maps, reference reports)]) for each run_suite call
    of the block tests: the listed derivations and Jordan derivations of
    M2(Z2) with the forged TANGLED map, those of Z3[X]/(X^3), and those of
    Z8 with its forged identity map, which fills jordan-suite's witness
    cap.  The loop references' reports are per checker, None where
    run_suite skips the map."""
    config = CONFIGS[request.param]
    cases = []
    for spec, forged in ((Matrix(Zn(2), 2), TANGLED), (TruncPoly(3, 3), None),
                         (Zn(8), range(8))):
        ring = build_ring(spec)
        amaps = list(enumerate_derivations(ring))
        amaps += [m for m in enumerate_jordan_derivations(ring) if not m.is_derivation]
        if forged is not None:
            amaps.append(_forged(ring, forged))
        expected = {cid: [old(ring, amap, config) if checks(amap) else None
                          for amap in amaps]
                    for cid, (checks, _, old) in BLOCK_PAIRS.items()}
        cases.append((ring, amaps, expected))
    return config, cases


def _walks(monkeypatch):
    """Record every (rows, width, block) that theorems walks."""
    walked = []
    row_blocks = theorems._row_blocks

    def recorded(rows, width):
        for r in row_blocks(rows, width):
            walked.append((rows, width, r))
            yield r

    monkeypatch.setattr(theorems, "_row_blocks", recorded)
    return walked


@pytest.mark.parametrize("block", [48, 1000, 5000])
def test_block_of_maps_matches_reference(block_cases, block, monkeypatch):
    """run_suite gives every map checker all its maps at once.  With
    _BLOCK patched, a block of whole maps ends inside the map list, and a
    block of (map, x) pair rows starts or ends inside a map; every report
    must still equal its loop reference."""
    monkeypatch.setattr(maps, "_BLOCK", block)
    walked = _walks(monkeypatch)
    config, cases = block_cases
    capped = split = several = 0
    k = len(BLOCK_PAIRS)
    for ring, amaps, expected in cases:
        walked.clear()
        got = theorems.run_suite(ring, [(str(i), m) for i, m in enumerate(amaps)],
                                 list(BLOCK_PAIRS), config)
        assert len(got) == k * len(amaps)
        for i, amap in enumerate(amaps):
            for report in got[k * i:k * i + k]:
                old = expected[report.checker][i]
                assert report.map_desc == str(i)
                if old is None:
                    assert report.status == "skipped", (report.checker, i)
                else:
                    assert _strip(report) == _strip(old), (report.checker, amap.as_tuple())
                    capped += len(old.witnesses) == theorems.MAX_WITNESSES
        n = ring.size
        split += any(r[0] % n or len(r) % n for rows, width, r in walked
                     if rows == len(amaps) * n and width == n)
        several += any(rows > len(r) > 1 for rows, _, r in walked if rows == len(amaps))
    assert capped and split
    # at 48 cells a block of whole maps holds one map of these rings
    assert bool(several) == (block > 48)


@pytest.mark.parametrize("block", [None, 5, 48], ids=["default", "5", "48"])
def test_maps_of_one_width_and_two_shapes_match_reference(block, monkeypatch):
    """Two forged Z6 maps of widest fibre 3: [0,1,0,1,0,1] has kernel 3 and
    image 2, [0,1,1,1,2,2] kernel 1 and image 3.  Blocks group maps by
    fibre shape and read kernels and images unpadded, so the two must not
    share a block; beside the zero map, every report of run_suite(...,
    "all") equals its one-map call and its loop reference.  Neither map is
    additive, and jordan-suite reads a failed Jordan product rule as a
    failed parts rule, which holds for additive maps only, so its reports
    of the two are held to the one-map call alone."""
    if block is not None:
        monkeypatch.setattr(maps, "_BLOCK", block)
    zn6 = build_ring(Zn(6))
    amaps = [_forged(zn6, [0, 1, 0, 1, 0, 1]), _forged(zn6, [0, 1, 1, 1, 2, 2]),
             zero_map(zn6)]
    got = theorems.run_suite(zn6, [(str(i), m) for i, m in enumerate(amaps)], "all")
    k = len(BLOCK_PAIRS)
    assert len(got) == k * len(amaps) + 1
    for i, amap in enumerate(amaps):
        for report in got[k * i:k * i + k]:
            checks, verify, old = BLOCK_PAIRS[report.checker]
            if not checks(amap):
                assert report.status == "skipped", (report.checker, i)
                continue
            assert _strip(report) == _strip(verify(zn6, amap)), (report.checker, i)
            if report.checker != "jordan-suite" or i == 2:
                assert _strip(report) == _strip(old(zn6, amap)), (report.checker, i)
    assert _strip(got[-1]) == _strip(theorems.herstein_check(zn6))


def _one_map_case(cid):
    """A (ring, map) that cid checks: the forged TANGLED map of M2(Z2), the
    formal derivative of Z3[X]/(X^3) for power-rules (M2(Z2) is not
    commutative), and the first Jordan non-derivation of M2(Z2) for
    separation."""
    if cid == "power-rules":
        tp33 = build_ring(TruncPoly(3, 3))
        return tp33, formal_derivative(tp33)
    m2z2 = build_ring(Matrix(Zn(2), 2))
    if cid == "separation":
        return m2z2, theorems.find_jordan_not_derivation(m2z2)
    return m2z2, _forged(m2z2, TANGLED)


def test_block_checkers_on_z1_no_maps_and_one_map():
    """The zero ring, an empty map list and a one-map call take the same
    block path, for every map checker (one test, so that its id stays)."""
    z1 = build_ring(Zn(1))
    zero = zero_map(z1)
    m2z2 = build_ring(Matrix(Zn(2), 2))
    for cid, (checks, verify, old) in BLOCK_PAIRS.items():
        [got] = theorems.run_suite(z1, [("zero", zero)], [cid])
        if checks(zero):
            assert _strip(got) == _strip(old(z1, zero)), cid
        else:
            assert got.status == "skipped", cid
        assert theorems.run_suite(m2z2, [], [cid]) == []
        assert theorems._CHECKERS[cid](m2z2, []) == []
        ring, amap = _one_map_case(cid)
        assert (_strip(verify(ring, amap))
                == _strip(theorems._CHECKERS[cid](ring, [amap])[0])
                == _strip(old(ring, amap))), cid


# a case of the first table is named by its checkers alone, so its id
# matches earlier runs
@pytest.mark.parametrize("checkers, table", [
    pytest.param(c, t, id=i if t[0] == 0 else f"{i}-zero-moved")
    for t in ([0, 0, 1, 1], [1, 1, 3, 3])
    for c, i in zip([[cid] for cid in KERNEL_READERS] + ["all"], KERNEL_READERS + ["all"])])
def test_block_checkers_refuse_a_kernel_that_is_no_subgroup(checkers, table):
    """Forged Z4 maps are refused inside the block, after a map that
    passes: [0, 0, 1, 1], whose zero fibre {0, 1} is not closed under +,
    and [1, 1, 3, 3], which moves 0.  The refusal of the second is why
    basic and jordan-suite count 0 ∈ i_d(0) without a check."""
    zn4 = build_ring(Zn(4))
    listed = [(str(i), m) for i, m in enumerate(enumerate_derivations(zn4))]
    with pytest.raises(MapLawError, match="kernel failed the subgroup check"):
        theorems.run_suite(zn4, listed + [("forged", _forged(zn4, table))], checkers)


@pytest.mark.parametrize("block", [48, 1000, 1 << 16])
@pytest.mark.parametrize("spec", [Matrix(Zn(2), 2), TruncPoly(3, 3)], ids=spec_name)
def test_zero_map_first_or_last_gives_the_same_reports(spec, block, monkeypatch):
    """Listings put the zero map first, and blocks of whole maps are walked
    in order of widest fibre, which puts it last.  Every map's reports are
    the same with the zero map first or last in the call."""
    monkeypatch.setattr(maps, "_BLOCK", block)
    ring = build_ring(spec)
    listed = list(enumerate_jordan_derivations(ring))
    assert not listed[0].table.any()
    runs = []
    for order in (listed, listed[1:] + listed[:1]):
        got = theorems.run_suite(ring, [(str(listed.index(m)), m) for m in order], "all")
        runs.append(sorted((r.map_desc or "", r.checker, _strip(r)) for r in got))
    assert runs[0] == runs[1]


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
    coset-structure fails on them, basic's integral-maps-outside must name
    the values of the coset rep[x] + Ker as the loop does, and
    kernel-scaling must read d(w·y) = w·x as the loop does, not the coset
    predicate."""
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
            for new, old in (BASIC_PAIR, *FIBRE_PAIRS):
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
