from __future__ import annotations

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from ringlab import (AdditiveMap, MapLawError, Matrix, NotAdditiveError, Product,
                     RingError, Tables, TooManyMapsError, TriPattern, TruncPoly, Zn,
                     build_ring, check_additive, check_derivation,
                     check_jordan_derivation, enumerate_derivations,
                     enumerate_jordan_derivations, formal_derivative,
                     generator_basis, inner_derivation, spec_name, zero_map)
from ringlab import maps
from ringlab.integrals import integrate, quotient_view
from ringlab.maps import (_check_listed, _describe_maps, _kernel_basis, _law_holds,
                          _members, _reps)


def _tables(elements, add, mul, unity=None):
    """A tables spec over the listed elements, by their add and mul."""
    index = {e: i for i, e in enumerate(elements)}
    return Tables(len(elements),
                  [[index[add(x, y)] for y in elements] for x in elements],
                  [[index[mul(x, y)] for y in elements] for x in elements],
                  None if unity is None else index[unity])


def _gf4():
    """GF(4) = Z2[a]/(a^2 + a + 1), elements (c0, c1) = c0 + c1·a."""
    def mul(x, y):
        c0 = x[0] * y[0] + x[1] * y[1]
        c1 = x[0] * y[1] + x[1] * y[0] + x[1] * y[1]
        return (c0 % 2, c1 % 2)
    return _tables(list(itertools.product(range(2), repeat=2)),
                   lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
                   mul, (1, 0))


def _z4_dual():
    """Z4[e]/(e^2), elements (a, b) = a + b·e: Der is 8 maps over Z/4."""
    return _tables([(a, b) for a in range(4) for b in range(4)],
                   lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 4),
                   lambda x, y: (x[0] * y[0] % 4, (x[0] * y[1] + x[1] * y[0]) % 4),
                   (1, 0))


def _zero_ring(moduli, elements=None):
    """The additive group Z/m1 x ... with the zero product: Der = End.
    elements fixes the element order (default: lexicographic)."""
    return _tables(elements or list(itertools.product(*map(range, moduli))),
                   lambda x, y: tuple((a + b) % m
                                      for a, b, m in zip(x, y, moduli)),
                   lambda x, y: tuple(0 for _ in moduli))


# Additive groups that are not Z_p^k: mixed orders (the first greedy basis of
# Z4xZ2 was not a direct sum), a non-prime-power exponent, a field given by
# tables, Z/4 coefficients with derivations that are not all zero, and an
# element order that makes the basis lift a generator.
MIXED_SPECS = [
    Product((Zn(4), Zn(2))),
    Product((Zn(2), Zn(2), Zn(4))),
    Product((TruncPoly(2, 2), Zn(4))),
    Zn(16),
    _gf4(),
    _z4_dual(),
    _zero_ring((4, 2)),
    _zero_ring((6, 2)),
    # (1,1) of order 4 is the first element outside <(1,0)>; the basis must
    # lift it to (0,1), of order 2
    _zero_ring((4, 2), [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                        (3, 1), (0, 1)]),
]


def test_check_additive(zn4):
    ok, witness = check_additive(zn4, [0, 2, 0, 2])
    assert ok and witness is None
    ok, witness = check_additive(zn4, [(k * k) % 4 for k in range(4)])
    assert not ok
    assert witness == (1, 1)


def test_check_derivation(zn4, tp33, m2z2):
    ok, witness = check_derivation(zn4, [0, 2, 0, 2])
    assert not ok
    assert witness == (1, 1)
    assert check_derivation(tp33, formal_derivative(tp33).table)[0]
    e11 = m2z2.parse("E11")
    assert check_derivation(m2z2, inner_derivation(m2z2, e11).table)[0]


def test_check_jordan(zn4):
    ok, witness = check_jordan_derivation(zn4, [0, 2, 0, 2])
    assert ok and witness is None
    ok, witness = check_jordan_derivation(zn4, [0, 1, 2, 3])
    assert not ok
    assert witness == (1, 1)


def test_checks_take_an_additive_map_as_its_table(zn4, m2z2):
    """A check given an AdditiveMap reads its table."""
    f = AdditiveMap(zn4, [0, 2, 0, 2])
    assert check_derivation(zn4, f) == check_derivation(zn4, f.table) == (False, (1, 1))
    inner = inner_derivation(m2z2, m2z2.parse("E12"))
    assert check_derivation(m2z2, inner) == (True, None)


@pytest.mark.parametrize("table", [[0, 1, 2, 4], [0, 1, 2, -1]])
def test_table_entry_out_of_range_is_refused(zn4, table):
    for check in (check_additive, check_derivation, AdditiveMap):
        with pytest.raises(RingError, match="map table entry out of range") as err:
            check(zn4, table)
        assert type(err.value) is RingError


def test_generator_pairs_agree_with_all_pairs(zn4, tp22):
    from naive_reference import naive_additive_maps
    for ring in (zn4, tp22):
        gens = np.array(generator_basis(ring).generators)
        for table in naive_additive_maps(ring):
            f = np.array(table)
            for law, check in (("derivation", check_derivation),
                               ("jordan", check_jordan_derivation)):
                on_gens = _law_holds(ring, f, law, gens)
                assert on_gens.all() == check(ring, f)[0]


def test_additive_map_rejects_non_additive(zn4):
    with pytest.raises(NotAdditiveError) as err:
        AdditiveMap(zn4, [(k * k) % 4 for k in range(4)])
    assert err.value.witness == (1, 1)


def test_additive_map_basic_api(zn4):
    f = AdditiveMap(zn4, [0, 2, 0, 2])
    assert f(1) == 2
    assert f.as_tuple() == (0, 2, 0, 2)
    assert not f.is_derivation
    assert f.is_jordan
    with pytest.raises(RingError):
        f(7)
    for table in ([0, 1.5, 2, 3], ["0", "1", "2", "3"]):
        with pytest.raises(RingError, match="must be integers"):
            AdditiveMap(zn4, table)
    with pytest.raises(RingError, match="must have length"):
        AdditiveMap(zn4, [[0], [1, 2], 3, 4])


def test_zero_map_flags(zn4):
    z = zero_map(zn4)
    assert z.is_derivation and z.is_jordan
    assert z.inner_witness == 0
    assert z.kernel.elements == tuple(range(4))
    assert z.image.elements == (0,)


def test_inner_derivation(m2z2, zn4):
    e11 = m2z2.parse("E11")
    d = inner_derivation(m2z2, e11)
    assert d.is_derivation
    assert d.inner_witness is not None
    # x*a - a*x with a = E11 zeroes the diagonal and keeps the off-diagonal
    for x in range(m2z2.size):
        expected = m2z2.sub(m2z2.mul(x, e11), m2z2.mul(e11, x))
        assert d(x) == expected
    # commutative ring: every inner map collapses to zero
    assert inner_derivation(zn4, 3) == zero_map(zn4)


def test_formal_derivative(tp33, zn4):
    d = formal_derivative(tp33)
    assert d.is_derivation
    assert d(tp33.parse("X")) == tp33.parse("1")
    assert d(tp33.parse("X^2")) == tp33.parse("2X")
    assert d.kernel.elements == (0, 9, 18)          # the constants
    assert len(d.image) == 9
    with pytest.raises(RingError):
        formal_derivative(zn4)


def test_kernel_image_examples(tp33, m2z2):
    d = inner_derivation(m2z2, m2z2.parse("E11"))
    assert d.kernel.elements == (0, 1, 8, 9)        # diagonal matrices
    assert d.image.elements == (0, 2, 4, 6)         # antidiagonal matrices
    f = formal_derivative(tp33)
    assert len(f.kernel) * len(f.image) == tp33.size


@pytest.mark.parametrize("table", [[1, 1, 1, 1], [0, 0, 1, 1]],
                         ids=["nonzero-at-zero", "not-closed"])
def test_kernel_must_hold_zero(zn4, table):
    # unchecked tables whose zero-preimage is no subgroup: with d(0) != 0
    # it is empty, and for [0, 0, 1, 1] it is {0, 1}, which holds zero but
    # is not closed (1 + 1 = 2); the derivation flag is forged so that
    # integrate reaches the kernel
    forged = AdditiveMap(zn4, table, _trusted=True, _derivation=True)
    for read in (lambda: forged.kernel, lambda: integrate(zn4, forged, 0),
                 lambda: integrate(zn4, forged, 3),
                 lambda: quotient_view(zn4, forged)):
        with pytest.raises(MapLawError, match="^kernel failed the subgroup check$"):
            read()


def test_preimages_partition(tp33):
    """The one-row fibres against a plain loop: they partition the ring,
    each fibre is in increasing order, and rep is its least member."""
    d = formal_derivative(tp33)
    table = d.table.tolist()
    loop = {v: tuple(y for y in range(tp33.size) if table[y] == v) for v in range(tp33.size)}
    members, present = _members(d.fibres, 0, np.arange(tp33.size), tp33.size)
    assert sorted(members[present].tolist()) == list(range(tp33.size))
    for v, fibre in loop.items():
        assert tuple(members[v][present[v]].tolist()) == fibre
        assert list(fibre) == sorted(fibre)
        assert d.fibres[1][0, v] == len(fibre)
        got = integrate(tp33, d, v)
        if fibre:
            assert int(_reps(d.fibres, 0, v)) == got.representative == fibre[0]
        else:
            assert got.is_empty
    assert d.image.elements == tuple(v for v, fibre in loop.items() if fibre)
    assert d.kernel.elements == loop[tp33.zero]


@pytest.mark.parametrize("n", range(2, 9))
def test_zn_derivations_are_trivial(n):
    ring = build_ring(Zn(n))
    ders = enumerate_derivations(ring)
    assert len(ders) == 1
    assert ders[0] == zero_map(ring)


def test_zn4_jordan_enumeration(zn4):
    maps = enumerate_jordan_derivations(zn4)
    assert [m.as_tuple() for m in maps] == [(0, 0, 0, 0), (0, 2, 0, 2)]


def test_zn2_identity_is_jordan(corpus_rings):
    z2 = corpus_rings[0]
    assert z2.size == 2
    maps = enumerate_jordan_derivations(z2)
    # char 2 makes the symmetrized product vanish, so both additive maps pass
    assert [m.as_tuple() for m in maps] == [(0, 0), (0, 1)]
    assert not maps[1].is_derivation


FROZEN_COUNTS = {
    "Z2": (1, 2), "Z3": (1, 1), "Z4": (1, 2), "Z5": (1, 1),
    "Z6": (1, 2), "Z7": (1, 1), "Z8": (1, 2),
    "Z2[X]/(X^2)": (4, 16), "Z3[X]/(X^3)": (27, 27),
    "M2(Z2)": (8, 128), "Tri(Z2)": (32, 32), "Z2xZ3": (1, 2),
}


def test_frozen_enumeration_counts(corpus_rings):
    from ringlab import spec_name
    seen = {}
    for ring in corpus_rings:
        name = spec_name(ring.spec)
        seen[name] = (len(enumerate_derivations(ring)),
                      len(enumerate_jordan_derivations(ring)))
    assert seen == FROZEN_COUNTS


def test_m2z2_derivations_all_inner(m2z2):
    ders = enumerate_derivations(m2z2)
    assert len(ders) == 8
    inner = {inner_derivation(m2z2, a).as_tuple() for a in range(m2z2.size)}
    assert inner == {d.as_tuple() for d in ders}
    for d in ders:
        assert d.inner_witness == next(a for a in range(m2z2.size)
                                       if inner_derivation(m2z2, a) == d)


def test_m2z3_jordan_equals_derivations(m2z3):
    ders = enumerate_derivations(m2z3)
    jords = enumerate_jordan_derivations(m2z3)
    assert len(ders) == len(jords) == 27
    assert {d.as_tuple() for d in ders} == {j.as_tuple() for j in jords}


def test_derivations_subset_of_jordan(corpus_rings):
    for ring in corpus_rings:
        ders = {d.as_tuple() for d in enumerate_derivations(ring)}
        jords = {j.as_tuple() for j in enumerate_jordan_derivations(ring)}
        assert ders <= jords


def test_enumeration_order_is_lexicographic(tp22, m2z2):
    for ring in (tp22, m2z2):
        tables = [d.as_tuple() for d in enumerate_derivations(ring)]
        assert tables == sorted(tables)
        assert len(set(tables)) == len(tables)


def test_kernel_image_product_invariant(corpus_rings):
    for ring in corpus_rings:
        for d in enumerate_derivations(ring):
            assert len(d.kernel) * len(d.image) == ring.size


def test_generator_basis_decomposition(corpus_rings):
    for ring in corpus_rings + [build_ring(spec) for spec in MIXED_SPECS]:
        basis = generator_basis(ring)
        assert len(basis.generators) == len(basis.orders)
        assert math.prod(basis.orders) == ring.size      # a direct sum
        for g, o in zip(basis.generators, basis.orders):
            assert ring.additive_order(g) == o
        for e in range(ring.size):
            acc = ring.zero
            for c, g in zip(basis.decomp[e], basis.generators):
                for _ in range(c):
                    acc = ring.add(acc, g)
            assert acc == e


# ---------------------------------------------------------------------------
# Generator proofs against the all-pairs scan

# corpus-like rings built unchecked, whose generators come from the
# generator basis rather than from the axiom check
UNCHECKED_SPECS = [TruncPoly(3, 3), Matrix(Zn(2), 2), TriPattern(Zn(2))]


def _scan(ring, table, law):
    """(ok, witness) of law by a plain loop over every pair in row-major
    order, the witness the first failing pair."""
    add, mul = ring.add_table.tolist(), ring.mul_table.tolist()
    if law == "additive":
        op = add
    elif law == "derivation":
        op = mul
    else:
        op = [[add[mul[x][y]][mul[y][x]] for y in range(ring.size)]
              for x in range(ring.size)]
    for x in range(ring.size):
        for y in range(ring.size):
            if law == "additive":
                ok = table[op[x][y]] == add[table[x]][table[y]]
            else:
                ok = table[op[x][y]] == add[op[table[x]][y]][op[x][table[y]]]
            if not ok:
                return False, (x, y)
    return True, None


def _random_additive(ring, rng):
    """An additive table from random images of the generator basis, each
    image killed by its generator's order."""
    basis, add = generator_basis(ring), ring.add_table.tolist()
    images = [rng.choice([v for v in range(ring.size) if o % ring.additive_order(v) == 0])
              for o in basis.orders.tolist()]
    table = []
    for coords in basis.decomp.tolist():
        v = ring.zero
        for c, image in zip(coords, images):
            for _ in range(c):
                v = add[v][image]
        table.append(v)
    return table


def _proof_rings(corpus_rings):
    return (corpus_rings + [build_ring(spec) for spec in MIXED_SPECS]
            + [build_ring(spec, check=False) for spec in UNCHECKED_SPECS])


def test_checks_match_the_all_pairs_scan(corpus_rings):
    """check_additive, check_derivation and check_jordan_derivation prove
    their law from generators, and where the proof fails the all-pairs
    walk names the witness: (ok, witness), and NotAdditiveError's witness,
    are exactly the plain scan's.  Random tables are mostly not additive,
    random additive tables mostly break a law, and listed maps keep it."""
    rng = random.Random(30)
    for ring in _proof_rings(corpus_rings):
        n = ring.size
        tables = [[ring.zero] + [rng.randrange(n) for _ in range(n - 1)] for _ in range(4)]
        tables += [[rng.randrange(n) for _ in range(n)] for _ in range(2)]
        tables += [_random_additive(ring, rng) for _ in range(6)]
        tables += [m.table.tolist() for m in enumerate_derivations(ring)[-3:]]
        tables += [m.table.tolist() for m in enumerate_jordan_derivations(ring)[-3:]]
        for table in tables:
            additive = _scan(ring, table, "additive")
            assert check_additive(ring, table) == additive
            for law, check in (("derivation", check_derivation),
                               ("jordan", check_jordan_derivation)):
                if additive[0]:
                    assert check(ring, table) == _scan(ring, table, law)
                else:
                    with pytest.raises(NotAdditiveError) as err:
                        check(ring, table)
                    assert err.value.witness == additive[1]


def test_flags_of_tables_that_are_not_additive_are_exact(corpus_rings):
    """A table passed as _trusted need not be additive, and then its law
    flags are the all-pairs verdicts.  On Z4 the generator pair (1, 1)
    alone cannot tell: [0, 0, 1, 0] keeps the Leibniz law there and breaks
    it at (2, 3), and [0, 0, 0, 1] keeps the Jordan law there and breaks it
    at (1, 3)."""
    zn4 = build_ring(Zn(4))
    for table, law in (([0, 0, 1, 0], "derivation"), ([0, 0, 0, 1], "jordan")):
        assert _law_holds(zn4, np.array(table), law, maps._generators(zn4)).all()
        forged = AdditiveMap(zn4, table, _trusted=True)
        assert (forged.is_derivation, forged.is_jordan) == (False, False)
    rng = random.Random(31)
    for ring in _proof_rings(corpus_rings):
        tables = [[ring.zero] + [rng.randrange(ring.size) for _ in range(ring.size - 1)]
                  for _ in range(4)]
        tables += [_random_additive(ring, rng) for _ in range(3)]
        for table in tables:
            forged = AdditiveMap(ring, table, _trusted=True)
            assert forged.is_derivation == _scan(ring, table, "derivation")[0]
            assert forged.is_jordan == _scan(ring, table, "jordan")[0]


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (2, 4), (3, 3), (2, 6), (2, 8)])
def test_formal_derivative_is_the_coefficient_shift(p, m):
    """The formal derivative's table, read from coefficient digits in one
    pass, against ring.value and index_of_value element by element."""
    ring = build_ring(TruncPoly(p, m))
    expected = [ring.index_of_value(tuple((k + 1) * ring.value(x)[k + 1] % p if k + 1 < m
                                          else 0 for k in range(m)))
                for x in range(ring.size)]
    assert formal_derivative(ring).table.tolist() == expected


@pytest.mark.parametrize("p, m, witness", [(3, 2, (1, 1)), (2, 3, (1, 2)), (3, 4, (1, 9))])
def test_formal_derivative_that_breaks_the_leibniz_law_is_refused(p, m, witness):
    """Unless p divides m, d(X^m) = m·X^(m-1) is not zero, and the refusal
    names the all-pairs walk's first failing pair."""
    with pytest.raises(MapLawError, match=rf"fails the Leibniz law at \({witness[0]}, "
                                          rf"{witness[1]}\)$"):
        formal_derivative(build_ring(TruncPoly(p, m)))


def test_lawful_maps_take_no_all_pairs_walk(tp33, m2z2, monkeypatch):
    """The entry points prove a lawful map's laws from generators alone:
    the all-pairs walk, the witness finder, runs only where a proof
    fails."""
    law_holds = maps._law_holds

    def spy(ring, F, law, gens=None):
        assert gens is not None, f"a lawful map walked every pair for {law}"
        return law_holds(ring, F, law, gens)

    monkeypatch.setattr(maps, "_law_holds", spy)
    table = inner_derivation(m2z2, m2z2.parse("E12")).table.tolist()
    for check in (check_additive, check_derivation, check_jordan_derivation):
        assert check(m2z2, table) == (True, None)
    amap = AdditiveMap(m2z2, table)
    assert amap.is_derivation and amap.is_jordan
    formal = formal_derivative(tp33)
    assert AdditiveMap(tp33, formal.table).is_derivation


# ---------------------------------------------------------------------------
# Describing a listing as one block


def _describe_loop(ring, amap):
    """describe() by plain loops: the kernel counted and checked closed,
    the image as a set, the least inner a by comparing x·a − a·x."""
    n, table = ring.size, amap.table.tolist()
    kernel = [y for y in range(n) if table[y] == ring.zero]
    if any(table[ring.add(a, b)] != ring.zero for a in kernel for b in kernel):
        raise MapLawError("kernel failed the subgroup check")
    inner = next((a for a in range(n)
                  if all(table[x] == ring.add(ring.mul(x, a), ring.neg(ring.mul(a, x)))
                         for x in range(n))), None)
    entry = {"table": table, "additive": True,
             "derivation": check_derivation(ring, table)[0],
             "jordan": check_jordan_derivation(ring, table)[0],
             "kernel_size": len(kernel), "image_size": len(set(table)),
             "inner_witness": inner}
    if inner is not None:
        entry["inner_witness_label"] = ring.label(inner)
    return entry


@pytest.mark.parametrize("cells", [None, 1], ids=["blocks", "one-map-blocks"])
def test_block_describe_matches_a_plain_loop(corpus_rings, monkeypatch, cells):
    """Both listings of every corpus and mixed ring, and of the one-element
    rings, described as blocks and map by map, against _describe_loop.
    With _BLOCK cut to n cells every block holds one map."""
    rings = (corpus_rings + [build_ring(spec) for spec in MIXED_SPECS]
             + [build_ring(Zn(1)), build_ring(Matrix(Zn(1), 2))])
    for ring in rings:
        if cells is not None:
            monkeypatch.setattr(maps, "_BLOCK", cells * ring.size)
        for enumerate_maps in (enumerate_derivations, enumerate_jordan_derivations):
            listed = enumerate_maps(ring)
            expected = [_describe_loop(ring, m) for m in listed]
            assert _describe_maps(listed) == expected
            assert [m.describe() for m in listed] == expected


@pytest.mark.parametrize("at", [0, 1, 3])
def test_block_describe_checks_every_kernel(zn4, at):
    """A forged map whose kernel {0, 1} is not closed under addition fails
    the subgroup check wherever it sits in a block with kernels of sizes
    4, 2 and 1."""
    listing = [zero_map(zn4), AdditiveMap(zn4, [0, 2, 0, 2]), AdditiveMap(zn4, [0, 1, 2, 3])]
    listing.insert(at, AdditiveMap(zn4, [0, 0, 1, 1], _trusted=True, _derivation=True,
                                   _jordan=True))
    with pytest.raises(MapLawError, match="^kernel failed the subgroup check$"):
        _describe_maps(listing)


def test_block_describe_pads_no_kernel():
    """Der(Z2[X]/(X^8)) holds 256 maps, and the zero map's kernel is the
    whole ring.  Each map's kernel is checked at its own size: padded to 256
    members, the kernel arrays alone of a 256-map block would peak near
    3.5 MB, against about 1.5 MB for the whole describe."""
    ring = build_ring(TruncPoly(2, 8))
    listed = enumerate_derivations(ring)
    assert max(int(np.count_nonzero(m.table == ring.zero)) for m in listed) == 256
    _describe_maps(listed[:1])          # the ring's inner-witness dict, kept on it
    tracemalloc.start()
    try:
        described = _describe_maps(listed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(described) == 256
    assert peak < 2.5 * 2 ** 20


def test_describe_shape(tp33):
    d = formal_derivative(tp33)
    info = d.describe()
    assert info["derivation"] is True
    assert info["jordan"] is True
    assert info["kernel_size"] == 3
    assert info["image_size"] == 9
    assert len(info["table"]) == 27


def test_enumeration_progress_callback(zn4):
    for enumerate_maps in (enumerate_jordan_derivations, enumerate_derivations):
        events = []
        enumerate_maps(zn4, progress=events.append)
        assert events
        assert all({"nodes", "pruned", "found"} <= set(e) for e in events)
        assert events[-1]["found"] == len(enumerate_maps(zn4))


@pytest.mark.parametrize("spec", MIXED_SPECS, ids=spec_name)
def test_mixed_groups_match_naive_oracle(spec):
    from naive_reference import naive_derivations, naive_jordan_derivations
    ring = build_ring(spec)
    assert [d.as_tuple() for d in enumerate_derivations(ring)] == \
        naive_derivations(ring)
    assert [j.as_tuple() for j in enumerate_jordan_derivations(ring)] == \
        naive_jordan_derivations(ring)


def test_solver_counts_both_laws_as_the_listers_do(corpus_rings):
    """The solver's Jordan rows are its Leibniz rows symmetrised in the
    generator pair: its kernel counts JDer(R) as the search lists it."""
    for ring in corpus_rings + [build_ring(spec) for spec in MIXED_SPECS]:
        assert maps._solve(ring, "jordan")[3] == len(enumerate_jordan_derivations(ring))
        assert maps._solve(ring, "derivation")[3] == len(enumerate_derivations(ring))


JORDAN_COUNTS = [
    (Matrix(Zn(2), 2), 128),
    (Product((Zn(4),) * 3), 512),
    (TriPattern(Zn(3)), 243),
    (TruncPoly(2, 4), 65536),
    (Matrix(Zn(3), 2), 27),
    # char 2 and commutative: x∘y = 2xy = 0, so every additive map is a
    # Jordan derivation, 2^(m·m) of them
    (TruncPoly(2, 5), 2 ** 25),
    (TruncPoly(2, 8), 2 ** 64),
]


@pytest.mark.parametrize("spec, jordan", JORDAN_COUNTS,
                         ids=[spec_name(spec) for spec, _ in JORDAN_COUNTS])
def test_solver_counts_jordan_maps_without_listing(spec, jordan, monkeypatch):
    """|JDer(R)| against the counts pinned above, with nothing listed."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver listed maps")

    monkeypatch.setattr(maps, "_listed_maps", refuse)
    monkeypatch.setattr(maps, "enumerate_jordan_derivations", refuse)
    assert maps._solve(build_ring(spec, check=False), "jordan")[3] == jordan


@pytest.mark.parametrize("m", range(4, 9))
def test_trunc_poly_char2_derivation_counts(m):
    """d is fixed by d(X), and d(X^m) = m·X^(m-1)·d(X) = 0 forces d(X) into
    the annihilator of m·X^(m-1): all of R for even m (2^m maps), the ideal
    (X) for odd m (2^(m-1) maps)."""
    ring = build_ring(TruncPoly(2, m))
    assert len(enumerate_derivations(ring)) == 2 ** (m if m % 2 == 0 else m - 1)


def test_listing_cap_reports_the_count():
    zero32 = build_ring(_zero_ring((2,) * 5))
    with pytest.raises(TooManyMapsError) as err:
        enumerate_derivations(zero32)
    assert err.value.count == 2 ** 25
    # a listing at the cap itself goes through
    assert len(enumerate_derivations(build_ring(_zero_ring((2,) * 4)))) == 2 ** 16


def test_count_between_2_63_and_2_64_is_refused(monkeypatch):
    """A kernel whose radices multiply to 3·2^62, in [2^63, 2^64): the
    count is exact and refused, not wrapped below the cap.  The ring is
    built here, as a ring keeps the solution of its first solve."""
    zn4 = build_ring(Zn(4))
    radix = np.array([2] * 62 + [3], dtype=np.int64)
    monkeypatch.setattr(maps, "_kernel_basis",
                        lambda A, N: (np.zeros((len(radix), 1), dtype=np.int64), radix))
    with pytest.raises(TooManyMapsError) as err:
        enumerate_derivations(zn4)
    assert err.value.count == 3 * 2 ** 62


def test_listing_check_rejects_a_non_additive_table():
    """On the zero ring on Z4 every table with f(0) = 0 passes the Leibniz
    law on generator pairs, so only the additivity check can catch one."""
    ring = build_ring(_zero_ring((4,)))
    gens = np.array(generator_basis(ring).generators, dtype=np.intp)
    _check_listed(ring, gens, np.array([[0, 1, 2, 3], [0, 3, 2, 1]]), "derivation")
    with pytest.raises(MapLawError):
        _check_listed(ring, gens, np.array([[0, 1, 2, 3], [0, 1, 3, 2]]), "derivation")


def test_listing_check_rejects_a_table_that_breaks_the_jordan_law(zn4):
    """The identity on Z4 is additive, but f(1∘1) = 2 while
    f(1)∘1 + 1∘f(1) = 0.  The check returns the Leibniz flags of the
    tables it passes."""
    gens = np.array(generator_basis(zn4).generators, dtype=np.intp)
    leibniz = _check_listed(zn4, gens, np.array([[0, 0, 0, 0], [0, 2, 0, 2]]), "jordan")
    assert leibniz.tolist() == [True, False]
    with pytest.raises(MapLawError):
        _check_listed(zn4, gens, np.array([[0, 1, 2, 3]]), "jordan")


@pytest.mark.parametrize("spec", [Zn(1), Matrix(Zn(1), 2)], ids=spec_name)
def test_one_element_ring_lists_the_zero_map(spec):
    """A ring with no generators has one map of each law, the zero map:
    the solver lists one kernel vector for either law."""
    ring = build_ring(spec)
    for enumerate_maps in (enumerate_derivations, enumerate_jordan_derivations):
        events = []
        listed = enumerate_maps(ring, progress=events.append)
        assert listed == [zero_map(ring)]
        assert listed[0].is_derivation and listed[0].is_jordan
        assert events == [{"nodes": 1, "pruned": 0, "found": 1}]


@pytest.mark.parametrize("N", [2, 4, 6, 8, 9, 12])
def test_kernel_basis_lists_each_solution_once(N):
    """The Howell basis of the kernel lists every solution of A·x ≡ 0
    (mod N) once, against a scan of all x."""
    rng = random.Random(N)
    for _ in range(20):
        rows, u = rng.randrange(1, 5), rng.randrange(1, 4)
        A = np.array([[rng.randrange(N) for _ in range(u)] for _ in range(rows)])
        basis, radix = _kernel_basis(A, N)
        listed = [tuple(int(v) for v in np.dot(c, basis) % N)
                  for c in itertools.product(*map(range, radix))]
        scan = [x for x in itertools.product(range(N), repeat=u)
                if not (A @ np.array(x) % N).any()]
        assert sorted(listed) == scan


def test_listed_tables_are_read_only_rows_of_one_block(monkeypatch):
    """A lister checks its tables once, in _check_listed: none passes
    through _as_table, the validation of tables from outside.  Each
    listed table is a read-only int32 row of its listing's one block."""
    ring = build_ring(TruncPoly(2, 3))
    monkeypatch.setattr(maps, "_as_table", lambda ring, table: pytest.fail(
        "a listed table went through _as_table"))
    for enumerate_maps in (enumerate_derivations, enumerate_jordan_derivations):
        listed = enumerate_maps(ring)
        block = listed[0].table.base
        assert block.shape == (len(listed), ring.size)
        assert not block.flags.writeable
        for m in listed:
            assert m.table.dtype == np.int32 and not m.table.flags.writeable
            assert m.table.base is block and np.shares_memory(m.table, block)


@pytest.mark.parametrize("law, evaluated", [
    ("derivation", ["additive", "derivation"]),
    ("jordan", ["additive", "derivation", "jordan"]),
])
def test_listing_check_evaluates_each_law_once(m2z2, monkeypatch, law, evaluated):
    """One _check_listed call on a block evaluates each distinct law once."""
    block = np.array([m.table for m in enumerate_derivations(m2z2)])
    gens = np.array(generator_basis(m2z2).generators, dtype=np.intp)
    calls = []
    law_holds = maps._law_holds

    def spy(ring, F, name, *pairs):
        calls.append(name)
        return law_holds(ring, F, name, *pairs)

    monkeypatch.setattr(maps, "_law_holds", spy)
    assert _check_listed(m2z2, gens, block, law).all()
    assert sorted(calls) == evaluated


# The listing contract of the enum-ladder rungs that finish: sha256 of the
# listed tables in order as little-endian int32, as perfbench/expected.json
# records them, and the count of maps flagged as derivations.
LADDER_LISTINGS = [
    ("m2-z2.jordan", Matrix(Zn(2), 2), enumerate_jordan_derivations, 8,
     "f135738f605987b6e67f806f8fc15e81f409b744d8fa4132b35954e800eff023"),
    ("m2-z3.jordan", Matrix(Zn(3), 2), enumerate_jordan_derivations, 27,
     "a6940ca9573e10e2901421bfa2738a3b0dd27a289e3005e0982bd979c483578d"),
    ("m2-z3.der", Matrix(Zn(3), 2), enumerate_derivations, 27,
     "a6940ca9573e10e2901421bfa2738a3b0dd27a289e3005e0982bd979c483578d"),
    ("z4cubed.jordan", Product((Zn(4),) * 3), enumerate_jordan_derivations, 1,
     "cd3d98e0be651ba319a0f0aed24b02d3e5a43b6ffa1c456824d062ed4dc9e46a"),
    ("tri-z3.der", TriPattern(Zn(3)), enumerate_derivations, 243,
     "d913efb4fa991650bde0832e7ff03dc0b1b2785a75b429bec438e6d7a0436686"),
    ("tp2-4.jordan", TruncPoly(2, 4), enumerate_jordan_derivations, 16,
     "05316ec46101331d94a61dca0ec88ec167d60981bd90ec4a5a2999673ba54a25"),
]


@pytest.mark.parametrize("spec, enumerate_maps, derivations, digest",
                         [rung[1:] for rung in LADDER_LISTINGS],
                         ids=[rung[0] for rung in LADDER_LISTINGS])
def test_ladder_listings_are_pinned(spec, enumerate_maps, derivations, digest):
    listed = enumerate_maps(build_ring(spec))
    tables = np.asarray([m.table for m in listed], dtype="<i4")
    assert hashlib.sha256(tables.tobytes()).hexdigest() == digest
    assert sum(m.is_derivation for m in listed) == derivations


@pytest.mark.parametrize("spec, enumerate_maps, derivations, digest",
                         [rung[1:] for rung in LADDER_LISTINGS
                          if rung[0] != "tp2-4.jordan"],    # the rungs of ≤ 512 maps
                         ids=[rung[0] for rung in LADDER_LISTINGS
                              if rung[0] != "tp2-4.jordan"])
def test_ladder_listings_survive_small_blocks(spec, enumerate_maps, derivations, digest,
                                              monkeypatch):
    """Listed in blocks of one to three maps, each rung keeps its pinned
    tables, and each map's derivation flag is the one its table has."""
    ring = build_ring(spec)
    k = len(generator_basis(ring).generators)
    monkeypatch.setattr(maps, "_BLOCK", 3 * k * (ring.size + k))
    sizes = []
    check_listed = maps._check_listed

    def spy(ring, gens, F, law):
        sizes.append(len(F))
        return check_listed(ring, gens, F, law)

    monkeypatch.setattr(maps, "_check_listed", spy)
    listed = enumerate_maps(ring)
    tables = np.asarray([m.table for m in listed], dtype="<i4")
    assert hashlib.sha256(tables.tobytes()).hexdigest() == digest
    assert sum(m.is_derivation for m in listed) == derivations
    assert [m.is_derivation for m in listed] == [check_derivation(ring, m.table)[0]
                                                 for m in listed]
    assert len(sizes) > 1 and set(sizes) <= {1, 2, 3} and sum(sizes) == len(listed)
