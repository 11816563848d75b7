from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from ringlab import (AdditiveMap, MapLawError, NotAdditiveError, Product,
                     RingError, Tables, TooManyMapsError, TruncPoly, Zn,
                     build_ring, check_additive, check_derivation,
                     check_jordan_derivation, enumerate_derivations,
                     enumerate_jordan_derivations, formal_derivative,
                     generator_basis, inner_derivation, spec_name, zero_map)
from ringlab import maps
from ringlab.maps import _check_listed, _kernel_basis, _law_holds


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


def test_generator_pairs_agree_with_all_pairs(zn4, tp22):
    from naive_reference import naive_additive_maps
    for ring in (zn4, tp22):
        gens = np.array(generator_basis(ring).generators)
        for table in naive_additive_maps(ring):
            f = np.array(table)
            for law, check in (("derivation", check_derivation),
                               ("jordan", check_jordan_derivation)):
                on_gens = _law_holds(ring, f, law, gens[:, None], gens[None, :])
                assert on_gens.all() == check(ring, f)[0]


def test_additive_map_rejects_non_additive(zn4):
    with pytest.raises(NotAdditiveError) as err:
        AdditiveMap.from_table(zn4, [(k * k) % 4 for k in range(4)])
    assert err.value.witness == (1, 1)


def test_additive_map_basic_api(zn4):
    f = AdditiveMap.from_table(zn4, [0, 2, 0, 2])
    assert f(1) == 2
    assert f.as_tuple() == (0, 2, 0, 2)
    assert not f.is_derivation
    assert f.is_jordan
    with pytest.raises(RingError):
        f(7)


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


def test_kernel_must_hold_zero(zn4):
    # an unchecked table with d(0) != 0 has an empty zero-preimage, which
    # is no subgroup
    forged = AdditiveMap(zn4, [1, 1, 1, 1], _trusted=True)
    with pytest.raises(MapLawError):
        forged.kernel


def test_preimages_partition(tp33):
    d = formal_derivative(tp33)
    pre = d.preimages
    total = sum(len(v) for v in pre.values())
    assert total == tp33.size
    for value, xs in pre.items():
        assert all(d(x) == value for x in xs)
        assert xs == tuple(sorted(xs))


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
        assert d.inner_witness is not None


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


def test_count_between_2_63_and_2_64_is_refused(zn4, monkeypatch):
    """A kernel whose radices multiply to 3·2^62, in [2^63, 2^64): the
    count is exact and refused, not wrapped below the cap."""
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
    _check_listed(ring, gens, np.array([[0, 1, 2, 3], [0, 3, 2, 1]]))
    with pytest.raises(MapLawError):
        _check_listed(ring, gens, np.array([[0, 1, 2, 3], [0, 1, 3, 2]]))


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
