"""The coordinate builder and the generator-based axiom check against the
loop builders and the exhaustive scan of tests/reference_rings.py."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from ringlab import (Matrix, Product, RingAxiomError, RingError, Tables,
                     TriPattern, TruncPoly, Zn, build_ring, spec_name)
from ringlab.rings import _additive_generators, check_ring_axioms

from reference_rings import additive_generators as reference_generators
from reference_rings import check_ring_axioms as reference_check
from reference_rings import reference_build


def _gf4() -> Tables:
    """GF(4) as F2[x]/(x^2+x+1); element i holds the bits of its coefficients."""
    def mul(a, b):
        prod = 0
        for k in range(2):
            if b >> k & 1:
                prod ^= a << k
        return prod ^ 0b111 if prod & 0b100 else prod

    return Tables(4, tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
                  tuple(tuple(mul(a, b) for b in range(4)) for a in range(4)))


def _z3_moved() -> Tables:
    """Z3 relabelled so that zero is element 2 and unity element 0: the
    element i stands for (i + 1) % 3, and the value v is labelled (v + 2) % 3."""
    def op(f):
        return tuple(tuple((f((a + 1) % 3, (b + 1) % 3) + 2) % 3 for b in range(3))
                     for a in range(3))

    return Tables(3, op(lambda u, v: u + v), op(lambda u, v: u * v), unity=0)


BUILDER_SPECS = [
    TruncPoly(2, 8),
    TruncPoly(3, 4),
    TriPattern(Zn(3)),
    TriPattern(Zn(2)),
    TriPattern(TruncPoly(2, 1)),
    Matrix(Zn(3), 2),
    Matrix(TruncPoly(2, 2), 2),
    Matrix(_gf4(), 2),
    Product((Matrix(Zn(2), 2), Zn(3))),
    Product((Zn(16), Zn(16))),
    # zero entries sit at base.zero, which here is not element 0
    TriPattern(_z3_moved()),
    Matrix(_z3_moved(), 2),
    Product((_z3_moved(), Zn(4))),
    # one-element coordinates
    Matrix(Zn(1), 2),
    TriPattern(Zn(1)),
    TruncPoly(2, 1),
    Product((Zn(1), Zn(5))),
    # a base generator of additive order 4, 256 elements
    Matrix(Zn(4), 2),
    # a factor with two additive generators, and one whose zero is element 2
    Product((_gf4(), Zn(4))),
    Product((_z3_moved(), _gf4(), Zn(2))),
]

# element texts that are neither an index nor a label
EXTRA_TEXTS = ["E11", "E12", "E21", "A", "1+X", "2X+X^3", "-X", "X^2-1", "X^9+1"]


@pytest.mark.parametrize("spec", BUILDER_SPECS, ids=spec_name)
def test_coordinate_builder_matches_loop_builders(spec):
    ring = build_ring(spec)
    ref = reference_build(spec)
    assert np.array_equal(ring.add_table, ref.add_table)
    assert np.array_equal(ring.mul_table, ref.mul_table)
    assert ring.add_table.dtype == ref.add_table.dtype
    assert ring.labels == ref.labels
    assert [ring.value(x) for x in ring.elements()] == [ref.value(x) for x in ref.elements()]
    assert (ring.zero, ring.unity) == (ref.zero, ref.unity)
    for x, label in enumerate(ring.labels):
        assert ring.parse(label) == x
    for text in EXTRA_TEXTS:
        try:
            expected = ref.parse(text)
        except RingError as exc:
            with pytest.raises(type(exc)):
                ring.parse(text)
        else:
            assert ring.parse(text) == expected


@pytest.mark.parametrize("spec", [TruncPoly(2, 8), TriPattern(Zn(3))], ids=spec_name)
def test_coordinate_builder_memory_bound(spec):
    """The builder grows both tables one coordinate at a time through the
    ring's own addition: its traced peak stays under 8 n x n int32 tables
    (the tables themselves included)."""
    build_ring(spec, check=False)       # warm the imports and the base ring
    tracemalloc.start()
    try:
        ring = build_ring(spec, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ring.size ** 2 * np.dtype(np.int32).itemsize


def _loop_times(ring, x, n):
    acc = ring.zero
    for _ in range(n):
        acc = ring.add(acc, x)
    return acc


@pytest.mark.parametrize("spec", BUILDER_SPECS + [
    Zn(6), Product((Zn(4), Zn(2))), Product((TruncPoly(2, 2), Zn(4)))], ids=spec_name)
def test_orders_torsion_and_bold_match_repeated_addition(spec):
    ring = build_ring(spec)
    for x in ring.elements():
        order, acc = 1, x
        while acc != ring.zero:
            order, acc = order + 1, ring.add(acc, x)
        assert ring.additive_order(x) == order
    for n in range(2, 7):
        assert ring.is_n_torsion_free(n) == all(
            _loop_times(ring, x, n) != ring.zero for x in ring.elements() if x != ring.zero)
    if ring.unity is not None:
        for n in range(-9, 10):
            step = ring.unity if n >= 0 else ring.neg(ring.unity)
            assert ring.bold(n) == _loop_times(ring, step, abs(n))


def test_tri_pattern_closure_error_kept():
    """A base where 0*x != 0 would fill in the pattern's zero cells, but
    it is not a ring: its tables fail the axiom check first."""
    ones = Tables(2, ((0, 1), (1, 0)), ((1, 1), (1, 1)))
    with pytest.raises(RingError):
        reference_build(TriPattern(ones))
    with pytest.raises(RingError):
        build_ring(TriPattern(ones), check=False)


def _reference_prime_witness(ring):
    for a in range(ring.size):
        for b in range(ring.size):
            if a != ring.zero and b != ring.zero and not np.any(
                    ring.mul_table[ring.mul_table[a], b] != ring.zero):
                return (a, b)
    return None


@pytest.mark.parametrize("spec", [
    Zn(12), TruncPoly(2, 3), TruncPoly(3, 2), Matrix(Zn(2), 2), TriPattern(Zn(2)),
    Product((Zn(2), Zn(3))), Product((Zn(4), TruncPoly(2, 2))), _gf4(),
], ids=spec_name)
def test_prime_witness_and_invertible_count(spec):
    ring = build_ring(spec)
    assert ring.prime_witness() == _reference_prime_witness(ring)
    if ring.unity is not None:
        assert ring.describe()["invertible_count"] == sum(
            ring.invert(x) is not None for x in ring.elements())


# -- the generator search ------------------------------------------------------


GENERATOR_SPECS = [
    Zn(1), Zn(2), Zn(3), Zn(7), Zn(81), Zn(97), Zn(255), Zn(256),
    Product((Zn(16), Zn(16))), Product((Zn(12), Zn(18))), Product((Zn(6), Zn(10))),
    Product((Zn(4), Zn(2))), Product((Zn(2), Zn(2), Zn(4))), Product((Zn(4),) * 3),
    TruncPoly(2, 8), TriPattern(Zn(3)), Matrix(Zn(2), 2), Matrix(Zn(3), 2),
    Matrix(TruncPoly(2, 2), 2),
    # zero is element 2, so the search does not start at element 0
    _z3_moved(),
]


@pytest.mark.parametrize("spec", GENERATOR_SPECS, ids=spec_name)
def test_generator_search_matches_breadth_first_walk(spec):
    """Doubling out each generator's multiples picks the same generators as
    walking the span one addition at a time."""
    ring = build_ring(spec)
    got = _additive_generators(ring.add_table, ring.zero)
    assert got == reference_generators(ring.add_table, ring.zero)
    assert all(isinstance(g, int) for g in got)


# -- the axiom check ---------------------------------------------------------------


def _violates(add, mul, unity, axiom, w) -> bool:
    """Whether witness w breaks the named axiom, checked on the tables."""
    n = len(add)
    idx = np.arange(n)
    if axiom == "closure":
        x, y = w
        return any(not 0 <= t[x, y] < n for t in (add, mul))
    if axiom == "additive-commutativity":
        x, y = w
        return add[x, y] != add[y, x]
    identities = np.flatnonzero((add == idx).all(axis=1))
    if axiom == "additive-identity":
        return len(identities) != 1
    if axiom == "additive-inverse":
        (x,) = w
        return not (add[x] == identities[0]).any()
    if axiom == "unity":
        (u,) = w
        return u != unity or not (np.array_equal(mul[u], idx)
                                  and np.array_equal(mul[:, u], idx))
    x, y, z = w
    if axiom == "additive-associativity":
        return add[add[x, y], z] != add[x, add[y, z]]
    if axiom == "multiplicative-associativity":
        return mul[mul[x, y], z] != mul[x, mul[y, z]]
    if axiom == "left-distributivity":
        return mul[x, add[y, z]] != add[mul[x, y], mul[x, z]]
    if axiom == "right-distributivity":   # w = (y, z, x)
        return mul[add[x, y], z] != add[mul[x, z], mul[y, z]]
    raise AssertionError(f"unknown axiom {axiom!r}")


def _verdict(check, add, mul, unity):
    try:
        return ("zero", check(add, mul, len(add), unity=unity))
    except RingAxiomError as exc:
        return ("raise", exc)


def _agree(add, mul, unity=None):
    """Both checks give the same verdict and zero; a raised witness is
    genuine.  Returns the new check's verdict."""
    old = _verdict(reference_check, add, mul, unity)
    new = _verdict(check_ring_axioms, add, mul, unity)
    assert old[0] == new[0], (old, new)
    if new[0] == "zero":
        assert old[1] == new[1]
    else:
        assert _violates(add, mul, unity, new[1].axiom, new[1].witness), new[1]
    return new


def _perturbed(ring, rng: random.Random):
    """One seeded perturbation of a ring's tables, and a declared unity."""
    n = ring.size
    add, mul = ring.add_table.copy(), ring.mul_table.copy()
    kind = rng.randrange(6)
    if kind == 0:                   # relabel: still a ring, zero moves
        perm = np.array(rng.sample(range(n), n))
        inv = np.argsort(perm)
        add, mul = perm[add[inv][:, inv]], perm[mul[inv][:, inv]]
    elif kind == 1:                 # one product changed
        mul[rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
    elif kind == 2:                 # relabel the additive group only
        perm = np.array(rng.sample(range(n), n))
        inv = np.argsort(perm)
        add = perm[add[inv][:, inv]]
    elif kind == 3:                 # two rows of products swapped
        x, y = rng.randrange(n), rng.randrange(n)
        mul[[x, y]] = mul[[y, x]]
    elif kind == 4:                 # one sum changed on both sides
        x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        add[x, y] = add[y, x] = v
    else:                           # products taken through an element map
        f = np.array([rng.randrange(n) if rng.random() < 0.2 else x for x in range(n)])
        mul = mul[f]
    declared = rng.choice([None, ring.unity, rng.randrange(n)])
    return add.astype(np.int32), mul.astype(np.int32), declared


AXIOM_SPECS = [Zn(6), Zn(8), Product((Zn(2), Zn(2))), TruncPoly(2, 3),
               TruncPoly(3, 2), Matrix(Zn(2), 2), TriPattern(Zn(2)), _gf4()]


def test_axiom_check_agrees_on_perturbed_tables():
    seen = set()
    for k, spec in enumerate(AXIOM_SPECS):
        ring = build_ring(spec)
        rng = random.Random(1000 + k)
        for _ in range(150):
            kind, result = _agree(*_perturbed(ring, rng))
            seen.add(result.axiom if kind == "raise" else "pass")
    # the perturbations reach every stage of the check
    assert {"pass", "additive-identity", "left-distributivity",
            "right-distributivity", "multiplicative-associativity",
            "unity"} <= seen, seen


def _table(n, op):
    return np.array([[op(x, y) for y in range(n)] for x in range(n)], dtype=np.int32)


# a commutative loop of order 6 with identity 0 and inverses, not associative
LOOP6 = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                  [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
                 dtype=np.int32)


def _cross_product_z3():
    vecs = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {v: i for i, v in enumerate(vecs)}

    def cross(u, v):
        return ((u[1] * v[2] - u[2] * v[1]) % 3, (u[2] * v[0] - u[0] * v[2]) % 3,
                (u[0] * v[1] - u[1] * v[0]) % 3)

    add = _table(27, lambda x, y: index[tuple((a + b) % 3 for a, b in zip(vecs[x], vecs[y]))])
    mul = _table(27, lambda x, y: index[cross(vecs[x], vecs[y])])
    return add, mul


@pytest.mark.parametrize("tables, axiom", [
    ((LOOP6, np.zeros((6, 6), dtype=np.int32)), "additive-associativity"),
    (_cross_product_z3(), "multiplicative-associativity"),
    # x*y = f(x)*y on Z6 with f(x) = x^2: left-distributive and associative
    # (x^4 = x^2 in Z6), but f(1+1) != f(1)+f(1)
    ((_table(6, lambda x, y: (x + y) % 6), _table(6, lambda x, y: x * x * y % 6)),
     "right-distributivity"),
], ids=["loop6", "cross-z3", "square-times"])
def test_axiom_check_on_hand_built_tables(tables, axiom):
    kind, err = _agree(*tables)
    assert kind == "raise" and err.axiom == axiom
    assert _verdict(reference_check, *tables, None)[1].axiom == axiom
