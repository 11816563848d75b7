from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringlab import (ElementSet, Matrix, NotAdditiveError, Product,
                     TriPattern, TruncPoly, Zn, build_ring, check_additive,
                     check_derivation, check_jordan_derivation,
                     enumerate_jordan_derivations, generator_basis,
                     inner_derivation, integrate, jordan_integrate, set_add,
                     set_mul, spec_from_json, spec_to_json, subring_closure,
                     zero_map)
from ringlab.maps import _law_holds

RINGS = [build_ring(spec) for spec in (
    Zn(2), Zn(3), Zn(4), Zn(6), Zn(8),
    TruncPoly(2, 2), TruncPoly(3, 3),
    Matrix(Zn(2), 2), TriPattern(Zn(2)), Product((Zn(2), Zn(3))),
)]

_JORDAN_CACHE: dict[int, list] = {}


def _jordan_maps(ring):
    key = id(ring)
    if key not in _JORDAN_CACHE:
        _JORDAN_CACHE[key] = enumerate_jordan_derivations(ring)
    return _JORDAN_CACHE[key]


rings_st = st.sampled_from(RINGS)


@given(data=st.data())
def test_addition_group_laws(data):
    ring = data.draw(rings_st)
    idx = st.integers(0, ring.size - 1)
    x, y, z = data.draw(idx), data.draw(idx), data.draw(idx)
    assert ring.add(x, y) == ring.add(y, x)
    assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
    assert ring.add(x, ring.zero) == x
    assert ring.add(x, ring.neg(x)) == ring.zero


@given(data=st.data())
def test_multiplication_laws(data):
    ring = data.draw(rings_st)
    idx = st.integers(0, ring.size - 1)
    x, y, z = data.draw(idx), data.draw(idx), data.draw(idx)
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.mul(ring.add(x, y), z) == ring.add(ring.mul(x, z), ring.mul(y, z))


@given(data=st.data())
def test_invert_round_trip(data):
    ring = data.draw(st.sampled_from([r for r in RINGS if r.unity is not None]))
    x = data.draw(st.integers(0, ring.size - 1))
    y = ring.invert(x)
    if y is not None:
        assert ring.unity is not None
        assert ring.mul(x, y) == ring.unity
        assert ring.mul(y, x) == ring.unity
        assert ring.invert(y) == x


@given(data=st.data())
def test_bold_is_additive_in_n(data):
    ring = data.draw(st.sampled_from([r for r in RINGS if r.unity is not None]))
    n = data.draw(st.integers(-20, 20))
    m = data.draw(st.integers(-20, 20))
    assert ring.add(ring.bold(n), ring.bold(m)) == ring.bold(n + m)


@given(data=st.data())
@settings(max_examples=50)
def test_subring_closure_properties(data):
    ring = data.draw(rings_st)
    seed = data.draw(st.sets(st.integers(0, ring.size - 1), max_size=3))
    closed = subring_closure(ring, ElementSet(ring, seed))
    assert ElementSet(ring, seed).issubset(closed)
    assert subring_closure(ring, closed) == closed
    for a in closed:
        for b in closed:
            assert ring.add(a, b) in closed
            assert ring.mul(a, b) in closed


@given(data=st.data())
def test_spec_json_round_trip(data):
    spec = data.draw(st.sampled_from([r.spec for r in RINGS]))
    assert spec_from_json(spec_to_json(spec)) == spec


def _first_failure(ring, holds):
    """The (ok, witness) of a law by its definition: the first pair (x, y)
    in row-major order at which holds(x, y) is false."""
    for x in range(ring.size):
        for y in range(ring.size):
            if not holds(x, y):
                return False, (x, y)
    return True, None


def _additivity(ring, f):
    return lambda x, y: f[ring.add(x, y)] == ring.add(f[x], f[y])


def _leibniz(ring, f, prod):
    return lambda x, y: f[prod(x, y)] == ring.add(prod(f[x], y), prod(x, f[y]))


def _jordan_product(ring):
    return lambda x, y: ring.add(ring.mul(x, y), ring.mul(y, x))


@st.composite
def additive_tables(draw, ring):
    """Any additive self-map, from the images of a generator basis: the
    image of a generator of order o is any element that o kills."""
    basis = generator_basis(ring)
    images = [draw(st.sampled_from([x for x in range(ring.size)
                                    if o % ring.additive_order(x) == 0]))
              for o in basis.orders]
    table = []
    for coords in basis.decomp:
        v = ring.zero
        for c, image in zip(coords, images):
            for _ in range(c):
                v = ring.add(v, image)
        table.append(v)
    return table


def _tables(data, ring):
    """An additive table, or, one time in three, any table."""
    if data.draw(st.integers(0, 2)) == 0:
        return data.draw(st.lists(st.integers(0, ring.size - 1),
                                  min_size=ring.size, max_size=ring.size))
    return data.draw(additive_tables(ring))


@given(data=st.data())
@settings(max_examples=50)
def test_check_additive_matches_definition(data):
    ring = data.draw(rings_st)
    table = _tables(data, ring)
    assert check_additive(ring, table) == _first_failure(ring, _additivity(ring, table))


@pytest.mark.parametrize("law", ["derivation", "jordan"])
@given(data=st.data())
@settings(max_examples=50)
def test_law_checks_match_definition(law, data):
    """(ok, witness) of check_derivation and check_jordan_derivation is the
    first failing pair of the definitional loop, and a table that is not
    additive raises NotAdditiveError at the first failing pair of
    additivity."""
    ring = data.draw(rings_st)
    table = _tables(data, ring)
    check = check_derivation if law == "derivation" else check_jordan_derivation
    prod = ring.mul if law == "derivation" else _jordan_product(ring)
    additive, witness = _first_failure(ring, _additivity(ring, table))
    if not additive:
        with pytest.raises(NotAdditiveError) as err:
            check(ring, table)
        assert err.value.witness == witness
        return
    assert check(ring, table) == _first_failure(ring, _leibniz(ring, table, prod))


@given(data=st.data())
@settings(max_examples=50)
def test_generator_pairs_match_all_pairs(data):
    """On an additive map both laws hold on every pair exactly when they
    hold on generator pairs."""
    ring = data.draw(rings_st)
    jordan_tables = st.sampled_from(_jordan_maps(ring)).map(lambda m: m.table)
    table = np.array(data.draw(st.one_of(additive_tables(ring), jordan_tables)))
    gens = np.array(generator_basis(ring).generators)
    for law, check in (("derivation", check_derivation),
                       ("jordan", check_jordan_derivation)):
        on_gens = _law_holds(ring, table, law, gens[:, None], gens[None, :])
        assert on_gens.all() == check(ring, table)[0]


@given(data=st.data())
def test_inner_maps_are_derivations(data):
    ring = data.draw(rings_st)
    a = data.draw(st.integers(0, ring.size - 1))
    d = inner_derivation(ring, a)
    assert d.is_derivation
    assert d.is_jordan
    assert len(d.kernel) * len(d.image) == ring.size


@given(data=st.data())
def test_integral_membership_soundness(data):
    ring = data.draw(rings_st)
    dmap = data.draw(st.sampled_from(_jordan_maps(ring)))
    x = data.draw(st.integers(0, ring.size - 1))
    got = jordan_integrate(ring, dmap, x)
    members = set(got.as_set().elements)
    for y in range(ring.size):
        assert (dmap(y) == x) == (y in members)
    if members:
        assert len(members) == len(dmap.kernel)


@given(data=st.data())
def test_integral_is_kernel_coset(data):
    ring = data.draw(rings_st)
    dmap = data.draw(st.sampled_from(_jordan_maps(ring)))
    x = data.draw(st.integers(0, ring.size - 1))
    got = jordan_integrate(ring, dmap, x)
    if got.is_empty:
        return
    rep = got.representative
    shifted = {ring.add(rep, k) for k in dmap.kernel}
    assert shifted == set(got.as_set().elements)


@given(data=st.data())
@settings(max_examples=50)
def test_set_add_laws(data):
    ring = data.draw(rings_st)
    sets = st.sets(st.integers(0, ring.size - 1), max_size=4)
    a = ElementSet(ring, data.draw(sets))
    b = ElementSet(ring, data.draw(sets))
    c = ElementSet(ring, data.draw(sets))
    assert set_add(a, b) == set_add(b, a)
    assert set_add(set_add(a, b), c) == set_add(a, set_add(b, c))
    empty = ElementSet(ring, ())
    assert set_add(a, empty).elements == ()
    assert set_mul(a, empty).elements == ()
    expected = {ring.add(x, y) for x in a for y in b}
    assert set(set_add(a, b).elements) == expected
    expected_mul = {ring.mul(x, y) for x in a for y in b}
    assert set(set_mul(a, b).elements) == expected_mul


@given(data=st.data())
def test_integrate_after_derivative_contains_origin(data):
    ring = data.draw(rings_st)
    a = data.draw(st.integers(0, ring.size - 1))
    d = inner_derivation(ring, a)
    y = data.draw(st.integers(0, ring.size - 1))
    assert integrate(ring, d, d(y)).contains(y)


@given(data=st.data())
def test_trivial_integral_structure(data):
    ring = data.draw(rings_st)
    x = data.draw(st.integers(0, ring.size - 1))
    got = integrate(ring, zero_map(ring), x)
    if x == ring.zero:
        assert len(got) == ring.size
    else:
        assert got.is_empty


@given(data=st.data())
def test_tables_are_read_only(data):
    ring = data.draw(rings_st)
    assert not ring.add_table.flags.writeable
    assert not ring.mul_table.flags.writeable
    with np.testing.assert_raises(ValueError):
        ring.add_table[0, 0] = 1
