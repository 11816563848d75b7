from __future__ import annotations

import pytest

from ringlab import (AdditiveMap, ElementSet, Integral, MapLawError,
                     RingError, formal_derivative, inner_derivation, integrate,
                     is_proper, jordan_integrate, quotient_view, set_add,
                     set_mul, zero_map)


def _scan(ring, dmap, x):
    """The integral of x found by scanning every element for d(y) = x,
    without the map's fibre index."""
    members = [y for y in range(ring.size) if int(dmap.table[y]) == x]
    if not members:
        return Integral(ring, dmap, x, None, None)
    return Integral(ring, dmap, x, members[0], ElementSet(ring, [
        y for y in range(ring.size) if int(dmap.table[y]) == ring.zero]))


def test_trivial_map_integrals(zn4):
    z = zero_map(zn4)
    assert integrate(zn4, z, 0).as_set().elements == (0, 1, 2, 3)
    for x in range(1, 4):
        assert integrate(zn4, z, x).is_empty


def test_formal_integrals(tp33):
    d = formal_derivative(tp33)
    one = tp33.parse("1")
    got = integrate(tp33, d, one)
    assert got.as_set().labels() == ("X", "1+X", "2+X")
    assert got.as_set().elements == (3, 12, 21)
    assert len(got) == 3
    assert got.representative == 3
    assert integrate(tp33, d, tp33.parse("X^2")).is_empty
    for y in range(tp33.size):
        assert integrate(tp33, d, d(y)).contains(y)


def test_matrix_integrals(m2z2):
    d = inner_derivation(m2z2, m2z2.parse("E11"))
    assert integrate(m2z2, d, m2z2.parse("E11")).is_empty
    got = integrate(m2z2, d, m2z2.parse("E12"))
    assert got.as_set().elements == (4, 5, 12, 13)


def test_jordan_integrals(zn4):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])
    assert jordan_integrate(zn4, delta, 2).as_set().elements == (1, 3)
    assert jordan_integrate(zn4, delta, 1).is_empty
    assert jordan_integrate(zn4, delta, 0).as_set().elements == (0, 2)


def test_jordan_integrate_matches_integrate_on_derivations(tp33):
    d = formal_derivative(tp33)
    for x in range(tp33.size):
        assert jordan_integrate(tp33, d, x) == integrate(tp33, d, x)


def test_index_agrees_with_a_scan(tp33, m2z2):
    for ring, d in ((tp33, formal_derivative(tp33)),
                    (m2z2, inner_derivation(m2z2, m2z2.parse("E11")))):
        for x in range(ring.size):
            got, scan = integrate(ring, d, x), _scan(ring, d, x)
            assert got == scan
            assert got.representative == scan.representative
            assert got.as_set() == scan.as_set()
            # d(y) = x and membership of the coset rep + Ker agree
            for y in range(ring.size):
                assert got.contains(y) == (y in got.as_set())


def test_integrate_guards(zn4, tp33):
    delta = AdditiveMap(zn4, [0, 2, 0, 2])   # jordan, not a derivation
    with pytest.raises(MapLawError):
        integrate(zn4, delta, 0)
    ident = AdditiveMap(tp33, list(range(27)))
    with pytest.raises(MapLawError):
        jordan_integrate(tp33, ident, 0)
    with pytest.raises(RingError):
        integrate(tp33, zero_map(zn4), 0)
    with pytest.raises(RingError):
        integrate(zn4, zero_map(zn4), 9)


def test_contains_range_checks_empty_and_nonempty_integrals(zn4):
    z = zero_map(zn4)
    for x in (0, 1):        # i_0(0) is the whole ring, i_0(1) is empty
        with pytest.raises(RingError):
            integrate(zn4, z, x).contains(99)


def test_integral_identity(tp33):
    d = formal_derivative(tp33)
    one = tp33.parse("1")
    a = integrate(tp33, d, one)
    b = _scan(tp33, d, one)
    assert a == b
    assert hash(a) == hash(b)
    assert a != integrate(tp33, d, tp33.parse("2"))
    empty = integrate(tp33, d, tp33.parse("X^2"))
    assert empty == _scan(tp33, d, tp33.parse("X^2"))
    assert empty != a


def test_integrals_partition_the_ring(tp33, m2z2):
    for ring, d in ((tp33, formal_derivative(tp33)),
                    (m2z2, inner_derivation(m2z2, m2z2.parse("E11")))):
        total = 0
        nonempty = 0
        for x in range(ring.size):
            got = integrate(ring, d, x)
            total += len(got)
            nonempty += 0 if got.is_empty else 1
            if not got.is_empty:
                assert len(got) == len(d.kernel)
                assert got.representative == min(got.as_set().elements)
        assert total == ring.size
        assert nonempty == len(d.image)


def test_set_arithmetic(zn4):
    a = ElementSet(zn4, [0, 1])
    b = ElementSet(zn4, [2])
    assert set_add(a, b).elements == (2, 3)
    assert set_mul(b, b).elements == (0,)
    c = ElementSet(zn4, [1, 3])
    assert set_add(c, c).elements == (0, 2)


def test_set_arithmetic_empty_absorbs(zn4):
    empty = ElementSet(zn4, ())
    full = ElementSet(zn4, range(4))
    assert set_add(empty, full).elements == ()
    assert set_mul(full, empty).elements == ()


def test_set_arithmetic_cross_ring(zn4, tp33):
    with pytest.raises(RingError):
        set_add(ElementSet(zn4, [1]), ElementSet(tp33, [1]))


def test_set_add_commutative_associative(zn6):
    a = ElementSet(zn6, [0, 2])
    b = ElementSet(zn6, [1, 5])
    c = ElementSet(zn6, [3])
    assert set_add(a, b) == set_add(b, a)
    assert set_add(set_add(a, b), c) == set_add(a, set_add(b, c))


def test_ring_plus_kernel_is_ring(tp33):
    d = formal_derivative(tp33)
    full = ElementSet(tp33, range(tp33.size))
    assert set_add(full, d.kernel) == full


def test_free_functions(tp33):
    d = formal_derivative(tp33)
    one = tp33.parse("1")
    got = integrate(tp33, d, one)
    assert got.contains(tp33.parse("1+X"))
    assert not got.contains(tp33.parse("X^2"))
    assert got == _scan(tp33, d, one)
    assert got.as_set().elements == (3, 12, 21)
    assert integrate(tp33, d, tp33.parse("X^2")).as_set().elements == ()


def test_to_json(tp33):
    d = formal_derivative(tp33)
    empty = integrate(tp33, d, tp33.parse("X^2"))
    assert empty.to_json() == {"status": "empty"}
    got = integrate(tp33, d, tp33.parse("1"))
    payload = got.to_json()
    assert list(payload) == ["status", "representative", "kernel", "size"]
    assert payload["status"] == "coset"
    assert payload["representative"] == 3
    assert payload["kernel"] == [0, 9, 18]
    full = got.to_json(materialize=True)
    assert full["elements"] == [3, 12, 21]


def test_is_proper(zn4, m2z2, tri2, tri3):
    assert is_proper(zn4, zero_map(zn4)) == (True, None)
    d = inner_derivation(m2z2, m2z2.parse("E11"))
    ok, witness = is_proper(m2z2, d)
    assert not ok
    u, v, uv = witness
    assert witness == (2, 4, 1)
    assert u in d.image and v in d.image
    assert m2z2.mul(u, v) == uv and uv not in d.image
    # all-ones pattern over Z2: the image collapses and is not closed
    a2 = tri2.parse("A")
    ok2, wit2 = is_proper(tri2, inner_derivation(tri2, a2))
    assert not ok2
    assert wit2 == (10, 6, 4)
    # the same construction over Z3 is closed
    a3 = tri3.parse("A")
    d3 = inner_derivation(tri3, a3)
    assert is_proper(tri3, d3) == (True, None)
    assert len(d3.image) == 27


def test_quotient_view(tp33, m2z2, zn4):
    q = quotient_view(tp33, formal_derivative(tp33))
    assert len(q.cosets) == 9
    assert all(len(c) == 3 for c in q.cosets)
    assert sorted(q.coset_images) == sorted(formal_derivative(tp33).image.elements)
    for e in range(tp33.size):
        assert e in q.cosets[q.index_map[e]]

    q2 = quotient_view(m2z2, inner_derivation(m2z2, m2z2.parse("E11")))
    assert len(q2.cosets) == 4
    assert all(len(c) == 4 for c in q2.cosets)

    q3 = quotient_view(zn4, zero_map(zn4))
    assert len(q3.cosets) == 1
    assert q3.cosets[0].elements == (0, 1, 2, 3)


def test_quotient_view_cross_ring(zn4, tp33):
    with pytest.raises(RingError):
        quotient_view(zn4, zero_map(tp33))
