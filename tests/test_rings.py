from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ringlab import (ElementParseError, ElementSet, Matrix, Product,
                     RingAxiomError, RingError, Tables, TriPattern, TruncPoly,
                     Zn, build_ring, spec_from_json, spec_name, spec_to_json)
from ringlab.rings import _asymmetry, check_ring_axioms
from conftest import CORPUS_SPECS
from reference_rings import check_ring_axioms as reference_check
from test_reference_rings import _agree, _table, _verdict, _violates


def test_zn4_arithmetic(zn4):
    assert zn4.size == 4
    assert zn4.unity == 1
    assert zn4.add(3, 2) == 1
    assert zn4.mul(2, 2) == 0
    assert zn4.neg(1) == 3
    assert zn4.sub(1, 3) == 2
    assert zn4.is_commutative()


def test_zn4_bold_and_invert(zn4):
    assert zn4.bold(6) == 2
    assert zn4.bold(-1) == 3
    assert zn4.bold(0) == 0
    assert zn4.invert(3) == 3
    assert zn4.invert(2) is None
    assert zn4.invert(0) is None


@pytest.mark.parametrize("spec", [Zn(256), Matrix(Zn(3), 2)], ids=spec_name)
def test_inverse_table_matches_scan(spec):
    ring = build_ring(spec)
    mul, one = ring.mul_table, ring.unity
    for e in range(ring.size):
        hits = [y for y in range(ring.size)
                if mul[e, y] == one and mul[y, e] == one]
        assert len(hits) <= 1
        assert ring.invert(e) == (hits[0] if hits else None)
        assert ring.inverse_table()[e] == (hits[0] if hits else -1)


def test_inverse_table_published_whole():
    """Threads racing on a fresh ring's lazy inverse table all see it full."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            ring = build_ring(Zn(64))
            expect = [x for x in range(64) if x % 2]
            seen = []

            def worker():
                seen.append([x for x in range(64) if ring.invert(x) is not None])

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert seen == [expect] * 4
    finally:
        sys.setswitchinterval(old)


def test_trunc_poly_structure(tp33):
    assert tp33.size == 27
    assert tp33.unity == tp33.parse("1")
    # constant-term-first coefficient order: indices are base-p digits
    assert tp33.value(tp33.parse("X")) == (0, 1, 0)
    assert tp33.parse("1+2X") == tp33.index_of_value((1, 2, 0))
    for value in ((1, 2), [1, 2, 0]):       # not an element, and unhashable
        with pytest.raises(RingError):
            tp33.index_of_value(value)
    assert tp33.bold(5) == tp33.parse("2")
    inv = tp33.invert(tp33.parse("1+X"))
    assert tp33.label(inv) == "1+2X+X^2"
    # nilpotents are not invertible
    assert tp33.invert(tp33.parse("X")) is None


def test_matrix_ring(m2z2):
    assert m2z2.size == 16
    e12, e21, e11 = m2z2.parse("E12"), m2z2.parse("E21"), m2z2.parse("E11")
    assert m2z2.mul(e12, e21) == e11
    assert m2z2.unity == m2z2.parse("[[1,0],[0,1]]")
    assert not m2z2.is_commutative()
    assert m2z2.label(e12) == "[[0,1],[0,0]]"


def test_tri_pattern_ring(tri2):
    assert tri2.size == 32
    assert tri2.unity is None
    a = tri2.parse("A")
    assert tri2.value(a) == (1, 1, 1, 1, 1)
    # multiplication follows the 3x3 matrix product restricted to the pattern
    x = tri2.index_of_value((1, 0, 0, 0, 0))
    y = tri2.index_of_value((0, 1, 0, 0, 0))
    assert tri2.value(tri2.mul(x, y)) == (0, 1, 0, 0, 0)
    assert tri2.value(tri2.mul(y, x)) == (0, 0, 0, 0, 0)


def test_product_ring(z2xz3):
    assert z2xz3.size == 6
    assert z2xz3.unity == z2xz3.parse("(1,1)")
    one_zero = z2xz3.parse("(1,0)")
    zero_one = z2xz3.parse("(0,1)")
    assert z2xz3.mul(one_zero, zero_one) == z2xz3.zero
    assert z2xz3.label(one_zero) == "(1,0)"


def test_tables_kind_round_trip(zn4):
    spec = Tables(4, tuple(map(tuple, zn4.add_table.tolist())),
                  tuple(map(tuple, zn4.mul_table.tolist())), unity=1)
    again = build_ring(spec)
    assert np.array_equal(again.add_table, zn4.add_table)
    assert np.array_equal(again.mul_table, zn4.mul_table)
    assert again.unity == 1


def test_tables_axiom_failure_reports_witness():
    add = ((0, 1), (1, 0))
    bad_mul = ((0, 1), (0, 0))      # not associative / no consistent structure
    with pytest.raises(RingAxiomError) as err:
        build_ring(Tables(2, add, bad_mul))
    assert err.value.axiom
    assert err.value.witness is not None


@pytest.mark.parametrize("wrap", [lambda t: t, lambda t: Matrix(t, 1),
                                  lambda t: TriPattern(t), lambda t: Product((t,))],
                         ids=["top", "matrix", "tri_pattern", "product"])
def test_tables_are_checked_even_unchecked(wrap):
    """check=False trusts only generated rings: a tables spec, at the top
    or nested, fails the same axiom check as with check=True."""
    bad = Tables(2, ((0, 1), (1, 0)), ((0, 1), (0, 0)))
    errors = []
    for check in (True, False):
        with pytest.raises(RingAxiomError) as err:
            build_ring(wrap(bad), check=check)
        errors.append((err.value.axiom, err.value.witness, str(err.value)))
    assert errors[0] == errors[1]


def test_tables_unity_mismatch(zn4):
    spec = Tables(4, tuple(map(tuple, zn4.add_table.tolist())),
                  tuple(map(tuple, zn4.mul_table.tolist())), unity=2)
    with pytest.raises(RingError):
        build_ring(spec)


@pytest.mark.parametrize("spec", CORPUS_SPECS, ids=spec_name)
def test_spec_json_round_trip(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_wire_names():
    assert spec_to_json(Zn(4)) == {"kind": "zn", "n": 4}
    assert spec_to_json(TruncPoly(3, 3)) == {"kind": "trunc_poly", "p": 3, "m": 3}
    assert spec_to_json(Matrix(Zn(2), 2)) == {
        "kind": "matrix", "base": {"kind": "zn", "n": 2}, "dim": 2}
    assert spec_to_json(TriPattern(Zn(2))) == {
        "kind": "tri_pattern", "base": {"kind": "zn", "n": 2}}
    assert spec_to_json(Product((Zn(2), Zn(3)))) == {
        "kind": "product",
        "factors": [{"kind": "zn", "n": 2}, {"kind": "zn", "n": 3}]}


@pytest.mark.parametrize("spec", CORPUS_SPECS, ids=spec_name)
def test_build_is_deterministic(spec):
    first = build_ring(spec)
    second = build_ring(spec)
    assert np.array_equal(first.add_table, second.add_table)
    assert np.array_equal(first.mul_table, second.mul_table)
    assert first.labels == second.labels


def test_invert_is_an_involution(tp33):
    one = tp33.unity
    for x in range(tp33.size):
        y = tp33.invert(x)
        if y is None:
            continue
        assert tp33.mul(x, y) == one
        assert tp33.mul(y, x) == one
        assert tp33.invert(y) == x


def test_predicates(zn4, m2z3, z2xz3):
    assert not zn4.is_n_torsion_free(2)
    assert zn4.is_n_torsion_free(3)
    assert m2z3.is_prime()
    assert m2z3.is_n_torsion_free(2)
    assert not zn4.is_prime()
    with pytest.raises(ValueError):
        zn4.is_n_torsion_free(1)


def test_prime_witness_product_ring():
    ring = build_ring(Product((Zn(2), Zn(2))))
    assert not ring.is_prime()
    a, b = ring.prime_witness()
    assert a != ring.zero and b != ring.zero
    for r in range(ring.size):
        assert ring.mul(ring.mul(a, r), b) == ring.zero


def test_additive_orders(zn4, tp33):
    assert zn4.additive_order(1) == 4
    assert zn4.additive_order(2) == 2
    assert zn4.additive_order(0) == 1
    assert tp33.additive_order(tp33.parse("X")) == 3


def test_label_parse_round_trip(corpus_rings):
    for ring in corpus_rings:
        for x in range(ring.size):
            assert ring.parse(ring.label(x)) == x
            # a bare index resolves to x unless the text is the label of
            # another element (labels win)
            if str(x) not in ring.labels:
                assert ring.parse(str(x)) == x


def test_parse_errors(zn4, m2z2):
    with pytest.raises((RingError, ElementParseError)):
        zn4.parse("7")
    with pytest.raises((RingError, ElementParseError)):
        m2z2.parse("E13")
    with pytest.raises((RingError, ElementParseError)):
        zn4.parse("bogus")


def test_size_ceiling(monkeypatch):
    with pytest.raises(RingError):
        build_ring(Zn(300))
    monkeypatch.setenv("RINGLAB_MAX_SIZE", "512")
    ring = build_ring(Zn(300), check=False)
    assert ring.size == 300
    assert ring.add(299, 2) == 1


def test_trivial_ring_admitted():
    ring = build_ring(Zn(1))
    assert ring.size == 1
    assert ring.add(0, 0) == 0
    assert ring.mul(0, 0) == 0


def test_invalid_spec_parameters():
    with pytest.raises((RingError, ValueError)):
        build_ring(Zn(0))
    with pytest.raises((RingError, ValueError)):
        build_ring(TruncPoly(4, 2))      # p must be prime
    with pytest.raises((RingError, ValueError)):
        build_ring(TruncPoly(3, 0))
    with pytest.raises((RingError, ValueError)):
        build_ring(Matrix(Zn(2), 0))


def test_cross_ring_sets_rejected(zn4, tp33):
    with pytest.raises(RingError):
        ElementSet(zn4, [5])
    good = ElementSet(zn4, [1, 3, 1])
    assert good.elements == (1, 3)
    other = ElementSet(tp33, [1, 3])
    assert good != other


def test_matrix_unit_parse_needs_base_unity(m2z2):
    # nested literal form always available
    lit = m2z2.parse("[[1,1],[0,1]]")
    assert m2z2.value(lit) == (1, 1, 0, 1)


# -- element literals ---------------------------------------------------------------


def test_literals_with_spaces_equal_their_labels(m2z2, z2xz3):
    """Text that is not a label goes to the kind's parser, which drops spaces."""
    assert m2z2.parse("[[1, 1], [0, 1]]") == m2z2.parse("[[1,1],[0,1]]")
    assert z2xz3.parse("( 1 , 2 )") == z2xz3.parse("(1,2)")
    nested = build_ring(Product((Matrix(Zn(2), 2), Zn(3))))
    assert nested.label(nested.parse("([[1, 0], [0, 1]], 2)")) == "([[1,0],[0,1]],2)"


def test_matrix_literal_entries_by_base_index_or_base_syntax():
    """An entry is any text the base ring parses: its label, its index or
    its own syntax (here 1+X, which is base index 3)."""
    ring = build_ring(Matrix(TruncPoly(2, 2), 2))
    x = ring.parse("[[X+1,0],[0,1]]")
    assert ring.label(x) == "[[1+X,0],[0,1]]"
    assert ring.parse("[[3, 0], [0, 1]]") == ring.parse("[[1+X, 0],[0,1]]") == x


def test_tri_pattern_literal_equals_a(tri2):
    assert tri2.parse("[[1, 1, 1], [0, 0, 1], [0, 0, 1]]") == tri2.parse("A")


@pytest.mark.parametrize("ring_name, text, message", [
    ("tri2", "[[1,1,1],[0,1,1],[0,0,1]]", "nonzero entry outside the stored pattern"),
    ("m2z2", "[[1,0]]", "expected 2 rows"),
    ("m2z2", "[[1,0,0],[0,1]]", "expected 2 entries per row"),
    ("m2z2", "[[1,0],(0,1)]", "cannot parse row"),
    ("m2z2", "1,0", "as a matrix"),
    ("m2z2", "[[1,0],[0,1]", "unbalanced brackets"),
    ("m2z2", "[[1,0]],[0,1]]", "unbalanced brackets"),
    ("z2xz3", "(1,2,0)", "expected 2 components"),
    ("z2xz3", "(1,(2)", "unbalanced brackets"),
    ("z2xz3", "1,2", "as a product element"),
])
def test_malformed_literals_raise_element_parse_error(request, ring_name, text, message):
    ring = request.getfixturevalue(ring_name)
    with pytest.raises(ElementParseError, match=message):
        ring.parse(text)


# -- refusals -----------------------------------------------------------------------


def _raises_exactly(error_type, match, fn, *args):
    with pytest.raises(error_type, match=match) as err:
        fn(*args)
    assert type(err.value) is error_type
    return err.value


def test_tables_with_non_commutative_addition_are_refused():
    err = _raises_exactly(RingAxiomError, "addition is not commutative", build_ring,
                          Tables(2, [[0, 1], [0, 0]], [[0, 0], [0, 0]]))
    assert (err.axiom, err.witness) == ("additive-commutativity", (0, 1))


def test_refusals_keep_their_error_type(tri2, monkeypatch):
    _raises_exactly(RingError, "requires prime p, got 9", build_ring, TruncPoly(9, 2))
    _raises_exactly(RingError, "unknown ring spec", build_ring, object())
    _raises_exactly(RingError, "unknown spec object", spec_to_json, object())
    _raises_exactly(RingError, "requires size >= 1", build_ring, Tables(0, [], []))
    _raises_exactly(RingError, "ring has no unity", tri2.bold, 1)
    monkeypatch.setenv("RINGLAB_MAX_SIZE", "big")
    _raises_exactly(RingError, "RINGLAB_MAX_SIZE must be an integer", build_ring, Zn(4))


# -- the exact axiom check -----------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("product, axiom", [
    # x*y = x is right distributive and associative, and x*(y+z) = x != 2x
    (lambda x, y: x, "left-distributivity"),
    # its mirror x*y = y is left distributive and associative
    (lambda x, y: y, "right-distributivity"),
], ids=["x", "y"])
def test_axiom_check_refuses_near_rings(n, product, axiom):
    """Zn with a product that keeps associativity and one distributive law
    but not the other: the left check on generator rows alone must catch
    the missing left law, the full right pass the missing right law."""
    tables = (_table(n, lambda x, y: (x + y) % n), _table(n, product))
    kind, err = _agree(*tables)
    assert kind == "raise" and err.axiom == axiom
    assert _verdict(reference_check, *tables, None)[1].axiom == axiom


@pytest.mark.parametrize("spec", [TruncPoly(2, 8), TriPattern(Zn(3)), Zn(256)],
                         ids=spec_name)
def test_axiom_check_memory_bound(spec):
    """The right distributive pass gathers a block of rows at a time and no
    n x n array outlives its stage: the check's traced peak stays under 7
    n x n int32 tables (the tables themselves excluded)."""
    ring = build_ring(spec, check=False)
    args = (ring.add_table, ring.mul_table, ring.size, ring.unity)
    check_ring_axioms(*args)            # warm the imports
    tracemalloc.start()
    try:
        check_ring_axioms(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * ring.size ** 2 * np.dtype(np.int32).itemsize


# The changed cells of a case, the first the first mismatch in row-major
# order.  The last case changes three cells of one tile, and the first is
# on the last column of the three, so row-major order decides the pair.
@pytest.mark.parametrize("pairs", [
    *(pytest.param([(i, j)], id=f"{i}-{j}")
      for i, j in [(0, 1), (5, 127), (3, 130), (127, 128), (140, 299), (200, 260),
                   (298, 299)]),
    pytest.param([(40, 200), (41, 130), (90, 129)], id="several-in-one-tile")])
def test_asymmetry_finds_a_pair_in_any_tile(pairs):
    t = np.add.outer(np.arange(300), np.arange(300)) % 7
    assert _asymmetry(t) is None
    for i, j in pairs:
        t[i, j] += 1
    assert _asymmetry(t) == pairs[0]
    assert _asymmetry(t.T.copy()) == pairs[0]


def test_right_distributivity_witness_past_the_first_block():
    """Z300 takes two blocks of rows in the right pass; a product changed
    in the second is named with its own row."""
    n = 300
    add = _table(n, lambda x, y: (x + y) % n)
    mul = _table(n, lambda x, y: x * y % n)
    assert check_ring_axioms(add, mul, n, unity=1) == 0
    mul[250, 7] = 0
    with pytest.raises(RingAxiomError) as err:
        check_ring_axioms(add, mul, n)
    assert (err.value.axiom, err.value.witness) == ("right-distributivity", (249, 1, 7))
    assert _violates(add, mul, None, err.value.axiom, err.value.witness)
