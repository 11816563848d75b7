"""Loop-form reference ring builders and axiom check, kept as the oracle
for ringlab.rings.

The four builders are the per-pair Python loops that built TruncPoly,
Matrix, TriPattern and Product tables before ringlab.rings took them from
one coordinate builder; ``check_ring_axioms`` is the exhaustive O(size^3)
scan that ringlab.rings replaced with checks on additive generators.
tests/test_reference_rings.py requires the tables, labels, values and
parses of both builders to be equal, and the verdicts of both checks to
agree.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional

import numpy as np

from ringlab.rings import (_TABLE_DTYPE, _TRI_POSITIONS, _TRI_ZERO_POSITIONS,
                           ElementParseError, FiniteRing, Matrix, Product,
                           RingAxiomError, RingError, Tables, TriPattern,
                           TruncPoly, Zn, _build_tables, _build_zn,
                           _detect_unity, _is_prime_int, _parse_index_or_label,
                           _parse_matrix_rows, _poly_label, _poly_parse_text)


def _build_trunc_poly(spec: TruncPoly) -> dict:
    p, m = spec.p, spec.m
    if not _is_prime_int(p):
        raise RingError(f"trunc_poly requires prime p, got {p}")
    if m < 1:
        raise RingError("trunc_poly requires m >= 1")
    values = [tuple(t) for t in itertools.product(range(p), repeat=m)]
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    add = np.empty((n, n), dtype=_TABLE_DTYPE)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for i, u in enumerate(values):
        for j, v in enumerate(values):
            add[i, j] = index[tuple((a + b) % p for a, b in zip(u, v))]
            prod = [0] * m
            for s, a in enumerate(u):
                if a:
                    for t, b in enumerate(v):
                        if s + t < m:
                            prod[s + t] = (prod[s + t] + a * b) % p
            mul[i, j] = index[tuple(prod)]
    labels = [_poly_label(v) for v in values]

    def parser(ring, text):
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        coeffs = _poly_parse_text(text, p, m)
        return index[coeffs]

    return dict(size=n, add=add, mul=mul, values=values, labels=labels, parser=parser)


def _build_matrix(spec: Matrix, build) -> dict:
    base = build(spec.base, check=False)
    d = spec.dim
    if d < 1:
        raise RingError("matrix requires dim >= 1")
    cells = d * d
    values = [tuple(t) for t in itertools.product(range(base.size), repeat=cells)]
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    badd = base.add_table
    bmul = base.mul_table
    add = np.empty((n, n), dtype=_TABLE_DTYPE)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for i, u in enumerate(values):
        for j, v in enumerate(values):
            add[i, j] = index[tuple(int(badd[a, b]) for a, b in zip(u, v))]
            prod = []
            for r in range(d):
                for c in range(d):
                    acc = base.zero
                    for k in range(d):
                        acc = int(badd[acc, bmul[u[r * d + k], v[k * d + c]]])
                    prod.append(acc)
            mul[i, j] = index[tuple(prod)]

    def label(v):
        rows = []
        for r in range(d):
            rows.append("[" + ",".join(base.label(v[r * d + c]) for c in range(d)) + "]")
        return "[" + ",".join(rows) + "]"

    labels = [label(v) for v in values]
    unit_re = re.compile(r"^E([1-9])([1-9])$")

    def parser(ring, text):
        text = text.strip()
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        match = unit_re.fullmatch(text)
        if match:
            r, c = int(match.group(1)) - 1, int(match.group(2)) - 1
            if r >= d or c >= d:
                raise ElementParseError(f"{text} is outside a {d}x{d} matrix")
            if base.unity is None:
                raise ElementParseError("matrix-unit syntax needs a base ring with unity")
            v = [base.zero] * cells
            v[r * d + c] = base.unity
            return index[tuple(v)]
        rows = _parse_matrix_rows(text, d, base)
        return index[tuple(itertools.chain.from_iterable(rows))]

    return dict(size=n, add=add, mul=mul, values=values, labels=labels, parser=parser)


def _build_tri_pattern(spec: TriPattern, build) -> dict:
    base = build(spec.base, check=False)
    values = [tuple(t) for t in itertools.product(range(base.size), repeat=5)]
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    badd = base.add_table
    bmul = base.mul_table

    def expand(v):
        m = [[base.zero] * 3 for _ in range(3)]
        for (r, c), entry in zip(_TRI_POSITIONS, v):
            m[r][c] = entry
        return m

    def compress(m):
        for r, c in _TRI_ZERO_POSITIONS:
            if m[r][c] != base.zero:
                raise RingError("triangular pattern is not closed under multiplication")
        return tuple(m[r][c] for r, c in _TRI_POSITIONS)

    add = np.empty((n, n), dtype=_TABLE_DTYPE)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for i, u in enumerate(values):
        mu = expand(u)
        for j, v in enumerate(values):
            add[i, j] = index[tuple(int(badd[a, b]) for a, b in zip(u, v))]
            mv = expand(v)
            prod = [[base.zero] * 3 for _ in range(3)]
            for r in range(3):
                for c in range(3):
                    acc = base.zero
                    for k in range(3):
                        acc = int(badd[acc, bmul[mu[r][k], mv[k][c]]])
                    prod[r][c] = acc
            mul[i, j] = index[compress(prod)]

    def label(v):
        m = expand(v)
        return "[" + ",".join(
            "[" + ",".join(base.label(e) for e in row) + "]" for row in m) + "]"

    labels = [label(v) for v in values]

    def parser(ring, text):
        text = text.strip()
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        if text == "A":
            # the all-ones pattern matrix, the canonical inner-map witness here
            if base.unity is None:
                raise ElementParseError("'A' needs a base ring with unity")
            return index[(base.unity,) * 5]
        rows = _parse_matrix_rows(text, 3, base)
        flat = [rows[r][c] for r in range(3) for c in range(3)]
        for r, c in _TRI_ZERO_POSITIONS:
            if flat[r * 3 + c] != base.zero:
                raise ElementParseError(
                    f"{text!r} has a nonzero entry outside the stored pattern")
        return index[tuple(flat[r * 3 + c] for r, c in _TRI_POSITIONS)]

    return dict(size=n, add=add, mul=mul, values=values, labels=labels, parser=parser)


def _build_product(spec: Product, build) -> dict:
    if not spec.factors:
        raise RingError("product requires at least one factor")
    factors = [build(f, check=False) for f in spec.factors]
    values = [tuple(t) for t in itertools.product(*[range(f.size) for f in factors])]
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    add = np.empty((n, n), dtype=_TABLE_DTYPE)
    mul = np.empty((n, n), dtype=_TABLE_DTYPE)
    for i, u in enumerate(values):
        for j, v in enumerate(values):
            add[i, j] = index[tuple(int(f.add_table[a, b]) for f, a, b in zip(factors, u, v))]
            mul[i, j] = index[tuple(int(f.mul_table[a, b]) for f, a, b in zip(factors, u, v))]
    labels = ["(" + ",".join(f.label(c) for f, c in zip(factors, v)) + ")" for v in values]

    def parser(ring, text):
        text = text.strip()
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        s = text.replace(" ", "")
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementParseError(f"cannot parse {text!r} as a product element")
        parts = _split_top(s[1:-1], ",")
        if len(parts) != len(factors):
            raise ElementParseError(f"expected {len(factors)} components in {text!r}")
        return index[tuple(f.parse(p) for f, p in zip(factors, parts))]

    return dict(size=n, add=add, mul=mul, values=values, labels=labels, parser=parser)


def _first_mismatch3(lhs: np.ndarray, rhs: np.ndarray, x0: int) -> tuple:
    bad = np.argwhere(lhs != rhs)
    x, y, z = bad[0]
    return (int(x) + x0, int(y), int(z))


def additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """The generator search of ringlab.rings._additive_generators as a
    breadth-first walk: each generator is the least element not reached
    from zero by repeatedly adding earlier generators, and each step of
    the walk adds every generator to the last frontier."""
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[zero] = True
    gens: list[int] = []
    frontier = np.array([zero])
    while frontier.size or not reached.all():
        if not frontier.size:
            gens.append(int(np.argmin(reached)))
            frontier = np.flatnonzero(reached)
        step = add[np.ix_(frontier, gens)].ravel()
        frontier = np.unique(step[~reached[step]])
        reached[frontier] = True
    return gens


def check_ring_axioms(add: np.ndarray, mul: np.ndarray, size: int,
                      unity: Optional[int] = None) -> int:
    """Exhaustively verify the ring axioms; returns the zero element index.

    Raises RingAxiomError naming the violated axiom with a witness tuple.
    Cost is O(size^3); the triple loops run chunked through numpy.
    """
    n = size
    idx = np.arange(n, dtype=_TABLE_DTYPE)
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.shape != (n, n):
            raise RingAxiomError("shape", (t.shape,), f"{name} table must be {n}x{n}")
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise RingAxiomError(
                "closure", (int(bad[0]), int(bad[1])),
                f"{name} table entry out of range at {tuple(bad)}")

    if not np.array_equal(add, add.T):
        bad = np.argwhere(add != add.T)[0]
        raise RingAxiomError("additive-commutativity", (int(bad[0]), int(bad[1])),
                             "addition is not commutative")

    zero_rows = np.flatnonzero((add == idx[None, :]).all(axis=1))
    if len(zero_rows) != 1:
        raise RingAxiomError("additive-identity", (),
                             "addition table has no unique identity row")
    zero = int(zero_rows[0])

    has_inverse = (add == zero).any(axis=1)
    if not has_inverse.all():
        x = int(np.flatnonzero(~has_inverse)[0])
        raise RingAxiomError("additive-inverse", (x,), f"element {x} has no additive inverse")

    chunk = max(1, (1 << 22) // max(1, n * n))
    for x0 in range(0, n, chunk):
        rows = slice(x0, min(n, x0 + chunk))
        lhs = add[add[rows]]                      # (x+y)+z
        rhs = add[rows][:, add]                   # x+(y+z)
        if not np.array_equal(lhs, rhs):
            w = _first_mismatch3(lhs, rhs, x0)
            raise RingAxiomError("additive-associativity", w,
                                 f"(x+y)+z != x+(y+z) at {w}")
        lhs = mul[mul[rows]]                      # (x*y)*z
        rhs = mul[rows][:, mul]                   # x*(y*z)
        if not np.array_equal(lhs, rhs):
            w = _first_mismatch3(lhs, rhs, x0)
            raise RingAxiomError("multiplicative-associativity", w,
                                 f"(x*y)*z != x*(y*z) at {w}")
        lhs = mul[rows][:, add]                   # x*(y+z)
        rhs = add[mul[rows][:, :, None], mul[rows][:, None, :]]
        if not np.array_equal(lhs, rhs):
            w = _first_mismatch3(lhs, rhs, x0)
            raise RingAxiomError("left-distributivity", w,
                                 f"x*(y+z) != x*y+x*z at {w}")
    for y0 in range(0, n, chunk):
        rows = slice(y0, min(n, y0 + chunk))
        lhs = mul[add[rows]]                      # (y+z)*x arranged [y,z,x]
        rhs = add[mul[rows][:, None, :], mul[None, :, :]]
        if not np.array_equal(lhs, rhs):
            w = _first_mismatch3(lhs, rhs, y0)
            raise RingAxiomError("right-distributivity", w,
                                 f"(y+z)*x != y*x+z*x at {w}")

    if unity is not None:
        if not (np.array_equal(mul[unity], idx) and np.array_equal(mul[:, unity], idx)):
            raise RingAxiomError("unity", (unity,),
                                 f"declared unity {unity} is not a two-sided identity")
    return zero


def reference_build(spec, check: bool = False) -> FiniteRing:
    """build_ring through the loop builders, nested bases included."""
    if isinstance(spec, Zn):
        parts = _build_zn(spec)
    elif isinstance(spec, TruncPoly):
        parts = _build_trunc_poly(spec)
    elif isinstance(spec, Matrix):
        parts = _build_matrix(spec, reference_build)
    elif isinstance(spec, TriPattern):
        parts = _build_tri_pattern(spec, reference_build)
    elif isinstance(spec, Product):
        parts = _build_product(spec, reference_build)
    else:
        parts = _build_tables(spec)
    declared = spec.unity if isinstance(spec, Tables) else None
    if check:
        zero = check_ring_axioms(parts["add"], parts["mul"], parts["size"],
                                 unity=declared)
    else:
        idx = np.arange(parts["size"], dtype=_TABLE_DTYPE)
        zero = int(np.flatnonzero((parts["add"] == idx[None, :]).all(axis=1))[0])
    return FiniteRing(spec, parts["size"], parts["add"], parts["mul"], zero,
                      _detect_unity(parts["mul"]), parts["labels"],
                      parts["values"], parts["parser"])
