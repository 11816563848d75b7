"""Additive self-maps of a finite ring.

A map is stored as a full image table (element index -> element index).
On top of plain additivity the module recognizes two laws:

* derivation:        f(x*y) = f(x)*y + x*f(y)
* Jordan derivation: f(x∘y) = f(x)∘y + x∘f(y)   with  x∘y = x*y + y*x

Both defects are biadditive once f is additive, so the laws hold
everywhere exactly when they hold on pairs of additive generators; the
checkers support a full quadratic scan and a generator-pair scan, and
the two are required to agree.

Enumeration of all derivations (or Jordan derivations) walks the
generator-image search tree, pruning branches by additive order and by
the pair defects that are already decidable, and verifies each
completed table before accepting it.  Results come back sorted
lexicographically by table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .rings import ElementSet, FiniteRing, TruncPoly, RingError

_PROGRESS_EVERY = 50_000


class MapLawError(RingError):
    """A map does not satisfy the law required by an operation."""


class NotAdditiveError(MapLawError):
    """A table is not additive; carries a witness pair."""

    def __init__(self, witness, message):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# Law checks on raw tables


def _as_table(ring: FiniteRing, table) -> np.ndarray:
    if isinstance(table, AdditiveMap):
        table = table.table
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != (ring.size,):
        raise RingError(f"map table must have length {ring.size}")
    if arr.min() < 0 or arr.max() >= ring.size:
        raise RingError("map table entry out of range")
    return arr


def check_additive(ring: FiniteRing, table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(x+y) = f(x) + f(y)?  Returns (ok, witness)."""
    f = _as_table(ring, table)
    add = ring.add_table
    lhs = f[add]
    rhs = add[f[:, None], f[None, :]]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        x, y = (int(v) for v in bad[0])
        return False, (x, y)
    return True, None


def _pair_defect_ok(ring, f, x, y, law):
    add, mul = ring.add_table, ring.mul_table
    if law == "derivation":
        lhs = f[mul[x, y]]
        rhs = add[mul[f[x], y], mul[x, f[y]]]
    else:
        jxy = add[mul[x, y], mul[y, x]]
        lhs = f[jxy]
        rhs = add[add[mul[f[x], y], mul[y, f[x]]], add[mul[x, f[y]], mul[f[y], x]]]
    return int(lhs) == int(rhs)


def _check_law(ring, table, law, pairs):
    f = _as_table(ring, table)
    ok, witness = check_additive(ring, f)
    if not ok:
        raise NotAdditiveError(witness, f"map is not additive at {witness}")
    if pairs == "generators":
        basis = generator_basis(ring)
        gens = basis.generators
        for i, x in enumerate(gens):
            for j, y in enumerate(gens):
                if law == "jordan" and j < i:
                    continue
                if not _pair_defect_ok(ring, f, x, y, law):
                    return False, (int(x), int(y))
        return True, None
    add, mul = ring.add_table, ring.mul_table
    if law == "derivation":
        lhs = f[mul]
        rhs = add[mul[f][:, :], mul[:, f]]
    else:
        jt = add[mul, mul.T]          # symmetric: jt[x, y] = x∘y
        lhs = f[jt]
        rhs = add[jt[f], jt[:, f]]
    bad = np.argwhere(lhs != rhs)
    if len(bad):
        x, y = (int(v) for v in bad[0])
        return False, (x, y)
    return True, None


def check_derivation(ring: FiniteRing, table, pairs: str = "all"):
    """Leibniz check; pairs='all' scans every pair, 'generators' only
    generator pairs (equivalent for additive maps)."""
    return _check_law(ring, table, "derivation", pairs)


def check_jordan_derivation(ring: FiniteRing, table, pairs: str = "all"):
    """Jordan-law check over the symmetrized product."""
    return _check_law(ring, table, "jordan", pairs)


# ---------------------------------------------------------------------------
# The map class


class AdditiveMap:
    """A validated additive self-map with lazily computed law flags."""

    __slots__ = ("ring", "table", "_derivation", "_jordan", "_inner",
                 "_kernel", "_image", "_preimages")

    def __init__(self, ring: FiniteRing, table, *, _trusted: bool = False,
                 _derivation: Optional[bool] = None, _jordan: Optional[bool] = None,
                 _inner=-1):
        arr = _as_table(ring, table).astype(np.int32)
        if not _trusted:
            ok, witness = check_additive(ring, arr)
            if not ok:
                raise NotAdditiveError(witness, f"map is not additive at {witness}")
        arr.flags.writeable = False
        self.ring = ring
        self.table = arr
        self._derivation = _derivation
        self._jordan = _jordan
        self._inner = _inner      # -1 = unknown, None = not inner, int = witness
        self._kernel = None
        self._image = None
        self._preimages = None

    @classmethod
    def from_table(cls, ring: FiniteRing, table) -> "AdditiveMap":
        return cls(ring, table)

    def __call__(self, x: int) -> int:
        return int(self.table[ring_check(self.ring, x)])

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(int(v) for v in self.table)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AdditiveMap) and self.ring is other.ring
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((id(self.ring), self.as_tuple()))

    def __repr__(self) -> str:
        flags = []
        if self.is_derivation:
            flags.append("derivation")
        elif self.is_jordan:
            flags.append("jordan")
        return f"AdditiveMap({self.as_tuple()}{', ' + '+'.join(flags) if flags else ''})"

    # -- law flags ----------------------------------------------------------

    @property
    def is_derivation(self) -> bool:
        if self._derivation is None:
            ok, _ = check_derivation(self.ring, self.table)
            self._derivation = ok
        return self._derivation

    @property
    def is_jordan(self) -> bool:
        if self._jordan is None:
            ok, _ = check_jordan_derivation(self.ring, self.table)
            self._jordan = ok
        return self._jordan

    @property
    def inner_witness(self) -> Optional[int]:
        """An element a with self = (x -> x*a - a*x), if one exists."""
        if self._inner == -1:
            ring = self.ring
            found = None
            for a in range(ring.size):
                if np.array_equal(self.table, _inner_table(ring, a)):
                    found = a
                    break
            self._inner = found
        return self._inner

    # -- kernel / image / preimages ------------------------------------------

    @property
    def kernel(self) -> ElementSet:
        """Preimage of zero, verified to be an additive subgroup."""
        if self._kernel is None:
            ring = self.ring
            members = np.flatnonzero(self.table == ring.zero)
            closed = np.isin(ring.add_table[np.ix_(members, members)], members).all()
            if not closed or ring.zero not in members:
                raise MapLawError("kernel failed the subgroup check")
            self._kernel = ElementSet(ring, members)
        return self._kernel

    @property
    def image(self) -> ElementSet:
        if self._image is None:
            self._image = ElementSet(self.ring, np.unique(self.table))
        return self._image

    @property
    def preimages(self) -> dict[int, tuple[int, ...]]:
        """value -> sorted tuple of elements mapping to it."""
        if self._preimages is None:
            buckets: dict[int, list[int]] = {}
            for x, v in enumerate(self.table):
                buckets.setdefault(int(v), []).append(x)
            self._preimages = {v: tuple(xs) for v, xs in buckets.items()}
        return self._preimages

    def describe(self) -> dict:
        out = {
            "table": [int(v) for v in self.table],
            "additive": True,
            "derivation": self.is_derivation,
            "jordan": self.is_jordan,
            "kernel_size": len(self.kernel),
            "image_size": len(self.image),
        }
        witness = self.inner_witness
        out["inner_witness"] = witness
        if witness is not None:
            out["inner_witness_label"] = self.ring.label(witness)
        return out


def ring_check(ring: FiniteRing, x: int) -> int:
    x = int(x)
    if not 0 <= x < ring.size:
        raise RingError(f"element index {x} out of range for ring of size {ring.size}")
    return x


# ---------------------------------------------------------------------------
# Standard maps


def _inner_table(ring: FiniteRing, a: int) -> np.ndarray:
    mul, add, neg = ring.mul_table, ring.add_table, ring.neg_table
    return add[mul[:, a], neg[mul[a, :]]].astype(np.int32)


def zero_map(ring: FiniteRing) -> AdditiveMap:
    table = np.full(ring.size, ring.zero, dtype=np.int32)
    return AdditiveMap(ring, table, _trusted=True, _derivation=True,
                       _jordan=True, _inner=ring.zero)


def inner_derivation(ring: FiniteRing, a: int) -> AdditiveMap:
    """The map x -> x*a - a*x; always a derivation."""
    a = ring_check(ring, a)
    table = _inner_table(ring, a)
    ok, witness = check_derivation(ring, table)
    if not ok:
        raise MapLawError(f"inner map failed the Leibniz law at {witness}")
    return AdditiveMap(ring, table, _derivation=True, _jordan=True, _inner=a)


def formal_derivative(ring: FiniteRing) -> AdditiveMap:
    """Coefficient-shift derivative on a truncated polynomial ring."""
    if not isinstance(ring.spec, TruncPoly):
        raise RingError("the formal derivative needs a truncated polynomial ring")
    p, m = ring.spec.p, ring.spec.m
    table = np.empty(ring.size, dtype=np.int32)
    for x in range(ring.size):
        coeffs = ring.value(x)
        deriv = tuple(((k + 1) * coeffs[k + 1]) % p if k + 1 < m else 0
                      for k in range(m))
        table[x] = ring.index_of_value(deriv)
    ok, witness = check_derivation(ring, table)
    if not ok:
        raise MapLawError(f"the formal derivative of Z{p}[X]/(X^{m}) fails "
                          f"the Leibniz law at {witness}")
    return AdditiveMap(ring, table, _derivation=True, _jordan=True)


def image(ring: FiniteRing, f: AdditiveMap) -> ElementSet:
    if f.ring is not ring:
        raise RingError("map belongs to a different ring")
    return f.image


def kernel(ring: FiniteRing, f: AdditiveMap) -> ElementSet:
    if f.ring is not ring:
        raise RingError("map belongs to a different ring")
    return f.kernel


# ---------------------------------------------------------------------------
# Generator basis


@dataclass(frozen=True)
class GeneratorBasis:
    """A spanning sequence for (R, +) with one stored decomposition per element.

    generators[t] has additive order orders[t]; decomp[e] is a coefficient
    tuple with decomp[e][t] < orders[t] and sum(decomp[e][t] * generators[t])
    equal to e.  Generators are chosen greedily: always a maximal-order
    element outside the current span, ties broken by smallest index.
    """

    ring: FiniteRing
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    decomp: tuple[tuple[int, ...], ...]


def generator_basis(ring: FiniteRing) -> GeneratorBasis:
    n = ring.size
    order = [ring.additive_order(x) for x in range(n)]
    decomp: dict[int, tuple[int, ...]] = {ring.zero: ()}
    gens: list[int] = []
    gen_orders: list[int] = []
    while len(decomp) < n:
        outside = [x for x in range(n) if x not in decomp]
        g = max(outside, key=lambda x: (order[x], -x))
        o = order[g]
        k = len(gens)
        multiples = [ring.zero]
        for _ in range(o - 1):
            multiples.append(int(ring.add_table[multiples[-1], g]))
        snapshot = sorted(decomp)
        for c in range(1, o):
            mg = multiples[c]
            for e in snapshot:
                e2 = int(ring.add_table[e, mg])
                if e2 not in decomp:
                    base = decomp[e]
                    decomp[e2] = base + (0,) * (k - len(base)) + (c,)
        gens.append(g)
        gen_orders.append(o)
    k = len(gens)
    full = tuple(decomp[e] + (0,) * (k - len(decomp[e])) for e in range(n))
    return GeneratorBasis(ring, tuple(gens), tuple(gen_orders), full)


# ---------------------------------------------------------------------------
# Enumeration


def _enumerate_by_law(ring: FiniteRing, law: str,
                      progress: Optional[Callable[[dict], None]] = None) -> list[AdditiveMap]:
    basis = generator_basis(ring)
    gens, orders, decomp = basis.generators, basis.orders, basis.decomp
    k = len(gens)
    n = ring.size
    add, mul = ring.add_table, ring.mul_table
    stats = {"nodes": 0, "pruned": 0, "found": 0}

    def report(force=False):
        if progress and (force or stats["nodes"] % _PROGRESS_EVERY == 0):
            progress(dict(stats))

    if k == 0:
        zmap = zero_map(ring)
        stats["found"] = 1
        report(force=True)
        return [zmap]

    elem_order = [ring.additive_order(x) for x in range(n)]
    candidates = [[x for x in range(n) if orders[t] % elem_order[x] == 0]
                  for t in range(k)]

    cover = [max((t for t, c in enumerate(decomp[e]) if c), default=-1)
             for e in range(n)]

    # pair (i, j) with its constrained product element, grouped by the search
    # depth at which every needed image is known
    schedule: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if law == "jordan" and j < i:
                continue
            if law == "jordan":
                prod = int(add[mul[gens[i], gens[j]], mul[gens[j], gens[i]]])
            else:
                prod = int(mul[gens[i], gens[j]])
            step = max(i, j, cover[prod])
            schedule[step].append((i, j, prod))

    images = [0] * k
    mults: list[list[int]] = [[] for _ in range(k)]
    found_tables: list[tuple[int, ...]] = []

    def feval(e: int) -> int:
        v = ring.zero
        for t, c in enumerate(decomp[e]):
            if c:
                v = int(add[v, mults[t][c]])
        return v

    def pair_ok(i: int, j: int, prod: int) -> bool:
        gi, gj = gens[i], gens[j]
        fi, fj = images[i], images[j]
        if law == "jordan":
            rhs = int(add[add[mul[fi, gj], mul[gj, fi]],
                          add[mul[gi, fj], mul[fj, gi]]])
        else:
            rhs = int(add[mul[fi, gj], mul[gi, fj]])
        return feval(prod) == rhs

    def finalize():
        table = np.empty(n, dtype=np.int32)
        for e in range(n):
            table[e] = feval(e)
        ok, _ = check_additive(ring, table)
        if ok:
            found_tables.append(tuple(int(v) for v in table))
            stats["found"] += 1

    def rec(t: int):
        if t == k:
            finalize()
            return
        for img in candidates[t]:
            images[t] = img
            m = [ring.zero]
            for _ in range(orders[t] - 1):
                m.append(int(add[m[-1], img]))
            mults[t] = m
            stats["nodes"] += 1
            report()
            if all(pair_ok(i, j, prod) for (i, j, prod) in schedule[t]):
                rec(t + 1)
            else:
                stats["pruned"] += 1

    rec(0)
    report(force=True)

    out = []
    for table in sorted(set(found_tables)):
        if law == "jordan":
            out.append(AdditiveMap(ring, np.array(table, dtype=np.int32),
                                   _trusted=True, _jordan=True))
        else:
            out.append(AdditiveMap(ring, np.array(table, dtype=np.int32),
                                   _trusted=True, _derivation=True, _jordan=True))
    return out


def enumerate_derivations(ring: FiniteRing, progress=None) -> list[AdditiveMap]:
    """All maps satisfying the Leibniz law, sorted by table."""
    return _enumerate_by_law(ring, "derivation", progress)


def enumerate_jordan_derivations(ring: FiniteRing, progress=None) -> list[AdditiveMap]:
    """All maps satisfying the Jordan law, sorted by table."""
    return _enumerate_by_law(ring, "jordan", progress)
