"""Additive self-maps of a finite ring.

A map is stored as a full image table (element index -> element index).
On top of plain additivity the module recognizes two laws:

* derivation:        f(x*y) = f(x)*y + x*f(y)
* Jordan derivation: f(x∘y) = f(x)∘y + x∘f(y)   with  x∘y = x*y + y*x

Both defects are biadditive once f is additive, so the laws hold
everywhere exactly when they hold on pairs of additive generators.
One evaluator, _law_holds, states additivity and both laws, for one
table or a block of tables, on rows x against every y or on generator
pairs, and _on_generators proves them from generator pairs for every
entry point: the listers, the theorem checkers, the check_* functions,
the map constructors and the law flags.  Only where a proof fails are
pairs walked, in row blocks of at most _BLOCK cells up to the first
failing block, to name the first failing pair (_first_failure).

Der(R) and JDer(R) are kernels of linear systems over Z/N.  In a
direct-sum generator basis of (R, +) an additive map is fixed by the
coordinates of its generator images, and either law on generator pairs
is linear in them.  One Howell-form reduction (Howell 1986; Storjohann
and Mulders 1998) gives a kernel basis and the exact count before
anything is listed.  The basis and each law's solution are computed at
most once per ring and kept on it.  Both laws are listed from that basis
by one lister, in bounded blocks of whole maps, each block checked for
additivity and its law and the whole listing sorted.  A derivation
count above MAX_LISTED_MAPS is refused with TooManyMapsError.  JDer(R) is
not capped yet: Z2[X]/(X^5), with 2^25 Jordan derivations, is listed in
full however long that takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .rings import (ElementSet, FiniteRing, TruncPoly, RingError, _orders_modulo,
                    _row_blocks, _times)

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
    """A table from outside the listers, checked for shape, type and range."""
    if isinstance(table, AdditiveMap):
        table = table.table
    try:
        arr = np.asarray(table)
    except ValueError:      # ragged nesting
        raise RingError(f"map table must have length {ring.size}") from None
    if arr.shape != (ring.size,):
        raise RingError(f"map table must have length {ring.size}")
    if arr.dtype.kind not in "iu":
        raise RingError("map table entries must be integers")
    if arr.min() < 0 or arr.max() >= ring.size:
        raise RingError("map table entry out of range")
    return arr.astype(np.intp)      # numpy indexes fastest with intp


def _law_holds(ring: FiniteRing, F: np.ndarray, law: str,
               gens: Optional[np.ndarray] = None,
               rows: Optional[np.ndarray] = None) -> np.ndarray:
    """Where a law holds for the table F, or for each table of a block F:
    on the pairs (x, y) of each x of rows (every x by default) and every
    y, a (len(rows), n) result per table in row-major order, when gens is
    None; else on the pairs (x, g) of every x and every generator g for
    "additive", (n, k), and on generator pairs (g, h) for "derivation" and
    "jordan", (k, k).

    With x ⋆ y the sum for "additive", the product for "derivation" and
    x∘y = xy + yx for "jordan", the laws are

        additive:            f(x + y) = f(x) + f(y)
        derivation, jordan:  f(x ⋆ y) = f(x) ⋆ y + x ⋆ f(y)

    On rows each term is a gather of the result's shape (x∘y two products
    and a sum), so no pair table is larger than the result.  On generators
    "jordan" builds only the k columns x∘g, an n×k table, and reads g∘f(h)
    there as f(h)∘g, since x∘y = y∘x.  The gathers go through index arrays,
    not slices: add[:, gens] is laid out in Fortran order, and F[..., x]
    and F[..., ys] index the tables about twice as fast as views of F.
    """
    add, mul = ring.add_table, ring.mul_table
    x = (np.arange(ring.size) if rows is None else rows)[:, None]
    if gens is None:
        y = np.arange(ring.size)
        Fx, Fy = F[..., x], F[..., None, :]
        if law == "additive":
            return F[..., add[x, y]] == add[Fx, Fy]

        def star(a, b):         # a ⋆ b of the product laws
            return mul[a, b] if law == "derivation" else add[mul[a, b], mul[b, a]]

        return F[..., star(x, y)] == add[star(Fx, y), star(x, Fy)]
    ys = gens[None, :]
    Fx, Fy = F[..., ys.T], F[..., ys]
    if law == "additive":
        return F[..., add[x, ys]] == add[F[..., x], Fy]
    if law == "derivation":
        return F[..., mul[ys.T, ys]] == add[mul[Fx, ys], mul[ys.T, Fy]]
    col = add[mul[x, ys], mul[ys.T, x.T].T]         # col[x, j] = x∘g_j
    j = np.arange(len(gens))
    return F[..., col[gens]] == add[col[Fx, j], col[Fy, j[:, None]]]


def _first_failure(ring: FiniteRing, f: np.ndarray,
                   law: str) -> tuple[bool, Optional[tuple[int, int]]]:
    """(ok, witness) of law on every pair of the table f, the witness the
    first failing pair in row-major order: rows x against every y are
    walked in _row_blocks up to the first block with a failure, so no
    step holds more than _BLOCK cells."""
    n = ring.size
    for x in _row_blocks(n, n):
        holds = _law_holds(ring, f, law, rows=x)
        if not holds.all():
            i, y = divmod(int(np.argmin(holds)), n)
            return False, (int(x[i]), y)
    return True, None


def _check(ring: FiniteRing, f: np.ndarray,
           law: str) -> tuple[bool, Optional[tuple[int, int]]]:
    """(ok, witness) of law on every pair of the table f, which must be
    additive unless law is "additive".  _on_generators proves the law from
    generators; only where that proof fails does _first_failure walk the
    pairs, to name the first failing pair in row-major order."""
    if _on_generators(ring, _generators(ring), f, (law,))[law]:
        return True, None
    return _first_failure(ring, f, law)


def _additive_table(ring: FiniteRing, table) -> np.ndarray:
    """The table as an array; NotAdditiveError if it is not additive."""
    f = _as_table(ring, table)
    ok, witness = _check(ring, f, "additive")
    if not ok:
        raise NotAdditiveError(witness, f"map is not additive at {witness}")
    return f


def check_additive(ring: FiniteRing, table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(x+y) = f(x) + f(y)?  Returns (ok, witness),
    the witness the first failing pair (x, y) in row-major order."""
    return _check(ring, _as_table(ring, table), "additive")


def check_derivation(ring: FiniteRing, table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(xy) = f(x)y + xf(y)?  Returns (ok, witness)
    as check_additive does; a table that is not additive raises
    NotAdditiveError."""
    return _check(ring, _additive_table(ring, table), "derivation")


def check_jordan_derivation(ring: FiniteRing,
                            table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(x∘y) = f(x)∘y + x∘f(y), x∘y = xy + yx?
    Returns (ok, witness) as check_derivation does."""
    return _check(ring, _additive_table(ring, table), "jordan")


# ---------------------------------------------------------------------------
# Fibres, one implementation for a block of tables and for one map
#
# A block is a (B, n) stack D of tables; one map is the one-row block
# table[None].  The fibre of v under map b is {y : D[b, y] = v}: its
# kernel is the fibre of zero, and its image the v with a nonempty fibre.
# _kernels and _images read a block whose maps share one kernel size and
# one image size, one row a map.  An additive map's nonempty fibres are
# cosets of its kernel, so its widest fibre is its kernel and its image
# has n / |Ker| elements: its widest fibre fixes its shape, and only
# tables that are not additive can differ in shape at one width.  Fibres
# themselves are read padded (_members), as such a table's fibres may
# differ in size and an empty fibre has no cells.


def _counts(D: np.ndarray) -> np.ndarray:
    """count[b, v] = |{y : D[b, y] = v}|, the fibre sizes of the block D."""
    B, n = D.shape
    return np.bincount((D + n * np.arange(B)[:, None]).ravel(),
                       minlength=B * n).reshape(B, n)


def _fibres_of(D: np.ndarray):
    """(order, count, start) of every table of the block D.  order[b]
    lists the elements by (D[b, y], y), so the fibre of v under map b is
    order[b, start[b, v]:start[b, v] + count[b, v]], in increasing order."""
    count = _counts(D)
    return (np.argsort(D, axis=1, kind="stable"), count,
            np.cumsum(count, axis=1) - count)


def _members(fibres, b, v, width: int):
    """(members, present): the fibre of v[...] under map b[...], padded to
    width cells, of which present marks the fibre's own."""
    order, count, start = fibres
    b, cols = np.asarray(b), np.arange(width)
    pos = np.minimum(start[b, v][..., None] + cols, order.shape[1] - 1)
    return order[b[..., None], pos], cols < count[b, v][..., None]


def _reps(fibres, b, v):
    """The least element of the fibre of v[...] under map b[...], where
    that fibre is nonempty: its first cell, as _members reads it."""
    order, _, start = fibres
    return order[b, np.minimum(start[b, v], order.shape[1] - 1)]


def _kernels(ring: FiniteRing, D: np.ndarray) -> np.ndarray:
    """Each map's kernel in increasing order, one row per map of the block
    D, whose maps have one kernel size; checked by _check_kernels."""
    K = np.nonzero(D == ring.zero)[1].reshape(len(D), -1)
    _check_kernels(ring, D, K)
    return K


def _check_kernels(ring: FiniteRing, D: np.ndarray, K: np.ndarray) -> None:
    """Raise MapLawError unless every map of the block D maps zero to zero
    and has a kernel closed under addition; row b of K is map b's kernel.
    The closure check reads D through one flat index, b·n added in place to
    the sums t: numpy gathers that about twice as fast as D[b, t], and the
    index needs no array of its own."""
    B, n = D.shape
    zero = ring.zero
    if not (D[:, zero] == zero).all():
        raise MapLawError("kernel failed the subgroup check")
    flat = D.ravel()
    for b in _row_blocks(B, K.shape[1] ** 2):
        k = K[b]
        sums = ring.add_table[k[:, :, None], k[:, None, :]]
        sums += (b * n).astype(sums.dtype)[:, None, None]
        if not (flat[sums] == zero).all():
            raise MapLawError("kernel failed the subgroup check")


def _images(count: np.ndarray) -> np.ndarray:
    """Each map's image in increasing order, one row per map of a block
    whose maps have one image size, from its fibre sizes count."""
    return np.nonzero(count)[1].reshape(len(count), -1)


# ---------------------------------------------------------------------------
# The map class


class AdditiveMap:
    """A validated additive self-map with lazily computed law flags."""

    __slots__ = ("ring", "table", "_derivation", "_jordan", "_inner", "_fibres",
                 "_kernel")

    def __init__(self, ring: FiniteRing, table, *, _trusted: bool = False,
                 _derivation: Optional[bool] = None, _jordan: Optional[bool] = None,
                 _inner=-1):
        arr = (np.asarray(table, dtype=np.int32) if _trusted
               else _additive_table(ring, table).astype(np.int32))
        arr.flags.writeable = False
        self.ring = ring
        self.table = arr
        self._derivation = _derivation
        self._jordan = _jordan
        self._inner = _inner      # -1 = unknown, None = not inner, int = witness
        self._fibres = self._kernel = None

    @classmethod
    def from_table(cls, ring: FiniteRing, table) -> "AdditiveMap":
        """AdditiveMap(ring, table).  It stays only while the benchmark
        harness calls it, and goes with the next change to the benchmark."""
        return cls(ring, table)

    def __call__(self, x: int) -> int:
        return int(self.table[self.ring._check_index(x)])

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

    def _holds(self, law: str) -> bool:
        """Whether the table satisfies law on every pair: proved from
        generators where additivity on (x, generator) pairs shows the table
        additive, and else _first_failure's verdict, which a table passed
        as _trusted without being additive gets."""
        holds = _on_generators(self.ring, _generators(self.ring), self.table,
                               ("additive", law))
        if holds["additive"]:
            return bool(holds[law])
        return _first_failure(self.ring, self.table, law)[0]

    @property
    def is_derivation(self) -> bool:
        if self._derivation is None:
            self._derivation = self._holds("derivation")
        return self._derivation

    @property
    def is_jordan(self) -> bool:
        if self._jordan is None:
            self._jordan = self._holds("jordan")
        return self._jordan

    @property
    def inner_witness(self) -> Optional[int]:
        """The least element a with self = (x -> x*a - a*x), if one exists.
        The ring keeps, from its first such question on, a dict from each
        inner table's bytes to its least a, so the maps of a listing share
        one n×n inner table."""
        if self._inner == -1:
            ring = self.ring
            witnesses = ring._inner_witnesses
            if witnesses is None:
                rows = _inner_table(ring, np.arange(ring.size)[:, None])
                # a falls, so the least a of equal rows is the one kept
                witnesses = {rows[a].tobytes(): a for a in range(ring.size - 1, -1, -1)}
                ring._inner_witnesses = witnesses       # published whole
            self._inner = witnesses.get(self.table.tobytes())
        return self._inner

    # -- kernel / image / fibres ----------------------------------------------

    @property
    def fibres(self):
        """_fibres_of(table[None]), read-only, counted on first use and
        published by one assignment: another thread sees none or all."""
        if self._fibres is None:
            fibres = _fibres_of(self.table[None])
            for arr in fibres:
                arr.flags.writeable = False
            self._fibres = fibres
        return self._fibres

    @property
    def kernel(self) -> ElementSet:
        """Preimage of zero, verified to be an additive subgroup on first
        use and then kept, as each integral holds it."""
        if self._kernel is None:
            kernel = _kernels(self.ring, self.table[None])[0]
            self._kernel = ElementSet(self.ring, kernel.tolist())
        return self._kernel

    @property
    def image(self) -> ElementSet:
        return ElementSet(self.ring, _images(_counts(self.table[None]))[0].tolist())

    def describe(self) -> dict:
        """The map's JSON profile: _describe_maps of the one map."""
        return _describe_maps([self])[0]


def _tables(maps: list[AdditiveMap], ids: np.ndarray) -> np.ndarray:
    """The (len(ids), n) stack of the tables of maps[ids], int32 as listed."""
    return np.stack([maps[i].table for i in ids.tolist()])


def _describe_maps(maps: list[AdditiveMap]) -> list[dict]:
    """describe() of each map of a list of one ring's maps, on blocks of
    whole maps: _counts gives the kernel and image sizes, and the maps of
    each kernel size in a block take _kernels together.  The inner witness
    is one dict lookup a map."""
    if not maps:
        return []
    ring = maps[0].ring
    n, zero = ring.size, ring.zero
    out = []
    for ids in _row_blocks(len(maps), n):
        D = _tables(maps, ids)
        count = _counts(D)
        kernel = count[:, zero]
        for size in np.unique(kernel).tolist():
            _kernels(ring, D[kernel == size])
        for b, table, k, i in zip(ids.tolist(), D.tolist(), kernel.tolist(),
                                  np.count_nonzero(count, axis=1).tolist()):
            amap = maps[b]
            witness = amap.inner_witness
            entry = {"table": table, "additive": True, "derivation": amap.is_derivation,
                     "jordan": amap.is_jordan, "kernel_size": k, "image_size": i,
                     "inner_witness": witness}
            if witness is not None:
                entry["inner_witness_label"] = ring.label(witness)
            out.append(entry)
    return out


def _require_map(ring: FiniteRing, dmap: AdditiveMap, law: str) -> None:
    """Raise unless dmap belongs to ring and satisfies law, "derivation"
    or "jordan"."""
    if dmap.ring is not ring:
        raise RingError("map belongs to a different ring")
    if law == "derivation" and not dmap.is_derivation:
        raise MapLawError("map is not a validated derivation")
    if law == "jordan" and not dmap.is_jordan:
        raise MapLawError("map is not a validated Jordan derivation")


# ---------------------------------------------------------------------------
# Standard maps


def _inner_table(ring: FiniteRing, a) -> np.ndarray:
    """x -> x*a - a*x for every x: one table for an element a, and one row
    per element for a column of elements."""
    mul, add, neg = ring.mul_table, ring.add_table, ring.neg_table
    x = np.arange(ring.size)
    return add[mul[x, a], neg[mul[a, x]]].astype(np.int32, copy=False)


def zero_map(ring: FiniteRing) -> AdditiveMap:
    table = np.full(ring.size, ring.zero, dtype=np.int32)
    return AdditiveMap(ring, table, _trusted=True, _derivation=True,
                       _jordan=True, _inner=ring.zero)


def inner_derivation(ring: FiniteRing, a: int) -> AdditiveMap:
    """The map x -> x*a - a*x; always a derivation."""
    a = ring._check_index(a)
    table = _inner_table(ring, a)
    ok, witness = check_derivation(ring, table)
    if not ok:
        raise MapLawError(f"inner map failed the Leibniz law at {witness}")
    return AdditiveMap(ring, table, _trusted=True, _derivation=True,
                       _jordan=True, _inner=a)


def formal_derivative(ring: FiniteRing) -> AdditiveMap:
    """Coefficient-shift derivative on a truncated polynomial ring."""
    if not isinstance(ring.spec, TruncPoly):
        raise RingError("the formal derivative needs a truncated polynomial ring")
    p, m = ring.spec.p, ring.spec.m
    # x's coefficient of X^k is digit m-1-k of x in base p (constant term
    # most significant), and d/dX takes it, times k, to X^(k-1)
    weights = p ** np.arange(m - 1, -1, -1)
    coeffs = np.arange(ring.size)[:, None] // weights % p
    table = (np.arange(1, m) * coeffs[:, 1:] % p @ weights[:-1]).astype(np.int32)
    ok, witness = check_derivation(ring, table)
    if not ok:
        raise MapLawError(f"the formal derivative of Z{p}[X]/(X^{m}) fails "
                          f"the Leibniz law at {witness}")
    return AdditiveMap(ring, table, _trusted=True, _derivation=True,
                       _jordan=True)


# ---------------------------------------------------------------------------
# Generator basis


@dataclass(frozen=True, eq=False)
class GeneratorBasis:
    """A direct-sum basis of (R, +): (R, +) = ⊕ <generators[t]>.

    generators[t] has additive order orders[t], and the orders multiply
    to |R|, so every element e has exactly one coordinate row decomp[e]
    with decomp[e, t] < orders[t] and sum(decomp[e, t] * generators[t])
    equal to e.  Each step picks the element of largest order modulo the
    span so far, ties broken by smallest index, and lifts it within its
    coset of the span so that its own order equals that quotient order.
    """

    ring: FiniteRing
    generators: np.ndarray      # intp; all three arrays are read-only
    orders: np.ndarray          # int64
    decomp: np.ndarray          # int64, n×k


def generator_basis(ring: FiniteRing) -> GeneratorBasis:
    """The ring's basis, computed on first use and kept on the ring."""
    if ring._basis is None:
        ring._basis = _generator_basis(ring)      # published whole
    return ring._basis


def _generator_basis(ring: FiniteRing) -> GeneratorBasis:
    n = ring.size
    add, zero = ring.add_table, ring.zero
    member = np.zeros(n, dtype=bool)      # in the span so far
    member[zero] = True
    coords = np.zeros((n, 0), dtype=np.int64)   # rows of members are valid
    gens: list[int] = []
    gen_orders: list[int] = []
    while not member.all():
        quotient = _orders_modulo(add, member)   # least q >= 1 with q·x in the span
        x = int(np.argmax(quotient))      # the first maximum: smallest index
        o = int(quotient[x])
        # o·x = Σ a_t g_t, and x − Σ (a_t/o)·g_t has order o.  o divides
        # every a_t because the span is a pure subgroup: each generator had
        # the largest order modulo the span before it.
        a = coords[_times(add, x, o, zero)]
        for t, g in enumerate(gens):
            x = int(add[x, ring.neg_table[_times(add, g, int(a[t]) // o, zero)]])
        # c·x for c < o by doubling: with m the multiples for c < 2^k,
        # those for 2^k <= c < 2^(k+1) are m + 2^k·x
        multiples, step = np.array([zero]), x
        while len(multiples) < o:
            multiples = np.concatenate([multiples, add[multiples, step]])[:o]
            step = int(add[step, step])
        # c·x + s for every member s, with its coordinates and then c, in
        # one scatter; c = 0 rewrites the members' own rows
        members = np.flatnonzero(member)
        targets = add[multiples[:, None], members].ravel()
        rows = np.empty((o, len(members), len(gens) + 1), dtype=np.int64)
        rows[:, :, :-1] = coords[members]
        rows[:, :, -1] = np.arange(o)[:, None]
        coords = np.zeros((n, len(gens) + 1), dtype=np.int64)
        coords[targets] = rows.reshape(-1, len(gens) + 1)
        member[targets] = True
        gens.append(x)
        gen_orders.append(o)
    arrays = np.array(gens, dtype=np.intp), np.array(gen_orders, dtype=np.int64), coords
    for arr in arrays:
        arr.flags.writeable = False
    return GeneratorBasis(ring, *arrays)


# ---------------------------------------------------------------------------
# Both laws: the kernel of a linear system over Z/N


MAX_LISTED_MAPS = 65536


class TooManyMapsError(RingError):
    """A listing would hold more than MAX_LISTED_MAPS maps; carries the
    exact count."""

    def __init__(self, count: int, message: str):
        super().__init__(message)
        self.count = count


def _leibniz_rows(o: np.ndarray, P: np.ndarray, law: str) -> np.ndarray:
    """Rows over Z/N, N = max(o), whose kernel is Der(R), or JDer(R) for
    law "jordan"; o holds the generator orders.

    Unknown t·k + s is U[t, s] = (N/o_s)·D[t, s], where D[t, s] is
    coordinate s of d(g_t); multiplying by N/o_s embeds Z/o_s in Z/N.
    P[i, j] holds the coordinates of g_i·g_j.  The rows state:

    * gcd(o_t, o_s)·U[t, s] ≡ 0, i.e. U[t, s] is such an embedding
      (o_s) of a coordinate that o_t·d(g_t) = 0 allows (o_t);
    * for every (i, j, q), coordinate q of d(g_i g_j) = d(g_i) g_j +
      g_i d(g_j), scaled by N/o_q:
      Σ_t P[i,j,t]·U[t,q] − Σ_s (o_s/o_q)·(P[s,j,q]·U[i,s] + P[i,s,q]·U[j,s]).
      o_s·P[s,j,q] and o_s·P[i,s,q] are multiples of o_q because
      o_s·g_s = 0, so every coefficient is an integer.
    The Jordan defect at (x, y) is the Leibniz one at (x, y) plus the one
    at (y, x), so for law "jordan" row (j, i, q) is added to row (i, j, q).
    """
    k = len(o)
    A = np.zeros((k, k, k, k, k), dtype=np.int64)      # [i, j, q, t, s]
    for q in range(k):
        A[:, :, q, :, q] += P
    left = o[:, None, None] * P // o                    # [s, j, q]
    right = o[None, :, None] * P // o                   # [i, s, q]
    for i in range(k):
        A[i, :, :, i, :] -= left.transpose(1, 2, 0)
        A[:, i, :, i, :] -= right.transpose(0, 2, 1)
    if law == "jordan":
        A += A.transpose(1, 0, 2, 3, 4)
    order_rows = np.diag(np.gcd.outer(o, o).ravel())
    return np.vstack([A.reshape(k ** 3, k * k), order_rows]) % int(o.max(initial=1))


def _unit_to_gcd(a: int, N: int) -> int:
    """A unit u of Z/N with u·a ≡ gcd(a, N)."""
    g = gcd(a, N)
    u = pow(a // g, -1, N // g)
    while gcd(u, N) != 1:
        u += N // g
    return u


def _howell_form(M: np.ndarray, N: int) -> tuple[np.ndarray, list[int]]:
    """Howell form of the row span of M over Z/N.

    Returns (H, cols): H's rows are in echelon form, the pivot of row i
    sits in column cols[i], divides N and has the entries above it
    reduced modulo it, and for every column c the rows with pivot at or
    after c span every vector of the span that is zero before c (Howell
    1986).  So each vector of the span is Σ c_i·H[i] for exactly one
    choice of 0 ≤ c_i < N/H[i, cols[i]].  For prime N this is row
    reduction over F_N.
    """
    rows = np.asarray(M, dtype=np.int64) % N
    out: list[np.ndarray] = []
    cols: list[int] = []
    for c in range(rows.shape[1]):
        live = rows[:, c] != 0
        if not live.any():
            continue
        others = rows[live]
        piv = others[0] * _unit_to_gcd(int(others[0, c]), N) % N
        others = others[1:]
        while True:
            a = int(piv[c])
            stuck = np.flatnonzero(others[:, c] % a)
            if not len(stuck):
                break
            # gcdex: (piv, row) -> (s·piv + t·row, (b/g)·piv − (a/g)·row)
            r = int(stuck[0])
            row = others[r]
            b = int(row[c])
            g = gcd(a, b)
            s = pow(a // g, -1, b // g) if b // g > 1 else 0
            t = (g - s * a) // b
            piv, others[r] = ((s * piv + t * row) % N,
                              ((b // g) * piv - (a // g) * row) % N)
        a = int(piv[c])
        others = (others - (others[:, c] // a)[:, None] * piv) % N
        # the multiple of piv that is zero at c stays in the span to reduce
        rows = np.vstack([rows[~live], others, (N // a) * piv % N])
        rows = rows[rows.any(axis=1)]
        out.append(piv)
        cols.append(c)
    H = np.array(out, dtype=np.int64).reshape(len(out), rows.shape[1])
    for i, c in enumerate(cols):
        H[:i] = (H[:i] - (H[:i, c] // H[i, c])[:, None] * H[i]) % N
    return H, cols


def _kernel_basis(A: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, radix): the solutions x of A·x ≡ 0 (mod N) are the Σ c_i·B[i]
    with 0 ≤ c_i < radix[i], each once.  The rows of the Howell form of
    [Aᵀ | I] whose left block is zero span the kernel, and radix[i] is
    N over the pivot of B[i]."""
    m, u = A.shape
    H, cols = _howell_form(np.hstack([A.T, np.eye(u, dtype=np.int64)]), N)
    kernel = [(i, c) for i, c in enumerate(cols) if c >= m]
    radix = np.array([N // int(H[i, c]) for i, c in kernel], dtype=np.int64)
    return H[[i for i, _ in kernel], m:].reshape(len(kernel), u), radix


def _generators(ring: FiniteRing) -> np.ndarray:
    """Elements whose sums give every element of (R, +): those the checked
    build found, or else the generator basis' generators."""
    gens = ring._generators
    return generator_basis(ring).generators if gens is None else gens


def _on_generators(ring: FiniteRing, gens: np.ndarray, F: np.ndarray,
                   laws) -> dict[str, np.ndarray]:
    """For each law of laws, where each table of the block F satisfies it:
    "additive" on the pairs (x, g) of every x and every generator g, and
    "derivation" or "jordan" on generator pairs.  gens must give every
    element of (R, +) as a sum.

    Where a table is additive, these prove the laws on every pair.
    Additivity on (x, g) is exact: x = 0 gives f(0) = 0, and induction on a
    sum of generators y gives f(x + y) = f(x) + f(y).  Both sides of either
    product law are then biadditive in (x, y), so they agree everywhere when
    they agree on generator pairs."""
    return {law: _law_holds(ring, F, law, gens).all(axis=(-2, -1)) for law in laws}


def _check_listed(ring: FiniteRing, gens: np.ndarray, F: np.ndarray,
                  law: str) -> np.ndarray:
    """Every table of the block F is additive and satisfies law on
    generator pairs, or its lister is at fault.  Returns where the Leibniz
    law holds on generator pairs, and so everywhere (see _on_generators)."""
    holds = _on_generators(ring, gens, F, dict.fromkeys(("additive", "derivation", law)))
    listed = holds["additive"] & holds[law]
    if not listed.all():
        bad = int(np.argmin(listed))
        raise MapLawError(f"the {law} lister listed {F[bad].tolist()}, "
                          f"which fails the additive or {law} law check")
    return holds["derivation"]


def _listed_maps(ring: FiniteRing, law: str, basis: GeneratorBasis, H: np.ndarray,
                 radix: np.ndarray, total: int) -> list[AdditiveMap]:
    """The total maps of law that _solve gave as basis, H and radix,
    checked by _check_listed and sorted by table, each table a read-only
    row of one (total, n) block.  Map id b has kernel coordinates c_i,
    the digits of b in mixed radix over radix."""
    n, k = ring.size, len(basis.generators)
    o, coords, gens = basis.orders, basis.decomp, basis.generators
    N = int(o.max(initial=1))
    # element index from coordinates, by mixed radix over the orders
    strides = np.cumprod(np.concatenate([[1], o]))[:-1].astype(np.int64)
    element = np.empty(n, dtype=np.int32)
    element[coords @ strides] = np.arange(n)
    digit_strides = np.cumprod(np.concatenate([[1], radix]))[:-1].astype(np.int64)
    blocks, leibniz = [], []
    # a listed map's largest temporaries are its n×k images and k×k D
    for ids in _row_blocks(total, max(1, k) * (n + k)):
        D = ((ids[:, None] // digit_strides % radix @ H % N)
             .reshape(len(ids), k, k) // (N // o))
        images = np.einsum("et,bts->bes", coords, D) % o
        blocks.append(element[images @ strides])
        leibniz.append(_check_listed(ring, gens, blocks[-1], law))
    tables, leibniz = np.concatenate(blocks), np.concatenate(leibniz)
    tables.flags.writeable = False
    return [AdditiveMap(ring, tables[b], _trusted=True,
                        _derivation=bool(leibniz[b]), _jordan=True)
            for b in np.lexsort(tables.T[::-1])]


def _solve(ring: FiniteRing, law: str):
    """(basis, H, radix, total) for law: its maps' unknowns U (see _leibniz_rows)
    are the Σ c_i·H[i] with 0 ≤ c_i < radix[i], each once, and total counts
    them.  Solved on first use and kept on the ring; H and radix are
    read-only."""
    solved = ring._solutions.get(law)
    if solved is None:
        basis = generator_basis(ring)
        o, gens = basis.orders, basis.generators
        A = _leibniz_rows(o, basis.decomp[ring.mul_table[np.ix_(gens, gens)]], law)
        H, radix = _kernel_basis(np.unique(A[A.any(axis=1)], axis=0),
                                 int(o.max(initial=1)))
        H.flags.writeable = radix.flags.writeable = False
        solved = basis, H, radix, math.prod(map(int, radix))    # Python ints do not wrap
        ring._solutions[law] = solved       # published whole
    return solved


def _enumerate(ring: FiniteRing, law: str, progress) -> list[AdditiveMap]:
    """All maps of law, listed from the kernel that _solve counts first.
    progress, if given, gets one dict: the count as nodes and found,
    pruned 0."""
    basis, H, radix, total = _solve(ring, law)
    # JDer(R) gets the same refusal once the benchmark records its
    # tp2-5.jordan rung as refused rather than over budget
    if law == "derivation" and total > MAX_LISTED_MAPS:
        raise TooManyMapsError(
            total, f"the ring has {total} derivations, more than the "
                   f"{MAX_LISTED_MAPS} a listing may hold")
    if progress:
        progress({"nodes": total, "pruned": 0, "found": total})
    return _listed_maps(ring, law, basis, H, radix, total)


def enumerate_derivations(ring: FiniteRing, progress=None) -> list[AdditiveMap]:
    """All maps satisfying the Leibniz law, sorted by table; more than
    MAX_LISTED_MAPS raise TooManyMapsError with the count."""
    return _enumerate(ring, "derivation", progress)


def enumerate_jordan_derivations(ring: FiniteRing,
                                 progress=None) -> list[AdditiveMap]:
    """All maps satisfying the Jordan law, sorted by table; not capped."""
    return _enumerate(ring, "jordan", progress)
