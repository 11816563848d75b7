"""Additive self-maps of a finite ring.

A map is stored as a full image table (element index -> element index).
On top of plain additivity the module recognizes two laws:

* derivation:        f(x*y) = f(x)*y + x*f(y)
* Jordan derivation: f(x∘y) = f(x)∘y + x∘f(y)   with  x∘y = x*y + y*x

Both defects are biadditive once f is additive, so the laws hold
everywhere exactly when they hold on pairs of additive generators.
One evaluator, _law_holds, states additivity and both laws, for one
table or a block of tables, on every pair or on given pairs.

Der(R) and JDer(R) are kernels of linear systems over Z/N.  In a
direct-sum generator basis of (R, +) an additive map is fixed by the
coordinates of its generator images, and either law on generator pairs
is linear in them.  One Howell-form reduction (Howell 1986; Storjohann
and Mulders 1998) gives a kernel basis and the exact count before
anything is listed.  Both laws are listed from that basis by one lister,
in bounded blocks of whole maps, each block checked for additivity and
its law and the whole listing sorted.  A derivation count above
MAX_LISTED_MAPS is refused with TooManyMapsError.  JDer(R) is not
capped yet: Z2[X]/(X^5), with 2^25 Jordan derivations, is listed in full
however long that takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .rings import (ElementSet, FiniteRing, TruncPoly, RingError, _orders_modulo,
                    _times)

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
               xs: Optional[np.ndarray] = None,
               ys: Optional[np.ndarray] = None) -> np.ndarray:
    """Where a law holds for the table F, or for each table of a block F,
    at the pairs of the index arrays xs and ys, which broadcast against
    each other with equal ndim, as (n, 1) and (1, k) do; the result has
    shape F.shape[:-1] + their broadcast shape.  xs = ys = None means
    every pair, row-major, with the operation table itself as the pair
    table x ⋆ y rather than one gathered through index arrays.

    With x ⋆ y the sum for "additive", the product for "derivation" and
    x∘y = xy + yx for "jordan", the laws are

        additive:            f(x + y) = f(x) + f(y)
        derivation, jordan:  f(x ⋆ y) = f(x) ⋆ y + x ⋆ f(y)
    """
    add, mul = ring.add_table, ring.mul_table
    op = (add if law == "additive" else mul if law == "derivation"
          else add[mul, mul.T])
    if xs is None:
        xs = np.arange(ring.size)[:, None]
        ys, xy = xs.T, op
        Fx, Fy = F[..., :, None], F[..., None, :]     # F[..., xs], F[..., ys]
    else:
        xy = op[xs, ys]
        Fx, Fy = F[..., xs], F[..., ys]
    if law == "additive":
        return F[..., xy] == add[Fx, Fy]
    return F[..., xy] == add[op[Fx, ys], op[xs, Fy]]


def _first_failure(holds: np.ndarray) -> tuple[bool, Optional[tuple[int, int]]]:
    """(ok, witness), the witness the first failing pair in row-major order."""
    if holds.all():
        return True, None
    x, y = np.unravel_index(int(np.argmin(holds)), holds.shape)
    return False, (int(x), int(y))


def _additive_table(ring: FiniteRing, table) -> np.ndarray:
    """The table as an array; NotAdditiveError if it is not additive."""
    f = _as_table(ring, table)
    ok, witness = _first_failure(_law_holds(ring, f, "additive"))
    if not ok:
        raise NotAdditiveError(witness, f"map is not additive at {witness}")
    return f


def check_additive(ring: FiniteRing, table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(x+y) = f(x) + f(y)?  Returns (ok, witness),
    the witness the first failing pair (x, y) in row-major order."""
    return _first_failure(_law_holds(ring, _as_table(ring, table), "additive"))


def check_derivation(ring: FiniteRing, table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(xy) = f(x)y + xf(y)?  Returns (ok, witness)
    as check_additive does; a table that is not additive raises
    NotAdditiveError."""
    return _first_failure(_law_holds(ring, _additive_table(ring, table), "derivation"))


def check_jordan_derivation(ring: FiniteRing,
                            table) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does the table satisfy f(x∘y) = f(x)∘y + x∘f(y), x∘y = xy + yx?
    Returns (ok, witness) as check_derivation does."""
    return _first_failure(_law_holds(ring, _additive_table(ring, table), "jordan"))


# ---------------------------------------------------------------------------
# Fibres


@dataclass(frozen=True)
class Fibres:
    """The fibres {y : f(y) = x} of one map, as read-only arrays.

    rep[x] is the least element of the fibre of x, or -1 when it is empty,
    and ker marks the kernel.  values holds the image in increasing order.
    Row g of members holds the fibre of values[g] in increasing order, in
    the cells that present marks; the other cells hold valid but
    meaningless indices.
    """

    rep: np.ndarray
    ker: np.ndarray
    values: np.ndarray
    members: np.ndarray
    present: np.ndarray


def _fibre_index(table: np.ndarray, kernel: ElementSet) -> Fibres:
    n = len(table)
    order = np.argsort(table, kind="stable")
    values, starts, counts = np.unique(table[order], return_index=True,
                                       return_counts=True)
    cols = np.arange(counts.max())
    present = cols[None, :] < counts[:, None]
    members = order[np.minimum(starts[:, None] + cols[None, :], n - 1)]
    rep = np.full(n, -1, dtype=np.intp)
    rep[values] = order[starts]
    ker = np.zeros(n, dtype=bool)
    ker[list(kernel.elements)] = True
    for arr in (rep, ker, values, members, present):
        arr.flags.writeable = False
    return Fibres(rep, ker, values, members, present)


# ---------------------------------------------------------------------------
# The map class


class AdditiveMap:
    """A validated additive self-map with lazily computed law flags."""

    __slots__ = ("ring", "table", "_derivation", "_jordan", "_inner",
                 "_kernel", "_image", "_fibres", "_preimages")

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
        self._kernel = None
        self._image = None
        self._fibres = None
        self._preimages = None

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

    @property
    def is_derivation(self) -> bool:
        if self._derivation is None:
            holds = _law_holds(self.ring, self.table, "derivation")
            self._derivation = bool(holds.all())
        return self._derivation

    @property
    def is_jordan(self) -> bool:
        if self._jordan is None:
            holds = _law_holds(self.ring, self.table, "jordan")
            self._jordan = bool(holds.all())
        return self._jordan

    @property
    def inner_witness(self) -> Optional[int]:
        """An element a with self = (x -> x*a - a*x), if one exists."""
        if self._inner == -1:
            inner = _inner_table(self.ring, np.arange(self.ring.size)[:, None])
            hits = np.flatnonzero((inner == self.table).all(axis=1))
            self._inner = int(hits[0]) if len(hits) else None
        return self._inner

    # -- kernel / image / fibres ----------------------------------------------

    @property
    def kernel(self) -> ElementSet:
        """Preimage of zero, verified to be an additive subgroup."""
        if self._kernel is None:
            ring = self.ring
            members = np.flatnonzero(self.table == ring.zero)
            closed = (self.table[ring.add_table[np.ix_(members, members)]] == ring.zero).all()
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
    def fibres(self) -> Fibres:
        """The fibre index, built once on first use.  It is published by a
        single assignment, so a reader in another thread sees either no
        index or a whole one."""
        if self._fibres is None:
            self._fibres = _fibre_index(self.table, self.kernel)
        return self._fibres

    @property
    def preimages(self) -> dict[int, tuple[int, ...]]:
        """value -> sorted tuple of elements mapping to it."""
        if self._preimages is None:
            fib = self.fibres
            self._preimages = {int(v): tuple(row[keep].tolist())
                               for v, row, keep in zip(fib.values, fib.members,
                                                       fib.present)}
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
    n = ring.size
    add = ring.add_table
    member = np.zeros(n, dtype=bool)      # in the span so far
    member[ring.zero] = True
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
        a = coords[_times(ring, x, o)]
        for t, g in enumerate(gens):
            x = int(add[x, ring.neg_table[_times(ring, g, int(a[t]) // o)]])
        members = np.flatnonzero(member)
        grown = np.zeros((n, len(gens) + 1), dtype=np.int64)
        grown[:, :-1] = coords
        cx = ring.zero
        for c in range(1, o):
            cx = int(add[cx, x])
            targets = add[members, cx]
            grown[targets, :-1] = coords[members]
            grown[targets, -1] = c
            member[targets] = True
        coords = grown
        gens.append(x)
        gen_orders.append(o)
    arrays = np.array(gens, dtype=np.intp), np.array(gen_orders, dtype=np.int64), coords
    for arr in arrays:
        arr.flags.writeable = False
    return GeneratorBasis(ring, *arrays)


# ---------------------------------------------------------------------------
# Both laws: the kernel of a linear system over Z/N


MAX_LISTED_MAPS = 65536
_BLOCK = 1 << 16    # array cells per step, which bounds a step's memory


def _row_blocks(rows: int, width: int):
    """Row indices 0..rows-1 in blocks of consecutive whole rows of any
    width: at least one row, at most _BLOCK cells.  A listing block holds
    whole maps.  A pair block x of theorems has y the whole row, its
    tables are rows (add[x], mul[x], mul[d[x]], ...), and its raveled pair
    i is (x[i // n], i % n)."""
    step = max(1, _BLOCK // width)
    for r0 in range(0, rows, step):
        yield np.arange(r0, min(rows, r0 + step))


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


def _check_listed(ring: FiniteRing, gens: np.ndarray, F: np.ndarray,
                  law: str) -> np.ndarray:
    """Every table of the block F is additive and satisfies law on
    generator pairs, or its lister is at fault.  Returns where the Leibniz
    law holds on generator pairs, and so everywhere.

    Additivity is checked as f(x + g) = f(x) + f(g) for every x and every
    generator g, which is exact: x = 0 gives f(0) = 0, and induction on a
    sum of generators y gives f(x + y) = f(x) + f(y)."""
    ys = gens[None, :]
    additive = _law_holds(ring, F, "additive", np.arange(ring.size)[:, None], ys)
    holds = {name: _law_holds(ring, F, name, gens[:, None], ys).all(axis=(1, 2))
             for name in dict.fromkeys(("derivation", law))}
    listed = additive.all(axis=(1, 2)) & holds[law]
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
    are the Σ c_i·H[i] with 0 ≤ c_i < radix[i], each once, and total counts them."""
    basis = generator_basis(ring)
    o, gens = basis.orders, basis.generators
    A = _leibniz_rows(o, basis.decomp[ring.mul_table[np.ix_(gens, gens)]], law)
    H, radix = _kernel_basis(np.unique(A[A.any(axis=1)], axis=0),
                             int(o.max(initial=1)))
    return basis, H, radix, math.prod(map(int, radix))    # Python ints do not wrap


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
