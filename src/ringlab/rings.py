"""Finite associative rings realized as dense Cayley tables.

Rings are built from declarative specs: modular integers, full matrix
rings, truncated polynomial rings, a five-parameter triangular matrix
pattern, direct products, and raw tables.  A wire spec takes one checked
path to tables: ``spec_from_json`` accepts only JSON integers in integer
fields and at most 32 levels of nesting, and each builder refuses a ring
above the size ceiling where its tables would be made.  Elements are
plain ints in ``range(size)``; the two tables are the single source of
truth for all arithmetic.  Construction runs an exact axiom check
(abelian addition, associativity, distributivity).  Only rings generated
from their parameters may skip it; ``tables`` input is always checked.
``FiniteRing.parse`` reads an index or a label for every kind, then the
kind's own syntax, if any.

Element order is deterministic per kind.  ``Zn`` and ``Tables`` keep
index order.  The other kinds are tuples of base-ring elements, built by
one coordinate builder, in lexicographic order of: coefficient tuples,
constant term first (``TruncPoly``; the constant 1 of Z3[X]/(X^3) has
index 9); row-major entries (``Matrix``); the stored (a, b, c, d, e)
(``TriPattern``); factor indices (``Product``).  The builder evaluates a
kind's product rule only on the elements with one nonzero coordinate, and
grows both tables from those rows through the ring's own addition.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

DEFAULT_MAX_SIZE = 256
MAX_SIZE_ENV = "RINGLAB_MAX_SIZE"

_TABLE_DTYPE = np.int32
_MAX_COORDINATES = 63       # np.indices stacks one more axis, and numpy has 64
_MAX_DEPTH = 32             # nesting levels of base and factor specs


class RingError(Exception):
    """Base error for ring construction and element handling."""


class RingAxiomError(RingError):
    """A table violates a ring axiom.  Carries the axiom name and a witness."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class ElementParseError(RingError):
    """An element string could not be resolved in the given ring."""


# ---------------------------------------------------------------------------
# Ring specs


@dataclass(frozen=True)
class Zn:
    n: int


@dataclass(frozen=True)
class TruncPoly:
    p: int
    m: int


@dataclass(frozen=True)
class Matrix:
    base: "RingSpec"
    dim: int


@dataclass(frozen=True)
class TriPattern:
    base: "RingSpec"


@dataclass(frozen=True)
class Product:
    factors: tuple["RingSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class Tables:
    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    unity: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "add", tuple(tuple(r) for r in self.add))
        object.__setattr__(self, "mul", tuple(tuple(r) for r in self.mul))


RingSpec = Union[Zn, TruncPoly, Matrix, TriPattern, Product, Tables]


def spec_to_json(spec: RingSpec) -> dict:
    """Serialize a spec to its wire dict form."""
    if isinstance(spec, Zn):
        return {"kind": "zn", "n": spec.n}
    if isinstance(spec, TruncPoly):
        return {"kind": "trunc_poly", "p": spec.p, "m": spec.m}
    if isinstance(spec, Matrix):
        return {"kind": "matrix", "base": spec_to_json(spec.base), "dim": spec.dim}
    if isinstance(spec, TriPattern):
        return {"kind": "tri_pattern", "base": spec_to_json(spec.base)}
    if isinstance(spec, Product):
        return {"kind": "product", "factors": [spec_to_json(f) for f in spec.factors]}
    if isinstance(spec, Tables):
        out = {
            "kind": "tables",
            "size": spec.size,
            "add": [list(r) for r in spec.add],
            "mul": [list(r) for r in spec.mul],
        }
        if spec.unity is not None:
            out["unity"] = spec.unity
        return out
    raise RingError(f"unknown spec object: {spec!r}")


def spec_from_json(data) -> RingSpec:
    """Parse a spec from its wire dict form.

    Every integer field and table entry must be a JSON integer, not a
    bool, and a spec may nest at most ``_MAX_DEPTH`` levels of base or
    factor specs.
    """
    return _spec_from_json(data, 0)


def _integer(value, field: str) -> int:
    if type(value) is not int:      # bool is a subclass of int
        raise TypeError(f"{field} must be an integer, not {type(value).__name__}")
    return value


def _spec_from_json(data, depth: int) -> RingSpec:
    if depth > _MAX_DEPTH:
        raise RingError(f"ring spec nested more than {_MAX_DEPTH} levels deep")
    if not isinstance(data, dict) or "kind" not in data:
        raise RingError("ring spec must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "zn":
            return Zn(_integer(data["n"], "n"))
        if kind == "trunc_poly":
            return TruncPoly(_integer(data["p"], "p"), _integer(data["m"], "m"))
        if kind == "matrix":
            return Matrix(_spec_from_json(data["base"], depth + 1),
                          _integer(data["dim"], "dim"))
        if kind == "tri_pattern":
            return TriPattern(_spec_from_json(data["base"], depth + 1))
        if kind == "product":
            return Product(tuple(_spec_from_json(f, depth + 1) for f in data["factors"]))
        if kind == "tables":
            add, mul = (tuple(tuple(_integer(v, "table entry") for v in row)
                              for row in data[t]) for t in ("add", "mul"))
            unity = data.get("unity")
            return Tables(_integer(data["size"], "size"), add, mul,
                          None if unity is None else _integer(unity, "unity"))
    except (KeyError, TypeError) as exc:
        raise RingError(f"malformed '{kind}' spec: {exc}") from exc
    raise RingError(f"unknown ring spec kind: {kind!r}")


def spec_name(spec: RingSpec) -> str:
    """Short human-readable name for a spec."""
    if isinstance(spec, Zn):
        return f"Z{spec.n}"
    if isinstance(spec, TruncPoly):
        return f"Z{spec.p}[X]/(X^{spec.m})"
    if isinstance(spec, Matrix):
        return f"M{spec.dim}({spec_name(spec.base)})"
    if isinstance(spec, TriPattern):
        return f"Tri({spec_name(spec.base)})"
    if isinstance(spec, Product):
        return "x".join(spec_name(f) for f in spec.factors)
    return f"tables[{spec.size}]"


# ---------------------------------------------------------------------------
# Element sets


class ElementSet:
    """An immutable set of elements of one ring, kept sorted by index."""

    __slots__ = ("ring", "elements", "_members")

    def __init__(self, ring: "FiniteRing", elements: Iterable[int]):
        elems = sorted({int(e) for e in elements})
        if elems and not (0 <= elems[0] and elems[-1] < ring.size):
            raise RingError(f"element index out of range for ring of size {ring.size}")
        self.ring = ring
        self.elements = tuple(elems)
        self._members = frozenset(elems)

    def __contains__(self, x) -> bool:
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.ring is other.ring
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.ring), self.elements))

    def __repr__(self) -> str:
        return "{" + ", ".join(self.ring.label(e) for e in self.elements) + "}"

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ring.label(e) for e in self.elements)


# ---------------------------------------------------------------------------
# The ring class


class FiniteRing:
    """A finite ring on elements ``0..size-1`` with dense operation tables.

    Instances are immutable once built; the table arrays are flagged
    read-only.  All arithmetic is table lookup.  generators, when the build
    checked the axioms, are the elements that check found to give every
    element of (R, +) as a sum.
    """

    def __init__(self, spec, size, add_table, mul_table, zero, unity, labels,
                 values, parser, generators=None):
        self.spec = spec
        self.size = int(size)
        self.add_table = add_table
        self.mul_table = mul_table
        self.zero = int(zero)
        self.unity = None if unity is None else int(unity)
        self.labels = tuple(labels)
        self._values = list(values)
        self._value_index = {v: i for i, v in enumerate(self._values)}
        self._parser = parser
        for t in (self.add_table, self.mul_table):
            t.flags.writeable = False
        self.neg_table = self._build_neg_table()
        self.neg_table.flags.writeable = False
        self._label_index = {}
        for i, lab in enumerate(self.labels):
            if lab in self._label_index:
                raise RingError(f"duplicate element label {lab!r}")
            self._label_index[lab] = i
        self._orders: Optional[np.ndarray] = None
        self._inverse: Optional[np.ndarray] = None
        self._commutative: Optional[bool] = None
        self._prime_witness: Optional[tuple] = -1  # -1 = not computed
        self._generators: Optional[np.ndarray] = None
        if generators is not None:
            self._generators = np.array(generators, dtype=np.intp)
            self._generators.flags.writeable = False
        # ringlab.maps keeps its generator basis, each law's solution and
        # its inner witnesses (inner table bytes -> least element) here,
        # each computed once and published whole
        self._basis = None
        self._solutions: dict = {}
        self._inner_witnesses: Optional[dict] = None

    # -- basic arithmetic ---------------------------------------------------

    def _check_index(self, x: int) -> int:
        x = int(x)
        if not 0 <= x < self.size:
            raise RingError(f"element index {x} out of range for ring of size {self.size}")
        return x

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[self._check_index(x), self._check_index(y)])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[self._check_index(x), self._check_index(y)])

    def neg(self, x: int) -> int:
        return int(self.neg_table[self._check_index(x)])

    def sub(self, x: int, y: int) -> int:
        return int(self.add_table[self._check_index(x), self.neg_table[self._check_index(y)]])

    def jordan(self, x: int, y: int) -> int:
        """The symmetrized product x*y + y*x."""
        x = self._check_index(x)
        y = self._check_index(y)
        return int(self.add_table[self.mul_table[x, y], self.mul_table[y, x]])

    def elements(self) -> range:
        return range(self.size)

    def _build_neg_table(self) -> np.ndarray:
        neg = np.empty(self.size, dtype=_TABLE_DTYPE)
        zero_hits = np.argwhere(self.add_table == self.zero)
        # each row has exactly one zero hit once axioms hold
        neg[zero_hits[:, 0]] = zero_hits[:, 1]
        return neg

    # -- values and labels --------------------------------------------------

    def value(self, x: int):
        """Structured canonical value of an element (kind-specific)."""
        return self._values[self._check_index(x)]

    def index_of_value(self, value) -> int:
        try:
            return self._value_index[value]
        except (KeyError, TypeError):       # TypeError: an unhashable value
            raise RingError(f"value {value!r} is not an element of this ring") from None

    def label(self, x: int) -> str:
        return self.labels[self._check_index(x)]

    def parse(self, text: str) -> int:
        """Resolve element text: an index, a label, or kind-specific syntax."""
        try:
            got = _parse_index_or_label(self, text)
            if got is None and self._parser is not None:
                got = self._parser(self, text.strip())
        except ValueError:      # int() refuses strings of over 4300 digits
            raise ElementParseError(f"cannot parse {text[:40]!r}...") from None
        if got is None:
            raise ElementParseError(
                f"cannot parse {text!r} as an element of {spec_name(self.spec)}")
        return got

    # -- unity-dependent helpers ---------------------------------------------

    def _require_unity(self, what: str) -> int:
        if self.unity is None:
            raise RingError(f"{what} is not applicable: ring has no unity")
        return self.unity

    def bold(self, n: int) -> int:
        """The element n*1, by repeated addition (negative n via negation).

        The value is periodic in the additive order of unity, so n is
        reduced modulo that order first.
        """
        one = self._require_unity("bold-n")
        return _times(self, one, int(n) % self.additive_order(one))

    def invert(self, x: int) -> Optional[int]:
        """Two-sided multiplicative inverse, or None."""
        inverse = int(self.inverse_table()[self._check_index(x)])
        return None if inverse < 0 else inverse

    def inverse_table(self) -> np.ndarray:
        """The two-sided inverse of every element, -1 where there is none.

        Built whole in a local and only then published, so a reader in
        another thread sees either no table or a full one.
        """
        one = self._require_unity("inversion")
        if self._inverse is None:
            left = self.mul_table == one            # left[e, y]: e*y = 1
            both = left & left.T                    # and y*e = 1
            inverse = np.where(both.any(axis=1), both.argmax(axis=1), -1)
            inverse.flags.writeable = False
            self._inverse = inverse
        return self._inverse

    # -- structural predicates ------------------------------------------------

    def additive_order(self, x: int) -> int:
        return int(self._order_table()[self._check_index(x)])

    def _order_table(self) -> np.ndarray:
        if self._orders is None:
            self._orders = _orders_modulo(self.add_table, np.arange(self.size) == self.zero)
        return self._orders

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = _asymmetry(self.mul_table) is None
        return self._commutative

    def is_n_torsion_free(self, n: int) -> bool:
        """True when n*x = 0 forces x = 0.  Requires n > 1."""
        if n <= 1:
            raise ValueError("torsion-freeness is defined for n > 1")
        # n*x = 0 exactly when the order of x divides n; zero's order is 1
        return int((n % self._order_table() == 0).sum()) == 1

    def prime_witness(self) -> Optional[tuple[int, int]]:
        """A pair (a, b), both nonzero, with a*R*b = {0}; None if prime."""
        if self._prime_witness == -1:
            witness = None
            nonzero = np.arange(self.size) != self.zero
            for a in np.flatnonzero(nonzero):
                # the b whose column of (a*r)*b is zero for every r
                killed = nonzero & (self.mul_table[self.mul_table[a]] == self.zero).all(axis=0)
                if killed.any():
                    witness = (int(a), int(killed.argmax()))
                    break
            self._prime_witness = witness
        return self._prime_witness

    def is_prime(self) -> bool:
        return self.prime_witness() is None

    def describe(self) -> dict:
        """Summary payload used by the command line ring-info output."""
        out = {
            "spec": spec_to_json(self.spec),
            "name": spec_name(self.spec),
            "size": self.size,
            "zero": self.zero,
            "unity": self.unity,
            "commutative": self.is_commutative(),
            "prime": self.is_prime(),
        }
        witness = self.prime_witness()
        if witness is not None:
            out["prime_witness"] = {
                "a": witness[0], "b": witness[1],
                "a_label": self.label(witness[0]), "b_label": self.label(witness[1]),
            }
        torsion = {}
        for n in (2, 3, 5):
            torsion[str(n)] = self.is_n_torsion_free(n)
        out["torsion_free"] = torsion
        if self.unity is not None:
            out["unity_additive_order"] = self.additive_order(self.unity)
            out["invertible_count"] = int((self.inverse_table() >= 0).sum())
        out["labels"] = list(self.labels)
        return out

    def __repr__(self) -> str:
        return f"FiniteRing({spec_name(self.spec)}, size={self.size})"


def _times(ring: FiniteRing, x: int, c: int) -> int:
    """c·x by repeated addition."""
    acc = ring.zero
    for _ in range(c):
        acc = int(ring.add_table[acc, x])
    return acc


def _orders_modulo(add: np.ndarray, member: np.ndarray) -> np.ndarray:
    """For each x, the least q >= 1 with q·x in the subgroup whose mask is
    ``member``; with the mask of {0} these are the additive orders."""
    n = add.shape[0]
    idx = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    pending = np.ones(n, dtype=bool)
    acc, q = idx, 1
    while pending.any():
        done = pending & member[acc]
        orders[done] = q
        pending &= ~done
        acc, q = add[acc, idx], q + 1
    return orders


# ---------------------------------------------------------------------------
# Axiom checking


def _require_equal(lhs: np.ndarray, rhs: np.ndarray, axiom: str, law: str,
                   witness) -> None:
    """Raise RingAxiomError at the first index where lhs and rhs differ;
    ``witness`` maps that index to the witness tuple."""
    if not np.array_equal(lhs, rhs):
        w = witness(*(int(i) for i in np.argwhere(lhs != rhs)[0]))
        raise RingAxiomError(axiom, w, f"{law} at {w}")


_TILE = 128
_BLOCK = 1 << 16    # array cells per step of the right pass, as in maps._BLOCK


def _asymmetry(t: np.ndarray) -> Optional[tuple[int, int]]:
    """Some (i, j) with t[i, j] != t[j, i], or None if t is symmetric.

    The upper triangle is compared one tile at a time with the mirror
    tile, so the transposed reads stay in cache on large tables; the
    first mismatching tile gives its first mismatch in row-major order."""
    n = t.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            tile, mirror = t[i:i + _TILE, j:j + _TILE], t[j:j + _TILE, i:i + _TILE].T
            if not np.array_equal(tile, mirror):
                r, c = np.argwhere(tile != mirror)[0]
                return i + int(r), j + int(c)
    return None


def _additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """Elements a_1 < a_2 < ... such that every element is a sum of them;
    each a_i is the least element outside the span of the earlier ones.

    The span grows by the multiples of a_i, found by doubling: with m(j)
    the multiples found for j < 2^k, m(j + 2^k) = m(j) + m(2^k), until a
    doubling adds nothing new; they join the span in one gather.  Every
    element reached is a sum of generators under some bracketing, which
    is all check_ring_axioms needs, as zero is an identity and addition
    commutes."""
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[zero] = True
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        seen = np.zeros_like(reached)
        seen[zero] = True
        multiples, step = np.array([zero]), g          # m(j) for j < 2^k, m(2^k)
        while not seen[step]:
            new = np.unique(add[multiples, step])
            new = new[~seen[new]]
            seen[new] = True
            multiples = np.concatenate([multiples, new])
            step = int(add[step, step])
        reached[add[np.ix_(np.flatnonzero(reached), multiples)]] = True
    return gens


def check_ring_axioms(add: np.ndarray, mul: np.ndarray, size: int,
                      unity: Optional[int] = None) -> int:
    """Verify the ring axioms exactly; returns the zero element index.
    See _check_axioms."""
    return _check_axioms(add, mul, size, unity)[0]


def _check_axioms(add: np.ndarray, mul: np.ndarray, size: int,
                  unity: Optional[int] = None) -> tuple[int, list[int]]:
    """Verify the ring axioms exactly; returns the zero element index and
    the additive generators A the checks reduced to.

    Raises RingAxiomError naming the violated axiom with a witness tuple
    that violates it.  An O(size^2) prelude checks shape, closure,
    additive commutativity, a unique additive identity and additive
    inverses.  Then A = ``_additive_generators``, and four reductions
    bring the rest to O(size^2 * |A|) (|A| = 1 for Z256, 8 for
    Z2[X]/(X^8)), each exact:

    * Additive associativity as (x+a)+y = x+(a+y) for a in A (Light's
      test).  The a that pass are closed under +, zero passes, and every
      other element is a sum of generators.  As + commutes, s =
      add[add[a]] has s[x, y] = (a+x)+y = (x+a)+y and s[y, x] = (a+y)+x
      = x+(a+y), so a passes exactly when s is symmetric.
    * Right distributivity as (y+a)*x = y*x+a*x for a in A, all y and x.
      The a that pass are closed under +, and with associativity (R, +)
      is a finite group generated by A, so every element, zero included,
      is a nonempty sum of generators.  Hence x -> x*w is additive for
      every w.
    * Left distributivity as x*(y+a) = x*y+x*a for x and a in A only,
      all y.  Given right distributivity, each term of
      d(x) = x*(y+z) - x*y - x*z is additive in x, so d is, and it is
      zero everywhere once it is zero on A.  For each x, the z that pass
      for all y are closed under +, as x*(y+z+z') = x*(y+z) + x*z' =
      x*y + x*z + x*z' = x*y + x*(z+z'); so z in A suffices, by the same
      sum-of-generators argument.
    * Multiplicative associativity on A x A x A only.  Given
      distributivity, (x*y)*z and x*(y*z) are additive in each argument,
      so agreeing on generators they agree everywhere.

    Every raised witness is a violated instance, so the order of the
    checks changes only which one is named.  The left check, one
    (|A|, size, |A|) comparison, runs before the right pass, which takes
    O(size^2) a generator in blocks of rows.
    """
    n = size
    idx = np.arange(n, dtype=_TABLE_DTYPE)
    for name, t in (("addition", add), ("multiplication", mul)):
        if t.shape != (n, n):
            raise RingAxiomError("shape", (t.shape,), f"{name} table must be {n}x{n}")
        if t.min() < 0 or t.max() >= n:
            bad = tuple(int(v) for v in np.argwhere((t < 0) | (t >= n))[0])
            raise RingAxiomError("closure", bad,
                                 f"{name} table entry out of range at {bad}")

    bad = _asymmetry(add)
    if bad is not None:
        raise RingAxiomError("additive-commutativity", bad,
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

    gens = _additive_generators(add, zero)
    for a in gens:
        bad = _asymmetry(add[add[a]])                       # (a+x)+y at [x, y]
        if bad is not None:
            w = (bad[0], a, bad[1])
            raise RingAxiomError("additive-associativity", w,
                                 f"(x+y)+z != x+(y+z) at {w}")

    g = np.array(gens, dtype=np.intp)
    rows = mul[g]                                           # x*y for x in A
    gg = rows[:, g]
    _require_equal(rows[:, add[g].T], add[rows[:, :, None], gg[:, None, :]],
                   "left-distributivity", "x*(y+z) != x*y+x*z",
                   lambda i, y, j: (gens[i], y, gens[j]))

    # y*x+a*x is add.flat[(y*x)*n + a*x]; rows go _BLOCK entries at a time
    flat, step = add.ravel(), max(1, _BLOCK // n)
    for a in gens:
        for y0 in range(0, n, step):
            index = np.multiply(mul[y0:y0 + step], n, dtype=np.intp)
            index += mul[a]
            _require_equal(mul[add[a, y0:y0 + step]], flat.take(index),  # (y+a)*x, y*x+a*x
                           "right-distributivity", "(y+z)*x != y*x+z*x",
                           lambda y, x: (y0 + y, a, x))

    _require_equal(mul[gg][:, :, g], rows[:, gg],           # (a*b)*c, a*(b*c)
                   "multiplicative-associativity", "(x*y)*z != x*(y*z)",
                   lambda i, j, k: (gens[i], gens[j], gens[k]))

    if unity is not None:
        if not (0 <= unity < n and np.array_equal(mul[unity], idx)
                and np.array_equal(mul[:, unity], idx)):
            raise RingAxiomError("unity", (unity,),
                                 f"declared unity {unity} is not a two-sided identity")
    return zero, gens


def _detect_unity(mul: np.ndarray) -> Optional[int]:
    n = mul.shape[0]
    idx = np.arange(n, dtype=mul.dtype)
    rows = np.flatnonzero((mul == idx[None, :]).all(axis=1))
    for e in rows:
        if np.array_equal(mul[:, e], idx):
            return int(e)
    return None


# ---------------------------------------------------------------------------
# Kind-specific element domains


def _is_prime_int(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _split_top(text: str, sep: str) -> list[str]:
    """Split on sep at bracket depth zero (for nested labels)."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ElementParseError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ElementParseError(f"unbalanced brackets in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_index_or_label(ring: FiniteRing, text: str) -> Optional[int]:
    text = text.strip()
    if text in ring._label_index:
        return ring._label_index[text]
    if re.fullmatch(r"\d+", text):
        i = int(text)
        if not 0 <= i < ring.size:
            raise ElementParseError(
                f"index {i} out of range for ring of size {ring.size}")
        return i
    return None


# -- Zn ----------------------------------------------------------------------

def _build_zn(spec: Zn) -> dict:
    n = spec.n
    if n < 1:
        raise RingError("zn requires n >= 1")
    idx = np.arange(_within_ceiling(n), dtype=_TABLE_DTYPE)
    return dict(size=n, add=(idx[:, None] + idx[None, :]) % n,
                mul=(idx[:, None] * idx[None, :]) % n,
                values=list(range(n)), labels=[str(i) for i in range(n)], parser=None)


# -- The coordinate builder -------------------------------------------------------

def _coordinate_ring(bases: list[FiniteRing],
                     rule: list[list[tuple[int, int]]]) -> dict:
    """Tables of a ring whose elements are tuples of base-ring elements.

    Coordinate k runs over all of ``bases[k]``, and an element's value is
    its tuple of coordinates, in ``itertools.product`` order.  Sums are
    coordinatewise; out[k] of a product sums u[i]*v[j] in ``bases[k]``
    over the pairs (i, j) of ``rule[k]``, left to right.

    The rule is evaluated only on the rows of the single-coordinate
    elements a·e_i, whose coordinate i is a and every other coordinate its
    base's zero.  Both tables then grow one coordinate at a time through
    the ring's own addition, from the one row of zero: for every p with
    coordinates only before i, the rows of p + a·e_i are
    (p + a·e_i) + v = p + (a·e_i + v) and, once ``add`` is whole,
    (p + a·e_i)·v = p·v + (a·e_i)·v.
    """
    sizes = [base.size for base in bases]
    n = _within_ceiling(math.prod(sizes))
    coords = np.indices(sizes, dtype=_TABLE_DTYPE).reshape(len(bases), n)
    weights = [n // math.prod(sizes[:k + 1]) for k in range(len(bases))]
    zero = sum(base.zero * w for base, w in zip(bases, weights))
    singles = [_single_rows(bases, rule, coords, weights, zero, i) for i in range(len(bases))]
    add = np.arange(n, dtype=_TABLE_DTYPE)[None]
    for rows, _ in singles:
        add = np.take(add, rows, axis=1).reshape(-1, n)
    flat = add.ravel()      # x + y at x·n + y
    mul = np.full((1, n), zero, dtype=_TABLE_DTYPE)
    for _, rows in singles:
        offset = np.multiply(mul, n, dtype=np.intp)     # x·n passes int32 above n = 46340
        mul = np.empty((len(offset), len(rows), n), dtype=_TABLE_DTYPE)
        for a, row in enumerate(rows):      # one index the size of the rows so far
            mul[:, a] = np.take(flat, offset + row)
        mul = mul.reshape(-1, n)
    return dict(size=n, add=add, mul=mul, values=[tuple(v) for v in coords.T.tolist()])


def _single_rows(bases: list[FiniteRing], rule: list[list[tuple[int, int]]],
                 coords: np.ndarray, weights: list[int], zero: int, i: int):
    """The (|B_i|, n) rows of ``add`` and ``mul`` of the elements a·e_i.
    Only coordinate i moves in a·e_i + v.  Coordinate k of (a·e_i)·v sums
    a*v[j] over the pairs (i, j) of rule[k]: the other pairs multiply by a
    zero coordinate, and a coordinate with no such pair stays zero."""
    add = (np.arange(coords.shape[1], dtype=_TABLE_DTYPE)
           + (np.take(bases[i].add_table, coords[i], axis=1) - coords[i]) * weights[i])
    mul = np.full_like(add, zero)
    for out, pairs, weight in zip(bases, rule, weights):
        acc = None
        for j in (j for s, j in pairs if s == i):
            term = np.take(out.mul_table, coords[j], axis=1)
            acc = term if acc is None else out.add_table[acc, term]
        if acc is not None:
            mul += (acc - out.zero) * weight
    return add, mul


def _matrix_rule(cells) -> list[list[tuple[int, int]]]:
    """Product rule of matrices whose entries outside ``cells`` are zero,
    stored as the listed (row, column) cells in order: (r, c) sums
    (r, k)*(k, c) over the k with both cells listed, k increasing."""
    at = {cell: i for i, cell in enumerate(cells)}
    dim = 1 + max(map(max, cells))
    return [[(at[r, k], at[k, c]) for k in range(dim)
             if (r, k) in at and (k, c) in at] for r, c in cells]


# -- TruncPoly -----------------------------------------------------------------

def _poly_label(coeffs: tuple[int, ...]) -> str:
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            x = "X" if power == 1 else f"X^{power}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) if terms else "0"


_POLY_TERM = re.compile(r"^(\d+)?\*?(X(?:\^(\d+))?)?$", re.IGNORECASE)


def _poly_parse_text(text: str, p: int, m: int) -> tuple[int, ...]:
    s = text.replace(" ", "")
    if not s:
        raise ElementParseError("empty polynomial text")
    # normalize leading sign and split into signed terms
    chunks: list[tuple[int, str]] = []
    sign, cur = 1, []
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    for ch in s:
        if ch in "+-":
            chunks.append((sign, "".join(cur)))
            sign = -1 if ch == "-" else 1
            cur = []
        else:
            cur.append(ch)
    chunks.append((sign, "".join(cur)))
    coeffs = [0] * m
    for sg, term in chunks:
        match = _POLY_TERM.fullmatch(term)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise ElementParseError(f"cannot parse polynomial term {term!r}")
        coeff = int(match.group(1)) if match.group(1) is not None else 1
        if match.group(2) is None:
            power = 0
        else:
            power = int(match.group(3)) if match.group(3) is not None else 1
        if power < m:  # X^m and above vanish in the quotient
            coeffs[power] = (coeffs[power] + sg * coeff) % p
    return tuple(coeffs)


def _build_trunc_poly(spec: TruncPoly) -> dict:
    p, m = spec.p, spec.m
    if not 1 <= m <= _MAX_COORDINATES:
        raise RingError(f"trunc_poly requires 1 <= m <= {_MAX_COORDINATES}")
    base = build_ring(Zn(p), check=False)   # first: the size ceiling bounds p
    if not _is_prime_int(p):
        raise RingError(f"trunc_poly requires prime p, got {p}")
    parts = _coordinate_ring([base] * m,
                             [[(s, k - s) for s in range(k + 1)] for k in range(m)])
    parts.update(labels=[_poly_label(v) for v in parts["values"]],
                 parser=lambda ring, text: ring.index_of_value(
                     _poly_parse_text(text, p, m)))
    return parts


# -- Matrix --------------------------------------------------------------------

def _build_matrix(spec: Matrix) -> dict:
    d = spec.dim
    if not 1 <= d <= math.isqrt(_MAX_COORDINATES):
        raise RingError(f"matrix requires 1 <= dim <= {math.isqrt(_MAX_COORDINATES)}")
    base = build_ring(spec.base, check=False)
    cells = d * d
    parts = _coordinate_ring([base] * cells,
                             _matrix_rule([(r, c) for r in range(d) for c in range(d)]))

    unit_re = re.compile(r"^E([1-9])([1-9])$")

    def parser(ring, text):
        match = unit_re.fullmatch(text)
        if match:
            r, c = int(match.group(1)) - 1, int(match.group(2)) - 1
            if r >= d or c >= d:
                raise ElementParseError(f"{text} is outside a {d}x{d} matrix")
            if base.unity is None:
                raise ElementParseError("matrix-unit syntax needs a base ring with unity")
            v = [base.zero] * cells
            v[r * d + c] = base.unity
            return ring.index_of_value(tuple(v))
        rows = _parse_matrix_rows(text, d, base)
        return ring.index_of_value(tuple(itertools.chain.from_iterable(rows)))

    parts.update(labels=[_matrix_label(base, d, v) for v in parts["values"]], parser=parser)
    return parts


def _matrix_label(base: FiniteRing, d: int, cells) -> str:
    rows = (cells[r * d:(r + 1) * d] for r in range(d))
    return "[" + ",".join("[" + ",".join(base.labels[i] for i in row) + "]"
                          for row in rows) + "]"


def _parse_matrix_rows(text: str, d: int, base: FiniteRing) -> list[list[int]]:
    s = text.replace(" ", "")
    if not (s.startswith("[") and s.endswith("]")):
        raise ElementParseError(f"cannot parse {text!r} as a matrix")
    inner = s[1:-1]
    row_texts = _split_top(inner, ",")
    if len(row_texts) != d:
        raise ElementParseError(f"expected {d} rows in {text!r}")
    rows = []
    for rt in row_texts:
        if not (rt.startswith("[") and rt.endswith("]")):
            raise ElementParseError(f"cannot parse row {rt!r}")
        entries = _split_top(rt[1:-1], ",")
        if len(entries) != d:
            raise ElementParseError(f"expected {d} entries per row in {text!r}")
        rows.append([base.parse(e) for e in entries])
    return rows


# -- TriPattern ------------------------------------------------------------------

# stored entry positions inside the 3x3 matrix [[a,b,c],[0,0,d],[0,0,e]]
_TRI_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))
_TRI_ZERO_POSITIONS = ((1, 0), (1, 1), (2, 0), (2, 1))


def _build_tri_pattern(spec: TriPattern) -> dict:
    base = build_ring(spec.base, check=False)
    parts = _coordinate_ring([base] * len(_TRI_POSITIONS), _matrix_rule(_TRI_POSITIONS))

    def label(v):
        at = dict(zip(_TRI_POSITIONS, v))
        return _matrix_label(base, 3, [at.get((r, c), base.zero)
                                       for r in range(3) for c in range(3)])

    def parser(ring, text):
        if text == "A":
            # the all-ones pattern matrix, the canonical inner-map witness here
            if base.unity is None:
                raise ElementParseError("'A' needs a base ring with unity")
            return ring.index_of_value((base.unity,) * 5)
        rows = _parse_matrix_rows(text, 3, base)
        flat = [rows[r][c] for r in range(3) for c in range(3)]
        for r, c in _TRI_ZERO_POSITIONS:
            if flat[r * 3 + c] != base.zero:
                raise ElementParseError(
                    f"{text!r} has a nonzero entry outside the stored pattern")
        return ring.index_of_value(tuple(flat[r * 3 + c] for r, c in _TRI_POSITIONS))

    parts.update(labels=[label(v) for v in parts["values"]], parser=parser)
    return parts


# -- Product ---------------------------------------------------------------------

def _build_product(spec: Product) -> dict:
    if not 1 <= len(spec.factors) <= _MAX_COORDINATES:
        raise RingError(f"product requires 1 to {_MAX_COORDINATES} factors")
    factors = [build_ring(f, check=False) for f in spec.factors]
    parts = _coordinate_ring(factors, [[(k, k)] for k in range(len(factors))])

    def parser(ring, text):
        s = text.replace(" ", "")
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementParseError(f"cannot parse {text!r} as a product element")
        components = _split_top(s[1:-1], ",")
        if len(components) != len(factors):
            raise ElementParseError(f"expected {len(factors)} components in {text!r}")
        return ring.index_of_value(tuple(f.parse(p) for f, p in zip(factors, components)))

    parts.update(labels=["(" + ",".join(f.labels[c] for f, c in zip(factors, v)) + ")"
                         for v in parts["values"]], parser=parser)
    return parts


# -- Tables ------------------------------------------------------------------------

def _build_tables(spec: Tables) -> dict:
    n = spec.size
    if n < 1:
        raise RingError("tables requires size >= 1")
    _within_ceiling(n)
    try:
        add, mul = (np.array(t, dtype=_TABLE_DTYPE) for t in (spec.add, spec.mul))
    except ValueError:      # ragged rows, or entries that are not numbers
        raise RingAxiomError("shape", (), f"tables must be {n}x{n}") from None
    except OverflowError:
        raise RingAxiomError("closure", (), "table entry out of range") from None
    return dict(size=n, add=add, mul=mul, values=list(range(n)),
                labels=[str(i) for i in range(n)], parser=None)


# ---------------------------------------------------------------------------
# build_ring


def max_suite_size() -> int:
    """The size ceiling for building rings; RINGLAB_MAX_SIZE overrides."""
    raw = os.environ.get(MAX_SIZE_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise RingError(f"{MAX_SIZE_ENV} must be an integer, got {raw!r}") from None
    return DEFAULT_MAX_SIZE


def _within_ceiling(n: int) -> int:
    """n, once a ring of n elements is known to fit under the size ceiling."""
    limit = max_suite_size()
    if n > limit:
        raise RingError(f"ring of {n} elements exceeds the ceiling {limit} "
                        f"(set {MAX_SIZE_ENV} to raise it)")
    return n


def build_ring(spec: RingSpec, check: bool = True) -> FiniteRing:
    """Construct the ring described by spec.

    ``tables`` input is never trusted: a Tables spec, at the top or nested
    as a base or factor, always passes the exact axiom check, with its
    declared unity.  check=True (the default) checks the generated kinds
    too; check=False skips that only for rings generated from their
    parameters (zn, trunc_poly, matrix, tri_pattern, product).  A ring
    larger than the size ceiling is refused before its tables are made;
    bases and factors are built first, each under the ceiling.
    """
    if isinstance(spec, Zn):
        parts = _build_zn(spec)
    elif isinstance(spec, TruncPoly):
        parts = _build_trunc_poly(spec)
    elif isinstance(spec, Matrix):
        parts = _build_matrix(spec)
    elif isinstance(spec, TriPattern):
        parts = _build_tri_pattern(spec)
    elif isinstance(spec, Product):
        parts = _build_product(spec)
    elif isinstance(spec, Tables):
        parts = _build_tables(spec)
    else:
        raise RingError(f"unknown ring spec: {spec!r}")

    gens = None
    if check or isinstance(spec, Tables):
        zero, gens = _check_axioms(parts["add"], parts["mul"], parts["size"],
                                   unity=getattr(spec, "unity", None))
    else:
        # in a group x + a = a only for x = 0; take a = element 0
        zero = int(np.argmax(parts["add"][:, 0] == 0))
    return FiniteRing(spec, parts["size"], parts["add"], parts["mul"], zero,
                      _detect_unity(parts["mul"]), parts["labels"],
                      parts["values"], parts["parser"], gens)
