"""Finite associative rings realized as dense Cayley tables.

Rings are built from declarative specs: modular integers, full matrix
rings, truncated polynomial rings, a five-parameter triangular matrix
pattern, direct products, and raw tables.  Elements are plain ints in
``range(size)``; the two tables are the single source of truth for all
arithmetic.  Construction runs an exact axiom check (abelian
addition, associativity, distributivity) unless disabled for trusted
generated specs.

Element order is deterministic per kind.  ``Zn`` and ``Tables`` keep
index order.  The other kinds are tuples of base-ring elements, built by
one coordinate builder, in lexicographic order of: coefficient tuples,
constant term first (``TruncPoly``; the constant 1 of Z3[X]/(X^3) has
index 9); row-major entries (``Matrix``); the stored (a, b, c, d, e)
(``TriPattern``); factor indices (``Product``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

DEFAULT_MAX_SIZE = 256
MAX_SIZE_ENV = "RINGLAB_MAX_SIZE"

_TABLE_DTYPE = np.int32


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
    """Parse a spec from its wire dict form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise RingError("ring spec must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "zn":
            return Zn(int(data["n"]))
        if kind == "trunc_poly":
            return TruncPoly(int(data["p"]), int(data["m"]))
        if kind == "matrix":
            return Matrix(spec_from_json(data["base"]), int(data["dim"]))
        if kind == "tri_pattern":
            return TriPattern(spec_from_json(data["base"]))
        if kind == "product":
            return Product(tuple(spec_from_json(f) for f in data["factors"]))
        if kind == "tables":
            unity = data.get("unity")
            return Tables(
                int(data["size"]),
                tuple(tuple(int(v) for v in row) for row in data["add"]),
                tuple(tuple(int(v) for v in row) for row in data["mul"]),
                None if unity is None else int(unity),
            )
    except (KeyError, TypeError, ValueError) as exc:
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

    def issubset(self, other: "ElementSet") -> bool:
        return self._members <= other._members


# ---------------------------------------------------------------------------
# The ring class


class FiniteRing:
    """A finite ring on elements ``0..size-1`` with dense operation tables.

    Instances are immutable once built; the table arrays are flagged
    read-only.  All arithmetic is table lookup.
    """

    def __init__(self, spec, size, add_table, mul_table, zero, unity, labels,
                 values, parser):
        self.spec = spec
        self.size = int(size)
        self.add_table = add_table
        self.mul_table = mul_table
        self.zero = int(zero)
        self.unity = None if unity is None else int(unity)
        self.labels = tuple(labels)
        self._values = list(values)
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
            return self._values.index(value)
        except ValueError:
            raise RingError(f"value {value!r} is not an element of this ring") from None

    def label(self, x: int) -> str:
        return self.labels[self._check_index(x)]

    def parse(self, text: str) -> int:
        """Resolve element text: an index, a label, or kind-specific syntax."""
        return self._parser(self, text)

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
        period = self.additive_order(one)
        r = int(n) % period
        acc = self.zero
        for _ in range(r):
            acc = int(self.add_table[acc, one])
        return acc

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

    def is_invertible(self, x: int) -> bool:
        return self.invert(x) is not None

    # -- structural predicates ------------------------------------------------

    def additive_order(self, x: int) -> int:
        if self._orders is None:
            orders = np.zeros(self.size, dtype=np.int64)
            acc = np.arange(self.size, dtype=_TABLE_DTYPE)
            idx = np.arange(self.size)
            k = 1
            pending = np.ones(self.size, dtype=bool)
            while pending.any():
                done = pending & (acc == self.zero)
                orders[done] = k
                pending &= ~done
                if pending.any():
                    acc = self.add_table[acc, idx]
                    k += 1
            self._orders = orders
        return int(self._orders[self._check_index(x)])

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = bool(np.array_equal(self.mul_table, self.mul_table.T))
        return self._commutative

    def is_n_torsion_free(self, n: int) -> bool:
        """True when n*x = 0 forces x = 0.  Requires n > 1."""
        if n <= 1:
            raise ValueError("torsion-freeness is defined for n > 1")
        acc = np.full(self.size, self.zero, dtype=_TABLE_DTYPE)
        idx = np.arange(self.size)
        for _ in range(n):
            acc = self.add_table[acc, idx]
        bad = np.flatnonzero(acc == self.zero)
        return bool(np.array_equal(bad, np.array([self.zero])))

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


# ---------------------------------------------------------------------------
# Axiom checking


def _require_equal(lhs: np.ndarray, rhs: np.ndarray, axiom: str, law: str,
                   witness) -> None:
    """Raise RingAxiomError at the first index where lhs and rhs differ;
    ``witness`` maps that index to the witness tuple."""
    if not np.array_equal(lhs, rhs):
        w = witness(*(int(i) for i in np.argwhere(lhs != rhs)[0]))
        raise RingAxiomError(axiom, w, f"{law} at {w}")


def _additive_generators(add: np.ndarray, zero: int) -> list[int]:
    """Elements a_1 < a_2 < ... such that every element is reached from
    zero by repeatedly adding some a_i; each a_i is the least element not
    reached by the earlier ones."""
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
    """Verify the ring axioms exactly; returns the zero element index.

    Raises RingAxiomError naming the violated axiom with a witness tuple
    that violates it.  An O(size^2) prelude checks shape, closure,
    additive commutativity, a unique additive identity and additive
    inverses.  Then A = ``_additive_generators``, and three reductions
    bring the rest to O(size^2 * |A|) (|A| = 1 for Z256, 8 for
    Z2[X]/(X^8)), each exact:

    * Additive associativity as (x+a)+y = x+(a+y) for a in A (Light's
      test).  The a that pass are closed under +, zero passes, and every
      other element is a left-bracketed sum of generators.
    * Both distributive laws as x*(y+a) = x*y+x*a and
      (y+a)*x = y*x+a*x for a in A.  The a that pass are closed under +,
      and with associativity (R, +) is a finite group generated by A, so
      every element, zero included, is a nonempty sum of generators.
    * Multiplicative associativity on A x A x A only.  Given
      distributivity, (x*y)*z and x*(y*z) are additive in each argument,
      so agreeing on generators they agree everywhere.

    Every raised witness is a violated instance, so the order of the
    checks changes only which one is named.
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

    gens = _additive_generators(add, zero)
    for a in gens:
        _require_equal(add[add[:, a]], add[:, add[a]],      # (x+a)+y, x+(a+y)
                       "additive-associativity", "(x+y)+z != x+(y+z)",
                       lambda x, y: (x, a, y))
        _require_equal(mul[:, add[:, a]], add[mul, mul[:, a][:, None]],
                       "left-distributivity", "x*(y+z) != x*y+x*z",
                       lambda x, y: (x, y, a))
        _require_equal(mul[add[:, a]], add[mul, mul[a][None, :]],
                       "right-distributivity", "(y+z)*x != y*x+z*x",
                       lambda y, x: (y, a, x))
    g = np.array(gens, dtype=np.intp)
    gg = mul[np.ix_(g, g)]
    _require_equal(mul[gg][:, :, g], mul[g][:, gg],         # (a*b)*c, a*(b*c)
                   "multiplicative-associativity", "(x*y)*z != x*(y*z)",
                   lambda i, j, k: (gens[i], gens[j], gens[k]))

    if unity is not None:
        if not (np.array_equal(mul[unity], idx) and np.array_equal(mul[:, unity], idx)):
            raise RingAxiomError("unity", (unity,),
                                 f"declared unity {unity} is not a two-sided identity")
    return zero


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
    idx = np.arange(n, dtype=_TABLE_DTYPE)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    values = list(range(n))
    labels = [str(i) for i in range(n)]

    def parser(ring, text):
        got = _parse_index_or_label(ring, text)
        if got is None:
            raise ElementParseError(f"cannot parse {text!r} as an element of {spec_name(spec)}")
        return got

    return dict(size=n, add=add.astype(_TABLE_DTYPE), mul=mul.astype(_TABLE_DTYPE),
                values=values, labels=labels, parser=parser)


# -- The coordinate builder -------------------------------------------------------

def _coordinate_ring(cells: list[tuple[FiniteRing, bool]],
                     rule: list[list[tuple[int, int]]]) -> dict:
    """Tables of a ring whose elements are tuples of base-ring elements.

    With ``cells[k] = (base, free)``, coordinate k runs over all of base
    when free and is held at base.zero otherwise.  An element's value is
    its tuple of free coordinates, in ``itertools.product`` order.  Sums
    are coordinatewise; out[k] of a product sums u[i]*v[j] in the base of
    coordinate k over the pairs (i, j) of ``rule[k]``, left to right.  Both
    tables come from fancy indexing into the base tables over all pairs.
    """
    sizes = [base.size if free else 1 for base, free in cells]
    n = math.prod(sizes)
    digits = np.indices(sizes).reshape(len(cells), n)
    coords = [d if free else np.full(n, base.zero)
              for d, (base, free) in zip(digits, cells)]
    sums = [base.add_table[c[:, None], c[None, :]] for c, (base, _) in zip(coords, cells)]
    products = []
    for (base, _), pairs in zip(cells, rule):
        terms = [base.mul_table[coords[i][:, None], coords[j][None, :]] for i, j in pairs]
        products.append(functools.reduce(lambda acc, t: base.add_table[acc, t], terms))
    if any((p != base.zero).any() for p, (base, free) in zip(products, cells) if not free):
        raise RingError("the pattern of held zero entries is not closed under multiplication")
    # a held coordinate has one value and weight 0 in the element index
    weights = [math.prod(sizes[k + 1:]) if free else 0 for k, (_, free) in enumerate(cells)]
    free_digits = np.array([d for d, (_, free) in zip(digits, cells) if free])
    return dict(size=n, add=sum(w * t for w, t in zip(weights, sums)).astype(_TABLE_DTYPE),
                mul=sum(w * t for w, t in zip(weights, products)).astype(_TABLE_DTYPE),
                values=[tuple(v) for v in free_digits.T.tolist()])


def _matrix_rule(d: int) -> list[list[tuple[int, int]]]:
    """Product rule of d x d matrices over row-major cells."""
    return [[(r * d + k, k * d + c) for k in range(d)]
            for r in range(d) for c in range(d)]


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


def _build_trunc_poly(spec: TruncPoly, build) -> dict:
    p, m = spec.p, spec.m
    if not _is_prime_int(p):
        raise RingError(f"trunc_poly requires prime p, got {p}")
    if m < 1:
        raise RingError("trunc_poly requires m >= 1")
    parts = _coordinate_ring([(build(Zn(p), check=False), True)] * m,
                             [[(s, k - s) for s in range(k + 1)] for k in range(m)])
    index = {v: i for i, v in enumerate(parts["values"])}

    def parser(ring, text):
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        coeffs = _poly_parse_text(text, p, m)
        return index[coeffs]

    parts.update(labels=[_poly_label(v) for v in parts["values"]], parser=parser)
    return parts


# -- Matrix --------------------------------------------------------------------

def _build_matrix(spec: Matrix, build) -> dict:
    base = build(spec.base, check=False)
    d = spec.dim
    if d < 1:
        raise RingError("matrix requires dim >= 1")
    cells = d * d
    parts = _coordinate_ring([(base, True)] * cells, _matrix_rule(d))
    index = {v: i for i, v in enumerate(parts["values"])}

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

    parts.update(labels=[_matrix_label(base, d, v) for v in parts["values"]], parser=parser)
    return parts


def _matrix_label(base: FiniteRing, d: int, cells) -> str:
    rows = (cells[r * d:(r + 1) * d] for r in range(d))
    return "[" + ",".join("[" + ",".join(map(base.label, row)) + "]" for row in rows) + "]"


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


def _build_tri_pattern(spec: TriPattern, build) -> dict:
    base = build(spec.base, check=False)
    parts = _coordinate_ring(
        [(base, (r, c) in _TRI_POSITIONS) for r in range(3) for c in range(3)],
        _matrix_rule(3))
    index = {v: i for i, v in enumerate(parts["values"])}

    def label(v):
        at = dict(zip(_TRI_POSITIONS, v))
        return _matrix_label(base, 3, [at.get((r, c), base.zero)
                                       for r in range(3) for c in range(3)])

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

    parts.update(labels=[label(v) for v in parts["values"]], parser=parser)
    return parts


# -- Product ---------------------------------------------------------------------

def _build_product(spec: Product, build) -> dict:
    if not spec.factors:
        raise RingError("product requires at least one factor")
    factors = [build(f, check=False) for f in spec.factors]
    parts = _coordinate_ring([(f, True) for f in factors],
                             [[(k, k)] for k in range(len(factors))])
    index = {v: i for i, v in enumerate(parts["values"])}

    def parser(ring, text):
        text = text.strip()
        got = _parse_index_or_label(ring, text)
        if got is not None:
            return got
        s = text.replace(" ", "")
        if not (s.startswith("(") and s.endswith(")")):
            raise ElementParseError(f"cannot parse {text!r} as a product element")
        components = _split_top(s[1:-1], ",")
        if len(components) != len(factors):
            raise ElementParseError(f"expected {len(factors)} components in {text!r}")
        return index[tuple(f.parse(p) for f, p in zip(factors, components))]

    parts.update(labels=["(" + ",".join(f.label(c) for f, c in zip(factors, v)) + ")"
                         for v in parts["values"]], parser=parser)
    return parts


# -- Tables ------------------------------------------------------------------------

def _build_tables(spec: Tables) -> dict:
    n = spec.size
    if n < 1:
        raise RingError("tables requires size >= 1")
    add = np.array(spec.add, dtype=_TABLE_DTYPE)
    mul = np.array(spec.mul, dtype=_TABLE_DTYPE)
    values = list(range(n))
    labels = [str(i) for i in range(n)]

    def parser(ring, text):
        got = _parse_index_or_label(ring, text)
        if got is None:
            raise ElementParseError(f"cannot parse {text!r}: tables rings use indices")
        return got

    return dict(size=n, add=add, mul=mul, values=values, labels=labels, parser=parser)


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


def build_ring(spec: RingSpec, check: bool = True,
               max_size: Optional[int] = None) -> FiniteRing:
    """Construct the ring described by spec.

    check=True (the default) runs the exact axiom check; pass False
    only for trusted generated specs.  Rings larger than the size
    ceiling are refused so suites stay tractable.
    """
    limit = max_suite_size() if max_size is None else max_size

    def _expected_size(s: RingSpec) -> int:
        if isinstance(s, Zn):
            return s.n
        if isinstance(s, TruncPoly):
            return s.p ** s.m
        if isinstance(s, Matrix):
            return _expected_size(s.base) ** (s.dim * s.dim)
        if isinstance(s, TriPattern):
            return _expected_size(s.base) ** 5
        if isinstance(s, Product):
            total = 1
            for f in s.factors:
                total *= _expected_size(f)
            return total
        if isinstance(s, Tables):
            return s.size
        raise RingError(f"unknown ring spec: {s!r}")

    expected = _expected_size(spec)
    if expected > limit:
        raise RingError(
            f"ring of size {expected} exceeds the ceiling {limit} "
            f"(set {MAX_SIZE_ENV} to raise it)")

    def _build(s: RingSpec, check: bool) -> FiniteRing:
        if isinstance(s, Zn):
            parts = _build_zn(s)
        elif isinstance(s, TruncPoly):
            parts = _build_trunc_poly(s, _build)
        elif isinstance(s, Matrix):
            parts = _build_matrix(s, _build)
        elif isinstance(s, TriPattern):
            parts = _build_tri_pattern(s, _build)
        elif isinstance(s, Product):
            parts = _build_product(s, _build)
        elif isinstance(s, Tables):
            parts = _build_tables(s)
        else:
            raise RingError(f"unknown ring spec: {s!r}")

        declared = s.unity if isinstance(s, Tables) else None
        if check:
            zero = check_ring_axioms(parts["add"], parts["mul"], parts["size"],
                                     unity=declared)
        else:
            idx = np.arange(parts["size"], dtype=_TABLE_DTYPE)
            zero_rows = np.flatnonzero((parts["add"] == idx[None, :]).all(axis=1))
            if len(zero_rows) != 1:
                # an unchecked nested tables base is still user input
                raise RingAxiomError("additive-identity", (),
                                     "addition table has no unique identity row")
            zero = int(zero_rows[0])
        unity = _detect_unity(parts["mul"])
        if declared is not None and unity != declared:
            raise RingAxiomError(
                "unity", (declared,),
                f"declared unity {declared} does not match detected {unity}")
        return FiniteRing(s, parts["size"], parts["add"], parts["mul"], zero,
                          unity, parts["labels"], parts["values"], parts["parser"])

    return _build(spec, check)


def load_ring(path: str, check: bool = True) -> FiniteRing:
    """Build a ring from a JSON spec file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return build_ring(spec_from_json(data), check=check)


# ---------------------------------------------------------------------------
# Subring closure


def subring_closure(ring: FiniteRing, seed: Iterable[int]) -> ElementSet:
    """Smallest subring containing the seed: fixed point of sums,
    additive inverses, and products, always containing zero."""
    current = {ring.zero}
    for e in seed:
        current.add(ring._check_index(e))
    while True:
        arr = np.fromiter(sorted(current), dtype=np.int64)
        nxt = set(map(int, ring.neg_table[arr]))
        nxt.update(map(int, ring.add_table[np.ix_(arr, arr)].ravel()))
        nxt.update(map(int, ring.mul_table[np.ix_(arr, arr)].ravel()))
        nxt.update(current)
        if nxt == current:
            return ElementSet(ring, current)
        current = nxt
