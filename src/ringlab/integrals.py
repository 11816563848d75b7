"""Set-valued antiderivatives over a fixed additive map.

For a derivation d the integral of x collects every y with d(y) = x.
The result is either empty or a coset of Ker(d); the canonical
representative is the member with the smallest index.  The same
construction over the Jordan law gives the Jordan integral.

Set arithmetic on element sets is pairwise (A + B = {a + b}, A * B =
{a * b}); by convention an empty operand makes the result empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import AdditiveMap, MapLawError, _require_map, ring_check
from .rings import ElementSet, FiniteRing, RingError


class Integral:
    """Empty, or the coset representative + kernel of one integral value.

    Keeps its provenance: the ring, the map, and the integrated element.
    """

    __slots__ = ("ring", "map", "x", "representative", "kernel")

    def __init__(self, ring: FiniteRing, dmap: AdditiveMap, x: int,
                 representative: Optional[int], kernel: Optional[ElementSet]):
        self.ring = ring
        self.map = dmap
        self.x = x
        self.representative = representative
        self.kernel = kernel

    @property
    def is_empty(self) -> bool:
        return self.representative is None

    def __len__(self) -> int:
        return 0 if self.is_empty else len(self.kernel)

    def contains(self, y: int) -> bool:
        if self.is_empty:
            return False
        return self.ring.sub(y, self.representative) in self.kernel

    __contains__ = contains

    def as_set(self) -> ElementSet:
        if self.is_empty:
            return ElementSet(self.ring, ())
        members = self.ring.add_table[self.representative, np.asarray(self.kernel.elements)]
        return ElementSet(self.ring, members)

    def __eq__(self, other) -> bool:
        """Set equality: same kernel and representatives in the same coset."""
        if not isinstance(other, Integral):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        return (self.kernel.elements == other.kernel.elements
                and self.ring.sub(self.representative, other.representative) in self.kernel)

    def __hash__(self):
        return hash((id(self.ring), self.representative,
                     None if self.kernel is None else self.kernel.elements))

    def __repr__(self) -> str:
        if self.is_empty:
            return "Integral(empty)"
        return f"Integral({self.as_set()!r})"

    def to_json(self, materialize: bool = False) -> dict:
        if self.is_empty:
            return {"status": "empty"}
        out = {
            "status": "coset",
            "representative": int(self.representative),
            "kernel": [int(e) for e in self.kernel.elements],
            "size": len(self.kernel),
        }
        if materialize:
            out["elements"] = [int(e) for e in self.as_set().elements]
        return out


def _integrate_with_flag(ring: FiniteRing, dmap: AdditiveMap, x: int,
                         flag: str) -> Integral:
    _require_map(ring, dmap, flag)
    x = ring_check(ring, x)
    rep = int(dmap.fibres.rep[x])
    if rep < 0:
        return Integral(ring, dmap, x, None, None)
    return Integral(ring, dmap, x, rep, dmap.kernel)


def integrate(ring: FiniteRing, dmap: AdditiveMap, x: int) -> Integral:
    """All y with d(y) = x, for a validated derivation d."""
    return _integrate_with_flag(ring, dmap, x, "derivation")


def jordan_integrate(ring: FiniteRing, dmap: AdditiveMap, x: int) -> Integral:
    """All y with δ(y) = x, for a validated Jordan derivation δ."""
    return _integrate_with_flag(ring, dmap, x, "jordan")


# ---------------------------------------------------------------------------
# Set arithmetic


def _set_binop(a: ElementSet, b: ElementSet, table: np.ndarray) -> ElementSet:
    if a.ring is not b.ring:
        raise RingError("element sets belong to different rings")
    if not a.elements or not b.elements:
        # empty-absorbing convention
        return ElementSet(a.ring, ())
    ia = np.asarray(a.elements)
    ib = np.asarray(b.elements)
    return ElementSet(a.ring, np.unique(table[np.ix_(ia, ib)]))


def set_add(a: ElementSet, b: ElementSet) -> ElementSet:
    """Pairwise sums; empty if either operand is empty."""
    return _set_binop(a, b, a.ring.add_table)


def set_mul(a: ElementSet, b: ElementSet) -> ElementSet:
    """Pairwise products; empty if either operand is empty."""
    return _set_binop(a, b, a.ring.mul_table)


# ---------------------------------------------------------------------------
# Image structure


def is_proper(ring: FiniteRing, dmap: AdditiveMap) -> tuple[bool, Optional[tuple]]:
    """Is the image of the map closed under multiplication?

    The image of an additive map is automatically an additive subgroup,
    so multiplicative closure is the whole question.  On failure the
    witness is the first (u, v, u*v) with u, v in the image and u*v not.
    """
    img = np.asarray(dmap.image.elements)
    products = ring.mul_table[np.ix_(img, img)]
    outside = ~np.isin(products, img)
    if not outside.any():
        return True, None
    i, j = np.unravel_index(int(np.argmax(outside)), outside.shape)
    return False, (int(img[i]), int(img[j]), int(products[i, j]))


@dataclass(frozen=True)
class QuotientView:
    """R partitioned into kernel cosets, with the induced map to image(d).

    cosets are ordered by representative (their minimum element);
    index_map sends each element to its coset position; coset_images[i]
    is the common d-value of coset i.  Construction verifies that the
    induced map is a well-defined additive bijection onto the image.
    """

    ring: FiniteRing
    map: AdditiveMap
    cosets: tuple[ElementSet, ...]
    index_map: tuple[int, ...]
    coset_images: tuple[int, ...]


def quotient_view(ring: FiniteRing, dmap: AdditiveMap) -> QuotientView:
    if dmap.ring is not ring:
        raise RingError("map belongs to a different ring")
    d, add = dmap.table, ring.add_table
    fib = dmap.fibres
    karr = np.flatnonzero(fib.ker)
    # the kernel passed the subgroup check, so its cosets partition the ring
    if not (d[add[:, karr]] == d[:, None]).all():
        raise MapLawError("induced map is not well defined on a coset")
    # the induced map is onto the image, so it is a bijection when the
    # image has as many elements as there are cosets; each fibre is then
    # one coset
    if len(fib.values) * len(karr) != ring.size:
        raise MapLawError("induced map is not a bijection onto the image")
    order = np.argsort(fib.rep[fib.values])       # cosets by representative
    images = fib.values[order]
    reps = fib.rep[images]
    if not (d[add[np.ix_(reps, reps)]] == add[np.ix_(images, images)]).all():
        raise MapLawError("induced map is not additive on cosets")
    position = np.empty(ring.size, dtype=np.intp)
    position[images] = np.arange(len(images))
    return QuotientView(ring, dmap,
                        tuple(ElementSet(ring, fib.members[g]) for g in order),
                        tuple(position[d].tolist()), tuple(images.tolist()))
