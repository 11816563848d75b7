"""Loop-form reference checkers, kept as the oracle for ringlab.theorems
and for the image structure of ringlab.integrals.

These are the per-element and per-pair loops that ringlab.theorems used
before its checkers (separation, coset-structure and kernel-scaling
included) became array identities over the Cayley tables, and the loops
of is_proper and quotient_view.  They call Integral.contains, compare
Integral values or compare preimage sets one instance at a time, so they
are slow, but each reads as the statement of its law.
tests/test_reference_checkers.py requires the reports of both forms to
be equal apart from runtime, and the two forms of is_proper and
quotient_view to give equal results and raise the same errors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ringlab.integrals import (Integral, QuotientView, integrate,
                               jordan_integrate, set_add)
from ringlab.maps import (AdditiveMap, MapLawError, _require_map,
                          enumerate_derivations)
from ringlab.rings import ElementSet, FiniteRing, RingError
from ringlab.theorems import CheckerConfig, TheoremReport, _Recorder


def _pair_stream(n: int):
    """All (x, y) pairs in row-major order."""
    for x in range(n):
        for y in range(n):
            yield x, y


class _IntegralCache:
    """Memoized integrals of one map, by integrated element."""

    def __init__(self, ring, dmap, law):
        self.ring = ring
        self.dmap = dmap
        self.law = law
        self._cache: dict[int, Integral] = {}
        self._sets: dict[int, ElementSet] = {}

    def __call__(self, x: int) -> Integral:
        got = self._cache.get(x)
        if got is None:
            fn = integrate if self.law == "derivation" else jordan_integrate
            got = fn(self.ring, self.dmap, x)
            self._cache[x] = got
        return got

    def as_set(self, x: int) -> ElementSet:
        got = self._sets.get(x)
        if got is None:
            got = self(x).as_set()
            self._sets[x] = got
        return got



# ---------------------------------------------------------------------------
# basic


def verify_basic(ring: FiniteRing, dmap: AdditiveMap,
                 config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Membership facts and the surjectivity/injectivity criteria."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("basic", ring)
    ints = _IntegralCache(ring, dmap, "derivation")
    n = ring.size

    rec.check(ints(ring.zero).contains(ring.zero), {"kind": "zero-membership"})
    for x in range(n):
        v = int(dmap.table[x])
        rec.check(ints(v).contains(x),
                  {"kind": "element-not-in-own-integral", "x": x})
    for x in range(n):
        cur = ints(x)
        if cur.is_empty:
            rec.instances += 1
            continue
        values = {int(dmap.table[y]) for y in cur.as_set()}
        rec.check(values == {x},
                  {"kind": "integral-maps-outside", "x": x,
                   "values": sorted(values)})
    surjective = len(dmap.image) == n
    all_nonempty = all(not ints(x).is_empty for x in range(n))
    rec.check(surjective == all_nonempty,
              {"kind": "surjectivity-criterion", "surjective": surjective,
               "all_nonempty": all_nonempty})
    injective = len(dmap.kernel) == 1
    all_single = all(len(dmap.preimages.get(x, ())) == 1 for x in range(n))
    rec.check(injective == all_single,
              {"kind": "injectivity-criterion", "injective": injective,
               "all_singletons": all_single})
    return rec.finish()


# ---------------------------------------------------------------------------
# kernel-constants


def verify_kernel_constants(ring: FiniteRing, dmap: AdditiveMap,
                            config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Integer multiples of unity, and their inverse-scaled combinations,
    always land in the kernel; adding them to any antiderivative stays in
    the same integral."""
    _require_map(ring, dmap, "derivation")
    config = config or CheckerConfig()
    rec = _Recorder("kernel-constants", ring)
    if ring.unity is None:
        return rec.skip("ring has no unity")
    period = ring.additive_order(ring.unity)
    if period <= 2 * config.max_n + 1:
        ns = list(range(period))
        rec.note({"kind": "range-capped", "additive_order_of_unity": period})
    else:
        ns = list(range(-config.max_n, config.max_n + 1))
    kern = dmap.kernel
    bolds = {m: ring.bold(m) for m in ns}
    inverses = {m: ring.invert(bolds[m]) for m in ns}

    for m in ns:
        b = bolds[m]
        rec.check(b in kern, {"kind": "bold-not-in-kernel", "n": m, "element": b})
        rec.check(ring.neg(b) in kern,
                  {"kind": "bold-negative-not-in-kernel", "n": m})
    for m in ns:
        ib = inverses[m]
        if ib is None:
            continue
        for mm in ns:
            b = bolds[mm]
            rec.check(ring.mul(ib, b) in kern,
                      {"kind": "scaled-bold-not-in-kernel", "n": m, "m": mm})
            rec.check(ring.mul(b, ib) in kern,
                      {"kind": "bold-scaled-not-in-kernel", "n": m, "m": mm})

    ints = _IntegralCache(ring, dmap, "derivation")
    invertible_ns = [m for m in ns if inverses[m] is not None]
    for y in range(ring.size):
        x = int(dmap.table[y])
        cur = ints(x)
        for m in invertible_ns:
            ib = inverses[m]
            for mm in ns:
                b = bolds[mm]
                rec.check(cur.contains(ring.add(y, ring.mul(ib, b))),
                          {"kind": "shifted-left", "y": y, "n": m, "m": mm})
                rec.check(cur.contains(ring.add(y, ring.mul(b, ib))),
                          {"kind": "shifted-right", "y": y, "n": m, "m": mm})
    return rec.finish()


# ---------------------------------------------------------------------------
# coset-structure


def verify_coset_structure(ring: FiniteRing, dmap: AdditiveMap,
                           config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Every nonempty integral equals y + Ker(d) for each of its members,
    with each member reached by exactly one kernel offset."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("coset-structure", ring)
    karr = np.asarray(dmap.kernel.elements)
    for x in sorted(dmap.preimages):
        members = dmap.preimages[x]
        expect = np.asarray(members)
        for y in members:
            shifted = ring.add_table[y, karr]
            rec.check(bool(np.array_equal(np.sort(shifted), expect)),
                      {"kind": "coset-mismatch", "x": x, "y": int(y)})
            rec.check(len(np.unique(shifted)) == len(karr),
                      {"kind": "nonunique-kernel-offset", "x": x, "y": int(y)})
    return rec.finish()


# ---------------------------------------------------------------------------
# kernel-scaling


def verify_kernel_scaling(ring: FiniteRing, dmap: AdditiveMap,
                          config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Multiplying an integral by a kernel element lands inside the integral
    of the scaled element, with equality for invertible kernel elements;
    also records one witness that the inclusion can be strict."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("kernel-scaling", ring)
    pre = dmap.preimages
    strict_seen = False
    for w in dmap.kernel.elements:
        invertible = ring.unity is not None and ring.invert(w) is not None
        for x in range(ring.size):
            members = pre.get(x)
            wx = ring.mul(w, x)
            xw = ring.mul(x, w)
            if members is None:
                rec.instances += 2  # both inclusions hold vacuously
                continue
            arr = np.asarray(members)
            left = set(map(int, ring.mul_table[w, arr]))
            right = set(map(int, ring.mul_table[arr, w]))
            target_l = set(pre.get(wx, ()))
            target_r = set(pre.get(xw, ()))
            rec.check(left <= target_l,
                      {"kind": "left-scaling-escape", "w": int(w), "x": x})
            rec.check(right <= target_r,
                      {"kind": "right-scaling-escape", "w": int(w), "x": x})
            rec.check(bool(target_l) and bool(target_r),
                      {"kind": "scaled-integral-empty", "w": int(w), "x": x})
            if invertible:
                rec.check(left == target_l,
                          {"kind": "left-scaling-not-equal", "w": int(w), "x": x})
                rec.check(right == target_r,
                          {"kind": "right-scaling-not-equal", "w": int(w), "x": x})
            elif not strict_seen and left < target_l:
                rec.note({"kind": "strict-inclusion", "w": int(w), "x": x,
                          "scaled_size": len(left), "integral_size": len(target_l)})
                strict_seen = True
    return rec.finish()


# ---------------------------------------------------------------------------
# combination-rules


def verify_combination_rules(ring: FiniteRing, dmap: AdditiveMap,
                             config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Sums and products of antiderivatives integrate the matching
    combinations, plus the inverse membership rules on unity rings."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("combination-rules", ring)
    ints = _IntegralCache(ring, dmap, "derivation")
    table = dmap.table
    n = ring.size

    for y1, y2 in _pair_stream(n):
        x1 = int(table[y1])
        x2 = int(table[y2])
        rec.check(ints(ring.add(x1, x2)).contains(ring.add(y1, y2)),
                  {"kind": "sum-rule", "y1": y1, "y2": y2})
        target = ring.add(ring.mul(x1, y2), ring.mul(y1, x2))
        rec.check(ints(target).contains(ring.mul(y1, y2)),
                  {"kind": "product-rule", "y1": y1, "y2": y2})

    for x in sorted(dmap.preimages):
        members = dmap.preimages[x]
        twox = ring.add(x, x)
        for y in members:
            for z in members:
                rec.check(ints(twox).contains(ring.add(y, z)),
                          {"kind": "same-integral-sum", "x": x, "y": int(y), "z": int(z)})
                target = ring.add(ring.mul(x, z), ring.mul(y, x))
                rec.check(ints(target).contains(ring.mul(y, z)),
                          {"kind": "same-integral-product", "x": x, "y": int(y), "z": int(z)})

    if ring.unity is not None:
        commutative = ring.is_commutative()
        for y in range(n):
            yi = ring.invert(y)
            if yi is None:
                continue
            x = int(table[y])
            target = ring.neg(ring.mul(ring.mul(yi, x), yi))
            rec.check(ints(target).contains(yi),
                      {"kind": "inverse-rule", "y": y})
            if commutative:
                target2 = ring.neg(ring.mul(ring.mul(yi, yi), x))
                rec.check(ints(target2).contains(yi),
                          {"kind": "inverse-rule-commutative", "y": y})
    return rec.finish()


# ---------------------------------------------------------------------------
# additivity-parts


def verify_additivity_and_parts(ring: FiniteRing, dmap: AdditiveMap,
                                config: Optional[CheckerConfig] = None) -> TheoremReport:
    """When both integrals are nonempty their pairwise sum is the integral
    of the sum, and x*y lies in the two-part sum; records one witness pair
    whose part integrals are both empty."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("additivity-parts", ring)
    ints = _IntegralCache(ring, dmap, "derivation")
    table = dmap.table
    n = ring.size

    img = dmap.image.elements
    for u in img:
        for v in img:
            summed = set_add(ints.as_set(u), ints.as_set(v))
            expect = ints.as_set(ring.add(u, v))
            rec.check(summed == expect,
                      {"kind": "integral-additivity", "x": int(u), "y": int(v)})

    sum_cache: dict[tuple[int, int], ElementSet] = {}
    empty_witnessed = False
    for x, y in _pair_stream(n):
        a = ring.mul(int(table[x]), y)
        b = ring.mul(x, int(table[y]))
        ia = ints(a)
        ib = ints(b)
        if ia.is_empty or ib.is_empty:
            rec.instances += 1
            if not empty_witnessed and ia.is_empty and ib.is_empty:
                rec.note({"kind": "parts-preconditions-empty", "x": x, "y": y,
                          "dx_times_y": a, "x_times_dy": b})
                empty_witnessed = True
            continue
        key = (ia.representative, ib.representative)
        total = sum_cache.get(key)
        if total is None:
            total = set_add(ia.as_set(), ib.as_set())
            sum_cache[key] = total
        rec.check(ring.mul(x, y) in total,
                  {"kind": "parts-membership", "x": x, "y": y})
    return rec.finish()


# ---------------------------------------------------------------------------
# power-rules


def verify_power_rules(ring: FiniteRing, dmap: AdditiveMap,
                       config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Power membership rules on commutative unity rings, including
    negative exponents for invertible elements and the inverse-scaled
    transfer rules."""
    _require_map(ring, dmap, "derivation")
    config = config or CheckerConfig()
    rec = _Recorder("power-rules", ring)
    if ring.unity is None:
        return rec.skip("ring has no unity")
    if not ring.is_commutative():
        return rec.skip("ring is not commutative")
    N = config.max_exp
    ints = _IntegralCache(ring, dmap, "derivation")
    table = dmap.table
    one = ring.unity
    exps = list(range(-N, N + 1))
    bolds = {e: ring.bold(e) for e in exps}
    inv_bolds = {e: ring.invert(bolds[e]) for e in exps}

    for x in range(ring.size):
        dx = int(table[x])
        powers = [one]
        for _ in range(N + 1):
            powers.append(ring.mul(powers[-1], x))
        for e in range(1, N + 1):
            target = ring.mul(bolds[e], ring.mul(powers[e - 1], dx))
            rec.check(ints(target).contains(powers[e]),
                      {"kind": "power-rule", "x": x, "n": e})
            ib = inv_bolds[e]
            if ib is not None:
                scaled = ring.mul(powers[e - 1], dx)
                rec.check(ints(scaled).contains(ring.mul(ib, powers[e])),
                          {"kind": "power-rule-scaled", "x": x, "n": e})
        xi = ring.invert(x)
        if xi is None:
            continue
        ipowers = [one]
        for _ in range(N + 1):
            ipowers.append(ring.mul(ipowers[-1], xi))

        def power(e: int) -> int:
            return powers[e] if e >= 0 else ipowers[-e]

        for e in range(1, N + 1):
            target = ring.neg(ring.mul(bolds[e], ring.mul(ipowers[e + 1], dx)))
            rec.check(ints(target).contains(ipowers[e]),
                      {"kind": "inverse-power-rule", "x": x, "n": e})
        for e in exps:
            target = ring.mul(bolds[e], ring.mul(power(e - 1), dx))
            rec.check(ints(target).contains(power(e)),
                      {"kind": "integer-power-rule", "x": x, "n": e})
            ib = inv_bolds[e]
            if ib is not None:
                scaled = ring.mul(power(e - 1), dx)
                rec.check(ints(scaled).contains(ring.mul(ib, power(e))),
                          {"kind": "integer-power-rule-scaled", "x": x, "n": e})

    # transfer rules: scaling an antiderivative by an invertible integer
    for e in exps:
        ib = inv_bolds[e]
        if ib is None:
            continue
        b = bolds[e]
        for y in range(ring.size):
            ny = ring.mul(b, y)
            for xx in dmap.preimages.get(ny, ()):
                rec.check(ints(y).contains(ring.mul(ib, xx)),
                          {"kind": "transfer-down", "n": e, "y": y, "x": int(xx)})
            target_y = int(table[ring.mul(b, y)])
            rec.check(ints(ring.mul(ib, target_y)).contains(y),
                      {"kind": "transfer-up", "n": e, "x": y})
    return rec.finish()


# ---------------------------------------------------------------------------
# jordan-suite


def verify_jordan_suite(ring: FiniteRing, delta: AdditiveMap,
                        config: Optional[CheckerConfig] = None) -> TheoremReport:
    """The Jordan-law analogues: membership, coset structure, additivity,
    two-sided integration by parts, combination rules, and the
    surjectivity/injectivity criteria."""
    _require_map(ring, delta, "jordan")
    rec = _Recorder("jordan-suite", ring)
    ints = _IntegralCache(ring, delta, "jordan")
    table = delta.table
    kern = delta.kernel
    n = ring.size

    rec.check(ints(ring.zero).contains(ring.zero), {"kind": "zero-membership"})

    pre = delta.preimages
    for x in sorted(pre):
        members = pre[x]
        for y in members:
            for z in members:
                rec.check(ring.sub(y, z) in kern,
                          {"kind": "difference-not-in-kernel", "x": x,
                           "y": int(y), "z": int(z)})

    for x in range(n):
        rec.check(ints(int(table[x])).contains(x),
                  {"kind": "element-not-in-own-integral", "x": x})

    karr = np.asarray(kern.elements)
    for x in sorted(pre):
        members = pre[x]
        expect = np.asarray(members)
        for y in members:
            shifted = ring.add_table[y, karr]
            rec.check(bool(np.array_equal(np.sort(shifted), expect)),
                      {"kind": "coset-mismatch", "x": x, "y": int(y)})
        values = {int(table[y]) for y in members}
        rec.check(values == {x},
                  {"kind": "integral-maps-outside", "x": x})

    img = delta.image.elements
    for u in img:
        for v in img:
            summed = set_add(ints.as_set(u), ints.as_set(v))
            rec.check(summed == ints.as_set(ring.add(u, v)),
                      {"kind": "integral-additivity", "x": int(u), "y": int(v)})

    sum_cache: dict[tuple, ElementSet] = {}

    def cached_sum(*integrals) -> ElementSet:
        key = tuple(i.representative for i in integrals)
        got = sum_cache.get(key)
        if got is None:
            got = integrals[0].as_set()
            for other in integrals[1:]:
                got = set_add(got, other.as_set())
            sum_cache[key] = got
        return got

    for x, y in _pair_stream(n):
        dx = int(table[x])
        dy = int(table[y])
        parts = (ints(ring.mul(dx, y)), ints(ring.mul(x, dy)),
                 ints(ring.mul(dy, x)), ints(ring.mul(y, dx)))
        if any(p.is_empty for p in parts):
            rec.instances += 1
        else:
            total = cached_sum(*parts)
            rec.check(ring.jordan(x, y) in total,
                      {"kind": "jordan-parts-membership", "x": x, "y": y})
        x1, x2 = dx, dy
        rec.check(ints(ring.add(x1, x2)).contains(ring.add(x, y)),
                  {"kind": "sum-rule", "y1": x, "y2": y})
        target = ring.add(ring.add(ring.mul(x1, y), ring.mul(x, x2)),
                          ring.add(ring.mul(x2, x), ring.mul(y, x1)))
        rec.check(ints(target).contains(ring.jordan(x, y)),
                  {"kind": "jordan-product-rule", "y1": x, "y2": y})

    surjective = len(delta.image) == n
    all_nonempty = all(not ints(x).is_empty for x in range(n))
    rec.check(surjective == all_nonempty,
              {"kind": "surjectivity-criterion", "surjective": surjective,
               "all_nonempty": all_nonempty})
    injective = len(kern) == 1
    all_single = all(len(pre.get(x, ())) == 1 for x in range(n))
    rec.check(injective == all_single,
              {"kind": "injectivity-criterion", "injective": injective,
               "all_singletons": all_single})
    return rec.finish()


def verify_separation(ring: FiniteRing, delta: AdditiveMap,
                      config: Optional[CheckerConfig] = None) -> TheoremReport:
    rec = _Recorder("separation", ring)
    derivations = enumerate_derivations(ring)
    for i, d in enumerate(derivations):
        found = None
        for x in range(ring.size):
            if integrate(ring, d, x) != jordan_integrate(ring, delta, x):
                found = x
                break
        rec.check(found is not None,
                  {"kind": "indistinguishable",
                   "derivation": [int(v) for v in d.table]})
        if found is not None:
            rec.note({"kind": "separated", "derivation_index": i, "x": found})
    return rec.finish()


def is_proper(ring: FiniteRing, dmap: AdditiveMap) -> tuple[bool, Optional[tuple]]:
    img = dmap.image
    arr = np.asarray(img.elements)
    for u in img.elements:
        row = ring.mul_table[u, arr]
        outside = ~np.isin(row, arr)
        if outside.any():
            v = int(arr[int(np.argmax(outside))])
            return False, (int(u), v, int(ring.mul_table[u, v]))
    return True, None


def quotient_view(ring: FiniteRing, dmap: AdditiveMap) -> QuotientView:
    if dmap.ring is not ring:
        raise RingError("map belongs to a different ring")
    kernel = dmap.kernel
    karr = np.asarray(kernel.elements)
    index_map = [-1] * ring.size
    cosets: list[ElementSet] = []
    images: list[int] = []
    for e in range(ring.size):
        if index_map[e] != -1:
            continue
        members = np.sort(ring.add_table[e, karr])
        cid = len(cosets)
        for m in members:
            if index_map[int(m)] != -1:
                raise MapLawError("kernel cosets do not partition the ring")
            index_map[int(m)] = cid
        values = {int(dmap.table[int(m)]) for m in members}
        if len(values) != 1:
            raise MapLawError("induced map is not well defined on a coset")
        cosets.append(ElementSet(ring, members))
        images.append(values.pop())
    if len(set(images)) != len(cosets) or len(cosets) != len(dmap.image):
        raise MapLawError("induced map is not a bijection onto the image")
    for i, ci in enumerate(cosets):
        ri = ci.elements[0]
        for j, cj in enumerate(cosets):
            rj = cj.elements[0]
            k = index_map[ring.add(ri, rj)]
            if ring.add(images[i], images[j]) != images[k]:
                raise MapLawError("induced map is not additive on cosets")
    return QuotientView(ring, dmap, tuple(cosets), tuple(index_map), tuple(images))
