"""Exhaustive checkers for the algebraic laws of set-valued antiderivatives.

Every checker quantifies over concrete ring elements and produces a
TheoremReport: pass, fail (with counterexamples), or skipped when the ring or
map does not satisfy the hypotheses.  Every instance space is enumerated
exhaustively, so a report depends only on the ring, the map and the
checker windows.

The membership checks are array identities over the Cayley tables: a
checker evaluates one law on a block of whole rows at once (every bounded
loop walks _row_blocks, and a pair block's tables are rows of add and mul)
and records its instances and counterexamples in the order of the loop that
states the law (see _Recorder.check_all).  A report keeps counterexamples
in `witnesses` and informational entries (a capped range, a strict
inclusion, ...) in `notes`.  Membership is the definition:
y ∈ i_d(x) is d[y] == x, and z ∈ i_d(a) + i_d(b), both nonempty, is
d[z] == a + b, since d is additive.  Only the checks that the fibres are
kernel cosets read the coset form: coset-structure, basic's
integral-maps-outside and jordan-suite's coset-mismatch.

run_suite is checker-major: each checker runs over every map of the call
before the next checker starts.  power-rules and jordan-suite take all
their maps at once and evaluate them on (B, n) stacks of map tables:
blocks of whole maps, and for jordan-suite's pairs blocks of (map, x)
rows, all walked by _row_blocks.  Each map still gets its own report,
equal to the one-map call's (verify_power_rules and verify_jordan_suite
are that call), and a block call's seconds are split evenly among its
reports' runtime.  The reports come back map-major, herstein last.

Checker ids, in the fixed order run_suite uses:

basic              membership facts, surjectivity and injectivity criteria
kernel-constants   integer multiples of unity land in the kernel
coset-structure    every nonempty integral is a kernel coset, uniquely
kernel-scaling     kernel elements scale integrals into integrals
combination-rules  sum/product/inverse membership rules
additivity-parts   additivity of integrals and integration by parts
power-rules        power and inverse-power membership rules
jordan-suite       the Jordan-law analogues of the above
separation         a Jordan non-derivation is told apart from every derivation
herstein           on 2-torsion-free prime rings, Jordan implies Leibniz
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .maps import (AdditiveMap, MapLawError, _require_map, _row_blocks, _solve,
                   enumerate_derivations, enumerate_jordan_derivations)
from .rings import FiniteRing, RingError

MAX_WITNESSES = 25


@dataclass
class CheckerConfig:
    max_n: int = 8                      # window for integer multiples of unity
    max_exp: int = 6                    # largest exponent in power rules
    # seed has no effect: every instance space is checked exhaustively.  It
    # stays only while the benchmark harness passes it, and goes with the
    # next change to the benchmark.
    seed: int = 0


@dataclass
class TheoremReport:
    checker: str
    status: str                          # pass | fail | skipped
    reason: Optional[str]
    instances: int
    witnesses: list                      # counterexamples only
    runtime: float
    map_desc: Optional[str] = None
    notes: list = field(default_factory=list)   # informational entries

    def to_json(self) -> dict:
        out = {"checker": self.checker, "status": self.status}
        if self.reason is not None:
            out["reason"] = self.reason
        out["instances"] = self.instances
        out["witnesses"] = self.witnesses
        out["notes"] = self.notes
        out["runtime"] = round(self.runtime, 6)
        return out


class _Recorder:
    """Collects the instance count, the counterexamples and the notes of one
    checker run.  witnesses holds failed checks only, in the order they are
    recorded; notes holds informational entries.  Each list keeps its first
    MAX_WITNESSES entries."""

    def __init__(self, checker: str, ring: FiniteRing):
        self.checker = checker
        self.ring = ring
        self.t0 = time.perf_counter()
        self.instances = 0
        self.witnesses: list[dict] = []
        self.notes: list[dict] = []
        self.failed = False

    def _record(self, instances: int, failures):
        """Count instances and keep the witnesses of the first failures; the
        iterable failures is read no further than the cap needs."""
        self.instances += instances
        for witness in failures:
            self.failed = True
            if len(self.witnesses) == MAX_WITNESSES:
                break
            self.witnesses.append(witness)

    def check(self, ok: bool, witness: dict):
        self._record(1, () if ok else (witness,))

    def check_all(self, ok, witness, present=None):
        """Record a block of checks at once, as check() would one by one.

        ok has one row per instance tuple and one column per check made on
        it, both in loop order; a 1-D ok is one check per row.  Where
        present is given, only its True cells are checks.  witness(row, col)
        builds the witness of a failed check.
        """
        ok = np.asarray(ok, dtype=bool)
        if ok.ndim == 1:
            ok = ok[:, None]
        bad = ~ok
        if present is None:
            instances = ok.size
        else:
            bad &= present
            instances = int(np.count_nonzero(present))
        cols = ok.shape[1]
        self._record(instances, (witness(*divmod(i, cols))
                                 for i in map(int, np.flatnonzero(bad))))

    def note(self, entry: dict):
        if len(self.notes) < MAX_WITNESSES:
            self.notes.append(entry)

    def _report(self, status: str, reason: Optional[str]) -> TheoremReport:
        return TheoremReport(self.checker, status, reason, self.instances,
                             self.witnesses, time.perf_counter() - self.t0,
                             notes=self.notes)

    def skip(self, reason: str) -> TheoremReport:
        return self._report("skipped", reason)

    def finish(self) -> TheoremReport:
        if self.failed:
            assert self.witnesses, "failing reports must carry witnesses"
        return self._report("fail" if self.failed else "pass", None)


# ---------------------------------------------------------------------------
# Blocks of maps
#
# A block checker evaluates its laws on a (B, n) stack D of map tables at
# once, one _Recorder per map.  _check_rows records a block whose rows
# belong to several maps; each map's rows are recorded in its own loop
# order, so its report equals the one-map call's.


def _check_rows(recs: list[_Recorder], owner: np.ndarray, ok, witness,
                present=None):
    """Record a block of checks whose row i belongs to recs[owner[i]], as
    each recorder's check_all would record its own rows: owner is
    nondecreasing, so a map's rows are consecutive, and witness(i, col)
    takes the block's row i.  Maps without a failure only count."""
    if not len(owner):
        return
    ok = np.asarray(ok, dtype=bool).reshape(len(owner), -1)
    if present is not None:
        present = np.asarray(present, dtype=bool).reshape(len(owner), -1)
    if owner[0] == owner[-1]:
        recs[owner[0]].check_all(ok, witness, present)
        return
    bad = ~ok if present is None else ~ok & present
    per_row = (np.full(len(owner), ok.shape[1]) if present is None
               else np.count_nonzero(present, axis=1))
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    counts = np.add.reduceat(per_row, first).tolist()
    failing = np.logical_or.reduceat(bad.any(axis=1), first).tolist()
    ends = [*first.tolist()[1:], len(owner)]
    for m, a, b, count, fails in zip(owner[first].tolist(), first.tolist(), ends,
                                     counts, failing):
        if not fails:
            recs[m].instances += count
            continue
        recs[m].check_all(ok[a:b], lambda i, col, a=a: witness(a + i, col),
                          None if present is None else present[a:b])


def _tables(maps: list[AdditiveMap], ids: np.ndarray) -> np.ndarray:
    """The (len(ids), n) stack of the tables of maps[ids], int32 as listed."""
    return np.stack([maps[i].table for i in ids.tolist()])


def _fibres_of(D: np.ndarray):
    """(order, count, start) of every table of the block D.  order[b]
    lists the elements by (D[b, y], y), so the fibre of v under map b is
    order[b, start[b, v]:start[b, v] + count[b, v]], in increasing order."""
    B, n = D.shape
    order = np.argsort(D, axis=1, kind="stable")
    count = np.bincount((D + n * np.arange(B)[:, None]).ravel(),
                        minlength=B * n).reshape(B, n)
    return order, count, np.cumsum(count, axis=1) - count


def _members(fibres, b: np.ndarray, v: np.ndarray, width: int):
    """(members, present): the fibre of v[...] under map b[...], padded to
    width cells, of which present marks the fibre's own."""
    order, count, start = fibres
    cols = np.arange(width)
    pos = np.minimum(start[b, v][..., None] + cols, order.shape[1] - 1)
    return order[b[..., None], pos], cols < count[b, v][..., None]


def _finish(recs: list[_Recorder], t0: float) -> list[TheoremReport]:
    """The recorders' reports, the block's seconds since t0 split evenly
    among them as their runtime."""
    reports = [rec.finish() for rec in recs]
    share = (time.perf_counter() - t0) / max(1, len(reports))
    for report in reports:
        report.runtime = share
    return reports


def _additivity(add: np.ndarray, D: np.ndarray, u: np.ndarray, r: np.ndarray):
    """(ok, witness) for i_d(u) + i_d(v) = i_d(u + v) over u, v in the
    image of each map of the block D: row b of u lists map b's image in
    increasing order (padded), r holds rep[u], and ok has one row per
    (map, u) and one column per v.  Where the fibres are kernel cosets
    (coset-structure checks that), the left side is (rep[u] + rep[v]) +
    Ker, so the two are equal exactly when d(rep[u] + rep[v]) = u + v."""
    width = u.shape[1]
    b = np.arange(len(D))[:, None, None]
    ok = D[b, add[r[:, :, None], r[:, None, :]]] == add[u[:, :, None], u[:, None, :]]

    def witness(row, j):
        m, i = divmod(row, width)
        return {"kind": "integral-additivity", "x": int(u[m, i]), "y": int(u[m, j])}

    return ok.reshape(-1, width), witness


def _check_criteria(rec: _Recorder, surjective: bool, all_nonempty: bool,
                    injective: bool, all_single: bool):
    """d is onto iff no integral is empty, and one-to-one iff every
    integral of an element is a singleton."""
    rec.check(surjective == all_nonempty,
              {"kind": "surjectivity-criterion", "surjective": surjective,
               "all_nonempty": all_nonempty})
    rec.check(injective == all_single,
              {"kind": "injectivity-criterion", "injective": injective,
               "all_singletons": all_single})


def _member_triples(dmap: AdditiveMap):
    """(x, y, Z, present): for every x in the image in increasing order and
    every y in its preimage, one row whose present cells of Z list that
    preimage again -- the loop order of `for x: for y in pre[x]: for z in
    pre[x]`."""
    fib = dmap.fibres
    group = np.repeat(np.arange(len(fib.values)), fib.present.sum(axis=1))
    return (fib.values[group], fib.members[fib.present], fib.members[group],
            fib.present[group])


# ---------------------------------------------------------------------------
# basic


def verify_basic(ring: FiniteRing, dmap: AdditiveMap,
                 config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Membership facts and the surjectivity/injectivity criteria."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("basic", ring)
    fib = dmap.fibres
    d = dmap.table
    elems = np.arange(ring.size)

    rec.check(d[ring.zero] == ring.zero, {"kind": "zero-membership"})
    rec.check_all(d[elems] == d,
                  lambda x, _: {"kind": "element-not-in-own-integral", "x": x})
    # d maps the coset rep[x] + Ker onto {x}; an empty integral holds vacuously
    values = d[ring.add_table[fib.rep[:, None], np.flatnonzero(fib.ker)[None, :]]]
    onto = (values == elems[:, None]).all(axis=1)
    rec.check_all((fib.rep < 0) | onto,
                  lambda x, _: {"kind": "integral-maps-outside", "x": x,
                                "values": sorted({int(v) for v in values[x]})})
    _check_criteria(rec, len(dmap.image) == ring.size, bool((fib.rep >= 0).all()),
                    len(dmap.kernel) == 1,
                    bool((np.bincount(d, minlength=ring.size) == 1).all()))
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
    bs = np.array([ring.bold(m) for m in ns], dtype=np.intp)
    inverses = [ring.invert(int(b)) for b in bs]
    ker = dmap.fibres.ker

    # n·1 and -(n·1) in the kernel: one row per n
    rec.check_all(np.column_stack([ker[bs], ker[ring.neg_table[bs]]]),
                  lambda i, j: ({"kind": "bold-not-in-kernel", "n": ns[i],
                                 "element": int(bs[i])},
                                {"kind": "bold-negative-not-in-kernel", "n": ns[i]})[j])

    # (n·1)^-1·(m·1) and (m·1)·(n·1)^-1 in the kernel: one row per (n, m)
    # with n·1 invertible, left then right
    invertible_ns = [m for m, ib in zip(ns, inverses) if ib is not None]
    ibs = np.array([ib for ib in inverses if ib is not None], dtype=np.intp)
    mul = ring.mul_table
    shifts = np.stack([mul[ibs[:, None], bs[None, :]],
                       mul[bs[None, :], ibs[:, None]]], axis=-1).reshape(-1)
    rec.check_all(ker[shifts].reshape(-1, 2),
                  lambda row, side: {"kind": ("scaled-bold-not-in-kernel",
                                              "bold-scaled-not-in-kernel")[side],
                                     "n": invertible_ns[row // len(ns)],
                                     "m": ns[row % len(ns)]})

    # y plus each of those stays in i_d(d(y)): one row per y, columns in the
    # same (n, m, left/right) order
    d = dmap.table
    ys = np.arange(ring.size)
    ok = d[ring.add_table[ys[:, None], shifts[None, :]]] == d[:, None]

    def witness(y, col):
        i, rest = divmod(col, 2 * len(ns))
        j, side = divmod(rest, 2)
        return {"kind": ("shifted-left", "shifted-right")[side], "y": y,
                "n": invertible_ns[i], "m": ns[j]}

    rec.check_all(ok, witness)
    return rec.finish()


# ---------------------------------------------------------------------------
# coset-structure


def verify_coset_structure(ring: FiniteRing, dmap: AdditiveMap,
                           config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Every nonempty integral equals y + Ker(d) for each of its members,
    with each member reached by exactly one kernel offset."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("coset-structure", ring)
    fib = dmap.fibres
    karr = np.flatnonzero(fib.ker)
    k = len(karr)
    counts = fib.present.sum(axis=1)
    # one row per member y of each preimage, x in increasing order: the
    # sorted coset y + Ker equals the preimage, and its offsets are distinct
    group = np.repeat(np.arange(len(fib.values)), counts)
    ys = fib.members[fib.present]
    kinds = ("coset-mismatch", "nonunique-kernel-offset")
    for r in _row_blocks(len(ys), k):
        g, y = group[r], ys[r]
        shifted = np.sort(ring.add_table[y[:, None], karr[None, :]], axis=1)
        same = counts[g] == k
        if k <= fib.members.shape[1]:
            same &= (shifted == fib.members[g, :k]).all(axis=1)
        distinct = (np.diff(shifted, axis=1) != 0).all(axis=1)
        rec.check_all(np.column_stack([same, distinct]),
                      lambda i, j: {"kind": kinds[j], "x": int(fib.values[g[i]]),
                                    "y": int(y[i])})
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
    fib = dmap.fibres
    d, mul = dmap.table, ring.mul_table
    n = ring.size
    sizes = np.bincount(d, minlength=n)      # |i_d(x)|
    ws = np.flatnonzero(fib.ker)
    if ring.unity is not None:
        invertible = ring.inverse_table()[ws] >= 0
    else:
        invertible = np.zeros(len(ws), dtype=bool)
    # one row per (w, x), x over the image in increasing order; an x with an
    # empty integral has two vacuously true inclusions and no row.  Columns:
    # left and right inclusion, both targets nonempty, left and right
    # equality (a check only for invertible w).
    x, members, present = fib.values, fib.members, fib.present
    groups = len(x)
    kinds = ("left-scaling-escape", "right-scaling-escape",
             "scaled-integral-empty", "left-scaling-not-equal",
             "right-scaling-not-equal")
    strict_seen = False
    for r in _row_blocks(len(ws), members.size):
        w = ws[r, None]
        inv = invertible[r, None, None]
        sides = []
        for wx, wy in ((mul[w, x], mul[w[:, :, None], members]),
                       (mul[x, w], mul[members, w[:, :, None]])):
            inside = (~present | (d[wy] == wx[:, :, None])).all(axis=2)
            # |w·i_d(x)|: distinct cells of the sorted row, with the padding
            # cells repeating its first member
            scaled = np.sort(np.where(present, wy, wy[:, :, :1]), axis=2)
            distinct = 1 + np.count_nonzero(np.diff(scaled, axis=2), axis=2)
            sides.append((sizes[wx], inside, distinct))
        (target_l, left_in, left_n), (target_r, right_in, right_n) = sides
        ok = np.stack([left_in, right_in, (target_l > 0) & (target_r > 0),
                       left_in & (left_n == target_l),
                       right_in & (right_n == target_r)], axis=-1)
        live = np.ones(ok.shape, dtype=bool)
        live[..., 3:] = inv
        strict = (~inv[..., 0] & left_in & (left_n < target_l)).ravel()
        if not strict_seen and strict.any():
            i, g = divmod(int(np.argmax(strict)), groups)
            rec.note({"kind": "strict-inclusion", "w": int(w[i, 0]), "x": int(x[g]),
                      "scaled_size": int(left_n[i, g]),
                      "integral_size": int(target_l[i, g])})
            strict_seen = True

        def witness(row, col):
            i, g = divmod(row, groups)
            return {"kind": kinds[col], "w": int(w[i, 0]), "x": int(x[g])}

        rec.check_all(ok.reshape(-1, 5), witness, present=live.reshape(-1, 5))
        rec.instances += 2 * (n - groups) * len(w)
    return rec.finish()


# ---------------------------------------------------------------------------
# combination-rules


def verify_combination_rules(ring: FiniteRing, dmap: AdditiveMap,
                             config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Sums and products of antiderivatives integrate the matching
    combinations, plus the inverse membership rules on unity rings."""
    _require_map(ring, dmap, "derivation")
    rec = _Recorder("combination-rules", ring)
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    d = dmap.table
    n = ring.size

    for y1 in _row_blocks(n, n):
        x1 = d[y1]
        ok = np.stack([d[add[y1]] == add[x1][:, d],
                       d[mul[y1]] == add[mul[x1], mul[y1][:, d]]], axis=-1)
        rec.check_all(ok.reshape(-1, 2), lambda i, j: {
            "kind": ("sum-rule", "product-rule")[j], "y1": int(y1[i // n]), "y2": i % n})

    # y, z in one integral i_d(x): the sum and product rules inside it
    x, y, z, present = _member_triples(dmap)
    x, y = x[:, None], y[:, None]
    ok = np.stack([d[add[y, z]] == add[x, x],
                   d[mul[y, z]] == add[mul[x, z], mul[y, x]]], axis=-1)
    rec.check_all(ok.reshape(len(ok), -1),
                  lambda i, j: {"kind": ("same-integral-sum",
                                         "same-integral-product")[j % 2],
                                "x": int(x[i, 0]),
                                "y": int(y[i, 0]), "z": int(z[i, j // 2])},
                  present=np.repeat(present, 2, axis=1))

    if ring.unity is not None:
        inverse = ring.inverse_table()
        units = np.flatnonzero(inverse >= 0)
        yi = inverse[units]
        dy = d[units]
        checks = [d[yi] == neg[mul[mul[yi, dy], yi]]]
        kinds = ("inverse-rule", "inverse-rule-commutative")
        if ring.is_commutative():
            checks.append(d[yi] == neg[mul[mul[yi, yi], dy]])
        rec.check_all(np.stack(checks, axis=1),
                      lambda i, j: {"kind": kinds[j], "y": int(units[i])})
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
    add, mul = ring.add_table, ring.mul_table
    d = dmap.table
    rep = dmap.fibres.rep
    n = ring.size

    values = dmap.fibres.values
    rec.check_all(*_additivity(add, d[None], values[None], rep[values][None]))

    empty_witnessed = False
    for x in _row_blocks(n, n):
        a, b = mul[d[x]], mul[x][:, d]      # d(x[i])·y and x[i]·d(y) at (i, y)
        empty_a = rep[a] < 0
        empty_b = rep[b] < 0
        # a pair with an empty part integral counts as a vacuous instance;
        # otherwise i_d(a) + i_d(b) = i_d(a + b), as d is additive
        ok = empty_a | empty_b | (d[mul[x]] == add[a, b])
        both = np.flatnonzero(empty_a & empty_b)
        if not empty_witnessed and len(both):
            i, y = divmod(int(both[0]), n)
            rec.note({"kind": "parts-preconditions-empty", "x": int(x[i]), "y": y,
                      "dx_times_y": int(a[i, y]), "x_times_dy": int(b[i, y])})
            empty_witnessed = True
        rec.check_all(ok, lambda i, y: {"kind": "parts-membership",
                                        "x": int(x[i]), "y": y})
    return rec.finish()


# ---------------------------------------------------------------------------
# power-rules


def verify_power_rules(ring: FiniteRing, dmap: AdditiveMap,
                       config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Power membership rules on commutative unity rings, including
    negative exponents for invertible elements and the inverse-scaled
    transfer rules: the one-map call of _power_rules."""
    return _power_rules(ring, [dmap], config)[0]


def _power_rules(ring: FiniteRing, maps: list[AdditiveMap],
                 config: Optional[CheckerConfig] = None) -> list[TheoremReport]:
    """power-rules on every map of the list, in blocks of whole maps, one
    report per map.  The powers, bold(e), their inverses and the inverse
    table belong to the ring and are computed once per call."""
    for dmap in maps:
        _require_map(ring, dmap, "derivation")
    config = config or CheckerConfig()
    t0 = time.perf_counter()
    recs = [_Recorder("power-rules", ring) for _ in maps]
    if ring.unity is None:
        return [rec.skip("ring has no unity") for rec in recs]
    if not ring.is_commutative():
        return [rec.skip("ring is not commutative") for rec in recs]
    for dmap in maps:
        dmap.kernel     # raises MapLawError unless it is an additive subgroup
    N = config.max_exp
    mul, neg = ring.mul_table, ring.neg_table
    n = ring.size
    exps = list(range(-N, N + 1))
    bolds = {e: ring.bold(e) for e in exps}
    inv_bolds = {e: ring.invert(bolds[e]) for e in exps}

    # x^k and x^-k for k = 0..N+1, one column per x (x^-k is junk where x
    # is not invertible, and those x skip its rules)
    x = np.arange(n)
    inverse = ring.inverse_table()
    invertible = inverse >= 0
    xi = np.where(invertible, inverse, ring.unity)
    powers = [np.full(n, ring.unity)]
    ipowers = [np.full(n, ring.unity)]
    for _ in range(N + 1):
        powers.append(mul[powers[-1], x])
        ipowers.append(mul[ipowers[-1], xi])

    def power(e):
        return powers[e] if e >= 0 else ipowers[-e]

    # check j states d(at[j](x)) == outer[j](factor[j](x)·d(x)) at every x;
    # a row (at, outer, factor, kind, e, only for invertible x) per check
    checks = []
    for e in range(1, N + 1):
        checks.append((powers[e], mul[bolds[e]], powers[e - 1], "power-rule", e, False))
        if inv_bolds[e] is not None:
            checks.append((mul[inv_bolds[e], powers[e]], x, powers[e - 1],
                           "power-rule-scaled", e, False))
    for e in range(1, N + 1):
        checks.append((ipowers[e], neg[mul[bolds[e]]], ipowers[e + 1],
                       "inverse-power-rule", e, True))
    for e in exps:
        checks.append((power(e), mul[bolds[e]], power(e - 1), "integer-power-rule", e, True))
        if inv_bolds[e] is not None:
            checks.append((mul[inv_bolds[e], power(e)], x, power(e - 1),
                           "integer-power-rule-scaled", e, True))
    if checks:      # none when max_exp < 0
        at, outer, factor, kinds, es, unit_only = zip(*checks)
        at, factor = np.array(at), np.array(factor)
        outer = np.array(outer).ravel()
        outer_rows = (np.arange(len(checks)) * n)[:, None]
        present = np.where(unit_only, invertible[:, None], True)

    def check_witness(row, col):
        return {"kind": kinds[col], "x": row % n, "n": es[col]}

    # one row per (map, x) for the checks, and per (map, y) for each
    # transfer exponent, whose columns are a fibre and one more check
    for ids in _row_blocks(len(maps), n * max(n + 1, len(checks))):
        D = _tables(maps, ids)
        fibres = _fibres_of(D)
        owner = np.repeat(ids, n)
        if checks:
            ok = D[:, at] == outer[outer_rows + mul[factor, D[:, None, :]]]
            _check_rows(recs, owner, ok.transpose(0, 2, 1), check_witness,
                        present=np.tile(present, (len(ids), 1)))

        # transfer rules: scaling an antiderivative by an invertible
        # integer.  One row per y: the preimage of n*y, then transfer-up.
        b = np.arange(len(ids))[:, None]
        width = int(fibres[1].max())
        up_present = np.ones((len(ids), n, 1), dtype=bool)
        for e in exps:
            ib = inv_bolds[e]
            if ib is None:
                continue
            ny = mul[bolds[e], x]
            pre, in_pre = _members(fibres, b, ny[None, :], width)
            down = D[b[..., None], mul[ib, pre]] == x[:, None]
            up = D == mul[ib, D[:, ny]]

            def witness(row, col, e=e, pre=pre):
                m, y = divmod(row, n)
                if col == width:
                    return {"kind": "transfer-up", "n": e, "x": y}
                return {"kind": "transfer-down", "n": e, "y": y, "x": int(pre[m, y, col])}

            _check_rows(recs, owner, np.concatenate([down, up[..., None]], axis=2),
                        witness, present=np.concatenate([in_pre, up_present], axis=2)
                        .reshape(len(owner), -1))
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# jordan-suite


def verify_jordan_suite(ring: FiniteRing, delta: AdditiveMap,
                        config: Optional[CheckerConfig] = None) -> TheoremReport:
    """The Jordan-law analogues: membership, coset structure, additivity,
    two-sided integration by parts, combination rules, and the
    surjectivity/injectivity criteria: the one-map call of _jordan_suite."""
    return _jordan_suite(ring, [delta], config)[0]


def _jordan_suite(ring: FiniteRing, maps: list[AdditiveMap],
                  config: Optional[CheckerConfig] = None) -> list[TheoremReport]:
    """jordan-suite on every map of the list, one report per map.  The
    fibre checks walk blocks of whole maps; then the pair checks walk
    (map, x) rows with y the whole row, so a block of them may start or
    end inside a map; then the criteria close each report."""
    for delta in maps:
        _require_map(ring, delta, "jordan")
    t0 = time.perf_counter()
    recs = [_Recorder("jordan-suite", ring) for _ in maps]
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    n, zero = ring.size, ring.zero
    elems = np.arange(n)
    crit = np.zeros((len(maps), 4), dtype=bool)

    for ids in _row_blocks(len(maps), n * n):
        D = _tables(maps, ids)
        B = len(ids)
        b = np.arange(B)[:, None]
        fibres = order, count, start = _fibres_of(D)
        # the kernel holds zero; the pair rows below check that it is
        # closed under addition
        if not (D[:, zero] == zero).all():
            raise MapLawError("kernel failed the subgroup check")
        _check_rows(recs, ids, D[:, zero] == zero, lambda i, j: {"kind": "zero-membership"})

        # row (b, p) holds the p-th element y of map b's sorted order and
        # x = d(y), in increasing order; its columns z run over pre[x]: the
        # loop order of `for x: for y in pre[x]: for z in pre[x]`
        y = order
        x = np.take_along_axis(D, order, axis=1)
        width = int(count.max())
        z, here = _members(fibres, b, x, width)
        owner = np.repeat(ids, n)
        _check_rows(recs, owner, D[b[..., None], add[y[..., None], neg[z]]] == zero,
                    lambda row, j: {"kind": "difference-not-in-kernel",
                                    "x": int(x.flat[row]), "y": int(y.flat[row]),
                                    "z": int(z.reshape(-1, width)[row, j])},
                    present=here)

        _check_rows(recs, owner, D[:, elems] == D,
                    lambda row, _: {"kind": "element-not-in-own-integral", "x": row % n})

        # for each member y, y + Ker equals the preimage of x; after the
        # last member, d maps the preimage onto {x}.  Kernel offsets are
        # distinct, so the sorted coset equals the preimage exactly when
        # the sizes agree and every offset stays inside.
        kernels = count[:, zero]
        karr, in_ker = _members(fibres, b[:, 0], zero, int(kernels.max()))
        shifted = D[b[..., None], add[elems[:, None], karr[:, None, :]]]
        stays = (~in_ker[:, None, :] | (shifted == D[..., None])).all(axis=2)
        coset_ok = (count[b, D] == kernels[:, None]) & stays
        last = np.arange(n) == start[b, x] + count[b, x] - 1
        onto = np.zeros((B, n), dtype=bool)
        m, p = np.nonzero(last)
        onto[m, p] = (~here[m, p] | (D[m[:, None], z[m, p]] == x[m, p, None])).all(axis=1)

        def coset_witness(row, j):
            if j == 1:
                return {"kind": "integral-maps-outside", "x": int(x.flat[row])}
            return {"kind": "coset-mismatch", "x": int(x.flat[row]), "y": int(y.flat[row])}

        _check_rows(recs, owner,
                    np.stack([np.take_along_axis(coset_ok, y, axis=1), onto], axis=-1),
                    coset_witness, present=np.stack([np.ones((B, n), dtype=bool), last],
                                                    axis=-1))

        images = np.count_nonzero(count, axis=1)
        u = np.argsort(count == 0, axis=1, kind="stable")[:, :int(images.max())]
        here = np.arange(u.shape[1]) < images[:, None]
        _check_rows(recs, np.repeat(ids, u.shape[1]),
                    *_additivity(add, D, u, order[b, np.minimum(start[b, u], n - 1)]),
                    present=here[:, :, None] & here[:, None, :])
        crit[ids] = np.column_stack([images == n, (count > 0).all(axis=1),
                                     kernels == 1, (count == 1).all(axis=1)])

    # x∘y = xy + yx, one table per call, the size of add and mul
    jordan = add[mul, mul.T]
    for r in _row_blocks(len(maps) * n, n):
        own, x = r // n, r % n
        lo = int(own[0])
        D = _tables(maps, np.arange(lo, int(own[-1]) + 1))
        flat = D.ravel()
        base = ((own - lo) * n)[:, None]        # flat[base + y] is d(y) in row i's map
        d = D[own - lo]
        dx = flat[base[:, 0] + x]
        # d(x∘y) against the sum of the four parts d(x)y, x d(y), d(y)x and
        # y d(x), which is d(x)∘y + x∘d(y)
        product_rule = flat[base + jordan[x]] == add[jordan[dx], jordan[x[:, None], d]]
        dsum = flat[base + add[x]]
        # K[x] and K[y] imply K[x + y]: the kernel is closed under addition
        if not ((dx[:, None] != zero) | (d != zero) | (dsum == zero)).all():
            raise MapLawError("kernel failed the subgroup check")
        # a pair with an empty part integral counts as a vacuous instance;
        # otherwise the sum of the four part integrals is i_d(target), so
        # only a pair that fails the product rule needs its parts' integrals
        parts_rule = product_rule.copy()
        i, y = np.nonzero(~product_rule)
        if len(i):
            in_image = np.bincount((D + n * np.arange(len(D))[:, None]).ravel(),
                                   minlength=D.size) > 0
            dy = d[i, y]
            parts = (mul[dx[i], y], mul[x[i], dy], mul[dy, x[i]], mul[y, dx[i]])
            parts_rule[i, y] = ~np.logical_and.reduce([in_image[base[i, 0] + p]
                                                       for p in parts])
        ok = np.stack([parts_rule, dsum == add[dx[:, None], d], product_rule], axis=-1)

        def pair_witness(i, col, x=x):
            y, j = divmod(col, 3)
            if j == 0:
                return {"kind": "jordan-parts-membership", "x": int(x[i]), "y": y}
            return {"kind": ("sum-rule", "jordan-product-rule")[j - 1],
                    "y1": int(x[i]), "y2": y}

        _check_rows(recs, own, ok, pair_witness)

    for rec, row in zip(recs, crit.tolist()):
        _check_criteria(rec, *row)
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# separation


def verify_separation(ring: FiniteRing, delta: AdditiveMap,
                      config: Optional[CheckerConfig] = None) -> TheoremReport:
    """The given Jordan non-derivation is distinguished from every
    derivation of the ring by some integral value."""
    _require_map(ring, delta, "jordan")
    if delta.is_derivation:
        raise MapLawError("map is a derivation")
    return _separation(ring, delta, enumerate_derivations(ring))


def _separation(ring: FiniteRing, delta: AdditiveMap,
                derivations: list[AdditiveMap]) -> TheoremReport:
    """i_d(x) and j_δ(x) differ exactly when some y with d(y) ≠ δ(y) has
    d(y) = x or δ(y) = x, so the first separating x is the least
    min(d(y), δ(y)) over those y."""
    rec = _Recorder("separation", ring)
    tables = np.stack([d.table for d in derivations])
    differ = tables != delta.table
    separated = differ.any(axis=1)
    rec.check_all(separated, lambda i, _: {"kind": "indistinguishable",
                                           "derivation": [int(v) for v in tables[i]]})
    found = np.where(differ, np.minimum(tables, delta.table), ring.size).min(axis=1)
    for i in np.flatnonzero(separated):
        rec.note({"kind": "separated", "derivation_index": int(i), "x": int(found[i])})
    return rec.finish()


def find_jordan_not_derivation(ring: FiniteRing, progress=None) -> Optional[AdditiveMap]:
    """The canonically first Jordan derivation that fails the Leibniz law."""
    for jmap in enumerate_jordan_derivations(ring, progress):
        if not jmap.is_derivation:
            return jmap
    return None


# ---------------------------------------------------------------------------
# herstein


def herstein_check(ring: FiniteRing,
                   config: Optional[CheckerConfig] = None) -> TheoremReport:
    """On a 2-torsion-free prime ring, every Jordan derivation satisfies
    the Leibniz law (Herstein 1957): as Der(R) ⊆ JDer(R), the solver's
    counts agree.  Nothing is listed; the instances are |JDer(R)|."""
    rec = _Recorder("herstein", ring)
    if not ring.is_n_torsion_free(2):
        return rec.skip("not 2-torsion-free")
    if not ring.is_prime():
        return rec.skip("not prime")
    jordan, der = (_solve(ring, law)[3] for law in ("jordan", "derivation"))
    witness = {"kind": "jordan-not-derivation", "jordan": jordan, "derivations": der}
    rec._record(jordan, () if jordan == der else (witness,))
    return rec.finish()


# ---------------------------------------------------------------------------
# run_suite


CHECKER_ORDER = (
    "basic",
    "kernel-constants",
    "coset-structure",
    "kernel-scaling",
    "combination-rules",
    "additivity-parts",
    "power-rules",
    "jordan-suite",
    "separation",
    "herstein",
)

_DERIVATION_CHECKERS = {
    "basic": verify_basic,
    "kernel-constants": verify_kernel_constants,
    "coset-structure": verify_coset_structure,
    "kernel-scaling": verify_kernel_scaling,
    "combination-rules": verify_combination_rules,
    "additivity-parts": verify_additivity_and_parts,
}

# checkers whose block form takes every applicable map of a call at once
_BLOCK_CHECKERS = {"power-rules": _power_rules, "jordan-suite": _jordan_suite}


def _run_checker(ring: FiniteRing, maps: list[AdditiveMap], checker: str,
                 config: CheckerConfig) -> list[TheoremReport]:
    """One checker on every map, one report per map in order; separation
    lists Der(R) once for all its maps."""
    law = "jordan" if checker in ("jordan-suite", "separation") else "derivation"
    reports: list[Optional[TheoremReport]] = [None] * len(maps)
    live = []
    for i, amap in enumerate(maps):
        if law == "derivation" and not amap.is_derivation:
            reason = "map is not a validated derivation"
        elif law == "jordan" and not amap.is_jordan:
            reason = "map is not a validated Jordan derivation"
        elif checker == "separation" and amap.is_derivation:
            reason = "map is a derivation"
        else:
            live.append(i)
            continue
        reports[i] = _Recorder(checker, ring).skip(reason)
    chosen = [maps[i] for i in live]
    if checker in _BLOCK_CHECKERS:
        got = _BLOCK_CHECKERS[checker](ring, chosen, config)
    elif checker == "separation":
        # run_suite has validated the ids and runs herstein itself
        derivations = enumerate_derivations(ring) if chosen else []
        got = [_separation(ring, amap, derivations) for amap in chosen]
    else:
        got = [_DERIVATION_CHECKERS[checker](ring, amap, config) for amap in chosen]
    for i, report in zip(live, got):
        reports[i] = report
    return reports


def run_suite(ring: FiniteRing, maps: list[tuple[str, AdditiveMap]],
              checkers="all", config: Optional[CheckerConfig] = None,
              jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checkers, "all" or a list of ids, over the
    (descriptor, map) pairs, with the ring-level herstein checker once at
    the end.  Der(R) is listed at most once per call, when separation
    first needs it.

    The run is checker-major: each checker runs over every map before the
    next starts, so power-rules and jordan-suite see all their maps as
    one list and check them in blocks (see _power_rules and
    _jordan_suite), splitting a block's seconds evenly among its reports'
    runtime.  The reports come back map-major all the same: for each map
    in order, one report per selected checker in CHECKER_ORDER, then
    herstein's.

    jobs has no effect: the checkers run one after another in the calling
    thread.  They spend their time in numpy, and a thread pool over them
    gave no speed-up.  The argument stays only while the benchmark harness
    passes it, and goes with the next change to the benchmark."""
    config = config or CheckerConfig()
    if checkers == "all":
        selected = list(CHECKER_ORDER)
    else:
        selected = list(checkers)
        unknown = [c for c in selected if c not in CHECKER_ORDER]
        if unknown:
            raise RingError(f"unknown checker ids: {', '.join(unknown)}")

    amaps = [amap for _, amap in maps]
    by_checker = [_run_checker(ring, amaps, cid, config)
                  for cid in CHECKER_ORDER if cid != "herstein" and cid in selected]
    reports = []
    for i, (desc, _) in enumerate(maps):
        for column in by_checker:
            report = column[i]
            report.map_desc = desc
            reports.append(report)

    if "herstein" in selected:
        report = herstein_check(ring, config)
        report.map_desc = None
        reports.append(report)
    return reports


def suite_status(reports: list[TheoremReport]) -> str:
    return "fail" if any(r.status == "fail" for r in reports) else "pass"
