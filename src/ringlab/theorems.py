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

from .maps import (AdditiveMap, MapLawError, _require_map, _solve,
                   enumerate_derivations, enumerate_jordan_derivations)
from .rings import FiniteRing, RingError

MAX_WITNESSES = 25
_BLOCK = 1 << 16    # cells per array step, which bounds a check's memory


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


def _row_blocks(rows: int, width: int):
    """Row indices 0..rows-1 in blocks of consecutive whole rows: at least
    one row, at most _BLOCK cells of the given width.  A pair block x has y
    the whole row, its tables are rows (add[x], mul[x], mul[d[x]], ...),
    and its raveled pair i is (x[i // n], i % n)."""
    step = max(1, _BLOCK // width)
    for r0 in range(0, rows, step):
        yield np.arange(r0, min(rows, r0 + step))


def _check_additivity(rec: _Recorder, ring: FiniteRing, dmap: AdditiveMap):
    """i_d(u) + i_d(v) = i_d(u + v) for all u, v in the image.  Where the
    fibres are kernel cosets (coset-structure checks that), the left side
    is (rep[u] + rep[v]) + Ker, so the two are equal exactly when
    d(rep[u] + rep[v]) = u + v."""
    add = ring.add_table
    u = dmap.fibres.values
    r = dmap.fibres.rep[u]
    ok = dmap.table[add[r[:, None], r[None, :]]] == add[u[:, None], u[None, :]]
    rec.check_all(ok, lambda i, j: {"kind": "integral-additivity",
                                    "x": int(u[i]), "y": int(u[j])})


def _check_criteria(rec: _Recorder, ring: FiniteRing, dmap: AdditiveMap):
    """d is onto iff no integral is empty, and one-to-one iff every
    integral of an element is a singleton."""
    surjective = len(dmap.image) == ring.size
    all_nonempty = bool((dmap.fibres.rep >= 0).all())
    rec.check(surjective == all_nonempty,
              {"kind": "surjectivity-criterion", "surjective": surjective,
               "all_nonempty": all_nonempty})
    injective = len(dmap.kernel) == 1
    all_single = bool((np.bincount(dmap.table, minlength=ring.size) == 1).all())
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
    _check_criteria(rec, ring, dmap)
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

    _check_additivity(rec, ring, dmap)

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
    transfer rules."""
    _require_map(ring, dmap, "derivation")
    config = config or CheckerConfig()
    rec = _Recorder("power-rules", ring)
    if ring.unity is None:
        return rec.skip("ring has no unity")
    if not ring.is_commutative():
        return rec.skip("ring is not commutative")
    N = config.max_exp
    mul, neg = ring.mul_table, ring.neg_table
    d = dmap.table
    n = ring.size
    exps = list(range(-N, N + 1))
    bolds = {e: ring.bold(e) for e in exps}
    inv_bolds = {e: ring.invert(bolds[e]) for e in exps}

    # one row per x; x^k and x^-k as columns k = 0..N+1 (x^-k is junk
    # where x is not invertible, and those rows skip its rules)
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

    checks, kinds, es, unit_only = [], [], [], []

    def add_check(ok, kind, e, units):
        checks.append(ok)
        kinds.append(kind)
        es.append(e)
        unit_only.append(units)

    for e in range(1, N + 1):
        add_check(d[powers[e]] == mul[bolds[e], mul[powers[e - 1], d]],
                  "power-rule", e, False)
        if inv_bolds[e] is not None:
            add_check(d[mul[inv_bolds[e], powers[e]]] == mul[powers[e - 1], d],
                      "power-rule-scaled", e, False)
    for e in range(1, N + 1):
        add_check(d[ipowers[e]] == neg[mul[bolds[e], mul[ipowers[e + 1], d]]],
                  "inverse-power-rule", e, True)
    for e in exps:
        add_check(d[power(e)] == mul[bolds[e], mul[power(e - 1), d]],
                  "integer-power-rule", e, True)
        if inv_bolds[e] is not None:
            add_check(d[mul[inv_bolds[e], power(e)]] == mul[power(e - 1), d],
                      "integer-power-rule-scaled", e, True)
    if checks:      # none when max_exp < 0
        rec.check_all(np.stack(checks, axis=1),
                      lambda row, col: {"kind": kinds[col], "x": row, "n": es[col]},
                      present=np.where(unit_only, invertible[:, None], True))

    # transfer rules: scaling an antiderivative by an invertible integer.
    # One row per (n, y): the preimage of n*y, then the transfer-up check.
    fib = dmap.fibres
    values, members, in_pre = fib.values, fib.members, fib.present
    group = np.full(n, -1, dtype=np.intp)
    group[values] = np.arange(len(values))
    y = np.arange(n)
    for e in exps:
        ib = inv_bolds[e]
        if ib is None:
            continue
        ny = mul[bolds[e], y]
        g = group[ny]
        pre = members[g]
        down = d[mul[ib, pre]] == y[:, None]
        up = d[y] == mul[ib, d[ny]]
        present = np.column_stack([in_pre[g] & (g >= 0)[:, None],
                                   np.ones(n, dtype=bool)])
        last = pre.shape[1]

        def witness(row, col):
            if col == last:
                return {"kind": "transfer-up", "n": e, "x": row}
            return {"kind": "transfer-down", "n": e, "y": row, "x": int(pre[row, col])}

        rec.check_all(np.column_stack([down, up]), witness, present=present)
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
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    d = delta.table
    n = ring.size
    elems = np.arange(n)

    rec.check(d[ring.zero] == ring.zero, {"kind": "zero-membership"})

    x, y, z, present = _member_triples(delta)
    rec.check_all(d[add[y[:, None], neg[z]]] == ring.zero,
                  lambda i, j: {"kind": "difference-not-in-kernel", "x": int(x[i]),
                                "y": int(y[i]), "z": int(z[i, j])},
                  present=present)

    rec.check_all(d[elems] == d,
                  lambda x, _: {"kind": "element-not-in-own-integral", "x": x})

    # one row per image value x: for each member y, y + Ker equals the
    # preimage of x; then d maps the preimage onto {x}.  Kernel offsets are
    # distinct, so the sorted coset equals the preimage exactly when the
    # sizes agree and every offset stays inside.
    fib = delta.fibres
    values, members, in_pre = fib.values, fib.members, fib.present
    karr = np.flatnonzero(fib.ker)
    counts = np.bincount(d, minlength=n)
    stays = (d[add[elems[:, None], karr[None, :]]] == d[:, None]).all(axis=1)
    coset_ok = (counts[d] == len(karr)) & stays
    onto = (~in_pre | (d[members] == values[:, None])).all(axis=1)
    last = members.shape[1]

    def coset_witness(g, j):
        if j == last:
            return {"kind": "integral-maps-outside", "x": int(values[g])}
        return {"kind": "coset-mismatch", "x": int(values[g]), "y": int(members[g, j])}

    rec.check_all(np.column_stack([coset_ok[members], onto]), coset_witness,
                  present=np.column_stack([in_pre, np.ones(len(values), dtype=bool)]))

    _check_additivity(rec, ring, delta)

    for x in _row_blocks(n, n):
        dx = d[x]
        parts = (mul[dx], mul[x][:, d], mul[d[:, None], x].T, mul[:, dx].T)
        jxy = add[mul[x], mul[:, x].T]
        # a pair with an empty part integral counts as a vacuous instance;
        # otherwise the sum of the four part integrals is i_d(target)
        some_empty = np.logical_or.reduce([fib.rep[p] < 0 for p in parts])
        target = add[add[parts[0], parts[1]], add[parts[2], parts[3]]]
        product_rule = d[jxy] == target
        ok = np.stack([some_empty | product_rule, d[add[x]] == add[dx][:, d],
                       product_rule], axis=-1)

        def pair_witness(i, j):
            if j == 0:
                return {"kind": "jordan-parts-membership", "x": int(x[i // n]), "y": i % n}
            return {"kind": ("sum-rule", "jordan-product-rule")[j - 1],
                    "y1": int(x[i // n]), "y2": i % n}

        rec.check_all(ok.reshape(-1, 3), pair_witness)

    _check_criteria(rec, ring, delta)
    return rec.finish()


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
    "power-rules": verify_power_rules,
}


def _run_checker(ring: FiniteRing, amap: AdditiveMap, checker: str,
                 config: CheckerConfig,
                 derivations: list[AdditiveMap]) -> TheoremReport:
    """One checker on one map.  derivations is Der(R), or empty until
    separation first needs it and lists it there."""
    skip = _Recorder(checker, ring).skip
    if checker in _DERIVATION_CHECKERS:
        if not amap.is_derivation:
            return skip("map is not a validated derivation")
        return _DERIVATION_CHECKERS[checker](ring, amap, config)
    if checker == "jordan-suite":
        if not amap.is_jordan:
            return skip("map is not a validated Jordan derivation")
        return verify_jordan_suite(ring, amap, config)
    if checker == "separation":
        if not amap.is_jordan:
            return skip("map is not a validated Jordan derivation")
        if amap.is_derivation:
            return skip("map is a derivation")
        if not derivations:     # Der(R) always holds the zero map
            derivations.extend(enumerate_derivations(ring))
        return _separation(ring, amap, derivations)
    raise RingError(f"unknown checker {checker!r}")


def run_suite(ring: FiniteRing, maps: list[tuple[str, AdditiveMap]],
              checkers="all", config: Optional[CheckerConfig] = None,
              jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checkers over each (descriptor, map) pair in the
    fixed order, with the ring-level herstein checker once at the end.
    Der(R) is listed at most once per call, when separation first needs it.

    jobs has no effect: the checkers run one after another in the calling
    thread.  They spend their time in numpy, and a thread pool over them
    gave no speed-up.  The argument stays only while the benchmark harness
    passes it, and goes with the next change to the benchmark."""
    config = config or CheckerConfig()
    if checkers == "all" or checkers is None:
        selected = list(CHECKER_ORDER)
    else:
        selected = list(checkers)
        unknown = [c for c in selected if c not in CHECKER_ORDER]
        if unknown:
            raise RingError(f"unknown checker ids: {', '.join(unknown)}")

    reports = []
    derivations: list[AdditiveMap] = []
    for desc, amap in maps:
        for cid in CHECKER_ORDER:
            if cid == "herstein" or cid not in selected:
                continue
            report = _run_checker(ring, amap, cid, config, derivations)
            report.map_desc = desc
            reports.append(report)

    if "herstein" in selected:
        report = herstein_check(ring, config)
        report.map_desc = None
        reports.append(report)
    return reports


def suite_status(reports: list[TheoremReport]) -> str:
    return "fail" if any(r.status == "fail" for r in reports) else "pass"
