"""Exhaustive checkers for the algebraic laws of set-valued antiderivatives.

Every checker quantifies over concrete ring elements and produces a
TheoremReport: pass, fail (with counterexamples), or skipped when the ring or
map does not satisfy the hypotheses.  Every instance space is enumerated
exhaustively, so a report depends only on the ring, the map and the
checker windows.

The membership checks are array identities over the Cayley tables: a
checker evaluates one law on a block of whole rows at once (every
bounded loop walks _row_blocks) and records its instances and
counterexamples in the order of the loop that states the law (see
_Recorder.check_all).  A report keeps counterexamples in `witnesses` and
informational entries (a capped range, a strict inclusion, ...) in
`notes`.  Membership is the definition: y ∈ i_d(x) is d[y] == x, and z ∈
i_d(a) + i_d(b), both nonempty, is d[z] == a + b, since d is additive.
Only the checks that the fibres are kernel cosets read the coset form,
from one gather a block (_Block.coset_to_x): coset-structure, basic's
integral-maps-outside and jordan-suite's coset-mismatch.  Instances that
hold by definition are counted, not computed: 0 ∈ i_d(0) in basic and
jordan-suite (a block's kernel raises unless d(0) = 0), x ∈ i_d(d(x))
and the surjectivity criterion in both, jordan-suite's
integral-maps-outside and coset-structure's distinct kernel offsets
(y + _ permutes (R, +)).

run_suite is checker-major: each checker runs over every map of the call
before the next checker starts.  Every map checker has one block form,
which takes all its maps at once and evaluates them on (B, n) stacks of
map tables: blocks of whole maps of one fibre shape, the widest fibre,
kernel size and image size (_Blocks, walked in order of widest fibre).
A block's kernels and images are read unpadded, one row a map.  The
checkers of one run_suite call share the blocks, their fibres, their
checked kernels, their coset gather and their generator proofs.  Fibres,
kernels and images are computed by maps, in one implementation whose
one-row case is a single AdditiveMap's, so a call with one map reads
that map's own fibres.  The pair rules of combination-rules and
jordan-suite, and additivity-parts' parts rule, restate additivity and
the map's own law, so a map that maps._on_generators proves lawful from
generator pairs has those instances counted, and each other map (only a
forged one) walks its rows x against every y alone through
maps._law_holds, which finds its witnesses (_unproved).
additivity-parts' note, the first pair whose two part integrals are
empty, comes from _empty_parts, which search's empty-parts witness calls
too.  The solver's count and basis are kept on the ring (maps._solve).
separation's verdict is the generator proof too: a Jordan non-derivation
δ equals a derivation only if it is one, so each report counts the
solver's |Der(R)| and fails only where δ's generator proof shows it a
derivation; Der(R) is listed, within MAX_LISTED_MAPS, only for the
notes.  Each map still gets its own report, equal to the one-map call's
(each public verify_* function is that call), and a block call's seconds
are split evenly among its reports' runtime.  The reports come back
map-major, herstein last.

One rule, _scope, says which maps a map checker takes: validated
derivations, validated Jordan derivations for jordan-suite, and Jordan
derivations that are not derivations for separation.  run_suite skips
the others with _scope's reason; a block call, and so each verify_*
function, refuses them (_start).  Both refuse a map of another ring.

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
from functools import cached_property
from typing import Optional

import numpy as np

from .maps import (MAX_LISTED_MAPS, AdditiveMap, MapLawError, _counts, _fibres_of,
                   _generators, _images, _kernels, _law_holds, _members, _on_generators,
                   _reps, _solve, _tables, enumerate_derivations,
                   enumerate_jordan_derivations)
from .rings import FiniteRing, RingError, _row_blocks

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


def _runs(owner: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of owner starts."""
    starts = np.empty(len(owner), dtype=bool)
    starts[:1] = True
    np.not_equal(owner[1:], owner[:-1], out=starts[1:])
    return np.flatnonzero(starts)


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
    bad = ~ok if present is None else ~ok & present
    if owner[0] == owner[-1]:
        if bad.any():
            recs[owner[0]].check_all(ok, witness, present)
        else:
            recs[owner[0]].instances += ok.size if present is None else int(present.sum())
        return
    per_row = (np.full(len(owner), ok.shape[1]) if present is None
               else np.count_nonzero(present, axis=1))
    first = _runs(owner)
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


def _note_first(recs: list[_Recorder], noted: np.ndarray, owner: np.ndarray,
                hits: np.ndarray, entry):
    """Note entry(i) for the first row i of hits (increasing row indices,
    owner nondecreasing) of each map m with noted[m] unset, then set it:
    a note made once per map, at its first hit in loop order."""
    if not len(hits):
        return
    firsts = hits[_runs(owner[hits])]
    for i in firsts.tolist():
        m = int(owner[i])
        if not noted[m]:
            recs[m].note(entry(i))
            noted[m] = True


class _Block:
    """Whole maps of one fibre shape, taken from a list of maps, and what
    the checks read of them, each computed on first use.

    ids are the maps' positions in the list, in increasing order; D is the
    (B, n) stack of their tables, fibres its (order, count, start) as
    maps._fibres_of gives them, and width the maps' widest fibre.  The maps
    share one kernel size and one image size, so kernel and image are
    maps._kernels and maps._images of the block, one unpadded row a map,
    as for one AdditiveMap.  A fibre check holds one row per (map,
    element), row b·n + p for (b, p), and pads each fibre to width cells."""

    def __init__(self, ring: FiniteRing, ids: np.ndarray, D: np.ndarray, fibres,
                 width: int):
        self.ring, self.ids, self.D, self.fibres, self.width = ring, ids, D, fibres, width

    def part(self, r: np.ndarray) -> "_Block":
        """The block of this block's maps r, a range of positions."""
        s = slice(int(r[0]), int(r[-1]) + 1)
        return _Block(self.ring, self.ids[s], self.D[s], tuple(a[s] for a in self.fibres),
                      self.width)

    @cached_property
    def rows(self):
        """(b, p) of every row."""
        return np.divmod(np.arange(self.D.size), self.ring.size)

    @cached_property
    def owner(self) -> np.ndarray:
        """The id of each row's map."""
        return self.ids[self.rows[0]]

    @cached_property
    def sorted_rows(self):
        """(y, x): row (b, p) holds the p-th element y of map b's sorted
        order and x = d(y), so x runs over the image in increasing order
        and y over its fibre, in increasing order."""
        y = self.fibres[0].ravel()
        return y, self.D[self.rows[0], y]

    def fibre_rows(self, width: int):
        """(z, here): the fibre of each row's x, padded to width cells, of
        which here marks the fibre's own."""
        return _members(self.fibres, self.rows[0], self.sorted_rows[1], width)

    @cached_property
    def kernel(self) -> np.ndarray:
        """Each map's kernel, checked: maps._kernels."""
        return _kernels(self.ring, self.D)

    @cached_property
    def image(self) -> np.ndarray:
        """Each map's image: maps._images."""
        return _images(self.fibres[1])

    @cached_property
    def coset_to_x(self) -> np.ndarray:
        """Whether d maps y + Ker onto {x}, one bool a sorted row (y, x):
        the one gather of d(y + κ), κ in the kernel, that the coset checks
        read."""
        B, n = self.D.shape
        y, x = (a.reshape(B, n, 1) for a in self.sorted_rows)
        shifted = self.ring.add_table[y, self.kernel[:, None, :]]
        return (self.D[np.arange(B)[:, None, None], shifted] == x).all(axis=2).ravel()


class _Blocks:
    """A list of maps in _Blocks of one fibre shape each, in order of
    widest fibre, built on first use.  run_suite builds one per list of
    maps that its checkers take, so they share the blocks and what the
    blocks compute; a block checker called alone builds its own."""

    def __init__(self, ring: FiniteRing, maps: list[AdditiveMap]):
        self.ring, self.maps = ring, maps
        self._proved: dict[str, np.ndarray] = {}

    @cached_property
    def blocks(self) -> list[_Block]:
        """Each map's fibre shape, (widest fibre, kernel size, image size),
        comes from its fibre sizes, counted in blocks of whole maps at 4n
        cells a map, which bounds the stack and the two arrays _counts makes
        of it by _BLOCK.  A stable sort by shape orders the maps, and the
        maps of one shape form blocks of n rows of width cells a map, at
        most _BLOCK cells, so no map is padded past its own widest fibre
        (the zero map, whose fibre is the whole ring, comes last), and no
        kernel or image is padded at all.  An additive map's widest fibre
        fixes its shape (see the fibre section of maps), so only tables
        that are not additive split a width.  A block holds at least one
        map, so a map whose n rows alone are wider than _BLOCK is checked
        whole.  A list of one map is one block of that map's own fibres,
        counted once and kept on the map."""
        ring, maps, n = self.ring, self.maps, self.ring.size
        if not maps:
            return []
        if len(maps) == 1:
            fibres = maps[0].fibres
            return [_Block(ring, np.zeros(1, dtype=np.intp), maps[0].table[None], fibres,
                           int(fibres[1].max()))]
        shapes = np.empty((3, len(maps)), dtype=np.intp)
        for ids in _row_blocks(len(maps), 4 * n):
            count = _counts(_tables(maps, ids))
            shapes[:, ids] = (count.max(axis=1), count[:, ring.zero],
                              np.count_nonzero(count, axis=1))
        by_shape = np.lexsort(shapes[::-1])
        shapes = shapes[:, by_shape]
        cuts = np.flatnonzero((shapes[:, 1:] != shapes[:, :-1]).any(axis=0)) + 1
        edges = [0, *cuts.tolist(), len(maps)]
        blocks = []
        for a, b in zip(edges, edges[1:]):
            width = int(shapes[0, a])
            for r in _row_blocks(b - a, n * width):
                ids = by_shape[a + r]
                D = _tables(maps, ids)
                blocks.append(_Block(ring, ids, D, _fibres_of(D), width))
        return blocks

    def lawful(self, law: str) -> np.ndarray:
        """Where each map is additive and satisfies law, "derivation" or
        "jordan", on every pair, as maps._on_generators proves it from
        generator pairs on stacks of the maps' tables in list order.  Each
        law is proved once per list of maps, from the tables alone: a
        forged map's flags may lie, and no block or fibre is built."""
        proved = self._proved
        if law == "jordan" and "derivation" in proved and proved["derivation"].all():
            # for an additive map the Jordan defect at (x, y) is the Leibniz
            # one at (x, y) plus the one at (y, x), so Leibniz on generator
            # pairs gives Jordan there; a map that is not additive is not lawful
            proved.setdefault("jordan", proved["derivation"])
        missing = [name for name in ("additive", law) if name not in proved]
        if missing:
            gens = _generators(self.ring)
            got = {name: np.empty(len(self.maps), dtype=bool) for name in missing}
            # additivity reads n rows of one cell per generator a map
            for ids in _row_blocks(len(self.maps), self.ring.size * max(1, len(gens))):
                for name, holds in _on_generators(self.ring, gens, _tables(self.maps, ids),
                                                  missing).items():
                    got[name][ids] = holds
            proved.update(got)
        return proved["additive"] & proved[law]

    def walk(self, cols=lambda width: width):
        """The blocks, each split into parts of n rows of cols(width) cells
        a map, at most _BLOCK cells (at least one map)."""
        for block in self.blocks:
            for r in _row_blocks(len(block.ids), self.ring.size * cols(block.width)):
                yield block if len(r) == len(block.ids) else block.part(r)


def _unproved(ring: FiniteRing, recs: list[_Recorder], maps: list[AdditiveMap],
              lawful: np.ndarray, cols: int, rule, witness):
    """Record cols pair rules at each pair (x, y) of each map: counted where
    the generator proof lawful holds, else walked for the map alone, rows x
    against every y in _row_blocks, as rule(table, x) gives them, (len(x),
    n, cols) in loop order; witness(x, y, col) names a failure."""
    n = ring.size
    for rec, amap, proved in zip(recs, maps, lawful.tolist()):
        if proved:
            rec.instances += cols * n * n
            continue
        for x in _row_blocks(n, cols * n):
            rec.check_all(rule(amap.table, x).reshape(len(x), -1),
                          lambda i, col: witness(int(x[i]), *divmod(col, cols)))


def _parts_rule(ring: FiniteRing, table: np.ndarray, x: np.ndarray, law: str):
    """(parts, product): where the parts rule and the product rule of law
    hold for the table at the pairs of the rows x and every y.  Where the
    product rule holds, so does the parts rule, as d is additive; elsewhere
    only where a part integral is empty, and only those pairs read the
    parts: d(x)y and x d(y), and for "jordan" also d(y)x and y d(x)."""
    product = _law_holds(ring, table, law, rows=x)
    if product.all():
        return product, product
    mul, parts = ring.mul_table, product.copy()
    i, y = np.nonzero(~product)
    dx, xi, dy = table[x[i]], x[i], table[y]
    factors = [mul[dx, y], mul[xi, dy]]
    if law == "jordan":
        factors += [mul[dy, xi], mul[y, dx]]
    in_image = _counts(table[None])[0] > 0
    parts[i, y] = ~np.logical_and.reduce([in_image[p] for p in factors])
    return parts, product


def _empty_parts(ring: FiniteRing, maps: list[AdditiveMap]):
    """For each map of the list, in order, the first pair (x, y) in
    row-major order at which both part integrals of the Leibniz rule,
    i_d(d(x)y) and i_d(x d(y)), are empty, as (x, y, d(x)y, x d(y)), or
    None.  Each map walks its rows x against every y alone, in _row_blocks
    up to its first hit, and is yielded before the next map starts."""
    n, mul = ring.size, ring.mul_table
    for amap in maps:
        d, hit = amap.table, None
        empty = _counts(d[None])[0] == 0
        for x in _row_blocks(n, n):
            # d(x)y and x d(y) outside the image: rows d(x) of mul, and rows
            # x permuted by d, read with take, which numpy 2.4 runs about
            # twice as fast as the same indexing
            both = (empty.take(mul.take(d.take(x), axis=0))
                    & empty.take(mul.take(x, axis=0).take(d, axis=1)))
            if both.any():
                i, y = divmod(int(np.argmax(both)), n)
                x = int(x[i])
                hit = (x, y, int(mul[d[x], y]), int(mul[x, d[y]]))
                break
        yield hit


def _count(recs: list[_Recorder], ids: np.ndarray, instances: int):
    """Count instances for each map ids of a block: checks that hold by
    construction or vacuously, and so need no array."""
    for m in ids.tolist():
        recs[m].instances += instances


def _scope(amap: AdditiveMap, checker: str) -> Optional[str]:
    """Why the map checker does not apply to amap, or None: jordan-suite
    takes validated Jordan derivations, separation those that are not
    derivations, and the others validated derivations."""
    if checker not in ("jordan-suite", "separation"):
        return None if amap.is_derivation else "map is not a validated derivation"
    if not amap.is_jordan:
        return "map is not a validated Jordan derivation"
    if checker == "separation" and amap.is_derivation:
        return "map is a derivation"
    return None


def _start(ring: FiniteRing, maps: list[AdditiveMap], checker: str):
    """The start time and one recorder per map of a block call, after
    checking that every map belongs to ring and that checker applies to
    it."""
    for amap in maps:
        if amap.ring is not ring:
            raise RingError("map belongs to a different ring")
        reason = _scope(amap, checker)
        if reason is not None:
            raise MapLawError(reason)
    return time.perf_counter(), [_Recorder(checker, ring) for _ in maps]


def _finish(recs: list[_Recorder], t0: float) -> list[TheoremReport]:
    """The recorders' reports, the block's seconds since t0 split evenly
    among them as their runtime."""
    reports = [rec.finish() for rec in recs]
    share = (time.perf_counter() - t0) / max(1, len(reports))
    for report in reports:
        report.runtime = share
    return reports


def _check_additivity(recs: list[_Recorder], block: _Block):
    """i_d(u) + i_d(v) = i_d(u + v) over u, v in the image of each map of
    the block, one row per (map, u) and one column per v, both in
    increasing order.  Where the fibres are kernel cosets (coset-structure
    checks that), the left side is (rep[u] + rep[v]) + Ker, so the two are
    equal exactly when d(rep[u] + rep[v]) = u + v, rep[u] being the least
    element of the fibre of u."""
    D, add, u = block.D, block.ring.add_table, block.image
    width = u.shape[1]
    rep = _reps(block.fibres, np.arange(len(D))[:, None], u)
    for m in _row_blocks(len(D), width * width):
        ok = (D[m[:, None, None], add[rep[m, :, None], rep[m, None, :]]]
              == add[u[m, :, None], u[m, None, :]])
        _check_rows(recs, np.repeat(block.ids[m], width), ok,
                    lambda row, j: {"kind": "integral-additivity",
                                    "x": int(u[m].flat[row]), "y": int(u[m[row // width], j])})


def _check_criteria(rec: _Recorder, injective: bool, all_single: bool):
    """d is onto iff no integral is empty, and one-to-one iff every
    integral of an element is a singleton.  The first is counted: both
    sides read "every fibre is nonempty" from the same counts."""
    rec.instances += 1
    rec.check(injective == all_single,
              {"kind": "injectivity-criterion", "injective": injective,
               "all_singletons": all_single})


def _criteria(count: np.ndarray, zero: int) -> np.ndarray:
    """_check_criteria's two flags for each map of a block, one row each,
    from its fibre sizes."""
    return np.column_stack([count[:, zero] == 1, (count == 1).all(axis=1)])


# ---------------------------------------------------------------------------
# basic


def verify_basic(ring: FiniteRing, dmap: AdditiveMap,
                 config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Membership facts and the surjectivity/injectivity criteria: the
    one-map call of _basic."""
    return _basic(ring, [dmap], config)[0]


def _basic(ring: FiniteRing, maps: list[AdditiveMap], config: Optional[CheckerConfig] = None,
           blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """basic on every map of the list, one report per map."""
    t0, recs = _start(ring, maps, "basic")
    add, n, zero = ring.add_table, ring.size, ring.zero
    for block in (blocks or _Blocks(ring, maps)).walk():
        ids, D, (_, count, start) = block.ids, block.D, block.fibres
        # d maps the coset rep[x] + Ker onto {x}, rep[x] the least element
        # of the fibre of x, its first sorted row; an empty integral holds
        # vacuously.  One row per (map, x).
        first = np.minimum(start, n - 1) + n * np.arange(len(ids))[:, None]

        def outside(i, _):
            m, x = divmod(i, n)
            values = D[m, add[_reps(block.fibres, m, x), block.kernel[m]]]
            return {"kind": "integral-maps-outside", "x": x,
                    "values": sorted(set(values.tolist()))}

        _check_rows(recs, block.owner, (count == 0) | block.coset_to_x[first], outside)
        # counted: 0 ∈ i_d(0), as block.kernel raises unless d(0) = 0, and
        # x ∈ i_d(d(x)) for each x, which compares the table with itself
        _count(recs, ids, 1 + n)
        for m, row in zip(ids.tolist(), _criteria(count, zero).tolist()):
            _check_criteria(recs[m], *row)
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# kernel-constants


def verify_kernel_constants(ring: FiniteRing, dmap: AdditiveMap,
                            config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Integer multiples of unity, and their inverse-scaled combinations,
    always land in the kernel; adding them to any antiderivative stays in
    the same integral: the one-map call of _kernel_constants."""
    return _kernel_constants(ring, [dmap], config)[0]


def _kernel_constants(ring: FiniteRing, maps: list[AdditiveMap],
                      config: Optional[CheckerConfig] = None,
                      blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """kernel-constants on every map of the list, one report per map.  The
    window, bold(n), their inverses and the shifts belong to the ring and
    are computed once per call."""
    config = config or CheckerConfig()
    t0, recs = _start(ring, maps, "kernel-constants")
    if ring.unity is None:
        return [rec.skip("ring has no unity") for rec in recs]
    add, neg, mul = ring.add_table, ring.neg_table, ring.mul_table
    n, zero = ring.size, ring.zero
    period = ring.additive_order(ring.unity)
    if period <= 2 * config.max_n + 1:
        ns = list(range(period))
        for rec in recs:
            rec.note({"kind": "range-capped", "additive_order_of_unity": period})
    else:
        ns = list(range(-config.max_n, config.max_n + 1))
    bs = np.array([ring.bold(m) for m in ns], dtype=np.intp)
    inverses = [ring.invert(int(b)) for b in bs]
    # (n·1)^-1·(m·1) and (m·1)·(n·1)^-1 for each n with n·1 invertible and
    # each m, left then right
    invertible_ns = [m for m, ib in zip(ns, inverses) if ib is not None]
    ibs = np.array([ib for ib in inverses if ib is not None], dtype=np.intp)
    shifts = np.stack([mul[ibs[:, None], bs[None, :]],
                       mul[bs[None, :], ibs[:, None]]], axis=-1).reshape(-1)

    def bold_witness(_, col):
        i, side = divmod(col, 2)
        if side:
            return {"kind": "bold-negative-not-in-kernel", "n": ns[i]}
        return {"kind": "bold-not-in-kernel", "n": ns[i], "element": int(bs[i])}

    def shift_witness(_, col):
        row, side = divmod(col, 2)
        return {"kind": ("scaled-bold-not-in-kernel", "bold-scaled-not-in-kernel")[side],
                "n": invertible_ns[row // len(ns)], "m": ns[row % len(ns)]}

    def shifted_witness(y, col):
        i, rest = divmod(col, 2 * len(ns))
        j, side = divmod(rest, 2)
        return {"kind": ("shifted-left", "shifted-right")[side], "y": y,
                "n": invertible_ns[i], "m": ns[j]}

    for block in (blocks or _Blocks(ring, maps)).walk(lambda width: max(width, len(shifts))):
        block.kernel
        ids, D = block.ids, block.D
        ker = D == zero
        # n·1 and -(n·1) in the kernel, then the shifts: one row per map
        _check_rows(recs, ids, np.stack([ker[:, bs], ker[:, neg[bs]]], axis=-1),
                    bold_witness)
        _check_rows(recs, ids, ker[:, shifts], shift_witness)
        # y plus each shift stays in i_d(d(y)): one row per (map, y),
        # columns in the shifts' (n, m, left/right) order
        b, y = block.rows
        _check_rows(recs, block.owner,
                    D[b[:, None], add[y[:, None], shifts]] == D.ravel()[:, None],
                    lambda row, col: shifted_witness(int(y[row]), col))
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# coset-structure


def verify_coset_structure(ring: FiniteRing, dmap: AdditiveMap,
                           config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Every nonempty integral equals y + Ker(d) for each of its members,
    with each member reached by exactly one kernel offset, which holds by
    definition and is counted: the one-map call of _coset_structure."""
    return _coset_structure(ring, [dmap], config)[0]


def _coset_structure(ring: FiniteRing, maps: list[AdditiveMap],
                     config: Optional[CheckerConfig] = None,
                     blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """coset-structure on every map of the list, one report per map: the
    coset test reads the block's one gather of d(y + Ker), and the
    distinct offsets are counted, one a row, with no sort."""
    t0, recs = _start(ring, maps, "coset-structure")
    for block in (blocks or _Blocks(ring, maps)).walk():
        # for each member y of each fibre, x = d(y): the coset y + Ker
        # equals the fibre, and its offsets are distinct.  y + _ permutes
        # (R, +), so the offsets y + κ are distinct (counted, one a row),
        # and the coset equals the fibre exactly when the sizes agree and d
        # maps every y + κ to x.
        b, _ = block.rows
        y, x = block.sorted_rows
        _check_rows(recs, block.owner,
                    (block.fibres[1][b, x] == block.kernel.shape[1]) & block.coset_to_x,
                    lambda i, _: {"kind": "coset-mismatch", "x": int(x[i]), "y": int(y[i])})
        _count(recs, block.ids, ring.size)
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# kernel-scaling


def verify_kernel_scaling(ring: FiniteRing, dmap: AdditiveMap,
                          config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Multiplying an integral by a kernel element lands inside the integral
    of the scaled element, with equality for invertible kernel elements;
    also records one witness that the inclusion can be strict: the one-map
    call of _kernel_scaling."""
    return _kernel_scaling(ring, [dmap], config)[0]


def _kernel_scaling(ring: FiniteRing, maps: list[AdditiveMap],
                    config: Optional[CheckerConfig] = None,
                    blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """kernel-scaling on every map of the list, one report per map.  The
    inverse table belongs to the ring and is read once per call."""
    t0, recs = _start(ring, maps, "kernel-scaling")
    mul, n = ring.mul_table, ring.size
    inverse = ring.inverse_table() if ring.unity is not None else np.full(n, -1)
    kinds = ("left-scaling-escape", "right-scaling-escape",
             "scaled-integral-empty", "left-scaling-not-equal",
             "right-scaling-not-equal")
    noted = np.zeros(len(maps), dtype=bool)
    for block in (blocks or _Blocks(ring, maps)).walk():
        ids, D, width = block.ids, block.D, block.width
        count, karr, xs = block.fibres[1], block.kernel, block.image
        k, groups = karr.shape[1], xs.shape[1]
        integrals = _members(block.fibres, np.arange(len(ids))[:, None], xs, width)
        # one row per (map, w), w in the kernel, and one group of five
        # columns per x in the image, both in increasing order; an x with
        # an empty integral has two vacuously true inclusions and no
        # column.  Columns: left and right inclusion, both targets
        # nonempty, left and right equality (a check only for invertible w).
        for r in _row_blocks(len(ids) * k, groups * width):
            b, i = np.divmod(r, k)
            bc, w, x = b[:, None], karr[b, i], xs[b]
            inv = (inverse[w] >= 0)[:, None]
            # the rows of one map share its integrals
            members, present = (a[b[:1] if b[0] == b[-1] else b] for a in integrals)
            sides = []
            for wx, wy in ((mul[w[:, None], x], mul[w[:, None, None], members]),
                           (mul[x, w[:, None]], mul[members, w[:, None, None]])):
                inside = (~present | (D[bc[..., None], wy] == wx[..., None])).all(axis=2)
                # |w·i_d(x)|: distinct cells of the sorted row, with the
                # padding cells repeating its first member
                scaled = np.sort(np.where(present, wy, wy[..., :1]), axis=2)
                distinct = 1 + np.count_nonzero(scaled[..., 1:] != scaled[..., :-1], axis=2)
                sides.append((count[bc, wx], inside, distinct))
            (target_l, left_in, left_n), (target_r, right_in, right_n) = sides
            ok = np.stack([left_in, right_in, (target_l > 0) & (target_r > 0),
                           left_in & (left_n == target_l),
                           right_in & (right_n == target_r)], axis=-1)
            owner = ids[b]
            _note_first(recs, noted, np.repeat(owner, groups),
                        np.flatnonzero(~inv & left_in & (left_n < target_l)),
                        lambda j: {"kind": "strict-inclusion", "w": int(w[j // groups]),
                                   "x": int(x.flat[j]), "scaled_size": int(left_n.flat[j]),
                                   "integral_size": int(target_l.flat[j])})

            def witness(row, col):
                g, c = divmod(col, 5)
                return {"kind": kinds[c], "w": int(w[row]), "x": int(x[row, g])}

            checked = np.ones(ok.shape, dtype=bool)
            checked[..., 3:] = inv[..., None]
            _check_rows(recs, owner, ok.reshape(len(r), -1), witness,
                        present=checked.reshape(len(r), -1))
        _count(recs, ids, 2 * (n - groups) * k)
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# combination-rules


def verify_combination_rules(ring: FiniteRing, dmap: AdditiveMap,
                             config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Sums and products of antiderivatives integrate the matching
    combinations, plus the inverse membership rules on unity rings: the
    one-map call of _combination_rules."""
    return _combination_rules(ring, [dmap], config)[0]


def _combination_rules(ring: FiniteRing, maps: list[AdditiveMap],
                       config: Optional[CheckerConfig] = None,
                       blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """combination-rules on every map of the list, one report per map: the
    pair rules, then the rules inside one integral and the inverse rules
    on blocks of whole maps.  The pair rules are additivity and the
    Leibniz law, so a map they hold for on generators is counted, and
    each other map walks its rows y1 alone (_unproved).  The units and
    their inverses belong to the ring and are read once per call."""
    t0, recs = _start(ring, maps, "combination-rules")
    add, mul, neg = ring.add_table, ring.mul_table, ring.neg_table
    blocks = blocks or _Blocks(ring, maps)

    _unproved(ring, recs, maps, blocks.lawful("derivation"), 2,
              lambda t, x: np.stack([_law_holds(ring, t, law, rows=x)
                                     for law in ("additive", "derivation")], axis=-1),
              lambda y1, y2, j: {"kind": ("sum-rule", "product-rule")[j], "y1": y1, "y2": y2})

    if ring.unity is not None:
        inverse = ring.inverse_table()
        units = np.flatnonzero(inverse >= 0)
        yi = inverse[units]
        commutative = ring.is_commutative()
        inverse_kinds = ("inverse-rule", "inverse-rule-commutative")[:1 + commutative]

    for block in blocks.walk(lambda width: 2 * width):
        block.kernel
        ids, D = block.ids, block.D
        # y, z in one integral i_d(x): the sum and product rules inside it,
        # in the loop order of `for x: for y in pre[x]: for z in pre[x]`
        b, _ = block.rows
        y, x = block.sorted_rows
        z, here = block.fibre_rows(block.width)
        xc, yc, bc = x[:, None], y[:, None], b[:, None]
        ok = np.stack([D[bc, add[yc, z]] == add[x, x][:, None],
                       D[bc, mul[yc, z]]
                       == add[mul[xc, z], mul[y, x][:, None]]], axis=-1)
        _check_rows(recs, block.owner, ok.reshape(len(b), -1),
                    lambda i, j: {"kind": ("same-integral-sum",
                                           "same-integral-product")[j % 2],
                                  "x": int(x[i]), "y": int(y[i]), "z": int(z[i, j // 2])},
                    present=np.repeat(here, 2, axis=1))

        if ring.unity is not None:
            # one row per map, one column per (unit y, rule)
            dy, dyi = D[:, units], D[:, yi]
            checks = [dyi == neg[mul[mul[yi, dy], yi]]]
            if commutative:
                checks.append(dyi == neg[mul[mul[yi, yi], dy]])
            _check_rows(recs, ids, np.stack(checks, axis=-1),
                        lambda _, col: {"kind": inverse_kinds[col % len(inverse_kinds)],
                                        "y": int(units[col // len(inverse_kinds)])})
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# additivity-parts


def verify_additivity_and_parts(ring: FiniteRing, dmap: AdditiveMap,
                                config: Optional[CheckerConfig] = None) -> TheoremReport:
    """When both integrals are nonempty their pairwise sum is the integral
    of the sum, and x*y lies in the two-part sum; records one witness pair
    whose part integrals are both empty: the one-map call of
    _additivity_and_parts."""
    return _additivity_and_parts(ring, [dmap], config)[0]


def _additivity_and_parts(ring: FiniteRing, maps: list[AdditiveMap],
                          config: Optional[CheckerConfig] = None,
                          blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """additivity-parts on every map of the list, one report per map:
    additivity on blocks of whole maps, the parts rule (_unproved), then
    each map's note of its first pair of empty part integrals (_empty_parts)."""
    t0, recs = _start(ring, maps, "additivity-parts")
    blocks = blocks or _Blocks(ring, maps)
    for block in blocks.walk():
        block.kernel
        _check_additivity(recs, block)
    # a pair with an empty part integral counts as a vacuous instance;
    # otherwise i_d(d(x)y) + i_d(x d(y)) = i_d(d(x)y + x d(y)), which
    # contains xy exactly where the Leibniz law holds at (x, y)
    _unproved(ring, recs, maps, blocks.lawful("derivation"), 1,
              lambda t, x: _parts_rule(ring, t, x, "derivation")[0],
              lambda x, y, _: {"kind": "parts-membership", "x": x, "y": y})
    for rec, hit in zip(recs, _empty_parts(ring, maps)):
        if hit is not None:
            x, y, a, b = hit
            rec.note({"kind": "parts-preconditions-empty", "x": x, "y": y,
                      "dx_times_y": a, "x_times_dy": b})
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# power-rules


def verify_power_rules(ring: FiniteRing, dmap: AdditiveMap,
                       config: Optional[CheckerConfig] = None) -> TheoremReport:
    """Power membership rules on commutative unity rings, including
    negative exponents for invertible elements and the inverse-scaled
    transfer rules: the one-map call of _power_rules."""
    return _power_rules(ring, [dmap], config)[0]


def _power_rules(ring: FiniteRing, maps: list[AdditiveMap],
                 config: Optional[CheckerConfig] = None,
                 blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """power-rules on every map of the list, in blocks of whole maps, one
    report per map.  The powers, bold(e), their inverses and the inverse
    table belong to the ring and are computed once per call."""
    config = config or CheckerConfig()
    t0, recs = _start(ring, maps, "power-rules")
    if ring.unity is None:
        return [rec.skip("ring has no unity") for rec in recs]
    if not ring.is_commutative():
        return [rec.skip("ring is not commutative") for rec in recs]
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
        at, factor = np.array(at).T, np.array(factor).T     # one row per x
        outer = np.array(outer).ravel()
        outer_cols = np.arange(len(checks)) * n
        unit_only = np.array(unit_only)

    # the transfer exponents e, those with e·1 invertible: row t of scale
    # multiplies by e·1, and row t of unscale by its inverse
    transfers = [e for e in exps if inv_bolds[e] is not None]
    scale = mul[[bolds[e] for e in transfers]]
    unscale = mul[[inv_bolds[e] for e in transfers]]

    # one row per (map, x) for the checks, and per (map, exponent, y) for
    # the transfers, whose columns are a fibre and one more check
    for block in (blocks or _Blocks(ring, maps)).walk(
            lambda width: max(width + 1, len(checks))):
        block.kernel
        ids, D, width = block.ids, block.D, block.width
        if checks:
            b, x = block.rows
            ok = (D[b[:, None], at[x]]
                  == outer[outer_cols + mul[factor[x], D.ravel()[:, None]]])
            _check_rows(recs, block.owner, ok,
                        lambda row, col: {"kind": kinds[col], "x": int(x[row]), "n": es[col]},
                        present=~unit_only | invertible[x][:, None])

        # transfer rules: scaling an antiderivative by an invertible
        # integer.  One row per (map, exponent, y): the preimage of n*y,
        # then transfer-up.
        for r in _row_blocks(len(ids) * len(transfers) * n, width + 1):
            b, rest = np.divmod(r, len(transfers) * n)
            t, y = np.divmod(rest, n)
            ny = scale[t, y]
            pre, in_pre = _members(block.fibres, b, ny, width)
            down = D[b[:, None], unscale[t[:, None], pre]] == y[:, None]
            up = D[b, y] == unscale[t, D[b, ny]]

            def witness(row, col, t=t, y=y, pre=pre):
                e = transfers[t[row]]
                if col == width:
                    return {"kind": "transfer-up", "n": e, "x": int(y[row])}
                return {"kind": "transfer-down", "n": e, "y": int(y[row]),
                        "x": int(pre[row, col])}

            _check_rows(recs, ids[b], np.column_stack([down, up]), witness,
                        present=np.column_stack([in_pre, np.ones(len(r), dtype=bool)]))
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
                  config: Optional[CheckerConfig] = None,
                  blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """jordan-suite on every map of the list, one report per map.  The
    fibre checks walk blocks of whole maps; then the pair checks, which
    hold for a map that is additive and satisfies the Jordan law on
    generators, so such a map is counted and each other map walks its rows
    x alone (_unproved); then the criteria close each report."""
    t0, recs = _start(ring, maps, "jordan-suite")
    add, neg = ring.add_table, ring.neg_table
    n, zero = ring.size, ring.zero
    crit = np.zeros((len(maps), 2), dtype=bool)
    blocks = blocks or _Blocks(ring, maps)

    for block in blocks.walk():
        ids, D, count, karr = block.ids, block.D, block.fibres[1], block.kernel
        # y, z in one fibre differ by a kernel element, in the loop order
        # of `for x: for y in pre[x]: for z in pre[x]`
        b, _ = block.rows
        y, x = block.sorted_rows
        z, here = block.fibre_rows(block.width)
        _check_rows(recs, block.owner, D[b[:, None], add[y[:, None], neg[z]]] == zero,
                    lambda i, j: {"kind": "difference-not-in-kernel", "x": int(x[i]),
                                  "y": int(y[i]), "z": int(z[i, j])},
                    present=here)
        # for each member y, y + Ker equals the fibre of x (as in
        # coset-structure)
        _check_rows(recs, block.owner, (count[b, x] == karr.shape[1]) & block.coset_to_x,
                    lambda i, _: {"kind": "coset-mismatch", "x": int(x[i]), "y": int(y[i])})
        # counted: 0 ∈ j_δ(0), as block.kernel raises unless δ(0) = 0,
        # x ∈ j_δ(δ(x)) for each x, which compares the table with itself,
        # and δ maps each nonempty fibre onto its x, by its definition
        _count(recs, ids, 1 + n + block.image.shape[1])

        _check_additivity(recs, block)
        crit[ids] = _criteria(count, zero)

    def pair_rules(t, x):
        parts, product = _parts_rule(ring, t, x, "jordan")
        return np.stack([parts, _law_holds(ring, t, "additive", rows=x), product], axis=-1)

    def pair_witness(x, y, j):
        if j == 0:
            return {"kind": "jordan-parts-membership", "x": x, "y": y}
        return {"kind": ("sum-rule", "jordan-product-rule")[j - 1], "y1": x, "y2": y}

    # a proved map passes all three pair rules: the parts rule holds
    # wherever the product rule does
    _unproved(ring, recs, maps, blocks.lawful("jordan"), 3, pair_rules, pair_witness)
    for rec, row in zip(recs, crit.tolist()):
        _check_criteria(rec, *row)
    return _finish(recs, t0)


# ---------------------------------------------------------------------------
# separation


def verify_separation(ring: FiniteRing, delta: AdditiveMap,
                      config: Optional[CheckerConfig] = None) -> TheoremReport:
    """The given Jordan non-derivation is distinguished from every
    derivation of the ring by some integral value: the one-map call of
    _separations."""
    return _separations(ring, [delta], config)[0]


def _separations(ring: FiniteRing, maps: list[AdditiveMap],
                 config: Optional[CheckerConfig] = None,
                 blocks: Optional[_Blocks] = None) -> list[TheoremReport]:
    """separation on every map of the list, one report per map.  δ is told
    apart from every derivation unless it equals one, that is unless δ is
    itself a derivation, which its generator proof decides from its table.
    So each report counts the solver's |Der(R)| instances and fails only
    there, with δ's table as the witness.

    Der(R) is listed only for the notes, once per call and only within
    MAX_LISTED_MAPS; above it each report notes the count instead.  At most
    one derivation equals δ, so the first MAX_WITNESSES + 1 in table order
    give every note: a derivation's index and its first separating x.
    i_d(x) and j_δ(x) differ exactly when some y with d(y) ≠ δ(y) has
    d(y) = x or δ(y) = x, so that x is the least min(d(y), δ(y)) over
    those y."""
    t0, recs = _start(ring, maps, "separation")
    if not maps:
        return []
    total = _solve(ring, "derivation")[3]
    lawful = (blocks or _Blocks(ring, maps)).lawful("derivation")
    for rec, amap, proved in zip(recs, maps, lawful.tolist()):
        rec._record(total, [{"kind": "indistinguishable",
                             "derivation": amap.table.tolist()}] if proved else ())
    if total > MAX_LISTED_MAPS:
        for rec in recs:
            rec.note({"kind": "derivations-not-listed", "derivations": total,
                      "max_listed_maps": MAX_LISTED_MAPS})
        return _finish(recs, t0)
    derivations = enumerate_derivations(ring)[:MAX_WITNESSES + 1]
    tables = _tables(derivations, np.arange(len(derivations)))
    n, k = ring.size, len(derivations)
    for ids in _row_blocks(len(maps), k * n):
        deltas = _tables(maps, ids)[:, None, :]
        differ = tables != deltas
        found = np.where(differ, np.minimum(tables, deltas), n).min(axis=2)
        for m, row in zip(ids.tolist(), found.tolist()):
            recs[m].notes = [{"kind": "separated", "derivation_index": j, "x": x}
                             for j, x in enumerate(row) if x < n][:MAX_WITNESSES]
    return _finish(recs, t0)


def find_jordan_not_derivation(ring: FiniteRing, progress=None) -> Optional[AdditiveMap]:
    """The canonically first Jordan derivation that fails the Leibniz law.
    As Der(R) ⊆ JDer(R), equal solver counts mean there is none, and then
    nothing is listed; progress gets the listing's one event all the
    same."""
    total = _solve(ring, "jordan")[3]
    if total == _solve(ring, "derivation")[3]:
        if progress:
            progress({"nodes": total, "pruned": 0, "found": total})
        return None
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


# the block form of each map checker: (ring, maps, config, blocks) -> one
# report per map
_CHECKERS = {
    "basic": _basic,
    "kernel-constants": _kernel_constants,
    "coset-structure": _coset_structure,
    "kernel-scaling": _kernel_scaling,
    "combination-rules": _combination_rules,
    "additivity-parts": _additivity_and_parts,
    "power-rules": _power_rules,
    "jordan-suite": _jordan_suite,
    "separation": _separations,
}
CHECKER_ORDER = (*_CHECKERS, "herstein")


def _run_checker(ring: FiniteRing, maps: list[AdditiveMap], checker: str,
                 config: CheckerConfig, shared: dict) -> list[TheoremReport]:
    """One checker's block form on every map that _scope lets it take, one
    report per map in order; the others are skipped.  shared holds the _Blocks of each
    list of maps a checker of the call has taken, by their positions.
    run_suite has validated the ids and runs herstein itself."""
    reports: list[Optional[TheoremReport]] = [None] * len(maps)
    live = []
    for i, amap in enumerate(maps):
        reason = _scope(amap, checker)
        if reason is None:
            live.append(i)
        else:
            reports[i] = _Recorder(checker, ring).skip(reason)
    chosen = [maps[i] for i in live]
    blocks = shared.setdefault(tuple(live), _Blocks(ring, chosen))
    for i, report in zip(live, _CHECKERS[checker](ring, chosen, config, blocks)):
        reports[i] = report
    return reports


def run_suite(ring: FiniteRing, maps: list[tuple[str, AdditiveMap]],
              checkers="all", config: Optional[CheckerConfig] = None,
              jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checkers, "all" or a list of ids, over the
    (descriptor, map) pairs, with the ring-level herstein checker once at
    the end.  A map of another ring is refused, and a map outside a
    checker's scope gets a skipped report with _scope's reason.  Der(R) is listed at most once per call, for the
    notes of separation, whose verdicts come from generator proofs.

    The run is checker-major: each checker runs over every map before the
    next starts, so each sees all its maps as one list and checks them in
    blocks (see _Blocks), splitting a block call's seconds
    evenly among its reports' runtime.  Checkers that take the same list
    of maps share its _Blocks, built once per call.  The reports come back
    map-major all the same: for each map in order, one report per selected
    checker in CHECKER_ORDER, then herstein's.

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
    if any(amap.ring is not ring for amap in amaps):
        raise RingError("map belongs to a different ring")
    shared: dict = {}
    by_checker = [_run_checker(ring, amaps, cid, config, shared)
                  for cid in _CHECKERS if cid in selected]
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
