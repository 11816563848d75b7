"""Calls into ringlab's public API shared by the workloads.

With ``tracer=None`` each helper makes exactly the call a user makes.
With a tracer it opens a span named after the layer around each call and
counts the work at that boundary; ``build`` then splits
``build_ring(spec)`` into ``build_ring(spec, check=False)`` plus
``check_ring_axioms``, and ``run_suite`` runs ``run_suite`` once per
checker id, in one thread, so each checker gets its own span.
"""

from __future__ import annotations

from ringlab import (CHECKER_ORDER, Tables, build_ring,
                     enumerate_derivations, enumerate_jordan_derivations,
                     integrate, is_proper, jordan_integrate, run_suite)
from ringlab.rings import check_ring_axioms


def build(spec, tracer):
    if tracer is None:
        return build_ring(spec)
    with tracer.span("rings.build"):
        ring = build_ring(spec, check=False)
    with tracer.span("rings.axioms"):
        check_ring_axioms(ring.add_table, ring.mul_table, ring.size,
                          unity=spec.unity if isinstance(spec, Tables) else None)
    tracer.count("rings.builds")
    return ring


def enumerate_maps(ring, law, tracer, progress=None):
    """All derivations (law='derivation') or Jordan derivations."""
    fn = enumerate_derivations if law == "derivation" else enumerate_jordan_derivations
    if tracer is None:
        return fn(ring, progress)
    stats = {}

    def record(s):
        stats.update(s)
        if progress is not None:
            progress(s)

    with tracer.span("maps.enum_der" if law == "derivation" else "maps.enum_jordan"):
        maps = fn(ring, record)
    for k in ("nodes", "pruned", "found"):
        tracer.count(f"maps.enum_{k}", stats[k])
    return maps


def run_suite_all(ring, maps, checkers, config, jobs, tracer):
    """run_suite's reports, in run_suite's order, for the ids in ``checkers``
    (a list, or "all").

    The traced split runs with ``jobs=1``.  With more jobs it would start
    the same checker on two maps at once, a task order the whole-suite call
    never makes, and ``FiniteRing.invert`` builds its inverse table lazily
    without a lock: a second thread can read the table before it is
    filled (kernel-constants then finds no units).  Reports do not depend
    on ``jobs``, so the traced verdicts still equal the untraced ones.
    """
    if tracer is None:
        return run_suite(ring, maps, checkers, config, jobs=jobs)
    chosen = CHECKER_ORDER if checkers == "all" else checkers
    by_checker = {}
    with tracer.span("theorems.run_suite"):
        for cid in CHECKER_ORDER:
            if cid in chosen:
                with tracer.span(f"theorems.{cid}"):
                    by_checker[cid] = run_suite(ring, maps, [cid], config, jobs=1)
    reports = [by_checker[cid][i] for i in range(len(maps))
               for cid in CHECKER_ORDER if cid != "herstein" and cid in by_checker]
    reports.extend(by_checker.get("herstein", []))
    for r in reports:
        tracer.count("theorems.reports")
        tracer.count(f"theorems.{r.checker}.instances", r.instances)
        tracer.count("theorems.skipped", r.status == "skipped")
        tracer.count("theorems.failed", r.status == "fail")
    return reports


def proper(ring, dmap, tracer):
    if tracer is None:
        return is_proper(ring, dmap)
    with tracer.span("integrals.is_proper"):
        got = is_proper(ring, dmap)
    tracer.count("integrals.is_proper_calls")
    return got


def integral(ring, dmap, x, law, tracer):
    fn = integrate if law == "derivation" else jordan_integrate
    if tracer is None:
        return fn(ring, dmap, x)
    with tracer.span("integrals.integrate"):
        got = fn(ring, dmap, x)
    tracer.count("integrals.integrate_calls")
    tracer.count("integrals.integrate_empty", got.is_empty)
    return got
