"""enum-ladder: one operation per rung, build_ring + one enumeration.

Most of the time goes to ``maps``.  The rungs use that layer in two
opposite ways: the Leibniz search on Z2[X]/(X^m) prunes almost every
node, while the characteristic-2 Jordan listing prunes none and pays per
map listed.  ``tp2-8.der`` and ``tp2-5.jordan`` do not finish today; a
short budget stops them and they count as over budget, never dropped.
"""

from __future__ import annotations

import random

from ringlab import Matrix, Product, TriPattern, TruncPoly, Zn, generator_basis

import layers
from harness import Op, OverBudget, tables_digest

REACHABLE_BUDGET_S = 60.0
# Enough to show the two out-of-reach rungs do not finish, short enough
# to keep a ladder pass under 40 s.
OUT_OF_REACH_BUDGET_S = 2.0
# One job: its request latency is a whole pass, not one operation.
BATCH = True

RUNGS = [
    # key, spec, law, budget
    ("tp2-4.der", TruncPoly(2, 4), "derivation", REACHABLE_BUDGET_S),
    ("tp2-5.der", TruncPoly(2, 5), "derivation", REACHABLE_BUDGET_S),
    ("tp2-6.der", TruncPoly(2, 6), "derivation", REACHABLE_BUDGET_S),
    ("tp2-7.der", TruncPoly(2, 7), "derivation", REACHABLE_BUDGET_S),
    ("tp2-8.der", TruncPoly(2, 8), "derivation", OUT_OF_REACH_BUDGET_S),
    ("tp2-4.jordan", TruncPoly(2, 4), "jordan", REACHABLE_BUDGET_S),
    ("tp2-5.jordan", TruncPoly(2, 5), "jordan", OUT_OF_REACH_BUDGET_S),
    ("m2-z3.der", Matrix(Zn(3), 2), "derivation", REACHABLE_BUDGET_S),
    ("m2-z3.jordan", Matrix(Zn(3), 2), "jordan", REACHABLE_BUDGET_S),
    ("m2-z2.jordan", Matrix(Zn(2), 2), "jordan", REACHABLE_BUDGET_S),
    ("tri-z3.der", TriPattern(Zn(3)), "derivation", REACHABLE_BUDGET_S),
    ("z4cubed.jordan", Product((Zn(4), Zn(4), Zn(4))), "jordan", REACHABLE_BUDGET_S),
]


def make_ops(seed, workdir):
    ops = [Op(key, budget, {"spec": spec, "law": law})
           for key, spec, law, budget in RUNGS]
    random.Random(seed).shuffle(ops)
    return ops


def execute(op, tracer):
    law = op.args["law"]
    last = {}    # the latest nodes/pruned/found counters from the progress callback
    if tracer is None:
        ring = layers.build(op.args["spec"], None)
        return layers.enumerate_maps(ring, law, None, last.update)
    try:
        ring = layers.build(op.args["spec"], tracer)
        # enumeration computes the basis again inside; this call times that stage
        with tracer.span("maps.basis"):
            generator_basis(ring)
        with tracer.span(f"maps.rung.{op.key}"):
            return layers.enumerate_maps(ring, law, tracer, last.update)
    except OverBudget:
        tracer.count("maps.rungs_over_budget")
        raise


def verdict(op, maps):
    return {"count": len(maps), "digest": tables_digest(m.table for m in maps)}
