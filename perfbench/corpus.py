"""corpus: the ring list and named maps of the corpus sweep, one op per ring.

Each op does what ``scripts/run_corpus.py`` does for one ring: build it,
enumerate derivations and Jordan derivations, run every checker on every
map with the script's default ``jobs`` (the processor count), and test
each derivation's image for properness.  ``theorems`` does most of the
work.  The list is copied here, not imported, so the workload stays
fixed when the script changes.
"""

from __future__ import annotations

import os
import random

from ringlab import (CheckerConfig, Matrix, Product, TriPattern, TruncPoly,
                     Zn, formal_derivative, inner_derivation, spec_name)

import layers
from harness import Op

RING_BUDGET_S = 60.0

CORPUS = [Zn(n) for n in range(2, 9)] + [
    TruncPoly(2, 2),
    TruncPoly(3, 3),
    Matrix(Zn(2), 2),
    TriPattern(Zn(2)),
    Product((Zn(2), Zn(3))),
    Matrix(Zn(3), 2),      # the 2-torsion-free prime flagship
]

JOBS = os.cpu_count() or 1
# One job: its request latency is a whole pass, not one operation.
BATCH = True


def make_ops(seed, workdir):
    ops = [Op(spec_name(spec), RING_BUDGET_S, {"spec": spec, "seed": seed})
           for spec in CORPUS]
    random.Random(seed).shuffle(ops)
    return ops


def _named_maps(ring):
    spec, named = ring.spec, []
    if isinstance(spec, TruncPoly):
        named.append(("formal", formal_derivative(ring)))
    if isinstance(spec, Matrix) and ring.unity is not None:
        named.append(("inner:E11", inner_derivation(ring, ring.parse("E11"))))
    if isinstance(spec, TriPattern):
        named.append(("inner:A", inner_derivation(ring, ring.parse("A"))))
    return named


def execute(op, tracer):
    ring = layers.build(op.args["spec"], tracer)
    ders = layers.enumerate_maps(ring, "derivation", tracer)
    jordans = layers.enumerate_maps(ring, "jordan", tracer)
    maps = [(f"enumerate#{i}", m) for i, m in enumerate(ders)]
    seen = {m.as_tuple() for _, m in maps}
    maps += [(f"enumerate:jordan#{i}", m) for i, m in enumerate(jordans)
             if m.as_tuple() not in seen]
    if tracer is None:
        maps += _named_maps(ring)
    else:
        with tracer.span("maps.validate"):
            maps += _named_maps(ring)
    reports = layers.run_suite_all(ring, maps, "all", CheckerConfig(seed=op.args["seed"]),
                                   JOBS, tracer)
    proper = [layers.proper(ring, d, tracer)[0] for d in ders]
    return len(ders), len(jordans), reports, proper


def verdict(op, raw):
    n_der, n_jordan, reports, proper = raw
    return {"derivations": n_der, "jordan": n_jordan,
            "reports": [[r.map_desc, r.checker, r.status, r.instances] for r in reports],
            "proper": proper}
