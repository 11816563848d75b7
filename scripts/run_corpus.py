#!/usr/bin/env python3
"""Run the full checker suite over the standard ring corpus.

For every corpus ring this enumerates all derivations and Jordan
derivations, runs every checker on every enumerated map plus the named
special maps (formal derivative, inner maps at distinguished elements),
and writes a JSON report plus a text summary.

Usage:
    python3 scripts/run_corpus.py [--out results/corpus.json] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ringlab import (  # noqa: E402
    CheckerConfig, Matrix, Product, TriPattern, TruncPoly, Zn, build_ring,
    enumerate_derivations, enumerate_jordan_derivations, formal_derivative,
    inner_derivation, is_proper, run_suite, spec_name, spec_to_json,
    suite_status,
)

CORPUS = [Zn(n) for n in range(2, 9)] + [
    TruncPoly(2, 2),
    TruncPoly(3, 3),
    Matrix(Zn(2), 2),
    TriPattern(Zn(2)),
    Product((Zn(2), Zn(3))),
]

# 2-torsion-free prime flagship for the Jordan-implies-Leibniz check
FLAGSHIP = Matrix(Zn(3), 2)


def named_maps(ring):
    """The distinguished maps of a ring, beyond the enumerated ones."""
    named = []
    spec = ring.spec
    if isinstance(spec, TruncPoly):
        named.append(("formal", formal_derivative(ring)))
    if isinstance(spec, Matrix) and ring.unity is not None:
        named.append(("inner:E11", inner_derivation(ring, ring.parse("E11"))))
    if isinstance(spec, TriPattern):
        named.append(("inner:A", inner_derivation(ring, ring.parse("A"))))
    return named


def run_ring(ring, config):
    t0 = time.perf_counter()
    derivations = enumerate_derivations(ring)
    jordans = enumerate_jordan_derivations(ring)

    maps = [(f"enumerate#{i}", m) for i, m in enumerate(derivations)]
    # Der(R) is within JDer(R), and a listed map's derivation flag is exact
    maps += [(f"enumerate:jordan#{i}", m) for i, m in enumerate(jordans)
             if not m.is_derivation]
    maps.extend(named_maps(ring))

    reports = run_suite(ring, maps, "all", config)

    proper = []
    for i, d in enumerate(derivations):
        ok, witness = is_proper(ring, d)
        entry = {"map": f"enumerate#{i}", "proper": ok}
        if witness is not None:
            u, v, uv = witness
            entry["witness"] = {"u": u, "v": v, "uv": uv}
        proper.append(entry)

    return {
        "ring": spec_to_json(ring.spec),
        "name": spec_name(ring.spec),
        "size": ring.size,
        "derivation_count": len(derivations),
        "jordan_count": len(jordans),
        "proper": proper,
        "reports": [dict(r.to_json(), map=r.map_desc) for r in reports],
        "status": suite_status(reports),
        "runtime": round(time.perf_counter() - t0, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/corpus.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = CheckerConfig(seed=args.seed)
    specs = CORPUS + [FLAGSHIP]

    results = []
    status_counts = []
    overall = "pass"
    t0 = time.perf_counter()
    for spec in specs:
        ring = build_ring(spec)
        print(f"[corpus] {spec_name(spec)} (size {ring.size}) ...",
              file=sys.stderr)
        entry = run_ring(ring, config)
        results.append(entry)
        if entry["status"] == "fail":
            overall = "fail"
        counts = Counter(rep["status"] for rep in entry["reports"])
        status_counts.append(counts)
        print(f"  maps: {entry['derivation_count']} derivations, "
              f"{entry['jordan_count']} jordan; reports: {dict(counts)}; "
              f"{entry['runtime']}s", file=sys.stderr)

    payload = {
        "corpus": [r["name"] for r in results],
        "results": results,
        "status": overall,
        "runtime": round(time.perf_counter() - t0, 3),
    }
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    print(f"\n{'ring':<14} {'size':>4} {'der':>4} {'jor':>5} "
          f"{'pass':>5} {'skip':>5} {'fail':>5} status")
    for entry, counts in zip(results, status_counts):
        print(f"{entry['name']:<14} {entry['size']:>4} "
              f"{entry['derivation_count']:>4} {entry['jordan_count']:>5} "
              f"{counts['pass']:>5} {counts['skipped']:>5} "
              f"{counts['fail']:>5} {entry['status']}")
    print(f"\noverall: {overall}  ({payload['runtime']}s, report at {args.out})")
    return 0 if overall == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
