#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the expected answer of every operation.

Usage (from the repository root):

    python3 perfbench/record.py [corpus] [enum-ladder] [cli-requests]

With no argument every workload is recorded again.

Each answer carries its source, per field:

* ``hand``        derived by hand; the derivation is in the source text;
* ``test pin``    a value the Tier-1 tests pin (file and test named);
* ``naive oracle`` tests/naive_reference.py, for rings of at most 16 elements;
* ``today``       what the code returned when the record was made.

A hand, pinned or oracle value always wins over today's value; a
disagreement is printed and then shows as a failed operation in every
benchmark run.  Known failures (operations that fail today and must stay
visible) are listed in KNOWN_FAILURES with the answer they should give; a
raised exception is known only with the exception type recorded there.
"""

from __future__ import annotations

import json
import subprocess
import sys

from harness import ROOT, RECORD_PATH, WORKDIR, is_known, run_op, tables_digest

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from ringlab import (Matrix, TruncPoly, Zn, build_ring, formal_derivative,  # noqa: E402
                     inner_derivation)
from naive_reference import naive_derivations, naive_jordan_derivations  # noqa: E402
from test_maps import FROZEN_COUNTS  # noqa: E402

import cli_requests  # noqa: E402
import corpus  # noqa: E402
import ladder  # noqa: E402

MODULES = {"corpus": corpus, "enum-ladder": ladder, "cli-requests": cli_requests}

HAND_TP2 = ("hand: a derivation of F2[X]/(X^m) is fixed by a = d(X), subject to "
            "d(X^m) = m X^(m-1) a = 0, so 2^m maps for even m and 2^(m-1) for odd m")
HAND_JORDAN_CHAR2 = ("hand: in a commutative ring of characteristic 2, x∘y = 2xy = 0, so "
                     "every additive map is Jordan; (R,+) = F2^m gives 2^(m*m) maps")
PIN_FROZEN = "test pin: tests/test_maps.py FROZEN_COUNTS"
PIN_M2Z3 = ("test pin: tests/test_maps.py test_m2z3_jordan_equals_derivations, "
            "criterion 06 (Herstein, instances == 27)")

KNOWN_FAILURES = {
    "enum-ladder": {
        "tp2-8.der": ("over-budget", None,
                      "out of reach today (>10 min); stopped at its budget"),
        "tp2-5.jordan": ("over-budget", None,
                         "out of reach today (2^25 maps); stopped at its budget"),
    },
    "cli-requests": {
        "verify.tp34.formal.text": (
            "exception", "AssertionError",
            "AssertionError in formal_derivative; the formal derivative is a derivation "
            "only when p | m, and an input error must exit 2"),
    },
}

# Fields whose value does not come from today's run: key -> {field: (value, source)}.
PINNED = {
    "enum-ladder": {
        "tp2-4.der": {"count": (16, HAND_TP2)},
        "tp2-5.der": {"count": (16, HAND_TP2)},
        "tp2-6.der": {"count": (64, HAND_TP2)},
        "tp2-7.der": {"count": (64, HAND_TP2)},
        "tp2-8.der": {"count": (256, HAND_TP2), "digest": (None, "unknown: never listed")},
        "tp2-4.jordan": {"count": (2 ** 16, HAND_JORDAN_CHAR2)},
        "tp2-5.jordan": {"count": (2 ** 25, HAND_JORDAN_CHAR2),
                         "digest": (None, "unknown: never listed")},
        "m2-z3.der": {"count": (27, PIN_M2Z3)},
        "m2-z3.jordan": {"count": (27, PIN_M2Z3)},
        "m2-z2.jordan": {"count": (128, PIN_FROZEN)},
    },
    "corpus": {},
    "cli-requests": {
        "verify.tp34.formal.text": {"exit": (2, "spec: ringlab cli exits 2 on input errors")},
        "derivations.m2z2": {"count": (8, PIN_FROZEN)},
        "derivations.m2z2.jordan": {"count": (128, PIN_FROZEN)},
        "derivations.gf16": {"count": (1, "hand: a finite field is perfect, so 0 is its "
                                          "only derivation")},
    },
}

# Ladder rungs on at most 16 elements: the naive oracle lists them too.
ORACLE_RUNGS = {"tp2-4.der": (TruncPoly(2, 4), naive_derivations),
                "tp2-4.jordan": (TruncPoly(2, 4), naive_jordan_derivations),
                "m2-z2.jordan": (Matrix(Zn(2), 2), naive_jordan_derivations)}


def _check_inputs():
    """The benchmark writes its map tables from definitions; they must be
    the maps ringlab means."""
    m2z2 = build_ring(Matrix(Zn(2), 2))
    tp28 = build_ring(TruncPoly(2, 8))
    if (cli_requests._m2z2_inner_table(0b0100)
            != list(inner_derivation(m2z2, m2z2.parse("E12")).table)
            or cli_requests._formal_table(2, 8) != list(formal_derivative(tp28).table)):
        raise SystemExit("the benchmark's map tables differ from ringlab's maps")


def _pins(workload: str) -> dict:
    pins = {k: dict(v) for k, v in PINNED[workload].items()}
    if workload == "corpus":
        for name, (n_der, n_jordan) in FROZEN_COUNTS.items():
            pins[name] = {"derivations": (n_der, PIN_FROZEN), "jordan": (n_jordan, PIN_FROZEN)}
        pins["M2(Z3)"] = {"derivations": (27, PIN_M2Z3), "jordan": (27, PIN_M2Z3)}
    if workload == "enum-ladder":
        for key, (spec, oracle) in ORACLE_RUNGS.items():
            tables = oracle(build_ring(spec))
            pins[key]["digest"] = (tables_digest(tables), "naive oracle")
    return pins


def record_workload(workload: str) -> dict:
    module = MODULES[workload]
    pins = _pins(workload)
    known = KNOWN_FAILURES.get(workload, {})
    entries = {}
    for op in module.make_ops(0, WORKDIR):
        if op.key in entries:
            continue
        got = run_op(module, op, {"answer": {}})
        today = dict(got.verdict or {})
        today.pop("output_bytes", None)
        answer = {k: v for k, v in today.items()}
        source = {k: "today" for k in today}
        for field, (value, src) in pins.get(op.key, {}).items():
            if field in today and today[field] != value:
                print(f"  MISMATCH {workload} {op.key} {field}: today {today[field]!r}, "
                      f"{src.split(':')[0]} {value!r}", file=sys.stderr)
            answer[field], source[field] = value, src
        entry = {"answer": answer, "source": source}
        if op.key in known:
            entry["known_failure"], detail, entry["note"] = known[op.key]
            if detail is not None:
                entry["known_detail"] = detail
        if got.failure is not None and not is_known(got.failure, got.detail, entry):
            print(f"  UNEXPECTED {workload} {op.key}: {got.failure} {got.detail}",
                  file=sys.stderr)
        entries[op.key] = entry
        print(f"  {workload} {op.key}: {got.failure or 'ok'} {got.seconds:.2f}s",
              file=sys.stderr)
    return entries


def _write(record: dict):
    """One operation per line, so a diff shows which answers changed."""
    lines = ["{", f' "made_at_commit": {json.dumps(record["made_at_commit"])},']
    for w, workload in enumerate(MODULES):
        lines.append(f" {json.dumps(workload)}: {{")
        keys = sorted(record[workload])
        for i, key in enumerate(keys):
            comma = "," if i < len(keys) - 1 else ""
            lines.append(f"  {json.dumps(key)}: "
                         f"{json.dumps(record[workload][key], sort_keys=True)}{comma}")
        lines.append(" }" + ("," if w < len(MODULES) - 1 else ""))
    lines.append("}")
    RECORD_PATH.write_text("\n".join(lines) + "\n")


def main(argv) -> int:
    workloads = argv or list(MODULES)
    _check_inputs()
    record = json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}
    record["made_at_commit"] = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
        text=True).stdout.strip() or "unknown"
    for workload in workloads:
        record[workload] = record_workload(workload)
    _write(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
