"""Command-line front end for the finite-ring integration workbench.

Commands
--------
ring-info    build a ring from a spec and print its profile
derivations  enumerate all derivations (or Jordan derivations) of a ring
integrate    compute one set-valued integral i_d(x) or j_d(x)
verify       run the law checkers over one or more maps
search       scan rings for a target phenomenon

Ring specs are JSON files (or inline JSON); map descriptors are
"trivial", "inner:<element>", "formal", "table:<path>", and
"enumerate[:jordan][#k]".  Exit codes: 0 success/pass, 1 checker fail
or search miss, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from typing import Optional

from .integrals import integrate, is_proper, jordan_integrate
from .maps import (AdditiveMap, MapLawError, _describe_maps, check_derivation,
                   enumerate_derivations, enumerate_jordan_derivations,
                   formal_derivative, inner_derivation, zero_map)
from .rings import (FiniteRing, RingError, Zn, build_ring, spec_from_json,
                    spec_name, spec_to_json)
from .theorems import (CHECKER_ORDER, CheckerConfig, TheoremReport, _empty_parts,
                       find_jordan_not_derivation, run_suite, suite_status)


class CliError(Exception):
    """Usage or input problem: reported to stderr, exit code 2."""


# ---------------------------------------------------------------------------
# Input resolution


def _load_ring(text: str) -> FiniteRing:
    """Build a ring from a spec file path or an inline JSON object."""
    stripped = text.strip()
    if os.path.exists(text):
        try:
            with open(text) as fh:
                data = json.load(fh)
        # bad JSON, an int of over 4300 digits, or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise CliError(f"malformed ring spec file {text}: {exc}")
    elif stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            raise CliError(f"malformed inline ring spec: {exc}")
    else:
        raise CliError(f"ring spec file not found: {text}")
    return build_ring(spec_from_json(data))


# at most 9 digits: no listing reaches 10^9 maps; int() refuses 4301+ digits
_ENUM_RE = re.compile(r"^enumerate(:jordan)?(?:#(\d{1,9}))?$")


def _resolve_maps(ring: FiniteRing, desc: str,
                  progress=None) -> list[tuple[str, AdditiveMap]]:
    """Turn a map descriptor into (name, map) pairs, enumerating if asked."""
    got = _ENUM_RE.match(desc)
    if got:
        jordan = got.group(1) is not None
        base = "enumerate:jordan" if jordan else "enumerate"
        found = (enumerate_jordan_derivations(ring, progress) if jordan
                 else enumerate_derivations(ring, progress))
        named = [(f"{base}#{i}", m) for i, m in enumerate(found)]
        if got.group(2) is not None:
            k = int(got.group(2))
            if k >= len(named):
                raise CliError(
                    f"descriptor {desc!r} out of range: {len(named)} maps enumerated")
            return [named[k]]
        return named
    if desc == "trivial":
        return [("trivial", zero_map(ring))]
    if desc.startswith("inner:"):
        text = desc.split(":", 1)[1]
        return [(desc, inner_derivation(ring, ring.parse(text)))]
    if desc == "formal":
        return [("formal", formal_derivative(ring))]
    if desc.startswith("table:"):
        path = desc.split(":", 1)[1]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read map table {path}: {exc}")
        except ValueError as exc:
            raise CliError(f"malformed map table {path}: {exc}")
        # bool is a subclass of int, and numpy would read true as 1
        if not isinstance(data, list) or not all(type(v) is int for v in data):
            raise CliError(f"map table {path} must be a JSON list of element indices")
        return [(desc, AdditiveMap(ring, data))]
    raise CliError(f"unknown map descriptor {desc!r}")


def _progress_printer(prefix: str):
    def cb(stats: dict):
        print(f"[{prefix}] nodes={stats['nodes']} pruned={stats['pruned']} "
              f"found={stats['found']}", file=sys.stderr)
    return cb


# ---------------------------------------------------------------------------
# Commands


def _cmd_ring_info(args) -> tuple[int, str, dict]:
    ring = _load_ring(args.ring)
    info = ring.describe()
    lines = [
        f"name: {info['name']}",
        f"size: {info['size']}",
        f"zero: {ring.label(ring.zero)} (index {ring.zero})",
    ]
    if ring.unity is not None:
        lines.append(f"unity: {ring.label(ring.unity)} (index {ring.unity})")
        lines.append(f"unity additive order: {info['unity_additive_order']}")
        lines.append(f"invertible elements: {info['invertible_count']}")
    else:
        lines.append("unity: none")
    lines.append(f"commutative: {'yes' if info['commutative'] else 'no'}")
    lines.append(f"prime: {'yes' if info['prime'] else 'no'}")
    if "prime_witness" in info:
        w = info["prime_witness"]
        lines.append(f"prime witness: a={w['a_label']} b={w['b_label']} with aRb=0")
    torsion = ", ".join(f"{n}: {'yes' if v else 'no'}"
                        for n, v in info["torsion_free"].items())
    lines.append(f"torsion-free: {torsion}")
    shown = info["labels"][:64]
    suffix = ", ..." if ring.size > 64 else ""
    lines.append(f"elements: {', '.join(shown)}{suffix}")
    return 0, "\n".join(lines), info


def _cmd_derivations(args) -> tuple[int, str, dict]:
    ring = _load_ring(args.ring)
    law = "jordan" if args.jordan else "derivation"
    named = _resolve_maps(ring, "enumerate:jordan" if args.jordan else "enumerate",
                          _progress_printer(f"enumerate {law}s"))
    payload = {
        "ring": spec_to_json(ring.spec),
        "law": law,
        "count": len(named),
        "maps": [dict(desc=desc, **entry) for (desc, _), entry
                 in zip(named, _describe_maps([m for _, m in named]))],
    }
    lines = [f"ring: {spec_name(ring.spec)} (size {ring.size})",
             f"law: {law}", f"count: {len(named)}"]
    for entry in payload["maps"]:
        flags = []
        if entry["derivation"]:
            flags.append("derivation")
        if entry["jordan"]:
            flags.append("jordan")
        if entry["inner_witness"] is not None:
            flags.append(f"inner at {entry['inner_witness_label']}")
        lines.append(f"{entry['desc']}: table={entry['table']} ({', '.join(flags)})")
    return 0, "\n".join(lines), payload


def _cmd_integrate(args) -> tuple[int, str, dict]:
    ring = _load_ring(args.ring)
    named = _resolve_maps(ring, args.map)
    if len(named) != 1:
        raise CliError(
            f"descriptor {args.map!r} resolves to {len(named)} maps; "
            "select one with a #k suffix")
    desc, amap = named[0]
    x = ring.parse(args.element)
    if amap.is_derivation:
        law, symbol = "derivation", "i_d"
        result = integrate(ring, amap, x)
    elif amap.is_jordan:
        law, symbol = "jordan", "j_d"
        result = jordan_integrate(ring, amap, x)
    else:
        raise CliError(f"map {desc!r} satisfies neither law; cannot integrate")
    payload = {
        "ring": spec_to_json(ring.spec),
        "map": desc,
        "law": law,
        "element": x,
        "element_label": ring.label(x),
        "integral": result.to_json(materialize=True),
    }
    if not result.is_empty:
        payload["integral"]["labels"] = [ring.label(e)
                                         for e in result.as_set().elements]
    lines = [f"ring: {spec_name(ring.spec)} (size {ring.size})",
             f"map: {desc} ({law} law)",
             f"{symbol}({ring.label(x)}) = {result.as_set()!r}"]
    if not result.is_empty:
        lines.append(f"coset of kernel, size {len(result)}, "
                     f"representative {ring.label(result.representative)}")
    return 0, "\n".join(lines), payload


def _checker_selection(text: str):
    if text == "all":
        return "all"
    chosen = [part.strip() for part in text.split(",") if part.strip()]
    if not chosen:
        raise CliError(f"--checkers {text!r} names no checker")
    unknown = [c for c in chosen if c not in CHECKER_ORDER]
    if unknown:
        raise CliError(f"unknown checker ids: {', '.join(unknown)} "
                       f"(valid: {', '.join(CHECKER_ORDER)})")
    return chosen


def _report_line(report: TheoremReport) -> str:
    tag = {"pass": "[pass]", "fail": "[FAIL]", "skipped": "[skip]"}[report.status]
    line = f"  {tag} {report.checker:<18}"
    if report.status == "skipped":
        return f"{line} {report.reason}"
    line += f" instances={report.instances}"
    if report.status == "fail":
        line += f" witnesses={len(report.witnesses)}"
        if report.witnesses:
            line += f" first={report.witnesses[0]}"
    line += f" ({report.runtime:.3f}s)"
    return line


# power-rules builds one column per exponent in [-max_n, max_n]
_MAX_N = 1024


def _cmd_verify(args) -> tuple[int, str, dict]:
    if args.max_n is not None and not 0 <= args.max_n <= _MAX_N:
        raise CliError(f"--max-n must be in 0..{_MAX_N}, got {args.max_n}")
    checkers = _checker_selection(args.checkers)
    ring = _load_ring(args.ring)
    progress = _progress_printer("enumerate")
    named = _resolve_maps(ring, args.map, progress)
    config = CheckerConfig()
    if args.max_n is not None:
        config.max_n = args.max_n
        config.max_exp = args.max_n
    reports = run_suite(ring, named, checkers, config)

    groups: list[tuple[Optional[str], list[TheoremReport]]] = []
    for report in reports:
        if groups and groups[-1][0] == report.map_desc:
            groups[-1][1].append(report)
        else:
            groups.append((report.map_desc, [report]))
    status = suite_status(reports)
    payload = {
        "ring": spec_to_json(ring.spec),
        "results": [{"map": desc, "reports": [r.to_json() for r in group]}
                    for desc, group in groups],
        "status": status,
    }
    lines = [f"ring: {spec_name(ring.spec)} (size {ring.size})"]
    for desc, group in groups:
        lines.append(f"map: {desc}" if desc is not None else "ring-level:")
        lines.extend(_report_line(r) for r in group)
    lines.append(f"status: {status}")
    return (0 if status == "pass" else 1), "\n".join(lines), payload


def _zn_range(text: str) -> range:
    got = re.match(r"^(\d{1,9})\.\.(\d{1,9})$", text.strip())    # as _ENUM_RE
    if not got:
        raise CliError(f"bad --zn range {text!r}; expected like 2..12")
    lo, hi = int(got.group(1)), int(got.group(2))
    if lo < 1 or hi < lo:
        raise CliError(f"bad --zn range {text!r}")
    return range(lo, hi + 1)


def _search_ring(ring: FiniteRing, target: str) -> Optional[dict]:
    progress = _progress_printer(f"search {spec_name(ring.spec)}")
    if target == "jordan-not-derivation":
        witness = find_jordan_not_derivation(ring, progress)
        if witness is None:
            return None
        ok, pair = check_derivation(ring, witness.table)
        if ok:
            raise MapLawError("the Jordan witness satisfies the Leibniz law")
        return {"ring": spec_to_json(ring.spec),
                "map_table": [int(v) for v in witness.table],
                "leibniz_failure_at": list(pair)}
    label = ring.label
    for i, dmap in enumerate(enumerate_derivations(ring, progress)):
        if target == "non-proper":
            proper, wit = is_proper(ring, dmap)
            if proper:
                continue
            u, v, uv = wit
            witness = {"u": u, "v": v, "uv": uv, "u_label": label(u),
                       "v_label": label(v), "uv_label": label(uv)}
        else:                             # empty-parts-witness
            hit = next(_empty_parts(ring, [dmap]))
            if hit is None:
                continue
            x, y, a, b = hit
            witness = {"x": x, "y": y, "x_label": label(x), "y_label": label(y),
                       "dx_times_y": a, "x_times_dy": b}
        return {"ring": spec_to_json(ring.spec), "map": f"enumerate#{i}",
                "map_table": [int(v) for v in dmap.table], "witness": witness}
    return None


def _cmd_search(args) -> tuple[int, str, dict]:
    specs = args.ring or []
    zn_values = _zn_range(args.zn) if args.zn else []
    if not specs and not zn_values:
        raise CliError("search needs at least one --ring or a --zn range")

    # rings are built one at a time, and none after the first hit
    rings = itertools.chain((_load_ring(entry) for entry in specs),
                            (build_ring(Zn(n)) for n in zn_values))
    searched = []
    found = None
    for ring in rings:
        searched.append(spec_to_json(ring.spec))
        print(f"[search] ring {spec_name(ring.spec)} (size {ring.size})",
              file=sys.stderr)
        found = _search_ring(ring, args.target)
        if found:
            break

    payload = {"target": args.target, "rings_searched": searched,
               "found": found}
    if found is None:
        text = f"target {args.target}: not found in {len(searched)} ring(s)"
        return 1, text, payload
    lines = [f"target {args.target}: found in ring "
             f"{spec_name(spec_from_json(found['ring']))}"]
    for key, value in found.items():
        if key != "ring":
            lines.append(f"  {key}: {value}")
    return 0, "\n".join(lines), payload


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringlab",
        description="finite-ring workbench for set-valued integration")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=True):
        if ring:
            p.add_argument("--ring", required=True,
                           help="ring spec: JSON file path or inline JSON")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the result to this file")

    p = sub.add_parser("ring-info", help="print a ring profile")
    common(p)

    p = sub.add_parser("derivations", help="enumerate derivations of a ring")
    common(p)
    p.add_argument("--jordan", action="store_true",
                   help="enumerate Jordan derivations instead")

    p = sub.add_parser("integrate", help="compute one set-valued integral")
    common(p)
    p.add_argument("--map", required=True, help="map descriptor")
    p.add_argument("--element", required=True,
                   help="element to integrate: index, label, or literal")

    p = sub.add_parser("verify", help="run the law checkers")
    common(p)
    p.add_argument("--map", required=True, help="map descriptor")
    p.add_argument("--checkers", default="all",
                   help=f"comma-separated ids or 'all' "
                        f"({', '.join(CHECKER_ORDER)})")
    p.add_argument("--max-n", type=int, default=None, dest="max_n",
                   help="cap for integer-multiple and exponent windows")

    p = sub.add_parser("search", help="scan rings for a target phenomenon")
    p.add_argument("--target", required=True,
                   choices=("jordan-not-derivation", "non-proper",
                            "empty-parts-witness"))
    p.add_argument("--ring", action="append",
                   help="ring spec path or inline JSON (repeatable)")
    p.add_argument("--zn", help="also scan cyclic rings Z_n for n in A..B")
    common(p, ring=False)
    return parser


_HANDLERS = {
    "ring-info": _cmd_ring_info,
    "derivations": _cmd_derivations,
    "integrate": _cmd_integrate,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, text, payload = _HANDLERS[args.command](args)
    except (CliError, RingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    body = (json.dumps(payload, indent=2) + "\n" if args.format == "json"
            else text + "\n")
    if not args.out:
        sys.stdout.write(body)
        return code
    try:
        with open(args.out, "w") as fh:
            fh.write(body)
    except (OSError, ValueError) as exc:        # ValueError: a NUL byte in the path
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
