"""cli-requests: a seeded stream of in-process ``ringlab.cli.main(argv)`` calls.

Every request rebuilds its ring, so ``rings`` does most of the work.
Each pass is 108 requests in blocks of about five: three or four drawn
from the brief and light menus (16 to 81 elements) and one from the
heavy menu (243 to 256 elements).  Every pass holds the same requests,
so ``req_p50_ms`` falls on light requests and ``req_p90_ms`` on heavy
ones for any seed; the seed sets the order.  The light menu keeps the
known crash ``verify --map formal`` on Z3[X]/(X^4), which counts as a
failure until it exits 2.

The traced run replays each request as the public calls its handler
makes (build, axiom check, map resolution, integrate / run_suite, JSON
output) instead of calling ``cli.main``.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ringlab import (CHECKER_ORDER, AdditiveMap, CheckerConfig, RingError, Zn,
                     check_derivation, cli, find_jordan_not_derivation,
                     formal_derivative, inner_derivation, spec_from_json,
                     spec_to_json, suite_status, zero_map)
from ringlab.cli import CliError

import layers
from harness import BadExit, Op, tables_digest

REQUEST_BUDGET_S = 30.0
BRIEF_COPIES, LIGHT_COPIES, HEAVY_COPIES = 2, 5, 2   # 8*2 + 14*5 + 11*2 = 108 a pass
JOBS = os.cpu_count() or 1           # cli's default --jobs


def zn(n):
    return {"kind": "zn", "n": n}


def tp(p, m):
    return {"kind": "trunc_poly", "p": p, "m": m}


def mat(base, dim):
    return {"kind": "matrix", "base": base, "dim": dim}


def tri(base):
    return {"kind": "tri_pattern", "base": base}


def prod(*factors):
    return {"kind": "product", "factors": list(factors)}


# A string ring names a spec file written into the work directory.
GF16 = "gf16.json"
M2Z2, M2Z3, TRI2, TP24, TP34 = mat(zn(2), 2), mat(zn(3), 2), tri(zn(2)), tp(2, 4), tp(3, 4)
Z256, Z16Z16, TP28, TRI3 = zn(256), prod(zn(16), zn(16)), tp(2, 8), tri(zn(3))

# Requests of a few ms.  They come twice a pass and the light ones five
# times, so the median request falls among light ones of similar cost
# (about 35 to 55 ms), not on a step between two cost levels.
BRIEF = [
    ("ring-info.z16.text", {"cmd": "ring-info", "ring": zn(16), "format": "text"}),
    ("ring-info.gf16", {"cmd": "ring-info", "ring": GF16}),
    ("integrate.tp24.formal", {"cmd": "integrate", "ring": TP24, "map": "formal",
                               "element": "1"}),
    ("integrate.m2z2.inner", {"cmd": "integrate", "ring": M2Z2, "map": "inner:E11",
                              "element": "E12"}),
    ("integrate.m2z2.table", {"cmd": "integrate", "ring": M2Z2,
                              "map": "table:m2z2-inner-e12.json", "element": "E11"}),
    ("derivations.gf16", {"cmd": "derivations", "ring": GF16}),
    ("search.non-proper.zn", {"cmd": "search", "target": "non-proper", "zn": "2..8"}),
    ("search.jordan-not-derivation.zn", {"cmd": "search", "target": "jordan-not-derivation",
                                         "zn": "3..5"}),
]

LIGHT = [
    ("ring-info.m2z2", {"cmd": "ring-info", "ring": M2Z2}),
    ("integrate.tri2.enumerate5", {"cmd": "integrate", "ring": TRI2, "map": "enumerate#5",
                                   "element": "0"}),
    ("integrate.tp24.enumerate99", {"cmd": "integrate", "ring": TP24, "map": "enumerate#99",
                                    "element": "0"}),
    ("derivations.m2z2", {"cmd": "derivations", "ring": M2Z2}),
    ("derivations.m2z2.jordan", {"cmd": "derivations", "ring": M2Z2, "jordan": True}),
    ("derivations.z4z4.jordan", {"cmd": "derivations", "ring": prod(zn(4), zn(4)),
                                 "jordan": True}),
    ("verify.m2z2.enumerate.text", {"cmd": "verify", "ring": M2Z2, "map": "enumerate",
                                    "checkers": "all", "format": "text"}),
    ("verify.m2z2.inner", {"cmd": "verify", "ring": M2Z2, "map": "inner:E11",
                           "checkers": "all"}),
    ("verify.tp24.formal.text", {"cmd": "verify", "ring": TP24, "map": "formal",
                                 "checkers": "all", "format": "text"}),
    ("verify.tri2.inner.subset.text", {"cmd": "verify", "ring": TRI2, "map": "inner:A",
                                       "checkers": "combination-rules,power-rules",
                                       "format": "text"}),
    ("verify.m2z3.enumerate3.subset", {"cmd": "verify", "ring": M2Z3, "map": "enumerate#3",
                                       "checkers": "basic,kernel-scaling"}),
    ("verify.z16.jordan.text", {"cmd": "verify", "ring": zn(16), "map": "enumerate:jordan",
                                "checkers": "all", "format": "text"}),
    ("verify.tp34.formal.text", {"cmd": "verify", "ring": TP34, "map": "formal",
                                 "checkers": "all", "format": "text"}),
    ("search.non-proper.tri2", {"cmd": "search", "target": "non-proper", "rings": [TRI2]}),
]

HEAVY = [
    ("ring-info.z256", {"cmd": "ring-info", "ring": Z256}),
    ("ring-info.tp28.text", {"cmd": "ring-info", "ring": TP28, "format": "text"}),
    ("ring-info.z16z16.text", {"cmd": "ring-info", "ring": Z16Z16, "format": "text"}),
    ("integrate.tp28.formal", {"cmd": "integrate", "ring": TP28, "map": "formal",
                               "element": "X"}),
    ("integrate.tri3.inner", {"cmd": "integrate", "ring": TRI3, "map": "inner:A",
                              "element": "0"}),
    ("integrate.z256.enumerate0", {"cmd": "integrate", "ring": Z256, "map": "enumerate#0",
                                   "element": "0"}),
    ("integrate.tp28.table", {"cmd": "integrate", "ring": TP28,
                              "map": "table:tp28-formal.json", "element": "1"}),
    ("verify.z16z16.trivial.text", {"cmd": "verify", "ring": Z16Z16, "map": "trivial",
                                    "checkers": "basic", "format": "text"}),
    ("verify.tp28.formal.subset", {"cmd": "verify", "ring": TP28, "map": "formal",
                                   "checkers": "basic,coset-structure"}),
    ("verify.tri3.inner.text", {"cmd": "verify", "ring": TRI3, "map": "inner:A",
                                "checkers": "basic", "format": "text"}),
    ("verify.z256.trivial.subset", {"cmd": "verify", "ring": Z256, "map": "trivial",
                                    "checkers": "kernel-constants,coset-structure"}),
]

# ---------------------------------------------------------------------------
# Inputs: a tables spec and two map tables, written from their definitions
# (element orders as documented in ringlab.rings), not by ringlab.


def _gf16_spec() -> dict:
    """GF(16) = F2[x]/(x^4 + x + 1); element i holds the coefficient bits."""
    def mul(a, b):
        out = 0
        for bit in range(4):
            if b >> bit & 1:
                out ^= a << bit
        for bit in (6, 5, 4):
            if out >> bit & 1:
                out ^= 0b10011 << (bit - 4)
        return out
    return {"kind": "tables", "size": 16, "unity": 1,
            "add": [[a ^ b for b in range(16)] for a in range(16)],
            "mul": [[mul(a, b) for b in range(16)] for a in range(16)]}


def _m2z2_inner_table(a) -> list:
    """x -> x*a - a*x on M2(Z2); element index = entries, row-major, base 2."""
    def mat_of(i):
        return [[i >> 3 & 1, i >> 2 & 1], [i >> 1 & 1, i & 1]]

    def times(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(2)) % 2 for c in range(2)]
                for r in range(2)]

    am = mat_of(a)
    table = []
    for i in range(16):
        x = mat_of(i)
        xa, ax = times(x, am), times(am, x)
        d = [(xa[r][c] - ax[r][c]) % 2 for r in range(2) for c in range(2)]
        table.append(d[0] * 8 + d[1] * 4 + d[2] * 2 + d[3])
    return table


def _formal_table(p, m) -> list:
    """The formal derivative on Zp[X]/(X^m); index = coefficients, constant
    term most significant, base p."""
    table = []
    for i in range(p ** m):
        coeffs = [i // p ** (m - 1 - k) % p for k in range(m)]
        deriv = [(k + 1) * coeffs[k + 1] % p if k + 1 < m else 0 for k in range(m)]
        table.append(sum(c * p ** (m - 1 - k) for k, c in enumerate(deriv)))
    return table


def write_inputs(workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    files = {GF16: _gf16_spec(),
             "m2z2-inner-e12.json": _m2z2_inner_table(0b0100),
             "tp28-formal.json": _formal_table(2, 8)}
    for name, data in files.items():
        (workdir / name).write_text(json.dumps(data))


def _argv(req: dict, workdir: Path) -> list:
    def ring_arg(r):
        return json.dumps(r) if isinstance(r, dict) else str(workdir / r)

    argv = [req["cmd"]]
    if req["cmd"] == "search":
        argv += ["--target", req["target"]]
        for r in req.get("rings", []):
            argv += ["--ring", ring_arg(r)]
        if "zn" in req:
            argv += ["--zn", req["zn"]]
    else:
        argv += ["--ring", ring_arg(req["ring"])]
    if req.get("jordan"):
        argv.append("--jordan")
    if "map" in req:
        desc = req["map"]
        if desc.startswith("table:"):
            desc = "table:" + str(workdir / desc[len("table:"):])
        argv += ["--map", desc]
    if "element" in req:
        argv += ["--element", req["element"]]
    if "checkers" in req:
        argv += ["--checkers", req["checkers"]]
    return argv + ["--format", req.get("format", "json")]


def make_ops(seed, workdir):
    write_inputs(workdir)
    rng = random.Random(seed)
    light = BRIEF * BRIEF_COPIES + LIGHT * LIGHT_COPIES
    heavy = HEAVY * HEAVY_COPIES
    rng.shuffle(light)
    rng.shuffle(heavy)
    stream = []
    step = len(light) / len(heavy)
    for b, h in enumerate(heavy):
        block = light[round(b * step):round((b + 1) * step)] + [h]
        rng.shuffle(block)
        stream += block
    return [Op(key, REQUEST_BUDGET_S, {"req": req, "argv": _argv(req, workdir),
                                       "workdir": workdir})
            for key, req in stream]


# ---------------------------------------------------------------------------
# Untraced: cli.main itself


def execute(op, tracer):
    if tracer is not None:
        return _replay(op.args["req"], op.args["workdir"], tracer)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(op.args["argv"])
    if code not in (0, 1, 2):
        raise BadExit(f"exit code {code}")
    return {"exit": code, "stdout": out.getvalue()}


# ---------------------------------------------------------------------------
# Traced: the handler's public calls, one span per call


_ENUM_RE = re.compile(r"^enumerate(:jordan)?(?:#(\d+))?$")


def _spec(ring_req, workdir):
    data = ring_req if isinstance(ring_req, dict) else json.loads((workdir / ring_req).read_text())
    return spec_from_json(data)


def _ring(ring_req, workdir, tracer):
    return layers.build(_spec(ring_req, workdir), tracer)


def _resolve(ring, desc, workdir, tracer):
    got = _ENUM_RE.match(desc)
    if got:
        jordan = got.group(1) is not None
        found = layers.enumerate_maps(ring, "jordan" if jordan else "derivation", tracer)
        base = "enumerate:jordan" if jordan else "enumerate"
        named = [(f"{base}#{i}", m) for i, m in enumerate(found)]
        if got.group(2) is None:
            return named
        k = int(got.group(2))
        if k >= len(named):
            raise CliError(f"descriptor {desc!r} out of range")
        return [named[k]]
    with tracer.span("maps.validate"):
        if desc == "trivial":
            dmap = zero_map(ring)
        elif desc.startswith("inner:"):
            dmap = inner_derivation(ring, ring.parse(desc.split(":", 1)[1]))
        elif desc == "formal":
            dmap = formal_derivative(ring)
        elif desc.startswith("table:"):
            data = json.loads((workdir / desc.split(":", 1)[1]).read_text())
            dmap = AdditiveMap.from_table(ring, data)
            dmap.is_derivation or dmap.is_jordan      # the handler's law test
        else:
            raise CliError(f"unknown map descriptor {desc!r}")
    return [(desc, dmap)]


def _ring_info(req, workdir, tracer):
    ring = _ring(req["ring"], workdir, tracer)
    with tracer.span("rings.describe"):
        return 0, ring.describe()


def _derivations(req, workdir, tracer):
    ring = _ring(req["ring"], workdir, tracer)
    law = "jordan" if req.get("jordan") else "derivation"
    maps = layers.enumerate_maps(ring, law, tracer)
    base = "enumerate:jordan" if req.get("jordan") else "enumerate"
    with tracer.span("maps.describe"):
        described = [dict(desc=f"{base}#{i}", **m.describe()) for i, m in enumerate(maps)]
    return 0, {"ring": spec_to_json(ring.spec), "law": law, "count": len(maps),
               "maps": described}


def _integrate(req, workdir, tracer):
    ring = _ring(req["ring"], workdir, tracer)
    named = _resolve(ring, req["map"], workdir, tracer)
    if len(named) != 1:
        raise CliError("descriptor resolves to several maps")
    desc, dmap = named[0]
    x = ring.parse(req["element"])
    if dmap.is_derivation:
        law = "derivation"
    elif dmap.is_jordan:
        law = "jordan"
    else:
        raise CliError("map satisfies neither law")
    result = layers.integral(ring, dmap, x, law, tracer)
    return 0, {"ring": spec_to_json(ring.spec), "map": desc, "law": law, "element": x,
               "element_label": ring.label(x),
               "integral": result.to_json(materialize=True)}


def _verify(req, workdir, tracer):
    ring = _ring(req["ring"], workdir, tracer)
    named = _resolve(ring, req["map"], workdir, tracer)
    checkers = req.get("checkers", "all")
    if checkers != "all":
        checkers = [c.strip() for c in checkers.split(",") if c.strip()]
        if any(c not in CHECKER_ORDER for c in checkers):
            raise CliError("unknown checker ids")
    reports = layers.run_suite_all(ring, named, checkers, CheckerConfig(), JOBS, tracer)
    groups = []
    for r in reports:
        if groups and groups[-1]["map"] == r.map_desc:
            groups[-1]["reports"].append(r.to_json())
        else:
            groups.append({"map": r.map_desc, "reports": [r.to_json()]})
    status = suite_status(reports)
    return (0 if status == "pass" else 1), {"ring": spec_to_json(ring.spec),
                                            "results": groups, "status": status}


def _search_ring(ring, target, tracer):
    if target == "jordan-not-derivation":
        with tracer.span("theorems.search"):
            witness = find_jordan_not_derivation(ring)
        if witness is None:
            return None
        with tracer.span("maps.validate"):
            check_derivation(ring, witness.table)
        return {"ring": spec_to_json(ring.spec),
                "map_table": [int(v) for v in witness.table]}
    for i, dmap in enumerate(layers.enumerate_maps(ring, "derivation", tracer)):
        if not layers.proper(ring, dmap, tracer)[0]:
            return {"ring": spec_to_json(ring.spec), "map": f"enumerate#{i}",
                    "map_table": [int(v) for v in dmap.table]}
    return None


def _search(req, workdir, tracer):
    specs = [_spec(r, workdir) for r in req.get("rings", [])]
    if "zn" in req:
        lo, hi = (int(v) for v in req["zn"].split(".."))
        specs += [Zn(n) for n in range(lo, hi + 1)]
    searched, found = [], None
    for spec in specs:
        ring = layers.build(spec, tracer)
        searched.append(spec_to_json(ring.spec))
        found = _search_ring(ring, req["target"], tracer)
        if found:
            break
    payload = {"target": req["target"], "rings_searched": searched, "found": found}
    return (1 if found is None else 0), payload


_HANDLERS = {"ring-info": _ring_info, "derivations": _derivations,
             "integrate": _integrate, "verify": _verify, "search": _search}


def _replay(req, workdir, tracer):
    with tracer.span("cli.request"):
        try:
            code, payload = _HANDLERS[req["cmd"]](req, workdir, tracer)
        except (CliError, RingError, OSError):
            return {"exit": 2}
        if req.get("format", "json") == "json":
            with tracer.span("cli.render"):
                json.dumps(payload, indent=2)
    return {"exit": code, "payload": payload}


# ---------------------------------------------------------------------------
# Verdicts


_REPORT_LINE = re.compile(r"^  \[(pass|FAIL|skip)\] (\S+)\s*(?:instances=(\d+))?")
_TAG_STATUS = {"pass": "pass", "FAIL": "fail", "skip": "skipped"}


def _payload_verdict(cmd, p):
    if cmd == "ring-info":
        return {"size": p["size"], "commutative": p["commutative"], "prime": p["prime"]}
    if cmd == "derivations":
        return {"count": p["count"], "digest": tables_digest(m["table"] for m in p["maps"])}
    if cmd == "integrate":
        return {"law": p["law"], "integral": p["integral"].get("elements", [])}
    if cmd == "verify":
        return {"status": p["status"],
                "reports": [[g["map"], r["checker"], r["status"],
                             None if r["status"] == "skipped" else r["instances"]]
                            for g in p["results"] for r in g["reports"]]}
    found = p["found"]
    return {"found": None if found is None else {"ring": found["ring"],
                                                 "map_table": found["map_table"]}}


def _text_verdict(cmd, text):
    lines = text.splitlines()
    if cmd == "ring-info":
        fields = dict(line.split(": ", 1) for line in lines if ": " in line)
        return {"size": int(fields["size"]), "commutative": fields["commutative"] == "yes",
                "prime": fields["prime"] == "yes"}
    reports, desc, status = [], None, None
    for line in lines:
        got = _REPORT_LINE.match(line)
        if got:
            tag, checker, instances = got.groups()
            st = _TAG_STATUS[tag]
            reports.append([desc, checker, st, None if st == "skipped" else int(instances)])
        elif line.startswith("map: "):
            desc = line[len("map: "):]
        elif line == "ring-level:":
            desc = None
        elif line.startswith("status: "):
            status = line[len("status: "):]
    return {"status": status, "reports": reports}


def verdict(op, raw):
    """Exit code plus verdict-level fields; ``output_bytes`` is not pinned."""
    req = op.args["req"]
    out = {"exit": raw["exit"]}
    if raw["exit"] == 2:
        return out
    if "payload" in raw:
        out.update(_payload_verdict(req["cmd"], raw["payload"]))
        return out
    if req.get("format", "json") == "json":
        out.update(_payload_verdict(req["cmd"], json.loads(raw["stdout"])))
    else:
        out.update(_text_verdict(req["cmd"], raw["stdout"]))
    out["output_bytes"] = len(raw["stdout"].encode())
    return out


def layer_counts(outcomes) -> dict:
    """cli.* counters, from the untraced requests (cli.main's own exits)."""
    counts = {"cli.requests": len(outcomes), "cli.exit.0": 0, "cli.exit.1": 0,
              "cli.exit.2": 0, "cli.output_bytes": 0,
              "cli.exit.crash": sum(o.failure == "exception" for o in outcomes)}
    for o in outcomes:
        if o.verdict is not None:
            counts[f"cli.exit.{o.verdict['exit']}"] += 1
            counts["cli.output_bytes"] += o.verdict.get("output_bytes", 0)
    return counts
