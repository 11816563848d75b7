"""Fuzz the command line with drawn ring specs, element texts, map
descriptors and checker subsets.

Every input must end in exit 0, 1 or 2, never in an escaped exception.
Specs cover every kind, nested bases, nesting depths on both sides of
the bound, malformed ``tables`` and odd JSON values; a spec that holds
anything but a JSON integer where an integer belongs must exit 2.  The
draw is derandomized, so a failure reproduces anywhere.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from ringlab.cli import main
from ringlab.theorems import CHECKER_ORDER

# Values a JSON spec may hold where an integer belongs.  The huge ones
# must be refused before anything of their size is computed.
ODD_VALUES = [1.5, True, "3", "x", None, [], {}, float("inf"), float("nan"),
              10 ** 30, -(10 ** 30), 10 ** 9]


def _number(lo: int, hi: int):
    return st.one_of(st.integers(lo, hi), st.sampled_from(ODD_VALUES))


@st.composite
def _tables(draw):
    """Tables of Z_k, left whole or broken in one way, with any unity."""
    k = draw(st.integers(1, 4))
    add = [[(x + y) % k for y in range(k)] for x in range(k)]
    mul = [[(x * y) % k for y in range(k)] for x in range(k)]
    table = draw(st.sampled_from([add, mul]))
    flaw = draw(st.sampled_from(["none", "ragged", "out-of-range", "negative",
                                 "non-square", "no-identity", "odd-entry",
                                 "wrong-size"]))
    x, y = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    if flaw == "ragged":
        table[x] = table[x][:-1] or [0, 0]
    elif flaw == "out-of-range":
        table[x][y] = k + draw(st.integers(0, 3))
    elif flaw == "negative":
        table[x][y] = -draw(st.integers(1, k))
    elif flaw == "non-square":
        del table[x]
    elif flaw == "no-identity":
        table[:] = [[1 % k] * k for _ in range(k)]
    elif flaw == "odd-entry":
        table[x][y] = draw(st.sampled_from(ODD_VALUES))
    spec = {"kind": "tables", "add": add, "mul": mul,
            "size": k + (flaw == "wrong-size")}
    if draw(st.booleans()):
        spec["unity"] = draw(_number(-2, 5))
    return spec


_leaves = st.one_of(
    st.fixed_dictionaries({"kind": st.just("zn"), "n": _number(-2, 20)}),
    st.fixed_dictionaries({"kind": st.just("trunc_poly"), "p": _number(-1, 7),
                           "m": _number(-1, 4)}),
    _tables(),
    st.sampled_from([{}, {"kind": "bogus"}, {"kind": "zn"}, [], "zn"]),
)

specs = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.fixed_dictionaries({"kind": st.just("matrix"), "base": inner,
                               "dim": _number(-1, 3)}),
        st.fixed_dictionaries({"kind": st.just("tri_pattern"), "base": inner}),
        st.fixed_dictionaries({"kind": st.just("product"),
                               "factors": st.lists(inner, max_size=3)}),
    ),
    max_leaves=4,
)

element_texts = st.one_of(
    st.text(alphabet="0123456789X^+-*[](), E1A", max_size=12),
    st.integers(0, 300).map(str),
    st.just("1" * 5000),        # int() refuses strings of over 4300 digits
)


def _holds_non_integer(spec) -> bool:
    """True when an integer field or table entry of spec, at any depth,
    holds anything but a JSON integer (a bool included).  A null unity
    means no unity."""
    if not isinstance(spec, dict):
        return False
    fields = {"zn": ["n"], "trunc_poly": ["p", "m"], "matrix": ["dim"],
              "tables": ["size"]}.get(spec.get("kind"), [])
    values = [spec[f] for f in fields if f in spec]
    if spec.get("kind") == "tables":
        values += [v for t in ("add", "mul") for row in spec[t] for v in row]
        if spec.get("unity") is not None:
            values.append(spec["unity"])
    nested = [spec["base"]] if "base" in spec else spec.get("factors", [])
    return (any(type(v) is not int for v in values)
            or any(_holds_non_integer(s) for s in nested))


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:       # after any progress lines
        assert err.getvalue().splitlines()[-1].startswith("error: "), (argv, err.getvalue())
    return code, out.getvalue()


@given(spec=specs, element=element_texts)
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_is_total(spec, element):
    ring = json.dumps(spec)
    code, _ = _run(["ring-info", "--ring", ring])
    if _holds_non_integer(spec):
        assert code == 2, ring
    if code == 0:
        _run(["integrate", "--ring", ring, "--map", "trivial",
              "--element", element])


@given(kinds=st.lists(st.sampled_from(["matrix", "product"]), min_size=28, max_size=36))
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
def test_nesting_bound(kinds):
    """Z2 inside 1x1 matrix and one-factor product levels: up to 32 build."""
    spec = {"kind": "zn", "n": 2}
    for kind in kinds:
        spec = ({"kind": "matrix", "dim": 1, "base": spec} if kind == "matrix"
                else {"kind": "product", "factors": [spec]})
    code, _ = _run(["ring-info", "--ring", json.dumps(spec)])
    assert code == (0 if len(kinds) <= 32 else 2)


# (spec, size): each lists its Jordan derivations in well under 0.1 s;
# Z2[X]/(X^4) (65536 maps) and anything larger stay out, as Jordan
# listing is unbounded.
SMALL_RINGS = [
    ({"kind": "zn", "n": 4}, 4),
    ({"kind": "product", "factors": [{"kind": "zn", "n": 2}] * 2}, 4),
    ({"kind": "matrix", "dim": 2, "base": {"kind": "zn", "n": 2}}, 16),
    ({"kind": "trunc_poly", "p": 2, "m": 3}, 8),
    ({"kind": "tri_pattern", "base": {"kind": "zn", "n": 2}}, 32),
]

_maps = st.one_of(
    st.sampled_from(["trivial", "formal", "enumerate", "enumerate:jordan", "bogus"]),
    st.builds("enumerate{}#{}".format, st.sampled_from(["", ":jordan"]),
              st.integers(0, 40)),
    st.sampled_from(["1", "E12", "X", "1+X", "A", "(1,0)", "[[0,1],[0,0]]"])
    .map("inner:{}".format),
    element_texts.map("inner:{}".format),
    st.just("table:"),      # the test writes a drawn table file and appends its path
)


def _table_texts(n: int):
    """Map table files for a ring of n elements: the zero and identity
    maps, any table of length n, any length, odd entries, not a list, not
    JSON."""
    return st.one_of(
        st.sampled_from([[0] * n, list(range(n))]).map(json.dumps),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(json.dumps),
        st.lists(st.one_of(st.integers(-1, 32), st.sampled_from(ODD_VALUES)),
                 max_size=33).map(json.dumps),
        st.sampled_from(ODD_VALUES).map(json.dumps),
        st.just("[0, 1,"),
    )


_checkers = st.one_of(
    st.just("all"),
    st.lists(st.sampled_from(CHECKER_ORDER + ("bogus",)), min_size=1, max_size=3,
             unique=True).map(",".join),
)


def _without_runtime(text: str) -> str:
    """The JSON text with every ``runtime`` field dropped, key order kept."""
    def drop(value):
        if isinstance(value, dict):
            return {k: drop(v) for k, v in value.items() if k != "runtime"}
        if isinstance(value, list):
            return [drop(v) for v in value]
        return value
    return json.dumps(drop(json.loads(text)), indent=2)


@given(ring=st.sampled_from(SMALL_RINGS), desc=_maps, checkers=_checkers,
       seed=st.integers(-5, 2 ** 40), data=st.data())
@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_verify_is_total_and_seeded(ring, desc, checkers, seed, data,
                                    tmp_path_factory):
    """verify ends in exit 0, 1 or 2, and a rerun with the same seed gives
    the same JSON apart from runtime."""
    spec, size = ring
    if desc == "table:":
        path = tmp_path_factory.getbasetemp() / "fuzz_map_table.json"
        path.write_text(data.draw(_table_texts(size)))
        desc += str(path)
    argv = ["verify", "--ring", json.dumps(spec), "--map", desc,
            "--checkers", checkers, "--seed", str(seed), "--format", "json"]
    code, out = _run(argv)
    if code != 2:
        again, out_again = _run(argv)
        assert again == code
        assert _without_runtime(out) == _without_runtime(out_again)
