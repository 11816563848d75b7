"""Fuzz the command line with drawn ring specs and element texts.

Every input must end in exit 0, 1 or 2, never in an escaped exception.
Specs cover every kind, nested bases, malformed ``tables`` and odd JSON
values; the draw is derandomized, so a failure reproduces anywhere.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings, strategies as st

from ringlab.cli import main

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


def _run(argv: list[str]) -> int:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    return code


@given(spec=specs, element=element_texts)
@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_is_total(spec, element):
    ring = json.dumps(spec)
    if _run(["ring-info", "--ring", ring]) == 0:
        _run(["integrate", "--ring", ring, "--map", "trivial",
              "--element", element])
