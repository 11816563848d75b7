from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from ringlab import AdditiveMap, Zn, build_ring, cli, theorems
from ringlab.cli import main
from ringlab.theorems import TheoremReport, verify_kernel_constants


def _spec_file(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def zn4_file(tmp_path):
    return _spec_file(tmp_path, "zn4.json", {"kind": "zn", "n": 4})


@pytest.fixture
def tp33_file(tmp_path):
    return _spec_file(tmp_path, "tp33.json", {"kind": "trunc_poly", "p": 3, "m": 3})


@pytest.fixture
def m2z2_file(tmp_path):
    return _spec_file(tmp_path, "m2z2.json",
                      {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "dim": 2})


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_ring_info_text(zn4_file, capsys):
    assert main(["ring-info", "--ring", zn4_file]) == 0
    out = capsys.readouterr().out
    assert "Z4" in out
    assert "size" in out


def test_ring_info_json(zn4_file, capsys):
    assert main(["ring-info", "--ring", zn4_file, "--format", "json"]) == 0
    info = _json_out(capsys)
    assert info["spec"] == {"kind": "zn", "n": 4}
    assert info["size"] == 4
    assert info["unity"] == 1
    assert info["commutative"] is True


def test_ring_info_inline_spec(capsys):
    assert main(["ring-info", "--ring", '{"kind": "zn", "n": 6}',
                 "--format", "json"]) == 0
    assert _json_out(capsys)["size"] == 6


def test_derivations(zn4_file, capsys):
    assert main(["derivations", "--ring", zn4_file, "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["count"] == 1
    assert payload["maps"][0]["table"] == [0, 0, 0, 0]


def test_derivations_jordan(zn4_file, capsys):
    assert main(["derivations", "--ring", zn4_file, "--jordan",
                 "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["count"] == 2
    assert payload["maps"][1]["desc"] == "enumerate:jordan#1"
    assert payload["maps"][1]["table"] == [0, 2, 0, 2]


def test_integrate_formal(tp33_file, capsys):
    assert main(["integrate", "--ring", tp33_file, "--map", "formal",
                 "--element", "1"]) == 0
    out = capsys.readouterr().out
    assert "i_d(1) = {X, 1+X, 2+X}" in out
    assert "representative X" in out


def test_integrate_empty(tp33_file, capsys):
    assert main(["integrate", "--ring", tp33_file, "--map", "formal",
                 "--element", "X^2", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["integral"] == {"status": "empty"}
    assert payload["element_label"] == "X^2"


def test_integrate_json_materializes(tp33_file, capsys):
    assert main(["integrate", "--ring", tp33_file, "--map", "formal",
                 "--element", "1", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["law"] == "derivation"
    assert payload["integral"]["elements"] == [3, 12, 21]
    assert payload["integral"]["labels"] == ["X", "1+X", "2+X"]


def test_integrate_jordan_table_map(zn4_file, tmp_path, capsys):
    table = _spec_file(tmp_path, "delta.json", [0, 2, 0, 2])
    assert main(["integrate", "--ring", zn4_file, "--map", f"table:{table}",
                 "--element", "2", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["law"] == "jordan"
    assert payload["integral"]["elements"] == [1, 3]


def test_integrate_labels_reparse(tp33_file, capsys, tp33):
    assert main(["integrate", "--ring", tp33_file, "--map", "formal",
                 "--element", "2", "--format", "json"]) == 0
    payload = _json_out(capsys)
    elements = payload["integral"]["elements"]
    labels = payload["integral"]["labels"]
    assert [tp33.parse(lab) for lab in labels] == elements


def test_verify_separation(zn4_file, capsys):
    assert main(["verify", "--ring", zn4_file, "--map", "enumerate:jordan",
                 "--checkers", "separation", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["status"] == "pass"
    by_map = {entry["map"]: entry["reports"] for entry in payload["results"]}
    assert by_map["enumerate:jordan#0"][0]["status"] == "skipped"
    assert by_map["enumerate:jordan#0"][0]["reason"] == "map is a derivation"
    assert by_map["enumerate:jordan#1"][0]["status"] == "pass"


def test_verify_matrix_all(m2z2_file, capsys):
    assert main(["verify", "--ring", m2z2_file, "--map", "inner:E11",
                 "--checkers", "all", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["status"] == "pass"
    reports = payload["results"][0]["reports"]
    by_checker = {r["checker"]: r for r in reports}
    assert by_checker["power-rules"]["status"] == "skipped"
    assert by_checker["power-rules"]["reason"] == "ring is not commutative"
    ring_level = payload["results"][-1]
    assert ring_level["map"] is None
    assert ring_level["reports"][0]["checker"] == "herstein"


def test_verify_text_output(zn4_file, capsys):
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "basic,coset-structure"]) == 0
    out = capsys.readouterr().out
    assert "[pass] basic" in out
    assert "status: pass" in out


def test_verify_exit_one_on_failure(zn4_file, monkeypatch, capsys):
    def failing(ring, amap, config):
        return TheoremReport("basic", "fail", None, 1,
                             [{"kind": "forced"}], 0.0)

    monkeypatch.setitem(theorems._DERIVATION_CHECKERS, "basic", failing)
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "basic"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] basic" in out
    assert "status: fail" in out


@pytest.mark.parametrize("selection", ["", ",", " , "])
def test_verify_refuses_an_empty_checker_selection(zn4_file, capsys, selection):
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", selection]) == 2
    captured = capsys.readouterr()
    assert "names no checker" in captured.err
    assert "status" not in captured.out


def test_verify_checks_checker_ids_before_listing_maps(monkeypatch, capsys):
    def unreachable(ring, progress=None):
        raise AssertionError("maps listed before the checker ids were checked")

    monkeypatch.setattr(cli, "enumerate_jordan_derivations", unreachable)
    assert main(["verify", "--ring", '{"kind":"trunc_poly","p":2,"m":4}',
                 "--map", "enumerate:jordan", "--checkers", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "error: unknown checker ids: bogus (valid: basic," in err


def test_failing_report_line_names_a_counterexample_first():
    """The identity map of Z4, forged as a derivation, fails
    kernel-constants; the range-capped note must not be shown as its
    first witness."""
    zn4 = build_ring(Zn(4))
    ident = AdditiveMap(zn4, range(4), _trusted=True, _derivation=True,
                        _jordan=True)
    line = cli._report_line(verify_kernel_constants(zn4, ident))
    assert "[FAIL] kernel-constants" in line
    assert "first={'kind': 'bold-not-in-kernel'" in line


def test_verify_max_n_flag(zn4_file, capsys):
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "kernel-constants,power-rules",
                 "--max-n", "4"]) == 0
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "kernel-constants,power-rules",
                 "--max-n", "1024"]) == 0
    capsys.readouterr()
    # a negative window would make kernel-constants and power-rules pass
    # with no instances; power-rules builds one column per exponent in
    # [-N, N], so an unbounded N would run for hours
    for bad in ("-1", "1025"):
        assert main(["verify", "--ring", '{"kind":"zn","n":6}', "--map", "trivial",
                     "--max-n", bad]) == 2
        captured = capsys.readouterr()
        assert "--max-n" in captured.err
        assert captured.out == ""


def test_derivations_too_many_to_list(tmp_path, capsys):
    """The zero-multiplication ring on F2^5 has all 2^25 additive maps as
    derivations: the count is refused before anything is listed."""
    n = 32
    spec = {"kind": "tables", "size": n,
            "add": [[x ^ y for y in range(n)] for x in range(n)],
            "mul": [[0] * n for _ in range(n)]}
    path = _spec_file(tmp_path, "zero32.json", spec)
    assert main(["derivations", "--ring", path]) == 2
    captured = capsys.readouterr()
    assert str(2 ** 25) in captured.err
    assert captured.out == ""
    assert main(["verify", "--ring", path, "--map", "enumerate#0",
                 "--checkers", "basic"]) == 2


@pytest.mark.parametrize("bits", [7, 8])
def test_derivation_count_beyond_int64_is_refused(tmp_path, capsys, bits):
    """The zero rings on F2^7 and F2^8 have 2^49 and 2^64 derivations; the
    count must not wrap in int64 on the way to the refusal."""
    n = 2 ** bits
    spec = {"kind": "tables", "size": n,
            "add": [[x ^ y for y in range(n)] for x in range(n)],
            "mul": [[0] * n for _ in range(n)]}
    path = _spec_file(tmp_path, f"zero{n}.json", spec)
    assert main(["derivations", "--ring", path]) == 2
    captured = capsys.readouterr()
    assert str(2 ** (bits * bits)) in captured.err
    assert captured.out == ""


def test_nested_tables_base_without_zero_is_refused(capsys):
    spec = {"kind": "matrix", "dim": 1,
            "base": {"kind": "tables", "size": 2, "add": [[1, 1], [1, 1]],
                     "mul": [[0, 0], [0, 0]]}}
    assert main(["ring-info", "--ring", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert "identity" in captured.err
    assert captured.out == ""


def _tables2(mul, **extra):
    return {"kind": "tables", "size": 2, "add": [[0, 1], [1, 0]], "mul": mul, **extra}


def _nested(levels: int) -> dict:
    """levels of 1x1 matrix specs around Z2."""
    spec = {"kind": "zn", "n": 2}
    for _ in range(levels):
        spec = {"kind": "matrix", "dim": 1, "base": spec}
    return spec


@pytest.mark.parametrize("spec", [
    {"kind": "tables", "size": 2, "add": [[0, 1], [1]], "mul": [[0, 0], [0, 0]]},
    _tables2([[0, 0], [0, 0]], unity=5),
    {"kind": "matrix", "dim": 2, "base": _tables2([[0, 0], [0, 7]])},
    {"kind": "matrix", "dim": 2, "base": _tables2([[0, 0], [0, -1]])},
    {"kind": "tri_pattern", "base": _tables2([[0, 0], [0, -1]])},
    {"kind": "product", "factors": [_tables2([[0, 0]])]},
    {"kind": "product", "factors": [_tables2([[0, 0], [0, 2 ** 40]])]},
    '{"kind": "zn", "n": 1e400}',
    {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "dim": 1e9},
    {"kind": "trunc_poly", "p": 2, "m": 100000000000},
    {"kind": "trunc_poly", "p": 2 ** 61 - 1, "m": 0},
    {"kind": "matrix", "base": {"kind": "zn", "n": 10 ** 9}, "dim": 0},
    {"kind": "matrix", "base": {"kind": "zn", "n": 1}, "dim": 8},
    {"kind": "matrix", "base": {"kind": "zn", "n": 1}, "dim": 100000},
    {"kind": "product", "factors": [{"kind": "zn", "n": 1}] * 64},
    {"kind": "zn", "n": 4.7},
    {"kind": "zn", "n": "4"},
    {"kind": "zn", "n": True},
    {"kind": "trunc_poly", "p": 2.9, "m": "3"},
    {**_tables2([[0, 0], [0, 1]]), "size": 2.0},
    _tables2([[0, 0], [0, 1.0]]),
    _tables2([[0, 0], [0, 1]], unity="1"),
    {"kind": "matrix", "dim": True, "base": {"kind": "zn", "n": 3}},
    _nested(33),
    _nested(600),
    '{"kind": "tri_pattern", "base": ' * 5000 + '{"kind": "zn", "n": 2}' + "}" * 5000,
], ids=["ragged", "unity-out-of-range", "nested-out-of-range", "nested-negative",
        "tri-negative", "product-non-square", "beyond-int32", "zn-1e400",
        "matrix-dim-1e9", "trunc-poly-m-1e11", "trunc-poly-prime-p-m-0",
        "matrix-dim-0-over-z1e9", "matrix-over-z1-dim-8",
        "matrix-over-z1-dim-100000", "product-of-64", "zn-float", "zn-string",
        "zn-bool", "trunc-poly-float-and-string", "tables-float-size",
        "tables-float-entry", "tables-string-unity", "matrix-bool-dim",
        "nested-33", "nested-600", "json-nested-5000"])
def test_malformed_spec_is_refused(spec, capsys):
    """Each spec once crashed the CLI, was accepted (the float, string and
    bool fields were coerced by int()), or never ended."""
    text = spec if isinstance(spec, str) else json.dumps(spec)
    assert main(["ring-info", "--ring", text]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_nesting_up_to_the_bound_builds(capsys):
    assert main(["ring-info", "--ring", json.dumps(_nested(32))]) == 0
    assert capsys.readouterr().out.startswith("name: " + "M1(" * 32 + "Z2")


def test_out_of_range_table_entry_names_plain_indices(capsys):
    spec = {"kind": "tables", "size": 2, "add": [[0, 1], [1, 0]],
            "mul": [[0, 0], [0, 5]]}
    assert main(["ring-info", "--ring", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: multiplication table entry out of range "
                            "at (1, 1)\n")
    assert captured.out == ""


def test_enumerate_index_selection(zn4_file, capsys):
    assert main(["verify", "--ring", zn4_file, "--map", "enumerate:jordan#1",
                 "--checkers", "separation", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert len(payload["results"]) == 1
    assert payload["results"][0]["map"] == "enumerate:jordan#1"


def test_formal_map_not_a_derivation_under_optimize():
    """Z3[X]/(X^4) has no formal derivation (3 does not divide 4).  The
    refusal must not rest on an assert, which python -O strips."""
    argv = ["verify", "--ring", '{"kind":"trunc_poly","p":3,"m":4}',
            "--map", "formal"]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys; from ringlab.cli import main; sys.exit(main({argv!r}))"
    got = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 2, got.stderr
    assert "Leibniz" in got.stderr
    assert "Traceback" not in got.stderr


def test_usage_errors(zn4_file, tmp_path, capsys):
    assert main([]) == 2
    assert main(["bogus-command"]) == 2
    assert main(["ring-info"]) == 2                                  # no --ring
    assert main(["ring-info", "--ring", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ring-info", "--ring", str(bad)]) == 2
    assert main(["integrate", "--ring", zn4_file, "--map", "nonsense",
                 "--element", "0"]) == 2
    assert main(["integrate", "--ring", zn4_file, "--map", "trivial",
                 "--element", "9"]) == 2
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "bogus"]) == 2
    assert main(["verify", "--ring", zn4_file, "--map", "enumerate#7",
                 "--checkers", "basic"]) == 2
    assert main(["search", "--target", "non-proper"]) == 2           # no rings
    digits = "1" * 5000     # int() refuses strings of over 4300 digits
    assert main(["integrate", "--ring", zn4_file, "--map", "trivial",
                 "--element", digits]) == 2
    assert main(["integrate", "--ring", '{"kind":"trunc_poly","p":2,"m":2}',
                 "--map", "trivial", "--element", f"X^{digits}"]) == 2
    assert main(["ring-info", "--ring", f'{{"kind":"zn","n":{digits}}}']) == 2
    assert main(["verify", "--ring", zn4_file, "--map", f"enumerate#{digits}"]) == 2
    assert main(["search", "--target", "non-proper", "--zn", f"2..{digits}"]) == 2
    capsys.readouterr()


def test_table_descriptor_rejects_non_additive(zn4_file, tmp_path, capsys):
    table = _spec_file(tmp_path, "bad_map.json", [0, 1, 0, 1])
    code = main(["integrate", "--ring", zn4_file, "--map", f"table:{table}",
                 "--element", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("table", [[0, 1.5, 2, 3], ["0", "1", "2", "3"],
                                   [0, True, 2, 3], {"a": 1}],
                         ids=["float", "strings", "boolean", "object"])
def test_table_descriptor_rejects_non_integer_tables(zn4_file, tmp_path, capsys,
                                                     table):
    path = _spec_file(tmp_path, "map.json", table)
    assert main(["verify", "--ring", zn4_file, "--map", f"table:{path}"]) == 2
    assert "must be a JSON list of element indices" in capsys.readouterr().err


@pytest.mark.parametrize("literal, message", [
    ("[[1,0],[0,1]", "unbalanced brackets"),
    ("[[1,0]]", "expected 2 rows"),
    ("[[1, 0], [0, 2]]", "index 2 out of range"),
])
def test_integrate_refuses_a_bad_element_literal(m2z2_file, capsys, literal, message):
    assert main(["integrate", "--ring", m2z2_file, "--map", "trivial",
                 "--element", literal]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_out_flag_writes_file(zn4_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["ring-info", "--ring", zn4_file, "--format", "json",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text())["size"] == 4


@pytest.mark.parametrize("where", ["missing-dir", "directory", "nul-byte"])
def test_out_flag_unwritable_path_is_an_error(tmp_path, capsys, where):
    out = {"missing-dir": str(tmp_path / "missing" / "x"), "directory": str(tmp_path),
           "nul-byte": str(tmp_path / "a\0b")}[where]
    assert main(["ring-info", "--ring", '{"kind":"zn","n":2}', "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out")
    assert captured.out == ""


def test_search_jordan_not_derivation(capsys):
    assert main(["search", "--target", "jordan-not-derivation",
                 "--zn", "2..6", "--format", "json"]) == 0
    payload = _json_out(capsys)
    assert payload["found"] is not None
    assert payload["found"]["ring"] == {"kind": "zn", "n": 2}
    assert payload["found"]["map_table"] == [0, 1]


def test_search_miss_exits_one(capsys):
    assert main(["search", "--target", "non-proper", "--zn", "2..8",
                 "--format", "json"]) == 1
    payload = _json_out(capsys)
    assert payload["found"] is None
    assert len(payload["rings_searched"]) == 7


def test_search_non_proper_matrix(m2z2_file, capsys, m2z2):
    assert main(["search", "--target", "non-proper", "--ring", m2z2_file,
                 "--format", "json"]) == 0
    payload = _json_out(capsys)
    witness = payload["found"]["witness"]
    table = payload["found"]["map_table"]
    image = set(table)
    assert witness["u"] in image and witness["v"] in image
    assert m2z2.mul(witness["u"], witness["v"]) == witness["uv"]
    assert witness["uv"] not in image


def test_search_empty_parts_witness(m2z2_file, capsys, m2z2):
    assert main(["search", "--target", "empty-parts-witness",
                 "--ring", m2z2_file, "--format", "json"]) == 0
    payload = _json_out(capsys)
    found = payload["found"]
    table = found["map_table"]
    image = set(table)
    assert found["witness"]["dx_times_y"] not in image
    assert found["witness"]["x_times_dy"] not in image


M2Z2 = {"kind": "matrix", "base": {"kind": "zn", "n": 2}, "dim": 2}
TRI_Z2 = {"kind": "tri_pattern", "base": {"kind": "zn", "n": 2}}
M2Z2_D1 = [0, 0, 2, 2, 4, 4, 6, 6] * 2
TRI_Z2_D2 = ([0, 0, 2, 2] * 2 + [8, 8, 10, 10] * 2) * 2

# Each search's full output: the ring list, the "found" block with its map
# index, witness labels and key order, and the text lines.
SEARCH_BYTES = {
    "non-proper-m2z2": (
        ["--target", "non-proper", "--ring", json.dumps(M2Z2)], M2Z2,
        {"ring": M2Z2, "map": "enumerate#1", "map_table": M2Z2_D1,
         "witness": {"u": 2, "v": 4, "uv": 1, "u_label": "[[0,0],[1,0]]",
                     "v_label": "[[0,1],[0,0]]", "uv_label": "[[0,0],[0,1]]"}},
        "target non-proper: found in ring M2(Z2)\n"
        "  map: enumerate#1\n"
        f"  map_table: {M2Z2_D1}\n"
        "  witness: {'u': 2, 'v': 4, 'uv': 1, 'u_label': '[[0,0],[1,0]]', "
        "'v_label': '[[0,1],[0,0]]', 'uv_label': '[[0,0],[0,1]]'}\n"),
    "non-proper-tri-z2": (
        ["--target", "non-proper", "--ring", json.dumps(TRI_Z2)], TRI_Z2,
        {"ring": TRI_Z2, "map": "enumerate#2", "map_table": TRI_Z2_D2,
         "witness": {"u": 8, "v": 2, "uv": 4,
                     "u_label": "[[0,1,0],[0,0,0],[0,0,0]]",
                     "v_label": "[[0,0,0],[0,0,1],[0,0,0]]",
                     "uv_label": "[[0,0,1],[0,0,0],[0,0,0]]"}},
        "target non-proper: found in ring Tri(Z2)\n"
        "  map: enumerate#2\n"
        f"  map_table: {TRI_Z2_D2}\n"
        "  witness: {'u': 8, 'v': 2, 'uv': 4, "
        "'u_label': '[[0,1,0],[0,0,0],[0,0,0]]', "
        "'v_label': '[[0,0,0],[0,0,1],[0,0,0]]', "
        "'uv_label': '[[0,0,1],[0,0,0],[0,0,0]]'}\n"),
    "empty-parts-m2z2": (
        ["--target", "empty-parts-witness", "--ring", json.dumps(M2Z2)], M2Z2,
        {"ring": M2Z2, "map": "enumerate#1", "map_table": M2Z2_D1,
         "witness": {"x": 2, "y": 4, "x_label": "[[0,0],[1,0]]",
                     "y_label": "[[0,1],[0,0]]", "dx_times_y": 1,
                     "x_times_dy": 1}},
        "target empty-parts-witness: found in ring M2(Z2)\n"
        "  map: enumerate#1\n"
        f"  map_table: {M2Z2_D1}\n"
        "  witness: {'x': 2, 'y': 4, 'x_label': '[[0,0],[1,0]]', "
        "'y_label': '[[0,1],[0,0]]', 'dx_times_y': 1, 'x_times_dy': 1}\n"),
    "empty-parts-tri-z2": (
        ["--target", "empty-parts-witness", "--ring", json.dumps(TRI_Z2)], TRI_Z2,
        {"ring": TRI_Z2, "map": "enumerate#2", "map_table": TRI_Z2_D2,
         "witness": {"x": 8, "y": 2, "x_label": "[[0,1,0],[0,0,0],[0,0,0]]",
                     "y_label": "[[0,0,0],[0,0,1],[0,0,0]]", "dx_times_y": 4,
                     "x_times_dy": 4}},
        "target empty-parts-witness: found in ring Tri(Z2)\n"
        "  map: enumerate#2\n"
        f"  map_table: {TRI_Z2_D2}\n"
        "  witness: {'x': 8, 'y': 2, 'x_label': '[[0,1,0],[0,0,0],[0,0,0]]', "
        "'y_label': '[[0,0,0],[0,0,1],[0,0,0]]', 'dx_times_y': 4, "
        "'x_times_dy': 4}\n"),
    "jordan-not-derivation-zn": (
        ["--target", "jordan-not-derivation", "--zn", "2..6"], {"kind": "zn", "n": 2},
        {"ring": {"kind": "zn", "n": 2}, "map_table": [0, 1],
         "leibniz_failure_at": [1, 1]},
        "target jordan-not-derivation: found in ring Z2\n"
        "  map_table: [0, 1]\n"
        "  leibniz_failure_at: [1, 1]\n"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_BYTES))
def test_search_output_is_pinned(capsys, case):
    argv, ring, found, text = SEARCH_BYTES[case]
    target = argv[1]
    assert main(["search", *argv, "--format", "json"]) == 0
    payload = {"target": target, "rings_searched": [ring], "found": found}
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
    assert main(["search", *argv]) == 0
    assert capsys.readouterr().out == text


def test_zn_range_is_lazy():
    assert isinstance(cli._zn_range("2..5"), range)
    assert list(cli._zn_range("2..5")) == [2, 3, 4, 5]


def test_search_zn_hit_below_the_ceiling_ends_a_huge_range(capsys):
    assert main(["search", "--target", "jordan-not-derivation",
                 "--zn", "2..999999999", "--format", "json"]) == 0
    assert _json_out(capsys)["found"]["ring"] == {"kind": "zn", "n": 2}


def test_search_zn_stops_at_the_first_ring_over_the_ceiling(capsys, monkeypatch):
    monkeypatch.delenv("RINGLAB_MAX_SIZE", raising=False)
    assert main(["search", "--target", "non-proper", "--zn", "250..300"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(
        "error: ring of 257 elements exceeds the ceiling 256")
    assert captured.out == ""


def test_search_unknown_target(zn4_file, capsys):
    assert main(["search", "--target", "bogus", "--ring", zn4_file]) == 2
    capsys.readouterr()


def test_verify_json_deterministic(zn4_file, tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        assert main(["verify", "--ring", zn4_file, "--map", "enumerate:jordan",
                     "--checkers", "all", "--format", "json",
                     "--out", str(path)]) == 0

    def normalize(text):
        return re.sub(r'"runtime": [0-9.e+-]+', '"runtime": 0', text)

    assert normalize(first.read_text()) == normalize(second.read_text())
    capsys.readouterr()
