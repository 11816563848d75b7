from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from ringlab import theorems
from ringlab.cli import main
from ringlab.theorems import TheoremReport


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
                             [{"kind": "forced"}], None, 0.0)

    monkeypatch.setitem(theorems._DERIVATION_CHECKERS, "basic", failing)
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "basic"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] basic" in out
    assert "status: fail" in out


def test_verify_max_n_flag(zn4_file, capsys):
    assert main(["verify", "--ring", zn4_file, "--map", "trivial",
                 "--checkers", "kernel-constants,power-rules",
                 "--max-n", "4"]) == 0
    # a negative window would make kernel-constants and power-rules pass
    # with no instances
    capsys.readouterr()
    assert main(["verify", "--ring", '{"kind":"zn","n":6}', "--map", "trivial",
                 "--max-n", "-1"]) == 2
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
    capsys.readouterr()


def test_table_descriptor_rejects_non_additive(zn4_file, tmp_path, capsys):
    table = _spec_file(tmp_path, "bad_map.json", [0, 1, 0, 1])
    code = main(["integrate", "--ring", zn4_file, "--map", f"table:{table}",
                 "--element", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_out_flag_writes_file(zn4_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["ring-info", "--ring", zn4_file, "--format", "json",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_path.read_text())["size"] == 4


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


def test_search_unknown_target(zn4_file, capsys):
    assert main(["search", "--target", "bogus", "--ring", zn4_file]) == 2
    capsys.readouterr()


def test_verify_json_deterministic(zn4_file, tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        assert main(["verify", "--ring", zn4_file, "--map", "enumerate:jordan",
                     "--checkers", "all", "--format", "json", "--seed", "3",
                     "--out", str(path)]) == 0

    def normalize(text):
        return re.sub(r'"runtime": [0-9.e+-]+', '"runtime": 0', text)

    assert normalize(first.read_text()) == normalize(second.read_text())
    capsys.readouterr()
