"""The corpus report is pinned byte for byte, apart from runtime.

A change that keeps every verdict, count and witness of
scripts/run_corpus.py keeps this digest.  A change that alters the report
on purpose must say so and record the new digest.  The report must not
change under python -O either: no assert may decide anything in it.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_corpus.py"

SEED0_DIGEST = "555d02bcd5ffc7d6a2c27556619fcfb169a6d9ad10516c39b1d2d0a1e1f5c447"


def _strip(value):
    """The report with every runtime key dropped, key order kept."""
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "runtime"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_seed0_corpus_report_digest(tmp_path, flags):
    out = tmp_path / "corpus.json"
    subprocess.run([sys.executable, *flags, str(SCRIPT), "--out", str(out)],
                   check=True, capture_output=True, timeout=600)
    report = _strip(json.loads(out.read_text()))
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    assert digest == SEED0_DIGEST
