"""scripts/find_witnesses.py runs to the end and prints its three blocks."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "find_witnesses.py"


def test_find_witnesses_prints_its_three_blocks():
    got = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    headers = [line for line in got.stdout.splitlines() if line.startswith("== ")]
    assert headers == [
        "== Jordan map separated from every derivation ==",
        "== product integrable while both parts are not ==",
        "== triangular-pattern image, char 2 vs char 3 ==",
    ]
    first = got.stdout.split("\n\n")[0].splitlines()
    assert first[1].startswith("ring Z2: ")
    assert first[2].startswith("  separates at x=0: ")
