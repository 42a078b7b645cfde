"""A slice of the CLI goldens, each run in a fresh interpreter.

``test_golden.py`` calls ``cli.main`` in one process, where later cases reuse
the parser and the contexts' cached entry check. These cases run ``python -m
skewlab`` from nothing, so the first-use path is pinned byte for byte too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def _command(case):
    return " ".join(case["argv"]).replace("{config}", str(case["config"]))


CASES = {_command(c): c for c in GOLDEN["cli"] if not isinstance(c["config"], dict)}

PICKS = [
    "eval --config weyl.json X*Y - Y*X",
    "series --config rational_power_series.json 1 + X + O(X^4)",
    "check nucleus --config complex_sigma2_laurent.json --trials 20 --seed 0 --format text",
    "check map-claims --config quantum_torus.json --trials 20 --seed 0 --format json",
    "check division-roundtrip --config complex_sigma2_laurent.json"
    " --trials 20 --seed 0 --format text",
    "demo counterexample --trials 50 --format text",
]


@pytest.mark.parametrize("command", PICKS)
def test_fresh_process_matches_golden(command):
    case = CASES[command]
    config = str(ROOT / "configs" / str(case["config"]))
    argv = [config if a == "{config}" else a for a in case["argv"]]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewlab", *argv],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        case["exit"],
        case["stdout"].encode(),
        case["stderr"].encode(),
    )
