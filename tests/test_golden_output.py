"""Byte-for-byte output of pinned CLI runs and of the demos.

The recorded files under tests/data/ are the stdout of each run; a change
that alters any byte of the --format json output or of a demo fails here.
Each run is a fresh interpreter with src/ first on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

# recorded stdout file -> (argv, exit code); --format json is appended
CLI_RUNS = {
    "analyze_cubic_q7": (["analyze", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"], 0),
    "hexact_pure_q7": (["hexact", "--pure-B", "x^5+x+1", "--q", "7"], 0),
    "hexact_pure_q11": (["hexact", "--pure-B", "x^5+x+1", "--q", "11"], 0),
    "hbound_pure_q11_lambda4": (["hbound", "--pure-B", "x^5+x+1", "--q", "11", "--lambda", "4"], 0),
    "hexact_cubic_q13": (["hexact", "--cubic", "--q", "13", "--A", "x^2+1", "--B", "x^4+x+2"], 0),
    "places_quartic_q7_deg3": (
        ["places", "--quartic", "--q", "7", "--A", "x", "--B", "x^2+1", "--C", "x^3+2", "--max-deg", "3"],
        4,
    ),
    "basis_cubic_q7": (["basis", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"], 0),
    "units_thm245_q7": (["units", "--q", "7", "--A", "x^3", "--a", "x", "--construct", "thm245"], 0),
    "certify_pure_q7": (["certify", "--pure-B", "x^2+x", "--q", "7"], 0),
    "search_divisor_pure_q7": (
        ["search-divisor", "--pure-B", "x^2+x", "--q", "7", "--p", "3", "--budget", "1"],
        0,
    ),
}

DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=ROOT)


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_json_output_unchanged(name):
    argv, exit_code = CLI_RUNS[name]
    res = _run(["-m", "funcfields.cli", *argv, "--format", "json"])
    assert res.returncode == exit_code, res.stderr.decode()
    assert res.stdout == (DATA / "golden_cli" / (name + ".json")).read_bytes()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_unchanged(demo):
    res = _run([str(ROOT / "demos" / (demo + ".py"))])
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (DATA / "demos" / (demo + ".out")).read_bytes()
