"""Import guard: fracou runs on numpy alone and loads no scipy module.

Every check runs in a fresh interpreter, since this process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fracou

SRC = str(Path(fracou.__file__).resolve().parents[1])
GOLDEN = str(Path(__file__).parent / "data" / "golden_path.csv")

#: prints the scipy modules loaded so far as a JSON list
_LOADED = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _run(code: str) -> list:
    """The JSON lines the snippet prints, run after `_LOADED` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _LOADED + code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_import_loads_no_scipy():
    code = "import fracou.cli\nprint(json.dumps(loaded()))"
    assert _run(code) == [[]]


def test_estimate_loads_no_scipy():
    code = (
        "import contextlib, io\n"
        "from fracou import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['estimate', '--in', {GOLDEN!r}]) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]


def test_theory_asymptotic_loads_no_scipy():
    code = (
        "import contextlib, io\n"
        "from fracou import cli\n"
        "args = ['theory', '--theta', '1', '--hurst', '0.7', '--n', '1000', '--gamma', '0.6']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(args) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]


def test_theory_quadrature_loads_no_scipy():
    # the E(F_T^2) quadrature is numpy only: no scipy.linalg or scipy.fft
    code = (
        "import contextlib, io\n"
        "from fracou import cli\n"
        "args = ['theory', '--theta', '1', '--hurst', '0.7', '--n', '1000', '--gamma', '0.6',\n"
        "        '--ef2', 'quadrature']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(args) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]


def test_quadrature_cross_checks_load_no_scipy():
    # the fixed Gauss-Jacobi rules are numpy only: no scipy.integrate
    code = (
        "from fracou import theory\n"
        "from fracou.fou import ModelParams, exact_second_moment\n"
        "params = ModelParams(1.0, 0.7, 0.5)\n"
        "for t in (0.5, 40.0):\n"
        "    theory.alpha_n_quadrature(params, t)\n"
        "    exact_second_moment(params, t)\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]


def test_simulate_loads_no_scipy(tmp_path):
    # the draw path is numpy only, also at theta * delta = 1e300, where lag 0
    # of the increment autocovariance is a gamma function and a = 0
    out = str(tmp_path / "path.csv")
    code = (
        "from fracou import cli\n"
        "from fracou.fbm import RngSeed\n"
        "from fracou.fou import ModelParams, SamplingScheme, simulate_path\n"
        "simulate_path(ModelParams(1.0, 0.7), SamplingScheme(64, 0.1), RngSeed(7))\n"
        "for delta in ('0.05', '1e300'):\n"
        "    args = ['simulate', '--theta', '1', '--hurst', '0.7', '--n', '300',\n"
        f"            '--delta', delta, '--out', {out!r}]\n"
        "    assert cli.main(args) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]


def test_mc_loads_no_scipy(tmp_path):
    config = tmp_path / "mc.json"
    config.write_text(json.dumps({
        "theta": 1.0, "hurst": 0.6, "replications": 100, "seed": 3,
        "schedule": [{"n": 64, "delta": 0.25}], "out_json": str(tmp_path / "mc_out.json"),
    }))
    code = (
        "import contextlib, io\n"
        "from fracou import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['mc', {str(config)!r}, '--threads', '1']) == 0\n"
        "print(json.dumps(loaded()))"
    )
    assert _run(code) == [[]]
