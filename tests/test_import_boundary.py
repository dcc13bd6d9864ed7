"""Commands that never build a MAP start without SciPy.

Only the exact engine (and ``fit-trace --density-out``, through ``expm``)
needs SciPy; ``ttldelay.cli`` loads it on the first engine call.  Each case
runs in a fresh interpreter with ``PYTHONPATH=src``, so what other tests have
imported cannot hide a regression.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = str(ROOT / "configs" / "binary_three_level_mme2.yaml")

# Runs ``cli.main`` on its arguments, if any, then prints the SciPy modules
# the process has loaded.
SCRIPT = """\
import sys
from ttldelay import cli
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def scipy_modules_after(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture
def trace(tmp_path):
    path = tmp_path / "trace.txt"
    gaps = np.random.default_rng(3).gamma(2.0, 0.5, 300)
    np.savetxt(path, np.cumsum(gaps))
    return str(path)


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after() == "[]"


@pytest.mark.parametrize("command, options", [
    ("approx", ["--sweep", "tau_delta=0:0.5:2"]),
    ("simulate", ["--sweep", "tau_delta=0:1:1", "--requests", "2000", "--seed", "1"]),
])
def test_numpy_only_commands_load_no_scipy(tmp_path, command, options):
    out = tmp_path / "out.csv"
    argv = [command, "--config", CONFIG, "--out", str(out), *options]
    assert scipy_modules_after(*argv) == "[]"
    assert len(out.read_text().splitlines()) > 1


def test_fit_trace_loads_no_scipy(tmp_path, trace):
    out = tmp_path / "fit.yaml"
    argv = ["fit-trace", "--trace", trace, "--phases", "2", "--out", str(out)]
    assert scipy_modules_after(*argv) == "[]"
    assert "phases: 2" in out.read_text()


def test_fit_trace_density_out_still_writes_its_csv(tmp_path, trace):
    density = tmp_path / "density.csv"
    argv = ["fit-trace", "--trace", trace, "--phases", "2", "--bins", "10",
            "--out", str(tmp_path / "fit.yaml"), "--density-out", str(density)]
    assert "scipy.linalg" in scipy_modules_after(*argv)
    with open(density, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin_center", "empirical_density", "fitted_density"]
    assert len(rows) == 11
    assert all(float(row[2]) >= 0 for row in rows[1:])
