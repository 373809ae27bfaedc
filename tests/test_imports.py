"""Start-up loads only what runs: scipy.integrate and scipy.optimize are
imported inside the functions of criteria 1, 2, 5 and 6 that call them, so
the CLI, the spectral scan and the flows load neither."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys

import ksmode.cli
from ksmode import evolution, ggmt, profile, spectra
from ksmode.radial import RadialFunction, make_grid

LAZY = ("scipy.integrate", "scipy.optimize")


def loaded():
    return [name for name in LAZY if name in sys.modules]


after_import = loaded()
spectra.unstable_scan_detailed(3)
grid = make_grid(200, 40.0, ("geometric", 30.0 ** (1.0 / 199.0)))
evolution.nonlinear_radial_evolve(RadialFunction(grid, profile.q(grid.nodes)),
                                  0.05, 0.5)
after_runs = loaded()
ggmt.alpha_beta(4.0)
print(json.dumps([after_import, after_runs, loaded()]))
"""


def test_grid_paths_load_neither_integrate_nor_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    after_import, after_runs, after_quad = json.loads(out.stdout)
    assert after_import == []
    assert after_runs == []
    # the control: criterion 6's interpolation constants load both
    assert after_quad == ["scipy.integrate", "scipy.optimize"]
