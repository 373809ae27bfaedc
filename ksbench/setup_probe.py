"""Time one workload's set-up in a fresh process and print the seconds.

Set-up is importing numpy, scipy and ksmode and building the workload's
grids or ladder and seeded inputs.  ``run.py`` starts this script several
times per run and reports the median as ``setup_s``.

    python3 ksbench/setup_probe.py <workload> <seed>
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401

import workloads  # noqa: E402  (imports ksmode)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(repr(time.perf_counter() - _START))
