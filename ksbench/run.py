"""ksmode benchmark: run one workload, check its answers, print its metrics.

    python3 ksbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src``
directory.  One process, one caller, closed loop: each pass calls the
workload's acceptance criteria in order and waits for each result, and
passes repeat until the next one would end past ``--seconds`` (at least
``MIN_PASSES``).  OpenBLAS is pinned to one thread before numpy loads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes.  ``wall_s`` and ``cpu_s`` are the mean wall and CPU
time of one pass, the run's pass time divided by its passes: on a shared
host the share of passes that other tenants slow changes from run to run,
and the mean follows that share smoothly where the median and the least
jump.  ``setup_s`` is the median of several fresh-process set-ups.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is the
result object; the line before it holds the details (samples, environment,
failures, per-function table).  Every check of every pass is graded by
``reference.grade``; ``attempted`` and ``failed`` count those checks.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, here and in children

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_PASSES = 2        # untraced passes per --trace 0 run
SETUP_REPEATS = 8     # fresh-process set-ups per --trace 0 run
TAIL_PERCENTILES = (99, 90, 75)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=20250809,
                   help="seed of the identities inputs (the default "
                        "reproduces acceptance.py's coercivity bumps)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str):
    print(f"ksbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import the checkout's ksmode; exit 2 if the checkout has none."""
    if not (SRC / "ksmode" / "__init__.py").is_file():
        fail(f"no program at {SRC / 'ksmode'}; run from a checkout that "
             "holds src/ksmode")
    sys.path.insert(0, str(SRC))
    import ksmode
    if Path(ksmode.__file__).resolve().parent != SRC / "ksmode":
        fail(f"imported ksmode from {ksmode.__file__}, not from {SRC}")


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# -- environment fingerprint ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas(config) -> dict:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


# -- measurement -------------------------------------------------------------------

def timed_pass(run_pass, roots, recorder=None):
    t0 = time.perf_counter()
    c0 = time.process_time()
    results = run_pass(roots, recorder)
    return time.perf_counter() - t0, time.process_time() - c0, results


def setup_seconds(workload: str, seed: int) -> float:
    """One fresh-process set-up, timed inside the child."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def tail(samples: list[float]):
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")
            return {"percentile": pct, "value": cut[pct - 1]}
    return None


def measure_untraced(run_pass, name, seed, roots, seconds):
    """Passes and set-up probes; the probes are spread over the run so that
    their median sees the same host load as the passes."""
    walls, cpus, setups, failures, attempted = [], [], [], [], 0
    interval = seconds / SETUP_REPEATS
    start = time.perf_counter()
    while True:
        while (len(setups) < SETUP_REPEATS
               and time.perf_counter() - start >= interval * len(setups)):
            setups.append(setup_seconds(name, seed))
        wall, cpu, results = timed_pass(run_pass, roots)
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(reference.expected_tags(name))
        failures += reference.grade(name, results)
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_PASSES
                and elapsed + statistics.median(walls) > seconds):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(name, seed))
    return walls, cpus, setups, attempted, failures


def measure_traced(run_pass, name, roots, seconds):
    """Alternate untraced and traced passes; per-layer medians."""
    walls_u, walls_t, per_pass, counts = [], [], [], []
    failures, attempted = [], 0
    start = time.perf_counter()
    while True:
        wall_u, _, results_u = timed_pass(run_pass, roots)
        rec = spans.Recorder()
        with spans.installed(rec):
            wall_t, _, results_t = timed_pass(run_pass, roots, rec)
        walls_u.append(wall_u)
        walls_t.append(wall_t)
        per_pass.append(spans.pass_metrics(rec, wall_t))
        counts.append(spans.call_counts(rec.spans))
        for results in (results_u, results_t):
            attempted += len(reference.expected_tags(name))
            failures += reference.grade(name, results)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls_u) + statistics.median(walls_t) > seconds:
            break
    metrics = spans.median_metrics(per_pass)
    wu, wt = statistics.mean(walls_u), statistics.mean(walls_t)
    metrics["trace.overhead_frac"] = (wt - wu) / wu
    if any(c != counts[0] for c in counts):
        failures.append("call counts differ between traced passes")
    attempted += 1
    detail = {"untraced_wall_s": walls_u, "traced_wall_s": walls_t,
              "call_counts": counts[0]}
    return dict(sorted(metrics.items())), attempted, failures, detail


def select(specs, values: dict, known: set) -> dict:
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in known:
            raise KeyError(f"BENCHMARK.json names unknown metric {name!r}")
        out[name] = {"value": values.get(name, 0), "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{', '.join(workloads.WORKLOADS)}")
    specs = metric_specs()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    roots = wl.roots(inputs)
    detail = {"workload": wl.name, "seed": args.seed,
              "seed_used": wl.uses_seed, "trace": args.trace,
              "environment": environment()}

    if args.trace == 0:
        walls, cpus, setup, attempted, failures = measure_untraced(
            workloads.run_pass, wl.name, args.seed, roots, args.seconds)
        values = {
            "wall_s": statistics.mean(walls),
            "cpu_s": statistics.mean(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(wall_s={"mean": values["wall_s"],
                              "median": statistics.median(walls),
                              "samples": len(walls), "tail": tail(walls),
                              "all": walls},
                      cpu_s=cpus, setup_s=setup)
        metrics = select(specs["end_to_end"], values, set(values))
    else:
        values, attempted, failures, extra = measure_traced(
            workloads.run_pass, wl.name, roots, args.seconds)
        detail.update(extra, per_layer_table=values)
        from ksmode.acceptance import CRITERIA
        metrics = select(specs["per_layer"], values,
                         spans.metric_names(CRITERIA))

    detail.update(attempted=attempted, failed=len(failures),
                  check_fail_frac=len(failures) / attempted,
                  failures=failures[:50])
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
