"""Batch command-line front end.

Each verification family maps to a subcommand; ``verify-all`` reproduces
the full acceptance suite.  The subcommands build their checks with the
check builders of ``acceptance``, so a tag means the same test, tolerance
and reference value everywhere.  Configuration comes from an INI-style file
(sections [grid], [scan], [ggmt], [evolve], [output]) with flags taking
precedence; every report embeds a hash of the effective configuration and
a stable machine tag per check.  Reports are deterministic at a fixed BLAS
thread count: rerunning a command produces byte-identical JSON apart from
the timestamp, wall-time and import-time fields.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration, 3 numerical failure (a diagnostics file is written).

Example:

    ksmode ggmt --l 2 --alpha 0.2 --p 4 --theta 0.5
    ksmode spectrum --l 4
    ksmode verify-all --output-dir reports/
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import re
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import _IMPORT_START, acceptance, evolution, ggmt, operators, spectra
from .radial import RadialFunction, make_grid

DEFAULTS = {
    "grid": {"n": 400, "rmax": 40.0, "ratio": 1.0},
    "scan": {"threshold": 0.05, "n0": 200, "rmax0": 40.0, "growth": 30.0},
    "ggmt": {"l": 2, "alpha": 0.2, "p": 4.0, "theta": 0.5, "w_eps": 0.01,
             "w_power": -1.2, "w_floor": 0.02},
    "evolve": {"dt": 0.01, "horizon": 5.0, "amplitude": 1e-3},
    "output": {"dir": ""},
}


@dataclass
class RunConfig:
    """Effective configuration of one CLI run (defaults < file < flags)."""
    values: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | None, overrides: dict) -> "RunConfig":
        values = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
        if path:
            # "key = value ; note" lines, as in README's example; the
            # parser strips each value, and its default gives its type
            parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
            read = parser.read(path)
            if not read:
                raise ConfigError(f"config file not found: {path}")
            for sec in parser.sections():
                if sec not in values:
                    raise ConfigError(f"unknown config section [{sec}]")
                for key, raw in parser.items(sec):
                    if key not in values[sec]:
                        raise ConfigError(f"unknown config key {sec}.{key}")
                    values[sec][key] = type(DEFAULTS[sec][key])(raw)
        for (sec, key), val in overrides.items():
            if val is not None:
                values[sec][key] = val
        cfg = cls(values)
        cfg.validate()
        # every command writes its report there: fail before any work
        try:
            _out_dir(cfg).mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"output dir: {err}") from None
        return cfg

    def __getitem__(self, seckey):
        sec, key = seckey
        return self.values[sec][key]

    def validate(self) -> None:
        for sec, kv in self.values.items():
            for key, val in kv.items():
                if isinstance(val, float) and not np.isfinite(val):
                    raise ConfigError(f"{sec}.{key} must be finite, got {val}")
        # n, rmax and ratio are valid exactly when the grid builds and the
        # grid commands' profile data and operators hold in floats:
        # profile-check forms (2 + r^2)^4 (Q'' of the pointwise bounds),
        # assemble_Ll (2 + r^2)^3 (Q') and the powers of class_overflows,
        # and the class-0 origin ghost products of r^2 at the first nodes
        try:
            grid = self.grid()
        except ValueError as err:
            raise ConfigError(f"grid: {err}") from None
        if 4.0 * np.log(2.0 + grid.rmax * grid.rmax) > np.log(np.finfo(float).max):
            raise ConfigError("grid: (2 + rmax^2)^4 of the profile overflows a "
                              f"float at rmax = {grid.rmax:g}")
        if spectra.class_overflows(1, grid):
            raise ConfigError("grid: the class-1 operator overflows a float "
                              f"on the {grid.n}-node grid to rmax = {grid.rmax:g}")
        if operators.origin_ghost_underflows(grid):
            raise ConfigError("grid: the class-0 origin ghost underflows a "
                              f"float at r_1 = {grid.nodes[0]:g}")
        # and the [scan] section exactly when its ladder builds
        self.ladder()
        gg = self.values["ggmt"]
        try:
            ggmt.check_pipeline(gg["l"], gg["alpha"], gg["p"], gg["theta"],
                                self.weight())
        except ValueError as err:
            raise ConfigError(f"ggmt: {err}") from None
        e = self.values["evolve"]
        try:
            # evolve-nonlinear stores every state of its grid
            evolution.step_count(e["dt"], e["horizon"], grid.n)
        except ValueError as err:
            raise ConfigError(f"evolve: {err}") from None
        # the shooting bracket and bound scale with |amplitude|
        if e["amplitude"] == 0:
            raise ConfigError("evolve.amplitude must be nonzero")

    def weight(self) -> ggmt.WeightSpec:
        gg = self.values["ggmt"]
        return ggmt.paper_weight(gg["w_eps"], gg["w_power"], gg["w_floor"])

    def grid(self):
        g = self.values["grid"]
        # ratio 1 is the uniform grid
        return make_grid(g["n"], g["rmax"], ("geometric", g["ratio"]))

    def ladder(self, l: int | None = None) -> dict:
        """The scan's refinement ladder; with a class ``l``, also checks
        that the scan can assemble L_l on the grids it reads.  Either
        failure raises ConfigError."""
        s = self.values["scan"]
        try:
            ladder = spectra.refinement_ladder(n0=s["n0"], rmax0=s["rmax0"],
                                               growth=s["growth"])
            if l is not None:
                spectra.check_scan_grids(l, ladder)
        except ValueError as err:
            raise ConfigError(f"scan: {err}") from None
        return ladder

    def canonical(self) -> str:
        # the output location is not part of the computation's identity
        lines = []
        for sec in sorted(self.values):
            if sec == "output":
                continue
            for key in sorted(self.values[sec]):
                lines.append(f"{sec}.{key}={_fmt(self.values[sec][key])}")
        return "\n".join(lines)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


class ConfigError(ValueError):
    pass


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_text(obj, indent=0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, (dict, list, tuple)) and not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, dict):
        items = [f'{pad} "{k}": {_json_text(obj[k], indent + 1).lstrip()}'
                 for k in obj]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [pad + " " + _json_text(v, indent + 1).lstrip() for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(str(obj))


def _out_dir(cfg: RunConfig) -> Path:
    """The report directory; RunConfig.load creates it."""
    return Path(cfg["output", "dir"] or os.environ.get("KSMODE_OUTDIR", "reports"))


def _write_summary(cfg, command, checks, extra, t0) -> Path:
    summary = {
        "command": command,
        "config_hash": cfg.hash(),
        "checks": [c.as_dict() for c in checks],
        "wall_time": time.perf_counter() - t0,
        # start-up: the package import, argument parsing and validation
        "import_time": t0 - _IMPORT_START,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        # the last digits of the eigenvalues depend on the BLAS thread count
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if extra:
        summary["details"] = extra
    path = _out_dir(cfg) / f"{command.replace('-', '_')}_summary.json"
    path.write_text(_json_text(summary) + "\n")
    return path


def _print_checks(checks) -> None:
    for c in checks:
        state = "PASS" if c.passed else "FAIL"
        print(f"[{state}] {c.name}: value={_fmt(float(c.value))} "
              f"tol={_fmt(float(c.tolerance))}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_profile_check(cfg, args):
    return acceptance.criterion_profile() + [
        acceptance.profile_bounds_check(cfg.grid())], None


def cmd_ggmt(cfg, args):
    gc = cfg.values["ggmt"]
    try:
        rep = ggmt.l2_pipeline(l=gc["l"], alpha=gc["alpha"], p=gc["p"],
                               theta=gc["theta"], W=cfg.weight())
    except ggmt.CountOverflowError as err:
        raise ConfigError(f"ggmt: {err}") from None
    # the default configuration is the reference one the pinned values hold for
    checks = acceptance.ggmt_checks(rep, gc == DEFAULTS["ggmt"])
    return checks + [acceptance.u_inf_check(rep)], asdict(rep)


def cmd_spectrum(cfg, args):
    scan = spectra.unstable_scan_detailed(
        args.l, threshold=cfg["scan", "threshold"], ladder=cfg.ladder())
    checks = acceptance.spectrum_checks(args.l, scan)
    rows = [{"l": c.l, "re_lambda": c.lam.real, "im_lambda": c.lam.imag,
             "residual": c.residual, "decay_exp": c.decay_exponent,
             "origin_exp": c.origin_exponent, "converged": c.converged,
             "accepted": c.accepted, "rejected_by": c.rejected_by}
            for c in scan.candidates]
    out = _out_dir(cfg) / f"spectrum_l{args.l}.csv"
    _write_csv(out, rows, ["l", "re_lambda", "im_lambda", "residual",
                           "decay_exp", "origin_exp", "converged", "accepted",
                           "rejected_by"])
    # the deflation fields are null when nothing was deflated
    deflated = scan.certificate if scan.certificate.count else None
    detail = {"accepted": [[r.lam.real, r.lam.imag] for r in scan.accepted],
              "csv": out.name, "numerical_range_floor": scan.floor.nu,
              "numerical_range_margin": scan.floor.margin,
              "numerical_range_solver": scan.floor.solver,
              "scan_path": scan.path,
              "deflated_floor": deflated and deflated.nu,
              "deflated_margin": deflated and deflated.margin,
              "deflated_solver": deflated and deflated.solver,
              "deflated_count": deflated and deflated.count,
              "invariance_residual": deflated and deflated.residual,
              "partner_solves": sum(c.partner_solves for c in scan.candidates),
              "max_partner_residual": max(
                  (c.partner_residual for c in scan.candidates), default=0.0)}
    return checks, detail


def cmd_waveop_check(cfg, args):
    return (acceptance.criterion_waveop() + acceptance.waveop_identity_checks()
            + acceptance.criterion_schrodinger()), None


def cmd_coercivity(cfg, args):
    return acceptance.criterion_coercivity(), None


def cmd_evolve_linear(cfg, args):
    grid = cfg.grid()
    r = grid.nodes
    dt = cfg["evolve", "dt"]
    horizon = cfg["evolve", "horizon"]
    checks = []
    rows = []
    worst_defect = 0.0
    projections = {}
    for l, mode in acceptance.SYMMETRY_MODES.items():
        op = operators.assemble_Ll(l, grid)
        proj = spectra.build_projection(op, mode.eigenvalue)
        tr = evolution.linear_evolve(op, RadialFunction(grid, mode.shape(r)), dt,
                                     horizon, projection=proj)
        checks.append(acceptance.growth_rate_check(l, evolution.fit_rate(tr)))
        worst_defect = max(worst_defect, tr.max_solve_defect)
        projections[str(l)] = _projection_detail(proj)
        rows += [{"l": l, "tau": t, "norm": n, "mode_coeff": float(np.real(c))}
                 for t, n, c in zip(tr.times, tr.norms, tr.mode_coeffs)]
    out = _out_dir(cfg) / "evolve_linear_trace.csv"
    _write_csv(out, rows, ["l", "tau", "norm", "mode_coeff"])
    return checks, {"csv": out.name, "max_solve_defect": worst_defect,
                    "projections": projections}


def _projection_detail(proj) -> dict:
    """The evidence behind one Riesz projection (see spectra.ProjectionPair)."""
    return {"eigenvalue": [proj.lam.real, proj.lam.imag],
            "isolation_floor": proj.floor.nu,
            "isolation_margin": proj.floor.margin,
            "isolation_solver": proj.floor.solver,
            "invariance_residual": proj.floor.residual,
            "projection_path": proj.path, "condition": proj.condition}


def cmd_evolve_nonlinear(cfg, args):
    grid = cfg.grid()
    drift, tr = acceptance.steady_drift_check(
        grid, cfg["evolve", "dt"], cfg["evolve", "horizon"])
    checks = [drift, acceptance.partial_mass_check(grid)]
    rows = [{"tau": t, "norm": n} for t, n in zip(tr.times, tr.norms)]
    out = _out_dir(cfg) / "evolve_nonlinear_trace.csv"
    _write_csv(out, rows, ["tau", "norm"])
    return checks, {"csv": out.name, "max_solve_defect": tr.max_solve_defect}


def cmd_shoot(cfg, args):
    grid = cfg.grid()
    amp = cfg["evolve", "amplitude"]
    qh, projf, bump = acceptance.shooting_setup(grid)
    # the bracket and the bound scale with the size of the amplitude, not its sign
    size = abs(amp)
    half = 4.0 * max(size, 1e-3)
    (res,) = evolution.shoot_stable_manifold(
        [RadialFunction(grid, amp * bump)], (-half, half), projf, qh,
        *acceptance.SHOOTING_RUN)
    checks = acceptance.shooting_checks(res, size)
    return checks, {**asdict(res), "projection": _projection_detail(projf)}


def cmd_verify_all(cfg, args):
    checks = []
    detail = {}
    for key, fn in acceptance.CRITERIA.items():
        result = fn()
        ok = all(c.passed for c in result)
        print(f"criterion {key}: {'PASS' if ok else 'FAIL'}")
        checks += result
        detail[key] = "pass" if ok else "fail"
    return checks, detail


def _write_csv(path: Path, rows, fieldnames) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) if isinstance(v, float) else v
                             for k, v in row.items()})


COMMANDS = {
    "profile-check": cmd_profile_check,
    "ggmt": cmd_ggmt,
    "spectrum": cmd_spectrum,
    "waveop-check": cmd_waveop_check,
    "coercivity": cmd_coercivity,
    "evolve-linear": cmd_evolve_linear,
    "evolve-nonlinear": cmd_evolve_nonlinear,
    "shoot": cmd_shoot,
    "verify-all": cmd_verify_all,
}


def _class_index(text: str) -> int:
    """A spherical class index: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"class index must be >= 0, got {value}")
    return value


# Each subcommand's flags as (config section, key it overrides, help); a
# flag takes the type of its key's default.  A flag without a section is
# read by the command itself and is required: spectrum's class index.
_GRID_FLAGS = (("grid", "n", "grid nodes"), ("grid", "rmax", "outer radius"))
_STEP_FLAGS = (("evolve", "dt", None), ("evolve", "horizon", None))
COMMAND_FLAGS = {
    "profile-check": _GRID_FLAGS,
    "ggmt": (("ggmt", "l", None), ("ggmt", "alpha", None),
             ("ggmt", "p", None), ("ggmt", "theta", None)),
    "spectrum": ((None, "l", "spherical class index"),),
    "waveop-check": (),
    "coercivity": (),
    "evolve-linear": _GRID_FLAGS + _STEP_FLAGS,
    "evolve-nonlinear": _GRID_FLAGS + _STEP_FLAGS,
    "shoot": _GRID_FLAGS + (("evolve", "amplitude", None),),
    "verify-all": (),
}


# argparse before Python 3.13 reads a negative number with an exponent
# ("--amplitude -1e-3") as an unknown option; this pattern also takes it
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksmode",
        description="Desk-scale numerical verification of the mode-stability "
                    "analysis for the explicit self-similar chemotaxis "
                    "blowup profile.")
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--output-dir", help="report directory "
                        "(default $KSMODE_OUTDIR or ./reports)")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        # accepted both before and after the subcommand; SUPPRESS keeps a
        # value parsed at the top level from being clobbered by the default
        p.add_argument("--config", default=argparse.SUPPRESS)
        p.add_argument("--output-dir", default=argparse.SUPPRESS)
        for sec, key, text in COMMAND_FLAGS[name]:
            kind = type(DEFAULTS[sec][key]) if sec else _class_index
            p.add_argument(f"--{key}", type=kind, required=sec is None,
                           help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {(sec, key): getattr(args, key)
                 for sec, key, _ in COMMAND_FLAGS[args.command] if sec}
    overrides[("output", "dir")] = args.output_dir
    try:
        # ValueError covers ConfigError and unparsable numbers
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "spectrum":
            cfg.ladder(args.l)   # the class must fit the ladder too
    except (ValueError, configparser.Error) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    # past validation every error but a count that overflows a float (a
    # ConfigError) is numerical: RuntimeError covers DivergentTailError and
    # EvolutionError, ValueError covers LinAlgError
    try:
        checks, detail = COMMANDS[args.command](cfg, args)
    except ConfigError as err:
        # a setting whose numbers overflow a float once computed
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as err:
        diag = _out_dir(cfg) / f"{args.command.replace('-', '_')}_diagnostics.txt"
        diag.write_text(f"{err}\n\n{traceback.format_exc()}")
        print(f"numerical error: {err} (diagnostics: {diag})", file=sys.stderr)
        return 3
    path = _write_summary(cfg, args.command, checks, detail, t0)
    _print_checks(checks)
    print(f"summary: {path}")
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
