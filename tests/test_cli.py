"""Command-line interface: exit codes, report schema, determinism, config."""

import ast
import json
import math
import re
from pathlib import Path

import pytest

from ksmode import cli, evolution


def run_cli(args, tmp_path):
    code = cli.main(["--output-dir", str(tmp_path)] + args)
    return code


def load_summary(tmp_path, command):
    path = tmp_path / f"{command.replace('-', '_')}_summary.json"
    return json.loads(path.read_text())


def test_ggmt_reference_run(tmp_path, capsys):
    code = run_cli(["ggmt", "--l", "2", "--alpha", "0.2", "--p", "4",
                    "--theta", "0.5"], tmp_path)
    assert code == 0
    summary = load_summary(tmp_path, "ggmt")
    assert summary["command"] == "ggmt"
    assert abs(summary["details"]["mu"] - 1.9137) < 5e-3
    assert abs(summary["details"]["bigN"] - 0.8687) < 5e-3
    tags = {c["tag"] for c in summary["checks"]}
    assert "ggmt.mu" in tags and "ggmt.bigN" in tags
    # the same threshold as verify-all's criterion 1
    (threshold,) = [c for c in summary["checks"] if c["tag"] == "ggmt.bigN_lt_1"]
    assert threshold["tolerance"] == 1.0 - 1e-12
    for check in summary["checks"]:
        assert set(check) == {"name", "tag", "value", "tolerance", "pass"}
        assert check["pass"] is True


def test_ggmt_class_without_a_well_counts_zero(tmp_path):
    # the comparison potential of class 4 is positive: no negative part,
    # so no bound state and the count is 0
    assert run_cli(["ggmt", "--l", "4"], tmp_path) == 0
    details = load_summary(tmp_path, "ggmt")["details"]
    assert details["bigN"] == 0 and details["well"] == []
    assert details["u_infinity"] > 0.0


def test_summary_schema_and_determinism(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(["ggmt"], tmp_path / "a") == 0
    assert run_cli(["ggmt"], tmp_path / "b") == 0
    first = load_summary(tmp_path / "a", "ggmt")
    assert set(first) == {"command", "config_hash", "checks", "wall_time",
                          "import_time", "timestamp", "blas_threads",
                          "details"}
    assert first["import_time"] > 0.0

    def stable_lines(path):
        return [line for line in path.read_text().splitlines()
                if not any(f'"{key}"' in line for key in
                           ("wall_time", "import_time", "timestamp"))]

    # byte-identical apart from the three volatile fields, and the hash does
    # not depend on where the report lands
    assert stable_lines(tmp_path / "a" / "ggmt_summary.json") \
        == stable_lines(tmp_path / "b" / "ggmt_summary.json")


@pytest.mark.parametrize("threads", ["1", None])
def test_summary_records_blas_threads(tmp_path, monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    assert run_cli(["ggmt"], tmp_path) == 0
    assert load_summary(tmp_path, "ggmt")["blas_threads"] == threads


def test_spectrum_subcommand_small_ladder(tmp_path):
    args = ["spectrum", "--l", "4"]
    code = cli.main(["--output-dir", str(tmp_path),
                     "--config", str(_small_scan_config(tmp_path))] + args)
    assert code == 0
    summary = load_summary(tmp_path, "spectrum")
    details = summary["details"]
    assert details["accepted"] == []
    assert [c["tag"] for c in summary["checks"]] == ["spectra.l4_empty",
                                                    "spectra.l4_floor"]
    # the floor certifies the class, so no eigensolve ran
    assert details["numerical_range_floor"] > 0.05
    assert 0.0 < details["numerical_range_margin"] < 6e-8
    # a positive definite frame: its floor came from the Cholesky factor
    assert details["numerical_range_solver"] == "cholesky"
    assert details["scan_path"] == "floor"
    assert [details[key] for key in ("deflated_floor", "deflated_margin",
                                     "deflated_solver", "deflated_count",
                                     "invariance_residual")] == [None] * 5
    assert details["partner_solves"] == 0
    assert details["max_partner_residual"] == 0.0
    assert (tmp_path / "spectrum_l4.csv").read_text().strip() == \
        "l,re_lambda,im_lambda,residual,decay_exp,origin_exp,converged," \
        "accepted,rejected_by"


def test_spectrum_l1_finds_translation_mode(tmp_path):
    code = cli.main(["--output-dir", str(tmp_path),
                     "--config", str(_small_scan_config(tmp_path)),
                     "spectrum", "--l", "1"])
    assert code == 0
    summary = load_summary(tmp_path, "spectrum")
    (lam,) = [pair[0] for pair in summary["details"]["accepted"]]
    assert abs(lam - (-0.5)) < 5e-3
    details = summary["details"]
    assert details["numerical_range_floor"] < -0.5
    assert details["numerical_range_solver"] == "eigh"
    # deflating the translation mode certifies the rest of the fine grid
    assert details["scan_path"] == "deflation"
    assert details["deflated_count"] == 1
    assert details["deflated_solver"] == "cholesky"
    assert details["deflated_floor"] - details["deflated_margin"] > 0.05
    assert 0.0 < details["invariance_residual"] <= 1e-8
    # one candidate: one shift-invert solve on each of the three partner grids
    assert details["partner_solves"] == 3
    assert 0.0 < details["max_partner_residual"] <= 1e-8
    # verify-all's class-1 checks, tag for tag
    assert [c["tag"] for c in summary["checks"]] == [
        "spectra.l1_count", "spectra.l1_eig", "spectra.l1_imag",
        "spectra.l1_cosine", "spectra.l1_deflated_floor"]
    assert all(c["pass"] for c in summary["checks"])


def test_spectrum_csv_names_the_rejecting_filter(tmp_path):
    path = _small_scan_config(tmp_path)
    path.write_text(path.read_text() + "threshold = 1.5\n")
    assert cli.main(["--output-dir", str(tmp_path), "--config", str(path),
                     "spectrum", "--l", "1"]) == 0
    lines = (tmp_path / "spectrum_l1.csv").read_text().splitlines()
    assert lines[0].endswith(",accepted,rejected_by")
    # the translation mode is accepted; the eigenvalue 0.966 fails the decay fit
    assert [line.split(",")[-2:] for line in lines[1:]] == [
        ["True", ""], ["False", "decay"]]
    assert load_summary(tmp_path, "spectrum")["details"]["partner_solves"] == 6


def test_spectrum_reports_the_dense_fallback(tmp_path):
    # on the (400, 80) fine grid the coarse outer spacing keeps the
    # deflated floor near -2.5: the scaling mode comes from the full
    # eigensolve, and its deflated-floor check fails
    path = tmp_path / "coarse.ini"
    path.write_text("[scan]\nn0 = 100\nrmax0 = 40.0\n")
    code = cli.main(["--output-dir", str(tmp_path), "--config", str(path),
                     "spectrum", "--l", "0"])
    assert code == 1
    summary = load_summary(tmp_path, "spectrum")
    details = summary["details"]
    assert details["scan_path"] == "dense"
    # neither floor is positive definite, so eigh computed both
    assert details["numerical_range_solver"] == "eigh"
    assert details["deflated_solver"] == "eigh"
    assert details["deflated_count"] == 1 and details["deflated_floor"] < -2.0
    assert 0.0 < details["invariance_residual"] <= 1e-8
    failed = [c["tag"] for c in summary["checks"] if not c["pass"]]
    assert failed == ["spectra.l0_deflated_floor"]


def _small_scan_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text("[scan]\nn0 = 100\nrmax0 = 20.0\n")
    return path


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_text("[evolve]\ndt = 0.02\nhorizon = 1.0\n[grid]\nn = 200\n")
    code = cli.main(["--output-dir", str(tmp_path), "--config", str(path),
                     "evolve-linear", "--dt", "0.01"])
    assert code == 0
    summary = load_summary(tmp_path, "evolve-linear")
    assert (tmp_path / "evolve_linear_trace.csv").exists()
    # the flag override changes the config hash
    code = cli.main(["--output-dir", str(tmp_path), "--config", str(path),
                     "evolve-linear"])
    assert code == 0
    assert load_summary(tmp_path, "evolve-linear")["config_hash"] \
        != summary["config_hash"]


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[grid]\nn = 4\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "profile-check"]) == 2
    path.write_text("[grid]\nn = many\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "profile-check"]) == 2
    path.write_text("[nosuch]\nx = 1\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "profile-check"]) == 2
    # dropped keys: levels only re-expressed n0, and ratio 1.0 is uniform
    for dropped in ("[scan]\nlevels = 3\n", "[grid]\nstretch = uniform\n"):
        path.write_text(dropped)
        assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                         "profile-check"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.ini"),
                     "--output-dir", str(tmp_path), "profile-check"]) == 2


@pytest.mark.parametrize("ratio", ["6", "0.5"])
def test_grid_ratio_the_grid_cannot_hold_exits_2(tmp_path, capsys, ratio):
    # 6^400 overflows a float; ratio 0.5 shrinks the spacings to round-off
    path = tmp_path / "grid.ini"
    path.write_text(f"[grid]\nratio = {ratio}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--output-dir", str(out),
                     "profile-check"]) == 2
    assert "config error: grid:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_reaches_no_private_name_of_acceptance():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "acceptance"):
            private.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "acceptance":
            private.update(a.name for a in node.names if a.name.startswith("_"))
    assert private == set()


@pytest.mark.parametrize("line", ["rmax0 = -1.0", "growth = 0.0"])
def test_bad_scan_radius_or_growth_exits_2(tmp_path, capsys, line):
    # the ladder does not build: make_grid or refinement_ladder refuses it
    path = tmp_path / "scan.ini"
    path.write_text(f"[scan]\n{line}\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "spectrum", "--l", "4"]) == 2
    err = capsys.readouterr().err
    assert "config error: scan:" in err and "must be positive" in err
    assert not (tmp_path / "spectrum_diagnostics.txt").exists()


@pytest.mark.parametrize("growth", ["1e-300", "1e-20", "1e7", "1e306"])
def test_scan_growth_the_ladder_cannot_hold_exits_2(tmp_path, capsys, growth):
    # 1e-300 and 1e-20 shrink the outer spacings below round-off; 1e7 and
    # 1e306 shrink the first spacing below sqrt(eps) rmax
    path = tmp_path / "scan.ini"
    path.write_text(f"[scan]\ngrowth = {growth}\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "spectrum", "--l", "4"]) == 2
    assert "config error: scan:" in capsys.readouterr().err
    assert not (tmp_path / "spectrum_diagnostics.txt").exists()


def test_default_scan_ladder_loads(tmp_path):
    cfg = cli.RunConfig.load(None, {("output", "dir"): str(tmp_path)})
    assert cfg["scan", "growth"] == 30.0
    assert max(cfg.ladder()) == (800, 80.0)


@pytest.mark.parametrize("n0,message", [("8", "minimum node count"),
                                        ("100000", "more than 6400")])
def test_scan_ladder_that_does_not_build_exits_2(tmp_path, capsys, n0,
                                                 message):
    # n0 = 100000 would need a 400000-node fine grid, 1.2 TiB per matrix
    path = tmp_path / "scan.ini"
    path.write_text(f"[scan]\nn0 = {n0}\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "spectrum", "--l", "4"]) == 2
    err = capsys.readouterr().err
    assert "config error: scan:" in err and message in err
    assert not (tmp_path / "spectrum_diagnostics.txt").exists()


@pytest.mark.parametrize("ini,l", [("[scan]\nrmax0 = 1e-300\n", "4"),
                                   ("[scan]\nrmax0 = 1e300\n", "4"),
                                   ("", "160")],
                         ids=["rmax0=1e-300", "rmax0=1e300", "l=160"])
def test_class_the_scan_cannot_assemble_exits_2(tmp_path, capsys, ini, l):
    # r_1^-(l+2) or rmax^(l+3) overflows a float on a scanned grid
    path = tmp_path / "scan.ini"
    path.write_text(ini)
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "spectrum", "--l", l]) == 2
    err = capsys.readouterr().err
    assert "config error: scan:" in err and "overflows a float" in err
    assert not (tmp_path / "spectrum_diagnostics.txt").exists()


def test_default_scan_runs_a_high_class(tmp_path):
    assert run_cli(["spectrum", "--l", "6"], tmp_path) == 0
    assert load_summary(tmp_path, "spectrum")["details"]["scan_path"] == "floor"



@pytest.mark.parametrize("ini,argv", [
    ("[scan]\nthreshold = nan\n", ["spectrum", "--l", "3"]),
    ("[grid]\nrmax = nan\n", ["profile-check"]),
    ("[grid]\nrmax = inf\n", ["profile-check"]),
    ("", ["profile-check", "--rmax", "nan"]),
    ("[ggmt]\nw_eps = -1\n", ["ggmt"]),
])
def test_nonfinite_config_exits_2(tmp_path, capsys, ini, argv):
    # NaN passes every "<= 0" guard; rejected before any work is done
    path = tmp_path / "conf.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--output-dir", str(out)] + argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# the whole of each evolution command's details
EVOLUTION_DETAILS = {"evolve-linear": {"csv", "max_solve_defect", "projections"},
                     "evolve-nonlinear": {"csv", "max_solve_defect"}}


@pytest.mark.parametrize("command", list(EVOLUTION_DETAILS))
def test_evolution_summary_records_largest_solve_defect(tmp_path, command):
    assert run_cli([command, "--n", "200", "--horizon", "3.0"], tmp_path) == 0
    details = load_summary(tmp_path, command)["details"]
    assert set(details) == EVOLUTION_DETAILS[command]
    assert 0.0 < details["max_solve_defect"] <= 1e-10


PROJECTION_FIELDS = {"eigenvalue", "isolation_floor", "isolation_margin",
                     "isolation_solver", "invariance_residual",
                     "projection_path", "condition"}


def test_projection_evidence_reaches_the_reports(tmp_path, monkeypatch):
    assert run_cli(["evolve-linear", "--n", "200", "--horizon", "1.0"],
                   tmp_path) == 0
    linear = load_summary(tmp_path, "evolve-linear")["details"]["projections"]
    assert set(linear) == {"0", "1"}
    for l, target in (("0", -1.0), ("1", -0.5)):
        entry = linear[l]
        assert set(entry) == PROJECTION_FIELDS
        assert entry["projection_path"] == "deflation"
        assert entry["isolation_floor"] > entry["isolation_margin"] > 0.0
        assert entry["isolation_solver"] == "cholesky"
        assert abs(entry["eigenvalue"][0] - target) < 0.05
        assert entry["eigenvalue"][1] == 0.0 and entry["condition"] >= 1.0
    # the shooting report records the flow linearization's projection
    monkeypatch.setattr(evolution, "shoot_stable_manifold",
                        lambda *args, **kwargs: [evolution.ShootingResult(
                            0.0, 1e-9, True, -1, 1, [], 0.0, 1)])
    assert run_cli(["shoot", "--n", "100"], tmp_path) == 0
    entry = load_summary(tmp_path, "shoot")["details"]["projection"]
    assert set(entry) == PROJECTION_FIELDS
    assert entry["projection_path"] == "deflation"


def test_ggmt_invalid_alpha_exits_2(tmp_path):
    assert run_cli(["ggmt", "--alpha", "3.0"], tmp_path) == 2


def test_ggmt_tail_model_precondition_exits_2(tmp_path, capsys):
    # alpha is in [-l, l + 1/2), but 2l + 2 alpha = 2.4 breaks mu's tail model
    assert run_cli(["ggmt", "--l", "1", "--alpha", "0.2"], tmp_path) == 2
    assert "2l + 2 alpha > 3" in capsys.readouterr().err
    assert not (tmp_path / "ggmt_summary.json").exists()


def test_horizon_shorter_than_dt_exits_2(tmp_path):
    assert run_cli(["evolve-linear", "--dt", "0.01", "--horizon", "0.005"],
                   tmp_path) == 2


def test_horizon_not_a_multiple_of_dt_exits_2(tmp_path, capsys):
    assert run_cli(["evolve-linear", "--dt", "0.01", "--horizon", "0.015"],
                   tmp_path) == 2
    assert "whole multiple" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evolve-nonlinear", "--dt", "0.05", "--horizon", "1e12"],
    ["evolve-linear", "--dt", "0.05", "--horizon", "1e9"],
], ids=["evolve-nonlinear", "evolve-linear"])
def test_horizon_too_long_to_store_exits_2(tmp_path, capsys, argv):
    # the trace of every step would not fit in memory
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: evolve:" in err and "limit" in err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("argv", [
    ["evolve-linear", "--rmax", "1e100"],
    ["evolve-nonlinear", "--rmax", "1e200"],
    ["shoot", "--rmax", "1e200"],
    ["profile-check", "--rmax", "1e200"],
    ["profile-check", "--rmax", "1e40"],
    ["profile-check", "--rmax", "1e50"],
    ["profile-check", "--rmax", "1e60"],
], ids=["evolve-linear", "evolve-nonlinear", "shoot", "profile-check",
        "profile-check-1e40", "profile-check-1e50", "profile-check-1e60"])
def test_grid_rmax_that_overflows_a_float_exits_2(tmp_path, capsys, argv):
    # (2 + rmax^2)^4 of profile-check's Q'' overflows a float above about
    # 3.4e38, rmax^4 of the class-1 operator above about 1.2e77
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: grid:" in err and "overflows a float" in err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("argv", [
    ["evolve-linear", "--rmax", "1e-100"],
    ["shoot", "--rmax", "1e-76"],
], ids=["evolve-linear", "shoot"])
def test_grid_whose_origin_ghost_underflows_exits_2(tmp_path, capsys, argv):
    # the class-0 origin ghost multiplies r^2 of the first three nodes, which
    # falls below the normal floats once r_1 is below about 1e-77
    assert run_cli(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: grid:" in err and "underflows a float" in err
    assert not list(tmp_path.glob("*_summary.json"))


def test_tiny_domain_exits_3_without_a_traceback(tmp_path, capsys):
    # every class-1 norm underflows to 0, so there is no growth rate to fit
    assert run_cli(["evolve-linear", "--rmax", "1e-70"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "Traceback" not in err
    assert "positive norms" in (tmp_path / "evolve_linear_diagnostics.txt").read_text()


def test_grid_too_coarse_for_the_steady_state_exits_3(tmp_path, capsys):
    # on 16 nodes Newton collapses onto psi = 0; the error names the
    # collapse, not the density negativity the shooting would meet next
    assert run_cli(["shoot", "--n", "16"], tmp_path) == 3
    assert "trivial steady state psi = 0" in capsys.readouterr().err
    diagnostics = (tmp_path / "shoot_diagnostics.txt").read_text()
    assert "collapsed onto the trivial steady state" in diagnostics
    assert not list(tmp_path.glob("*_summary.json"))


def test_value_error_in_command_exits_3(tmp_path, monkeypatch):
    def broken(cfg, args):
        raise ValueError("no bracket")
    monkeypatch.setitem(cli.COMMANDS, "ggmt", broken)
    assert run_cli(["ggmt"], tmp_path) == 3
    assert "no bracket" in (tmp_path / "ggmt_diagnostics.txt").read_text()


@pytest.mark.parametrize("command", ["waveop-check", "verify-all"])
def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys,
                                                   monkeypatch, command):
    # a path below a regular file: the check happens before any command runs
    ran = []
    monkeypatch.setitem(cli.COMMANDS, command, lambda cfg, args: ran.append(1))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["--output-dir", str(blocker / "sub"), command]) == 2
    assert "config error" in capsys.readouterr().err
    assert ran == []
    assert cli.main(["--output-dir", str(blocker), command]) == 2
    assert ran == []


def test_numerical_error_exits_3(tmp_path, capsys):
    # on (20, 1e5) the eigenvalues of L_0 nearest -1 are a complex pair, so
    # no single mode is nearest: the projection refuses, after validation
    code = run_cli(["evolve-linear", "--n", "20", "--rmax", "1e5",
                    "--horizon", "0.1"], tmp_path)
    assert code == 3
    assert "complex pair" in capsys.readouterr().err
    assert (tmp_path / "evolve_linear_diagnostics.txt").exists()


@pytest.mark.parametrize("argv,message", [
    (["--theta", "1.0"], "effective index not self-adjoint"),
    (["--theta", "0.95"], "effective index not self-adjoint"),
    (["--alpha", "0.5"], "limit at infinity is not positive"),
    (["--l", "1", "--alpha", "1.4"], "limit at infinity is not positive"),
])
def test_ggmt_setting_that_cannot_succeed_exits_2(tmp_path, capsys,
                                                  monkeypatch, argv, message):
    # these depend on [ggmt] values alone: refused before any quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("mu was computed")
    monkeypatch.setattr(cli.ggmt, "mu_functional", no_quadrature)
    assert run_cli(["ggmt"] + argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "config error: ggmt:" in err and message in err
    assert not (tmp_path / "ggmt_diagnostics.txt").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["ggmt", "--p", "1e307"], id="ggmt-p-gamma-overflows"),
    pytest.param(["ggmt", "--p", "1e4"], id="ggmt-p-count-overflows"),
    pytest.param(["ggmt", "--alpha", "-1e155"], id="ggmt-alpha"),
    pytest.param(["ggmt", "--l", "9" * 400], id="ggmt-l"),
    pytest.param(["spectrum", "--l", "9" * 400], id="spectrum-l"),
])
def test_setting_that_overflows_a_float_exits_2(tmp_path, capsys, argv):
    assert run_cli(argv, tmp_path) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("p", ["62", "64", "100"])
def test_large_p_has_a_finite_count(tmp_path, p):
    # (p-1)^{p-1} Gamma(2p) alone overflows a float from p = 62 on; the
    # prefactor, formed from its logarithm, does not
    assert run_cli(["ggmt", "--p", p], tmp_path) in (0, 1)
    details = load_summary(tmp_path, "ggmt")["details"]
    assert 0.0 < details["prefactor"] < 1e-28
    assert math.isfinite(details["bigN"])


@pytest.mark.parametrize("p", ["150", "300", "400", "1000"])
def test_count_past_the_power_overflow_is_finite(tmp_path, p):
    # r^{2p-1} and |V_-|^p alone overflow a float on the well from about
    # p = 150 on; the integrand formed from its logarithm does not, and N,
    # far above 1, fails the certification.  From p = 400 on the prefactor
    # alone is below the normal floats, yet N is finite
    assert run_cli(["ggmt", "--p", p], tmp_path) == 1
    details = load_summary(tmp_path, "ggmt")["details"]
    assert 1.0 < details["bigN"] and math.isfinite(details["bigN"])
    assert not (tmp_path / "ggmt_diagnostics.txt").exists()


def test_waveop_check_reports_the_conjugation_identity(tmp_path):
    assert run_cli(["waveop-check"], tmp_path) == 0
    checks = {c["tag"]: c for c in load_summary(tmp_path, "waveop-check")["checks"]}
    conjugation = checks["waveop.coef_conjugation"]
    assert conjugation["pass"] is True and conjugation["tolerance"] == 1e-8
    assert 0.0 <= conjugation["value"] <= 1e-8


def test_float_serialization_17_digits(tmp_path):
    run_cli(["ggmt"], tmp_path)
    text = (tmp_path / "ggmt_summary.json").read_text()
    # mu appears with 17 significant digits
    assert format(load_summary(tmp_path, "ggmt")["details"]["mu"], ".17g") in text


def test_empty_containers_serialize_on_one_line():
    obj = {"a": [], "b": {}, "c": [[], {}, 1], "d": ()}
    text = cli._json_text(obj)
    assert json.loads(text) == {"a": [], "b": {}, "c": [[], {}, 1], "d": []}
    assert text == ('{\n "a": [],\n "b": {},\n "c": [\n  [],\n  {},\n  1\n ],'
                    '\n "d": []\n}')
    assert cli._json_text([]) == "[]" and cli._json_text({}) == "{}"


@pytest.mark.parametrize("argv", [["shoot", "--dt", "0.01"],
                                  ["verify-all", "--n", "50"],
                                  ["evolve-linear", "--amplitude", "1"]])
def test_flag_the_command_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv,key,value", [
    (["shoot", "--amplitude", "-1e-3"], "amplitude", -1e-3),
    (["ggmt", "--alpha", "-2E-1"], "alpha", -0.2),
    (["shoot", "--rmax", "-.5"], "rmax", -0.5),
])
def test_negative_number_in_scientific_notation_is_a_value(argv, key, value):
    assert getattr(cli.build_parser().parse_args(argv), key) == value


@pytest.mark.parametrize("ini,argv", [
    ("", ["shoot", "--amplitude", "0"]),
    ("[evolve]\namplitude = 0.0\n", ["shoot"]),
])
def test_zero_amplitude_exits_2(tmp_path, capsys, ini, argv):
    # the shooting bracket and bound scale with |amplitude|, so 0 has none
    path = tmp_path / "conf.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--output-dir", str(out)] + argv) == 2
    assert "amplitude must be nonzero" in capsys.readouterr().err
    assert not out.exists()


def test_negative_class_index_exits_2(tmp_path, capsys):
    # rejected while parsing, before any work or diagnostics file
    with pytest.raises(SystemExit) as err:
        run_cli(["spectrum", "--l", "-1"], tmp_path)
    assert err.value.code == 2
    assert "class index must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("amp", [1e-3, -1e-3, 0.02, -0.02])
def test_shoot_bracket_and_bound_scale_with_the_amplitude_size(
        tmp_path, monkeypatch, amp):
    seen = {}

    def fake_shoot(stable_perturbations, bracket, projection, base_profile,
                   dt, horizon):
        seen["bracket"] = bracket
        seen["count"] = len(stable_perturbations)
        trail = [(bracket[0], -1, 0.5), (bracket[1], 1, 0.75),
                 (0.05 * abs(amp), 1, None)]
        return [evolution.ShootingResult(a_star=0.05 * abs(amp),
                                         step=1e-9, converged=True,
                                         departure_sign_low=-1,
                                         departure_sign_high=1, trail=trail,
                                         max_solve_defect=1e-17, rounds=2)]

    monkeypatch.setattr(evolution, "shoot_stable_manifold", fake_shoot)
    assert run_cli(["shoot", "--n", "100", "--amplitude", str(amp)],
                   tmp_path) == 0
    size = max(abs(amp), 1e-3)
    assert seen["bracket"] == (-4.0 * size, 4.0 * size)
    assert seen["count"] == 1
    summary = load_summary(tmp_path, "shoot")
    (bound,) = [c for c in summary["checks"]
                if c["tag"] == "evolution.shoot_astar"]
    assert bound["tolerance"] == 0.1 * abs(amp)
    # the search's trail and the solve guard reach the report
    assert summary["details"]["trail"] == [
        [-4.0 * size, -1, 0.5], [4.0 * size, 1, 0.75],
        [0.05 * abs(amp), 1, None]]
    assert summary["details"]["max_solve_defect"] == 1e-17
    assert summary["details"]["step"] == 1e-9
    assert summary["details"]["rounds"] == 2


def test_readme_config_example_loads(tmp_path, monkeypatch):
    # the ```ini block of README.md, as written, inline comments included
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme.read_text(),
                          re.MULTILINE | re.DOTALL)
    (tmp_path / "example.ini").write_text(block)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", "example.ini", "profile-check"]) == 0
    cfg = cli.RunConfig.load("example.ini", {})
    assert cfg["grid", "n"] == 400 and cfg["grid", "ratio"] == 1.0
    assert cfg["evolve", "amplitude"] == 1e-3
    assert (tmp_path / cfg["output", "dir"] / "profile_check_summary.json").exists()


def test_ggmt_limit_not_positive_fails_certification(tmp_path, capsys):
    # w_floor = 0.2 passes validation, but u_inf = 0.15 - 2 mu 0.2 < 0: a
    # failed certification (exit 1), not a numerical error (exit 3)
    path = tmp_path / "conf.ini"
    path.write_text("[ggmt]\nw_floor = 0.2\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "--output-dir", str(out),
                     "ggmt"]) == 1
    assert not (out / "ggmt_diagnostics.txt").exists()

    def no_constant(name):
        raise AssertionError(f"summary holds the non-JSON literal {name}")
    summary = json.loads((out / "ggmt_summary.json").read_text(),
                         parse_constant=no_constant)
    (u_inf,) = [c for c in summary["checks"] if c["tag"] == "ggmt.u_inf"]
    assert u_inf["pass"] is False and -0.13 < u_inf["value"] < -0.11
    assert summary["details"]["bigN"] is None
    assert summary["details"]["well"] == []
    # an empty container is written on one line, as json.dumps writes it
    assert '"well": []' in (out / "ggmt_summary.json").read_text()
    assert "[FAIL] potential limit at infinity positive" in capsys.readouterr().out
