"""Command-line interface: exit codes, report schema, determinism, config."""

import ast
import json
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


def test_summary_schema_and_determinism(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run_cli(["ggmt"], tmp_path / "a") == 0
    assert run_cli(["ggmt"], tmp_path / "b") == 0
    first = load_summary(tmp_path / "a", "ggmt")
    assert set(first) == {"command", "config_hash", "checks", "wall_time",
                          "timestamp", "blas_threads", "details"}

    def stable_lines(path):
        return [line for line in path.read_text().splitlines()
                if '"wall_time"' not in line and '"timestamp"' not in line]

    # byte-identical apart from the two volatile fields, and the hash does
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
    # the floor certifies the class, so no dense eigensolve ran
    assert details["numerical_range_floor"] > 0.05
    assert 0.0 < details["numerical_range_margin"] < 6e-8
    assert details["dense_solve"] is False
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
    assert summary["details"]["numerical_range_floor"] < -0.5
    assert summary["details"]["dense_solve"] is True
    # one candidate: one shift-invert solve on each of the three partner grids
    assert summary["details"]["partner_solves"] == 3
    assert 0.0 < summary["details"]["max_partner_residual"] <= 1e-8
    # verify-all's class-1 checks, tag for tag
    assert [c["tag"] for c in summary["checks"]] == [
        "spectra.l1_count", "spectra.l1_eig", "spectra.l1_imag",
        "spectra.l1_cosine"]
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
    assert cli.main(["--config", str(tmp_path / "missing.ini"),
                     "--output-dir", str(tmp_path), "profile-check"]) == 2


@pytest.mark.parametrize("ratio", ["6", "0.5"])
def test_grid_ratio_the_grid_cannot_hold_exits_2(tmp_path, capsys, ratio):
    # 6^400 overflows a float; ratio 0.5 shrinks the spacings to round-off
    path = tmp_path / "grid.ini"
    path.write_text(f"[grid]\nstretch = geometric\nratio = {ratio}\n")
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
    path = tmp_path / "scan.ini"
    path.write_text(f"[scan]\n{line}\n")
    assert cli.main(["--config", str(path), "--output-dir", str(tmp_path),
                     "spectrum", "--l", "4"]) == 2
    assert "rmax0 > 0 and growth > 0" in capsys.readouterr().err
    assert not (tmp_path / "spectrum_diagnostics.txt").exists()


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


@pytest.mark.parametrize("command", ["evolve-linear", "evolve-nonlinear"])
def test_evolution_summary_records_largest_solve_defect(tmp_path, command):
    assert run_cli([command, "--n", "200", "--horizon", "3.0"], tmp_path) == 0
    defect = load_summary(tmp_path, command)["details"]["max_solve_defect"]
    assert 0.0 < defect <= 1e-10


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


def test_numerical_error_exits_3(tmp_path):
    # theta = 1 destroys the effective-index self-adjointness margin
    code = run_cli(["ggmt", "--theta", "1.0"], tmp_path)
    assert code == 3
    assert (tmp_path / "ggmt_diagnostics.txt").exists()


def test_float_serialization_17_digits(tmp_path):
    run_cli(["ggmt"], tmp_path)
    text = (tmp_path / "ggmt_summary.json").read_text()
    # mu appears with 17 significant digits
    assert format(load_summary(tmp_path, "ggmt")["details"]["mu"], ".17g") in text


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
                                         bracket_width=1e-9, converged=True,
                                         departure_sign_low=-1,
                                         departure_sign_high=1, trail=trail,
                                         max_solve_defect=1e-17)]

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
    # the bisection trail and the solve guard reach the report
    assert summary["details"]["trail"] == [
        [-4.0 * size, -1, 0.5], [4.0 * size, 1, 0.75],
        [0.05 * abs(amp), 1, None]]
    assert summary["details"]["max_solve_defect"] == 1e-17


def test_readme_config_example_loads(tmp_path, monkeypatch):
    # the ```ini block of README.md, as written, inline comments included
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme.read_text(),
                          re.MULTILINE | re.DOTALL)
    (tmp_path / "example.ini").write_text(block)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--config", "example.ini", "profile-check"]) == 0
    cfg = cli.RunConfig.load("example.ini", {})
    assert cfg["grid", "n"] == 400 and cfg["grid", "stretch"] == "uniform"
    assert cfg["evolve", "amplitude"] == 1e-3
    assert (tmp_path / cfg["output", "dir"] / "profile_check_summary.json").exists()
