"""Config validation, artifact generation, reproducibility, subcommands."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from gruschin import analysis, cli, estimators, models
from gruschin.analysis import (
    DEFAULT_CALIBRATION_GRID,
    DEFAULT_HOLDOUT_GRID,
    McParams,
    check_harnack,
)
from gruschin.cli import ConfigError, ExperimentConfig, main, run_experiment
from gruschin.estimators import estimate_pt
from gruschin.models import builtin_model, observable
from gruschin.rng import derive_seed

MINIMAL = {
    "model": {"builtin": "power_law", "m": 1, "d": 1, "l": 1.0},
    "run": {
        "horizons": [1.0],
        "points": [[1.0, 1.0]],
        "directions": [[[1.0], [0.0]]],
        "n_paths": 2000,
        "n_steps": 50,
        "master_seed": 99,
        "functions": ["y_squared"],
    },
    "suite": {"checks": ["bismut_vs_fd"]},
    "output": {"directory": "out", "formats": ["csv", "json", "markdown"]},
}


def write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def test_missing_master_seed_names_the_field(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    del body["run"]["master_seed"]
    with pytest.raises(ConfigError, match="master_seed"):
        ExperimentConfig.from_file(write_config(tmp_path, body))


@pytest.mark.parametrize("mutate,needle", [
    (lambda b: b["run"].update(n_paths=50), "n_paths"),
    (lambda b: b["run"].update(n_steps=1), "n_steps"),
    (lambda b: b["run"].update(horizons=[]), "horizons"),
    (lambda b: b["run"].update(points=[]), "points"),
    (lambda b: b["run"].update(directions=[]), "directions"),
    (lambda b: b["suite"].update(checks=["nope"]), "nope"),
    (lambda b: b["output"].update(formats=["xml"]), "xml"),
    (lambda b: b["run"].update(functions=["mystery"]), "mystery"),
    (lambda b: b["model"].update(builtin="mystery"), "model.builtin"),
])
def test_validation_errors_name_offending_fields(tmp_path, mutate, needle):
    body = json.loads(json.dumps(MINIMAL))
    mutate(body)
    with pytest.raises(ConfigError, match=needle):
        ExperimentConfig.from_file(write_config(tmp_path, body))


MINIMAL_FILE = Path(__file__).resolve().parents[1] / "configs" / "minimal.json"


@pytest.mark.parametrize("mutate,needle", [
    (lambda b: b["suite"].update(overrides={"bismut_vs_fd": {"n_path": 10}}),
     "suite.overrides.bismut_vs_fd"),
    (lambda b: b["suite"].update(overrides={"bismut_vs_fd": {"n_steps": 1}}),
     "suite.overrides.bismut_vs_fd.n_steps"),
    (lambda b: b["suite"].update(overrides={"bismut_vs_fd": {"n_paths": 1}}),
     "suite.overrides.bismut_vs_fd.n_paths"),
    (lambda b: b["suite"].update(overrides=[]), "suite.overrides must be a mapping"),
    (lambda b: b["run"].update(fd_eps=-1), "run.fd_eps"),
    (lambda b: b["run"].update(fd_eps=float("inf")), "run.fd_eps"),
    (lambda b: b["run"].update(directions=[[1.0, 0.0]]), r"run.directions\[0\]"),
    (lambda b: b["run"].update(points=[1.0]), r"run.points\[0\]"),
    (lambda b: b["run"].update(points=1.0), "run.points"),
    (lambda b: b.update(model=5), "model must be a mapping"),
    (lambda b: b["run"].update(horizons=["x"]), "run.horizons"),
    (lambda b: b["run"].update(master_seed="abc"), "run.master_seed"),
    (lambda b: b["model"].update(l=float("nan")), "model.l"),
    (lambda b: b["run"].update(points=[[1.0, float("nan")]]),
     r"run.points\[0\] must be a list of finite numbers"),
    (lambda b: b["run"].update(directions=[[[1.0], [float("inf")]]]),
     r"run.directions\[0\]\[1\]"),
    # a string or a boolean is not a number, and a count or a seed is integral
    (lambda b: b["run"].update(n_paths="1000"), "run.n_paths must be a number"),
    (lambda b: b["run"].update(n_paths=1000.9), "run.n_paths must be an integer"),
    (lambda b: b["run"].update(n_steps=True), "run.n_steps must be a number"),
    (lambda b: b["run"].update(master_seed=7.5), "run.master_seed must be an integer"),
    (lambda b: b["model"].update(m=True), "model.m must be a number"),
    (lambda b: b["model"].update(l="1.0"), "model.l must be a number"),
    (lambda b: b["run"].update(fd_eps="0.01"), "run.fd_eps must be a number"),
    (lambda b: b["run"].update(horizons=["1.0"]), r"run\.horizons must be a list"),
    (lambda b: b["run"].update(points=[["1.0", 1.0]]), r"run\.points\[0\] must be a list"),
    (lambda b: b["run"].update(directions=[[[True], [0.0]]]), r"run.directions\[0\]\[0\]"),
    (lambda b: b["suite"].update(overrides={"a5": {"n_paths": 500.5}}),
     "suite.overrides.a5.n_paths must be an integer"),
    (lambda b: b["suite"].update(overrides={"a5": {"n_steps": "20"}}),
     "suite.overrides.a5.n_steps must be a number"),
    # a repeated entry would write each of its rows twice
    (lambda b: b["suite"].update(checks=["bismut_vs_fd", "bismut_vs_fd"]),
     "suite.checks lists 'bismut_vs_fd' more than once"),
    (lambda b: b["run"].update(functions=["y_squared", "y_squared"]),
     "run.functions lists 'y_squared' more than once"),
    (lambda b: b["run"].update(points=[[1.0, 1.0], [0.5, 0.0], [1.0, 1.0]]),
     "run.points lists .* more than once"),
    (lambda b: b["run"].update(directions=[[[1.0], [0.0]], [[1.0], [0.0]]]),
     "run.directions lists .* more than once"),
    (lambda b: b["run"].update(horizons=[1.0, 1]), "run.horizons lists 1.0 more than once"),
    (lambda b: b["output"].update(directory=None), "output.directory must be a non-empty string"),
    (lambda b: b["output"].update(directory=5), "output.directory must be a non-empty string"),
    (lambda b: b["output"].update(directory=""), "output.directory must be a non-empty string"),
])
def test_malformed_config_fields_exit_2_naming_the_field(tmp_path, capsys, mutate, needle):
    body = json.loads(MINIMAL_FILE.read_text())
    mutate(body)
    cfg_path = write_config(tmp_path, body)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and re.search(needle, err), err
    assert not (tmp_path / "out").exists()


def test_integral_float_counts_are_stored_as_integers():
    body = json.loads(json.dumps(MINIMAL))
    body["run"].update(n_paths=1e4, n_steps=50.0, master_seed=7.0)
    body["suite"]["overrides"] = {"bismut_vs_fd": {"n_paths": 500.0}}
    cfg = ExperimentConfig.from_dict(body)
    assert (cfg.run.n_paths, cfg.run.n_steps, cfg.run.master_seed) == (10_000, 50, 7)
    assert cfg.suite.overrides == {"bismut_vs_fd": {"n_paths": 500}}
    assert all(type(v) is int for v in (cfg.run.n_paths, cfg.run.n_steps, cfg.run.master_seed,
                                        cfg.suite.overrides["bismut_vs_fd"]["n_paths"]))


def test_default_config_with_its_directions_reversed_passes_the_agreement_check(tmp_path):
    # the y-direction, listed first, must be weighted as itself
    body = json.loads((MINIMAL_FILE.parent / "default.json").read_text())
    body["run"]["directions"].reverse()
    body["suite"]["checks"] = ["bismut_vs_fd"]
    assert main(["run", str(write_config(tmp_path, body)), "--out", str(tmp_path / "out")]) == 0


def test_minimal_run_produces_expected_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict(MINIMAL)
    code, lines = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    assert any("BismutVsFD" in ln for ln in lines)
    csv_text = (tmp_path / "out" / "results.csv").read_text()
    rows = csv_text.strip().splitlines()
    assert rows[0].startswith("experiment_id,quantity,mean")
    body = rows[1:]
    assert len(body) == 2  # one combo: a weight row and a finite-difference row
    assert any(",grad_bismut," in r for r in body)
    assert any(",grad_fd," in r for r in body)
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert len(payload["rows"]) == 2
    assert payload["checks"][0]["verdict"] == "BoundedConstantFound"
    assert "fitted_constant" not in payload["checks"][0]
    assert "## BismutVsFD: passed" in (tmp_path / "out" / "report.md").read_text()


def test_failing_agreement_check_fails_the_run(tmp_path, monkeypatch):
    # no weight/FD gap fits inside a negative allowance
    monkeypatch.setattr(cli, "FD_BIAS_ALLOWANCE", -1e6)
    cfg = ExperimentConfig.from_dict(MINIMAL)
    code, lines = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 1
    assert any("BismutVsFD: FAILED" in ln for ln in lines)
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    (entry,) = payload["checks"]
    assert entry["verdict"] == "Violated"
    assert "FAILED" in entry["summary"]
    assert "fitted_constant" not in entry
    report = (tmp_path / "out" / "report.md").read_text()
    assert "## BismutVsFD: **VIOLATED**" in report
    assert "BoundedConstantFound" not in report
    assert report.count("BismutVsFD") == 2   # the heading and its detail line


BOUND_CHECKS = ("a5", "a6", "lemma31", "lemma_ll", "harnack")


@pytest.fixture(scope="module")
def bound_rows(tmp_path_factory):
    """results.csv of a small run of every bound-ratio check."""
    body = json.loads(json.dumps(MINIMAL))
    body["run"].update(points=[[1.0, 0.0]], n_paths=200, n_steps=20)
    body["suite"] = {"checks": list(BOUND_CHECKS)}
    out = tmp_path_factory.mktemp("bound_rows")
    run_experiment(ExperimentConfig.from_dict(body), out_dir=str(out))
    return (out / "results.csv").read_text()


def test_bound_ratio_rows_carry_path_counts(bound_rows):
    rows = list(csv.DictReader(io.StringIO(bound_rows)))
    prefixes = {r["experiment_id"].split("/")[0] for r in rows}
    assert prefixes == {"A5", "A6", "Lemma31", "LemmaLL", "A8"}
    for r in rows:
        assert int(r["n_valid"]) + int(r["n_invalid"]) == 200, r["experiment_id"]


def test_results_csv_has_no_numpy_reprs(bound_rows):
    assert "np." not in bound_rows
    rows = list(csv.DictReader(io.StringIO(bound_rows)))
    a5 = [r for r in rows if r["experiment_id"].startswith("A5/")]
    assert {r["v"] for r in a5} == {"1.0|0.0", "0.0|1.0"}


def test_a5_and_a6_rows_of_a_grid_point_share_its_seed(bound_rows):
    rows = list(csv.DictReader(io.StringIO(bound_rows)))
    seeds = {"A5": {}, "A6": {}}
    for r in rows:
        check, phase, label = r["experiment_id"].split("/")
        if check in seeds:
            point = (phase,) + tuple(label.split(",")[:2])   # (phase, "T=..", "x=..")
            seeds[check].setdefault(point, set()).add(r["seed"])
    assert len(seeds["A5"]) == len(DEFAULT_CALIBRATION_GRID) + len(DEFAULT_HOLDOUT_GRID)
    assert seeds["A5"] == seeds["A6"]
    assert all(len(s) == 1 for s in seeds["A5"].values())


def _count_grid_panels(monkeypatch):
    """The n_paths of every grid point built, one entry per point of each
    ``bismut_panels`` call."""
    calls = []
    real = analysis.bismut_panels

    def counting(model, points, *args, **kwargs):
        calls.extend([args[2]] * len(points))   # n_paths
        return real(model, points, *args, **kwargs)

    monkeypatch.setattr(analysis, "bismut_panels", counting)
    return calls


def test_a5_and_a6_build_one_panel_per_grid_point(tmp_path, monkeypatch):
    calls = _count_grid_panels(monkeypatch)
    body = json.loads(json.dumps(MINIMAL))
    body["run"].update(points=[[1.0, 0.0]], n_paths=200, n_steps=10)
    body["suite"] = {"checks": ["a5", "a6"]}
    code, _ = run_experiment(ExperimentConfig.from_dict(body), out_dir=str(tmp_path))
    assert code == 0
    assert len(calls) == len(DEFAULT_CALIBRATION_GRID) + len(DEFAULT_HOLDOUT_GRID) == 13
    assert "verdicts are correlated" in (tmp_path / "report.md").read_text()


def test_a6_override_gets_its_own_grid(tmp_path, monkeypatch):
    calls = _count_grid_panels(monkeypatch)
    body = json.loads(json.dumps(MINIMAL))
    body["run"].update(points=[[1.0, 0.0]], n_paths=200, n_steps=10)
    body["suite"] = {"checks": ["a5", "a6"], "overrides": {"a6": {"n_paths": 300}}}
    code, _ = run_experiment(ExperimentConfig.from_dict(body), out_dir=str(tmp_path))
    assert code == 0
    assert sorted(calls) == [200] * 13 + [300] * 13
    rows = list(csv.DictReader(io.StringIO((tmp_path / "results.csv").read_text())))
    for r in rows:
        size = 300 if r["experiment_id"].startswith("A6/") else 200
        assert int(r["n_valid"]) + int(r["n_invalid"]) == size, r["experiment_id"]


def test_rerun_and_worker_count_are_byte_identical(tmp_path):
    cfg = ExperimentConfig.from_dict(MINIMAL)
    run_experiment(cfg, workers=1, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, workers=1, out_dir=str(tmp_path / "b"))
    run_experiment(cfg, workers=4, out_dir=str(tmp_path / "c"))
    ref = (tmp_path / "a" / "results.csv").read_bytes()
    assert (tmp_path / "b" / "results.csv").read_bytes() == ref
    assert (tmp_path / "c" / "results.csv").read_bytes() == ref
    refj = (tmp_path / "a" / "results.json").read_bytes()
    assert (tmp_path / "c" / "results.json").read_bytes() == refj


def test_harnack_only_suite_runs_internal_fit(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["suite"] = {"checks": ["harnack"],
                     "overrides": {"harnack": {"n_paths": 2000, "n_steps": 30}}}
    cfg = ExperimentConfig.from_dict(body)
    code, lines = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    assert any("A8" in ln for ln in lines)


def test_harnack_gaussian_model_uses_exact_constant(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "constant_identity", "m": 1, "d": 1}
    body["suite"] = {"checks": ["harnack"],
                     "overrides": {"harnack": {"n_paths": 2000, "n_steps": 30}}}
    cfg = ExperimentConfig.from_dict(body)
    code, lines = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    assert any("BoundedConstantFound" in ln for ln in lines)


def test_harnack_rows_carry_the_seed_of_their_estimates(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "constant_identity", "m": 1, "d": 1}
    body["suite"] = {"checks": ["harnack"],
                     "overrides": {"harnack": {"n_paths": 500, "n_steps": 20}}}
    code, _ = run_experiment(ExperimentConfig.from_dict(body), out_dir=str(tmp_path))
    assert code == 0
    model = builtin_model("constant_identity", 1, 1, 1.0)
    f = observable("one_plus_tanh_y", model)
    f_sq = models.TestFunction(name="f^2", eval=lambda w: f.eval(w) ** 2)
    mc = McParams(500, 20, MINIMAL["run"]["master_seed"])
    rows = list(csv.DictReader(io.StringIO((tmp_path / "results.csv").read_text())))
    assert len(rows) == 4
    for r in rows:
        z = tuple(float(c) for c in r["z0"].split(";"))
        zp = tuple(float(c) for c in r["v"].split(";"))
        seed = int(r["seed"])
        # one seed for every row of the check
        assert seed == derive_seed(mc.seed, f"harnack:{f.name}:1.0")
        pt = check_harnack(model, 1.0, z, zp, f, 1.0, mc)
        assert (seed, int(r["n_valid"]), int(r["n_invalid"])) == (pt.seed, pt.n_valid,
                                                                  pt.n_invalid)
        assert (float(r["mean"]), float(r["stderr"])) == (pt.ratio, pt.tolerance / 4.0)
        # the row's seed drives its estimates: P f(z') / rhs from estimate_pt,
        # with the exact distance and C = 1 of the heat family at T = 1
        p_zp, p_z, p_sq = (estimate_pt(model, g, w, 1.0, mc.n_paths, mc.n_steps, seed).mean
                           for g, w in ((f, zp), (f, z), (f_sq, zp)))
        rho = analysis.euclidean_distance(z, zp)
        assert pt.ratio == p_zp / (p_z + 1.0 * rho * math.sqrt(p_sq))


def test_a5_on_constant_identity_is_a_config_error(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "constant_identity", "m": 1, "d": 1}
    body["suite"] = {"checks": ["a5"]}
    cfg_path = write_config(tmp_path, body)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2


def test_extended_demo_suite_runs(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "extended_demo", "m": 1, "d": 1}
    body["run"]["n_paths"] = 1000
    body["run"]["n_steps"] = 30
    body["suite"] = {"checks": ["bismut_vs_fd", "reduction"]}
    cfg = ExperimentConfig.from_dict(body)
    code, lines = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert code == 0
    assert any("skipped: model already extended" in ln for ln in lines)


def test_tilted_matrix_suite_runs(tmp_path, capsys):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "tilted_matrix", "m": 1, "d": 2}
    body["run"]["points"] = [[1.0, 0.0, 0.5]]
    body["run"]["directions"] = [[[1.0], [0.0, 0.0]], [[0.0], [0.0, 1.0]]]
    body["run"]["n_steps"] = 30
    body["suite"] = {"checks": ["bismut_vs_fd", "reduction"]}
    code, lines = run_experiment(ExperimentConfig.from_dict(body),
                                 out_dir=str(tmp_path / "out"))
    assert code == 0
    assert any(ln.startswith("ExtendedReduction: passed") for ln in lines)
    assert main(["list-builtins"]) == 0
    assert "tilted_matrix" in capsys.readouterr().out


@pytest.mark.parametrize("builtin,m,d", [("tilted_matrix", 1, 1), ("extended_demo", 1, 2)])
def test_fixed_shape_builtin_refuses_other_dimensions(tmp_path, builtin, m, d):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": builtin, "m": m, "d": d}
    body["run"]["points"] = [[1.0] * (m + d)]
    body["run"]["directions"] = [[[1.0] * m, [0.0] * d]]
    with pytest.raises(ConfigError, match=builtin):
        ExperimentConfig.from_file(write_config(tmp_path, body))


def test_bad_power_exponent_is_a_config_error(tmp_path, capsys):
    body = json.loads(json.dumps(MINIMAL))
    body["model"]["l"] = 0.5
    cfg_path = write_config(tmp_path, body)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "l >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_harnack_pairs_of_the_default_point():
    body = json.loads((MINIMAL_FILE.parent / "default.json").read_text())
    cfg = ExperimentConfig.from_dict(body)
    assert cli._harnack_pairs(cfg.run.points, cfg.model.m) == [
        ((1.0, 0.0), (1.0, 0.5)), ((1.0, 0.0), (1.5, 0.0)),
        ((0.5, 0.0), (1.0, 0.5)), ((1.0, -0.5), (1.0, 0.5))]


@pytest.mark.parametrize("model,points", [
    ({"builtin": "tilted_matrix", "m": 1, "d": 2}, [[1.0, 0.0, 0.0]]),
    ({"builtin": "power_law", "m": 2, "d": 1, "l": 1.0}, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
])
def test_harnack_runs_on_three_coordinates(tmp_path, model, points):
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = model
    body["run"]["points"] = points
    body["run"]["directions"] = [[[1.0] * model["m"], [0.0] * model["d"]]]
    body["suite"] = {"checks": ["harnack"],
                     "overrides": {"harnack": {"n_paths": 500, "n_steps": 20}}}
    cfg_path = write_config(tmp_path, body)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "results.csv").read_text())))
    assert len(rows) == 4 * len(points)
    assert all(r["quantity"] == "a8_ratio" for r in rows)


def test_harnack_constant_does_not_depend_on_the_check_order(tmp_path):
    # the constant is the configured a6 fit, whether a6 is listed first or last
    body = json.loads((MINIMAL_FILE.parent / "default.json").read_text())
    body["run"].update(n_paths=200, n_steps=10)
    a8_rows = []
    for checks in (["a6", "harnack"], ["harnack", "a6"]):
        body["suite"]["checks"] = checks
        out = tmp_path / "_".join(checks)
        run_experiment(ExperimentConfig.from_dict(body), out_dir=str(out))
        a8_rows.append([ln for ln in (out / "results.csv").read_text().splitlines()
                        if ln.startswith('"A8/')])
    assert len(a8_rows[0]) == 4
    assert a8_rows[0] == a8_rows[1]


@pytest.mark.parametrize("argv", [
    ["run", "{cfg}", "--workers", "-3"],
    ["run", "{cfg}", "--workers", "0"],
    ["dump-paths", "{cfg}", "--max-paths", "-5"],
    ["dump-paths", "{cfg}", "--max-paths", "0"],
])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    cfg_path = write_config(tmp_path, MINIMAL)
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg_path) for a in argv] + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reduction_holds_at_m2_on_an_oblique_direction(tmp_path):
    # both kernels read the direction off their axis slots e_1, e_2
    body = json.loads(json.dumps(MINIMAL))
    body["model"] = {"builtin": "power_law", "m": 2, "d": 1, "l": 1.0}
    body["run"].update(points=[[1.0, 0.5, 0.0]], directions=[[[0.6, -0.8], [0.3]]])
    body["suite"] = {"checks": ["reduction"]}
    cfg_path = write_config(tmp_path, body)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    (row,) = csv.DictReader(io.StringIO((tmp_path / "out" / "results.csv").read_text()))
    assert row["quantity"] == "max_pathwise_gap" and float(row["mean"]) <= 1e-12


def test_reduction_artifacts_do_not_depend_on_workers(tmp_path):
    body = json.loads(json.dumps(MINIMAL))
    body["suite"] = {"checks": ["reduction"]}
    cfg = ExperimentConfig.from_dict(body)
    run_experiment(cfg, workers=1, out_dir=str(tmp_path / "w1"))
    code, _ = run_experiment(cfg, workers=2, out_dir=str(tmp_path / "w2"))
    assert code == 0
    for name in ("results.csv", "results.json", "report.md"):
        assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


def test_bismut_vs_fd_panels_each_map_their_batches_over_one_pool(monkeypatch):
    # the (T, z0) panels run one after another, and each maps its two batches
    # of 1,024 and 976 paths over a pool of its own
    body = json.loads(json.dumps(MINIMAL))
    body["run"]["horizons"] = [0.5, 1.0]
    cfg = ExperimentConfig.from_dict(body)
    model = builtin_model("power_law", 1, 1, 1.0)
    serial_rows, serial_rep = cli._run_bismut_vs_fd(cfg, model, 1)
    built = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Counting)
    rows, rep = cli._run_bismut_vs_fd(cfg, model, 2)
    assert built == [2] * 4   # a bismut and an fd panel per horizon
    assert rows == serial_rows and len(rows) == 4
    assert rep.summary_line() == serial_rep.summary_line()


def test_cli_run_exit_codes(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    bad = json.loads(json.dumps(MINIMAL))
    del bad["run"]["master_seed"]
    bad_path = write_config(tmp_path, bad, "bad.json")
    assert main(["run", str(bad_path)]) == 2


def test_list_builtins_catalogue(capsys):
    assert main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    for needle in ("power_law", "constant_identity", "extended_demo",
                   "y^2 + x^2 T + T^2/2", "constant_unit", "adapted_cos",
                   "sigma_row"):
        assert needle in out


def test_dump_paths(tmp_path):
    cfg_path = write_config(tmp_path, MINIMAL)
    code = main(["dump-paths", str(cfg_path), "--out", str(tmp_path / "dump"),
                 "--max-paths", "100"])
    assert code == 0
    lines = (tmp_path / "dump" / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == ("path_index,B_T,X_T,Y_T,min_eig_QT,valid,"
                        "term_drift,term_trace,term_inner,M_T")
    assert len(lines) == 101


def test_module_entry_point_runs():
    root = MINIMAL_FILE.parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "gruschin", "list-builtins"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "power_law" in proc.stdout


def test_gradient_demo_script_runs():
    root = MINIMAL_FILE.parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "gradient_demo.py"),
                           "--n-paths", "200", "--n-steps", "10"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "y_squared" in proc.stdout
