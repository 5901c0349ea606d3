"""The benchmark's tracer patches program functions by name: renaming one breaks it.

``perfbench/tracer.py`` wraps module attributes of ``gruschin`` from outside the
package.  This test installs it, runs a small panel and a five-check suite
that includes the A5 and Lemma 3.1 grids and the L^q cases, and checks that
the spans it relies on are recorded and that ``restore`` undoes every patch.
The suite's L^q cases run through ``estimate_lq_moments``, which the tracer
does not wrap, so ``estimate_lq_moment`` is called on its own for its span.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from gruschin import analysis, cli, estimators, models, paths, rng, weights
from gruschin.cli import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer.Tracer
    sys.modules.pop("tracer", None)


def test_tracer_sees_the_program_and_restores_it(tmp_path, tracer_cls):
    patched = [(estimators, "bismut_panel"), (estimators, "pairwise_sum"),
               (paths, "simulate_basic_batch"), (paths, "simulate_extended_batch"),
               (weights, "weight_terms_shared"), (weights, "spd_solve"),
               (estimators, "estimate_lq_moment"),
               (analysis, "check_a5"), (analysis, "check_lemma31"),
               (analysis, "check_lemma_ll"),
               (analysis, "check_harnack_suite"),
               (cli, "run_experiment"), (cli, "_run_bismut_vs_fd"),
               (cli, "_run_reduction"), (cli, "bismut_panel"),
               (rng.PathStreams, "fill_normals")]
    originals = [getattr(owner, name) for owner, name in patched]
    config = {
        "model": {"builtin": "power_law", "m": 1, "d": 1, "l": 1.0},
        "run": {"horizons": [1.0], "points": [[1.0, 1.0]],
                "directions": [[[1.0], [0.0]]], "n_paths": 200, "n_steps": 10,
                "master_seed": 3, "functions": ["y_squared"]},
        "suite": {"checks": ["bismut_vs_fd", "a5", "lemma31", "lemma_ll", "reduction"]},
    }
    tr = tracer_cls()
    tr.install()
    try:
        model = models.make_power_law_model(1, 1, 1.0)
        estimators.bismut_panel(model, [1.0, 0.0], 1.0, [models.observable("sin_y", model)],
                                [models.Direction.make(1.0, 0.0)], 64, 4, 1)
        estimators.estimate_lq_moment("constant_unit", 2.0, 1.0, 64, 4, 1)
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(config)))
        code, _ = cli.run_experiment(cfg, out_dir=str(tmp_path))
    finally:
        tr.restore()
    assert code == 0
    names = {span[0] for span in tr.spans}
    for name in ("estimators.bismut_panel", "estimators.fd_panel", "cli.run_experiment",
                 "cli._run_bismut_vs_fd", "cli._run_reduction", "paths.scalar",
                 "paths.extended", "weights.weight_terms", "rng.fill_normals",
                 "analysis.check_a5", "analysis.check_lemma31",
                 "estimators.estimate_lq_moment", "analysis.check_lemma_ll"):
        assert name in names, name
    for (owner, name), original in zip(patched, originals):
        assert getattr(owner, name) is original, name


def test_tracer_names_resolve_in_the_program(tracer_cls):
    # the tracer looks these names up with getattr and fails only when traced
    tracer = sys.modules["tracer"]
    missing = [fn for fn in tracer.ESTIMATORS if not hasattr(estimators, fn)]
    missing += [fn for fn in tracer.CHECKS if not hasattr(analysis, fn)]
    fields = {f.name for f in dataclasses.fields(models.ModelSpec)}
    missing += [name for name in tracer.COEFF_FIELDS if name not in fields]
    assert not missing, missing
    assert rng.PathStreams(1).substream == 0
