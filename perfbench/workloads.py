"""The four benchmark workloads, each driven through the public ``gruschin`` API.

A workload is built from a seed (``build``), then timed one pass at a time
(``run_pass``).  Every pass of a workload draws the same Monte Carlo seeds,
derived from the seed it was built with, so the same seed gives the same
inputs.  Each run checks two sets of outputs:

- the reference pass, built from ``reference_seed`` (the master seed of
  ``configs/default.json``), is checked against the library's own 4-sigma
  oracles (``check``).  Its inputs are the same in every run, so a run checks
  the same estimates as every other run of the same code;
- the timed passes, built from the benchmark seed, are checked for invalid
  paths and non-finite estimates (``validate``), and the determinism probe
  requires each to reproduce the first bit for bit (``fingerprint``).

Program entry points are called through their modules (``cli.run_experiment``,
``estimators.bismut_panel``) so that the traced run sees them.  Sizes are
chosen so that a 25 s run holds several pass pairs on a 2-core host; see
README.md.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gruschin import cli, estimators
from gruschin.cli import FD_BIAS_ALLOWANCE, ExperimentConfig
from gruschin.models import (
    Direction,
    ModelKind,
    ModelSpec,
    builtin_model,
    crosscheck_suite,
    make_extended_demo_model,
    make_power_law_model,
    observable,
)

PANEL_OBSERVABLES = ("sin_y", "y_squared", "x_plus_y", "tanh_y")
PANEL_STEPS = 100
PANEL_HORIZON = 1.0
WARMUP_PATHS, WARMUP_STEPS = 64, 4


def reference_seed(root: Path) -> int:
    """The seed of the reference pass: the master seed users run with."""
    raw = json.loads((root / "configs" / "default.json").read_text())
    return int(raw["run"]["master_seed"])


def derived_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one named input, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Op:
    """Outcome of one operation: an estimate or a check."""

    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# suite_default: the command users run
# ---------------------------------------------------------------------------

SUITE_PATH_DIVISOR = 8


class SuiteDefault:
    """``cli.run_experiment`` on ``configs/default.json`` with a seeded master seed.

    ``run.n_paths`` is divided by SUITE_PATH_DIVISOR so that a run holds several
    passes; every check, grid and step count stays as configured.
    """

    name = "suite_default"

    def __init__(self, root: Path, seed: int, work: Path):
        self.raw = json.loads((root / "configs" / "default.json").read_text())
        self.raw["run"]["n_paths"] //= SUITE_PATH_DIVISOR
        self.raw["run"]["master_seed"] = derived_seed(seed, "suite_default")
        self.work = work
        self._count = 0

    def warm_up(self) -> None:
        cfg = ExperimentConfig.from_dict(self.raw)
        model = builtin_model(cfg.model.builtin, cfg.model.m, cfg.model.d, cfg.model.l)
        v = Direction.make(*cfg.run.directions[0])
        estimators.bismut_panel(model, list(cfg.run.points[0]), cfg.run.horizons[0],
                                crosscheck_suite(model)[:1], [v],
                                WARMUP_PATHS, WARMUP_STEPS, 1)

    def trace_inputs(self, tracer) -> "SuiteDefault":
        # the suite builds its model and observables inside run_experiment
        tracer.trace_builtin_models()
        return self

    def run_pass(self, workers: int):
        self._count += 1
        out = self.work / f"suite_{self._count}"
        cfg = ExperimentConfig.from_dict(self.raw)
        code, _ = cli.run_experiment(cfg, workers=workers, out_dir=str(out))
        return {"out": out, "code": code}

    def finish(self, outcome) -> dict:
        """Read the artifacts, then remove them; returns the data the checks use."""
        out = outcome["out"]
        csv_bytes = (out / "results.csv").read_bytes()
        payload = json.loads((out / "results.json").read_text())
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return {"code": outcome["code"], "csv": csv_bytes, "json": payload,
                "artifact_bytes": artifact_bytes}

    def validate(self, done: dict) -> list[Op]:
        """Every gradient row has no invalid path and a finite mean and stderr."""
        ops = []
        for r in done["json"]["rows"]:
            if r["quantity"] in ("grad_bismut", "grad_fd"):
                ok = (int(r["n_invalid"]) == 0 and math.isfinite(float(r["mean"]))
                      and math.isfinite(float(r["stderr"])))
                ops.append(Op(f"estimate {r['experiment_id']} {r['quantity']}", ok,
                              f"mean {r['mean']} stderr {r['stderr']} "
                              f"invalid {r['n_invalid']}"))
        return ops

    def check(self, done: dict) -> list[Op]:
        ops = self.validate(done)
        for c in done["json"]["checks"]:
            ok = c["verdict"] != "Violated"
            ops.append(Op(f"check {c['name']}", ok, c["summary"]))
            if not ok and c["name"] == "BismutVsFD":
                ops[-1].detail += "\n" + "\n".join(_failing_bvf_rows(done["json"]["rows"]))
        ops.append(Op("exit code", done["code"] == 0, f"run_experiment returned {done['code']}"))
        return ops

    def fingerprint(self, done: dict) -> str:
        return hashlib.sha256(done["csv"]).hexdigest()

    def stderrs(self, done: dict) -> list[float]:
        return [float(r["stderr"]) for r in done["json"]["rows"]
                if r["quantity"] in ("grad_bismut", "grad_fd")]

    def artifact_bytes(self, done: dict) -> int:
        return done["artifact_bytes"]


def _failing_bvf_rows(rows: list[dict]) -> list[str]:
    """The weight/FD row pairs that break the gate's 4 sigma + allowance rule."""
    pairs: dict[str, dict] = {}
    for r in rows:
        if r["quantity"] in ("grad_bismut", "grad_fd"):
            pairs.setdefault(r["experiment_id"], {})[r["quantity"]] = r
    bad = []
    for eid, p in sorted(pairs.items()):
        b, f = p["grad_bismut"], p["grad_fd"]
        gap = abs(float(b["mean"]) - float(f["mean"]))
        tol = 4.0 * math.hypot(float(b["stderr"]), float(f["stderr"])) + FD_BIAS_ALLOWANCE
        if gap > tol or int(b["n_invalid"]) or int(f["n_invalid"]):
            bad.append(f"  {eid}: bismut {b['mean']} +- {b['stderr']}, "
                       f"fd {f['mean']} +- {f['stderr']}, gap {gap:.3g} > tol {tol:.3g}")
    return bad


# ---------------------------------------------------------------------------
# Panel workloads: bismut_panel and fd_panel over observables x directions
# ---------------------------------------------------------------------------

def make_matrix_model() -> ModelSpec:
    """m=1, d=2 model with a genuinely non-diagonal sigma that vanishes at x = 0.

        sigma(x) = x * [[1, 1/2], [tanh(x)/2, 1]]

    det = x^2 (1 - tanh(x)/4) > 0 away from 0, and sigma sigma^* has nonzero
    off-diagonal entries, so the einsum kernel, eigvalsh and the Cholesky solve
    all do real work.
    """

    def sigma(x):
        xx = np.asarray(x)[..., 0]
        out = np.empty(xx.shape + (2, 2))
        out[..., 0, 0] = xx
        out[..., 0, 1] = 0.5 * xx
        out[..., 1, 0] = 0.5 * xx * np.tanh(xx)
        out[..., 1, 1] = xx
        return out

    def grad_sigma(x, v):
        xa = np.asarray(x)
        xx = xa[..., 0]
        vv = np.broadcast_to(np.asarray(v, dtype=float), xa.shape)[..., 0]
        t = np.tanh(xx)
        out = np.empty(xx.shape + (2, 2))
        out[..., 0, 0] = vv
        out[..., 0, 1] = 0.5 * vv
        out[..., 1, 0] = 0.5 * (t + xx * (1.0 - t * t)) * vv
        out[..., 1, 1] = vv
        return out

    return ModelSpec(m=1, d=2, kind=ModelKind.BASIC, sigma=sigma,
                     grad_sigma=grad_sigma, name="bench_matrix(m=1,d=2)")


class Panel:
    """Weight and finite-difference panels for every (observable, direction)."""

    def __init__(self, name, model, z0, vs, n_paths, seed):
        self.name = name
        self.model = model
        self.z0 = list(z0)
        self.vs = vs
        self.fs = [observable(n, model) for n in PANEL_OBSERVABLES]
        self.n_paths = n_paths
        self.seed_b = derived_seed(seed, f"{name}:bismut")
        self.seed_f = derived_seed(seed, f"{name}:fd")

    def warm_up(self) -> None:
        estimators.bismut_panel(self.model, self.z0, PANEL_HORIZON, self.fs[:1],
                                self.vs[:1], WARMUP_PATHS, WARMUP_STEPS, 1)

    def trace_inputs(self, tracer) -> "Panel":
        traced = copy.copy(self)
        traced.model = tracer.model(self.model)
        traced.fs = [tracer.test_function(f) for f in self.fs]
        return traced

    def run_pass(self, workers: int):
        # two batches, so that a workers=2 pass has two to overlap
        batch = self.n_paths // 2
        pb = estimators.bismut_panel(self.model, self.z0, PANEL_HORIZON, self.fs, self.vs,
                                     self.n_paths, PANEL_STEPS, self.seed_b, workers=workers,
                                     batch_size=batch)
        pf = estimators.fd_panel(self.model, self.z0, PANEL_HORIZON, self.fs, self.vs,
                                 self.n_paths, PANEL_STEPS, self.seed_f, workers=workers,
                                 batch_size=batch)
        return pb, pf

    def finish(self, outcome):
        return outcome

    def validate(self, done) -> list[Op]:
        """Every estimate has no invalid path and a finite mean and stderr."""
        pb, pf = done
        ops = []
        for panel in (pb, pf):
            for key, est in sorted(panel.items()):
                ok = (est.n_invalid == 0 and math.isfinite(est.mean)
                      and math.isfinite(est.stderr))
                ops.append(Op("estimate " + " ".join(map(str, key)), ok,
                              f"mean {est.mean!r} stderr {est.stderr!r} "
                              f"invalid {est.n_invalid}"))
        return ops

    def check(self, done) -> list[Op]:
        pb, pf = done
        ops = self.validate(done)
        x0 = np.asarray(self.z0[: self.model.m])
        y0 = np.asarray(self.z0[self.model.m:])
        for f in self.fs:
            exact_grad = (None if f.closed_form_grad_pt is None else
                          np.asarray(f.closed_form_grad_pt(PANEL_HORIZON, x0, y0), dtype=float))
            for j, v in enumerate(self.vs):
                b, d = pb[("grad", f.name, j)], pf[("grad_fd", f.name, j)]
                label = f"{f.name} v{j}"
                gap = abs(b.mean - d.mean)
                tol = 4.0 * math.hypot(b.stderr, d.stderr) + FD_BIAS_ALLOWANCE
                ops.append(Op(f"bismut vs fd {label}", gap <= tol,
                              f"bismut {b.mean:.6g} +- {b.stderr:.3g}, fd {d.mean:.6g} "
                              f"+- {d.stderr:.3g}, gap {gap:.3g} tol {tol:.3g}"))
                if exact_grad is not None:
                    want = float(exact_grad @ np.concatenate([v.v1, v.v2]))
                    # the gate's closed-form rules: 4 sigma for the weight, plus the
                    # central-difference allowance for FD
                    for kind, est, allow in (("bismut", b, 0.0), ("fd", d, FD_BIAS_ALLOWANCE)):
                        gap = abs(est.mean - want)
                        tol = 4.0 * est.stderr + allow
                        ops.append(Op(f"closed form {kind} {label}", gap <= tol,
                                      f"{est.mean:.6g} vs exact {want:.6g}, gap {gap:.3g} "
                                      f"tol {tol:.3g}"))
        return ops

    def fingerprint(self, done):
        pb, pf = done
        return tuple((k, e.mean, e.stderr, e.n_valid, e.n_invalid)
                     for panel in (pb, pf) for k, e in sorted(panel.items()))

    def stderrs(self, done) -> list[float]:
        pb, pf = done
        return [e.stderr for e in list(pb.values()) + list(pf.values())]

    def artifact_bytes(self, done) -> int:
        return 0


def _axes(m: int, d: int) -> list[Direction]:
    eye = np.eye(m + d)
    return [Direction.make(row[:m], row[m:]) for row in eye]


def build(name: str, root: Path, seed: int, work: Path):
    if name == "suite_default":
        return SuiteDefault(root, seed, work)
    if name == "panel_scalar":
        return Panel(name, make_power_law_model(1, 1, 1.0), [1.0, 1.0], _axes(1, 1),
                     16_384, seed)
    if name == "panel_extended":
        return Panel(name, make_extended_demo_model(), [1.0, 1.0], _axes(1, 1),
                     8_192, seed)
    if name == "panel_matrix":
        return Panel(name, make_matrix_model(), [1.0, 0.0, 0.0], _axes(1, 2),
                     2_048, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("suite_default", "panel_scalar", "panel_extended", "panel_matrix")
