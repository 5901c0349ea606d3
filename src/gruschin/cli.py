"""Configuration-driven experiment runs with deterministic artifacts.

Config files are JSON (documented in the README).  Every run writes a CSV of
estimate/ratio rows, a JSON mirror, and a Markdown verdict summary; reruns with
the same config are byte-identical, independent of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analysis as an
from .estimators import EstimationError, bismut_panel, fd_panel
from .models import (
    BUILTIN_MODELS,
    Direction,
    Family,
    ModelKind,
    ModelSpec,
    TEST_FUNCTION_NAMES,
    as_extended,
    bounded_suite,
    builtin_model,
    crosscheck_suite,
    observable,
)
from .paths import (
    TimeGrid,
    simulate_batch,
    standard_noise,
)
from .rng import derive_seed
from .weights import weight_terms_shared

__all__ = ["ConfigError", "ExperimentConfig", "run_experiment", "main"]

KNOWN_CHECKS = ("bismut_vs_fd", "a5", "a6", "lemma31", "lemma_ll", "harnack", "reduction")

# absolute allowance for the O(eps^2) central-difference bias in agreement checks
FD_BIAS_ALLOWANCE = 1e-3

# the path and step counts of a run, with their minima
MIN_COUNTS = {"n_paths": 100, "n_steps": 2}

CSV_FIELDS = ("experiment_id", "quantity", "mean", "stderr", "n_valid",
              "n_invalid", "seed", "T", "z0", "v", "n_steps")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


def _number(convert, value, name: str):
    """``convert(value)`` for ``convert`` int or float, or a ConfigError naming the
    field unless ``value`` is a finite number: a string or a boolean is refused,
    and so, for int, is a float with a fractional part (``1e4`` is a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not isinstance(value, numbers.Integral):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if convert is int and not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return convert(value)
    except OverflowError:   # an integer beyond the float range
        raise ConfigError(f"{name} must be finite, got {value!r}") from None


def _count(value, name: str, minimum: int) -> int:
    count = _number(int, value, name)
    if count < minimum:
        raise ConfigError(f"{name} must be at least {minimum}")
    return count


def _list(block: dict, key: str, name: str, default=()):
    """``block[key]``, or ``default`` when absent; a ConfigError names the field
    unless it is a list."""
    value = block.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _floats(value, name: str) -> tuple:
    """A list of finite numbers as a tuple of floats, or a ConfigError naming the field."""
    if isinstance(value, (list, tuple)):
        try:
            return tuple(_number(float, c, name) for c in value)
        except ConfigError:
            pass
    raise ConfigError(f"{name} must be a list of finite numbers, got {value!r}")


def _known_keys(block: dict, cls, prefix: str) -> None:
    """A ConfigError naming the first key of ``block`` that is not a field of
    ``cls``: a misspelt key would otherwise be ignored, and its default used."""
    known = tuple(f.name for f in fields(cls))
    for key in block:
        if key not in known:
            raise ConfigError(f"{prefix}{key} is not a known key; known: {known}")


def _distinct(values: tuple, name: str) -> tuple:
    """``values``, or a ConfigError naming the field if an entry repeats: a
    repeated entry would write each of its result rows twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} lists {value!r} more than once")
    return values


@dataclass(frozen=True)
class ModelConfig:
    builtin: str = "power_law"
    m: int = 1
    d: int = 1
    l: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    horizons: tuple
    points: tuple           # each point: tuple of m+d floats
    directions: tuple       # each direction: (v1 tuple, v2 tuple)
    n_paths: int
    n_steps: int
    master_seed: int
    functions: tuple = ()   # observable names for the agreement run; () = default suite


@dataclass(frozen=True)
class SuiteConfig:
    checks: tuple = KNOWN_CHECKS


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    run: RunConfig
    suite: SuiteConfig
    output: OutputConfig

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        def need(block: dict, block_name: str, key: str):
            if key not in block or block[key] is None:
                raise ConfigError(f"{block_name}.{key} is required")
            return block[key]

        if not isinstance(raw, dict):
            raise ConfigError("a config must be a JSON object")
        for block in ("model", "run"):
            if block not in raw:
                raise ConfigError(f"{block} block is required")
        _known_keys(raw, ExperimentConfig, "")
        for block, cls in (("model", ModelConfig), ("run", RunConfig),
                           ("suite", SuiteConfig), ("output", OutputConfig)):
            body = raw.get(block, {})
            if not isinstance(body, dict):
                raise ConfigError(f"{block} must be a mapping")
            _known_keys(body, cls, f"{block}.")
        mraw = raw["model"]
        builtin = mraw.get("builtin", "power_law")
        if builtin not in BUILTIN_MODELS:
            raise ConfigError(f"model.builtin must be one of {BUILTIN_MODELS}, got {builtin!r}")
        model = ModelConfig(
            builtin=builtin,
            m=_count(mraw.get("m", 1), "model.m", 1),
            d=_count(mraw.get("d", 1), "model.d", 1),
            l=_number(float, mraw.get("l", 1.0), "model.l"),
        )
        try:
            built = builtin_model(builtin, model.m, model.d, model.l)
        except ValueError as exc:
            raise ConfigError(f"model {builtin}: {exc}") from None
        # a builtin built for one shape only ignores model.m and model.d
        if (built.m, built.d) != (model.m, model.d):
            raise ConfigError(f"model {builtin} has (m, d) = ({built.m}, {built.d}), "
                              f"got ({model.m}, {model.d})")

        rraw = raw["run"]
        seed = need(rraw, "run", "master_seed")
        horizons = _distinct(_floats(rraw.get("horizons", ()), "run.horizons"), "run.horizons")
        if not horizons:
            raise ConfigError("run.horizons must be a nonempty list")
        if not all(t > 0 for t in horizons):
            raise ConfigError("run.horizons entries must be positive")
        points = _distinct(tuple(_floats(p, f"run.points[{i}]")
                                 for i, p in enumerate(_list(rraw, "points", "run.points"))),
                           "run.points")
        if not points:
            raise ConfigError("run.points must be a nonempty list")
        dim = model.m + model.d
        for p in points:
            if len(p) != dim:
                raise ConfigError(f"run.points entries must have length m+d={dim}")
        directions = []
        for i, pair in enumerate(_list(rraw, "directions", "run.directions")):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"run.directions[{i}] must be a pair [v1, v2], got {pair!r}")
            directions.append(tuple(_floats(part, f"run.directions[{i}][{k}]")
                                    for k, part in enumerate(pair)))
        directions = _distinct(tuple(directions), "run.directions")
        if not directions:
            raise ConfigError("run.directions must be a nonempty list")
        for v1, v2 in directions:
            if len(v1) != model.m or len(v2) != model.d:
                raise ConfigError("run.directions entries must have shapes (m, d)")
        n_paths = _count(need(rraw, "run", "n_paths"), "run.n_paths", MIN_COUNTS["n_paths"])
        n_steps = _count(need(rraw, "run", "n_steps"), "run.n_steps", MIN_COUNTS["n_steps"])
        functions = _distinct(tuple(_list(rraw, "functions", "run.functions")), "run.functions")
        for fname in functions:
            if fname not in TEST_FUNCTION_NAMES:
                raise ConfigError(f"run.functions contains unknown observable {fname!r}; "
                                  f"known: {TEST_FUNCTION_NAMES}")
        run = RunConfig(horizons=horizons, points=points, directions=directions,
                        n_paths=n_paths, n_steps=n_steps,
                        master_seed=_number(int, seed, "run.master_seed"),
                        functions=functions)

        sraw = raw.get("suite", {})
        checks = _distinct(tuple(_list(sraw, "checks", "suite.checks", KNOWN_CHECKS)),
                           "suite.checks")
        for c in checks:
            if c not in KNOWN_CHECKS:
                raise ConfigError(f"suite.checks contains unknown check {c!r}; "
                                  f"known: {KNOWN_CHECKS}")
        if not checks:
            raise ConfigError("suite.checks must be a nonempty list")
        suite = SuiteConfig(checks=checks)

        oraw = raw.get("output", {})
        directory = oraw.get("directory", "out")
        if not (isinstance(directory, str) and directory):
            raise ConfigError(f"output.directory must be a non-empty string, got {directory!r}")
        return ExperimentConfig(model=model, run=run, suite=suite,
                                output=OutputConfig(directory=directory))

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))


def _build_model(cfg: ExperimentConfig) -> ModelSpec:
    return builtin_model(cfg.model.builtin, cfg.model.m, cfg.model.d, cfg.model.l)


def _fmt_vec(values) -> str:
    return ";".join(repr(float(c)) for c in values)


def _fmt_dir(v: Direction) -> str:
    return _fmt_vec(v.v1) + "|" + _fmt_vec(v.v2)


def _fmt_ratio_v(v: tuple) -> str:
    """A ratio point's ``v``: a direction (v1, v2) as in ``_fmt_dir``, else a point."""
    if v and isinstance(v[0], tuple):
        return "|".join(_fmt_vec(part) for part in v)
    return _fmt_vec(v)


def _row(experiment_id, quantity, mean, stderr, n_valid, n_invalid, seed, T, z0, v, n_steps):
    return {
        "experiment_id": experiment_id,
        "quantity": quantity,
        "mean": repr(float(mean)),
        "stderr": repr(float(stderr)),
        "n_valid": int(n_valid),
        "n_invalid": int(n_invalid),
        "seed": int(seed),
        "T": repr(float(T)),
        "z0": z0,
        "v": v,
        "n_steps": int(n_steps),
    }


def _rows_from_bound_report(rep: an.BoundCheckReport) -> list[dict]:
    rows = []
    for p in rep.points:
        rows.append(_row(
            experiment_id=f"{rep.inequality_id}/{p.phase}/{p.label}",
            quantity=f"{rep.inequality_id.lower()}_ratio",
            mean=p.ratio, stderr=p.tolerance / an.BAND_SIGMAS,
            n_valid=p.n_valid, n_invalid=p.n_invalid, seed=p.seed, T=p.T,
            z0=_fmt_vec(p.z0), v=_fmt_ratio_v(p.v), n_steps=p.n_steps,
        ))
    return rows


def _agreement(name: str, passed: bool, detail: str) -> an.BoundCheckReport:
    """The record of a check of an exact formula against an oracle."""
    verdict = (an.BoundCheckVerdict.BOUNDED_CONSTANT_FOUND if passed
               else an.BoundCheckVerdict.VIOLATED)
    return an.BoundCheckReport(name, verdict=verdict, detail=detail)


def _run_bismut_vs_fd(cfg: ExperimentConfig, model: ModelSpec, workers: int):
    """Weight vs finite-difference gradients: one panel of each per (T, z0), in
    that order; each panel maps its batches over ``workers`` threads."""
    rows, n_bad, n_combos = [], 0, 0
    n_paths, n_steps, seed = cfg.run.n_paths, cfg.run.n_steps, cfg.run.master_seed
    if cfg.run.functions:
        fs = [observable(name, model) for name in cfg.run.functions]
    else:
        fs = crosscheck_suite(model)
    vs = [Direction.make(list(v1), list(v2)) for v1, v2 in cfg.run.directions]
    for T in cfg.run.horizons:
        for z0 in cfg.run.points:
            point = f"T={T}/z0={_fmt_vec(z0)}"
            sb = derive_seed(seed, f"bvf:bismut:{point}")
            pb = bismut_panel(model, list(z0), T, fs, vs, n_paths, n_steps, sb,
                              workers=workers)
            sf = derive_seed(seed, f"bvf:fd:{point}")
            pf = fd_panel(model, list(z0), T, fs, vs, n_paths, n_steps, sf,
                          workers=workers)
            for j, v in enumerate(vs):
                for f in fs:
                    n_combos += 1
                    label = f"{point}/v={_fmt_dir(v)}/f={f.name}"
                    gb, gf = pb[("grad", f.name, j)], pf[("grad_fd", f.name, j)]
                    tol = an.BAND_SIGMAS * math.hypot(gb.stderr, gf.stderr) + FD_BIAS_ALLOWANCE
                    if abs(gb.mean - gf.mean) > tol or gb.n_invalid or gf.n_invalid:
                        n_bad += 1
                    rows.append(_row(f"bismut_vs_fd/{label}", "grad_bismut",
                                     gb.mean, gb.stderr, gb.n_valid, gb.n_invalid,
                                     sb, T, _fmt_vec(z0), _fmt_dir(v), gb.n_steps))
                    rows.append(_row(f"bismut_vs_fd/{label}", "grad_fd",
                                     gf.mean, gf.stderr, gf.n_valid, gf.n_invalid,
                                     sf, T, _fmt_vec(z0), _fmt_dir(v), gf.n_steps))
    return rows, _agreement(
        "BismutVsFD", n_bad == 0,
        f"{n_combos - n_bad}/{n_combos} combos agree within "
        f"{an.BAND_SIGMAS:g}*stderr + {FD_BIAS_ALLOWANCE}",
    )


def _run_reduction(cfg: ExperimentConfig, model: ModelSpec):
    """The basic and the extended kernel on one walk of ``n_steps`` increments:
    the weights of the sigma1 = I, b1 = 0 embedding must equal the basic ones
    path by path.  The basic side runs the model's callbacks (``family=None``),
    as the linear family would read KL modes, not the walk.  The gap is over the paths
    valid on both kernels (NaN if none is), and an invalid path fails the check."""
    if model.kind is not ModelKind.BASIC:
        return [], _agreement("ExtendedReduction", True, "skipped: model already extended")
    model = replace(model, family=None)
    ext = as_extended(model)
    T = cfg.run.horizons[0]
    z0 = cfg.run.points[0]
    x0, y0 = list(z0[: model.m]), list(z0[model.m:])
    v1, v2 = cfg.run.directions[0]
    v = Direction.make(list(v1), list(v2))
    grid = TimeGrid(T, cfg.run.n_steps)
    n = min(cfg.run.n_paths, 2000)
    idx = np.arange(n, dtype=np.int64)
    seed = derive_seed(cfg.run.master_seed, "reduction")
    noise = standard_noise(seed, idx, grid.n_steps, model)
    bb = simulate_batch(model, x0, y0, grid, noise)
    eb = simulate_batch(ext, x0, y0, grid, noise)
    db, tb, ib, okb = weight_terms_shared(bb, v)
    de, te, ie, oke = weight_terms_shared(eb, v)
    valid = okb & oke
    n_valid = int(valid.sum())
    gap = float(np.max(np.abs((db + tb + ib) - (de + te + ie))[valid])) if n_valid else math.nan
    passed = n_valid == n and gap <= 1e-12
    rows = [_row("reduction", "max_pathwise_gap", gap, 0.0, n_valid, n - n_valid, seed, T,
                 _fmt_vec(z0), _fmt_dir(v), grid.n_steps)]
    invalid = f", {n - n_valid} invalid" if n_valid < n else ""
    return rows, _agreement("ExtendedReduction", passed,
                            f"max pathwise |gap| = {gap:.3e} over {n_valid} paths{invalid}")


def _harnack_pairs(points, m: int) -> list[tuple]:
    """Four Harnack pairs (z, z') per run point z, with e_x the first x axis (0)
    and e_y the first y axis (m): (z, z + e_y/2), (z, z + e_x/2),
    (z - e_x/2, z + e_y/2) and (z - e_y/2, z + e_y/2); no (z, z), whose ratio is 1."""
    def moved(z: tuple, axis: int, step: float) -> tuple:
        out = list(z)
        out[axis] += step
        return tuple(out)

    return [pair for z in points for pair in (
        (z, moved(z, m, 0.5)), (z, moved(z, 0, 0.5)),
        (moved(z, 0, -0.5), moved(z, m, 0.5)), (moved(z, m, -0.5), moved(z, m, 0.5)))]


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   out_dir: str | None = None) -> tuple[int, list[str]]:
    """Execute the configured checks at the run's one Monte Carlo effort (``run.n_paths``,
    ``run.n_steps``, ``run.master_seed``); write results.csv, results.json and report.md;
    return (exit_code, summary lines).  A8's constant at T, the first horizon, is 1/sqrt(T)
    for the heat family, else sqrt(fit / T) of the A6 fit of the run's one grid, listed or not;
    a non-finite fit gives NaN A8 rows, skipped, so A8 reads Inconclusive.  Lemma31 runs at
    the model's m and at n = l, its exponent (1 for a model without comparability constants)."""
    model = _build_model(cfg)
    if "a5" in cfg.suite.checks and model.power_params is None:
        raise ConfigError(
            "suite.checks: a5 requires a model with comparability constants "
            "(power_law or extended_demo)"
        )
    rows: list[dict] = []
    checks: list[an.BoundCheckReport] = []

    mc = an.McParams(cfg.run.n_paths, cfg.run.n_steps, cfg.run.master_seed, workers)
    grid = an.GradientGrid(model, bounded_suite(model), mc)
    a6_report = functools.cache(lambda: an.check_a6(grid))   # read by a6 and harnack

    for check in cfg.suite.checks:
        try:
            if check == "bismut_vs_fd":
                new_rows, rep = _run_bismut_vs_fd(cfg, model, workers)
                rows += new_rows
            elif check == "a5":
                rep = an.check_a5(grid)
            elif check == "a6":
                rep = a6_report()
            elif check == "lemma31":
                l = model.power_params.l if model.power_params is not None else 1.0
                rep = an.check_lemma31(mc, m=model.m, n_exp=l)
            elif check == "lemma_ll":
                rep = an.check_lemma_ll(mc, T=cfg.run.horizons[0])
            elif check == "harnack":
                T = cfg.run.horizons[0]
                if model.family is Family.HEAT:
                    constant = 1.0 / math.sqrt(T)   # exact for the Gaussian semigroup
                else:
                    fit = a6_report().fitted_constant
                    constant = math.sqrt(fit / T) if math.isfinite(fit) else math.nan
                f = observable("one_plus_tanh_y", model)
                rep = an.check_harnack_suite(model, T, _harnack_pairs(cfg.run.points, model.m),
                                             f, constant, mc)
            elif check == "reduction":
                new_rows, rep = _run_reduction(cfg, model)
                rows += new_rows
        except EstimationError as exc:
            raise EstimationError(f"check {check}: {exc}") from exc
        rows += _rows_from_bound_report(rep)
        checks.append(rep)

    out = Path(out_dir if out_dir is not None else cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_bytes(_render_csv(rows).encode("utf-8"))
    payload = {"rows": rows, "checks": [_check_entry(c) for c in checks]}
    (out / "results.json").write_bytes(
        json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    )
    (out / "report.md").write_bytes(an.report_markdown(checks).encode("utf-8"))
    return an.suite_exit_code(checks), [c.summary_line() for c in checks]


def _check_entry(c: an.BoundCheckReport) -> dict:
    """One check of results.json; an agreement check has no fitted constant."""
    entry = {"name": c.inequality_id, "verdict": c.verdict.value, "summary": c.summary_line()}
    if not c.detail:
        entry["fitted_constant"] = repr(float(c.fitted_constant))
    return entry


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_file(args.config)
        code, lines = run_experiment(cfg, workers=args.workers, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"exit status: {code}")
    return code


def _cmd_list_builtins(_args) -> int:
    print("builtin models:")
    print("  power_law            sigma(x) = x^l I (m=1, integer l) or |x|^l I; a=1, b=1+l")
    print("  constant_identity    sigma = I; both components Brownian")
    print("  extended_demo        sigma1 = 1+0.25 tanh x, b1 = -0.3 tanh x, "
          "sigma2 = x, b2 = 0.5 sin x")
    print("  tilted_matrix        sigma(x) = x [[1, 1/2], [tanh(x)/2, 1]]; m=1, d=2")
    print()
    print("test functions (closed forms noted where exact; a model's declared family")
    print("decides: linear = power_law l=1, m=d=1; heat = constant_identity):")
    print("  one                 P_T f = 1")
    print("  sin_x               P_T f = exp(-T/2) sin x          (any basic model, m=1)")
    print("  cos_x               P_T f = exp(-T/2) cos x          (any basic model, m=1)")
    print("  sin_y               P_T f = sin(y) sech(T)^(1/2) exp(-(x^2/2) tanh T)"
          "  (linear)")
    print("                      P_T f = exp(-T/2) sin y          (heat, m=d=1)")
    print("  y_squared           P_T f = y^2 + x^2 T + T^2/2      (linear)")
    print("                      P_T f = y^2 + T                  (heat, d=1)")
    print("  x_plus_y            P_T f = x + y                    (any basic model)")
    print("  tanh_y, sin_xy, one_plus_tanh_y   (bounded, no closed form)")
    print()
    print("L^q integrand catalogue (one-dimensional):")
    print("  constant_unit       rho_t = 1;        RHS = {q(q-1)/2}^{q/2} T^{q/2}")
    print("  adapted_cos         rho_t = cos(Bt_t); RHS by quadrature of E cos^q (even q)")
    print("  sigma_row           rho_t = (x+W_t)^l; RHS by quadrature of E|x+W|^{lq} "
          "(l q even)")
    return 0


def _cmd_dump_paths(args) -> int:
    try:
        cfg = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    model = _build_model(cfg)
    T = cfg.run.horizons[0]
    z0 = cfg.run.points[0]
    v1, v2 = cfg.run.directions[0]
    v = Direction.make(list(v1), list(v2))
    grid = TimeGrid(T, cfg.run.n_steps)
    n = min(cfg.run.n_paths, args.max_paths)
    x0, y0 = list(z0[: model.m]), list(z0[model.m:])
    out = Path(args.out if args.out is not None else cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path_index", "B_T", "X_T", "Y_T", "min_eig_QT", "valid",
                     "term_drift", "term_trace", "term_inner", "M_T"])
    chunk = 8192
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n), dtype=np.int64)
        noise = standard_noise(cfg.run.master_seed, idx, grid.n_steps, model)
        batch = simulate_batch(model, x0, y0, grid, noise)
        drift, trace, inner, _ = weight_terms_shared(batch, v)
        m_t = drift + trace + inner
        for row in range(len(idx)):
            writer.writerow([
                int(idx[row]),
                _fmt_vec(batch.b_final[row]),
                _fmt_vec(batch.x_final[row]),
                _fmt_vec(batch.y_final[row]),
                repr(float(batch.min_eig_q[row])),
                int(batch.valid[row]),
                repr(float(drift[row])),
                repr(float(trace[row])),
                repr(float(inner[row])),
                repr(float(m_t[row])),
            ])
    (out / "paths.csv").write_bytes(buf.getvalue().encode("utf-8"))
    print(f"wrote {out / 'paths.csv'} ({n} paths)")
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gruschin",
        description="Monte Carlo verification of derivative formulas and bounds "
                    "for degenerate diffusion semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured check suite")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--workers", type=_positive_int, default=1)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-builtins", help="print models, observables, integrands")
    p_list.set_defaults(fn=_cmd_list_builtins)

    p_dump = sub.add_parser("dump-paths", help="debug per-path CSV dump")
    p_dump.add_argument("config")
    p_dump.add_argument("--out", default=None)
    p_dump.add_argument("--max-paths", type=_positive_int, default=10000)
    p_dump.set_defaults(fn=_cmd_dump_paths)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
