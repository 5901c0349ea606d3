"""Verdicts on the quantitative bounds: gradient estimates, moment inequalities,
the intrinsic-distance upper bound, and the Harnack inequality.

Every bound check yields ``RatioPoint`` rows judged by one rule
(``_verdict``).  The bounds assert existence of constants, so a check with a
grid is two-grid: a constant is fitted as the maximum normalized ratio on a
calibration grid, then a disjoint holdout grid must stay below 1.2x the fit
plus statistical tolerance.  A check without a grid (LemmaLL, A8) has
``check`` rows whose ratio must stay below 1 plus tolerance.  The
intrinsic distance is exact (Euclidean) only for the heat family; for every
other model, of any (m, d), a constructive subunit-curve upper bound that reads
sigma (and sigma1 for an extended model) is used, which makes a detected Harnack
violation meaningful while satisfaction is consistent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .estimators import (
    bismut_panels,
    estimate_lq_moments,
    estimate_negative_moments,
    pt_panel,
)
from .models import Direction, Family, ModelKind, ModelSpec, TestFunction
from .oracles import integrate, lq_moment_rhs
from .rng import derive_seed

__all__ = [
    "McParams",
    "GradientGrid",
    "BoundCheckVerdict",
    "RatioPoint",
    "BoundCheckReport",
    "check_a5",
    "check_a6",
    "check_lemma31",
    "check_lemma_ll",
    "rho_upper_bound",
    "euclidean_distance",
    "check_harnack_suite",
    "suite_exit_code",
    "report_markdown",
    "DEFAULT_CALIBRATION_GRID",
    "DEFAULT_HOLDOUT_GRID",
    "HOLDOUT_HEADROOM",
]

# a holdout ratio may exceed the calibration fit by 20% plus statistical tolerance
HOLDOUT_HEADROOM = 1.2

DEFAULT_CALIBRATION_GRID = tuple((T, x) for T in (0.25, 1.0, 4.0) for x in (0.0, 1.0, 2.0))
DEFAULT_HOLDOUT_GRID = tuple((T, x) for T in (0.5, 2.0) for x in (0.5, 1.5))


@dataclass(frozen=True)
class McParams:
    """Monte Carlo effort shared by the checks."""

    n_paths: int
    n_steps: int
    seed: int
    workers: int = 1


class BoundCheckVerdict(enum.Enum):
    BOUNDED_CONSTANT_FOUND = "BoundedConstantFound"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RatioPoint:
    """One normalized ratio with the statistical tolerance of its estimate.

    ``n_valid`` / ``n_invalid`` are the path counts of the estimate the ratio was
    built from (of the one with the most invalid paths when there are several).
    """

    label: str
    phase: str            # "calibration" | "holdout" | "check"
    ratio: float
    tolerance: float
    T: float
    z0: tuple
    v: tuple = ()
    seed: int = 0
    n_steps: int = 0
    n_valid: int = 0
    n_invalid: int = 0


@dataclass
class BoundCheckReport:
    """The result of one suite check.

    A bound check (A5, A6, Lemma31, LemmaLL, A8) carries its ratio points and the
    fitted constant.  An agreement check of an exact formula against an oracle
    (BismutVsFD, ExtendedReduction) carries no points, only a ``detail`` line.
    """

    inequality_id: str
    points: list[RatioPoint] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    fitted_constant: float = float("nan")
    verdict: BoundCheckVerdict = BoundCheckVerdict.INCONCLUSIVE
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict is not BoundCheckVerdict.VIOLATED

    @property
    def ratios(self) -> list[float]:
        return [p.ratio for p in self.points]

    @property
    def max_ratio(self) -> float:
        return max(self.ratios) if self.points else float("nan")

    def summary_line(self) -> str:
        if self.detail:
            return f"{self.inequality_id}: {'passed' if self.passed else 'FAILED'} ({self.detail})"
        return (
            f"{self.inequality_id}: {self.verdict.value} "
            f"(fitted={self.fitted_constant:.4g}, max_ratio={self.max_ratio:.4g}, "
            f"points={len(self.points)}, skipped={len(self.skipped)})"
        )


def _verdict(report: BoundCheckReport) -> None:
    """The verdict rule of every bound check.

    The constant is fitted as the largest ratio of the calibration rows, or of
    the ``check`` rows when the check has no grid.  A holdout row must stay at
    or below HOLDOUT_HEADROOM x fit + its tolerance, and a ``check`` row at or
    below 1 + its tolerance; a report with no row to fit is Inconclusive.
    """
    grid = any(p.phase != "check" for p in report.points)
    fit_rows = [p for p in report.points if p.phase == ("calibration" if grid else "check")]
    if not fit_rows:
        report.verdict = BoundCheckVerdict.INCONCLUSIVE
        return
    report.fitted_constant = fitted = max(p.ratio for p in fit_rows)
    bound = {"holdout": HOLDOUT_HEADROOM * fitted, "check": 1.0}
    violated = any(p.ratio > bound[p.phase] + p.tolerance
                   for p in report.points if p.phase in bound)
    report.verdict = (BoundCheckVerdict.VIOLATED if violated
                      else BoundCheckVerdict.BOUNDED_CONSTANT_FOUND)


def _abs_power_obs(f: TestFunction, p: float) -> Callable:
    return lambda z: np.abs(np.asarray(f.eval(z), dtype=float)) ** p


def _axis_direction(model: ModelSpec, axis: int) -> Direction:
    """Coordinate direction ``axis`` of R^{m+d}, split as (v1, v2)."""
    e = np.eye(model.m + model.d)[axis]
    return Direction(e[: model.m], e[model.m:])


def _grid_keys(calibration, holdout) -> list[tuple[str, float, float]]:
    """The (phase, T, x) points of a two-grid check, calibration first."""
    return [(phase, T, x)
            for phase, grid_points in (("calibration", calibration), ("holdout", holdout))
            for (T, x) in grid_points]


class GradientGrid:
    """The weight-gradient panels of the A5/A6 grid, one per (phase, T, x): the
    one input of ``check_a5`` and ``check_a6``.

    The panel of a point estimates, from z0 = (x, 0, ..., 0), the gradient of
    every f of ``f_suite`` along all m + d coordinate axes, and P_T f^2 -- plus
    P_T |f|^p when p != 2, for A5 at that p (p > 1).  Panel keys ("grad",
    f.name, axis) name the axis.
    Every point runs under the one grid seed, of label ``grad_grid``: by
    Brownian scaling the increments on [0, T] are sqrt(T/n_steps) times one
    standard-normal array (and the KL functionals of a linear-family model
    scale the same way), so each tile draws once for every (T, x) point
    (see ``bismut_panels``), and the rows of different points are correlated.
    A point's panel is bit for bit the one-point ``bismut_panel`` at the grid
    seed, whichever points were built with it.  One simulation per tile
    serves every axis, so ``check_a5``, which reads axes 0 and m, and
    ``check_a6``, which reads all of them, share a grid and simulate each
    point once; their verdicts are then correlated too.  A panel is built on
    first use by ``rows`` and lives as long as the grid.
    """

    def __init__(self, model: ModelSpec, f_suite: Sequence[TestFunction], mc: McParams,
                 p: float = 2.0):
        if p <= 1:
            raise ValueError("p must exceed 1")
        self.model, self.f_suite, self.mc, self.p = model, list(f_suite), mc, float(p)
        self.seed = derive_seed(mc.seed, "grad_grid")
        self._panels: dict[tuple, tuple] = {}

    def rows(self, calibration: Sequence[tuple[float, float]],
             holdout: Sequence[tuple[float, float]]) -> list[tuple]:
        """(phase, T, x, z0, panel) of every (T, x) point of the two grids,
        calibration first.  The panels not built yet are built in one
        ``bismut_panels`` call, whose batches are mapped over ``mc.workers``
        threads."""
        keys = _grid_keys(calibration, holdout)
        missing = [k for k in dict.fromkeys(keys) if k not in self._panels]
        if missing:
            m, d = self.model.m, self.model.d
            starts = [np.array([x] + [0.0] * (m + d - 1), dtype=float) for _, _, x in missing]
            extra = [(_power_label(f, 2.0), _abs_power_obs(f, 2.0)) for f in self.f_suite]
            if self.p != 2.0:
                extra += [(_power_label(f, self.p), _abs_power_obs(f, self.p))
                          for f in self.f_suite]
            directions = [_axis_direction(self.model, a) for a in range(m + d)]
            points = [(z0, T) for z0, (_, T, _) in zip(starts, missing)]
            panels = bismut_panels(self.model, points, self.f_suite, directions,
                                   self.mc.n_paths, self.mc.n_steps, self.seed,
                                   extra_obs=extra, workers=self.mc.workers)
            self._panels.update(zip(missing, zip(starts, panels)))
        return [key + self._panels[key] for key in keys]


def _power_label(f: TestFunction, p: float) -> str:
    """The panel label of P_T |f|^p; |f|^2 is f^2."""
    return f"{f.name}^2" if p == 2.0 else f"|{f.name}|^{p}"


def _a5_rate(v: Direction, T: float, x: np.ndarray, l: float) -> float:
    r2 = float(np.dot(x, x))
    n1 = float(np.linalg.norm(v.v1))
    n2 = float(np.linalg.norm(v.v2))
    return n1 / math.sqrt(T) + n2 / math.sqrt(T * (r2 + T) ** l)


def check_a5(grid: GradientGrid,
             calibration: Sequence[tuple[float, float]] = DEFAULT_CALIBRATION_GRID,
             holdout: Sequence[tuple[float, float]] = DEFAULT_HOLDOUT_GRID,
             ) -> BoundCheckReport:
    """Two-grid boundedness of |grad_v P_T f| / [(P_T|f|^p)^{1/p} * rate(v, T, x)].

    The rate factor is |v1|/sqrt(T) + |v2|/sqrt(T (|x|^2+T)^l), the claimed decay
    for models comparable to |x|^l.  Grid points are (T, x) with y = 0, and v
    runs over the first x and the first y axis.  The model, the observables f,
    the Monte Carlo effort and p are the grid's, whose panels ``check_a6`` may
    share.
    """
    model, p = grid.model, grid.p
    if model.power_params is None:
        raise ValueError("the gradient-rate check needs a power-law comparable model")
    l = model.power_params.l
    report = BoundCheckReport(inequality_id="A5")
    for phase, T, x, z0, panel in grid.rows(calibration, holdout):
        for f in grid.f_suite:
            denom_est = panel[("pt", _power_label(f, p))]
            if denom_est.mean <= 4.0 * denom_est.stderr:
                report.skipped.append(
                    f"{phase} T={T} x={x} f={f.name}: denominator indistinguishable from 0"
                )
                continue
            denom = denom_est.mean ** (1.0 / p)
            for j, axis in enumerate((0, model.m)):
                v = _axis_direction(model, axis)
                grad = panel[("grad", f.name, axis)]
                rate = _a5_rate(v, T, z0[: model.m], l)
                ratio = abs(grad.mean) / (denom * rate)
                tol = (4.0 * grad.stderr) / (denom * rate) + ratio * (
                    4.0 * denom_est.stderr / (p * denom_est.mean)
                )
                report.points.append(RatioPoint(
                    label=f"T={T},x={x},f={f.name},v={j}", phase=phase,
                    ratio=ratio, tolerance=tol, T=T, z0=tuple(z0),
                    v=(tuple(v.v1), tuple(v.v2)), seed=grid.seed, n_steps=grad.n_steps,
                    n_valid=grad.n_valid, n_invalid=grad.n_invalid,
                ))
    _verdict(report)
    return report


def check_a6(grid: GradientGrid,
             calibration: Sequence[tuple[float, float]] = DEFAULT_CALIBRATION_GRID,
             holdout: Sequence[tuple[float, float]] = DEFAULT_HOLDOUT_GRID,
             ) -> BoundCheckReport:
    """Two-grid boundedness of Gamma_1(P_T f)(z0) * T / P_T f^2 (z0).

    The square field of P_T f is assembled from directional weight-gradient
    estimates along the m + d coordinate directions, with the y-block contracted
    against sigma(x0)^*.  The model, the observables f and the Monte Carlo
    effort are the grid's, whose panels ``check_a5`` may share.
    """
    model = grid.model
    report = BoundCheckReport(inequality_id="A6")
    m, d = model.m, model.d
    for phase, T, x, z0, panel in grid.rows(calibration, holdout):
        sigma_x0 = np.asarray(model.sigma(z0[:m]))
        for f in grid.f_suite:
            denom_est = panel[("pt", _power_label(f, 2.0))]
            if denom_est.mean <= 4.0 * denom_est.stderr:
                report.skipped.append(
                    f"{phase} T={T} x={x} f={f.name}: P_T f^2 indistinguishable from 0"
                )
                continue
            gx = np.array([panel[("grad", f.name, i)].mean for i in range(m)])
            gx_se = np.array([panel[("grad", f.name, i)].stderr for i in range(m)])
            gy = np.array([panel[("grad", f.name, m + jj)].mean for jj in range(d)])
            gy_se = np.array([panel[("grad", f.name, m + jj)].stderr for jj in range(d)])
            sty = sigma_x0.T @ gy
            gamma_hat = float(np.sum(gx**2) + np.sum(sty**2))
            # first-order error: d(g^2) = 2|g| dg, y-block through sigma^T
            dgamma = float(
                2.0 * np.sum(np.abs(gx) * 4.0 * gx_se)
                + 2.0 * np.sum(np.abs(sty) * (np.abs(sigma_x0.T) @ (4.0 * gy_se)))
            )
            ratio = gamma_hat * T / denom_est.mean
            tol = dgamma * T / denom_est.mean + ratio * (
                4.0 * denom_est.stderr / denom_est.mean
            )
            report.points.append(RatioPoint(
                label=f"T={T},x={x},f={f.name}", phase=phase,
                ratio=ratio, tolerance=tol, T=T, z0=tuple(z0),
                seed=grid.seed, n_steps=denom_est.n_steps,
                n_valid=denom_est.n_valid, n_invalid=denom_est.n_invalid,
            ))
    _verdict(report)
    return report


def check_lemma31(mc: McParams, m: int = 1, n_exp: float = 1.0, alpha: float = 1.0,
                  calibration: Sequence[tuple[float, float]] = DEFAULT_CALIBRATION_GRID,
                  holdout: Sequence[tuple[float, float]] = DEFAULT_HOLDOUT_GRID,
                  ) -> BoundCheckReport:
    """Two-grid boundedness of E(int |x+B|^{2n})^{-alpha} * T^alpha (|x|^2+T)^{alpha n}.

    Every grid point runs under the one seed of label ``lemma31``, so each tile
    draws its standard normals once for all of them (see
    ``estimate_negative_moments``) and the rows are correlated.  The batches
    are mapped over ``mc.workers`` threads.
    """
    report = BoundCheckReport(inequality_id="Lemma31")
    seed = derive_seed(mc.seed, "lemma31")
    keys = _grid_keys(calibration, holdout)
    xvecs = [np.concatenate([[x], np.zeros(m - 1)]) for _, _, x in keys]
    estimates = estimate_negative_moments(
        m, [(xvec, T) for xvec, (_, T, _) in zip(xvecs, keys)], n_exp, alpha,
        mc.n_paths, mc.n_steps, seed, workers=mc.workers)
    for (phase, T, x), est in zip(keys, estimates):
        normalizer = T**alpha * (x**2 + T) ** (alpha * n_exp)
        report.points.append(RatioPoint(
            label=f"T={T},x={x}", phase=phase,
            ratio=est.mean * normalizer,
            tolerance=4.0 * est.stderr * normalizer,
            T=T, z0=(x,), seed=seed, n_steps=est.n_steps,
            n_valid=est.n_valid, n_invalid=est.n_invalid,
        ))
    _verdict(report)
    return report


DEFAULT_LQ_CASES = (
    ("constant_unit", 2.0, {}),
    ("constant_unit", 4.0, {}),
    ("adapted_cos", 4.0, {}),
    ("sigma_row", 2.0, {"l": 1.0, "x": 1.0}),
)


def check_lemma_ll(mc: McParams, T: float = 1.0,
                   cases: Sequence[tuple[str, float, dict]] = DEFAULT_LQ_CASES,
                   ) -> BoundCheckReport:
    """LHS/RHS of the stochastic-integral moment inequality on the integrand catalogue.

    The rows are ``check`` rows, judged by ``_verdict``: every ratio must stay at
    or below 1 plus its tolerance, and the fitted constant is the largest ratio.
    The inequality is an equality for q = 2 (Ito isometry), which pins the ratio
    near 1 there.  Every case runs under the one seed of label ``lemma_ll``, on
    one standard-normal draw per tile (see ``estimate_lq_moments``), so the rows
    are correlated; the batches are mapped over ``mc.workers`` threads.  Without
    cases nothing is drawn.
    """
    report = BoundCheckReport(inequality_id="LemmaLL")
    seed = derive_seed(mc.seed, "lemma_ll")
    rhs = [lq_moment_rhs(name, q, T, **kwargs) for name, q, kwargs in cases]
    estimates = estimate_lq_moments(cases, T, mc.n_paths, mc.n_steps, seed,
                                    workers=mc.workers)
    for (name, q, _), lhs, bound in zip(cases, estimates, rhs):
        report.points.append(RatioPoint(
            label=f"{name},q={q}", phase="check",
            ratio=lhs.mean / bound, tolerance=4.0 * lhs.stderr / bound,
            T=T, z0=(), seed=seed, n_steps=lhs.n_steps,
            n_valid=lhs.n_valid, n_invalid=lhs.n_invalid,
        ))
    _verdict(report)
    return report


# ---------------------------------------------------------------------------
# Intrinsic distance upper bound
# ---------------------------------------------------------------------------

# golden-section search of the subunit-curve waypoint: relative bracket width, step cap
RHO_SEARCH_TOL = 1e-12
RHO_SEARCH_ITERS = 200


def _golden_min(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section minimum value of a unimodal function on [lo, hi], to
    ``RHO_SEARCH_TOL`` relative width or ``RHO_SEARCH_ITERS`` steps."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(RHO_SEARCH_ITERS):
        if b - a < RHO_SEARCH_TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return fn((a + b) / 2.0)


def _waypoint_axis(x: list, xp: list) -> list:
    """Unit vector u of the waypoint line x* = s u: along x + x', else along x,
    else the first axis.  For m = 1 it is +-1, so the line is all of R."""
    for v in (np.add(x, xp), np.asarray(x)):
        if v.any():
            v = v / np.abs(v).max()   # scaled first, so a tiny v cannot underflow
            return (v / math.hypot(*v)).tolist()
    return [1.0] + [0.0] * (len(x) - 1)


def _x_move_cost(model: ModelSpec) -> Callable[[list, list], float]:
    """Cost of a straight x-move from a to b.

    For a basic model X has unit diffusion, so the move costs |b - a|.  For an
    extended model a subunit curve moves x at sigma1(x) h1, so the move costs
    int_0^1 |sigma1(x(s))^-1 (b - a)| ds along x(s) = a + s (b - a): the
    Gauss-Legendre rule of ``oracles.integrate`` on one sigma1 call per
    segment, and infinity where sigma1 is singular on it.
    """
    if model.kind is not ModelKind.EXTENDED:
        return math.dist

    def cost(a: list, b: list) -> float:
        a = np.asarray(a, dtype=float)
        dx = np.asarray(b, dtype=float) - a
        if not dx.any():
            return 0.0

        def speed(s: np.ndarray) -> np.ndarray:
            sig = model.sigma1(a + s[..., None] * dx)
            try:
                step = np.linalg.solve(sig, np.broadcast_to(dx[:, None], sig.shape[:-1] + (1,)))
            except np.linalg.LinAlgError:
                return np.full(s.shape, math.inf)
            return np.linalg.norm(step[..., 0], axis=-1)

        c = integrate(speed, 1.0)
        return c if math.isfinite(c) else math.inf

    return cost


def rho_upper_bound(model: ModelSpec, z, z_prime) -> float:
    """Constructive subunit-curve upper bound on the intrinsic distance.

    The curve family has three segments: a straight x-move to a waypoint x*
    (``_x_move_cost``: unit cost per unit length for a basic model), a y-move
    at fixed x* driven by h2 = sigma(x*)^-1 dy / |sigma(x*)^-1 dy|, which costs
    |sigma(x*)^-1 dy| (|dy| / |s(x*)| for a scalar sigma = s I, and infinity
    where sigma(x*) is singular), and a straight x-move to the target.  Only
    ``model.sigma`` (and ``sigma1`` for an extended model) is read, once per
    waypoint.  The waypoints are x* = +-s u with s in [1e-9, hi], found by
    golden-section search on each sign, and the two endpoints x and x',
    evaluated exactly; u is the unit vector along x + x' (see
    ``_waypoint_axis``).  Past hi the two x-moves alone cost more than the
    cheapest of the endpoints and +-r u, r = max(|x|, |x'|, 1), when every
    x-move costs at least |dx| / k: k = 1 for a basic model, and for an
    extended model the largest speed |dx| / cost of the moves from x and x' to
    +-r u, an estimate of sup ||sigma1||.  Every member of the family is
    subunit, so the minimum is an upper bound.
    """
    m = model.m
    z = np.asarray(z, dtype=float).ravel()
    z_prime = np.asarray(z_prime, dtype=float).ravel()
    x, xp = z[:m].tolist(), z_prime[:m].tolist()
    x_cost = _x_move_cost(model)
    dy = z_prime[m:] - z[m:]
    if not dy.any():
        return x_cost(x, xp)
    dy_norm = math.hypot(*dy.tolist())

    def y_cost(xs: list) -> float:
        if model.sigma_scalar is not None:
            s = abs(float(model.sigma_scalar(np.array(xs))))
            return dy_norm / s if s > 0.0 else math.inf
        sig = model.sigma(np.array(xs))
        try:
            step = np.linalg.solve(sig, dy)
        except np.linalg.LinAlgError:
            return math.inf
        c = math.hypot(*step.tolist())
        return c if math.isfinite(c) else math.inf

    def cost(xs: list) -> float:
        return x_cost(x, xs) + y_cost(xs) + x_cost(xs, xp)

    u = _waypoint_axis(x, xp)
    norm_x, norm_xp = math.hypot(*x), math.hypot(*xp)
    r = max(norm_x, norm_xp, 1.0)
    best = min(cost(x), cost(xp))   # exact endpoint waypoints
    far = ([r * c for c in u], [-r * c for c in u])
    ref = min(best, *(cost(w) for w in far))
    # an x-move costs at least |dx| / k: k = 1 for a basic model, and for an
    # extended one the largest speed |dx| / cost of the moves to +-r u
    k = max([1.0] + [math.dist(a, w) / c for a in (x, xp) for w in far
                     if 0.0 < (c := x_cost(a, w)) < math.inf])
    hi = (k * ref + norm_x + norm_xp) / 2.0 if ref < math.inf else r
    for sign in (+1.0, -1.0):
        best = min(best, _golden_min(lambda s: cost([sign * s * c for c in u]), 1e-9, hi))
    return best


def euclidean_distance(z, z_prime) -> float:
    """Exact intrinsic distance of the non-degenerate sigma = I model."""
    return float(np.linalg.norm(np.asarray(z, dtype=float) - np.asarray(z_prime, dtype=float)))


# ---------------------------------------------------------------------------
# Harnack inequality
# ---------------------------------------------------------------------------

def check_harnack_suite(model: ModelSpec, T: float,
                        pairs: Sequence[tuple], f: TestFunction,
                        constant: float, mc: McParams) -> BoundCheckReport:
    """A8: P f(z') <= P f(z) + C rho(z, z') sqrt(P f^2 (z')) on every pair
    (z, z'), judged by ``_verdict``.

    The row of a pair, labelled ``z->z'``, has ratio P f(z') / rhs and
    tolerance band / |rhs|, band being the 4-sigma band of P f(z') - rhs.
    When rhs is 0, the ratio is inf and the tolerance 0 if P f(z') exceeds its
    band, and NaN otherwise.  A pair whose ratio is NaN is skipped as
    inconclusive; every other row counts towards the verdict and the fitted
    constant.
    ``rho`` is the exact Euclidean distance when the model declares
    ``Family.HEAT`` (sigma = I), and otherwise the subunit-curve upper bound
    ``rho_upper_bound``, which reads sigma (and sigma1 for an extended
    model) and holds for any (m, d).
    Every row reads one ``pt_panel`` of f, f^2 and 1{f < 0} over the distinct
    starts of all pairs, under the one seed of label ``harnack:{f.name}:{T}``:
    each tile draws once and simulates each distinct x-start once, its batches
    are mapped over ``mc.workers`` threads, and the rows share one validity
    mask (a path invalid from any start is invalid in every row) and are
    correlated, so the z = z' case has ratio exactly 1.  f must be
    nonnegative, so a sampled state with f < 0 raises ValueError.  Without
    pairs nothing is drawn.
    """
    report = BoundCheckReport(inequality_id="A8")
    if not pairs:
        return report

    def point(w) -> tuple:
        return tuple(np.atleast_1d(np.asarray(w, dtype=float)).tolist())

    pairs = [(point(z), point(z_prime)) for z, z_prime in pairs]
    starts = list(dict.fromkeys(w for z, z_prime in pairs for w in (z_prime, z)))
    column = {w: k for k, w in enumerate(starts)}
    seed = derive_seed(mc.seed, f"harnack:{f.name}:{T}")

    f_sq = TestFunction(name=f.name + "^2", eval=_abs_power_obs(f, 2.0))
    f_neg = TestFunction(name=f.name + "<0", eval=lambda w: np.asarray(f.eval(w)) < 0.0)
    panel = pt_panel(model, starts, T, [f, f_sq, f_neg], mc.n_paths, mc.n_steps,
                     seed, workers=mc.workers)
    if any(panel[("pt", f_neg.name, k)].mean > 0.0 for k in range(len(starts))):
        raise ValueError(f"observable {f.name!r} is negative on sampled states")

    for z, z_prime in pairs:
        if model.family is Family.HEAT:
            rho = euclidean_distance(z, z_prime)
        else:
            rho = rho_upper_bound(model, z, z_prime)
        p_at_zp = panel[("pt", f.name, column[z_prime])]
        p_sq_zp = panel[("pt", f_sq.name, column[z_prime])]
        p_at_z = panel[("pt", f.name, column[z])]

        root = math.sqrt(p_sq_zp.mean)
        rhs = p_at_z.mean + constant * rho * root
        root_se = p_sq_zp.stderr / (2.0 * root) if root > 0 else 0.0
        band = 4.0 * math.sqrt(
            p_at_zp.stderr**2 + p_at_z.stderr**2 + (constant * rho * root_se) ** 2
        )
        lhs = p_at_zp.mean
        if rhs == 0.0:
            ratio, tolerance = (math.inf if lhs > band else math.nan), 0.0
        else:
            ratio, tolerance = lhs / rhs, band / abs(rhs)
        label = f"{z}->{z_prime}"
        if math.isnan(ratio):
            report.skipped.append(f"{label}: inconclusive")
            continue
        report.points.append(RatioPoint(
            label=label, phase="check", ratio=ratio,
            tolerance=tolerance, T=T, z0=z, v=z_prime, seed=seed,
            n_steps=p_at_zp.n_steps, n_valid=p_at_zp.n_valid, n_invalid=p_at_zp.n_invalid,
        ))
    _verdict(report)
    return report


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def suite_exit_code(checks: Sequence[BoundCheckReport]) -> int:
    """Exit status of a suite run: nonzero iff any check is Violated."""
    return 0 if all(c.passed for c in checks) else 1


def report_markdown(checks: Sequence[BoundCheckReport]) -> str:
    """The verdict summary: one section per check, in suite order.  When A5 is
    listed too, the A6 section notes that the two are correlated: a run reads
    both off one gradient grid."""
    lines = ["# Bound verification report", ""]
    if not checks:
        lines.append("No checks were run.")
        return "\n".join(lines) + "\n"
    ids = {c.inequality_id for c in checks}
    for c in checks:
        # an agreement check (one with a detail line) passes or fails; it fits no constant
        if not c.passed:
            marker = "**VIOLATED**"
        else:
            marker = "passed" if c.detail else c.verdict.value
        lines.append(f"## {c.inequality_id}: {marker}")
        lines.append("")
        if c.inequality_id == "A6" and c.points and "A5" in ids:
            lines.append("- A5 and A6 read their gradients off the same paths at each "
                         "grid point, so their verdicts are correlated; the grid "
                         "points also share one Brownian draw, scaled to each T.")
        if c.detail:
            lines.append(f"- {c.summary_line()}")
        else:
            lines.append(f"- fitted constant: {c.fitted_constant!r}")
            lines.append(f"- max ratio: {c.max_ratio!r}")
            lines.append("")
            lines.append("| point | phase | ratio | tolerance |")
            lines.append("|---|---|---|---|")
            for pnt in c.points:
                lines.append(f"| {pnt.label} | {pnt.phase} | {pnt.ratio!r} | {pnt.tolerance!r} |")
        for s in c.skipped:
            lines.append(f"- skipped: {s}")
        lines.append("")
    return "\n".join(lines) + "\n"
