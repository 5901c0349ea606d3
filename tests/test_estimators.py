"""Monte Carlo estimators against closed forms, CRN exactness, moment oracles."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gruschin import estimators, paths, rng
from gruschin.analysis import (
    DEFAULT_CALIBRATION_GRID,
    DEFAULT_HOLDOUT_GRID,
    McParams,
    check_lemma31,
)
from gruschin.estimators import (
    EstimationError,
    bismut_panel,
    estimate_gradient_bismut,
    estimate_gradient_fd,
    estimate_lq_moment,
    estimate_lq_moments,
    estimate_negative_moment,
    estimate_pt,
    fd_panel,
    pairwise_sum,
    pt_panel,
    run_batches,
    split_point,
)
from gruschin.models import (
    Direction,
    ModelKind,
    ModelSpec,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    observable,
)
from gruschin.models import TestFunction as Observable  # not a pytest class
from gruschin.oracles import (
    LQ_INTEGRANDS,
    lq_moment_rhs,
    negative_moment_exact,
    quadratic_laplace,
)
from gruschin.paths import (
    TimeGrid,
    simulate_basic_batch,
    simulate_batch,
    standard_increments,
    standard_noise,
    standard_walk,
)

EX = Direction.make(1.0, 0.0)
EY = Direction.make(0.0, 1.0)


def combined_gap(a, b):
    return abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# reduction helpers
# ---------------------------------------------------------------------------

def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=50001) * 1e6
    assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)


def test_pairwise_sum_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=12345)
    assert pairwise_sum(x) == pairwise_sum(x.copy())


# ---------------------------------------------------------------------------
# semigroup values
# ---------------------------------------------------------------------------

def test_pt_constant_observable_is_exact():
    model = make_power_law_model(1, 1, 1.0)
    est = estimate_pt(model, observable("one", model), [1.0, 0.0], 1.0, 2000, 50, 3)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.n_invalid == 0


def test_pt_gaussian_heat_kernel():
    model = make_constant_identity_model()
    f = observable("sin_x", model)
    x = 0.6
    est = estimate_pt(model, f, [x, 0.0], 1.0, 50000, 100, 5)
    want = math.exp(-0.5) * math.sin(x)
    assert abs(est.mean - want) <= 4.0 * est.stderr


def test_pt_degenerate_closed_form():
    # E Y_T^2 = y^2 + x^2 T + T^2/2 by the Ito isometry
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    est = estimate_pt(model, f, [1.0, 1.0], 1.0, 50000, 200, 7)
    want = float(f.closed_form_pt(1.0, np.array([1.0]), np.array([1.0])))
    assert want == 2.5
    # left sums carry an O(dt) bias; 4 sigma plus the explicit dt allowance
    assert abs(est.mean - want) <= 4.0 * est.stderr + 1.0 * (1.0 / 200)


def test_pt_requires_two_paths():
    model = make_constant_identity_model()
    with pytest.raises(ValueError):
        estimate_pt(model, observable("one", model), [0.0, 0.0], 1.0, 1, 10, 1)


def test_pt_raises_when_every_path_invalid():
    def nan_scalar(x):
        return np.full(np.asarray(x).shape[:-1], np.nan)

    broken = ModelSpec(m=1, d=1, kind=ModelKind.BASIC,
                       sigma=lambda x: nan_scalar(x)[..., None, None],
                       grad_sigma=lambda x, v: nan_scalar(x)[..., None, None],
                       sigma_scalar=nan_scalar,
                       grad_sigma_scalar=lambda x, v: nan_scalar(x),
                       name="broken")
    with pytest.raises(EstimationError):
        estimate_pt(broken, observable("one", broken), [0.0, 0.0], 1.0, 100, 10, 1)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_of_constant_vanishes():
    model = make_power_law_model(1, 1, 1.0)
    est = estimate_gradient_bismut(model, observable("one", model), [1.0, 0.0], EX,
                                   1.0, 30000, 100, 11)
    assert abs(est.mean) <= 4.0 * est.stderr


def test_gradient_degenerate_closed_form_both_directions():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    gx = estimate_gradient_bismut(model, f, [1.0, 1.0], EX, 1.0, 60000, 100, 13)
    gy = estimate_gradient_bismut(model, f, [1.0, 1.0], EY, 1.0, 60000, 100, 13)
    assert abs(gx.mean - 2.0) <= 4.0 * gx.stderr
    assert abs(gy.mean - 2.0) <= 4.0 * gy.stderr


def test_gradient_gaussian_closed_form():
    model = make_constant_identity_model()
    f = observable("sin_x", model)
    est = estimate_gradient_bismut(model, f, [0.7, 0.0], EX, 1.0, 60000, 100, 17)
    want = math.exp(-0.5) * math.cos(0.7)
    assert abs(est.mean - want) <= 4.0 * est.stderr


def test_fd_linear_function_is_deterministic_under_crn():
    # linearity kills both curvature and noise: the difference is exact per path
    model = make_constant_identity_model()
    f = observable("x_plus_y", model)
    v = Direction.make(1.0, 1.0)
    est = estimate_gradient_fd(model, f, [0.3, -0.2], v, 1.0, 5000, 50, 19)
    assert est.mean == pytest.approx(2.0, abs=1e-9)
    assert est.stderr < 1e-12


def test_fd_matches_bismut_and_closed_form():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    fd = estimate_gradient_fd(model, f, [1.0, 1.0], EX, 1.0, 40000, 100, 23,
                              eps=1e-3)
    bis = estimate_gradient_bismut(model, f, [1.0, 1.0], EX, 1.0, 40000, 100, 29)
    assert abs(fd.mean - 2.0) <= 4.0 * fd.stderr + 1e-3
    assert abs(fd.mean - bis.mean) <= 4.0 * math.hypot(fd.stderr, bis.stderr) + 1e-3


def test_extended_model_gradients_match_fd_both_directions():
    # end-to-end validation of the extended weight including both drifts
    from gruschin.models import make_extended_demo_model

    demo = make_extended_demo_model()
    f = observable("y_squared", demo)
    for v in (EX, EY):
        gb = estimate_gradient_bismut(demo, f, [1.0, 0.5], v, 1.0, 40000, 100, 87)
        gf = estimate_gradient_fd(demo, f, [1.0, 0.5], v, 1.0, 40000, 100, 88)
        tol = 4.0 * math.hypot(gb.stderr, gf.stderr) + 1e-3
        assert abs(gb.mean - gf.mean) <= tol


def test_fd_eps_robustness():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    a = estimate_gradient_fd(model, f, [1.0, 1.0], EX, 1.0, 30000, 100, 31, eps=1e-3)
    b = estimate_gradient_fd(model, f, [1.0, 1.0], EX, 1.0, 30000, 100, 31, eps=5e-4)
    tol = max(4.0 * math.hypot(a.stderr, b.stderr), 1e-4 * abs(a.mean))
    assert abs(a.mean - b.mean) <= tol


def test_fd_rejects_nonpositive_eps():
    model = make_constant_identity_model()
    with pytest.raises(ValueError):
        estimate_gradient_fd(model, observable("one", model), [0.0, 0.0], EX, 1.0,
                             100, 10, 1, eps=0.0)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_fd_panel_rejects_a_nonfinite_eps_before_drawing(monkeypatch, eps):
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    with pytest.raises(ValueError, match="eps"):
        fd_panel(model, [1.0, 0.5], 1.0, [observable("sin_y", model)], [EX], 200, 10, 3,
                 eps=eps)
    assert draws == {0: [], 1: []}


_START_CALLS = {
    "bismut_panel": lambda model, fs, z0: bismut_panel(model, z0, 1.0, fs, [EX], 200, 10, 3),
    "bismut_panels": lambda model, fs, z0: estimators.bismut_panels(
        model, [([1.0, 0.5], 1.0), (z0, 0.5)], fs, [EX], 200, 10, 3),
    "pt_panel": lambda model, fs, z0: pt_panel(model, [[1.0, 0.5], z0], 1.0, fs, 200, 10, 3),
    "fd_panel": lambda model, fs, z0: fd_panel(model, z0, 1.0, fs, [EX], 200, 10, 3),
    "estimate_pt": lambda model, fs, z0: estimate_pt(model, fs[0], z0, 1.0, 200, 10, 3),
    "estimate_gradient_bismut": lambda model, fs, z0: estimate_gradient_bismut(
        model, fs[0], z0, EX, 1.0, 200, 10, 3),
    "estimate_gradient_fd": lambda model, fs, z0: estimate_gradient_fd(
        model, fs[0], z0, EX, 1.0, 200, 10, 3),
}


@pytest.mark.parametrize("z0", [[math.nan, 0.0], [0.5, math.inf]])
@pytest.mark.parametrize("name", sorted(_START_CALLS))
def test_panels_refuse_a_nonfinite_start_before_drawing(monkeypatch, name, z0):
    # fd_panel's default eps is read off z0, so the start is checked before it
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    with pytest.raises(ValueError, match="z0 must be finite"):
        _START_CALLS[name](model, [observable("sin_y", model)], z0)
    assert draws == {0: [], 1: []}


def test_pt_panel_is_bitwise_a_simulation_from_each_start():
    # (x, y1) and (x, y2) read one x-simulation translated in y, (x', y) its
    # own; K = 1,024 steps cut the 700 paths into 256-path tiles
    model = make_power_law_model(1, 1, 1.0)
    starts = [[1.0, 0.5], [1.0, -0.3], [0.4, 0.5]]
    fs = [observable("sin_y", model), observable("y_squared", model)]
    T, n, steps, seed = 1.0, 700, 1024, 61
    assert estimators._model_tile(model, steps) < n
    panel = pt_panel(model, starts, T, fs, n, steps, seed)
    noise = standard_noise(seed, np.arange(n), steps, model)
    for k, z0 in enumerate(starts):
        batch = simulate_batch(model, *split_point(model, z0), TimeGrid(T, steps), noise)
        assert batch.valid.all()
        for f in fs:
            vals = f.eval(batch.z_final)
            mean = pairwise_sum(vals) / n
            stderr = math.sqrt(pairwise_sum((vals - mean) ** 2) / (n - 1) / n)
            est = panel[("pt", f.name, k)]
            assert est.n_valid == n
            assert est.mean == mean
            assert est.stderr == stderr


# ---------------------------------------------------------------------------
# negative moment
# ---------------------------------------------------------------------------

def test_negative_moment_alpha_to_zero_limit():
    est = estimate_negative_moment(1, [1.0], 1.0, 1.0, 1e-8, 5000, 50, 37)
    assert est.mean == pytest.approx(1.0, abs=1e-6)


def test_negative_moment_concentration_regime():
    # for |x| large the integral concentrates at x^2 T + T^2/2
    est = estimate_negative_moment(1, [10.0], 0.1, 1.0, 1.0, 20000, 100, 41)
    want = 1.0 / (100.0 * 0.1 + 0.1**2 / 2.0)
    assert est.mean == pytest.approx(want, rel=0.10)


def test_negative_moment_validation():
    with pytest.raises(ValueError):
        estimate_negative_moment(1, [0.0], 1.0, 0.5, 1.0, 100, 10, 1)
    with pytest.raises(ValueError):
        estimate_negative_moment(1, [0.0], 1.0, 1.0, 0.0, 100, 10, 1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_negative_moment_rejects_a_nonfinite_alpha_before_drawing(monkeypatch, alpha):
    draws = _counting_draws(monkeypatch)
    with pytest.raises(ValueError, match="alpha"):
        estimate_negative_moment(1, [0.5], 1.0, 1.0, alpha, 200, 10, 3)
    assert draws == {0: [], 1: []}


@pytest.mark.parametrize("n_exp", [math.nan, math.inf])
def test_negative_moment_rejects_a_nonfinite_exponent_before_drawing(monkeypatch, n_exp):
    draws = _counting_draws(monkeypatch)
    with pytest.raises(ValueError, match="exponent"):
        estimate_negative_moment(1, [0.5], 1.0, n_exp, 0.5, 200, 10, 3)
    assert draws == {0: [], 1: []}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_moments_refuse_nonfinite_parameters_before_drawing(monkeypatch, bad):
    draws = _counting_draws(monkeypatch)
    with pytest.raises(ValueError, match="x must be finite"):
        estimate_negative_moment(1, [bad], 1.0, 1.0, 0.5, 200, 10, 3)
    with pytest.raises(ValueError, match="x must be finite"):
        estimators.estimate_negative_moments(2, [([0.0, 0.0], 1.0), ([0.5, bad], 0.5)],
                                             1.0, 0.5, 200, 10, 3)
    for kw in ({"x": bad}, {"l": bad}):
        with pytest.raises(ValueError, match="must be finite"):
            estimate_lq_moment("sigma_row", 2.0, 1.0, 200, 10, 3, **kw)
        with pytest.raises(ValueError, match="must be finite"):
            lq_moment_rhs("sigma_row", 2.0, 1.0, **kw)
    # a horizon that is not positive and finite, and a negative l, leave no
    # moment to compare; a refused case of a list draws nothing for any case
    for T in (bad, -1.0, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_lq_moment("adapted_cos", 4.0, T, 200, 10, 3)
        for name, q in (("adapted_cos", 4.0), ("constant_unit", 3.0), ("sigma_row", 2.0)):
            with pytest.raises(ValueError, match="T must be positive and finite"):
                lq_moment_rhs(name, q, T)
    with pytest.raises(ValueError, match="l must be nonnegative"):
        estimate_lq_moment("sigma_row", 2.0, 1.0, 200, 10, 3, l=-1.0, x=1.0)
    with pytest.raises(ValueError, match="l must be nonnegative"):
        estimators.estimate_lq_moments([("constant_unit", 2.0, {}),
                                        ("sigma_row", 2.0, {"l": -1.0, "x": 1.0})],
                                       1.0, 200, 10, 3)
    with pytest.raises(ValueError, match="l must be nonnegative"):
        lq_moment_rhs("sigma_row", 2.0, 1.0, l=-1.0)
    assert draws == {0: [], 1: []}


@pytest.mark.parametrize("s, want", [(0.0, 5.562860), (1.0, 2.872109), (2.0, 1.535379),
                                     (4.0, 1.120679), (16.0, 1.007185141),
                                     (64.0, 1.000447684)])
def test_negative_moment_exact_at_the_unit_horizon(s, want):
    # (1 + s^2) E I^(-1) at T = 1, checked against adaptive quadrature; s = 16
    # and 64 are the natural-scale rows, where the moment nears its 1 / s^2 limit
    assert (1.0 + s * s) * negative_moment_exact(1, [s], 1.0, 1.0) == pytest.approx(want,
                                                                                abs=5e-7)


@pytest.mark.parametrize("T", [0.1, 1.0, 3.0, 20.0])
@pytest.mark.parametrize("x", [0.0, 0.7, 2.0])
def test_quadratic_laplace_transform_is_the_gaussian_y_factor(T, x):
    # E exp(-Q_T/2), Q_T = int (x + B)^2 dt, is the m = 1, gamma = 1 transform:
    # sech(T)^(1/2) exp(-x^2 tanh(T) / 2)
    want = np.cosh(T) ** -0.5 * np.exp(-0.5 * x**2 * np.tanh(T))
    got = quadratic_laplace(1, [x], T, np.array(1.0))
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_quadratic_laplace_transform_is_finite_where_cosh_overflows():
    # cosh(800)^(-1/2) = sqrt(2) e^(-400); np.cosh(800) is inf
    got = quadratic_laplace(1, [0.0], 800.0, np.array(1.0))
    assert got == pytest.approx(math.sqrt(2.0) * math.exp(-400.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m, x, T", [(1, [2.0], 1.0), (2, [0.0, 0.0], 0.5),
                                     (2, [1.0, -0.5], 2.0)])
def test_negative_moment_estimate_agrees_with_its_exact_value(m, x, T):
    # 200 steps keep the negative left-point bias near 0.1% here, inside the
    # 1% allowance; the 4 sigma band covers the Monte Carlo error
    exact = negative_moment_exact(m, x, T, 1.0)
    est = estimate_negative_moment(m, x, T, 1.0, 1.0, 20_000, 200, 73)
    assert abs(est.mean - exact) <= 4.0 * est.stderr + 0.01 * exact


def test_negative_moment_exact_validation():
    with pytest.raises(ValueError, match="shape"):
        negative_moment_exact(2, [1.0], 1.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        negative_moment_exact(1, [math.nan], 1.0, 1.0)
    for T, alpha in ((0.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="positive"):
            negative_moment_exact(1, [1.0], T, alpha)


def test_quadratic_integral_of_the_walk_statistics_is_the_path_integral():
    # at n = 1 a Lemma 3.1 point reads the mean and centred mean square of the
    # walk in place of its path: on every row of the default grid (x = 0 and
    # s = x / sqrt(T) = 4 included) and at m = 2 the forms agree path by path
    for m in (1, 2):
        walk = standard_walk(standard_increments(67, np.arange(4000), 100, m))
        zero = standard_walk(np.zeros((3, 100, m)))
        for T, x in (*DEFAULT_CALIBRATION_GRID, *DEFAULT_HOLDOUT_GRID):
            grid = TimeGrid(T, 100)
            for xv in {(x,) + (0.0,) * (m - 1), (x,) + (0.5,) * (m - 1)}:
                xv = np.array(xv)
                for w in (walk, zero):
                    quad = estimators._quadratic_integral(
                        xv, grid, estimators._left_node_statistics(w))
                    path = estimators._path_integral(xv, grid, w, 1.0)
                    np.testing.assert_allclose(quad, path, rtol=1e-13, atol=0.0)
                    assert np.array_equal(quad > 0.0, path > 0.0)


# ---------------------------------------------------------------------------
# L^q moments
# ---------------------------------------------------------------------------

def test_lq_isometry_equality_case():
    T = 1.5
    est = estimate_lq_moment("constant_unit", 2.0, T, 40000, 100, 43)
    assert abs(est.mean - T) <= 4.0 * est.stderr
    assert lq_moment_rhs("constant_unit", 2.0, T) == pytest.approx(T)


def test_lq_fourth_moment_constant_integrand():
    T = 1.0
    est = estimate_lq_moment("constant_unit", 4.0, T, 100000, 100, 47)
    assert abs(est.mean - 3.0 * T**2) <= 4.0 * est.stderr
    rhs = lq_moment_rhs("constant_unit", 4.0, T)
    assert rhs == pytest.approx(36.0 * T**2)
    ratio = est.mean / rhs
    assert 2.5 / 36.0 <= ratio <= 3.5 / 36.0


def test_lq_adapted_and_sigma_row_hold():
    for name, q, kw in (("adapted_cos", 4.0, {}), ("sigma_row", 2.0, {"l": 1.0, "x": 1.0})):
        est = estimate_lq_moment(name, q, 1.0, 30000, 100, 53, **kw)
        rhs = lq_moment_rhs(name, q, 1.0, **kw)
        assert est.mean <= rhs * (1.0 + 1e-12) + 4.0 * est.stderr, name


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0, 30.0])
def test_lq_adapted_cos_q2_matches_its_closed_form(T):
    # E cos^2 W_t = (1 + e^{-2t})/2 and the q = 2 constant is 1
    want = T / 2.0 + (1.0 - math.exp(-2.0 * T)) / 4.0
    assert lq_moment_rhs("adapted_cos", 2.0, T) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0])
def test_lq_adapted_cos_q4_matches_a_composite_simpson_sum(T):
    # E cos^4 W_t = (3 + 4 e^{-2t} + e^{-8t})/8, integrated by Simpson's rule
    n = 4000
    t = np.linspace(0.0, T, n + 1)
    g = np.sqrt((3.0 + 4.0 * np.exp(-2.0 * t) + np.exp(-8.0 * t)) / 8.0)
    simpson = T / (3.0 * n) * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum())
    assert lq_moment_rhs("adapted_cos", 4.0, T) == pytest.approx(36.0 * simpson**2,
                                                                 rel=1e-11)


def test_lq_sigma_row_isometry():
    # q = 2 is the Ito isometry: LHS = int E(x+W_t)^2 dt = x^2 T + T^2/2
    est = estimate_lq_moment("sigma_row", 2.0, 1.0, 50000, 100, 59, l=1.0, x=1.0)
    assert abs(est.mean - 1.5) <= 4.0 * est.stderr
    assert lq_moment_rhs("sigma_row", 2.0, 1.0, l=1.0, x=1.0) == pytest.approx(1.5)


def test_lq_validation():
    with pytest.raises(ValueError):
        estimate_lq_moment("constant_unit", 1.5, 1.0, 100, 10, 1)
    with pytest.raises(ValueError):
        estimate_lq_moment("unknown", 2.0, 1.0, 100, 10, 1)
    with pytest.raises(ValueError):
        lq_moment_rhs("adapted_cos", 3.0, 1.0)  # closed form needs even q
    with pytest.raises(ValueError):
        lq_moment_rhs("sigma_row", 2.0, 1.0, l=1.5)  # l q must be an even integer


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_lq_moment_rejects_a_nonfinite_q_before_drawing(monkeypatch, q):
    draws = _counting_draws(monkeypatch)
    for name in LQ_INTEGRANDS:
        with pytest.raises(ValueError, match="q must"):
            estimate_lq_moment(name, q, 1.0, 200, 10, 3)
    assert draws == {0: [], 1: []}


# ---------------------------------------------------------------------------
# determinism and statistical behaviour
# ---------------------------------------------------------------------------

def test_worker_count_does_not_change_results():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    serial = estimate_pt(model, f, [1.0, 1.0], 1.0, 20000, 50, 61, workers=1)
    threaded = estimate_pt(model, f, [1.0, 1.0], 1.0, 20000, 50, 61, workers=3)
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr
    g1 = estimate_gradient_bismut(model, f, [1.0, 1.0], EX, 1.0, 20000, 50, 61,
                                  workers=1)
    g3 = estimate_gradient_bismut(model, f, [1.0, 1.0], EX, 1.0, 20000, 50, 61,
                                  workers=3)
    assert g1.mean == g3.mean


def test_batch_size_does_not_change_results():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    a = estimate_pt(model, f, [1.0, 0.0], 1.0, 10000, 50, 67, batch_size=512)
    b = estimate_pt(model, f, [1.0, 0.0], 1.0, 10000, 50, 67, batch_size=4096)
    assert a.mean == b.mean


def test_stderr_scaling_with_path_count():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    small = estimate_pt(model, f, [1.0, 1.0], 1.0, 20000, 50, 71)
    big = estimate_pt(model, f, [1.0, 1.0], 1.0, 80000, 50, 71)
    assert big.stderr == pytest.approx(small.stderr / 2.0, rel=0.25)


# ---------------------------------------------------------------------------
# panels
# ---------------------------------------------------------------------------

def test_bismut_panel_matches_individual_estimates():
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("y_squared", model), observable("sin_y", model)]
    panel = bismut_panel(model, [1.0, 1.0], 1.0, fs, [EX, EY], 20000, 100, 73)
    direct_x = estimate_gradient_bismut(model, fs[0], [1.0, 1.0], EX, 1.0,
                                        20000, 100, 73)
    assert panel[("grad", "y_squared", 0)].mean == pytest.approx(direct_x.mean,
                                                                 rel=1e-12)
    # the state trajectory is direction-independent, so the shared-simulation
    # panel value for v1 = 0 coincides exactly with a dedicated run
    direct_y = estimate_gradient_bismut(model, fs[0], [1.0, 1.0], EY, 1.0,
                                        20000, 100, 73)
    assert panel[("grad", "y_squared", 1)].mean == pytest.approx(direct_y.mean,
                                                                 rel=1e-12)


def test_fd_panel_matches_individual_estimates():
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("y_squared", model)]
    panel = fd_panel(model, [1.0, 1.0], 1.0, fs, [EX], 10000, 50, 79, eps=1e-3)
    direct = estimate_gradient_fd(model, fs[0], [1.0, 1.0], EX, 1.0, 10000, 50,
                                  79, eps=1e-3)
    assert panel[("grad_fd", "y_squared", 0)].mean == direct.mean


def test_bismut_panel_antiparallel_directions_share_simulation():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    neg2 = Direction.make(-2.0, 0.0)
    panel = bismut_panel(model, [1.0, 1.0], 1.0, [f], [EX, neg2], 5000, 50, 81)
    direct = estimate_gradient_bismut(model, f, [1.0, 1.0], neg2, 1.0, 5000, 50, 81)
    assert panel[("grad", "y_squared", 1)].mean == pytest.approx(direct.mean,
                                                                 rel=1e-12)
    assert panel[("grad", "y_squared", 1)].mean == pytest.approx(
        -2.0 * panel[("grad", "y_squared", 0)].mean, rel=1e-12)


def test_bismut_panel_entries_do_not_depend_on_the_direction_order():
    # a v1 = 0 direction reads the group of the first nonzero v1 at scale 0,
    # wherever it stands, so each entry is the same in any order and equals
    # the entry of the direction alone
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    z0 = [1.0, 1.0]
    forward = bismut_panel(model, z0, 1.0, [f], [EX, EY], 2000, 50, 5)
    reverse = bismut_panel(model, z0, 1.0, [f], [EY, EX], 2000, 50, 5)
    alone = bismut_panel(model, z0, 1.0, [f], [EY], 2000, 50, 5)
    assert reverse[("grad", "sin_y", 0)] == forward[("grad", "sin_y", 1)]
    assert reverse[("grad", "sin_y", 1)] == forward[("grad", "sin_y", 0)]
    assert alone[("grad", "sin_y", 0)] == forward[("grad", "sin_y", 1)]
    exact = f.closed_form_grad_pt(1.0, np.array([1.0]), np.array([1.0]))[1]
    est = reverse[("grad", "sin_y", 0)]
    assert abs(est.mean - exact) <= 4.0 * est.stderr + 1e-3


def test_panels_return_exactly_their_documented_keys():
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model), observable("y_squared", model)]
    vs = [EX, EY, Direction.make(-2.0, 0.5)]
    extra = [("y_sq", lambda z: z[:, 1] ** 2), ("x", lambda z: z[:, 0])]
    bis = bismut_panel(model, [1.0, 0.5], 1.0, fs, vs, 64, 10, 3, extra_obs=extra)
    assert set(bis) == ({("grad", f.name, j) for f in fs for j in range(3)}
                        | {("pt", "y_sq"), ("pt", "x")})
    fd = fd_panel(model, [1.0, 0.5], 1.0, fs, vs, 64, 10, 3)
    assert set(fd) == {("grad_fd", f.name, j) for f in fs for j in range(3)}
    starts = [[1.0, 0.5], [0.0, 0.0]]
    pt = estimators.pt_panel(model, starts, 1.0, fs, 64, 10, 3)
    assert set(pt) == {("pt", f.name, k) for f in fs for k in range(2)}


def test_bismut_panel_refuses_an_empty_direction_list():
    # a weight panel estimates gradients; pt_panel serves semigroup values alone
    model = make_power_law_model(1, 1, 1.0)
    with pytest.raises(ValueError, match="direction"):
        bismut_panel(model, [1.0, 0.5], 1.0, [observable("sin_y", model)], [], 64, 10, 3)


_EMPTY_PANELS = {
    "fd_panel without directions": lambda model, f: fd_panel(
        model, [1.0, 0.5], 1.0, [f], [], 1000, 10, 3),
    "fd_panel without observables": lambda model, f: fd_panel(
        model, [1.0, 0.5], 1.0, [], [EX], 1000, 10, 3),
    "pt_panel without observables": lambda model, f: pt_panel(
        model, [[1.0, 0.5]], 1.0, [], 1000, 10, 3),
    "pt_panel without starts": lambda model, f: pt_panel(
        model, [], 1.0, [f], 1000, 10, 3),
    "bismut_panel without observables": lambda model, f: bismut_panel(
        model, [1.0, 0.5], 1.0, [], [EX], 1000, 10, 3),
    "bismut_panels without observables": lambda model, f: estimators.bismut_panels(
        model, [([1.0, 0.5], 1.0), ([0.5, 0.0], 0.5)], [], [EX], 1000, 10, 3),
}


@pytest.mark.parametrize("name", sorted(_EMPTY_PANELS))
def test_an_empty_panel_is_refused_before_any_draw(monkeypatch, name):
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    with pytest.raises(ValueError, match="at least one"):
        _EMPTY_PANELS[name](model, observable("sin_y", model))
    assert draws == {0: [], 1: []}


@pytest.mark.parametrize("batch_size", [0, -5, 2.5])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_bad_batch_size_is_refused_before_any_draw(monkeypatch, batch_size, workers):
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    calls = [
        lambda: bismut_panel(model, [1.0, 0.5], 1.0, [f], [EX], 1000, 10, 3,
                             workers=workers, batch_size=batch_size),
        lambda: pt_panel(model, [[1.0, 0.5]], 1.0, [f], 1000, 10, 3,
                         workers=workers, batch_size=batch_size),
        lambda: estimate_negative_moment(1, [0.5], 1.0, 1.0, 1.0, 1000, 10, 3,
                                         workers=workers, batch_size=batch_size),
        lambda: estimate_lq_moment("constant_unit", 2.0, 1.0, 1000, 10, 3,
                                   workers=workers, batch_size=batch_size),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            call()
    assert draws == {0: [], 1: []}


@pytest.mark.parametrize("workers", [0, -3, 1.5])
def test_a_bad_worker_count_is_refused_before_any_draw(monkeypatch, workers):
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    calls = [
        lambda: bismut_panel(model, [1.0, 0.5], 1.0, [f], [EX], 1000, 10, 3, workers=workers),
        lambda: pt_panel(model, [[1.0, 0.5]], 1.0, [f], 1000, 10, 3, workers=workers),
        lambda: estimate_negative_moment(1, [0.5], 1.0, 1.0, 1.0, 1000, 10, 3, workers=workers),
        lambda: estimate_lq_moment("constant_unit", 2.0, 1.0, 1000, 10, 3, workers=workers),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            call()
    assert draws == {0: [], 1: []}


def test_panel_entry_does_not_depend_on_the_other_directions():
    # (1, 1e-7 | 0) is within 1e-12 in cosine of (1, 0 | 0), and its 1e-7 d/dx2
    # part must not be dropped when the two share a panel
    model = make_power_law_model(2, 1, 1.0)
    f = observable("sin_y", model)
    near = Direction.make([1.0, 1e-7], [0.0])
    args = (model, [1.0, 0.5, 0.0], 1.0, [f])
    shared = bismut_panel(*args, [Direction.make([1.0, 0.0], [0.0]), near], 4000, 20, 3)
    alone = bismut_panel(*args, [near], 4000, 20, 3)
    assert shared[("grad", "sin_y", 1)] == alone[("grad", "sin_y", 0)]


def test_panels_worker_invariant():
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model)]
    a = bismut_panel(model, [1.0, 0.0], 1.0, fs, [EX, EY], 8000, 50, 83,
                     workers=1, batch_size=1024)
    b = bismut_panel(model, [1.0, 0.0], 1.0, fs, [EX, EY], 8000, 50, 83,
                     workers=4, batch_size=1024)
    for key in a:
        assert a[key].mean == b[key].mean
    c = fd_panel(model, [1.0, 0.0], 1.0, fs, [EX], 8000, 50, 83, workers=1)
    d = fd_panel(model, [1.0, 0.0], 1.0, fs, [EX], 8000, 50, 83, workers=4)
    assert c[("grad_fd", "sin_y", 0)].mean == d[("grad_fd", "sin_y", 0)].mean


def test_panels_count_nonfinite_values_as_invalid():
    # an observable that is NaN on part of the paths: those paths count as
    # invalid in every column of the panel, and every estimate stays finite
    model = make_power_law_model(1, 1, 1.0)
    holey = Observable(name="nan_below_zero",
                       eval=lambda z: np.where(z[..., 1] < 0.0, np.nan, z[..., 1]))
    fs = [observable("sin_y", model), holey]
    n = 4000
    pb = bismut_panel(model, [1.0, 0.0], 1.0, fs, [EX, EY], n, 50, 89)
    pf = fd_panel(model, [1.0, 0.0], 1.0, fs, [EX, EY], n, 50, 89)
    for est in list(pb.values()) + list(pf.values()):
        assert math.isfinite(est.mean) and math.isfinite(est.stderr)
        assert 0 < est.n_invalid < n
        assert est.n_valid + est.n_invalid == n
    single = estimate_gradient_bismut(model, holey, [1.0, 0.0], EX, 1.0, n, 50, 89)
    assert single.n_invalid > 0 and math.isfinite(single.mean)


def _nondiagonal_model():
    """m=1, d=2 with sigma(x) = [[x, 1/2], [x/4, 1]]: non-diagonal, not scalar."""
    slope = np.array([[1.0, 0.0], [0.25, 0.0]])
    offset = np.array([[0.0, 0.5], [0.0, 1.0]])

    def sigma(x):
        return np.asarray(x)[..., 0, None, None] * slope + offset

    def grad_sigma(x, v):
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        return vv[..., None, None] * slope

    return ModelSpec(m=1, d=2, kind=ModelKind.BASIC, sigma=sigma,
                     grad_sigma=grad_sigma, name="nondiagonal(m=1,d=2)")


def _counting(monkeypatch, name):
    calls = []
    real = getattr(estimators, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, name, wrapper)
    return calls


def test_panels_draw_noise_once_per_batch(monkeypatch):
    draws = _counting(monkeypatch, "standard_noise")
    sims = _counting(monkeypatch, "simulate_batch")
    terminals = _counting(monkeypatch, "simulate_terminal_batch")
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model), observable("y_squared", model)]
    oblique = Direction.make(0.6, -0.8)
    # 3 batches, 5 distinct x-starts per batch: x +- eps (EX), x +- 0.6 eps
    # (oblique) and the unshifted x that EY's up and down starts share
    fd_panel(model, [1.0, 0.5], 1.0, fs, [EX, EY, oblique], 2500, 20, 5,
             batch_size=1024)
    assert len(draws) == 3
    assert len(terminals) == 3 * 5
    # 2 distinct x-starts per batch; the FD and semigroup-value panels never
    # run the direction part of a kernel
    pt_panel(model, [[1.0, 0.5], [1.0, -0.5], [0.5, 0.0]], 1.0, fs, 2500, 20, 5,
             batch_size=1024)
    assert len(draws) == 3 + 3
    assert len(terminals) == 3 * 5 + 3 * 2
    assert len(sims) == 0

    draws.clear()
    sims.clear()
    model2 = make_power_law_model(2, 1, 1.0)
    vs = [Direction.make([1.0, 0.0], [0.0]), Direction.make([0.0, 1.0], [0.0]),
          Direction.make([0.0, 0.0], [1.0])]
    bismut_panel(model2, [1.0, 0.5, 0.0], 1.0, [observable("sin_y", model2)], vs,
                 2500, 20, 5, batch_size=1024)
    assert len(draws) == 3
    assert len(sims) == 3         # one per batch, whatever the directions


def _counting_walks(monkeypatch) -> list:
    """The shape of the normals of every walk built, by a ``paths.Noise`` or
    by an estimator."""
    walks = []
    real = paths.standard_walk

    def counting(eps):
        walks.append(eps.shape)
        return real(eps)

    monkeypatch.setattr(paths, "standard_walk", counting)
    monkeypatch.setattr(estimators, "standard_walk", counting)
    return walks


@pytest.mark.parametrize("workers", [1, 2])
def test_every_point_and_x_start_of_a_tile_reads_one_walk(monkeypatch, workers):
    # K = 20 steps: a tile is a whole 1,024-path batch, so 2,500 paths are 3
    # tiles; at two workers the batches may finish in either order
    walks = _counting_walks(monkeypatch)
    terminals = _counting(monkeypatch, "simulate_terminal_batch")
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model)]
    points = [([1.0, 0.5], 1.0), ([0.0, 0.0], 0.25), ([2.0, -0.5], 1.7)]
    estimators.bismut_panels(model, points, fs, [EX, EY], 2500, 20, 5, workers=workers,
                             batch_size=1024)
    assert sorted(walks) == [(452, 20, 1), (1024, 20, 1), (1024, 20, 1)]
    # x + eps, x - eps and the unshifted x that EY's starts share
    walks.clear()
    fd_panel(model, [1.0, 0.5], 1.0, fs, [EX, EY], 2500, 20, 5, workers=workers,
             batch_size=1024)
    assert len(terminals) == 3 * 3
    assert len(walks) == 3
    for n_exp in (1.0, 1.5):
        walks.clear()
        estimators.estimate_negative_moments(1, [([x], T) for (x, _), T in points], n_exp, 1.0,
                                             2500, 20, 5, workers=workers, batch_size=1024)
        assert len(walks) == 3


def test_extended_panels_and_the_constant_integrand_build_no_walk(monkeypatch):
    walks = _counting_walks(monkeypatch)
    ext = make_extended_demo_model()
    fs = [observable("sin_y", ext)]
    estimators.bismut_panels(ext, [([1.0, 0.5], 1.0), ([0.5, 0.0], 0.5)], fs, [EX, EY],
                             600, 20, 5, batch_size=256)
    fd_panel(ext, [1.0, 0.5], 1.0, fs, [EX, EY], 600, 20, 5, batch_size=256)
    pt_panel(ext, [[1.0, 0.5], [0.5, 0.0]], 1.0, fs, 600, 20, 5, batch_size=256)
    estimate_lq_moment("constant_unit", 2.0, 1.0, 600, 20, 5, batch_size=256)
    assert walks == []
    estimate_lq_moment("adapted_cos", 2.0, 1.0, 600, 20, 5, batch_size=256)
    assert len(walks) == 3


def test_an_invalid_path_of_one_point_leaves_the_others_counts():
    # the observable is NaN past x = 2.5: most paths from x = 3 hit it, none
    # from x = 0 in a quarter of time; each point keeps its own validity mask
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model)]
    far = [("far", lambda z: np.where(np.asarray(z)[:, 0] > 2.5, np.nan, 1.0))]
    points = [([0.0, 0.0], 0.25), ([3.0, 0.0], 0.25), ([0.5, 0.0], 1.0)]
    panels = estimators.bismut_panels(model, points, fs, [EX, EY], 500, 10, 83,
                                      extra_obs=far, workers=2)
    assert panels[1][("pt", "far")].n_invalid > 250
    for (z0, T), panel in zip(points, panels):
        assert panel == bismut_panel(model, z0, T, fs, [EX, EY], 500, 10, 83, extra_obs=far)
    assert {e.n_invalid for e in panels[0].values()} == {0}


# K = 1,024 steps cut a power-law tile to one RNG block; the extended kernel runs
# whole batches
_POINTS_MODELS = {
    "power_law": (make_power_law_model(1, 1, 1.0), 1024),
    "extended_demo": (make_extended_demo_model(), 40),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_POINTS_MODELS))
def test_each_point_of_bismut_panels_is_its_one_point_panel(name, workers):
    # distinct T and x, 700-path batches over 256-path tiles against one-point
    # calls at the default batch size: mean, stderr and counts bit for bit
    model, n_steps = _POINTS_MODELS[name]
    fs = [observable("sin_y", model), observable("y_squared", model)]
    points = [([1.0, 0.5], 1.0), ([0.0, 0.0], 0.25), ([2.0, -0.5], 1.7)]
    panels = estimators.bismut_panels(model, points, fs, [EX, EY], 1100, n_steps, 29,
                                      workers=workers, batch_size=700)
    for (z0, T), panel in zip(points, panels):
        assert panel == bismut_panel(model, z0, T, fs, [EX, EY], 1100, n_steps, 29)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_point_of_estimate_negative_moments_is_its_one_point_moment(workers):
    points = [([0.0], 1.0), ([1.0], 0.25), ([0.5], 2.0)]
    moments = estimators.estimate_negative_moments(1, points, 1.0, 0.3, 1100, 1024, 31,
                                                   workers=workers, batch_size=700)
    for (x, T), moment in zip(points, moments):
        assert moment == estimate_negative_moment(1, x, T, 1.0, 0.3, 1100, 1024, 31)


def _counting_draws(monkeypatch):
    """The path indices of every RNG draw, listed by substream."""
    draws = {0: [], 1: []}
    real = rng.PathStreams.fill_normals

    def counting(self, path_indices, shape):
        draws[self.substream].append(np.asarray(path_indices).copy())
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", counting)
    return draws


def test_batches_run_as_block_aligned_tiles(monkeypatch):
    # K = 100 steps, m + d = 2: a tile is 1,280 paths, cut at absolute
    # multiples of 1,280 inside each 8,192-path batch; each tile draws dB from
    # substream 0 and zeta from substream 1 once
    draws = _counting_draws(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model)]
    want = [1280] * 6 + [512] + [768] + [1280] * 5 + [1024]
    for panel in (bismut_panel, fd_panel):
        for sub in draws.values():
            sub.clear()
        panel(model, [1.0, 0.5], 1.0, fs, [EX, EY], 16_384, 100, 5, batch_size=8192)
        for sub in draws.values():
            assert [len(idx) for idx in sub] == want
            starts = [int(idx[0]) for idx in sub]
            assert all(s % 256 == 0 for s in starts)
            assert np.array_equal(np.concatenate(sub), np.arange(16_384))
            blocks = [b for idx in sub for b in np.unique(idx // rng.BLOCK_PATHS)]
            assert len(blocks) == len(set(blocks))
    # the extended kernel runs whole batches, cut evenly above batch_size
    for sub in draws.values():
        sub.clear()
    ext = make_extended_demo_model()
    bismut_panel(ext, [1.0, 0.5], 1.0, [observable("sin_y", ext)], [EX], 3000, 100, 5,
                 batch_size=2048)
    assert [len(idx) for idx in draws[0]] == [len(idx) for idx in draws[1]] == [1536, 1464]


_PL11, _PL21 = make_power_law_model(1, 1, 1.0), make_power_law_model(2, 1, 1.0)
_TILED_CALLS = {
    "pt_panel": lambda **kw: pt_panel(
        _PL11, [[1.0, 0.5], [0.5, 0.0]], 1.0, [observable("sin_y", _PL11)], 1100, 1024, 7, **kw),
    "bismut_panel": lambda **kw: bismut_panel(
        _PL21, [1.0, 0.5, 0.0], 1.0, [observable("sin_y", _PL21)],
        [Direction.make([1.0, 0.0], [0.0]), Direction.make([0.0, 0.0], [1.0])],
        1100, 1024, 7, **kw),
    "fd_panel": lambda **kw: fd_panel(
        _PL11, [1.0, 0.5], 1.0, [observable("sin_y", _PL11)], [EX, EY], 1100, 1024, 7, **kw),
    "estimate_negative_moment": lambda **kw: estimate_negative_moment(
        1, [0.3], 1.0, 1.0, 0.5, 1100, 1024, 7, **kw),
    "estimate_lq_moment": lambda **kw: estimate_lq_moment(
        "sigma_row", 4.0, 1.0, 1100, 1024, 7, l=0.5, x=0.2, **kw),
}


@pytest.mark.parametrize("name", sorted(_TILED_CALLS))
def test_tiles_do_not_change_estimates(monkeypatch, name):
    # K = 1,024 steps: every estimator's tile is one 256-path block; batches
    # below, equal to and above the tile give the estimates of whole batches
    call = _TILED_CALLS[name]
    assert estimators._tile(1024, 1) == estimators._tile(1024, 3) == 256
    with monkeypatch.context() as untiled:
        untiled.setattr(estimators, "TILE_NORMALS", 2**40)
        want = call(batch_size=1100)
    for batch_size in (100, 256, 700):
        for workers in (1, 2):
            assert call(batch_size=batch_size, workers=workers) == want


def _central_difference(model, z0, v, f, T, n_paths, n_steps, seed, eps):
    """Per-path central difference from two independent simulations at z0 +- eps v."""
    grid = TimeGrid(T, n_steps)
    idx = np.arange(n_paths)
    shift = np.concatenate([v.v1, v.v2])
    z = np.asarray(z0, dtype=float)
    noise = standard_noise(seed, idx, n_steps, model)
    up = simulate_basic_batch(model, *split_point(model, z + eps * shift), grid, noise)
    dn = simulate_basic_batch(model, *split_point(model, z - eps * shift), grid, noise)
    assert up.valid.all() and dn.valid.all()
    return (f.eval(up.z_final) - f.eval(dn.z_final)) / (2.0 * eps)


@pytest.mark.parametrize("case", ["power_law", "nondiagonal"])
def test_fd_panel_is_bitwise_a_central_difference_of_two_simulations(case):
    if case == "power_law":
        model = make_power_law_model(1, 1, 1.0)
        z0 = [1.0, 0.5]
        vs = [EX, EY, Direction.make(0.6, -0.8)]
        fs = [observable("sin_y", model), observable("y_squared", model)]
    else:
        model = _nondiagonal_model()
        z0 = [0.7, 0.3, -0.2]
        vs = [Direction.make(1.0, [0.0, 0.0]), Direction.make(0.0, [0.0, 1.0]),
              Direction.make(0.5, [0.3, -0.4])]
        fs = [Observable(name="mixed", eval=lambda z: np.sin(z[..., 1]) * z[..., 2]
                         + z[..., 0] * z[..., 2])]
    T, n, steps, seed, eps = 1.0, 1500, 20, 97, 1e-3
    panel = fd_panel(model, z0, T, fs, vs, n, steps, seed, eps=eps, batch_size=512)
    for j, v in enumerate(vs):
        for f in fs:
            diff = _central_difference(model, z0, v, f, T, n, steps, seed, eps)
            mean = pairwise_sum(diff) / n
            stderr = math.sqrt(pairwise_sum((diff - mean) ** 2) / (n - 1) / n)
            est = panel[("grad_fd", f.name, j)]
            assert est.n_valid == n
            assert est.mean == mean
            assert est.stderr == stderr


# ---------------------------------------------------------------------------
# the parallel map of run_batches over its batches
# ---------------------------------------------------------------------------

def _count_executors(monkeypatch) -> list:
    built = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers", args[0] if args else None))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", Counting)
    return built


def _reduced_columns(monkeypatch) -> list:
    """Record the values of every column that ``run_batches`` reduces."""
    seen, real = [], estimators._finalize

    def recording(values, valid):
        seen.append(values)
        return real(values, valid)

    monkeypatch.setattr(estimators, "_finalize", recording)
    return seen


def _path_indices(idx):
    """A point function over the draw ``idx -> idx``: each path's value is its index."""
    return {"value": idx.astype(float)}, np.ones(len(idx), dtype=bool)


def test_extended_panel_keeps_its_whole_batch_at_two_workers(monkeypatch):
    # an untiled call is cut at batch_size alone: 5,000 extended paths at
    # workers=2 are one batch, drawn once and run inline
    draws = _counting_draws(monkeypatch)
    built = _count_executors(monkeypatch)
    ext = make_extended_demo_model()
    bismut_panel(ext, [1.0, 0.5], 1.0, [observable("sin_y", ext)], [EX], 5000, 10, 5,
                 workers=2)
    assert [len(idx) for idx in draws[0]] == [len(idx) for idx in draws[1]] == [5000]
    assert built == []


def test_parallel_map_keeps_input_order_when_tasks_finish_out_of_order(monkeypatch):
    # batch 0 cannot finish before batch 1 has, so completion order is not path
    # order; the column is still reduced in path order
    seen = _reduced_columns(monkeypatch)
    second_done = threading.Event()
    finished = []

    def point(idx):
        batch = int(idx[0]) // 256
        if batch == 0:
            assert second_done.wait(timeout=30)
        finished.append(batch)
        if batch == 1:
            second_done.set()
        return _path_indices(idx)

    run_batches(1024, lambda idx: idx, [point], workers=2, batch_size=256)
    assert finished.index(1) < finished.index(0)
    assert len(seen) == 1 and np.array_equal(seen[0], np.arange(1024.0))


def test_parallel_map_keeps_order_under_oversubscribed_threads(monkeypatch):
    seen = _reduced_columns(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_batches(64 * 256, lambda idx: idx, [_path_indices], workers=8, batch_size=256)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 1 and np.array_equal(seen[0], np.arange(64 * 256.0))


def test_parallel_map_builds_no_executor_for_one_item_or_one_worker(monkeypatch):
    built = _count_executors(monkeypatch)
    # 200 paths at 4 workers are one batch; 1,000 paths at one worker run inline
    (one_batch,) = run_batches(200, lambda idx: idx, [_path_indices], workers=4)
    (inline,) = run_batches(1000, lambda idx: idx, [_path_indices], workers=1,
                            batch_size=256)
    assert run_batches(1000, lambda idx: idx, [], workers=4) == []
    assert built == []
    assert one_batch["value"].mean == 99.5 and inline["value"].mean == 499.5


def test_lemma31_grid_builds_one_pool_for_its_batches(monkeypatch):
    # the batches are the one parallel axis: one pool maps them, and no tile
    # builds a pool of its own for the grid points
    serial = check_lemma31(McParams(10_000, 100, 61, workers=1))
    built = _count_executors(monkeypatch)
    parallel = check_lemma31(McParams(10_000, 100, 61, workers=2))
    assert built == [2]
    assert parallel == serial
    assert parallel.points and parallel.points == serial.points


def test_a_standalone_cut_splits_no_block_between_batches(monkeypatch):
    # 1,250 paths at workers=2: ceil(1250 / 2) = 625 rounds up to 768, so the
    # batches are paths 0-767 and 768-1249, and the five blocks are each
    # generated once (a cut at 625 generated block 2 in both batches)
    serial = check_lemma31(McParams(1250, 100, 71, workers=1))
    blocks = []
    real = rng.PathStreams.fill_normals

    def counting(self, path_indices, shape):
        blocks.append(len(np.unique(np.asarray(path_indices) // rng.BLOCK_PATHS)))
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", counting)
    parallel = check_lemma31(McParams(1250, 100, 71, workers=2))
    assert sorted(blocks) == [2, 3]   # the two batches run on two threads
    assert parallel == serial
    assert parallel.points and parallel.points == serial.points


def test_lq_cases_are_bit_for_bit_their_one_case_estimates():
    cases = [("constant_unit", 2.0, {}), ("adapted_cos", 4.0, {}),
             ("sigma_row", 2.0, {"l": 1.0, "x": 1.0}), ("constant_unit", 4.0, {}),
             ("sigma_row", 3.0, {"l": 0.5, "x": -0.5})]
    together = estimate_lq_moments(cases, 0.7, 3000, 30, 89, batch_size=700)
    for (name, q, kw), est in zip(cases, together):
        assert est == estimate_lq_moment(name, q, 0.7, 3000, 30, 89, **kw), name
    # a case's estimate does not depend on which cases share the call
    assert estimate_lq_moments(cases[::-1], 0.7, 3000, 30, 89) == together[::-1]


def test_lq_cases_are_checked_before_any_draw(monkeypatch):
    draws = []
    real = rng.PathStreams.fill_normals

    def counting(self, path_indices, shape):
        draws.append(shape)
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", counting)
    good = ("constant_unit", 2.0, {})
    for bad, error in ((("constant_unit", 1.0, {}), "q must be"),
                       (("sigma_row", 2.0, {"x": math.nan}), "must be finite"),
                       (("no_such", 2.0, {}), "unknown integrand")):
        with pytest.raises(ValueError, match=error):
            estimate_lq_moments([good, bad], 1.0, 200, 10, 3)
    assert estimate_lq_moments([], 1.0, 200, 10, 3) == []
    assert draws == []


def test_parallel_map_propagates_a_task_exception():
    def point(idx):
        if idx[0] == 512:
            raise ValueError("batch 2")
        return _path_indices(idx)

    with pytest.raises(ValueError, match="batch 2"):
        run_batches(1024, lambda idx: idx, [point], workers=2, batch_size=256)


def test_panel_called_directly_overlaps_its_batches(monkeypatch):
    built = _count_executors(monkeypatch)
    model = make_power_law_model(1, 1, 1.0)
    fs = [observable("sin_y", model)]
    a = bismut_panel(model, [1.0, 0.0], 1.0, fs, [EX], 2000, 10, 5, batch_size=1000)
    b = bismut_panel(model, [1.0, 0.0], 1.0, fs, [EX], 2000, 10, 5, batch_size=1000,
                     workers=2)
    assert built == [2]
    assert a == b
