"""Bound checkers, the intrinsic-distance upper bound, and the Harnack loop."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gruschin.analysis import (
    BoundCheckReport,
    BoundCheckVerdict,
    GradientGrid,
    McParams,
    RatioPoint,
    check_a5,
    check_a6,
    check_harnack_suite,
    check_lemma31,
    check_lemma_ll,
    report_markdown,
    rho_upper_bound,
    suite_exit_code,
)
from gruschin import analysis, estimators, oracles, paths, rng
from gruschin.estimators import estimate_gradient_bismut, estimate_pt
from gruschin.models import (
    Direction,
    ModelKind,
    ModelSpec,
    PowerParams,
    as_extended,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    make_tilted_matrix_model,
    observable,
)

coord = st.floats(min_value=-2.5, max_value=2.5, allow_nan=False)


# ---------------------------------------------------------------------------
# intrinsic distance
# ---------------------------------------------------------------------------

def test_rho_zero_iff_same_point():
    model = make_power_law_model(1, 1, 1.0)
    assert rho_upper_bound(model, (1.0, 0.5), (1.0, 0.5)) == 0.0
    assert rho_upper_bound(model, (0.0, 0.0), (0.0, 1e-3)) > 0.0


def test_rho_vertical_segment_never_beaten_by_family():
    model = make_power_law_model(1, 1, 1.0)
    rb = rho_upper_bound(model, (1.0, 0.0), (1.0, 0.1))
    assert rb <= 0.1


def test_rho_origin_to_unit_y():
    # cost 2s + 1/s over waypoints s > 0 is minimized at s = 1/sqrt(2)
    model = make_power_law_model(1, 1, 1.0)
    rb = rho_upper_bound(model, (0.0, 0.0), (0.0, 1.0))
    assert rb == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("l", [1.0, 2.0])
def test_rho_matches_dense_scan(l):
    model = make_power_law_model(1, 1, l)
    z, zp = (0.4, -0.3), (-0.2, 0.9)
    rb = rho_upper_bound(model, z, zp)
    dy = abs(zp[1] - z[1])
    ss = np.concatenate([np.linspace(1e-4, 4.0, 40001), -np.linspace(1e-4, 4.0, 40001)])
    dense = np.min(np.abs(z[0] - ss) + dy / np.abs(ss) ** l + np.abs(ss - zp[0]))
    assert rb <= dense + 1e-8
    assert rb == pytest.approx(dense, abs=1e-4)


@given(x=coord, y=coord, xp=coord, yp=coord)
@settings(max_examples=60, deadline=None)
def test_rho_symmetry(x, y, xp, yp):
    model = make_power_law_model(1, 1, 1.0)
    ab = rho_upper_bound(model, (x, y), (xp, yp))
    ba = rho_upper_bound(model, (xp, yp), (x, y))
    assert abs(ab - ba) <= 1e-8 * (1.0 + ab)


@given(x=coord, y=coord, xm=coord, ym=coord, xp=coord, yp=coord)
@settings(max_examples=40, deadline=None)
def test_rho_triangle_inequality(x, y, xm, ym, xp, yp):
    # reusing the cheaper of the two legs' waypoints shows the family minimum is
    # exactly sub-additive; only search tolerance is allowed on top
    model = make_power_law_model(1, 1, 1.0)
    direct = rho_upper_bound(model, (x, y), (xp, yp))
    via = (rho_upper_bound(model, (x, y), (xm, ym))
           + rho_upper_bound(model, (xm, ym), (xp, yp)))
    assert direct <= via + 1e-8


@given(x=coord, xp=coord, y=coord)
@settings(max_examples=60, deadline=None)
def test_rho_horizontal_moves_cost_euclidean(x, xp, y):
    model = make_power_law_model(1, 1, 1.0)
    assert rho_upper_bound(model, (x, y), (xp, y)) <= abs(x - xp) + 1e-8


def test_rho_charges_y_moves_by_the_lower_comparability_constant():
    # sigma(x) = x/2 has a = 1/2: the vertical segment at x* = 1 costs
    # 0.5 / sigma(1) = 1, and no waypoint of the family does better
    def half(x):
        return np.asarray(x)[..., 0] / 2.0

    def half_grad(x, v):
        return np.broadcast_to(np.asarray(v)[..., 0] / 2.0, np.shape(x)[:-1])

    model = ModelSpec(m=1, d=1, kind=ModelKind.BASIC,
                      sigma=lambda x: half(x)[..., None, None],
                      grad_sigma=lambda x, v: half_grad(x, v)[..., None, None],
                      sigma_scalar=half, grad_sigma_scalar=half_grad,
                      power_params=PowerParams(a=0.5, b=1.0, l=1.0), name="half_linear")
    rb = rho_upper_bound(model, (1.0, 0.0), (1.0, 0.5))
    assert rb >= 1.0
    assert rb == pytest.approx(1.0, abs=1e-9)


def test_rho_on_a_matrix_sigma_matches_dense_scan():
    # tilted_matrix (m = 1, d = 2): the y-move at x* costs |sigma(x*)^-1 dy|
    model = make_tilted_matrix_model()
    z, zp = (0.4, -0.3, 0.2), (-0.2, 0.9, -0.5)
    rb = rho_upper_bound(model, z, zp)
    dy = np.subtract(zp[1:], z[1:])
    ss = np.concatenate([np.linspace(1e-4, 4.0, 40001), -np.linspace(1e-4, 4.0, 40001)])
    y_cost = np.linalg.norm(np.linalg.solve(model.sigma(ss[:, None]), dy), axis=-1)
    dense = np.min(np.abs(z[0] - ss) + y_cost + np.abs(ss - zp[0]))
    assert rb <= dense + 1e-8
    assert rb == pytest.approx(dense, abs=1e-4)


@pytest.mark.parametrize("l", [1.0, 2.0])
def test_rho_in_two_x_dimensions_on_the_first_axis_is_the_one_dimensional_value(l):
    one = make_power_law_model(1, 1, l)
    two = make_power_law_model(2, 1, l)
    for (x, y), (xp, yp) in [((0.4, -0.3), (-0.2, 0.9)), ((0.0, 0.0), (0.0, 1.0)),
                             ((1.0, 0.0), (1.0, 0.5)), ((0.5, 0.0), (-0.5, 0.2))]:
        assert rho_upper_bound(two, (x, 0.0, y), (xp, 0.0, yp)) == pytest.approx(
            rho_upper_bound(one, (x, y), (xp, yp)), rel=1e-12)


def test_rho_charges_a_singular_sigma_infinity_without_raising():
    # sigma(0) = 0 for tilted_matrix: both endpoint waypoints are singular, but
    # the search finds finite waypoints away from x = 0
    rb = rho_upper_bound(make_tilted_matrix_model(), (0.0, 0.0, 0.0), (0.0, 0.5, 0.0))
    assert 0.0 < rb < math.inf
    # a sigma singular at every waypoint leaves no finite y-move
    rank_one = ModelSpec(m=1, d=2, kind=ModelKind.BASIC,
                         sigma=lambda x: np.asarray(x)[..., 0, None, None] * np.ones((2, 2)),
                         grad_sigma=lambda x, v: np.ones(np.shape(x)[:-1] + (2, 2)),
                         name="rank_one")
    assert rho_upper_bound(rank_one, (1.0, 0.0, 0.0), (1.0, 0.5, 0.0)) == math.inf
    assert rho_upper_bound(rank_one, (1.0, 0.5, 0.0), (2.0, 0.5, 0.0)) == 1.0


def test_rho_charges_extended_x_moves_through_sigma1():
    # extended_demo: sigma1 = 1 + tanh(x)/4 < 1 for x < 0, so a pure x-move
    # there costs int |sigma1^-1| dx > |dx|; above 0 it costs less than |dx|
    model = make_extended_demo_model()
    left = rho_upper_bound(model, (-2.0, 0.3), (-1.0, 0.3))
    xs = np.linspace(-2.0, -1.0, 200001)
    dense = np.trapezoid(1.0 / (1.0 + 0.25 * np.tanh(xs)), xs)
    assert left > 1.0
    assert left == pytest.approx(dense, rel=1e-9)
    assert rho_upper_bound(model, (1.0, 0.3), (2.0, 0.3)) < 1.0
    # sigma1 = I: the extended embedding costs what the basic model does
    basic = make_power_law_model(1, 1, 1.0)
    for z, zp in [((1.0, 0.0), (1.0, 0.5)), ((0.5, 0.0), (-0.5, 0.2)), ((0.3, 0.1), (1.2, 0.1))]:
        assert rho_upper_bound(as_extended(basic), z, zp) == pytest.approx(
            rho_upper_bound(basic, z, zp), rel=1e-12)


@pytest.mark.parametrize("z, zp", [((0.4, -0.3), (-0.2, 0.9)), ((2.0, 0.0), (2.5, 30.0))])
def test_rho_on_an_extended_model_matches_dense_scan(z, zp):
    # extended_demo: an x-move costs |G(b) - G(a)| with G' = 1 / sigma1, and a
    # y-move at x* costs |dy| / |x*|
    model = make_extended_demo_model()
    rb = rho_upper_bound(model, z, zp)
    ss = np.linspace(-12.0, 12.0, 480001)
    g = np.concatenate([[0.0], np.cumsum(np.diff(ss) / (1.0 + 0.25 * np.tanh(0.5 * (ss[1:] + ss[:-1]))))])
    G = lambda s: np.interp(s, ss, g)
    with np.errstate(divide="ignore"):
        dense = np.min(np.abs(G(ss) - G(z[0])) + abs(zp[1] - z[1]) / np.abs(ss)
                       + np.abs(G(zp[0]) - G(ss)))
    assert rb <= dense + 1e-6
    assert rb == pytest.approx(dense, abs=1e-4)


def test_rho_search_reaches_the_far_waypoints_of_a_fast_extended_x():
    # sigma1 = 16: an x-move costs |dx| / 16, so (1, 0) -> (1, 8) is cheapest
    # through x* = 8, where 2 * 7/16 + 8/8 = 1.875; a bracket that charged
    # x-moves |dx| would stop at x* = 5 (cost 2.1)
    fast = replace(as_extended(make_power_law_model(1, 1, 1.0)), family=None,
                   sigma1=lambda x: np.full(np.shape(x)[:-1] + (1, 1), 16.0))
    assert rho_upper_bound(fast, (1.0, 0.0), (1.0, 8.0)) == pytest.approx(1.875, abs=1e-9)


# ---------------------------------------------------------------------------
# gradient-rate and square-field checks
# ---------------------------------------------------------------------------

SMALL_CAL = ((0.5, 0.5), (1.0, 1.0))
SMALL_HOLD = ((0.75, 0.75),)


def test_a5_trivial_observable_gives_zero_ratios():
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=3000, n_steps=40, seed=5)
    rep = check_a5(GradientGrid(model, [observable("one", model)], mc),
                   calibration=SMALL_CAL, holdout=SMALL_HOLD)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
    assert all(p.ratio <= p.tolerance for p in rep.points)


def test_a5_full_small_grid_is_bounded():
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=4000, n_steps=50, seed=7)
    fs = [observable("sin_y", model), observable("cos_x", model)]
    rep = check_a5(GradientGrid(model, fs, mc), calibration=SMALL_CAL, holdout=SMALL_HOLD)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
    assert rep.fitted_constant > 0.0
    assert rep.max_ratio < float("inf")


def test_a5_ratio_homogeneous_in_direction_scale():
    # doubling v2 doubles the numerator exactly (pathwise linearity), leaving
    # the normalized ratio unchanged
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    v1 = Direction.make(0.0, 1.0)
    v2 = Direction.make(0.0, 2.0)
    a = estimate_gradient_bismut(model, f, [1.0, 0.0], v1, 1.0, 5000, 50, 11)
    b = estimate_gradient_bismut(model, f, [1.0, 0.0], v2, 1.0, 5000, 50, 11)
    assert b.mean == pytest.approx(2.0 * a.mean, rel=1e-12)


@pytest.mark.parametrize("p", [4.0, 1.5])
def test_a5_ratio_at_p_other_than_2_reads_the_abs_power_column(p):
    # rebuild |grad_v P f| / ((P|f|^p)^{1/p} rate) from a one-point panel on
    # the grid seed, with |f|^p as the only plain observable
    model = make_power_law_model(1, 1, 1.0)
    f = observable("sin_y", model)
    mc = McParams(n_paths=2000, n_steps=20, seed=17)
    rep = check_a5(GradientGrid(model, [f], mc, p), calibration=((1.0, 1.0),),
                   holdout=((0.5, 0.5),))
    point = next(q for q in rep.points if q.label == "T=0.5,x=0.5,f=sin_y,v=1")
    seed = rng.derive_seed(mc.seed, "grad_grid")
    assert point.seed == seed
    panel = estimators.bismut_panel(
        model, [0.5, 0.0], 0.5, [f], [Direction.make(1.0, 0.0), Direction.make(0.0, 1.0)],
        mc.n_paths, mc.n_steps, seed, extra_obs=[("abs_p", lambda z: np.abs(f.eval(z)) ** p)])
    rate = 1.0 / math.sqrt(0.5 * (0.5**2 + 0.5))
    want = abs(panel[("grad", "sin_y", 1)].mean) / (panel[("pt", "abs_p")].mean ** (1.0 / p) * rate)
    assert point.ratio == pytest.approx(want, rel=1e-12)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND


def test_a5_requires_power_params():
    with pytest.raises(ValueError, match="power-law"):
        check_a5(GradientGrid(make_constant_identity_model(), [], McParams(100, 10, 1)))
    with pytest.raises(ValueError, match="p must exceed 1"):
        GradientGrid(make_power_law_model(1, 1, 1.0), [], McParams(100, 10, 1), p=1.0)


def test_a5_alone_simulates_only_its_axes(monkeypatch):
    # m = 3: the grid's panels carry all m + d axes, and one simulation per
    # batch serves them all, A5's axes 0 and m among them
    calls = []
    real = estimators.simulate_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "simulate_batch", counting)
    model = make_power_law_model(3, 1, 1.0)
    fs = [observable("tanh_y", model)]
    rep = check_a5(GradientGrid(model, fs, McParams(200, 10, 3)),
                   calibration=((1.0, 1.0),), holdout=((1.0, 0.5),))
    assert len(calls) == 2
    assert [p.v for p in rep.points[:2]] == [((1.0, 0.0, 0.0), (0.0,)),
                                             ((0.0, 0.0, 0.0), (1.0,))]


# ---------------------------------------------------------------------------
# one Brownian draw per check grid
# ---------------------------------------------------------------------------

_SHARED_KEYS = [("calibration", 0.5, 0.0), ("calibration", 2.0, 1.0),
                ("holdout", 0.5, 1.0), ("holdout", 2.0, 0.0)]
_SHARED_CAL = [(T, x) for _, T, x in _SHARED_KEYS[:2]]
_SHARED_HOLD = [(T, x) for _, T, x in _SHARED_KEYS[2:]]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", [make_power_law_model(1, 1, 1.0), make_extended_demo_model()],
                         ids=["basic", "extended"])
def test_a_grid_point_is_the_one_point_panel_at_the_grid_seed(monkeypatch, model, workers):
    # two T and two x in one grid call; a 256-path tile cuts the basic
    # model's 600 paths into three tiles, each drawn once for all points
    monkeypatch.setattr(estimators, "TILE_NORMALS", 12 * 2 * 256)
    fs = [observable("sin_y", model), observable("tanh_y", model)]
    mc = McParams(n_paths=600, n_steps=12, seed=71, workers=workers)
    grid = GradientGrid(model, fs, mc)
    rows = grid.rows(_SHARED_CAL, _SHARED_HOLD)
    assert grid.seed == rng.derive_seed(mc.seed, "grad_grid")
    axes = [Direction(e[: model.m], e[model.m:]) for e in np.eye(model.m + model.d)]
    squares = [(f"{f.name}^2", lambda z, f=f: np.asarray(f.eval(z), dtype=float) ** 2)
               for f in fs]
    assert [row[:3] for row in rows] == _SHARED_KEYS
    for phase, T, x, z0, panel in rows:
        assert list(z0) == [x, 0.0]
        alone = estimators.bismut_panel(model, z0, T, fs, axes, mc.n_paths, mc.n_steps,
                                        grid.seed, extra_obs=squares)
        assert panel == alone, (phase, T, x)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_lemma31_point_is_the_one_point_moment_at_the_grid_seed(workers):
    mc = McParams(n_paths=600, n_steps=12, seed=73, workers=workers)
    rep = check_lemma31(mc, m=2, n_exp=1.5, alpha=0.5, calibration=_SHARED_CAL,
                        holdout=_SHARED_HOLD)
    seed = rng.derive_seed(mc.seed, "lemma31")
    assert len(rep.points) == 4
    for p in rep.points:
        est = estimators.estimate_negative_moment(2, [p.z0[0], 0.0], p.T, 1.5, 0.5,
                                                  mc.n_paths, mc.n_steps, seed)
        normalizer = p.T**0.5 * (p.z0[0] ** 2 + p.T) ** 0.75
        assert p.seed == seed
        assert (p.ratio, p.tolerance) == (est.mean * normalizer, 4.0 * est.stderr * normalizer)
        assert (p.n_valid, p.n_invalid) == (est.n_valid, est.n_invalid)


def test_a_grid_draws_once_per_tile_for_all_its_points(monkeypatch):
    # the linear family draws KL_MODES + 3 rows: the A6 grid's tile (width
    # m + d = 2) is 6,656 paths and Lemma 3.1's (width m = 1) 13,568, cut at
    # their absolute multiples inside 8,192-path batches, so 14,000 paths are
    # four and three tiles; every tile draws once from each substream it
    # reads, for all 13 points: zeta and the KL modes of substream 2, no
    # increments
    assert paths.KL_MODES + 3 == 19
    draws = {0: [], 1: [], 2: []}
    real = rng.PathStreams.fill_normals

    def counting(self, path_indices, shape):
        draws[self.substream].append(len(path_indices))
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", counting)
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=14_000, n_steps=100, seed=79)
    rep = check_a6(GradientGrid(model, [observable("sin_y", model)], mc))
    assert len(rep.points) == 13
    assert draws == {0: [], 1: [6656, 1536, 5120, 688], 2: [6656, 1536, 5120, 688]}
    draws[1].clear(), draws[2].clear()
    assert len(check_lemma31(mc).points) == 13
    assert draws == {0: [], 1: [], 2: [8192, 5376, 432]}


def _record_args(monkeypatch, module, name):
    """Record the positional arguments of every call of ``module.<name>``."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def _record_threads(monkeypatch, module, name):
    """Record the thread of every call of ``module.<name>``.  Once armed, the
    first two calls wait for each other, so they pass only if they overlap."""
    threads, armed = set(), []
    barrier = threading.Barrier(2, timeout=30)
    real = getattr(module, name)

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        try:
            armed.pop()
        except IndexError:
            pass
        else:
            barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return threads, armed


def test_point_tasks_overlap_and_match_the_serial_reports(monkeypatch):
    # a check's tasks are its batches: each draws its tiles and runs every
    # point's path functionals, in order, on each tile's draw.  At K = 100,
    # 3,000 paths span two tiles or more (2,560 paths at width 1, 1,280 at
    # width 2), so every check runs two batches at workers=2; the Harnack
    # pairs read one panel, whose tiles simulate each distinct x-start once,
    # and the L^q cases one draw per tile.  Lemma 3.1 points read the path at
    # n = 1.5; at n = 1 they read the KL functionals the tile computes once.
    # sigma(x) = x runs through its callbacks, on walks of K steps
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    lemma31_grid = dict(calibration=((0.25, 0.0), (1.0, 1.0)), holdout=((0.5, 0.5),))
    cases = [
        ((estimators, "brownian_left_nodes"), lambda mc: check_lemma31(
            mc, n_exp=1.5, **lemma31_grid)),
        ((estimators, "simulate_terminal_batch"), lambda mc: check_harnack_suite(
            model, 1.0, [((1.0, 0.0), (1.0, 0.5)), ((0.5, 0.0), (1.0, 0.5)),
                         ((1.0, 0.0), (1.5, 0.0))],
            observable("one_plus_tanh_y", model), 1.0, mc)),
        ((estimators, "standard_increments"), check_lemma_ll),
        ((estimators, "simulate_batch"), lambda mc: check_a5(
            GradientGrid(model, [observable("sin_y", model)], mc),
            calibration=((1.0, 0.0), (1.0, 1.0)), holdout=((0.5, 0.5),))),
    ]
    for (module, name), run in cases:
        threads, armed = _record_threads(monkeypatch, module, name)
        serial = run(McParams(3000, 100, 59, workers=1))
        threads.clear()
        armed += [True, True]
        parallel = run(McParams(3000, 100, 59, workers=2))
        assert len(threads) >= 2, name
        assert parallel == serial, name
        assert parallel.points and parallel.points == serial.points
    serial, parallel = (check_lemma31(McParams(1000, 10, 59, workers=w), **lemma31_grid)
                        for w in (1, 2))
    assert parallel == serial
    assert parallel.points and parallel.points == serial.points


def test_a_standalone_panel_overlaps_two_batches(monkeypatch):
    # K = 100: 3,000 paths span three 1,280-path tiles, so at workers=2 they
    # run as two batches, of 1,536 and 1,464 paths; the first two kernel calls
    # wait for each other, so they pass only if they overlap; sigma(x) = x
    # runs through its callbacks, on walks of K steps
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    fs = [observable("sin_y", model)]
    serial = estimators.pt_panel(model, [[1.0, 0.5]], 1.0, fs, 3000, 100, 67)
    threads, armed = _record_threads(monkeypatch, estimators, "simulate_terminal_batch")
    armed += [True, True]
    parallel = estimators.pt_panel(model, [[1.0, 0.5]], 1.0, fs, 3000, 100, 67, workers=2)
    assert len(threads) == 2
    assert parallel == serial


def test_a6_gaussian_closed_form():
    # sigma = I, f = sin x: Gamma_1(P_T f) T / P_T f^2 has an exact value
    model = make_constant_identity_model()
    T, x = 1.0, 0.6
    f = observable("sin_x", model)
    mc = McParams(n_paths=60000, n_steps=100, seed=13)
    grad = estimate_gradient_bismut(model, f, [x, 0.0], Direction.make(1.0, 0.0),
                                    T, mc.n_paths, mc.n_steps, mc.seed)
    f2 = lambda z: np.sin(np.asarray(z)[..., 0]) ** 2
    from gruschin.models import TestFunction

    pf2 = estimate_pt(model, TestFunction(name="sin_x^2", eval=f2), [x, 0.0], T,
                      mc.n_paths, mc.n_steps, mc.seed)
    ratio_mc = grad.mean**2 * T / pf2.mean
    want = (math.exp(-T) * math.cos(x) ** 2 * T
            / ((1.0 - math.cos(2 * x) * math.exp(-2.0 * T)) / 2.0))
    band = (2 * abs(grad.mean) * 4 * grad.stderr * T / pf2.mean
            + ratio_mc * 4 * pf2.stderr / pf2.mean)
    assert abs(ratio_mc - want) <= band + 0.02 * want


def test_a6_small_grid_bounded():
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=4000, n_steps=50, seed=17)
    fs = [observable("sin_y", model), observable("tanh_y", model)]
    rep = check_a6(GradientGrid(model, fs, mc), calibration=SMALL_CAL, holdout=SMALL_HOLD)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND


def test_a6_trivial_observable_gives_zero_ratios():
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=3000, n_steps=40, seed=18)
    rep = check_a6(GradientGrid(model, [observable("one", model)], mc),
                   calibration=SMALL_CAL, holdout=SMALL_HOLD)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
    assert all(p.ratio <= p.tolerance for p in rep.points)


# ---------------------------------------------------------------------------
# moment lemmas
# ---------------------------------------------------------------------------

def test_lemma31_small_grid():
    mc = McParams(n_paths=5000, n_steps=50, seed=19)
    rep = check_lemma31(mc, calibration=((0.25, 0.0), (1.0, 1.0), (4.0, 2.0)),
                        holdout=((0.5, 0.5),))
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
    assert rep.fitted_constant > 0


def test_lemma_ll_catalogue():
    mc = McParams(n_paths=20000, n_steps=80, seed=23)
    rep = check_lemma_ll(mc)
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
    by_label = {p.label: p for p in rep.points}
    # the isometry cases sit at the equality edge, the q = 4 case well inside
    assert by_label["constant_unit,q=2.0"].ratio == pytest.approx(1.0, abs=0.05)
    assert by_label["constant_unit,q=4.0"].ratio == pytest.approx(3.0 / 36.0, abs=0.02)


@pytest.mark.parametrize("run", [
    lambda mc: check_lemma31(mc, calibration=(), holdout=()),
    lambda mc: check_lemma_ll(mc, cases=()),
    lambda mc: check_harnack_suite(make_constant_identity_model(), 1.0, [],
                                   observable("one", make_constant_identity_model()), 1.0, mc),
], ids=["lemma31", "lemma_ll", "harnack"])
def test_bound_check_without_rows_is_inconclusive(run):
    # one rule for every bound check: no row to fit the constant on
    rep = run(McParams(200, 10, 23))
    assert rep.verdict is BoundCheckVerdict.INCONCLUSIVE
    assert not rep.points and math.isnan(rep.fitted_constant)


def test_harnack_and_lemma_ll_without_rows_draw_nothing(monkeypatch):
    draws = _record_args(monkeypatch, rng.PathStreams, "fill_normals")
    model = make_constant_identity_model()
    mc = McParams(200, 10, 23, workers=2)
    assert not check_harnack_suite(model, 1.0, [], observable("one", model), 1.0, mc).points
    assert not check_lemma_ll(mc, cases=()).points
    assert draws == []


# ---------------------------------------------------------------------------
# Harnack
# ---------------------------------------------------------------------------

def test_harnack_same_point_holds_with_equality():
    model = make_constant_identity_model()
    f = observable("one_plus_tanh_y", model)
    res = check_harnack_suite(model, 1.0, [((0.4, 0.1), (0.4, 0.1))], f, 1.0,
                              McParams(4000, 40, 29)).points[0]
    assert res.ratio == 1.0  # identical seeds at identical points


def test_harnack_constant_observable_holds_for_any_constant():
    model = make_constant_identity_model()
    f = observable("one", model)
    res = check_harnack_suite(model, 1.0, [((0.0, 0.0), (1.0, 1.0))], f, 5.0,
                              McParams(4000, 40, 31)).points[0]
    # P f = 1 at both points and rho = sqrt(2): the ratio is 1 / (1 + 5 sqrt(2))
    assert res.ratio == pytest.approx(1.0 / (1.0 + 5.0 * math.sqrt(2.0)))
    assert res.ratio <= 1.0 + res.tolerance


def test_harnack_degenerate_model_pair_holds():
    model = make_power_law_model(1, 1, 1.0)
    f = observable("one_plus_tanh_y", model)
    res = check_harnack_suite(model, 1.0, [((1.0, 0.0), (1.0, 0.5))], f, 1.0,
                              McParams(20000, 80, 37)).points[0]
    assert res.ratio <= 1.0 + res.tolerance
    # the vertical segment at x* = 1
    assert rho_upper_bound(model, (1.0, 0.0), (1.0, 0.5)) <= 0.5 + 1e-9


def test_harnack_on_renamed_heat_model_uses_euclidean_distance(monkeypatch):
    # the distance follows the declared family, not the model's name
    def no_bound(*args):
        raise AssertionError("a heat-family model reads the Euclidean distance")

    model = replace(make_constant_identity_model(), name="my_model")
    f = observable("one_plus_tanh_y", model)
    z, zp = (0.3, 0.0), (0.8, 0.4)
    monkeypatch.setattr(analysis, "rho_upper_bound", no_bound)
    res = check_harnack_suite(model, 1.0, [(z, zp)], f, 1.0, McParams(2000, 20, 33)).points[0]
    assert 0.0 < res.ratio <= 1.0 + res.tolerance


def test_harnack_rejects_negative_observable():
    model = make_constant_identity_model()
    f = observable("sin_y", model)
    with pytest.raises(ValueError, match="negative"):
        check_harnack_suite(model, 1.0, [((0.0, 0.0), (0.5, 0.5))], f, 1.0,
                            McParams(2000, 40, 41))


def test_harnack_simulates_each_base_point_once(monkeypatch):
    # the pairs read one panel, which simulates each distinct x-start of all
    # their points once: x = 1 (for (1, 0) and (1, 0.5)) and x = 0.5
    calls = []
    real = estimators.simulate_terminal_batch

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "simulate_terminal_batch", counting)
    model = make_power_law_model(1, 1, 1.0)
    f = observable("one_plus_tanh_y", model)
    pairs = [((1.0, 0.0), (1.0, 0.5)), ((0.5, 0.0), (1.0, 0.5))]
    rep = check_harnack_suite(model, 1.0, pairs, f, 1.0, McParams(2000, 20, 47))
    assert len(calls) == 2
    for pt in rep.points:
        assert pt.n_valid + pt.n_invalid == 2000


def _default_pairs():
    # the four pairs the default run checks at its point (1, 0)
    return [((1.0, 0.0), (1.0, 0.5)), ((1.0, 0.0), (1.5, 0.0)),
            ((0.5, 0.0), (1.0, 0.5)), ((1.0, -0.5), (1.0, 0.5))]


def test_each_a8_row_is_its_one_pair_check():
    # one seed for the check; with no invalid path the suite's shared mask is
    # each pair's own, so every row is bit for bit its one-pair check
    model = make_power_law_model(1, 1, 1.0)
    f = observable("one_plus_tanh_y", model)
    mc = McParams(3000, 20, 101)
    rep = check_harnack_suite(model, 1.0, _default_pairs(), f, 0.8, mc)
    assert len(rep.points) == 4 and not rep.skipped
    for pair, row in zip(_default_pairs(), rep.points):
        assert row.n_invalid == 0
        assert row.seed == analysis.derive_seed(mc.seed, f"harnack:{f.name}:1.0")
        assert row == check_harnack_suite(model, 1.0, [pair], f, 0.8, mc).points[0]


def test_harnack_pairs_draw_once_and_simulate_each_x_start_once_per_tile(monkeypatch):
    # K = 100: the panel's tile (width m + d = 2) is 1,280 paths, so 2,000 paths
    # are two tiles; the default pairs have three x-starts (1, 1.5 and 0.5).
    # sigma(x) = x runs through its callbacks, on walks of K steps
    draws = _record_args(monkeypatch, estimators, "standard_noise")
    sims = _record_args(monkeypatch, estimators, "simulate_terminal_batch")
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    f = observable("one_plus_tanh_y", model)
    rep = check_harnack_suite(model, 1.0, _default_pairs(), f, 0.8, McParams(2000, 100, 103))
    assert len(rep.points) == 4
    assert [len(args[1]) for args in draws] == [1280, 720]
    assert [float(args[1][0]) for args in sims] == [1.0, 1.5, 0.5] * 2


def test_each_lemma_ll_row_is_its_one_case_estimate(monkeypatch):
    # one seed for the check and one width-2 draw per tile: K = 80 gives a
    # 1,536-path tile, so 2,000 paths are two draws for all four cases
    draws = _record_args(monkeypatch, estimators, "standard_increments")
    mc = McParams(2000, 80, 107)
    rep = check_lemma_ll(mc)
    assert [(len(idx), width) for _, idx, _, width in draws] == [(1536, 2), (464, 2)]
    seed = analysis.derive_seed(mc.seed, "lemma_ll")
    for (name, q, kw), row in zip(analysis.DEFAULT_LQ_CASES, rep.points):
        est = estimators.estimate_lq_moment(name, q, 1.0, mc.n_paths, mc.n_steps, seed, **kw)
        rhs = oracles.lq_moment_rhs(name, q, 1.0, **kw)
        assert row.seed == seed
        assert (row.ratio, row.tolerance) == (est.mean / rhs, 4.0 * est.stderr / rhs)
        assert (row.n_valid, row.n_invalid) == (est.n_valid, est.n_invalid)


def test_harnack_draws_noise_once_per_batch(monkeypatch):
    # z and z' read one draw per batch, of dB and of zeta, which the
    # nonnegativity check reads too; sigma(x) = x runs through its callbacks
    shapes = []
    real = rng.PathStreams.fill_normals

    def counting(self, path_indices, shape):
        shapes.append(len(path_indices))
        return real(self, path_indices, shape)

    monkeypatch.setattr(rng.PathStreams, "fill_normals", counting)
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    f = observable("one_plus_tanh_y", model)
    n_paths = estimators.DEFAULT_BATCH_SIZE + 500
    res = check_harnack_suite(model, 1.0, [((0.5, 0.0), (1.0, 0.5))], f, 1.0,
                              McParams(n_paths, 10, 53)).points[0]
    assert shapes == [estimators.DEFAULT_BATCH_SIZE] * 2 + [500] * 2
    assert res.n_valid + res.n_invalid == n_paths


def test_harnack_gaussian_exact_constant_suite():
    # sigma = I with the exact constant 1/sqrt(T): the inequality holds exactly
    # for the Gaussian semigroup, so every sampled pair must pass
    model = make_constant_identity_model()
    f = observable("one_plus_tanh_y", model)
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((0.3, 0.0), (0.8, 0.4)),
             ((-0.5, 0.2), (0.5, -0.2))]
    rep = check_harnack_suite(model, 1.0, pairs, f, 1.0, McParams(10000, 50, 43))
    assert rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND


def test_harnack_pair_with_zero_rhs_is_violated_alone():
    # with C = 0 the right side is P f(z) = 0, while P f(z') is about 50: the
    # row reads ratio inf, tolerance 0, and the suite is Violated even when the
    # pair is its only row
    from gruschin.models import TestFunction

    model = make_constant_identity_model()
    f = TestFunction(name="y_above_50",
                     eval=lambda z: np.maximum(np.asarray(z)[..., 1] - 50.0, 0.0))
    far = ((0.0, 0.0), (0.0, 100.0))
    mc = McParams(500, 10, 1)
    rep = check_harnack_suite(model, 1.0, [far], f, 0.0, mc)
    assert rep.verdict is BoundCheckVerdict.VIOLATED
    assert len(rep.points) == 1 and not rep.skipped
    row = rep.points[0]
    assert row.ratio == math.inf and row.tolerance == 0.0
    # a pair with P f(z') within its band of rhs = 0 is still skipped
    both = check_harnack_suite(model, 1.0, [far, ((0.0, 0.0), (0.0, 0.0))], f, 0.0, mc)
    assert both.verdict is BoundCheckVerdict.VIOLATED
    assert both.points == [row] and both.skipped == ["(0.0, 0.0)->(0.0, 0.0): inconclusive"]


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------

def test_report_markdown_empty_is_success():
    assert suite_exit_code([]) == 0
    assert "No checks" in report_markdown([])


def test_report_markdown_flags_violations():
    bad = BoundCheckReport(inequality_id="A5",
                           points=[RatioPoint("pt", "holdout", 9.9, 0.1, 1.0, (0.0,))],
                           fitted_constant=1.0,
                           verdict=BoundCheckVerdict.VIOLATED)
    assert suite_exit_code([bad]) == 1
    assert "VIOLATED" in report_markdown([bad])
