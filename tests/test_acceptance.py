"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each test prints one pass/fail line.  Monte Carlo criteria use 4-sigma bands
(two-sided ~99.99%); pathwise identities use the stated absolute tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gruschin.analysis import (
    BoundCheckVerdict,
    GradientGrid,
    McParams,
    check_a5,
    check_a6,
    check_harnack_suite,
    check_lemma31,
)
from gruschin.cli import FD_BIAS_ALLOWANCE, ExperimentConfig, run_experiment
from gruschin.estimators import (
    bismut_panel,
    estimate_gradient_bismut,
    estimate_lq_moment,
    fd_panel,
)
from gruschin.models import (
    Direction,
    as_extended,
    bounded_suite,
    crosscheck_suite,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    make_tilted_matrix_model,
    observable,
)
from gruschin.paths import (
    BLOCK_STEPS,
    TimeGrid,
    brownian_left_nodes,
    simulate_basic_batch,
    simulate_extended_batch,
    standard_noise,
)
from gruschin.rng import derive_seed
from gruschin.weights import weight_terms_shared

EX = Direction.make(1.0, 0.0)
EY = Direction.make(0.0, 1.0)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_gaussian_reduction():
    t0 = time.perf_counter()
    model = make_constant_identity_model()
    f = observable("sin_x", model)
    est = estimate_gradient_bismut(model, f, [0.7, 0.0], EX, 1.0,
                                   200_000, 200, seed=101)
    want = math.exp(-0.5) * math.cos(0.7)
    elapsed = time.perf_counter() - t0
    gap = abs(est.mean - want)
    ok = gap <= 4.0 * est.stderr and elapsed < 30.0
    report(1, ok,
           f"d/dx of the Gaussian semigroup: {est.mean:.5f} vs {want:.5f} "
           f"(|gap| = {gap:.5f} <= {4*est.stderr:.5f}), {elapsed:.1f}s")


def test_criterion_02_degenerate_closed_form():
    t0 = time.perf_counter()
    model = make_power_law_model(1, 1, 1.0)
    f = observable("y_squared", model)
    panel = bismut_panel(model, [1.0, 1.0], 1.0, [f], [EX, EY],
                         500_000, 200, seed=102)
    gx = panel[("grad", "y_squared", 0)]
    gy = panel[("grad", "y_squared", 1)]
    elapsed = time.perf_counter() - t0
    ok_x = abs(gx.mean - 2.0) <= 4.0 * gx.stderr
    ok_y = abs(gy.mean - 2.0) <= 4.0 * gy.stderr
    ok = ok_x and ok_y and elapsed < 120.0
    report(2, ok,
           f"degenerate gradient (d/dx, d/dy) = ({gx.mean:.4f}, {gy.mean:.4f}) "
           f"vs (2, 2) within (+-{4*gx.stderr:.4f}, +-{4*gy.stderr:.4f}), "
           f"{elapsed:.1f}s")


def test_criterion_03_bismut_vs_fd_matrix():
    t0 = time.perf_counter()
    n_paths, n_steps = 20_000, 100
    # (label, model, directions, points): the scalar kernel on power_law, and the
    # matrix kernel on a non-diagonal sigma with m=1, d=2
    axes3 = [Direction.make([1.0], [0.0, 0.0]), Direction.make([0.0], [1.0, 0.0]),
             Direction.make([0.0], [0.0, 1.0])]
    cases = [(l, make_power_law_model(1, 1, l), [EX, EY],
              [(1.0, 0.0), (-0.5, 0.5), (2.0, 1.0)]) for l in (1.0, 2.0)]
    cases.append(("tilted_matrix", make_tilted_matrix_model(), axes3,
                  [(1.0, 0.0, 0.0), (-0.5, 0.5, 0.5), (2.0, 1.0, -1.0)]))
    n_combo, n_fail, n_invalid = 0, 0, 0
    worst = -math.inf
    for label, model, vs, points in cases:
        fs = crosscheck_suite(model)
        for T in (0.25, 1.0):
            for z0 in points:
                sb = derive_seed(103, f"b:{label}:{T}:{z0}")
                sf = derive_seed(103, f"f:{label}:{T}:{z0}")
                pb = bismut_panel(model, list(z0), T, fs, vs, n_paths, n_steps, sb)
                pf = fd_panel(model, list(z0), T, fs, vs, n_paths, n_steps, sf)
                for f in fs:
                    for j in range(len(vs)):
                        b = pb[("grad", f.name, j)]
                        d = pf[("grad_fd", f.name, j)]
                        n_combo += 1
                        n_invalid += b.n_invalid + d.n_invalid
                        tol = 4.0 * math.hypot(b.stderr, d.stderr) + FD_BIAS_ALLOWANCE
                        gap = abs(b.mean - d.mean)
                        worst = max(worst, gap - tol)
                        if gap > tol:
                            n_fail += 1
    elapsed = time.perf_counter() - t0
    ok = n_fail == 0 and n_invalid == 0 and elapsed < 600.0
    report(3, ok,
           f"weight vs finite-difference agreement on {n_combo} combos "
           f"(failures = {n_fail}, invalid paths = {n_invalid}, "
           f"worst slack = {worst:.2e}), {elapsed:.0f}s")


def test_criterion_04_weight_centering():
    v = Direction.make(1.0, 1.0)
    basic = make_power_law_model(1, 1, 1.0)
    one = observable("one", basic)
    eb = estimate_gradient_bismut(basic, one, [1.0, 0.0], v, 1.0,
                                  200_000, 200, seed=104)
    demo = make_extended_demo_model()
    ee = estimate_gradient_bismut(demo, one, [1.0, 0.0], v, 1.0,
                                  200_000, 200, seed=1040)
    ok_b = abs(eb.mean) <= 4.0 * eb.stderr
    ok_e = abs(ee.mean) <= 4.0 * ee.stderr
    report(4, ok_b and ok_e,
           f"E[weight] centered: basic {eb.mean:+.5f} (+-{4*eb.stderr:.5f}), "
           f"extended {ee.mean:+.5f} (+-{4*ee.stderr:.5f})")


def test_criterion_05_extended_reduction_pathwise():
    # on one walk: the basic side runs sigma(x) = x through its callbacks
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    ext = as_extended(model)
    grid = TimeGrid(1.0, 200)
    v = Direction.make(1.0, 1.0)
    idx = np.arange(10_000)
    noise = standard_noise(105, idx, grid.n_steps, model)
    b = simulate_basic_batch(model, [1.0], [0.0], grid, noise)
    e = simulate_extended_batch(ext, [1.0], [0.0], grid, noise)
    db, tb, ib, okb = weight_terms_shared(b, v)
    de, te, ie, oke = weight_terms_shared(e, v)
    gap = float(np.max(np.abs((db + tb + ib) - (de + te + ie))))
    ok = bool((okb & oke).all()) and gap <= 1e-12
    report(5, ok, f"extended weight equals basic weight pathwise, "
                  f"max |gap| = {gap:.2e} over 10000 paths (tol 1e-12)")


def test_criterion_06_weight_linearity():
    u = Direction.make(0.7, -0.2)
    w = Direction.make(-0.3, 1.1)
    uw = Direction(u.v1 + w.v1, u.v2 + w.v2)
    grid = TimeGrid(1.0, 100)
    idx = np.arange(1000)

    def weights_for(sim_fn, model, seed):
        batch = sim_fn(model, [1.0], [0.0], grid, standard_noise(seed, idx, grid.n_steps, model))
        out = []
        for d in (u, w, uw):
            drift, trace, inner, _ = weight_terms_shared(batch, d)
            out.append(drift + trace + inner)
        return out

    worst = 0.0
    for sim_fn, model, seed in (
        (simulate_basic_batch, make_power_law_model(1, 1, 1.0), 106),
        (simulate_extended_batch, make_extended_demo_model(), 1060),
    ):
        m_u, m_w, m_uw = weights_for(sim_fn, model, seed)
        gap = np.abs(m_uw - (m_u + m_w)) / (1.0 + np.abs(m_uw))
        worst = max(worst, float(gap.max()))

    report(6, worst <= 1e-10,
           f"weight additive in the direction on fixed noise, worst relative "
           f"gap = {worst:.2e} (tol 1e-10), both variants")


def test_criterion_07_discrete_degeneracy_bound():
    # the left-point sums of sigma(x) = x through its callbacks, on the walk
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    grid, idx = TimeGrid(1.0, 200), np.arange(10_000)
    noise = standard_noise(107, idx, grid.n_steps, model)
    batch = simulate_basic_batch(model, [1.0], [0.0], grid, noise)
    # a^2 T mean |X_left|^{2l} on the batch's own Brownian x-path
    x_left, _ = brownian_left_nodes(np.array([1.0]), noise.walk, grid)
    p = model.power_params
    degeneracy = p.a**2 * grid.horizon * np.mean(np.abs(x_left[..., 0]) ** (2.0 * p.l), axis=1)
    slack = batch.min_eig_q - degeneracy
    floor = -1e-10 * (1.0 + np.abs(degeneracy))
    ok = bool(np.all(slack >= floor))
    report(7, ok, f"min eig Q_T >= a^2 sum |X|^{{2l}} dt on every one of 10000 "
                  f"paths (worst slack = {float(slack.min()):.2e})")


def test_criterion_08_negative_moment_two_grid():
    t0 = time.perf_counter()
    mc = McParams(n_paths=100_000, n_steps=200, seed=108)
    rep = check_lemma31(mc)
    elapsed = time.perf_counter() - t0
    holdout = [p for p in rep.points if p.phase == "holdout"]
    ok = (rep.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
          and elapsed < 180.0)
    worst = max(p.ratio / rep.fitted_constant for p in holdout)
    report(8, ok,
           f"negative-moment product bounded: fit = {rep.fitted_constant:.3f}, "
           f"worst holdout/fit = {worst:.3f} (cap 1.2 + tol), {elapsed:.0f}s")


def test_criterion_09_stochastic_integral_moments():
    T = 1.0
    q2 = estimate_lq_moment("constant_unit", 2.0, T, 100_000, 200, seed=109)
    q4 = estimate_lq_moment("constant_unit", 4.0, T, 100_000, 200, seed=1090)
    ok_iso = abs(q2.mean - T) <= 4.0 * q2.stderr
    ratio = q4.mean / (36.0 * T**2)
    ok_q4 = (abs(q4.mean - 3.0 * T**2) <= 4.0 * q4.stderr
             and 2.5 / 36.0 <= ratio <= 3.5 / 36.0)
    report(9, ok_iso and ok_q4,
           f"q=2 isometry: {q2.mean:.4f} vs {T} (+-{4*q2.stderr:.4f}); "
           f"q=4 ratio = {ratio:.4f} in [{2.5/36:.4f}, {3.5/36:.4f}]")


@pytest.fixture(scope="module")
def two_grid_reports():
    model = make_power_law_model(1, 1, 1.0)
    mc = McParams(n_paths=40_000, n_steps=100, seed=110)
    grid = GradientGrid(model, bounded_suite(model), mc)
    return check_a5(grid), check_a6(grid)


def test_criterion_10_gradient_bounds_two_grid(two_grid_reports):
    rep5, rep6 = two_grid_reports
    ok = (rep5.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
          and rep6.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND)
    report(10, ok,
           f"two-grid verdicts: rate bound {rep5.verdict.value} "
           f"(fit {rep5.fitted_constant:.3f}, max {rep5.max_ratio:.3f}); "
           f"square-field bound {rep6.verdict.value} "
           f"(fit {rep6.fitted_constant:.3f}, max {rep6.max_ratio:.3f})")


def test_criterion_11_harnack_loop(two_grid_reports):
    _, rep6 = two_grid_reports
    T = 1.0
    mc = McParams(n_paths=40_000, n_steps=100, seed=111)

    model = make_power_law_model(1, 1, 1.0)
    constant = math.sqrt(rep6.fitted_constant / T)
    f = observable("one_plus_tanh_y", model)
    pairs = [((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 0.5)),
             ((1.0, 0.0), (1.5, 0.0)), ((0.5, 0.0), (1.0, 0.5)),
             ((1.0, -0.5), (1.0, 0.5))]
    rep_pl = check_harnack_suite(model, T, pairs, f, constant, mc)

    gauss = make_constant_identity_model()
    fg = observable("one_plus_tanh_y", gauss)
    gauss_pairs = [((0.0, 0.0), (0.0, 0.0)), ((0.3, 0.0), (0.8, 0.4)),
                   ((1.0, 0.0), (1.0, 0.5)), ((-0.5, 0.2), (0.5, -0.2)),
                   ((0.0, 1.0), (0.4, 1.4))]
    rep_g = check_harnack_suite(gauss, T, gauss_pairs, fg, 1.0 / math.sqrt(T), mc)

    ok = (rep_pl.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
          and rep_g.verdict is BoundCheckVerdict.BOUNDED_CONSTANT_FOUND
          and len(rep_pl.points) == 5 and len(rep_g.points) == 5)
    report(11, ok,
           f"Harnack holds on 5 degenerate-model pairs with C = {constant:.3f} "
           f"from the square-field fit, and on 5 Gaussian pairs with the exact "
           f"C = {1.0/math.sqrt(T):.3f}")


def test_criterion_12_xi_solver_exactness():
    # sigma1 = I, b1 = 0: xi_k is the telescoped product of the integrating
    # factors, formed over each block of BLOCK_STEPS steps as running products
    # by doubling, and each accumulator that reads xi is the sum of its blocks,
    # each block's steps summed by halving, on the noise
    model = as_extended(make_power_law_model(1, 1, 1.0))
    T, n = 1.0, 200
    grid = TimeGrid(T, n)
    remaining = T - grid.times()
    factors = remaining[1:] / remaining[:n]

    def running_products(chain):
        span = 1
        while span < len(chain):
            chain[span:] = chain[span:] * chain[:-span]
            span *= 2
        return chain

    def halving_sum(values):
        while len(values) > 1:
            half = len(values) // 2
            summed = values[:half] + values[half:2 * half]
            if len(values) % 2:
                summed[0] += values[-1]
            values = summed
        return values[0]

    noise = standard_noise(112, np.arange(5), n, model)
    pf = simulate_extended_batch(model, [1.0], [0.0], grid, noise)
    dB = (noise.eps * np.sqrt(grid.dt))[..., 0].T          # (n, 5)
    xi = np.empty(n + 1)
    xi[0] = 1.0
    x, xdw, tr = np.ones(5), np.zeros(5), np.zeros(5)
    for start in range(0, n, BLOCK_STEPS):
        k = np.arange(start, min(start + BLOCK_STEPS, n))
        xi[start:k[-1] + 2] = running_products(np.concatenate([[xi[start]], factors[k]]))
        x_left = np.empty((len(k), 5))
        for j, step in enumerate(k):
            x_left[j] = x
            x = x + dB[step]
        xdw += halving_sum(dB[k] / remaining[k, None] * xi[k, None])
        tr += halving_sum(xi[k, None] * x_left)      # grad sigma = 1 and sigma(x) = x
    # v1 = 1 is the axis e_1, so slot 0 of each accumulator is its block sum
    ok = (xi[-1] == 0.0 and np.allclose(xi, (T - grid.times()) / T, rtol=0, atol=1e-12)
          and np.array_equal(pf.xi_drift_weight[:, 0], xdw)
          and np.array_equal(pf.trace_integral[:, 0, 0, 0], T * tr / n))
    report(12, ok, "xi-drift weight and trace term equal bitwise their block sums "
                   "over the telescoped xi on 5 paths; xi_T exactly 0")


def test_criterion_13_suite_determinism(tmp_path):
    cfg = ExperimentConfig.from_file("configs/default.json")
    code1, _ = run_experiment(cfg, workers=1, out_dir=str(tmp_path / "r1"))
    code2, _ = run_experiment(cfg, workers=1, out_dir=str(tmp_path / "r2"))
    code3, _ = run_experiment(cfg, workers=8, out_dir=str(tmp_path / "r3"))
    ref_csv = (tmp_path / "r1" / "results.csv").read_bytes()
    ref_json = (tmp_path / "r1" / "results.json").read_bytes()
    ref_md = (tmp_path / "r1" / "report.md").read_bytes()
    same = (
        (tmp_path / "r2" / "results.csv").read_bytes() == ref_csv
        and (tmp_path / "r3" / "results.csv").read_bytes() == ref_csv
        and (tmp_path / "r2" / "results.json").read_bytes() == ref_json
        and (tmp_path / "r3" / "results.json").read_bytes() == ref_json
        and (tmp_path / "r2" / "report.md").read_bytes() == ref_md
        and (tmp_path / "r3" / "report.md").read_bytes() == ref_md
    )
    ok = same and code1 == code2 == code3 == 0
    report(13, ok, "default suite artifacts byte-identical across reruns and "
                   "across --workers 1 vs --workers 8")
