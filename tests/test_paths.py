"""Simulation kernels: exactness, convergence order, invariants, determinism."""

import functools
import math
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from gruschin import paths
from gruschin.analysis import DEFAULT_CALIBRATION_GRID, DEFAULT_HOLDOUT_GRID
from gruschin.estimators import (
    EstimationError,
    _path_integral,
    bismut_panel,
    bismut_panels,
    fd_panel,
    pt_panel,
)
from gruschin.models import (
    Direction,
    Family,
    ModelKind,
    ModelSpec,
    as_extended,
    crosscheck_suite,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    make_tilted_matrix_model,
    observable,
)
from gruschin.models import TestFunction as Observable  # not a pytest class
from gruschin.paths import (
    BLOCK_STEPS,
    KL_MODES,
    KLFunctionals,
    Noise,
    PathBatch,
    TimeGrid,
    brownian_left_nodes,
    kl_functionals,
    quadratic_integral,
    simulate_basic_batch,
    simulate_batch,
    simulate_extended_batch,
    simulate_terminal_batch,
    standard_increments,
    standard_modes,
    standard_noise,
    standard_walk,
)
from gruschin.rng import PathStreams
from gruschin.weights import INVERTIBILITY_FLOOR, weight_terms_shared


def noise(model, grid, seed, idx):
    """The ``Noise`` of paths ``idx`` under ``seed``, as the estimators draw it."""
    return standard_noise(seed, idx, grid.n_steps, model)


def test_time_grid_validation_and_endpoint():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1)
    # a float step count is refused by name, not by a TypeError deep in a panel
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(1.0, 10.0)
    model = make_power_law_model(1, 1, 1.0)
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        pt_panel(model, [[1.0, 0.0]], 1.0, [observable("sin_y", model)], 200, 10.0, 3)
    assert TimeGrid(1.0, np.int64(10)).n_steps == 10
    grid = TimeGrid(0.3, 7)
    assert grid.times()[-1] == 0.3
    assert grid.times()[0] == 0.0
    assert len(grid.times()) == 8


def test_constant_sigma_exact_functionals():
    # constant integrands make the left sums exact: Q_T = T I, no gradient terms
    model = make_constant_identity_model()
    grid = TimeGrid(1.0, 100)
    pf = simulate_basic_batch(model, [0.2], [0.0], grid, noise(model, grid, 3, [0]))
    assert pf.q_matrix[0, 0, 0] == 1.0
    assert pf.trace_integral[0, 0, 0, 0] == 0.0
    assert pf.min_eig_q[0] == 1.0

    # Q_T = 1 makes S = zeta, and B_T is the increment sum
    eps = PathStreams(3).fill_normals([0], (100, 1))
    (zeta,) = PathStreams(3, substream=1).fill_normals([0], (1,))
    assert pf.sigma_stoch_integral[0, 0] == zeta[0]
    assert pf.b_final[0, 0] == np.sqrt(grid.dt) * np.cumsum(eps[0, :, 0])[-1]


def test_x_component_is_exact_brownian():
    model = make_power_law_model(1, 1, 1.0)
    grid = TimeGrid(2.0, 64)
    batch = simulate_basic_batch(model, [0.7], [0.0], grid,
                                 noise(model, grid, 11, np.arange(50)))
    assert np.array_equal(batch.x_final, 0.7 + batch.b_final)


def test_matrix_kernel_matches_scalar_kernel():
    scalar_model = make_power_law_model(1, 2, 2.0)
    matrix_model = ModelSpec(
        m=1, d=2, kind=ModelKind.BASIC,
        sigma=scalar_model.sigma, grad_sigma=scalar_model.grad_sigma,
        power_params=scalar_model.power_params, name="power_law_matrix_view",
    )
    assert not matrix_model.scalar_identity
    grid = TimeGrid(1.0, 50)
    a = simulate_basic_batch(scalar_model, [1.0], [0.0, 0.0], grid,
                             noise(scalar_model, grid, 5, np.arange(40)))
    b = simulate_basic_batch(matrix_model, [1.0], [0.0, 0.0], grid,
                             noise(matrix_model, grid, 5, np.arange(40)))
    for name in ("q_matrix", "trace_integral", "sigma_stoch_integral", "y_final"):
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12), name
    assert np.allclose(a.min_eig_q, b.min_eig_q, rtol=1e-9, atol=1e-12)


def _coupled_d3_model():
    """m = 1, d = 3 basic model sigma(x) = x A + sin(x) B, non-diagonal and
    invertible away from x = 0, whose root of Q_T comes from ``eigh``."""
    a = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.5], [0.25, 0.0, 1.0]])
    b = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])

    def sigma(x):
        xx = np.asarray(x)[..., 0, None, None]
        return xx * a + np.sin(xx) * b

    def grad_sigma(x, v):
        xa = np.asarray(x)
        xx = xa[..., 0, None, None]
        vv = np.broadcast_to(np.asarray(v, dtype=float), xa.shape)[..., 0, None, None]
        return vv * (a + np.cos(xx) * b)

    return ModelSpec(m=1, d=3, kind=ModelKind.BASIC, sigma=sigma, grad_sigma=grad_sigma,
                     name="coupled_d3")


def _coupled_extended_model():
    """m = d = 2 extended model whose every coefficient couples the
    coordinates: sigma1 = I + 0.2 C(x) is non-diagonal and invertible, and
    the non-diagonal sigma2 runs the matrix (``_step_gram``) form."""
    def parts(x, v=None):
        xa = np.asarray(x, dtype=float)
        x0, x1 = xa[..., 0], xa[..., 1]
        if v is None:
            return x0, x1
        vv = np.broadcast_to(np.asarray(v, dtype=float), xa.shape)
        return x0, x1, vv[..., 0], vv[..., 1]

    def matrix(a, b, c, d):
        return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)

    def sigma1(x):
        x0, x1 = parts(x)
        return matrix(1.0 + 0.2 * np.tanh(x0), 0.1 * np.sin(x1),
                      0.06 * np.sin(x0), 1.0 + 0.2 * np.tanh(x1))

    def grad_sigma1(x, v):
        x0, x1, v0, v1 = parts(x, v)
        return matrix(0.2 * v0 / np.cosh(x0) ** 2, 0.1 * np.cos(x1) * v1,
                      0.06 * np.cos(x0) * v0, 0.2 * v1 / np.cosh(x1) ** 2)

    def b1(x):
        x0, x1 = parts(x)
        return -0.3 * np.stack([np.tanh(x0 + 0.5 * x1), np.sin(x1)], axis=-1)

    def grad_b1(x, v):
        x0, x1, v0, v1 = parts(x, v)
        return -0.3 * np.stack([(v0 + 0.5 * v1) / np.cosh(x0 + 0.5 * x1) ** 2,
                                np.cos(x1) * v1], axis=-1)

    def sigma2(x):
        x0, x1 = parts(x)
        return matrix(x0, 0.5 * x1, 0.25 * x0 * x1, x1)

    def grad_sigma2(x, v):
        x0, x1, v0, v1 = parts(x, v)
        return matrix(v0, 0.5 * v1, 0.25 * (v0 * x1 + x0 * v1), v1)

    def b2(x):
        x0, x1 = parts(x)
        return np.stack([0.5 * np.sin(x0), 0.2 * x0 * x1], axis=-1)

    def grad_b2(x, v):
        x0, x1, v0, v1 = parts(x, v)
        return np.stack([0.5 * np.cos(x0) * v0, 0.2 * (v0 * x1 + x0 * v1)], axis=-1)

    return ModelSpec(m=2, d=2, kind=ModelKind.EXTENDED, sigma=sigma2, grad_sigma=grad_sigma2,
                     name="coupled_extended", sigma1=sigma1, grad_sigma1=grad_sigma1,
                     b1=b1, grad_b1=grad_b1, b2=b2, grad_b2=grad_b2)


def test_matrix_kernel_matches_einsum_reference_on_non_diagonal_sigma():
    # every accumulator written out as the defining sum over steps and columns;
    # the root of Q_T is closed-form at d = 2 and from eigh at d = 3
    grid = TimeGrid(0.8, 60)
    idx = np.arange(300)
    w, T, n = grid.decay_weights(), grid.horizon, grid.n_steps
    for model in (make_tilted_matrix_model(), _coupled_d3_model()):
        batch = simulate_basic_batch(model, [1.0], np.zeros(model.d), grid,
                                     noise(model, grid, 71, idx))

        drawn = noise(model, grid, 71, idx)
        zeta = drawn.zeta
        x_left, _ = brownian_left_nodes(np.array([1.0]), drawn.walk, grid)
        S = model.sigma(x_left)
        G = model.grad_sigma(x_left, np.ones(1))             # along the one axis e_1
        assert np.abs(S[..., 1, 0]).max() > 0.1  # sigma really is off-diagonal
        q = T * np.einsum("pnij,pnkj->pik", S, S) / n
        lam, u = np.linalg.eigh(q)
        want = {
            "q_matrix": q,
            "trace_integral": (T * np.einsum("n,pnij,pnkj->pik", w, G, S) / n)[:, None],
            "sigma_stoch_integral": np.einsum("pij,pj,pkj,pk->pi", u, np.sqrt(lam), u, zeta),
            "min_eig_q": np.linalg.eigvalsh(q)[:, 0],
        }
        for name, ref in want.items():
            np.testing.assert_allclose(getattr(batch, name), ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max(),
                                       err_msg=f"{model.name}: {name}")
        assert np.abs(q[:, 0, 1]).min() > 0.0
        assert batch.valid.all()


def test_matrix_kernel_path_alone_equals_path_in_batch():
    model = make_tilted_matrix_model()
    grid = TimeGrid(1.0, 100)
    big_noise, one_noise = noise(model, grid, 73, np.arange(1024)), noise(model, grid, 73, [7])
    big = simulate_basic_batch(model, [1.0], [0.0, 0.5], grid, big_noise)
    one = simulate_basic_batch(model, [1.0], [0.0, 0.5], grid, one_noise)
    for name in ("q_matrix", "trace_integral", "sigma_stoch_integral", "y_final", "min_eig_q"):
        assert np.array_equal(getattr(one, name)[0], getattr(big, name)[7]), name
    big_terminal = simulate_terminal_batch(model, [1.0], [0.0, 0.5], grid, big_noise)
    one_terminal = simulate_terminal_batch(model, [1.0], [0.0, 0.5], grid, one_noise)
    for big_arr, one_arr in zip(big_terminal, one_terminal):
        assert np.array_equal(one_arr[0], big_arr[7])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_step_gram_is_the_sum_over_steps(d):
    rng = np.random.default_rng(d)
    left, right = rng.standard_normal((2, 50, 30, d, d))
    want = np.einsum("pkij,pklj->pil", left, right)
    for got, ref in ((paths._step_gram(left, right), want),
                     (paths._step_gram(left, left), np.einsum("pkij,pklj->pil", left, left))):
        assert got.shape == (50, d, d)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_step_gram_reads_read_only_and_strided_outputs_without_writing():
    # a callback may return a read-only broadcast or a strided view: the Gram
    # is the one of their contiguous copies, and neither input is written
    rng = np.random.default_rng(3)
    steps = rng.standard_normal((30, 2, 2))
    read_only = np.broadcast_to(steps, (40, 30, 2, 2))
    strided = rng.standard_normal((40, 30, 2, 2)).transpose(0, 1, 3, 2)
    before = strided.copy()
    assert not read_only.flags.writeable and not strided.flags.c_contiguous
    got = paths._step_gram(strided, read_only)
    want = paths._step_gram(np.ascontiguousarray(strided), np.ascontiguousarray(read_only))
    assert np.array_equal(got, want)
    assert np.array_equal(strided, before)
    assert np.array_equal(read_only, np.broadcast_to(steps, read_only.shape))
    assert np.array_equal(paths._step_gram(read_only, read_only),
                          paths._step_gram(*[np.ascontiguousarray(read_only)] * 2))

    # and a kernel whose callbacks return read-only arrays leaves them alone
    model = make_tilted_matrix_model()

    def frozen(callback):
        def call(*args):
            out = callback(*args)
            out.setflags(write=False)
            return out
        return call

    frozen_model = replace(model, sigma=frozen(model.sigma),
                           grad_sigma=frozen(model.grad_sigma))
    grid = TimeGrid(1.0, 20)
    a = simulate_basic_batch(model, [1.0], [0.0, 0.0], grid, noise(model, grid, 5, np.arange(64)))
    b = simulate_basic_batch(frozen_model, [1.0], [0.0, 0.0], grid,
                             noise(model, grid, 5, np.arange(64)))
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def _spd_2x2(rng, P, cond):
    """P random SPD 2x2 matrices of condition number ``cond``, exactly symmetric,
    with largest eigenvalues spread over six decades."""
    theta = rng.uniform(0.0, np.pi, P)
    c, s = np.cos(theta), np.sin(theta)
    u = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    top = 10.0 ** rng.uniform(-3.0, 3.0, P)
    q = np.einsum("pij,pj,pkj->pik", u, np.stack([top / cond, top], axis=-1), u)
    return 0.5 * (q + q.transpose(0, 2, 1))


def _root_matrix(q):
    """The root R of ``paths._root_times`` as a matrix, column j its R e_j."""
    P = len(q)
    cols = [paths._root_times(q, np.broadcast_to(e, (P, 2)))[0] for e in np.eye(2)]
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
def test_closed_form_root_matches_eigh_on_spd_q(cond):
    # eigh's root and smallest eigenvalue carry errors of order eps |Q| and
    # eps |Q| / sqrt(lambda_min), as the closed form does; both are compared
    # at four times those scales
    eps = np.finfo(float).eps
    q = _spd_2x2(np.random.default_rng(11), 2000, cond)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        root = _root_matrix(q)
        s, min_eig = paths._root_times(q, np.random.default_rng(12).standard_normal((2000, 2)))
    lam, u = np.linalg.eigh(q)
    want = (u * np.sqrt(lam)[:, None, :]) @ u.transpose(0, 2, 1)
    top = lam[:, 1]
    assert (np.abs(root - want).max(axis=(1, 2)) <= 4 * eps * np.sqrt(cond * top)).all()
    assert (np.abs(min_eig - lam[:, 0]) <= 4 * eps * top).all()
    assert np.array_equal(root, root.transpose(0, 2, 1))
    assert np.isfinite(s).all()


def test_closed_form_root_of_zero_and_nonfinite_rows():
    # Q = 0 gives S = 0 and min eig 0; a NaN or inf row is decomposed as I with
    # min eig NaN; an SPD row beside them is unaffected
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    q = np.stack([np.zeros((2, 2)), [[np.nan, 0.0], [0.0, 1.0]],
                  [[1.0, np.inf], [np.inf, 1.0]], spd])
    zeta = np.random.default_rng(2).standard_normal((4, 2))
    with np.errstate(all="raise"):
        s, min_eig = paths._root_times(q, zeta)
        alone = paths._root_times(spd[None], zeta[3:])
    assert np.array_equal(s[0], [0.0, 0.0]) and min_eig[0] == 0.0
    assert np.array_equal(s[1:3], zeta[1:3]) and np.isnan(min_eig[1:3]).all()
    assert np.array_equal(s[3], alone[0][0]) and min_eig[3] == alone[1][0]


def _nan_where_negative(model):
    """``model`` with sigma NaN (not an error) where X < 0."""
    def sigma(x):
        out = model.sigma(x)
        out[np.asarray(x)[..., 0] < 0.0] = np.nan
        return out

    return replace(model, sigma=sigma, name=model.name + "+nan_below_0")


def test_nonfinite_matrix_sigma_gives_nan_min_eig_and_an_invalid_path():
    model = _nan_where_negative(make_tilted_matrix_model())
    grid = TimeGrid(2.0, 40)
    drawn = noise(model, grid, 61, np.arange(400))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        batch = simulate_basic_batch(model, [0.5], [0.0, 0.0], grid, drawn)
        _, _, terminal_valid = simulate_terminal_batch(model, [0.5], [0.0, 0.0], grid, drawn)
        solvable = weight_terms_shared(batch, Direction.make([1.0], [0.0, 0.0]))[3]
    bad = ~np.isfinite(batch.q_matrix).all(axis=(1, 2))
    assert 0 < bad.sum() < 400
    assert np.isnan(batch.min_eig_q[bad]).all() and np.isfinite(batch.min_eig_q[~bad]).all()
    assert np.array_equal(batch.valid, ~bad) and np.array_equal(terminal_valid, ~bad)
    assert np.array_equal(solvable, ~bad)


def test_rank_one_q_is_unsolvable_as_with_eigh():
    # sigma(x) = u r(x)^* for a fixed u has Q_T = |r|^2-weighted u u^*, rank 1:
    # every path is finite and valid, and no weight may be assembled on it
    u = np.array([1.0, 0.3])

    def sigma(x):
        xx = np.asarray(x)[..., 0]
        r = np.stack([xx, 0.5 * np.sin(xx)], axis=-1)
        return u[:, None] * r[..., None, :]

    def grad_sigma(x, v):
        xa = np.asarray(x)
        xx = xa[..., 0]
        vv = np.broadcast_to(np.asarray(v, dtype=float), xa.shape)[..., 0]
        r = np.stack([vv, 0.5 * np.cos(xx) * vv], axis=-1)
        return u[:, None] * r[..., None, :]

    model = ModelSpec(m=1, d=2, kind=ModelKind.BASIC, sigma=sigma, grad_sigma=grad_sigma,
                      name="rank_one")
    grid = TimeGrid(1.0, 40)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        batch = simulate_basic_batch(model, [1.0], [0.0, 0.0], grid,
                                     noise(model, grid, 67, np.arange(500)))
        drift, trace, inner, solvable = weight_terms_shared(
            batch, Direction.make([1.0], [0.0, 1.0]))
    assert batch.valid.all() and not solvable.any()
    floor = INVERTIBILITY_FLOOR * np.einsum("pii->p", batch.q_matrix)
    assert (np.linalg.eigvalsh(batch.q_matrix)[:, 0] <= floor).all()
    assert (batch.min_eig_q <= floor).all()
    assert np.isnan(drift + trace + inner).all()


def test_matrix_panels_invariant_to_workers_and_batch_size():
    model = make_tilted_matrix_model()
    fs = crosscheck_suite(model)
    vs = [Direction.make([1.0], [0.0, 0.0]), Direction.make([0.0], [1.0, 0.0]),
          Direction.make([0.0], [0.0, 1.0])]
    args = (model, [1.0, 0.0, 0.0], 1.0, fs, vs, 2048, 20, 79)
    for panel in (bismut_panel, fd_panel):
        ref = panel(*args, workers=1, batch_size=1024)
        assert ref == panel(*args, workers=2, batch_size=1024), panel.__name__
        assert ref == panel(*args, workers=1, batch_size=256), panel.__name__


def test_step_halving_is_first_order():
    # couple three resolutions through shared fine increments; the covariance
    # integral converges weakly at rate dt, so successive differences halve.
    # sigma(x) = x runs through its callbacks: the linear family reads no step
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    T, n = 1.0, 25
    P = 20000
    fine = noise(model, TimeGrid(T, 4 * n), 17, np.arange(P))

    def coarsen(arr, factor):
        return arr.reshape(P, -1, factor, arr.shape[-1]).sum(axis=2)

    means = {}
    for factor in (4, 2, 1):
        steps = 4 * n // factor
        inc = Noise(coarsen(fine.eps, factor), fine.zeta)
        batch = simulate_basic_batch(model, [1.0], [0.0], TimeGrid(T, steps), inc)
        means[steps] = batch.q_matrix[:, 0, 0].mean()
    d1 = means[2 * n] - means[n]
    d2 = means[4 * n] - means[2 * n]
    assert d2 != 0.0
    assert 1.4 < d1 / d2 < 2.8


def test_covariance_matrix_symmetric_psd():
    scalar_model = make_power_law_model(1, 2, 1.0)
    matrix_model = ModelSpec(
        m=1, d=2, kind=ModelKind.BASIC,
        sigma=scalar_model.sigma, grad_sigma=scalar_model.grad_sigma,
        power_params=scalar_model.power_params, name="matrix_view",
    )
    grid = TimeGrid(1.0, 50)
    batch = simulate_basic_batch(matrix_model, [0.5], [0.0, 0.0], grid,
                                 noise(matrix_model, grid, 61, np.arange(500)))
    q = batch.q_matrix
    assert np.allclose(q, np.swapaxes(q, 1, 2), atol=1e-14)
    eigs = np.linalg.eigvalsh(q)
    trace = np.einsum("pii->p", q)
    assert np.all(eigs >= -1e-12 * trace[:, None])


@pytest.mark.parametrize("l", [1.0, 2.0])
def test_discrete_degeneracy_inequality(l):
    # Q_T >= (a^2 int |X|^{2l}) I holds with the same quadrature on both sides,
    # on the walk: at l = 1 sigma(x) = x runs through its callbacks
    model = replace(make_power_law_model(1, 1, l), family=None)
    grid, idx = TimeGrid(1.0, 100), np.arange(2000)
    batch = simulate_basic_batch(model, [1.0], [0.0], grid, noise(model, grid, 23, idx))
    # the right side on the batch's own Brownian x-path, by the same left-node rule
    x_left, _ = brownian_left_nodes(np.array([1.0]), noise(model, grid, 23, idx).walk, grid)
    a = model.power_params.a
    degeneracy = a**2 * grid.horizon * np.mean(np.abs(x_left[..., 0]) ** (2.0 * l), axis=1)
    slack = batch.min_eig_q - degeneracy
    assert np.all(slack >= -1e-10 * (1.0 + np.abs(degeneracy)))


def _halving_sum(values):
    """The sum over the leading (step) axis by halving, row by row: the order
    in which the extended kernel sums a block's steps."""
    while len(values) > 1:
        half = len(values) // 2
        summed = values[:half] + values[half:2 * half]
        if len(values) % 2:
            summed[0] += values[-1]
        values = summed
    return values[0]


def _doubling_products(chain):
    """The running products chain[k] ... chain[0], at every k, by doubling, as
    the extended kernel forms xi over a block (scalars here)."""
    chain = np.array(chain, dtype=float)
    span = 1
    while span < len(chain):
        chain[span:] = chain[span:] * chain[:-span]
        span *= 2
    return chain


def telescoped_xi(grid, v1):
    """xi_k at every node for sigma1 = I and b1 = 0 and m = 1, as the extended
    kernel forms it: in each block of ``BLOCK_STEPS`` steps, the running
    products of xi at its start and the integrating factors."""
    n, T, times = grid.n_steps, grid.horizon, grid.times()
    factors = (T - times[1:]) / (T - times[:n])
    xi = np.empty(n + 1)
    xi[0] = v1
    for start in range(0, n, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, n)
        xi[start:stop + 1] = _doubling_products(np.concatenate([[xi[start]], factors[start:stop]]))
    return xi


def xi_weight_sums(model, grid, xi, x0, eps):
    """The two xi-dependent accumulators of the extended kernel, from the given
    xi path on the standard normals ``eps``, for sigma1 = I, b1 = 0 and
    m = d = 1: each block's steps summed by halving, the blocks in order."""
    T, dt, P, n = grid.horizon, grid.dt, len(eps), grid.n_steps
    dB = (eps * np.sqrt(dt))[..., 0].T             # (n, P), step-major as the kernel's
    remaining = T - grid.times()
    x = np.full(P, x0)
    xdw, tr = np.zeros(P), np.zeros(P)
    for start in range(0, n, BLOCK_STEPS):
        k = np.arange(start, min(start + BLOCK_STEPS, n))
        x_left = np.empty((len(k), P))
        for j, step in enumerate(k):
            x_left[j] = x
            x = x + dB[step]
        xdw += _halving_sum(dB[k] / remaining[k, None] * xi[k, None])
        g = model.grad_sigma_scalar(x_left[..., None], np.ones(1))
        tr += _halving_sum(xi[k, None] * g * model.sigma_scalar(x_left[..., None]))
    return {"xi_drift_weight": xdw, "trace_integral": (T * tr / n)[:, None, None]}


def test_xi_closed_form_with_identity_coefficients():
    # sigma1 = I, b1 = 0: the integrating factors telescope to (T - t_k)/T and
    # the final node lands on exactly zero; every accumulator that reads xi is
    # bit for bit the block sums of the telescoped xi_k against the noise
    model = as_extended(make_power_law_model(1, 1, 1.0))
    T, n = 1.0, 200
    grid = TimeGrid(T, n)
    v1 = 1.0                       # the axis e_1, whose xi fills slot 0
    drawn = noise(model, grid, 41, np.arange(2, 10))
    pf = simulate_extended_batch(model, [1.0], [0.0], grid, drawn)
    times = grid.times()
    xi = telescoped_xi(grid, v1)
    assert xi[-1] == 0.0
    assert np.allclose(xi, v1 * (T - times) / T, atol=1e-12)
    # the step-by-step telescoping product agrees to rounding
    sequential = np.empty(n + 1)
    sequential[0] = v1
    for k in range(n):
        sequential[k + 1] = ((T - times[k + 1]) / (T - times[k])) * sequential[k]
    np.testing.assert_allclose(xi, sequential, rtol=1e-14, atol=0.0)
    for name, want in xi_weight_sums(model, grid, xi, 1.0, drawn.eps).items():
        assert np.array_equal(getattr(pf, name)[:, 0], want), name


def test_extended_reduces_to_basic_pathwise():
    # on one walk: the basic side runs sigma(x) = x through its callbacks
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    ext = as_extended(model)
    grid = TimeGrid(1.0, 120)
    idx = np.arange(300)
    b = simulate_basic_batch(model, [1.0], [0.2], grid, noise(model, grid, 43, idx))
    e = simulate_extended_batch(ext, [1.0], [0.2], grid, noise(ext, grid, 43, idx))
    for name in ("b_final", "x_final", "y_final", "q_matrix", "trace_integral",
                 "sigma_stoch_integral", "xi_drift_weight", "min_eig_q"):
        lhs, rhs = getattr(b, name), getattr(e, name)
        assert np.allclose(lhs, rhs, atol=1e-12), name
    # the xi drift weight of axis e_i reduces to the i-th entry of B_T/T
    assert np.allclose(e.xi_drift_weight, b.b_final / grid.horizon, atol=1e-12)


def test_zero_direction_zeroes_every_direction_dependent_field():
    model = make_extended_demo_model()
    grid = TimeGrid(1.0, 60)
    v0 = Direction.make(0.0, 0.0)
    pf = simulate_extended_batch(model, [1.0], [0.0], grid, noise(model, grid, 47, [0]))
    # every axis slot is read along v1 = 0, so only <v2, a> = 0 is left
    drift, trace, inner, ok = weight_terms_shared(pf, v0)
    assert ok[0]
    assert drift[0] == 0.0 and trace[0] == 0.0 and inner[0] == 0.0


def test_extended_demo_tile_matches_a_copy_on_np_sin_and_np_cos():
    # b2 and grad_b2 reach a PathBatch only through y_final and
    # drift_grad_integral, which move at rounding level; every other field and
    # the mask keep their bits
    model = make_extended_demo_model()
    libm = replace(
        model,
        b2=lambda x: 0.5 * np.sin(np.asarray(x)),
        grad_b2=lambda x, v: (0.5 * np.cos(np.asarray(x)[..., 0])
                              * np.broadcast_to(np.asarray(v), np.shape(x))[..., 0])[..., None],
    )
    grid = TimeGrid(1.0, 100)
    idx = np.arange(4096)
    got, ref = (simulate_extended_batch(m, [1.0], [0.5], grid, noise(m, grid, 89, idx))
                for m in (model, libm))
    assert got.valid.all()
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(ref, field.name)
        if field.name in ("y_final", "drift_grad_integral"):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), field.name
        else:
            assert np.array_equal(a, b), field.name


def test_bitwise_determinism_across_calls_and_batching():
    model = make_power_law_model(1, 1, 2.0)
    grid = TimeGrid(0.5, 64)
    one = simulate_basic_batch(model, [1.0], [0.3], grid, noise(model, grid, 53, [17]))
    big = simulate_basic_batch(model, [1.0], [0.3], grid,
                               noise(model, grid, 53, np.arange(10, 30)))
    again = simulate_basic_batch(model, [1.0], [0.3], grid, noise(model, grid, 53, [17]))
    assert np.array_equal(one.q_matrix[0], big.q_matrix[7])
    assert np.array_equal(one.sigma_stoch_integral, again.sigma_stoch_integral)
    assert one.min_eig_q[0] == big.min_eig_q[7]


def test_brownian_increments_split_across_a_partial_block():
    grid = TimeGrid(1.0, 30)
    whole = standard_increments(61, np.arange(1250), 30, 3)
    head = standard_increments(61, np.arange(300), 30, 3)
    tail = standard_increments(61, np.arange(300, 1250), 30, 3)
    assert whole.shape == (1250, 30, 3)
    assert np.array_equal(whole, np.concatenate([head, tail]))
    model = make_tilted_matrix_model()
    whole, head, tail = (noise(model, grid, 61, idx) for idx in (
        np.arange(1250), np.arange(300), np.arange(300, 1250)))
    assert whole.eps.shape == (1250, 30, 1) and whole.zeta.shape == (1250, 2)
    for part in ("eps", "zeta"):
        assert np.array_equal(getattr(whole, part),
                              np.concatenate([getattr(head, part), getattr(tail, part)]))


def test_kernels_scale_one_standard_draw_to_their_grid():
    # Brownian scaling: from x0 = 0 with sigma = I, X_T = B_T, so on one draw
    # of standard normals X_T on [0, 1] is exactly twice X_T on [0, 1/4]
    model = make_constant_identity_model()
    drawn = standard_noise(19, np.arange(5, 700), 30, model)
    finals = {}
    for T in (1.0, 0.25):
        grid = TimeGrid(T, 30)
        x_final, _, _ = simulate_terminal_batch(model, [0.0], [0.0], grid, drawn)
        assert np.array_equal(simulate_batch(model, [0.0], [0.0], grid, drawn).x_final, x_final)
        finals[T] = x_final
    assert np.array_equal(finals[1.0], 2.0 * finals[0.25])
    assert np.abs(finals[1.0]).max() > 1.0


@pytest.mark.parametrize("model", [make_power_law_model(1, 1, 1.0),
                                   make_power_law_model(2, 1, 1.0),
                                   make_tilted_matrix_model()], ids=lambda m: m.name)
def test_a_later_point_on_one_noise_leaves_earlier_results_alone(model):
    # the basic kernel writes every point into the tile scratch of the noise,
    # so nothing it returned for point A may change when point B runs
    point_a = ([0.8] * model.m, [0.2] * model.d, TimeGrid(1.0, 40))
    point_b = ([-0.5] * model.m, [1.0] * model.d, TimeGrid(0.4, 40))
    drawn = noise(model, point_a[2], 31, np.arange(300))

    def run(point, on):
        return (simulate_basic_batch(model, *point, on),
                simulate_terminal_batch(model, *point, on))

    a, a_terminal = run(point_a, drawn)
    a_before = {f.name: getattr(a, f.name).copy() for f in fields(a)}
    a_terminal_before = [arr.copy() for arr in a_terminal]
    b, b_terminal = run(point_b, drawn)
    for name, before in a_before.items():
        assert np.array_equal(getattr(a, name), before), name
    for arr, before in zip(a_terminal, a_terminal_before):
        assert np.array_equal(arr, before)
    # and point B reads the same bits off the reused scratch as off a new noise
    alone, alone_terminal = run(point_b, Noise(drawn.eps, drawn.zeta, drawn.modes))
    for f in fields(b):
        assert np.array_equal(getattr(b, f.name), getattr(alone, f.name)), f.name
    for arr, want in zip(b_terminal, alone_terminal):
        assert np.array_equal(arr, want)


def test_a_second_point_on_one_noise_allocates_only_the_callback_outputs():
    # P = 1,280 paths of n = 100 steps, one tile at m + d = 2.  The first point
    # builds the walk and the tile scratch; at the second, the only fresh
    # (P, n) arrays are what sigma and grad sigma return (tracemalloc sees
    # numpy's data allocations).  The linear family calls neither, so sigma(x)
    # = x runs here through its callbacks
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    P, n = 1280, 100
    drawn = noise(model, TimeGrid(1.0, n), 41, np.arange(P))
    simulate_basic_batch(model, [1.0], [0.0], TimeGrid(1.0, n), drawn)
    for kernel, limit in ((simulate_basic_batch, 2.5), (simulate_terminal_batch, 1.5)):
        tracemalloc.start()
        try:
            kernel(model, [0.3], [1.0], TimeGrid(0.5, n), drawn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (P * n * 8) < limit, kernel.__name__


@pytest.mark.parametrize("m, d, l", [(1, 1, 1.0), (1, 1, 2.0), (2, 1, 1.5), (1, 2, 1.0)])
def test_power_law_kernel_commutes_with_the_dilation(m, d, l):
    # sigma(x) = |x|^l I is invariant under delta(x, y) = (lam x, lam^(l+1) y)
    # with T -> lam^2 T: on one standard draw, the kernel from delta(z0) on
    # [0, lam^2 T] gives lam X_T and lam^(l+1) (Y_T - y0), and the weight along
    # an x axis scales by 1/lam, along a y axis by 1/lam^(l+1)
    lam, T, K = 1.7, 0.8, 50
    model = make_power_law_model(m, d, l)
    x0, y0 = np.array([0.8, -0.3][:m]), np.array([0.4, -0.2][:d])
    drawn = noise(model, TimeGrid(T, K), 13, np.arange(2000))
    base = simulate_batch(model, x0, y0, TimeGrid(T, K), drawn)
    dilated = simulate_batch(model, lam * x0, lam ** (l + 1) * y0, TimeGrid(lam**2 * T, K),
                             drawn)

    def assert_scaled(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert_scaled(dilated.x_final, lam * base.x_final)
    assert_scaled(dilated.y_final - lam ** (l + 1) * y0, lam ** (l + 1) * (base.y_final - y0))
    for axis in range(m + d):
        e = np.eye(m + d)[axis]
        v = Direction(e[:m], e[m:])
        *terms, solvable = weight_terms_shared(base, v)
        *dilated_terms, dilated_solvable = weight_terms_shared(dilated, v)
        assert solvable.all() and dilated_solvable.all()
        scale = lam if axis < m else lam ** (l + 1)
        assert_scaled(sum(dilated_terms), sum(terms) / scale)


@pytest.mark.parametrize("m, d, l", [(2, 1, 1.0), (2, 1, 1.5), (3, 2, 1.0), (3, 1, 2.0)])
def test_power_law_kernel_commutes_with_rotations_of_x(m, d, l):
    # for m >= 2, sigma(x) = |x|^l I depends on |x| alone: rotating x0 and the
    # increments of B by an orthogonal U gives U X_T and the same Y_T and Q_T,
    # and the weight along (U v1, v2) equals the weight along (v1, v2)
    T, K = 0.8, 50
    u = np.linalg.qr(np.random.default_rng(17).standard_normal((m, m)))[0]
    model = make_power_law_model(m, d, l)
    x0, y0 = np.array([0.8, -0.3, 0.5][:m]), np.array([0.4, -0.2][:d])
    grid = TimeGrid(T, K)
    drawn = noise(model, grid, 29, np.arange(2000))
    base = simulate_batch(model, x0, y0, grid, drawn)
    turned = simulate_batch(model, u @ x0, y0, grid, Noise(drawn.eps @ u.T, drawn.zeta))

    def assert_same(got, want):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert_same(turned.x_final, base.x_final @ u.T)
    assert_same(turned.y_final, base.y_final)
    assert_same(turned.q_matrix, base.q_matrix)
    oblique = np.linspace(1.0, -0.5, m + d)
    for v in [*np.eye(m + d), oblique / np.linalg.norm(oblique)]:
        v1, v2 = v[:m], v[m:]
        *terms, solvable = weight_terms_shared(base, Direction(v1, v2))
        *turned_terms, turned_solvable = weight_terms_shared(turned, Direction(u @ v1, v2))
        assert solvable.all() and turned_solvable.all()
        assert_same(sum(turned_terms), sum(terms))


def test_extended_override_for_one_path_is_refused_for_four():
    model = make_extended_demo_model()
    grid = TimeGrid(1.0, 20)
    one_path = noise(model, grid, 83, [0])
    four_paths = noise(model, grid, 83, np.arange(4))
    with pytest.raises(ValueError, match="noise has shapes"):
        simulate_extended_batch(model, [1.0], [0.0], grid,
                                Noise(four_paths.eps, one_path.zeta))


@pytest.mark.parametrize("kernel", [simulate_batch, simulate_terminal_batch])
@pytest.mark.parametrize("name", ["power_law", "extended_demo"])
def test_kernels_refuse_noise_that_is_not_a_noise(kernel, name):
    model = SPLIT_MODELS[name]
    grid = TimeGrid(1.0, 20)
    drawn = noise(model, grid, 83, np.arange(4))
    with pytest.raises(TypeError, match="noise must be a paths.Noise"):
        kernel(model, np.ones(model.m), np.zeros(model.d), grid, (drawn.eps, drawn.zeta))


def test_extended_override_with_more_steps_than_the_grid_is_refused():
    model = make_extended_demo_model()
    idx = np.arange(4)
    fine = noise(model, TimeGrid(1.0, 40), 83, idx)
    with pytest.raises(ValueError, match="noise has shapes"):
        simulate_extended_batch(model, [1.0], [0.0], TimeGrid(1.0, 20), fine)


def test_nonfinite_coefficients_flag_paths_invalid():
    def bad_scalar(x):
        return np.sqrt(np.asarray(x)[..., 0])  # NaN once the path goes negative

    def bad_grad(x, v):
        return np.zeros(np.asarray(x).shape[:-1])

    model = ModelSpec(m=1, d=1, kind=ModelKind.BASIC,
                      sigma=lambda x: bad_scalar(x)[..., None, None],
                      grad_sigma=lambda x, v: bad_grad(x, v)[..., None, None],
                      sigma_scalar=bad_scalar, grad_sigma_scalar=bad_grad,
                      name="sqrt_model")
    grid = TimeGrid(4.0, 100)
    drawn = noise(model, grid, 59, np.arange(2000))
    with np.errstate(invalid="ignore"):
        batch = simulate_basic_batch(model, [1.0], [0.0], grid, drawn)
        _, _, terminal_valid = simulate_terminal_batch(model, [1.0], [0.0], grid, drawn)
    n_bad = int((~batch.valid).sum())
    assert 0 < n_bad < 2000  # flagged, counted, not silently dropped
    assert np.all(np.isfinite(batch.q_matrix[batch.valid]))
    assert np.array_equal(terminal_valid, batch.valid)


def test_all_zero_sigma1_flags_paths_invalid():
    # for m >= 2 a path is singular when det sigma1 <= 1e-12 max|sigma1|^m; an
    # all-zero sigma1 meets that with equality, so its path is counted invalid
    # instead of reaching the xi solve, which would raise for the whole batch
    def sigma1(x):
        x = np.asarray(x)
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        out[np.linalg.norm(x, axis=-1) > 1.5] = 0.0
        return out

    model = replace(as_extended(make_power_law_model(2, 1, 1.0)), sigma1=sigma1)
    grid = TimeGrid(1.0, 20)
    v = Direction.make([1.0, 0.0], [0.0])
    batch = simulate_extended_batch(model, [1.0, 0.5], [0.0], grid,
                                    noise(model, grid, 3, np.arange(256)))
    n_bad = int((~batch.valid).sum())
    assert 0 < n_bad < 256
    y = Observable("y", lambda z: np.asarray(z)[..., 2])
    est = bismut_panel(model, [1.0, 0.5, 0.0], 1.0, [y], [v], 256, 20, 3)[("grad", "y", 0)]
    assert (est.n_valid, est.n_invalid) == (256 - n_bad, n_bad)


# ---------------------------------------------------------------------------
# direction-free part against the full kernels
# ---------------------------------------------------------------------------

def _reference_basic(model, x0, v, grid, eps, eps_t):
    """Every functional of the basic kernel in one pass, with the same
    operations as the kernel before it was split into two parts, on the
    standard normals eps of B and eps_t of B~: the PathBatch fields that do not
    read the noise of Y, int b2 dt (``ydrift``, 0 here) and the B~ integrals
    W = int w grad sigma dBt and S~ = int sigma dBt that the kernel no longer
    forms."""
    d, n, T = model.d, grid.n_steps, grid.horizon
    P = len(eps)
    x_left, b_final = brownian_left_nodes(x0, standard_walk(eps), grid)
    dBt = eps_t * np.sqrt(grid.dt)
    w = grid.decay_weights()
    if model.scalar_identity:
        s = np.asarray(model.sigma_scalar(x_left), dtype=float)
        wg = w * np.asarray(model.grad_sigma_scalar(x_left, v.v1), dtype=float)
        q_scalar = T * np.mean(s * s, axis=1)
        q = q_scalar[:, None, None] * np.eye(d)
        tr = (T * np.mean(wg * s, axis=1))[:, None, None] * np.eye(d)
        wsi = (wg[:, :, None] * dBt).sum(axis=1)
        ssi = (s[:, :, None] * dBt).sum(axis=1)
    else:
        # each step flattened to its d^2 entries, one (d^2, d^2) Gram per path
        # over the steps, and its diagonal blocks summed
        S = np.asarray(model.sigma(x_left), dtype=float)
        G = np.asarray(model.grad_sigma(x_left, v.v1), dtype=float) * w[:, None, None]
        flat_s, flat_g = S.reshape(P, n, d * d), G.reshape(P, n, d * d)
        q = T * np.einsum("pijlj->pil", (flat_s.transpose(0, 2, 1) @ flat_s)
                          .reshape(P, d, d, d, d)) / n
        tr = T * np.einsum("pijlj->pil", (flat_g.transpose(0, 2, 1) @ flat_s)
                           .reshape(P, d, d, d, d)) / n
        wsi = (G * dBt[:, :, None, :]).sum(axis=(1, 3))
        ssi = (S * dBt[:, :, None, :]).sum(axis=(1, 3))
    return dict(b_final=b_final, x_final=x0 + b_final, q_matrix=q, trace_integral=tr,
                drift_grad_integral=np.zeros((P, d)),
                xi_drift_weight=(b_final * v.v1).sum(axis=1) / T,
                ydrift=np.zeros((P, d)), w_tilde=wsi, s_tilde=ssi)


def _gram_steps(left, right):
    """sum_k L_k R_k^* (P, d, d) of two (B, P, d, d) step arrays, through the
    (d^2, d^2) Gram over the steps of their flattened entries."""
    B, P, d, _ = left.shape
    flat_l = np.ascontiguousarray(left.transpose(1, 0, 2, 3)).reshape(P, B, d * d)
    flat_r = np.ascontiguousarray(right.transpose(1, 0, 2, 3)).reshape(P, B, d * d)
    return np.einsum("pijlj->pil", (flat_l.transpose(0, 2, 1) @ flat_r).reshape(P, d, d, d, d))


def _reference_extended(model, x0, v, grid, eps, eps_t):
    """As ``_reference_basic``, for the extended kernel's blocks of
    ``BLOCK_STEPS`` steps along one direction v1: X step by step, every other
    callback once per block on its left nodes (the gradients along the axes),
    xi carried as the matrix whose columns start at the axes by the running
    products of its block's step matrices, and the functionals read along the
    xi of v1, xi v1, each block summed by halving."""
    m, d, n, T, dt = model.m, model.d, grid.n_steps, grid.horizon, grid.dt
    P, h, eye = len(eps), np.sqrt(dt), np.eye(m)
    scalar = model.scalar_identity
    remaining = T - grid.times()
    factors = remaining[1:] / remaining[:n]
    x = np.broadcast_to(x0, (P, m)).copy()
    xi = np.broadcast_to(eye, (P, m, m)).copy()
    b = np.zeros((P, m))
    q, tr = (np.zeros(P) if scalar else np.zeros((P, d, d)) for _ in range(2))
    wsi, ssi, dgi, ydrift = (np.zeros((P, d)) for _ in range(4))
    xdw = np.zeros(P)
    for start in range(0, n, BLOCK_STEPS):
        k = np.arange(start, min(start + BLOCK_STEPS, n))
        db, dbt = eps[:, k].transpose(1, 0, 2) * h, eps_t[:, k].transpose(1, 0, 2) * h
        x_left, s1 = np.empty((len(k), P, m)), np.empty((len(k), P, m, m))
        for j in range(len(k)):
            x_left[j] = x
            s1[j] = model.sigma1(x)
            x = (x + np.einsum("pij,pj->pi", s1[j], db[j])
                 + np.asarray(model.b1(x), dtype=float) * dt)
            b += db[j]
        if m == 1:
            bad = np.abs(s1[..., 0, 0]) < 1e-300
            z = db / np.where(bad[..., None, None], eye, s1)[..., 0]
        else:
            bad = np.abs(np.linalg.det(s1)) <= 1e-12 * np.abs(s1).max(axis=(2, 3)) ** m
            s1_safe = np.where(bad[..., None, None], eye, s1)
            z = np.linalg.solve(np.swapaxes(s1_safe, 2, 3), db[..., None])[..., 0]
        z /= remaining[k, None, None]
        xis = np.empty((len(k) + 1, P, m, m))
        xis[0] = xi
        for j, e in enumerate(eye):
            xis[1:, ..., j] = np.einsum("kpab,kpb->kpa", model.grad_sigma1(x_left, e), db)
            xis[1:, ..., j] += np.asarray(model.grad_b1(x_left, e), dtype=float) * dt
        xis[1:] = (xis[1:] + eye) * factors[k, None, None, None]
        span = 1
        while span < len(xis):
            xis[span:] = np.einsum("kpab,kpbc->kpac", xis[span:], xis[:-span])
            span *= 2
        xi = xis[-1]
        xi_v = np.einsum("kpai,i->kpa", xis[:-1], v.v1)        # xi of v1 at the left nodes

        def along(callback):
            values = [np.asarray(callback(x_left, e), dtype=float) for e in eye]
            weights = [xi_v[..., j].reshape(xi_v.shape[:2] + (1,) * (values[j].ndim - 2))
                       for j in range(m)]
            return functools.reduce(np.add, (w * g for w, g in zip(weights, values)))

        xdw += _halving_sum(np.einsum("kpa,kpa->kp", z, xi_v))
        dgi += _halving_sum(along(model.grad_b2))
        ydrift += _halving_sum(np.asarray(model.b2(x_left), dtype=float))
        if scalar:
            field = np.asarray(model.sigma_scalar(x_left), dtype=float)
            g2 = along(model.grad_sigma_scalar)
            q += _halving_sum(field * field)
            tr += _halving_sum(g2 * field)
            wsi += _halving_sum(g2[..., None] * dbt)
            ssi += _halving_sum(field[..., None] * dbt)
        else:
            field = np.asarray(model.sigma(x_left), dtype=float)
            g2 = along(model.grad_sigma)
            q += _gram_steps(field, field)
            tr += _gram_steps(g2, field)
            wsi += _halving_sum(np.einsum("kpij,kpj->kpi", g2, dbt))
            ssi += _halving_sum(np.einsum("kpij,kpj->kpi", field, dbt))
    if scalar:
        q, tr = ((T * acc / n)[:, None, None] * np.eye(d) for acc in (q, tr))
    else:
        q, tr = T * q / n, T * tr / n
    return dict(b_final=b, x_final=x, q_matrix=q, trace_integral=tr,
                drift_grad_integral=T * dgi / n, xi_drift_weight=xdw,
                ydrift=T * ydrift / n, w_tilde=wsi, s_tilde=ssi)


def _joint_loop_extended(model, x0, v, grid, eps, eps_t):
    """As ``_reference_basic``, for the extended kernel as one joint (X, Y, xi)
    loop over the steps, along one direction: every callback at every step,
    and every integral a running sum."""
    m, d, n, T, dt = model.m, model.d, grid.n_steps, grid.horizon, grid.dt
    P = len(eps)
    remaining = T - grid.times()
    factors = remaining[1:] / remaining[:n]
    x = np.broadcast_to(x0, (P, m)).copy()
    xi = np.broadcast_to(v.v1, (P, m)).copy()
    b = np.zeros((P, m))
    q, tr = np.zeros((P, d, d)), np.zeros((P, d, d))
    wsi, ssi, dgi, ydrift = (np.zeros((P, d)) for _ in range(4))
    xdw = np.zeros(P)
    for k in range(n):
        db, dbt = eps[:, k, :] * np.sqrt(dt), eps_t[:, k, :] * np.sqrt(dt)
        s1 = np.asarray(model.sigma1(x), dtype=float)
        s2 = np.asarray(model.sigma(x), dtype=float)
        g2 = np.asarray(model.grad_sigma(x, xi), dtype=float)
        if m == 1:
            bad = np.abs(s1[:, 0, 0]) < 1e-300
            s1_inv_xi = xi / np.where(bad, 1.0, s1[:, 0, 0])[:, None]
        else:
            bad = np.abs(np.linalg.det(s1)) < 1e-12 * np.abs(s1).max(axis=(1, 2)) ** m
            s1_safe = np.where(bad[:, None, None], np.eye(m), s1)
            s1_inv_xi = np.linalg.solve(s1_safe, xi[..., None])[..., 0]
        xdw += (s1_inv_xi * db).sum(axis=1) / remaining[k]
        q += np.einsum("pij,pkj->pik", s2, s2) * dt
        tr += dt * np.einsum("pij,pkj->pik", g2, s2)
        wsi += np.einsum("pij,pj->pi", g2, dbt)
        ssi += np.einsum("pij,pj->pi", s2, dbt)
        dgi += np.asarray(model.grad_b2(x, xi), dtype=float) * dt
        ydrift += np.asarray(model.b2(x), dtype=float) * dt
        gs1 = np.asarray(model.grad_sigma1(x, xi), dtype=float)
        gb1 = np.asarray(model.grad_b1(x, xi), dtype=float)
        xi = factors[k] * (xi + np.einsum("pij,pj->pi", gs1, db) + gb1 * dt)
        x = x + np.einsum("pij,pj->pi", s1, db) + np.asarray(model.b1(x), dtype=float) * dt
        b = b + db
    return dict(b_final=b, x_final=x, q_matrix=q, trace_integral=tr,
                drift_grad_integral=dgi, xi_drift_weight=xdw, ydrift=ydrift,
                w_tilde=wsi, s_tilde=ssi)


def _reference(model, x0, v, grid, eps, eps_t):
    kernel = _reference_basic if model.kind is ModelKind.BASIC else _reference_extended
    return kernel(model, x0, v, grid, eps, eps_t)


def _given_b(model, ref, y0, zeta):
    """The PathBatch fields that read zeta, from the reference's Q_T with the
    kernel's operations: S = R zeta, Y_T = y0 + (S + int b2 dt), min eig Q_T."""
    q = ref["q_matrix"]
    if model.d == 1 or (model.kind is ModelKind.BASIC and model.scalar_identity):
        s, min_eig = np.sqrt(q[:, 0, 0])[:, None] * zeta, q[:, 0, 0]
    elif model.d == 2:
        # the closed-form root of Q / max(Q_00, Q_11), for finite Q != 0
        scale = np.maximum(q[:, 0, 0], q[:, 1, 1])
        unit = q / scale[:, None, None]
        a, b, c = unit[:, 0, 0], unit[:, 1, 0], unit[:, 1, 1]
        det = np.maximum(a * c - b * b, 0.0)
        root_det = np.sqrt(det)
        lam_max = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)
        factor = np.sqrt(scale / (a + c + 2.0 * root_det))
        z0, z1 = zeta[:, 0], zeta[:, 1]
        s = factor[:, None] * np.stack([(a + root_det) * z0 + b * z1,
                                        b * z0 + (c + root_det) * z1], axis=1)
        min_eig = det / lam_max * scale
    else:
        lam, u = np.linalg.eigh(q)
        root = (u * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ u.transpose(0, 2, 1)
        s, min_eig = (root @ zeta[..., None])[..., 0], lam[:, 0]
    return {"sigma_stoch_integral": s, "y_final": y0 + (s + ref["ydrift"]),
            "min_eig_q": min_eig}


LINEAR = make_power_law_model(1, 1, 1.0)   # sigma(x) = x, read off the KL functionals
SPLIT_MODELS = {
    "linear": LINEAR,
    "power_law": replace(LINEAR, family=None),   # the same sigma through its callbacks
    "power_law_m2": make_power_law_model(2, 1, 1.5),
    "tilted_matrix": make_tilted_matrix_model(),
    "extended_demo": make_extended_demo_model(),
    "extended_m2": as_extended(make_power_law_model(2, 1, 1.0)),
    "extended_coupled": _coupled_extended_model(),
}
FIELDS = ("b_final", "x_final", "q_matrix", "trace_integral", "drift_grad_integral",
          "xi_drift_weight")
AXIS_FIELDS = ("trace_integral", "drift_grad_integral", "xi_drift_weight")
# the models whose kernels sum their callbacks over the steps, as the references
# do; the linear family reads KL modes (test_linear_kernel_is_the_general_scalar_kernel)
CALLBACK_MODELS = sorted(set(SPLIT_MODELS) - {"linear"})


@pytest.mark.parametrize("x_start", [1.0, 0.0])
@pytest.mark.parametrize("name", CALLBACK_MODELS)
def test_direction_free_part_keeps_every_bit(name, x_start):
    model = SPLIT_MODELS[name]
    grid = TimeGrid(1.0, 40)
    idx = np.arange(700)
    x0, y0 = np.full(model.m, x_start), np.full(model.d, 0.3)
    drawn = noise(model, grid, 89, idx)
    no_b_tilde = np.zeros((len(idx), grid.n_steps, model.d))  # W and S~ are not compared
    x_final, y_final, valid = simulate_terminal_batch(model, x0, y0, grid, drawn)
    full = simulate_batch(model, x0, y0, grid, drawn)
    assert np.array_equal(full.x_final, x_final)
    assert np.array_equal(full.y_final, y_final)
    assert np.array_equal(full.valid, valid)
    # the reference runs one direction; slot i of the kernel is its run along e_i
    for i, e in enumerate(np.eye(model.m)):
        v = Direction.make(e, np.full(model.d, 0.5))
        ref = _reference(model, x0, v, grid, drawn.eps, no_b_tilde)
        want = {key: ref[key] for key in FIELDS} | _given_b(model, ref, y0, drawn.zeta)
        for field, value in want.items():
            got = getattr(full, field)
            if field in AXIS_FIELDS:
                got = got[:, i]
            assert got.shape == value.shape and got.dtype == value.dtype, field
            assert np.array_equal(got, value), field
    assert valid.all()


EXTENDED_MODELS = ["extended_coupled", "extended_demo", "extended_m2"]


@pytest.mark.parametrize("n_steps", [40, 43])
@pytest.mark.parametrize("name", EXTENDED_MODELS)
def test_extended_blocks_agree_with_the_joint_step_loop(name, n_steps):
    # the blocks and the one joint loop over the steps are two orders of the
    # same sums and products: X_T keeps every bit, every other field agrees
    # to rounding, read along a direction that mixes the axes
    model = SPLIT_MODELS[name]
    grid = TimeGrid(1.0, n_steps)
    idx = np.arange(500)
    x0, y0 = np.linspace(0.4, 1.0, model.m), np.full(model.d, 0.3)
    v = Direction.make(np.linspace(0.8, -0.6, model.m), np.full(model.d, 0.5))
    drawn = noise(model, grid, 71, idx)
    batch = simulate_batch(model, x0, y0, grid, drawn)
    ref = _joint_loop_extended(model, x0, v, grid, drawn.eps,
                               np.zeros((len(idx), n_steps, model.d)))
    assert batch.valid.all()
    assert np.array_equal(batch.x_final, ref["x_final"])
    want = {key: ref[key] for key in FIELDS} | _given_b(model, ref, y0, drawn.zeta)
    for field, value in want.items():
        got = getattr(batch, field)
        if field in AXIS_FIELDS:
            got = np.einsum("pi...,i->p...", got, v.v1)
        np.testing.assert_allclose(got, value, rtol=0, atol=1e-12 * np.abs(value).max(),
                                   err_msg=field)


@pytest.mark.parametrize("n_steps", [BLOCK_STEPS - 1, 2 * BLOCK_STEPS + 1])
@pytest.mark.parametrize("kernel", [simulate_batch, simulate_terminal_batch])
@pytest.mark.parametrize("name", EXTENDED_MODELS)
def test_extended_path_alone_equals_the_path_in_a_batch(name, kernel, n_steps):
    # a block spans steps, never paths: each sum over its steps adds whole
    # rows, so no path's bits depend on the paths beside it, below one block
    # and with a last block cut short
    model = SPLIT_MODELS[name]
    grid = TimeGrid(1.0, n_steps)
    x0, y0 = np.full(model.m, 0.7), np.full(model.d, 0.4)
    batches = {P: noise(model, grid, 53, np.arange(P)) for P in (300, 700)}
    for i in (0, 255, 256, 299):
        one = _outputs(kernel(model, x0, y0, grid, noise(model, grid, 53, [i])))
        for P, drawn in batches.items():
            many = _outputs(kernel(model, x0, y0, grid, drawn))
            for field, value in one.items():
                assert np.array_equal(value[0], many[field][i]), (field, P, i)


CALLBACKS = ("sigma", "grad_sigma", "sigma_scalar", "grad_sigma_scalar", "sigma1",
             "grad_sigma1", "b1", "grad_b1", "b2", "grad_b2")


def _counting(model):
    """``model`` with each callback wrapped to count its calls, and the counter."""
    counts = Counter()

    def counted(name, callback):
        def call(*args):
            counts[name] += 1
            return callback(*args)
        return call

    wrapped = {name: counted(name, getattr(model, name)) for name in CALLBACKS
               if getattr(model, name) is not None}
    return replace(model, **wrapped), counts


@pytest.mark.parametrize("n_steps", [BLOCK_STEPS - 1, 3 * BLOCK_STEPS, 3 * BLOCK_STEPS + 2, 100])
@pytest.mark.parametrize("name", EXTENDED_MODELS)
def test_extended_kernel_steps_only_sigma1_and_b1(name, n_steps):
    # X's recursion calls sigma1 and b1 at every step; every other callback
    # runs at most once per block, along each axis for a gradient
    model, counts = _counting(SPLIT_MODELS[name])
    grid = TimeGrid(1.0, n_steps)
    drawn = noise(model, grid, 61, np.arange(64))
    x0, y0 = np.full(model.m, 0.5), np.zeros(model.d)
    blocks = math.ceil(n_steps / BLOCK_STEPS)
    for kernel in (simulate_batch, simulate_terminal_batch):
        counts.clear()
        kernel(model, x0, y0, grid, drawn)
        assert counts["sigma1"] == n_steps and counts["b1"] == n_steps, kernel
        for name_, calls in counts.items():
            if name_ not in ("sigma1", "b1"):
                per_block = model.m if name_.startswith("grad") else 1
                assert calls <= blocks * per_block, (kernel, name_, calls)


AXIS_MODELS = {
    "scalar": make_power_law_model(2, 1, 1.0),
    "matrix": replace(make_power_law_model(2, 2, 1.0), sigma_scalar=None,
                      grad_sigma_scalar=None),
    "extended": as_extended(make_power_law_model(2, 1, 1.0)),
}


@pytest.mark.parametrize("name", sorted(AXIS_MODELS))
def test_axis_slots_combine_to_the_reference_kernel(name):
    # the reference kernels run the direction itself and the kernels run the
    # axes e_1, e_2: sum_i v1_i (slot i) must give the reference's fields, and
    # weight_terms_shared the weight assembled from them
    model = AXIS_MODELS[name]
    assert model.m == 2 and (name != "matrix" or not model.scalar_identity)
    grid = TimeGrid(1.0, 40)
    idx = np.arange(400)
    v = Direction.make([0.6, -0.8], np.full(model.d, 0.3))
    x0, y0 = np.array([1.0, 0.5]), np.zeros(model.d)
    drawn = noise(model, grid, 97, idx)
    batch = simulate_batch(model, x0, y0, grid, drawn)
    ref = _reference(model, x0, v, grid, drawn.eps,
                     np.zeros((len(idx), grid.n_steps, model.d)))
    assert batch.valid.all()
    for field in AXIS_FIELDS:
        slots = getattr(batch, field)
        got = v.v1[0] * slots[:, 0] + v.v1[1] * slots[:, 1]
        np.testing.assert_allclose(got, ref[field], rtol=0,
                                   atol=1e-12 * np.abs(ref[field]).max(), err_msg=field)

    q, c = batch.q_matrix, ref["trace_integral"]
    a = np.linalg.solve(q, batch.sigma_stoch_integral[..., None])[..., 0]
    want = (ref["xi_drift_weight"] - np.einsum("pii->p", np.linalg.solve(q, c))
            + np.einsum("pd,pd->p", v.v2 + ref["drift_grad_integral"], a)
            + np.einsum("pi,pij,pj->p", a, c, a))
    drift, trace, inner, ok = weight_terms_shared(batch, v)
    assert ok.all()
    np.testing.assert_allclose(drift + trace + inner, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def _reference_linear(batch, grid, eps_t):
    """The B~ scheme of the linear family given its B path, along v1 = 1: on
    that path W = int w dB~ and S~ = int X dB~ are jointly Gaussian, with
    Var S~ = Q_T, Cov(W, S~) = C and Var W = int_0^T w^2 dt = T/3, so the
    reference draws them from two of the standard normals eps_t."""
    q, c = batch.q_matrix[:, 0, 0], batch.trace_integral[:, 0, 0, 0]
    residual = grid.horizon / 3.0 - c * c / q
    assert (residual >= 0.0).all()
    g0, g1 = eps_t[:, 0, :], eps_t[:, 1, :]
    zeros = np.zeros_like(g0)
    return dict(x_final=batch.x_final, q_matrix=batch.q_matrix,
                trace_integral=batch.trace_integral[:, 0], drift_grad_integral=zeros,
                xi_drift_weight=batch.xi_drift_weight[:, 0], ydrift=zeros,
                s_tilde=np.sqrt(q)[:, None] * g0,
                w_tilde=(c / np.sqrt(q))[:, None] * g0 + np.sqrt(residual)[:, None] * g1)


@pytest.mark.parametrize("name", ["linear", "power_law", "tilted_matrix", "extended_demo"])
def test_y_given_b_has_the_law_of_the_b_tilde_scheme(name):
    # one B path on 100k rows: over zeta, S must be N(0, Q_T), and f M_T must
    # average to what f M_T of the B~ scheme averages to over B~ on that path;
    # the linear family's path is one row of KL modes, whose B~ scheme is drawn
    # from its Gaussian law given the path (``_reference_linear``)
    model = SPLIT_MODELS[name]
    grid, P = TimeGrid(1.0, 10), 100_000
    idx = np.arange(P)
    path = noise(model, grid, 101, [3])
    eps, modes = (None if arr is None else np.repeat(arr, P, axis=0)
                  for arr in (path.eps, path.modes))
    zeta = PathStreams(101, substream=1).fill_normals(idx, (model.d,))
    x0, y0 = np.full(model.m, 1.5), np.full(model.d, 0.3)
    v = Direction.make(np.ones(model.m), np.full(model.d, 0.5))
    batch = simulate_batch(model, x0, y0, grid, Noise(eps, zeta, modes))
    assert batch.valid.all()
    q = batch.q_matrix[0]
    assert np.array_equal(batch.q_matrix, np.broadcast_to(q, batch.q_matrix.shape))

    def within_4_sigma(samples, want):
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        return abs(samples.mean() - want) <= 4.0 * se

    s = batch.sigma_stoch_integral
    for i in range(model.d):
        assert within_4_sigma(s[:, i], 0.0), i
        for j in range(model.d):
            assert within_4_sigma(s[:, i] * s[:, j], q[i, j]), (i, j)

    eps_t = standard_increments(102, idx, grid.n_steps, model.d)
    ref = (_reference_linear(batch, grid, eps_t) if name == "linear"
           else _reference(model, x0, v, grid, eps, eps_t))
    w_mat = np.linalg.solve(ref["q_matrix"], ref["trace_integral"])
    u = np.linalg.solve(ref["q_matrix"], (v.v2 + ref["w_tilde"] + ref["drift_grad_integral"])
                        [..., None])[..., 0]
    m_ref = (ref["xi_drift_weight"] - np.einsum("pii->p", w_mat)
             + np.einsum("pd,pd->p", u, ref["s_tilde"]))
    z_ref = np.concatenate([ref["x_final"], y0 + (ref["s_tilde"] + ref["ydrift"])], axis=1)

    drift, trace, inner, ok = weight_terms_shared(batch, v)
    assert ok.all()
    m_t = drift + trace + inner
    for f_name in ("sin_y", "y_squared"):
        f = observable(f_name, model)
        new, old = f.eval(batch.z_final) * m_t, f.eval(z_ref) * m_ref
        se = np.hypot(new.std(ddof=1), old.std(ddof=1)) / np.sqrt(P)
        assert abs(new.mean() - old.mean()) <= 4.0 * se, f_name


def _nan_direction(model):
    """``model`` with every direction callback NaN; sigma is untouched."""
    def nan_like(callback):
        return lambda x, v: np.full(np.shape(callback(x, v)), np.nan)

    fields = {"grad_sigma": nan_like(model.grad_sigma)}
    if model.scalar_identity:
        fields["grad_sigma_scalar"] = nan_like(model.grad_sigma_scalar)
    if model.kind is ModelKind.EXTENDED:
        fields["grad_b2"] = nan_like(model.grad_b2)
    return replace(model, name=model.name + "+nan_direction", **fields)


@pytest.mark.parametrize("name", ["power_law", "tilted_matrix", "extended_demo"])
def test_nonfinite_direction_callback_leaves_the_terminal_mask_alone(name):
    # the FD and semigroup-value panels read only terminal states: a path with a
    # finite sigma is valid there, while the weight panel, which needs the
    # derivative, counts it invalid
    model = _nan_direction(SPLIT_MODELS[name])
    z0 = np.ones(model.m + model.d)
    grid = TimeGrid(1.0, 20)
    idx = np.arange(300)
    drawn = noise(model, grid, 7, idx)
    full = simulate_batch(model, z0[:model.m], z0[model.m:], grid, drawn)
    _, _, valid = simulate_terminal_batch(model, z0[:model.m], z0[model.m:], grid, drawn)
    assert not full.valid.any()
    assert valid.all()

    f = Observable(name="sum", eval=lambda z: z.sum(axis=-1))
    ey = Direction.make(np.zeros(model.m), np.eye(model.d)[0])
    fd = fd_panel(model, z0, 1.0, [f], [ey], 300, 20, 7)[("grad_fd", "sum", 0)]
    pt = pt_panel(model, [z0], 1.0, [f], 300, 20, 7)[("pt", "sum", 0)]
    assert fd.n_invalid == 0 and pt.n_invalid == 0
    with pytest.raises(EstimationError):
        bismut_panel(model, z0, 1.0, [f], [ey], 300, 20, 7)


# ---------------------------------------------------------------------------
# the linear family: Karhunen-Loeve modes in place of the walk
# ---------------------------------------------------------------------------

def _exact_covariance(T):
    """Cov(B_T, int_0^T B dt, int_0^T ((T-t)/T) B_t dt)."""
    return np.array([[T, T**2 / 2, T**2 / 6],
                     [T**2 / 2, T**3 / 3, T**3 / 8],
                     [T**2 / 6, T**3 / 8, T**3 / 20]])


@pytest.mark.parametrize("T", [0.25, 1.0, 1.7])
def test_kl_head_and_tail_reproduce_the_exact_covariance(T):
    # no Monte Carlo: (B_T, int B, int (T-t)/T B) are linear in the K + 3
    # normals of a path, so over the K + 3 unit vectors (a path each) their
    # outer products sum to their covariance; int_0^T B^2, which the kernel
    # reads as Q_T at x0 = 0, is a diagonal quadratic form in them plus a
    # constant, with mean Q(0) + sum_i (Q(e_i) - Q(0)) = T^2 / 2.  The kernel
    # gives B_T and, at x0 = 0, the trace term C = int (T-t)/T B dt
    n = KL_MODES + 3
    unit = np.concatenate([np.eye(n), np.zeros((1, n))])[:, :, None]   # last row: 0
    batch = simulate_batch(LINEAR, [0.0], [0.0], TimeGrid(T, 2),
                           Noise(None, np.zeros((n + 1, 1)), unit))
    linear = np.stack([batch.b_final[:, 0], T**1.5 * kl_functionals(unit).mean[:, 0],
                       batch.trace_integral[:, 0, 0, 0]], axis=1)
    assert np.array_equal(linear[n], np.zeros(3))
    want = _exact_covariance(T)
    got = linear[:n].T @ linear[:n]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    quad = batch.q_matrix[:, 0, 0]
    mean_square = quad[n] + np.sum(quad[:n] - quad[n])
    assert abs(mean_square - T**2 / 2) <= 1e-12 * T**2 / 2
    assert batch.valid.all() and (quad > 0.0).all()


def _head_walk(modes, n):
    """The standard increments (P, n, m) of the K-mode head of the modes'
    Brownian motions, sum_k xi_k sqrt(2) sin(omega_k t) / omega_k on [0, 1],
    sampled at n + 1 nodes: a smooth path, which a kernel scales to [0, T] as
    it scales any walk."""
    omega = (np.arange(1, KL_MODES + 1) - 0.5) * np.pi
    basis = np.sqrt(2.0) * np.sin(np.outer(omega, np.linspace(0.0, 1.0, n + 1))) / omega[:, None]
    head = np.einsum("pkm,kn->pnm", modes[:, :KL_MODES], basis)       # (P, n + 1, m)
    return np.diff(head, axis=1) * np.sqrt(n)


@pytest.mark.parametrize("K", [2, 100])
@pytest.mark.parametrize("T", [0.25, 0.7, 4.0])
def test_linear_kernel_is_the_general_scalar_kernel(T, K):
    # the linear kernel reads no step: on grids of K = 2 and 100 steps it gives
    # the same bits.  With the three tail normals at 0 its B is the K-mode head
    # path, a smooth function; the general scalar kernel, sigma(x) = x through
    # its callbacks, on that path at n = 20,000 steps agrees with it to O(1/n):
    # within 1e-3 of max |value|, Q_T once the tail's unexplained variance
    # T^2 tau (the linear kernel's conditional mean of int B^2 beyond the
    # head) is taken off
    idx, n = np.arange(20), 20_000
    modes = standard_modes(37, idx, 1)
    modes[:, KL_MODES:] = 0.0
    zeta = PathStreams(37, substream=1).fill_normals(idx, (1,))
    tau = paths._kl_weights(KL_MODES)[2]
    general = SPLIT_MODELS["power_law"]
    assert LINEAR.family is Family.LINEAR and general.family is None
    for x0 in (-2.0, 0.0, 0.3, 1.5):
        start = ([x0], [0.4])
        fast = simulate_batch(LINEAR, *start, TimeGrid(T, K), Noise(None, zeta, modes))
        again = simulate_batch(LINEAR, *start, TimeGrid(T, 3), Noise(None, zeta, modes))
        assert fast.valid.all()
        for f in fields(PathBatch):
            assert np.array_equal(getattr(fast, f.name), getattr(again, f.name)), f.name
        slow = simulate_batch(general, *start, TimeGrid(T, n), Noise(_head_walk(modes, n), zeta))
        np.testing.assert_allclose(fast.b_final, slow.b_final, rtol=0, atol=1e-12 * np.sqrt(T))
        assert np.array_equal(fast.x_final, x0 + fast.b_final)
        assert np.array_equal(fast.xi_drift_weight, fast.b_final / T)
        for got, want in ((fast.q_matrix - T**2 * tau, slow.q_matrix),
                          (fast.trace_integral, slow.trace_integral)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-3 * np.abs(want).max())
        # the terminal kernel keeps every bit of the full one, as for any model
        x_final, y_final, valid = simulate_terminal_batch(LINEAR, *start, TimeGrid(T, K),
                                                          Noise(None, zeta, modes))
        assert np.array_equal(x_final, fast.x_final)
        assert np.array_equal(y_final, fast.y_final)
        assert np.array_equal(valid, fast.valid)


def test_quadratic_integral_of_the_kl_functionals_is_the_path_integral():
    # at n = 1 a Lemma 3.1 point, and the linear kernel's Q_T, read the mean
    # and spread of the KL functionals in place of the path: with the tail
    # normals at 0, on every row of the default grid (x = 0 and s = x /
    # sqrt(T) = 4 included) and at m = 2, T (|x + sqrt(T) m|^2 + T v) less the
    # tail's unexplained variance T^2 tau per coordinate is the left-point
    # path integral of the head path at n = 20,000 steps, within 1e-3
    n = 20_000
    tau = paths._kl_weights(KL_MODES)[2]
    for m in (1, 2):
        modes = standard_modes(67, np.arange(40), m)
        modes[:, KL_MODES:] = 0.0
        walk = standard_walk(_head_walk(modes, n))
        functionals = kl_functionals(modes)
        assert (functionals.spread >= m * tau).all()
        for T, x in (*DEFAULT_CALIBRATION_GRID, *DEFAULT_HOLDOUT_GRID):
            for xv in {(x,) + (0.0,) * (m - 1), (x,) + (0.5,) * (m - 1)}:
                xv = np.array(xv)
                quad = quadratic_integral(xv, T, functionals) - m * T**2 * tau
                path = _path_integral(xv, TimeGrid(T, n), walk, 1.0)
                np.testing.assert_allclose(quad, path, rtol=1e-3, atol=0.0)


def _at_offset(modes, offset):
    """A copy of ``modes`` that starts ``offset`` float64 entries into a larger
    buffer, so its data sits 8 * offset bytes past the buffer's alignment."""
    buffer = np.empty(modes.size + offset)
    shifted = buffer[offset:].reshape(modes.shape)
    shifted[...] = modes
    return shifted


@pytest.mark.parametrize("m", [1, 2])
def test_kl_functionals_of_a_row_alone_equal_the_row_in_any_batch(m):
    # every row computed alone gives the bits of the same row in batches of
    # 1, 255, 256, 257 and 6,656 rows (a 6,656-row tile and the 256-path
    # blocks of the draw), also when the modes sit 8 bytes into a buffer:
    # at m = 1 the function contracts that buffer in place, without a copy
    drawn = standard_modes(71, np.arange(6656), m)
    for offset in (0, 1):
        modes = _at_offset(drawn, offset)
        alone = [kl_functionals(modes[p:p + 1]) for p in range(len(modes))]
        want = KLFunctionals(*(np.concatenate(f) for f in zip(*alone)))
        for P in (1, 255, 256, 257, 6656):
            got = [kl_functionals(modes[s:s + P]) for s in range(0, len(modes), P)]
            for name, value in zip(KLFunctionals._fields, zip(*got)):
                assert np.array_equal(np.concatenate(value), getattr(want, name)), \
                    (name, P, offset)


@pytest.mark.parametrize("m", [1, 2])
def test_kl_functionals_are_the_exact_sums_of_their_terms(m):
    # on 200 rows, (B_1, m, u) against math.fsum of their per-mode terms, and
    # int B^2, which the output carries as v = sum_i (int B_i^2 - m_i^2),
    # through v against math.fsum of the terms of every int B_i^2 (tau one of
    # them) and every -m_i^2: each within 8 ulp of the sum of |terms|
    weights, quad, tau = paths._kl_weights(KL_MODES)
    modes = standard_modes(73, np.arange(200), m)
    got = kl_functionals(modes)
    linear = np.stack([got.end, got.mean, got.decay], axis=-1)       # (P, m, 3)
    for p in range(len(modes)):
        spread_terms = []
        for i in range(m):
            x = modes[p, :, i]
            for j in range(3):
                terms = x * weights[j]
                assert abs(linear[p, i, j] - math.fsum(terms)) \
                    <= 8 * np.spacing(math.fsum(np.abs(terms))), (p, i, j)
            spread_terms += [*(x * x * quad), tau, -got.mean[p, i] * got.mean[p, i]]
        assert abs(got.spread[p] - math.fsum(spread_terms)) \
            <= 8 * np.spacing(math.fsum(np.abs(spread_terms))), p


def _outputs(result):
    """A kernel's result by field name: a ``PathBatch``, or the terminal triple."""
    if isinstance(result, PathBatch):
        return {f.name: getattr(result, f.name) for f in fields(result)}
    return dict(zip(("x_final", "y_final", "valid"), result))


@pytest.mark.parametrize("kernel", [simulate_batch, simulate_terminal_batch])
def test_linear_path_alone_equals_the_path_in_a_batch(kernel):
    # 1,280 paths are one tile of a K = 100 panel; each KL functional is one
    # einsum contraction per row over its modes, with no product across rows
    # and no BLAS, so no row's bits depend on its position or on the batch
    starts = [(-2.0, 0.7), (0.3, 0.25), (1.5, 4.0)]
    batches = {P: noise(LINEAR, TimeGrid(1.0, 100), 53, np.arange(P)) for P in (700, 1280)}
    for i in (0, 255, 256, 699):
        alone = noise(LINEAR, TimeGrid(1.0, 100), 53, [i])
        for x0, T in starts:
            grid = TimeGrid(T, 100)
            one = _outputs(kernel(LINEAR, [x0], [0.4], grid, alone))
            for P, drawn in batches.items():
                many = _outputs(kernel(LINEAR, [x0], [0.4], grid, drawn))
                for name, value in one.items():
                    assert np.array_equal(value[0], many[name][i]), (name, P, i, x0, T)


def test_each_linear_point_of_bismut_panels_is_its_one_point_panel():
    # the three horizons scale the tile's one set of KL functionals; every
    # point is its one-point panel bit for bit
    fs = [observable("sin_y", LINEAR), observable("y_squared", LINEAR)]
    vs = [Direction.make(1.0, 0.0), Direction.make(0.0, 1.0)]
    points = [([1.0, 0.5], 0.3), ([0.0, 0.0], 0.7), ([-1.5, 0.2], 1.0)]
    panels = bismut_panels(LINEAR, points, fs, vs, 1100, 100, 59, batch_size=700)
    for (z0, T), panel in zip(points, panels):
        assert panel == bismut_panel(LINEAR, z0, T, fs, vs, 1100, 100, 59)


def test_a_linear_noise_computes_its_kl_functionals_once(monkeypatch):
    # the functionals once per linear noise, whatever the points and horizons
    # read on it, and no walk; sigma(x) = x through its callbacks builds its
    # walk once per noise instead
    calls = {"kl_functionals": 0, "standard_walk": 0}
    for name in calls:
        def counting(*args, _real=getattr(paths, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(paths, name, counting)
    for model in (LINEAR, SPLIT_MODELS["power_law"]):
        drawn = noise(model, TimeGrid(1.0, 50), 61, np.arange(300))
        for x0, T in ((1.0, 1.0), (-0.5, 0.5), (0.3, 0.7), (2.0, 0.7)):
            simulate_terminal_batch(model, [x0], [0.0], TimeGrid(T, 50), drawn)
            simulate_batch(model, [x0], [0.0], TimeGrid(T, 50), drawn)
        assert calls == ({"kl_functionals": 1, "standard_walk": 0} if model is LINEAR
                         else {"kl_functionals": 1, "standard_walk": 1})


def test_kl_weights_refuse_a_mode_count_whose_tail_loses_its_sign():
    # the tail constants are full sums less the K-term head: at KL_MODES = 16
    # every tail weight and tau are positive, while at K = 64 the differences
    # have lost their digits (a tail weight near -1.5e-4), so the forms, and
    # kl_functionals of a (P, 67, m) array, refuse that K
    _, quad, tau = paths._kl_weights(KL_MODES)
    assert (quad > 0).all() and tau > 0
    with pytest.raises(ValueError, match="tail weight"):
        paths._kl_weights(64)
    with pytest.raises(ValueError, match="tail weight"):
        kl_functionals(np.zeros((2, 64 + 3, 1)))
