"""Weight assembly: collapse cases, linearity, reduction identity, centering."""

from dataclasses import replace

import numpy as np
import pytest

from gruschin.estimators import estimate_gradient_bismut, pairwise_sum
from gruschin.models import (
    Direction,
    ModelKind,
    ModelSpec,
    as_extended,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    observable,
)
from gruschin.paths import (
    Noise,
    TimeGrid,
    simulate_basic_batch,
    simulate_extended_batch,
    standard_noise,
)
from gruschin.weights import weight_terms_shared

V11 = Direction.make(1.0, 1.0)
GRID = TimeGrid(1.0, 100)


def noise(model, grid, seed, idx):
    """The ``Noise`` of paths ``idx`` under ``seed``, as the estimators draw it."""
    return standard_noise(seed, idx, grid.n_steps, model)


def weight(batch, v):
    drift, trace, inner, _ = weight_terms_shared(batch, v)
    return drift + trace + inner


def test_constant_sigma_collapses_to_brownian_weight():
    model = make_constant_identity_model()
    pf = simulate_basic_batch(model, [0.0], [0.0], GRID, noise(model, GRID, 2, [0]))
    _, trace, _, _ = weight_terms_shared(pf, V11)
    assert trace[0] == 0.0
    expected = pf.b_final[0, 0] + pf.sigma_stoch_integral[0, 0]
    assert weight(pf, V11)[0] == pytest.approx(expected, abs=1e-14)


def test_zero_direction_gives_zero_weight():
    model = make_power_law_model(1, 1, 1.0)
    v0 = Direction.make(0.0, 0.0)
    pf = simulate_basic_batch(model, [1.0], [0.0], GRID, noise(model, GRID, 5, [1]))
    assert weight(pf, v0)[0] == 0.0


def test_breakdown_sums_exactly():
    # the weight the estimators average is exactly the sum of the three terms
    model = make_power_law_model(1, 1, 1.0)
    batch = simulate_basic_batch(model, [1.0], [0.0], GRID,
                                 noise(model, GRID, 5, np.arange(64)))
    drift, trace, inner, ok = weight_terms_shared(batch, V11)
    est = estimate_gradient_bismut(model, observable("one", model), [1.0, 0.0], V11, 1.0,
                                   64, 100, 5)
    assert ok.all()
    assert est.mean == pairwise_sum(drift + trace + inner) / 64


def test_weight_linear_in_direction_on_fixed_noise():
    model = make_power_law_model(1, 1, 1.0)
    u = Direction.make(0.6, -1.1)
    w_dir = Direction.make(-0.4, 0.9)
    both = Direction(u.v1 + w_dir.v1, u.v2 + w_dir.v2)
    for i in range(25):
        batch = simulate_basic_batch(model, [1.0], [0.0], GRID, noise(model, GRID, 7, [i]))
        m_u, m_w, m_b = (weight(batch, d)[0] for d in (u, w_dir, both))
        assert m_b == pytest.approx(m_u + m_w, rel=1e-10, abs=1e-12)


def test_extended_weight_linear_in_direction():
    model = make_extended_demo_model()
    u = Direction.make(0.6, -1.1)
    w_dir = Direction.make(-0.4, 0.9)
    both = Direction(u.v1 + w_dir.v1, u.v2 + w_dir.v2)
    for i in range(15):
        batch = simulate_extended_batch(model, [1.0], [0.0], GRID, noise(model, GRID, 9, [i]))
        m_u, m_w, m_b = (weight(batch, d)[0] for d in (u, w_dir, both))
        assert m_b == pytest.approx(m_u + m_w, rel=1e-10, abs=1e-12)


def test_extended_reduction_matches_basic_weight():
    # on one walk: the basic side runs sigma(x) = x through its callbacks
    model = replace(make_power_law_model(1, 1, 1.0), family=None)
    ext = as_extended(model)
    for i in range(50):
        pfb = simulate_basic_batch(model, [1.0], [0.0], GRID, noise(model, GRID, 11, [i]))
        pfe = simulate_extended_batch(ext, [1.0], [0.0], GRID, noise(ext, GRID, 11, [i]))
        assert abs(weight(pfb, V11)[0] - weight(pfe, V11)[0]) <= 1e-12


def test_extended_constant_coefficients_collapse():
    # sigma1 = I, b = 0, sigma2 = I: M = <v1,B_T>/T + <v2,S>/T with S = Bt_T in law
    ext = as_extended(make_constant_identity_model())
    pf = simulate_extended_batch(ext, [0.0], [0.0], GRID, noise(ext, GRID, 13, [3]))
    expected = pf.b_final[0, 0] + pf.sigma_stoch_integral[0, 0]
    assert weight(pf, V11)[0] == pytest.approx(expected, abs=1e-12)


def test_weight_mean_is_centered():
    model = make_power_law_model(1, 1, 1.0)
    batch = simulate_basic_batch(model, [1.0], [0.0], GRID,
                                 noise(model, GRID, 17, np.arange(100000)))
    drift, trace, inner, ok = weight_terms_shared(batch, V11)
    m = drift + trace + inner
    assert ok.all()
    mean = m.mean()
    stderr = m.std(ddof=1) / np.sqrt(len(m))
    assert abs(mean) <= 4.0 * stderr


def test_invalid_path_error_carries_min_eig():
    def zero(x):
        return np.zeros(np.asarray(x).shape[:-1])

    degenerate = ModelSpec(m=1, d=1, kind=ModelKind.BASIC,
                           sigma=lambda x: zero(x)[..., None, None],
                           grad_sigma=lambda x, v: zero(x)[..., None, None],
                           sigma_scalar=zero,
                           grad_sigma_scalar=lambda x, v: zero(x),
                           name="identically_degenerate")
    pf = simulate_basic_batch(degenerate, [1.0], [0.0], GRID,
                              noise(degenerate, GRID, 19, [0]))
    drift, trace, inner, solvable = weight_terms_shared(pf, V11)
    assert not solvable[0]  # counted as invalid, never regularized away
    assert np.isnan(drift[0] + trace[0] + inner[0])
    assert pf.min_eig_q[0] == 0.0


def test_relabeling_symmetry():
    # permuting the components of zeta, the noise of Y, permutes S but leaves
    # each weight term invariant
    model = make_power_law_model(1, 2, 1.0)
    grid = TimeGrid(1.0, 64)
    idx = np.arange(64)
    v = Direction.make([1.0], [0.3, 0.3])
    drawn = noise(model, grid, 29, idx)
    a = simulate_basic_batch(model, [1.0], [0.0, 0.0], grid, drawn)
    b = simulate_basic_batch(model, [1.0], [0.0, 0.0], grid,
                             Noise(drawn.eps, drawn.zeta[:, ::-1].copy()))
    da, ta, ia, _ = weight_terms_shared(a, v)
    db_, tb, ib, _ = weight_terms_shared(b, v)
    assert np.array_equal(ta, tb)           # trace term has no zeta dependence
    assert np.allclose(ia, ib, rtol=1e-12)  # symmetric v2 makes the inner term invariant
    assert np.array_equal(da, db_)
