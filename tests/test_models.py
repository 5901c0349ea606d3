"""Coefficient fields, declared families, and observables with their closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gruschin.models import (
    Direction,
    Family,
    ModelKind,
    ModelSpec,
    PowerParams,
    TEST_FUNCTION_NAMES,
    as_extended,
    builtin_model,
    make_extended_demo_model,
    make_power_law_model,
    observable,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_power_law_value_l1():
    model = make_power_law_model(1, 1, 1.0)
    assert model.sigma(np.array([2.0]))[0, 0] == 2.0


def test_power_law_degenerate_origin():
    model = make_power_law_model(2, 1, 2.0)
    x0 = np.zeros(2)
    assert np.all(model.sigma(x0) == 0.0)
    assert np.all(model.grad_sigma(x0, np.array([1.0, -1.0])) == 0.0)


def test_power_law_grad_matches_finite_difference():
    model = make_power_law_model(1, 1, 3.0)
    x, v, h = np.array([1.5]), np.array([1.0]), 1e-6
    analytic = model.grad_sigma(x, v)[0, 0]
    assert analytic == pytest.approx(6.75, abs=1e-12)
    fd = (model.sigma(x + h * v)[0, 0] - model.sigma(x - h * v)[0, 0]) / (2 * h)
    assert analytic == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("l", [1.0, 1.5, 2.0])
def test_power_law_grad_along_an_axis_is_the_product_and_sum_reference(l):
    # m > 1: one (m,) direction takes a matrix-vector product, (P, m)
    # directions the broadcast product and sum; both give the reference bits
    model = make_power_law_model(3, 1, l)
    x = np.random.default_rng(5).standard_normal((64, 10, 3))
    x[0, 0] = 0.0
    r = np.linalg.norm(x, axis=-1)

    def reference(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = l * r ** (l - 2.0) * np.sum(x * v, axis=-1)
        return np.where(r == 0.0, 0.0, out)

    for e in np.eye(3):
        assert model.grad_sigma_scalar(x, e).tobytes() == reference(e).tobytes()
    rows = np.random.default_rng(6).standard_normal((64, 1, 3))
    assert model.grad_sigma_scalar(x, rows).tobytes() == reference(rows).tobytes()


def test_power_law_rejects_small_exponent():
    with pytest.raises(ValueError):
        make_power_law_model(1, 1, 0.5)


def test_power_law_noninteger_exponent_falls_back_to_abs():
    model = make_power_law_model(1, 1, 1.5)
    assert model.sigma(np.array([-2.0]))[0, 0] == pytest.approx(2.0**1.5)
    # derivative convention at the nonsmooth origin
    assert model.grad_sigma(np.array([0.0]), np.array([1.0]))[0, 0] == 0.0
    got = model.grad_sigma(np.array([-1.0]), np.array([1.0]))[0, 0]
    assert got == pytest.approx(-1.5)


@given(a=finite, b=finite, u=finite, w=finite, x=finite)
@settings(max_examples=200, deadline=None)
def test_grad_sigma_linear_in_direction(a, b, u, w, x):
    model = make_power_law_model(1, 1, 2.0)
    pt = np.array([x])
    left = model.grad_sigma(pt, np.array([a * u + b * w]))[0, 0]
    right = (a * model.grad_sigma(pt, np.array([u]))[0, 0]
             + b * model.grad_sigma(pt, np.array([w]))[0, 0])
    assert left == pytest.approx(right, abs=1e-9 * (1 + abs(left)))


GRADIENT_CALLBACKS = ("grad_sigma", "grad_sigma_scalar", "grad_sigma1", "grad_b1", "grad_b2")
LINEARITY_MODELS = {
    "power_law(1,1,1)": make_power_law_model(1, 1, 1.0),
    "power_law(1,1,2)": make_power_law_model(1, 1, 2.0),
    "power_law(1,2,1.5)": make_power_law_model(1, 2, 1.5),
    "power_law(2,1,1)": make_power_law_model(2, 1, 1.0),
    "power_law(3,2,2.5)": make_power_law_model(3, 2, 2.5),
    "constant_identity(2,2)": builtin_model("constant_identity", 2, 2),
    "extended_demo": make_extended_demo_model(),
    "tilted_matrix": builtin_model("tilted_matrix"),
    "as_extended(power_law(2,1,1.5))": as_extended(make_power_law_model(2, 1, 1.5)),
    "as_extended(tilted_matrix)": as_extended(builtin_model("tilted_matrix")),
}


@pytest.mark.parametrize("name", sorted(LINEARITY_MODELS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_gradient_callback_is_linear_in_its_direction(name, data):
    # the extended kernel reads a gradient along xi as sum_j xi_j (gradient
    # along e_j), and every kernel calls the callbacks along the axes alone
    model = LINEARITY_MODELS[name]
    m = model.m
    vector = st.lists(finite, min_size=m, max_size=m).map(np.array)
    x = np.stack([data.draw(vector) for _ in range(3)])          # (3, m) points
    u, w = data.draw(vector), data.draw(vector)
    a, b = data.draw(finite), data.draw(finite)
    callbacks = [c for c in GRADIENT_CALLBACKS if getattr(model, c) is not None]
    assert "grad_sigma" in callbacks
    for callback in callbacks:
        f = getattr(model, callback)
        left = np.asarray(f(x, a * u + b * w), dtype=float)
        right = a * np.asarray(f(x, u), dtype=float) + b * np.asarray(f(x, w), dtype=float)
        scale = 1.0 + np.abs(a * np.asarray(f(x, u))) + np.abs(b * np.asarray(f(x, w)))
        assert left.shape == right.shape, callback
        assert np.all(np.abs(left - right) <= 1e-12 * scale), callback


def test_extended_demo_sigma1_inverse_bounded():
    model = make_extended_demo_model()
    xs = np.linspace(-5, 5, 101)[:, None]
    s1 = model.sigma1(xs)[:, 0, 0]
    assert np.all(np.abs(1.0 / s1) <= 4.0 / 3.0 + 1e-12)


# |x| <= 1e6 on a grid, finer near 0, with the signed zeros, +-pi, 1e300 and
# two subnormals
DEMO_TRIG_INPUTS = np.concatenate([
    np.linspace(-1e6, 1e6, 100_001), np.linspace(-10.0, 10.0, 20_001),
    [0.0, -0.0, np.pi, -np.pi, 1e300, 5e-324, -1e-310],
])


def test_extended_demo_drift_sine_is_within_4_ulp_of_numpys():
    # b2 = 0.5 sin x from t = tan(x/2); the spacing of 0 is the smallest
    # subnormal, the absolute floor of the bound
    x = DEMO_TRIG_INPUTS
    ref = 0.5 * np.sin(x)
    got = make_extended_demo_model().b2(x[:, None])[:, 0]
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(np.abs(ref)))
    assert np.array_equal(np.signbit(got[ref == 0.0]), np.signbit(ref[ref == 0.0]))


def test_extended_demo_drift_cosine_is_within_2_to_minus_52_of_numpys():
    x = DEMO_TRIG_INPUTS
    got = make_extended_demo_model().grad_b2(x[:, None], np.ones(1))[:, 0]
    assert np.all(np.abs(got - 0.5 * np.cos(x)) <= 2.0 ** -52)


@pytest.mark.parametrize("callback", ["b2", "grad_b2"])
def test_extended_demo_drift_signals_infinity_and_passes_nan_as_np_sin_does(callback):
    model = make_extended_demo_model()
    args = (np.ones(1),) if callback == "grad_b2" else ()
    f = getattr(model, callback)
    for inf in (np.inf, -np.inf):
        with np.errstate(invalid="ignore"):
            assert np.isnan(f(np.array([[inf]]), *args)).all()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            f(np.array([[inf]]), *args)
    with np.errstate(invalid="raise"):
        assert np.isnan(f(np.array([[np.nan]]), *args)).all()


def test_as_extended_requires_basic():
    with pytest.raises(ValueError):
        as_extended(make_extended_demo_model())
    ext = as_extended(make_power_law_model(1, 1, 1.0))
    assert ext.kind is ModelKind.EXTENDED


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def test_closed_form_grad_consistent_with_closed_form_pt():
    model = make_power_law_model(1, 1, 1.0)
    h = 1e-6
    for name in ("sin_y", "y_squared", "sin_x"):
        f = observable(name, model)
        if f.closed_form_pt is None or f.closed_form_grad_pt is None:
            continue
        T, x, y = 0.8, 1.3, -0.4
        g = np.asarray(f.closed_form_grad_pt(T, np.array([x]), np.array([y])), dtype=float)
        fd_x = (f.closed_form_pt(T, np.array([x + h]), np.array([y]))
                - f.closed_form_pt(T, np.array([x - h]), np.array([y]))) / (2 * h)
        fd_y = (f.closed_form_pt(T, np.array([x]), np.array([y + h]))
                - f.closed_form_pt(T, np.array([x]), np.array([y - h]))) / (2 * h)
        assert g[0] == pytest.approx(float(fd_x), rel=1e-6, abs=1e-8)
        assert g[1] == pytest.approx(float(fd_y), rel=1e-6, abs=1e-8)


# which closed forms each builtin attaches, per observable in TEST_FUNCTION_NAMES
# order: "P" when closed_form_pt is set, "G" when closed_form_grad_pt is set
CLOSED_FORM_TABLE = {
    ("power_law", 1, 1, 1.0): "P- PG P- PG -- -- PG PG --",
    ("power_law", 1, 1, 2.0): "P- PG P- -- -- -- -- PG --",
    ("power_law", 2, 1, 1.0): "P- -- -- -- -- -- -- PG --",
    ("power_law", 1, 2, 1.0): "P- PG P- -- -- -- -- PG --",
    ("constant_identity", 1, 1, 1.0): "P- PG P- P- -- -- PG PG --",
    ("constant_identity", 2, 1, 1.0): "P- -- -- -- -- -- PG PG --",
    ("constant_identity", 1, 2, 1.0): "P- PG P- -- -- -- -- PG --",
    ("extended_demo", 1, 1, 1.0): "P- -- -- -- -- -- -- -- --",
    ("tilted_matrix", 1, 2, 1.0): "P- PG P- -- -- -- -- PG --",
}

# as_extended of each basic builtin: X and Y keep their laws, but only the
# sigma = I forms and the constant one are attached to an extended model
CLOSED_FORM_TABLE_EXTENDED = {
    ("power_law", 1, 1, 1.0): "P- -- -- -- -- -- -- -- --",
    ("power_law", 1, 1, 2.0): "P- -- -- -- -- -- -- -- --",
    ("power_law", 2, 1, 1.0): "P- -- -- -- -- -- -- -- --",
    ("power_law", 1, 2, 1.0): "P- -- -- -- -- -- -- -- --",
    ("constant_identity", 1, 1, 1.0): "P- -- -- P- -- -- PG -- --",
    ("constant_identity", 2, 1, 1.0): "P- -- -- -- -- -- PG -- --",
    ("constant_identity", 1, 2, 1.0): "P- -- -- -- -- -- -- -- --",
    ("tilted_matrix", 1, 2, 1.0): "P- -- -- -- -- -- -- -- --",
}


def _spec_id(spec) -> str:
    return "-".join(f"{c:g}" if isinstance(c, float) else str(c) for c in spec)


def _closed_form_row(model) -> str:
    codes = []
    for name in TEST_FUNCTION_NAMES:
        f = observable(name, model)
        codes.append(("P" if f.closed_form_pt is not None else "-")
                     + ("G" if f.closed_form_grad_pt is not None else "-"))
    return " ".join(codes)


@pytest.mark.parametrize("spec", list(CLOSED_FORM_TABLE), ids=_spec_id)
def test_closed_form_table_of_builtins(spec):
    model = builtin_model(*spec)
    assert _closed_form_row(model) == CLOSED_FORM_TABLE[spec]
    if model.kind is ModelKind.BASIC:
        assert _closed_form_row(as_extended(model)) == CLOSED_FORM_TABLE_EXTENDED[spec]
    else:
        assert spec not in CLOSED_FORM_TABLE_EXTENDED


@pytest.mark.parametrize("spec,family", [
    (("power_law", 1, 1, 1.0), Family.LINEAR),
    (("power_law", 1, 1, 2.0), None),
    (("power_law", 2, 1, 1.0), None),
    (("power_law", 1, 2, 1.0), None),
    (("constant_identity", 1, 1, 1.0), Family.HEAT),
    (("constant_identity", 2, 3, 1.0), Family.HEAT),
    (("extended_demo", 1, 1, 1.0), None),
    (("tilted_matrix", 1, 2, 1.0), None),
], ids=lambda p: _spec_id(p) if isinstance(p, tuple) else str(p))
def test_builtins_declare_their_family(spec, family):
    model = builtin_model(*spec)
    assert model.family is family
    if model.kind is ModelKind.BASIC:
        assert as_extended(model).family is family


@pytest.mark.parametrize("spec", [("power_law", 2, 1, 1.0), ("power_law", 1, 2, 1.0),
                                  ("constant_identity", 3, 3, 1.0)], ids=_spec_id)
def test_linear_family_is_refused_unless_m_and_d_are_one(spec):
    # the basic kernel reads LINEAR as the scalar sigma(x) = x of m = d = 1
    model = builtin_model(*spec)
    with pytest.raises(ValueError, match="LINEAR"):
        replace(model, family=Family.LINEAR)
    with pytest.raises(ValueError, match="LINEAR"):
        replace(as_extended(model), family=Family.LINEAR)


def test_power_law_lookalike_gets_no_linear_closed_forms():
    # sigma(x) = 2x is not the linear family, whatever the model is called
    def s(x):
        return 2.0 * np.asarray(x)[..., 0]

    def ds(x, v):
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        return np.broadcast_to(2.0 * vv, np.asarray(x).shape[:-1])

    doubled = ModelSpec(m=1, d=1, kind=ModelKind.BASIC,
                        sigma=lambda x: s(x)[..., None, None],
                        grad_sigma=lambda x, v: ds(x, v)[..., None, None],
                        sigma_scalar=s, grad_sigma_scalar=ds,
                        power_params=PowerParams(a=2.0, b=4.0, l=1.0),
                        name="power_law_doubled")
    for name in ("sin_y", "y_squared"):
        f = observable(name, doubled)
        assert f.closed_form_pt is None and f.closed_form_grad_pt is None, name


@pytest.mark.parametrize("spec", [("power_law", 1, 1, 1.0), ("constant_identity", 1, 1, 1.0)],
                         ids=_spec_id)
def test_renamed_model_keeps_its_closed_forms(spec):
    renamed = replace(builtin_model(*spec), name="my_model")
    assert _closed_form_row(renamed) == CLOSED_FORM_TABLE[spec]
    assert _closed_form_row(as_extended(renamed)) == CLOSED_FORM_TABLE_EXTENDED[spec]


def test_direction_validation():
    d = Direction.make([1.0, 0.0], [0.0])
    assert d.v1.shape == (2,)
    with pytest.raises(ValueError):
        Direction.make([np.inf], [0.0])
    zero = Direction.make([0.0], [0.0])  # zero direction is legal
    assert np.all(zero.v1 == 0.0)
