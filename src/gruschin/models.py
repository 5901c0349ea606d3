"""Coefficient fields of the degenerate diffusion, their declared families, and test observables.

The basic model is the system

    dX_t = dB_t            (X in R^m),
    dY_t = sigma(X_t) dBt_t  (Y in R^d),

whose generator is (1/2)(Delta_x + sum_jk (sigma sigma^*)_jk d_yj d_yk).  The extended
model replaces the X-equation by a uniformly elliptic diffusion and adds drifts:

    dX_t = sigma1(X_t) dB_t + b1(X_t) dt,
    dY_t = sigma2(X_t) dBt_t + b2(X_t) dt.

Coefficient closures are vectorized: they accept points of shape (..., m) and return
(..., d, d) matrices (or (...,) scalars for the scalar-times-identity fast forms).
Directional derivatives accept a direction of shape (m,) or broadcastable (..., m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .oracles import quadratic_laplace

__all__ = [
    "ModelKind",
    "Family",
    "PowerParams",
    "Direction",
    "ModelSpec",
    "TestFunction",
    "make_power_law_model",
    "make_constant_identity_model",
    "make_extended_demo_model",
    "make_tilted_matrix_model",
    "as_extended",
    "builtin_model",
    "BUILTIN_MODELS",
    "observable",
    "bounded_suite",
    "crosscheck_suite",
    "TEST_FUNCTION_NAMES",
]

Array = np.ndarray


class ModelKind(enum.Enum):
    BASIC = "basic"
    EXTENDED = "extended"


class Family(enum.Enum):
    """A diffusion whose laws are known in closed form.

    HEAT: sigma = I, so (X, Y) is a Brownian motion and the intrinsic distance
    is Euclidean.  LINEAR: basic, m = d = 1, sigma(x) = x (the l = 1 case of
    the power law).  A model declares its family; its name is only a label.
    """

    HEAT = "heat"
    LINEAR = "linear"


@dataclass(frozen=True)
class PowerParams:
    """Comparability constants: a*|x|^l <= ||sigma(x)|| and ||sigma|| + ||grad sigma||*|x| <= b*|x|^l."""

    a: float
    b: float
    l: float


@dataclass(frozen=True)
class Direction:
    """Differentiation direction v = (v1, v2) in R^m x R^d.  Zero is legal."""

    v1: Array
    v2: Array

    @staticmethod
    def make(v1, v2) -> "Direction":
        a1 = np.atleast_1d(np.asarray(v1, dtype=float))
        a2 = np.atleast_1d(np.asarray(v2, dtype=float))
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
            raise ValueError("direction entries must be finite")
        return Direction(a1, a2)


@dataclass(frozen=True)
class ModelSpec:
    """Coefficient fields and declared structural constants of one diffusion model.

    ``sigma``/``grad_sigma`` always refer to the diffusion matrix of the Y-equation
    (sigma2 when kind is EXTENDED).  When the matrix is scalar-times-identity the
    ``*_scalar`` closures are set and simulation uses the cheaper scalar kernel.
    ``family`` is set only when the coefficients are exactly those of a
    ``Family``; the closed forms, the exact Harnack constant and the Euclidean
    distance are read from it.  The basic kernel reads ``Family.LINEAR`` as
    sigma(x) = x on Karhunen-Loeve modes, not increments
    (``paths.standard_noise``), and calls none of the sigma closures of such
    a model, so a ``replace`` of a coefficient must also drop the family
    (``family=None``), as must a caller that wants the model on a walk.
    ``Family.LINEAR`` is refused unless m = d = 1.

    Every gradient callback -- ``grad_sigma``, ``grad_sigma_scalar``,
    ``grad_sigma1``, ``grad_b1`` and ``grad_b2`` -- is the directional
    derivative at x along v, so it must be linear in v: f(x, a u + b w) =
    a f(x, u) + b f(x, w).  The kernels call them along the coordinate axes
    e_j alone, and the extended kernel reads the derivative along its xi as
    sum_j xi_j f(x, e_j) (``paths``), so a callback that is not linear in v
    gives wrong weights, not an error.
    """

    m: int
    d: int
    kind: ModelKind
    sigma: Callable[[Array], Array]
    grad_sigma: Callable[[Array, Array], Array]
    name: str = "custom"
    sigma_scalar: Optional[Callable[[Array], Array]] = None
    grad_sigma_scalar: Optional[Callable[[Array, Array], Array]] = None
    power_params: Optional[PowerParams] = None
    family: Optional[Family] = None
    # extended-only coefficient fields
    sigma1: Optional[Callable[[Array], Array]] = None
    grad_sigma1: Optional[Callable[[Array, Array], Array]] = None
    b1: Optional[Callable[[Array], Array]] = None
    grad_b1: Optional[Callable[[Array, Array], Array]] = None
    b2: Optional[Callable[[Array], Array]] = None
    grad_b2: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("dimensions m and d must be positive")
        if self.family is Family.LINEAR and (self.m, self.d) != (1, 1):
            raise ValueError(f"family LINEAR is sigma(x) = x with m = d = 1, "
                             f"got m = {self.m}, d = {self.d}")
        if self.kind is ModelKind.EXTENDED:
            missing = [n for n in ("sigma1", "grad_sigma1", "b1", "grad_b1", "b2", "grad_b2")
                       if getattr(self, n) is None]
            if missing:
                raise ValueError(f"extended model missing coefficients: {missing}")

    @property
    def scalar_identity(self) -> bool:
        return self.sigma_scalar is not None


def _identity_lift(scalar_fn, d):
    """Lift a scalar field s(x) to the matrix field s(x) * I_d."""
    eye = np.eye(d)

    def mat(x):
        return np.asarray(scalar_fn(x))[..., None, None] * eye

    return mat


def _identity_lift_grad(dscalar_fn, d):
    eye = np.eye(d)

    def dmat(x, v):
        return np.asarray(dscalar_fn(x, v))[..., None, None] * eye

    return dmat


def _dot_last(x, v):
    """<x, v> over the last axis with v of shape (m,) or broadcastable (..., m).

    One (m,) vector, as the kernels pass along each coordinate axis, is a
    matrix-vector product, an order of magnitude faster than the elementwise
    product and sum over (P, n_steps, m) nodes; ``as_extended`` passes
    (P, m) directions, which take the broadcast form.
    """
    x, v = np.asarray(x), np.asarray(v)
    if v.ndim == 1:
        return x @ v
    return np.sum(x * v, axis=-1)


def make_power_law_model(m: int, d: int, l: float) -> ModelSpec:
    """Canonical degenerate model with sigma(x) comparable to |x|^l * I.

    For m = 1 and integer l the signed power x^l is used (smooth everywhere); for
    m > 1, or non-integer l with m = 1, sigma(x) = |x|^l * I, which is not C^1 at
    the origin when l = 1 -- the directional derivative there is set to 0.  The
    comparability constants are (a, b) = (1, 1 + l), from the exact identity
    ||sigma(x)|| + ||grad sigma(x)||*|x| = (1 + l)|x|^l.
    """
    if l < 1:
        raise ValueError(f"power exponent must satisfy l >= 1, got {l}")
    l = float(l)
    signed = m == 1 and l.is_integer()

    if signed:
        k = int(l)

        def s(x):
            return np.asarray(x)[..., 0] ** k

        def ds(x, v):
            xx = np.asarray(x)[..., 0]
            vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
            if k == 1:
                return np.broadcast_to(vv, xx.shape).astype(float)
            return k * xx ** (k - 1) * vv

    elif m == 1:
        # non-integer exponent: |x|^l, with grad := 0 at the (measure-zero) origin
        def s(x):
            return np.abs(np.asarray(x)[..., 0]) ** l

        def ds(x, v):
            xx = np.asarray(x)[..., 0]
            vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                out = l * np.abs(xx) ** (l - 1.0) * np.sign(xx) * vv
            return np.where(xx == 0.0, 0.0, out)

    else:
        def s(x):
            return np.linalg.norm(np.asarray(x), axis=-1) ** l

        def ds(x, v):
            xa = np.asarray(x)
            r = np.linalg.norm(xa, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = l * r ** (l - 2.0) * _dot_last(xa, v)
            return np.where(r == 0.0, 0.0, out)

    return ModelSpec(
        m=m,
        d=d,
        kind=ModelKind.BASIC,
        sigma=_identity_lift(s, d),
        grad_sigma=_identity_lift_grad(ds, d),
        sigma_scalar=s,
        grad_sigma_scalar=ds,
        power_params=PowerParams(a=1.0, b=1.0 + l, l=l),
        family=Family.LINEAR if (m, d, l) == (1, 1, 1.0) else None,
        name=f"power_law(m={m},d={d},l={l:g})",
    )


def make_constant_identity_model(m: int = 1, d: int = 1) -> ModelSpec:
    """Non-degenerate reference model sigma = I: both components are Brownian."""

    def s(x):
        return np.ones(np.asarray(x).shape[:-1])

    def ds(x, v):
        return np.zeros(np.asarray(x).shape[:-1])

    return ModelSpec(
        m=m,
        d=d,
        kind=ModelKind.BASIC,
        sigma=_identity_lift(s, d),
        grad_sigma=_identity_lift_grad(ds, d),
        sigma_scalar=s,
        grad_sigma_scalar=ds,
        family=Family.HEAT,
        name=f"constant_identity(m={m},d={d})",
    )


def as_extended(model: ModelSpec) -> ModelSpec:
    """Embed a basic model into the extended system with sigma1 = I, b1 = b2 = 0.

    The auxiliary process then equals v1*(T-t)/T and the extended weight reduces
    pathwise to the basic one, which the tests exploit as an exact cross-check.
    The embedding is the same diffusion, so it keeps the model's ``family``.
    """
    if model.kind is not ModelKind.BASIC:
        raise ValueError("as_extended expects a basic model")
    m = model.m

    def sigma1(x):
        shape = np.asarray(x).shape[:-1]
        return np.broadcast_to(np.eye(m), shape + (m, m)).copy()

    def zero_mat(x, v=None):
        shape = np.asarray(x).shape[:-1]
        return np.zeros(shape + (m, m))

    def zero_vec_m(x, v=None):
        shape = np.asarray(x).shape[:-1]
        return np.zeros(shape + (m,))

    def zero_vec_d(x, v=None):
        shape = np.asarray(x).shape[:-1]
        return np.zeros(shape + (model.d,))

    return replace(
        model,
        kind=ModelKind.EXTENDED,
        name=model.name + "+extended",
        sigma1=sigma1,
        grad_sigma1=zero_mat,
        b1=zero_vec_m,
        grad_b1=zero_vec_m,
        b2=zero_vec_d,
        grad_b2=zero_vec_d,
    )


def make_extended_demo_model() -> ModelSpec:
    """One-dimensional extended demo: elliptic X with bounded drift, degenerate Y.

        sigma1(x) = 1 + 0.25 tanh(x)   (invertible, ||sigma1^{-1}|| <= 4/3)
        b1(x)     = -0.3 tanh(x)
        sigma2(x) = x                  (degenerate at the origin, exponent 1)
        b2(x)     = 0.5 sin(x)

    b2 and grad_b2 = 0.5 cos(x) v are evaluated from one t = tan(x/2) per call,
    as b2 = t/(1 + t^2) and grad_b2 = 0.5 (1 - t^2)/(1 + t^2) v: numpy runs
    float64 sin and cos through scalar libm, but tan through an AVX-512 SIMD
    loop, about five times faster per element.  The sine form is within 4 ulp
    of 0.5 np.sin and the cosine form within 2^-52 absolute of 0.5 np.cos;
    +-inf gives NaN with numpy's invalid-value signal, as np.sin does.  On a
    CPU without AVX-512, tan is scalar too, and each callback costs 5-10% more
    than its sin or cos form (README, Numerical conventions).  Both callbacks
    return new arrays: the kernel passes its scratch as their input.
    """

    def s2(x):
        return np.asarray(x)[..., 0]

    def ds2(x, v):
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        return np.broadcast_to(vv, np.asarray(x).shape[:-1]).astype(float)

    def sigma1(x):
        return (1.0 + 0.25 * np.tanh(np.asarray(x)[..., 0]))[..., None, None]

    def grad_sigma1(x, v):
        xx = np.asarray(x)[..., 0]
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        return (0.25 / np.cosh(xx) ** 2 * vv)[..., None, None]

    def b1(x):
        return -0.3 * np.tanh(np.asarray(x))

    def grad_b1(x, v):
        xx = np.asarray(x)[..., 0]
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        return (-0.3 / np.cosh(xx) ** 2 * vv)[..., None]

    def b2(x):
        t = np.tan(0.5 * np.asarray(x))
        return t / (1.0 + t * t)

    def grad_b2(x, v):
        xx = np.asarray(x)[..., 0]
        vv = np.broadcast_to(np.asarray(v), np.asarray(x).shape)[..., 0]
        s = np.tan(0.5 * xx) ** 2
        return ((1.0 - s) / (1.0 + s) * 0.5 * vv)[..., None]

    return ModelSpec(
        m=1,
        d=1,
        kind=ModelKind.EXTENDED,
        sigma=_identity_lift(s2, 1),
        grad_sigma=_identity_lift_grad(ds2, 1),
        sigma_scalar=s2,
        grad_sigma_scalar=ds2,
        power_params=PowerParams(a=1.0, b=2.0, l=1.0),
        name="extended_demo",
        sigma1=sigma1,
        grad_sigma1=grad_sigma1,
        b1=b1,
        grad_b1=grad_b1,
        b2=b2,
        grad_b2=grad_b2,
    )


def make_tilted_matrix_model() -> ModelSpec:
    """m = 1, d = 2 basic model with a non-diagonal sigma that vanishes at x = 0.

        sigma(x) = x * [[1, 1/2], [tanh(x)/2, 1]]

    det sigma = x^2 (1 - tanh(x)/4) > 0 away from 0, and sigma sigma^* has nonzero
    off-diagonal entries, so it runs the matrix kernel, the closed-form 2 x 2
    square root of Q_T and the Cholesky solve of the weight on a genuinely
    coupled Y.
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
                     grad_sigma=grad_sigma, name="tilted_matrix")


BUILTIN_MODELS = ("power_law", "constant_identity", "extended_demo", "tilted_matrix")


def builtin_model(name: str, m: int = 1, d: int = 1, l: float = 1.0) -> ModelSpec:
    if name == "power_law":
        return make_power_law_model(m, d, l)
    if name == "constant_identity":
        return make_constant_identity_model(m, d)
    if name == "extended_demo":
        return make_extended_demo_model()
    if name == "tilted_matrix":
        return make_tilted_matrix_model()
    raise ValueError(f"unknown builtin model {name!r}; choose from {BUILTIN_MODELS}")


# ---------------------------------------------------------------------------
# Test observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Scalar observable f(x, y) with optional closed forms of P_T f and its gradient.

    ``eval`` is vectorized over points of shape (..., m+d).  Closed forms take
    (T, x, y) at one point, x and y arrays of shape (m,) and (d,), and are only
    attached when exact for the model the instance was built for.
    """

    name: str
    eval: Callable[[Array], Array]
    closed_form_pt: Optional[Callable] = None
    closed_form_grad_pt: Optional[Callable] = None


def observable(name: str, model: ModelSpec) -> TestFunction:
    """Builtin observable by name, with closed forms attached when exact for ``model``."""
    m, family = model.m, model.family
    # the linear closed forms hold for the basic system only (ModelSpec
    # already refuses the family unless m = d = 1)
    linear = family is Family.LINEAR and model.kind is ModelKind.BASIC

    if name == "one":
        return TestFunction(
            name="one",
            eval=lambda z: np.ones(np.asarray(z).shape[:-1]),
            closed_form_pt=lambda T, x, y: 1.0,
            closed_form_grad_pt=None,
        )

    if name == "sin_x":
        closed = None
        closed_grad = None
        # X is Brownian for every basic model, so the heat factor is exact
        if m == 1 and model.kind is ModelKind.BASIC:
            closed = lambda T, x, y: np.exp(-T / 2.0) * np.sin(np.asarray(x)[..., 0])

            def closed_grad(T, x, y):
                dx = np.exp(-T / 2.0) * np.cos(np.asarray(x)[..., 0])
                return np.concatenate([np.atleast_1d(dx), np.zeros(np.asarray(y).shape[-1])])

        return TestFunction(
            name="sin_x",
            eval=lambda z: np.sin(np.asarray(z)[..., 0]),
            closed_form_pt=closed,
            closed_form_grad_pt=closed_grad,
        )

    if name == "cos_x":
        closed = None
        if m == 1 and model.kind is ModelKind.BASIC:
            closed = lambda T, x, y: np.exp(-T / 2.0) * np.cos(np.asarray(x)[..., 0])
        return TestFunction(
            name="cos_x",
            eval=lambda z: np.cos(np.asarray(z)[..., 0]),
            closed_form_pt=closed,
        )

    if name == "sin_y":
        closed = None
        closed_grad = None
        if family is Family.HEAT and model.m == 1 and model.d == 1:
            closed = lambda T, x, y: np.exp(-T / 2.0) * np.sin(np.asarray(y)[..., 0])
        elif linear:
            # E sin(y + int X dBt) = sin(y) E exp(-Q_T/2), Q_T = int_0^T (x + B_t)^2 dt:
            # the Cameron-Martin transform at gamma = 1
            def closed(T, x, y):
                return np.sin(np.asarray(y)[..., 0]) * quadratic_laplace(1, x, T, 1.0)

            def closed_grad(T, x, y):
                xx = np.asarray(x)[..., 0]
                yy = np.asarray(y)[..., 0]
                fac = quadratic_laplace(1, x, T, 1.0)
                return np.array([-xx * np.tanh(T) * np.sin(yy) * fac, np.cos(yy) * fac])

        return TestFunction(
            name="sin_y",
            eval=lambda z: np.sin(np.asarray(z)[..., m]),
            closed_form_pt=closed,
            closed_form_grad_pt=closed_grad,
        )

    if name == "tanh_y":
        return TestFunction(name="tanh_y", eval=lambda z: np.tanh(np.asarray(z)[..., m]))

    if name == "sin_xy":
        return TestFunction(
            name="sin_xy",
            eval=lambda z: np.sin(np.asarray(z)[..., 0] + np.asarray(z)[..., m]),
        )

    if name == "y_squared":
        closed = None
        closed_grad = None
        if family is Family.HEAT and model.d == 1:
            closed = lambda T, x, y: np.asarray(y)[..., 0] ** 2 + T

            def closed_grad(T, x, y):
                return np.array([0.0] * model.m + [2.0 * np.asarray(y)[..., 0]])
        elif linear:
            def closed(T, x, y):
                return np.asarray(y)[..., 0] ** 2 + np.asarray(x)[..., 0] ** 2 * T + T**2 / 2.0

            def closed_grad(T, x, y):
                return np.array([2.0 * np.asarray(x)[..., 0] * T, 2.0 * np.asarray(y)[..., 0]])

        return TestFunction(
            name="y_squared",
            eval=lambda z: np.asarray(z)[..., m] ** 2,
            closed_form_pt=closed,
            closed_form_grad_pt=closed_grad,
        )

    if name == "x_plus_y":
        # both coordinates are martingales under every basic model: P_T f = f
        closed = None
        closed_grad = None
        if model.kind is ModelKind.BASIC:
            closed = lambda T, x, y: np.sum(np.asarray(x), axis=-1) + np.sum(np.asarray(y), axis=-1)
            closed_grad = lambda T, x, y: np.ones(np.asarray(x).shape[-1] + np.asarray(y).shape[-1])
        return TestFunction(
            name="x_plus_y",
            eval=lambda z: np.sum(np.asarray(z), axis=-1),
            closed_form_pt=closed,
            closed_form_grad_pt=closed_grad,
        )

    if name == "one_plus_tanh_y":
        return TestFunction(name="one_plus_tanh_y",
                            eval=lambda z: 1.0 + np.tanh(np.asarray(z)[..., m]))

    raise ValueError(f"unknown test function {name!r}; choose from {TEST_FUNCTION_NAMES}")


TEST_FUNCTION_NAMES = (
    "one", "sin_x", "cos_x", "sin_y", "tanh_y", "sin_xy",
    "y_squared", "x_plus_y", "one_plus_tanh_y",
)


def bounded_suite(model: ModelSpec) -> list[TestFunction]:
    """Bounded observables used by the gradient-bound and Harnack checks."""
    return [observable(n, model) for n in ("sin_y", "cos_x", "tanh_y", "sin_xy")]


def crosscheck_suite(model: ModelSpec) -> list[TestFunction]:
    """Mixed observables (bounded and polynomial) for weight vs finite-difference runs."""
    return [observable(n, model) for n in ("sin_x", "sin_y", "y_squared", "x_plus_y")]
