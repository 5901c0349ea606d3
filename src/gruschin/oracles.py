"""Exact values the Monte Carlo checks are compared against.

The Cameron-Martin transform of int_0^T |x + B_t|^2 dt (Cameron and Martin,
1945), the exact negative moment of Lemma 3.1 at n = 1 built on it, the
closed-form right-hand sides of the L^q moment inequality on its integrand
catalogue, and the Gauss-Legendre rule they integrate with.  This module reads
numpy and the standard library only and imports nothing from the package, so
every other module may read it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "quadratic_laplace",
    "negative_moment_exact",
    "LQ_INTEGRANDS",
    "check_lq_case",
    "lq_moment_rhs",
    "integrate",
]


_LAPLACE_NODES, _LAPLACE_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quadratic_laplace(m: int, x, T: float, gamma):
    """E exp(-(gamma^2/2) int_0^T |x + B_t|^2 dt) for an m-dimensional Brownian
    motion B, at every gamma of an array: the Cameron-Martin formula
    cosh(gamma T)^(-m/2) exp(-|x|^2 gamma tanh(gamma T) / 2).

    cosh is written as e^z (1 + e^(-2z)) / 2, since it overflows above
    z = gamma T near 710.
    """
    z = gamma * T
    log_cosh = z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0)
    x_sq = float(np.sum(np.square(x)))
    return np.exp(-0.5 * m * log_cosh - 0.5 * x_sq * gamma * np.tanh(z))


def negative_moment_exact(m: int, x, T: float, alpha: float) -> float:
    """The exact E (int_0^T |x + B_t|^2 dt)^(-alpha), n = 1 of
    ``estimators.estimate_negative_moment``, for an m-dimensional Brownian
    motion B.

    With I the integral, I^(-alpha) = int_0^inf s^(alpha-1) e^(-s I) ds / Gamma(alpha),
    and s = gamma^2 / 2 gives
    E I^(-alpha) = 2^(1-alpha) / Gamma(alpha) int_0^inf gamma^(2 alpha - 1) L(gamma) dgamma,
    L the transform of ``quadratic_laplace``.  By Brownian scaling I has the
    law of T^2 times the integral at T = 1 from x / sqrt(T), so the integral
    runs at T = 1, by 64-node Gauss-Legendre on gamma = u / (1 - u), u in
    (0, 1).  Against adaptive quadrature it agrees within 1e-10 relative at
    alpha = 1 and within 3e-6 for alpha in [1/2, 3], where gamma^(2 alpha - 1)
    is not smooth at 0.  This is the time-continuous value, which the
    estimator reads off Karhunen-Loeve modes at n = 1, with no time bias.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (m,) or not np.isfinite(x).all():
        raise ValueError(f"x must be a finite vector of shape ({m},), got {x}")
    if not (0 < T < math.inf and 0 < alpha < math.inf):
        raise ValueError(f"T and alpha must be positive and finite, got T={T}, alpha={alpha}")
    u = 0.5 * (_LAPLACE_NODES + 1.0)
    gamma = u / (1.0 - u)
    integrand = (gamma ** (2.0 * alpha - 1.0) * quadratic_laplace(m, x / math.sqrt(T), 1.0, gamma)
                 / (1.0 - u) ** 2)
    integral = 0.5 * float(integrand @ _LAPLACE_WEIGHTS)
    return 2.0 ** (1.0 - alpha) / math.gamma(alpha) * integral / T ** (2.0 * alpha)


# ---------------------------------------------------------------------------
# L^q moment inequality: catalogue of integrands with computable right-hand sides
# ---------------------------------------------------------------------------

LQ_INTEGRANDS = ("constant_unit", "adapted_cos", "sigma_row")

_LQ_CONSTANT_FACTOR = lambda q: (q * (q - 1.0) / 2.0) ** (q / 2.0)


def _double_factorial_odd(j: int) -> float:
    """(2j-1)!! = (2j)! / (2^j j!)."""
    return math.factorial(2 * j) / (2.0**j * math.factorial(j))


def _gaussian_abs_moment_even(k: int, x: float, t):
    """E |x + W_t|^k for even integer k: a polynomial in (x, t)."""
    total = 0.0
    for j in range(k // 2 + 1):
        total += math.comb(k, 2 * j) * x ** (k - 2 * j) * _double_factorial_odd(j) * t**j
    return total


def _cos_power_mean(q: int, t):
    """E cos(W_t)^q for even integer q via the binomial expansion into cosines."""
    total = 0.0
    for j in range(q + 1):
        total += math.comb(q, j) * np.exp(-((q - 2 * j) ** 2) * t / 2.0)
    return total / 2.0**q


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def integrate(fn: Callable[[np.ndarray], np.ndarray], T: float) -> float:
    """int_0^T fn(t) dt by the 32-node Gauss-Legendre rule on each of ceil(T)
    equal panels; ``fn`` is evaluated once, on an array of times.

    On the catalogue's integrands this matches adaptive quadrature to rounding
    for T up to 100, except sigma_row at x = 0 with non-integer l, whose
    integrand c t^l is not smooth at 0 (relative error 5e-6 at l = 1/2).
    """
    n_panels = max(1, math.ceil(T))
    h = T / n_panels
    t = h * (np.arange(n_panels)[:, None] + 0.5 * (_GL_NODES + 1.0))
    return 0.5 * h * float(np.sum(fn(t) @ _GL_WEIGHTS))


def check_lq_case(q: float, T: float, l: float, x: float) -> None:
    """Refuse an L^q case that has no moment to compare: a q outside [2, inf),
    as the bound needs q >= 2 and NaN or inf has no moment; a horizon that is
    not positive and finite; a non-finite l or x; and a negative l, whose
    integrand |x + W_t|^l is unbounded where W_t = -x."""
    if not (2 <= q < math.inf):
        raise ValueError("q must be finite and at least 2")
    if not (0 < T < math.inf):
        raise ValueError(f"T must be positive and finite, got T={T}")
    if not (math.isfinite(l) and math.isfinite(x)):
        raise ValueError(f"l and x must be finite, got l={l}, x={x}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got l={l}")


def lq_moment_rhs(integrand: str, q: float, T: float, *, l: float = 1.0,
                  x: float = 0.0) -> float:
    """Closed-form bound {q(q-1)/2}^{q/2} (int_0^T (E|rho_t|^q)^{2/q} dt)^{q/2}."""
    check_lq_case(q, T, l, x)
    if integrand == "constant_unit":
        return _LQ_CONSTANT_FACTOR(q) * T ** (q / 2.0)
    if integrand == "adapted_cos":
        qi = int(q)
        if qi != q or qi % 2 != 0:
            raise ValueError("adapted_cos needs an even integer q for the closed form")
        inner = integrate(lambda t: _cos_power_mean(qi, t) ** (2.0 / q), T)
        return _LQ_CONSTANT_FACTOR(q) * inner ** (q / 2.0)
    if integrand == "sigma_row":
        k = l * q
        if int(k) != k or int(k) % 2 != 0:
            raise ValueError("sigma_row needs l*q to be an even integer for the closed form")
        k = int(k)
        inner = integrate(lambda t: _gaussian_abs_moment_even(k, x, t) ** (2.0 / q), T)
        return _LQ_CONSTANT_FACTOR(q) * inner ** (q / 2.0)
    raise ValueError(f"unknown integrand {integrand!r}; choose from {LQ_INTEGRANDS}")
