"""Assembly of the derivative weight M_T from accumulated path functionals.

For the basic model the weight is M_T = <v1, B_T>/T - Tr(Q_T^{-1} C)
+ <Q_T^{-1}(v2 + W), S>, where C = int ((T-t)/T){(grad_{v1} sigma) sigma^*} dt,
W = int ((T-t)/T)(grad_{v1} sigma) dBt and S = int sigma dBt, and the
directional derivative of the semigroup is E[f(X_T, Y_T) M_T].  Given B,
(W, S) is jointly Gaussian with Cov(S) = Q_T and Cov(W, S) = C, so
E[W | B, S] = C a with a = Q_T^{-1} S, and this module assembles

    M_T = <v1, B_T>/T - Tr(Q_T^{-1} C) + <v2, a> + a^T C a:

the same mean, as f(X_T, Y_T) reads B and S alone, and no larger variance.
The extended model's first term is int <sigma1^{-1} xi_t/(T-t), dB_t>, its C
and W read grad_xi sigma2, and it adds int (grad_xi b2) dt to v2.  With
sigma1 = I and b1 = 0 that first term is <v1, B_T>/T, so both kernels store it
as ``xi_drift_weight`` and one formula assembles the weight.

Every term is linear in v1 on fixed noise, and a batch stores each of C,
int (grad_xi b2) dt and the first term along the coordinate axes e_i of R^m
(see ``paths``).  So one batch serves every direction: C = sum_i v1_i C_i,
int (grad_xi b2) dt = sum_i v1_i D_i and the first term is
<v1, xi_drift_weight>.  Q_T^{-1} is applied through SPD solves, never by
forming the inverse.
"""

from __future__ import annotations

import numpy as np

from .linalg import batch_trace, spd_solve
from .models import Direction
from .paths import PathBatch

__all__ = [
    "INVERTIBILITY_FLOOR",
    "weight_terms_shared",
]

# Q_T counts as numerically invertible when min eig > floor * trace(Q_T).
# Failures are surfaced and counted, never regularized away.
INVERTIBILITY_FLOOR = 1e-12


def _along(slots: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """sum_i v1_i slots[:, i]: a per-axis field (P, m, ...) read along v1."""
    return np.einsum("pi...,i->p...", slots, v1)


def weight_terms_shared(
    batch: PathBatch,
    v: Direction,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight terms of direction v = (v1, v2) on a batch of any kernel.

    Returns (drift, trace, inner, solvable) arrays over the batch; entries of
    non-solvable paths are NaN.
    """
    v1 = np.asarray(v.v1, dtype=float)
    v2 = np.asarray(v.v2, dtype=float)
    q = batch.q_matrix
    trace_q = batch_trace(q)
    solvable = batch.valid & (batch.min_eig_q > INVERTIBILITY_FLOOR * trace_q) & (trace_q > 0)

    P = len(batch)
    drift_out = np.where(solvable, _along(batch.xi_drift_weight, v1), np.nan)
    trace_out = np.full(P, np.nan)
    inner_out = np.full(P, np.nan)
    if solvable.any():
        idx = np.nonzero(solvable)[0]
        q_s, c_s = q[idx], _along(batch.trace_integral[idx], v1)
        a = spd_solve(q_s, batch.sigma_stoch_integral[idx])
        trace_out[idx] = -batch_trace(spd_solve(q_s, c_s))
        linear = np.einsum("pd,pd->p", v2 + _along(batch.drift_grad_integral[idx], v1), a)
        inner_out[idx] = linear + np.einsum("pi,pij,pj->p", a, c_s, a)
    return drift_out, trace_out, inner_out, solvable
