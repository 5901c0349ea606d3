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
as ``xi_drift_weight`` and one formula assembles the weight.  Q_T^{-1} is
applied through SPD solves, never by forming the inverse.
"""

from __future__ import annotations

import numpy as np

from .linalg import batch_trace, spd_solve
from .paths import PathBatch

__all__ = [
    "INVERTIBILITY_FLOOR",
    "weight_terms_shared",
]

# Q_T counts as numerically invertible when min eig > floor * trace(Q_T).
# Failures are surfaced and counted, never regularized away.
INVERTIBILITY_FLOOR = 1e-12


def weight_terms_shared(
    batch: PathBatch,
    v2,
    v1_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight terms for direction (v1_scale * u1, v2), u1 the batch's simulated v1.

    Every u1-dependent accumulator (trace integral, drift-gradient integral, xi
    and its drift weight) is linear in the direction on a fixed noise
    realization, so rescaling the simulated direction is exact.  Returns
    (drift, trace, inner, solvable) arrays over the batch; entries of
    non-solvable paths are NaN.
    """
    v2 = np.asarray(v2, dtype=float)
    q = batch.q_matrix
    trace_q = batch_trace(q)
    solvable = batch.valid & (batch.min_eig_q > INVERTIBILITY_FLOOR * trace_q) & (trace_q > 0)

    c = float(v1_scale)
    P = len(batch)
    drift_out = np.where(solvable, c * batch.xi_drift_weight, np.nan)
    trace_out = np.full(P, np.nan)
    inner_out = np.full(P, np.nan)
    if solvable.any():
        idx = np.nonzero(solvable)[0]
        q_s, c_s = q[idx], batch.trace_integral[idx]
        a = spd_solve(q_s, batch.sigma_stoch_integral[idx])
        trace_out[idx] = -c * batch_trace(spd_solve(q_s, c_s))
        linear = np.einsum("pd,pd->p", v2 + c * batch.drift_grad_integral[idx], a)
        inner_out[idx] = linear + c * np.einsum("pi,pij,pj->p", a, c_s, a)
    return drift_out, trace_out, inner_out, solvable
