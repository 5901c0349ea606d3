"""Assembly of the derivative weight M_T from accumulated path functionals.

For the basic model,

    M_T = <v1, B_T>/T
          - Tr( Q_T^{-1} int_0^T ((T-t)/T) {(grad_{v1} sigma) sigma^*}(X_t) dt )
          + < Q_T^{-1} { v2 + int ((T-t)/T)(grad_{v1} sigma)(X_t) dBt_t },
              int sigma(X_t) dBt_t >,

and the directional derivative of the semigroup is E[f(X_T, Y_T) M_T].  The
extended model's first term is int <sigma1^{-1} xi_t/(T-t), dB_t>, and it adds
int (grad_{xi} b2) dt inside the solve's right-hand side.  With sigma1 = I and
b1 = 0, xi_t = v1 (T-t)/T and that integral is <v1, B_T>/T, so both kernels
store their first term as ``xi_drift_weight`` and one formula assembles the
weight.  Q_T^{-1} is always applied through SPD linear solves, never by
forming the inverse.
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

    Every u1-dependent accumulator (trace integral, weighted stochastic integral,
    drift-gradient integral, xi and its drift weight) is linear in the direction
    on a fixed noise realization, so rescaling the simulated direction is exact.
    Returns (drift, trace, inner, solvable) arrays over the batch; entries of
    non-solvable paths are NaN.
    """
    v2 = np.asarray(v2, dtype=float)
    q = batch.q_matrix
    trace_q = batch_trace(q)
    solvable = batch.valid & (batch.min_eig_q > INVERTIBILITY_FLOOR * trace_q) & (trace_q > 0)

    c = float(v1_scale)
    rhs = v2 + c * (batch.weighted_stoch_integral + batch.drift_grad_integral)

    P = len(batch)
    drift_out = np.where(solvable, c * batch.xi_drift_weight, np.nan)
    trace_out = np.full(P, np.nan)
    inner_out = np.full(P, np.nan)
    if solvable.any():
        idx = np.nonzero(solvable)[0]
        q_s = q[idx]
        u = spd_solve(q_s, rhs[idx])
        w_mat = spd_solve(q_s, batch.trace_integral[idx])
        trace_out[idx] = -c * batch_trace(w_mat)
        inner_out[idx] = np.einsum("pd,pd->p", u, batch.sigma_stoch_integral[idx])
    return drift_out, trace_out, inner_out, solvable

