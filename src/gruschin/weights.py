"""Assembly of the derivative weight M_T from accumulated path functionals.

For the basic model,

    M_T = <v1, B_T>/T
          - Tr( Q_T^{-1} int_0^T ((T-t)/T) {(grad_{v1} sigma) sigma^*}(X_t) dt )
          + < Q_T^{-1} { v2 + int ((T-t)/T)(grad_{v1} sigma)(X_t) dBt_t },
              int sigma(X_t) dBt_t >,

and the directional derivative of the semigroup is E[f(X_T, Y_T) M_T].  The
extended model replaces the first term by the accumulated
int <sigma1^{-1} xi_t/(T-t), dB_t> and adds int (grad_{xi} b2) dt inside the
solve's right-hand side.  Q_T^{-1} is always applied through SPD linear solves,
never by forming the inverse.
"""

from __future__ import annotations

import numpy as np

from .linalg import batch_trace, spd_solve
from .models import Direction, ModelKind
from .paths import PathBatch

__all__ = [
    "INVERTIBILITY_FLOOR",
    "weight_terms_batch",
    "weight_terms_shared",
]

# Q_T counts as numerically invertible when min eig > floor * trace(Q_T).
# Failures are surfaced and counted, never regularized away.
INVERTIBILITY_FLOOR = 1e-12


def weight_terms_shared(
    batch: PathBatch,
    T: float,
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
    if batch.kind is ModelKind.BASIC:
        raw_drift = (batch.b_final * batch.sim_direction.v1).sum(axis=1) / T
    else:
        raw_drift = batch.xi_drift_weight
    rhs = v2 + c * (batch.weighted_stoch_integral + batch.drift_grad_integral)

    P = len(batch)
    drift_out = np.where(solvable, c * raw_drift, np.nan)
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


def weight_terms_batch(
    batch: PathBatch, v: Direction, T: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weight terms for the direction the batch was simulated with."""
    if not np.array_equal(batch.sim_direction.v1, v.v1):
        raise ValueError(
            "batch was simulated with a different v1; the accumulators are "
            "direction-specific (use weight_terms_shared for rescaled directions)"
        )
    return weight_terms_shared(batch, T, v.v2, v1_scale=1.0)
