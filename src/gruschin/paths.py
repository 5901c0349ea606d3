"""Path simulation over a uniform grid, accumulating every functional the weights need.

All discretization is left-point (Ito):

* Basic model: the X-component has unit diffusion and no drift, so X is advanced
  by exact Brownian accumulation (no scheme error in X); every integral uses
  left-endpoint sums.
* Extended model: (X, xi) advance jointly.  The auxiliary process xi carries
  the singular drift -xi/(T-t), handled by the exact integrating factor
  (T-t-dt)/(T-t) per step, which telescopes and pins xi to 0 at the final node.

Time integrals are evaluated as T * mean(integrand over left nodes), which equals
the left Riemann sum but is exact for constant integrands.

Y is not simulated: it reads the second Brownian motion B~ only through
S = int sigma(X) dB~, which given the B path is exactly N(0, Q_T), Q_T the
left-point sum of sigma sigma^* dt.  The kernels set S = R zeta, with one
zeta ~ N(0, I_d) per path and R the PSD square root of Q_T (``_root_times``),
so (X_T, Y_T) has the law of the left-point scheme driven by (B, B~).

The basic kernel has two forms.  A scalar-times-identity sigma works on (P, n)
arrays of the scalar field.  Any other sigma is laid out once as a contiguous
(P, d, n*d) operand A with A[p, i, k*d + j] = sigma_ij(X_k), and the weighted
gradient ((T-t_k)/T) grad sigma(X_k) as B in the same layout.  Step and column
then form one contraction axis, and the accumulators are batched matrix
products: Q_T = T (A A^*)/n and the trace term T (B A^*)/n.  Each path's
products read only its own rows, so a path gives the same bits alone as in
any batch.

Every coefficient depends on x alone, so on fixed noise Y_T - y0 does not depend
on y0: a shift of y0 only translates Y_T.  Both kernels set
Y_T = y0 + (S + int b2 dt), adding y0 last, so the translation is exact in
floating point: simulating from (x0, y0) gives bit for bit the Y_T of
y0 + (Y_T from (x0, 0)).  The finite-difference and semigroup-value panels rely
on this to simulate each x-start once.

Each kernel has two parts.  The direction-free part reads only sigma (and, for
the extended model, sigma1, b1 and b2): it builds the X path, Q_T, S, Y_T,
the smallest eigenvalue of Q_T and, for the extended model, the
sigma1-invertibility flag.  The direction part reads grad sigma (and, for the
extended model, the other gradients), and no kernel takes a direction: it runs
once along each coordinate axis e_1..e_m of R^m, and every functional it fills
has one slot per axis.  The basic kernel loops over the axes, in both forms;
the extended kernel carries xi as (P, m, m), xi[:, i] the xi started at e_i.
Every such functional is linear in the direction on fixed noise, so
``weights`` reads any direction v off one batch as sum_i v1_i (slot i).
``simulate_basic_batch`` and ``simulate_extended_batch`` run both parts;
``simulate_terminal_batch`` runs only the first, for callers that read nothing
but (X_T, Y_T) and the validity mask.  The extended recursion is a generator
over the steps, so its direction part runs inside the same loop and nothing is
stored per step.  The terminal mask checks only direction-free quantities: it
agrees with the full kernel's unless a gradient callback is non-finite on a
coordinate axis where sigma is finite.

Both kernels fill the same functionals, so ``weights`` assembles M_T by one
formula.  In particular slot i of ``xi_drift_weight`` is the extended model's
int <sigma1^{-1} xi^i_t/(T-t), dB_t>, and the basic kernel stores the value that
integral takes in the sigma1 = I, b1 = 0 reduction, B_T/T.

Every kernel takes its noise as one required argument, a ``Noise`` of
standard normals as ``standard_noise`` draws them: eps (P, n_steps, m) for
the increments of B and zeta (P, d) for S.  The kernel
checks the two shapes, draws nothing itself and scales to its own grid: by
Brownian scaling the increments on [0, T] are sqrt(T/n_steps) eps, so one
draw serves every horizon T of a given step count, bit for bit.  The basic
kernel reads the standard random walk W of eps (W_0 = 0, W_k = eps_0 + ... +
eps_{k-1}, ``standard_walk``), which a ``Noise`` builds on first read and
keeps as long as the noise lives, so every point and every x-start simulated
on one draw reads one cumulative sum.  A ``Noise`` also holds the tile
scratch, into which the basic kernel writes each point's left nodes of X and,
for a scalar sigma, the step products sigma^2 and w (grad_e sigma) sigma that
Q_T and the trace term average; nothing a kernel returns aliases it.
``brownian_left_nodes`` is the one builder of Brownian paths: it reads a walk
as start + sqrt(dt) W at the left nodes and sqrt(dt) W_n at T.  The extended
recursion reads eps and scales step k's normals as it reaches them, so it
builds no walk.  Row p of every
output is a function of row p of the noise alone, so a path gives the same
bits in any batch, and running two kernels (or two horizons) on one draw
needs no other entry point.  ``standard_noise`` draws eps from substream 0
and zeta from substream 1 of ``rng.PathStreams``: the noise of path i is a
pure function of (master_seed, i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelKind, ModelSpec
from .rng import PathStreams

__all__ = [
    "TimeGrid",
    "PathBatch",
    "Noise",
    "brownian_left_nodes",
    "standard_increments",
    "standard_noise",
    "standard_walk",
    "simulate_basic_batch",
    "simulate_extended_batch",
    "simulate_batch",
    "simulate_terminal_batch",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]: node k sits at T*k/n_steps (final node exactly T)."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be at least 2, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return self.horizon * np.arange(self.n_steps + 1) / self.n_steps

    def left_times(self) -> np.ndarray:
        return self.times()[: self.n_steps]

    def decay_weights(self) -> np.ndarray:
        """(T - t_k)/T at the left nodes; the weight of the control construction."""
        return (self.horizon - self.left_times()) / self.horizon


@dataclass
class PathBatch:
    """Everything a batch of simulated paths contributes to the derivative weights.

    Every array carries a leading path axis of length P.
    """

    b_final: np.ndarray            # (P, m) terminal value of the first Brownian motion
    x_final: np.ndarray            # (P, m)
    y_final: np.ndarray            # (P, d)
    q_matrix: np.ndarray           # (P, d, d)  discretized int sigma sigma^* dt
    # the direction part, slot i for the coordinate axis e_i of R^m; in
    # trace_integral it is int ((T-t)/T){(grad_{e_i} sigma) sigma^*} dt (basic)
    # or int {(grad_{xi^i} sigma2) sigma2^*} dt (extended)
    trace_integral: np.ndarray     # (P, m, d, d)
    sigma_stoch_integral: np.ndarray     # (P, d) S = R zeta, int sigma dBt in law given B
    drift_grad_integral: np.ndarray      # (P, m, d) int (grad_{xi^i} b2) dt  (0 for basic)
    xi_drift_weight: np.ndarray    # (P, m) int <sigma1^{-1} xi^i/(T-t), dB>; basic: B_T/T
    min_eig_q: np.ndarray          # (P,)
    valid: np.ndarray              # (P,) bool

    def __len__(self) -> int:
        return len(self.valid)

    @property
    def z_final(self) -> np.ndarray:
        """Terminal states stacked as points in R^{m+d}."""
        return np.concatenate([self.x_final, self.y_final], axis=1)


def _as_state(value, dim: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {arr.shape}")
    return arr


def standard_increments(master_seed: int, path_indices, n_steps: int,
                        width: int) -> np.ndarray:
    """Standard normals (P, n_steps, width) from substream 0: those of a path are
    a pure function of (master_seed, path index)."""
    return PathStreams(master_seed).fill_normals(np.asarray(path_indices), (n_steps, width))


def standard_walk(eps: np.ndarray) -> np.ndarray:
    """The standard random walk of eps (P, n_steps, ...): W (P, n_steps + 1, ...)
    with W_0 = 0 and W_k = eps_0 + ... + eps_{k-1}."""
    walk = np.empty((eps.shape[0], eps.shape[1] + 1) + eps.shape[2:])
    walk[:, 0] = 0.0
    np.cumsum(eps, axis=1, out=walk[:, 1:])
    return walk


class Noise:
    """The kernel noise of a batch: standard normals eps (P, n_steps, m) and
    zeta (P, d), the walk of eps, built on first read, and the tile scratch.

    A noise belongs to one tile of one batch, and batches are the only
    parallel unit (``estimators.run_batches``), so one thread reads it.  The
    walk is built once, on first read, and lives as long as the noise.  So
    does the tile scratch: float64 buffers that the basic kernel fills anew at
    each point simulated on the noise (the left nodes of X and, for a scalar
    sigma, the step products that Q_T and the trace term average), so that no
    point allocates them again.  Nothing a kernel returns aliases the scratch.
    """

    def __init__(self, eps: np.ndarray, zeta: np.ndarray):
        self.eps, self.zeta = eps, zeta
        self._walk = None
        self._scratch = {}

    @property
    def walk(self) -> np.ndarray:
        """``standard_walk(eps)``, (P, n_steps + 1, m)."""
        if self._walk is None:
            self._walk = standard_walk(self.eps)
        return self._walk

    def scratch(self, name: str, shape: tuple) -> np.ndarray:
        """The float64 scratch buffer ``name``, made uninitialised with
        ``shape`` on first request and reused while the noise lives, so a
        caller overwrites what the last one left there."""
        if name not in self._scratch:
            self._scratch[name] = np.empty(shape)
        return self._scratch[name]


def standard_noise(master_seed: int, path_indices, n_steps: int,
                   model: ModelSpec) -> Noise:
    """The kernel noise of the paths: standard normals eps (P, n_steps, m) from
    substream 0, the increments of B on any grid of ``n_steps`` steps once a
    kernel scales them, and zeta (P, d) from substream 1."""
    idx = np.asarray(path_indices)
    zeta = PathStreams(master_seed, substream=1).fill_normals(idx, (model.d,))
    return Noise(standard_increments(master_seed, idx, n_steps, model.m), zeta)


def brownian_left_nodes(start, walk: np.ndarray, grid: TimeGrid,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Brownian paths on ``grid`` from a standard random walk W (P, n_steps + 1, ...).

    Returns the left-node values start + sqrt(dt) W_k, k < n_steps, written
    into ``out`` if given (shape (P, n_steps, ...)), and the terminal value
    B_T = sqrt(dt) W_n (started at 0).
    """
    h = np.sqrt(grid.dt)
    nodes = np.multiply(walk[:, :-1], h, out=out)
    nodes += start
    return nodes, walk[:, -1] * h


def _row_major_steps(field) -> np.ndarray:
    """A fresh contiguous (P, d, n*d) copy of coefficient values (P, n, d, d).

    Row i of the matrix at step k sits at columns k*d .. k*d + d - 1, so a
    product over that axis sums over steps and matrix columns at once.
    """
    arr = np.asarray(field, dtype=float)
    P, n, d, _ = arr.shape
    return np.array(arr.transpose(0, 2, 1, 3), order="C").reshape(P, d, n * d)


def _root_times(q: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R zeta, min eig Q_T) for R the PSD square root of Q_T (P, d, d).

    R = sqrt(Q_T) for d = 1; else R = U diag(sqrt(lambda+)) U^T from one
    batched ``eigh``, which is continuous in Q_T (eigenvector signs cancel), so
    Q_T that agree to rounding give S that agree to rounding.  Non-finite rows
    are decomposed as I, with smallest eigenvalue NaN; their paths are invalid.
    """
    d = q.shape[-1]
    if d == 1:
        return np.sqrt(q[:, 0]) * zeta, q[:, 0, 0]
    finite = np.isfinite(q).all(axis=(1, 2))
    lam, u = np.linalg.eigh(np.where(finite[:, None, None], q, np.eye(d)))
    root = (u * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ u.transpose(0, 2, 1)
    return (root @ zeta[..., None])[..., 0], np.where(finite, lam[:, 0], np.nan)


def _prepare(model: ModelSpec, x0, y0, grid: TimeGrid,
             noise: Noise) -> tuple[np.ndarray, np.ndarray]:
    """Checked starting point (x0, y0) of a kernel call on ``noise``.

    The noise must be a ``Noise`` with eps (P, n_steps, m) and zeta (P, d),
    P = len(eps), so noise drawn for another batch or another step count is
    refused, not truncated.
    """
    x0 = _as_state(x0, model.m, "x0")
    y0 = _as_state(y0, model.d, "y0")
    if not isinstance(noise, Noise):
        raise TypeError(f"noise must be a paths.Noise, got {type(noise).__name__}")
    eps, zeta = noise.eps, noise.zeta
    P, n = len(eps), grid.n_steps
    if np.shape(eps) != (P, n, model.m) or np.shape(zeta) != (P, model.d):
        raise ValueError(f"noise has shapes {np.shape(eps)} and {np.shape(zeta)}; "
                         f"expected ({P}, {n}, {model.m}) and ({P}, {model.d})")
    return x0, y0


def _basic_states(model: ModelSpec, x0: np.ndarray, y0: np.ndarray, grid: TimeGrid,
                  noise: Noise):
    """The direction-free part of the basic kernel, on the walk of the noise.

    Returns the left nodes of X, B_T, sigma at the left nodes (the (P, n) scalar
    field, or the (P, d, n*d) operand A of the module docstring), Q_T, S, Y_T,
    min eig Q_T and the mask of paths whose Q_T, S and Y_T are finite.  The
    left nodes live in the scratch of the noise, as does the product sigma^2
    that Q_T averages for a scalar sigma.
    """
    n, T, d = grid.n_steps, grid.horizon, model.d
    x_left, b_final = brownian_left_nodes(
        x0, noise.walk, grid, out=noise.scratch("nodes", noise.eps.shape))
    zeta = noise.zeta
    if model.scalar_identity:
        field = np.asarray(model.sigma_scalar(x_left), dtype=float)   # (P, n)
        squares = np.multiply(field, field, out=noise.scratch("steps", noise.eps.shape[:2]))
        min_eig = T * np.mean(squares, axis=1)
        q_matrix = min_eig[:, None, None] * np.eye(d)
        s = np.sqrt(min_eig)[:, None] * zeta
    else:
        field = _row_major_steps(model.sigma(x_left))                 # A, (P, d, n*d)
        q_matrix = T * (field @ field.transpose(0, 2, 1)) / n
        s, min_eig = _root_times(q_matrix, zeta)
    y_final = y0 + s
    valid = (
        np.isfinite(q_matrix).all(axis=(1, 2))
        & np.isfinite(s).all(axis=1)
        & np.isfinite(y_final).all(axis=1)
    )
    return x_left, b_final, field, q_matrix, s, y_final, min_eig, valid


def simulate_basic_batch(
    model: ModelSpec,
    x0,
    y0,
    grid: TimeGrid,
    noise: Noise,
) -> PathBatch:
    """Simulate a batch of basic-model paths on the ``Noise`` (eps, zeta) and
    accumulate all weight functionals, one slot per coordinate axis of R^m."""
    if model.kind is not ModelKind.BASIC:
        raise ValueError("simulate_basic_batch expects a basic model")
    x0, y0 = _prepare(model, x0, y0, grid, noise)
    x_left, b_final, field, q_matrix, s, y_final, min_eig, valid = _basic_states(
        model, x0, y0, grid, noise)
    P, m, d = len(b_final), model.m, model.d
    n, T = grid.n_steps, grid.horizon
    w = grid.decay_weights()

    def trace_slot(e: np.ndarray) -> np.ndarray:
        """int ((T-t)/T){(grad_e sigma) sigma^*} dt, (P, d, d)."""
        if model.scalar_identity:
            # w_k (grad_e sigma)(X_k) sigma(X_k), in the scratch that held sigma^2
            wgs = np.multiply(w, np.asarray(model.grad_sigma_scalar(x_left, e), dtype=float),
                              out=noise.scratch("steps", noise.eps.shape[:2]))
            wgs *= field
            return (T * np.mean(wgs, axis=1))[:, None, None] * np.eye(d)
        # B as in the module docstring; the callback's array is freed as soon as
        # it is copied, so at most three (P, n, d, d) arrays are alive
        B = _row_major_steps(model.grad_sigma(x_left, e))             # (P, d, n*d)
        B *= np.repeat(w, d)                                          # w_k on step k
        return T * (B @ field.transpose(0, 2, 1)) / n

    trace_integral = np.stack([trace_slot(e) for e in np.eye(m)], axis=1)
    valid &= np.isfinite(trace_integral).all(axis=(1, 2, 3))

    return PathBatch(
        b_final=b_final,
        x_final=x0 + b_final,
        y_final=y_final,
        q_matrix=q_matrix,
        trace_integral=trace_integral,
        sigma_stoch_integral=s,
        drift_grad_integral=np.zeros((P, m, d)),
        xi_drift_weight=b_final / T,
        min_eig_q=min_eig,
        valid=valid,
    )


class _ExtendedStates:
    """The direction-free part of the extended kernel: the (X, Y) recursion.

    Iterating runs the steps.  At each left node k it updates Q_T, int b2 dt and
    the sigma1-invertibility flag, yields (k, X_k, sigma1_k with its
    non-invertible matrices replaced by I, sigma2_k, the increment dB_k of B,
    its normals scaled once), and then advances X.
    Once the iteration ends, ``x_final``, ``y_final``, ``b_final``,
    ``q_matrix``, ``s``, ``min_eig`` and ``valid`` (X_T, Y_T, Q_T and S finite,
    sigma1 invertible at every node) hold the path's direction-free results.
    """

    def __init__(self, model: ModelSpec, x0: np.ndarray, y0: np.ndarray,
                 grid: TimeGrid, noise: Noise):
        self.model, self.x0, self.y0, self.grid = model, x0, y0, grid
        self.eps, self.zeta = noise.eps, noise.zeta

    def __iter__(self):
        model, grid, eps = self.model, self.grid, self.eps
        P, m, d = len(eps), model.m, model.d
        dt, h = grid.dt, np.sqrt(grid.dt)
        eye_m = np.eye(m)
        x = np.broadcast_to(self.x0, (P, m)).copy()
        b_running = np.zeros((P, m))
        q_acc = np.zeros((P, d, d))
        ydrift_acc = np.zeros((P, d))
        singular = np.zeros(P, dtype=bool)

        for k in range(grid.n_steps):
            db = eps[:, k, :] * h
            s1 = np.asarray(model.sigma1(x), dtype=float)                 # (P, m, m)
            s2 = np.asarray(model.sigma(x), dtype=float)                  # (P, d, d)
            if m == 1:
                bad = np.abs(s1[:, 0, 0]) < 1e-300
            else:
                det = np.abs(np.linalg.det(s1))
                bad = det <= 1e-12 * np.abs(s1).max(axis=(1, 2)) ** m
            singular |= bad
            q_acc += np.einsum("pij,pkj->pik", s2, s2) * dt
            ydrift_acc += np.asarray(model.b2(x), dtype=float) * dt
            yield k, x, np.where(bad[:, None, None], eye_m, s1), s2, db
            x = x + np.einsum("pij,pj->pi", s1, db) + np.asarray(model.b1(x), dtype=float) * dt
            b_running = b_running + db

        self.x_final, self.b_final, self.q_matrix = x, b_running, q_acc
        self.s, self.min_eig = _root_times(q_acc, self.zeta)
        self.y_final = self.y0 + (self.s + ydrift_acc)
        self.valid = (
            np.isfinite(x).all(axis=1)
            & np.isfinite(self.y_final).all(axis=1)
            & np.isfinite(q_acc).all(axis=(1, 2))
            & np.isfinite(self.s).all(axis=1)
            & ~singular
        )


def simulate_extended_batch(
    model: ModelSpec,
    x0,
    y0,
    grid: TimeGrid,
    noise: Noise,
) -> PathBatch:
    """Simulate extended-model paths on the ``Noise`` (eps, zeta), advancing X and
    one xi per coordinate axis e_i of R^m jointly.

    The xi step is exact for the singular part of the drift:
    xi_{k+1} = ((T-t_{k+1})/(T-t_k)) * [xi_k + (grad_xi sigma1) dB + (grad_xi b1) dt],
    so the factor at the last step is exactly 0 and xi lands on 0 at t = T.
    """
    if model.kind is not ModelKind.EXTENDED:
        raise ValueError("simulate_extended_batch expects an extended model")
    x0, y0 = _prepare(model, x0, y0, grid, noise)
    P, m, d = len(noise.eps), model.m, model.d
    n, T, dt = grid.n_steps, grid.horizon, grid.dt

    remaining = T - grid.times()               # (n+1,), exactly 0 at the final node
    factors = remaining[1:] / remaining[:n]    # integrating factors, last one exactly 0

    xi = np.broadcast_to(np.eye(m), (P, m, m)).copy()     # xi[:, i] starts at e_i
    tr_acc = np.zeros((P, m, d, d))
    dgi_acc = np.zeros((P, m, d))
    xdw_acc = np.zeros((P, m))

    states = _ExtendedStates(model, x0, y0, grid, noise)
    for k, x, s1_safe, s2, db in states:
        # xi-drift weight term of each axis at the left node, <sigma1^{-1} xi/(T-t_k), dB_k>
        if m == 1:
            s1_inv_xi = xi / s1_safe
        else:
            s1_inv_xi = np.linalg.solve(s1_safe, xi.transpose(0, 2, 1)).transpose(0, 2, 1)
        xdw_acc += (s1_inv_xi * db[:, None, :]).sum(axis=2) / remaining[k]

        for i in range(m):
            xi_i = xi[:, i]
            g2 = np.asarray(model.grad_sigma(x, xi_i), dtype=float)   # (P, d, d)
            # the decay (T-t)/T of the basic weight lives inside xi here: in the
            # sigma1 = I, b1 = 0 reduction xi_t = e_i (T-t)/T exactly, so these
            # unweighted integrands coincide with the weighted basic ones
            tr_acc[:, i] += dt * np.einsum("pij,pkj->pik", g2, s2)
            dgi_acc[:, i] += np.asarray(model.grad_b2(x, xi_i), dtype=float) * dt

            gs1 = np.asarray(model.grad_sigma1(x, xi_i), dtype=float)   # (P, m, m)
            gb1 = np.asarray(model.grad_b1(x, xi_i), dtype=float)       # (P, m)
            xi[:, i] = factors[k] * (xi_i + np.einsum("pij,pj->pi", gs1, db) + gb1 * dt)

    valid = (
        states.valid
        & np.isfinite(tr_acc).all(axis=(1, 2, 3))
        & np.isfinite(dgi_acc).all(axis=(1, 2))
        & np.isfinite(xdw_acc).all(axis=1)
    )

    return PathBatch(
        b_final=states.b_final,
        x_final=states.x_final,
        y_final=states.y_final,
        q_matrix=states.q_matrix,
        trace_integral=tr_acc,
        sigma_stoch_integral=states.s,
        drift_grad_integral=dgi_acc,
        xi_drift_weight=xdw_acc,
        min_eig_q=states.min_eig,
        valid=valid,
    )


def simulate_terminal_batch(
    model: ModelSpec,
    x0,
    y0,
    grid: TimeGrid,
    noise: Noise,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X_T, Y_T, valid) from the direction-free part of the model's kernel alone.

    On the same noise, X_T and Y_T are bit for bit those of ``simulate_batch``.
    ``valid`` checks only the direction-free quantities (see the module
    docstring): it equals the full kernel's mask unless a gradient callback is
    non-finite on a coordinate axis where sigma is finite.
    """
    x0, y0 = _prepare(model, x0, y0, grid, noise)
    if model.kind is ModelKind.BASIC:
        _, b_final, _, _, _, y_final, _, valid = _basic_states(model, x0, y0, grid, noise)
        return x0 + b_final, y_final, valid
    states = _ExtendedStates(model, x0, y0, grid, noise)
    for _ in states:
        pass
    return states.x_final, states.y_final, states.valid


def simulate_batch(model: ModelSpec, x0, y0, grid: TimeGrid,
                   noise: Noise) -> PathBatch:
    """Simulate with the kernel of the model's kind, basic or extended."""
    # the kernels are looked up as module globals at call time, so a rebinding
    # of ``simulate_basic_batch`` / ``simulate_extended_batch`` sees every call
    sim = simulate_basic_batch if model.kind is ModelKind.BASIC else simulate_extended_batch
    return sim(model, x0, y0, grid, noise)
