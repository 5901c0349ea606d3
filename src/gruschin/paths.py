"""Path simulation over a uniform grid, accumulating every functional the weights need.

All discretization is left-point (Ito), except for the linear family, which is
exact in time (below):

* Basic model: the X-component has unit diffusion and no drift, so X is advanced
  by exact Brownian accumulation (no scheme error in X); every integral uses
  left-endpoint sums.
* Extended model: X advances by the Euler step.  The auxiliary process xi
  carries the singular drift -xi/(T-t), handled by the exact integrating
  factor (T-t-dt)/(T-t) per step, which telescopes and pins xi to 0 at the
  final node.

Time integrals are evaluated as T * mean(integrand over left nodes), which equals
the left Riemann sum but is exact for constant integrands.

Y is not simulated: it reads the second Brownian motion B~ only through
S = int sigma(X) dB~, which given the B path is exactly N(0, Q_T), Q_T the
left-point sum of sigma sigma^* dt (the integral itself for the linear
family, below).  The kernels set S = R zeta, with one
zeta ~ N(0, I_d) per path and R the PSD square root of Q_T (``_root_times``),
so (X_T, Y_T) has the law of the left-point scheme driven by (B, B~).

The basic kernel has three forms.  For the linear family (``Family.LINEAR``,
sigma(x) = x, m = d = 1) it is exact in time and reads no step: the weight
reads the path only through B_T, Q_T = int_0^T (x0 + B_t)^2 dt and the trace
term C = int_0^T ((T-t)/T) (x0 + B_t) dt, and these are linear or diagonal
quadratic forms in the Karhunen-Loeve coordinates of B (``kl_functionals``).
By Brownian scaling they are read off four functionals of one Brownian
motion on [0, 1] -- its end B_1, its mean m = int B, its decay-weighted mean
u = int (1-s) B_s ds and its spread v = int (B - m)^2 -- as B_T = sqrt(T) B_1,
Q_T = T ((x0 + sqrt(T) m)^2 + T v) (``quadratic_integral``, which Lemma 3.1
reads too: a sum of two nonnegative terms, with no cancellation) and
C = T (x0/2 + sqrt(T) u).  So one draw serves every horizon, no callback
runs, and a point costs O(P).  A scalar-times-identity sigma works on (P, n)
arrays of the scalar field.  Any other sigma is read as its callbacks return
it, (P, n, d, d), and a contiguous array is not copied: Q_T = T sum_k
sigma_k sigma_k^* / n and the trace term T sum_k L_k sigma_k^* / n, with
L_k = ((T-t_k)/T) grad sigma(X_k), are each one batched product over the
steps of the flattened d^2 entries, whose diagonal blocks sum to the d x d
result (``_step_gram``).  The square root of Q_T is closed-form at d = 2.
Each path's products read only its own rows, so a path gives the same bits
alone as in any batch.

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
the extended kernel carries xi as (P, m, m), column i the xi started at e_i.
Every such functional is linear in the direction on fixed noise, so
``weights`` reads any direction v off one batch as sum_i v1_i (slot i).
Each kernel is one function, ``_basic_kernel`` or ``_extended_kernel``, whose
direction part its caller switches on with ``axes``:
``simulate_basic_batch`` and ``simulate_extended_batch`` run both parts;
``simulate_terminal_batch`` runs only the first, for callers that read nothing
but (X_T, Y_T) and the validity mask.  The terminal mask checks only
direction-free quantities: it agrees with the full kernel's unless a
gradient callback is non-finite on a coordinate axis where sigma is finite.

The extended kernel runs in blocks of ``BLOCK_STEPS`` steps.  Its step loop
advances X alone, with the sigma1 and b1 callbacks, and keeps a block's
left nodes and sigma1 values in the scratch of the noise; every other
callback runs once per block on those nodes (per axis for a gradient), so
Python steps through nothing but the X recursion and each numpy call spans a
block.  Every gradient callback is linear in its direction (``ModelSpec``),
so the xi step is a linear map, xi_{k+1} = f_k (I + A_k) xi_k, read off the
gradients along the axes; the running products of a block's step matrices
carry xi to its every node, and a gradient along xi is the xi-weighted sum
of those along the axes.  A block's steps are summed by halving, row by row
(``_step_sum``).  The block length is a constant, so the order of every sum
is fixed and a path gives the same bits in any batch.

Both kernels fill the same functionals, so ``weights`` assembles M_T by one
formula.  In particular slot i of ``xi_drift_weight`` is the extended model's
int <sigma1^{-1} xi^i_t/(T-t), dB_t>, and the basic kernel stores the value that
integral takes in the sigma1 = I, b1 = 0 reduction, B_T/T.

Every kernel takes its noise as one required argument, a ``Noise`` as
``standard_noise`` draws it, one record per path: zeta (P, d) for S, and for
B either the KL modes (P, KL_MODES + 3, m) of a basic linear-family model or
the increments eps (P, n_steps, m) of any other model.  The kernel checks the
shapes, draws nothing itself and scales to its own grid: by Brownian scaling
the increments on [0, T] are sqrt(T/n_steps) eps, and the functionals of the
modes scale as above, so one draw serves every horizon T, bit for bit.

A Brownian motion on [0, 1] is B_t = sum_k xi_k sqrt(2) sin(omega_k t) / omega_k,
omega_k = (k - 1/2) pi, with xi_k independent standard normals (Kac and
Siegert, 1947).  The modes of a path are its first K = ``KL_MODES`` xi_k and
three more normals, which draw the part of (B_1, m, u) that the modes beyond
K carry, exactly: a Gaussian with the 3x3 tail covariance, the exact
covariance of the three minus that of the K-term head.  int B^2 is
sum_k xi_k^2 / omega_k^2; its tail beyond K is set to its conditional mean
given the three tail normals, so E int B^2 = 1/2 holds exactly and v is at
least the tail variance the three normals leave unexplained.  The tail
constants are computed once per K, on first use (``_kl_weights``).  Each
functional is one einsum contraction per row over its K + 3 modes, with no
product across rows and no BLAS, so a path's functionals do not depend on its
batch.

The other basic kernels read the standard random walk W of eps (W_0 = 0,
W_k = eps_0 + ... + eps_{k-1}, ``standard_walk``), which a ``Noise`` builds
on first read and keeps as long as the noise lives, so every point and every
x-start simulated on one draw reads one cumulative sum; a linear ``Noise``
keeps its ``kl_functionals`` the same way.  A ``Noise`` also holds the tile
scratch, into which the basic kernel writes each point's left nodes of X and,
for a scalar sigma, the step products sigma^2 and w (grad_e sigma) sigma that
Q_T and the trace term average, or for any other sigma the weighted steps
w (grad_e sigma), and the extended kernel a block's increments, left nodes
and sigma1 values; nothing a kernel returns aliases it.
``brownian_left_nodes`` is the one builder of Brownian paths on a grid: it
reads a walk as start + sqrt(dt) W at the left nodes and sqrt(dt) W_n at T.
The extended kernel scales a block of eps at a time into its scratch, so it
builds no walk.  Row p of every output is a function of row p of
the noise alone, so a path gives the same bits in any batch, and running two
kernels (or two horizons) on one draw needs no other entry point.
``standard_noise`` draws the noise of a path as one record of
``rng.PathStreams``, zeta first and then eps (substream 0) or the modes
(substream 2), so one generator per block serves both: the noise of path i
is a pure function of (master_seed, i), zeta does not depend on n_steps,
and the first k steps of a draw equal a k-step draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import Family, ModelKind, ModelSpec
from .rng import PathStreams

__all__ = [
    "BLOCK_STEPS",
    "KL_MODES",
    "TimeGrid",
    "PathBatch",
    "Noise",
    "KLFunctionals",
    "brownian_left_nodes",
    "kl_functionals",
    "reads_modes",
    "standard_increments",
    "standard_modes",
    "standard_noise",
    "standard_walk",
    "quadratic_integral",
    "simulate_basic_batch",
    "simulate_extended_batch",
    "simulate_batch",
    "simulate_terminal_batch",
]

# Karhunen-Loeve modes per path and coordinate of a linear-family or Lemma 3.1
# (n = 1) draw, which adds three normals for the tail beyond them
KL_MODES = 16
# steps per block of the extended kernel, whose step loop advances X alone and
# reads every other functional off a block's left nodes at once; fixed, so a
# path's bits never depend on its batch (BENCH_extended_blocks.json)
BLOCK_STEPS = 6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]: node k sits at T*k/n_steps (final node exactly T)."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
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


def reads_modes(model: ModelSpec) -> bool:
    """Whether the kernel of ``model`` reads KL modes, not increments, and so
    ``standard_noise`` draws them: a basic linear-family model."""
    return model.family is Family.LINEAR and model.kind is ModelKind.BASIC


def standard_increments(master_seed: int, path_indices, n_steps: int,
                        width: int) -> np.ndarray:
    """Standard normals (P, n_steps, width) from substream 0: those of a path are
    a pure function of (master_seed, path index)."""
    return PathStreams(master_seed).fill_normals(np.asarray(path_indices), (n_steps, width))


def standard_modes(master_seed: int, path_indices, width: int) -> np.ndarray:
    """Standard normals (P, KL_MODES + 3, width) from substream 2: the KL modes
    and the three tail normals of ``width`` independent Brownian motions per
    path (``kl_functionals``), a pure function of (master_seed, path index)."""
    return PathStreams(master_seed, substream=2).fill_normals(
        np.asarray(path_indices), (KL_MODES + 3, width))


def standard_walk(eps: np.ndarray) -> np.ndarray:
    """The standard random walk of eps (P, n_steps, ...): W (P, n_steps + 1, ...)
    with W_0 = 0 and W_k = eps_0 + ... + eps_{k-1}."""
    walk = np.empty((eps.shape[0], eps.shape[1] + 1) + eps.shape[2:])
    walk[:, 0] = 0.0
    np.cumsum(eps, axis=1, out=walk[:, 1:])
    return walk


@functools.lru_cache(maxsize=None)
def _kl_weights(n_modes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, q, tau): the Brownian functionals on [0, 1] as forms in K = n_modes
    KL modes xi_1..xi_K and three tail normals eta, computed once per K.

    Row j of L (3, K + 3) weighs the modes and eta into L_j, for L = (B_1,
    int B, int (1-s) B_s ds): xi_k enters B_1 with sqrt(2) sin(omega_k)/omega_k,
    int B with sqrt(2)/omega_k^2 and the decay-weighted mean with
    sqrt(2) (1/omega_k^2 - sin(omega_k)/omega_k^3), sin(omega_k) = (-1)^(k+1),
    and eta through a root R of the tail covariance (exact minus head).  Then
    int B^2 = sum_k q_k xi_k^2 + sum_i q_{K+i} eta_i^2 + tau: the head exactly,
    and the tail sum_{k>K} xi_k^2/omega_k^2 by its conditional mean given eta.
    Given L_tail = R eta, the tail modes have mean Psi eta with Psi^T Psi = I,
    so the mean is eta^T (Psi^T D Psi) eta + tr D - tr(Psi^T D Psi), D the tail
    diag(omega_k^-2); R is chosen so that Psi^T D Psi is diagonal (its
    eigenvalues q_{K+i}), and tau = tr D - sum_i q_{K+i} >= 0 is the variance the
    three leave unexplained.  Every tail sum is its closed form over all modes
    minus the K-term head.  The tail covariance has eigenvalues from about 1e-10
    to 1e-2 at K = 16, so its root comes from ``eigh``, not a Cholesky factor.
    Those differences lose digits as K grows: at K = 16 the smallest q_{K+i}
    is good to about 1e-4 relative (an error near 1e-8 in int B^2, and none
    in its mean, which tau keeps exact), and well above K = 32 the tail would
    need summing term by term.  So a K whose tail weights q_{K+i} or tau come
    out <= 0 raises ValueError (K = 64 does) rather than return forms that can
    put int B^2 below its head.
    """
    k = np.arange(1, n_modes + 1)
    omega = (k - 0.5) * np.pi
    sign = np.where(k % 2 == 1, 1.0, -1.0)
    head = math.sqrt(2.0) * np.array([sign / omega, 1.0 / omega**2,
                                      1.0 / omega**2 - sign / omega**3])
    # the full sums over all modes: Cov(L), and int_0^1 psi_i psi_j dt for the
    # covariances psi_j(t) = Cov(B_t, L_j) = (t, t - t^2/2, t/2 - t^2/2 + t^3/6)
    covariance = np.array([[1, 1 / 2, 1 / 6], [1 / 2, 1 / 3, 1 / 8],
                           [1 / 6, 1 / 8, 1 / 20]]) - head @ head.T
    gram = np.array([[1 / 3, 5 / 24, 3 / 40], [5 / 24, 2 / 15, 7 / 144],
                     [3 / 40, 7 / 144, 1 / 56]]) - (head / omega**2) @ head.T
    lam, u = np.linalg.eigh(covariance)
    gamma, v = np.linalg.eigh((u.T @ gram @ u) / np.sqrt(np.outer(lam, lam)))
    root = (u * np.sqrt(lam)) @ v
    tau = 0.5 - float(np.sum(1.0 / omega**2)) - float(np.sum(gamma))
    if not (np.all(gamma > 0) and tau > 0):
        raise ValueError(f"{n_modes} KL modes leave a tail weight <= 0: the closed-form "
                         "tail sums have lost their digits")
    weights, quad = np.concatenate([head, root], axis=1), np.concatenate([1.0 / omega**2, gamma])
    weights.setflags(write=False)   # the cache hands the same arrays to every caller
    quad.setflags(write=False)
    return weights, quad, tau


class KLFunctionals(NamedTuple):
    """Functionals of Brownian motions B on [0, 1], per path and coordinate."""

    end: np.ndarray       # (P, m) B_1
    mean: np.ndarray      # (P, m) m = int_0^1 B_s ds
    decay: np.ndarray     # (P, m) u = int_0^1 (1 - s) B_s ds
    spread: np.ndarray    # (P,)   v = int_0^1 |B_s - m|^2 ds, summed over the coordinates


def kl_functionals(modes: np.ndarray) -> KLFunctionals:
    """The ``KLFunctionals`` of the KL modes (P, K + 3, m) of ``standard_modes``
    or ``standard_noise``, by the forms of ``_kl_weights``: (B_1, m, u) have
    their exact joint law, and int B^2 is exact in its K-mode head and its
    tail's conditional mean beyond.  v = int B^2 - m^2 coordinate by
    coordinate, at least the unexplained tail variance tau > 0.  Each is one
    ``np.einsum`` contraction over the modes of a row, without ``optimize``: no
    BLAS runs and no product spans two rows, so a path's functionals do not
    depend on its batch.  The modes are contracted where they lie when the
    modes of a coordinate are adjacent (m = 1, also in a row of a noise
    record), and from a contiguous copy otherwise."""
    weights, quad, tau = _kl_weights(modes.shape[1] - 3)
    x = np.moveaxis(modes, 1, 2)                                      # (P, m, K + 3)
    if x.strides[2] != x.itemsize:
        x = np.ascontiguousarray(x)
    linear = np.einsum("pmk,jk->pmj", x, weights)                     # (P, m, 3)
    mean = linear[..., 1]
    square = np.einsum("pmk,pmk,k->pm", x, x, quad) + tau             # int B^2, (P, m)
    return KLFunctionals(end=linear[..., 0], mean=mean, decay=linear[..., 2],
                         spread=np.sum(square - mean * mean, axis=1))


def quadratic_integral(x: np.ndarray, horizon: float, functionals: KLFunctionals) -> np.ndarray:
    """int_0^T |x + B_t|^2 dt = T (|x + sqrt(T) m|^2 + T v) on [0, T], T the
    horizon, from the ``KLFunctionals`` of B on [0, 1] by Brownian scaling: a
    sum of two nonnegative terms, with no cancellation."""
    shifted = x + math.sqrt(horizon) * functionals.mean
    return horizon * (np.sum(shifted * shifted, axis=1) + horizon * functionals.spread)


class Noise:
    """The kernel noise of a batch: zeta (P, d), and either the KL modes
    (P, KL_MODES + 3, m) of a basic linear-family model or the standard normals
    eps (P, n_steps, m) of any other; the modes' ``functionals`` or the walk of
    eps, each built on first read, and the tile scratch.

    A noise belongs to one tile of one batch, and one thread reads it: a
    call's batches run one per thread, and the point functions of a batch
    run in order (``estimators.run_batches``), so the thread that draws a
    noise is the one that reads it.  The walk and the functionals are built
    once, on first read, and live as long as the noise.  So does the
    tile scratch: float64 buffers that the basic kernel fills anew at each
    point simulated on the noise (the left nodes of X and, for a scalar
    sigma, the step products that Q_T and the trace term average, or for
    any other sigma the weighted gradient steps), and that the extended
    kernel fills at each block (its increments, left nodes and sigma1
    values), so that no point allocates them again.  Nothing a kernel
    returns aliases the scratch or the functionals.
    """

    def __init__(self, eps: np.ndarray | None, zeta: np.ndarray,
                 modes: np.ndarray | None = None):
        self.eps, self.zeta, self.modes = eps, zeta, modes
        self._walk = None
        self._functionals = None
        self._scratch = {}

    @property
    def walk(self) -> np.ndarray:
        """``standard_walk(eps)``, (P, n_steps + 1, m)."""
        if self._walk is None:
            self._walk = standard_walk(self.eps)
        return self._walk

    @property
    def functionals(self) -> KLFunctionals:
        """``kl_functionals(modes)``."""
        if self._functionals is None:
            self._functionals = kl_functionals(self.modes)
        return self._functionals

    def scratch(self, name: str, shape: tuple) -> np.ndarray:
        """The float64 scratch buffer ``name``, made uninitialised with
        ``shape`` on first request and reused while the noise lives, so a
        caller overwrites what the last one left there."""
        if name not in self._scratch:
            self._scratch[name] = np.empty(shape)
        return self._scratch[name]


def standard_noise(master_seed: int, path_indices, n_steps: int,
                   model: ModelSpec) -> Noise:
    """The kernel noise of the paths, one record of d + rows * m normals per
    path from one ``PathStreams.fill_normals`` call: zeta (P, d) is its first
    d entries, and the rows (P, rows, m) follow.  For a basic linear-family
    model the rows are the KL_MODES + 3 modes of ``kl_functionals``, drawn
    from substream 2 whatever ``n_steps``; for any other model they are the
    standard normals eps (P, n_steps, m), drawn from substream 0, the
    increments of B on any grid of ``n_steps`` steps once a kernel scales
    them.  The record leads with zeta, so zeta does not depend on
    ``n_steps`` and the first k rows of a draw equal a k-row draw.  zeta is
    copied out contiguous; the rows are a view of the record."""
    idx = np.asarray(path_indices)
    linear = reads_modes(model)
    rows = KL_MODES + 3 if linear else n_steps
    record = PathStreams(master_seed, substream=2 if linear else 0).fill_normals(
        idx, (model.d + rows * model.m,))
    zeta = np.ascontiguousarray(record[:, :model.d])
    drawn = record[:, model.d:].reshape(len(record), rows, model.m)
    if linear:
        return Noise(None, zeta, modes=drawn)
    return Noise(drawn, zeta)


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


def _step_gram(left, right) -> np.ndarray:
    """sum_k L_k R_k^* (P, d, d) of two step arrays (P, n, d, d), as the
    callbacks return them.

    Each step flattens to its d^2 entries (a reshape, no copy of a contiguous
    array), one batched product over the steps forms the (d^2, d^2) Gram
    G[(i, j), (l, r)] = sum_k L_k[i, j] R_k[l, r] of each path, and the sum of
    its diagonal blocks, j = r, is the result.  Neither input is written.
    """
    left = np.ascontiguousarray(left, dtype=float)
    right = np.ascontiguousarray(right, dtype=float)
    P, n, d, _ = left.shape
    gram = left.reshape(P, n, d * d).transpose(0, 2, 1) @ right.reshape(P, n, d * d)
    return np.einsum("pijlj->pil", gram.reshape(P, d, d, d, d))


def _root_times(q: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R zeta, min eig Q_T) for R the PSD square root of Q_T (P, d, d).

    R = sqrt(Q_T) for d = 1.  For d = 2, R has a closed form (Levinger, Math.
    Mag. 53, 1980): R = (Q + s I)/sqrt(tr Q + 2 s) with s = sqrt(det Q), and
    the smallest eigenvalue is det Q / lambda_max, lambda_max = tr Q/2 +
    sqrt(((a - c)/2)^2 + b^2) for Q = [[a, b], [b, c]] read off the lower
    triangle.  Q is divided by its larger diagonal entry first, so det Q
    cannot overflow at any finite scale, and Q = 0 gives R = 0 and min eig 0.
    For d >= 3, R = U diag(sqrt(lambda+)) U^T from one batched ``eigh``.  Each
    form is continuous in Q_T, so Q_T that agree to rounding give S that
    agree to rounding.  Non-finite rows are decomposed as I, with smallest
    eigenvalue NaN; their paths are invalid.
    """
    d = q.shape[-1]
    if d == 1:
        return np.sqrt(q[:, 0]) * zeta, q[:, 0, 0]
    finite = np.isfinite(q).all(axis=(1, 2))
    q = np.where(finite[:, None, None], q, np.eye(d))
    if d == 2:
        scale = np.maximum(q[:, 0, 0], q[:, 1, 1])
        # Q / scale, and I for Q = 0, whose scale 0 then zeroes R and min eig
        unit = np.where((scale > 0.0)[:, None, None],
                        q / np.where(scale > 0.0, scale, 1.0)[:, None, None], np.eye(2))
        a, b, c = unit[:, 0, 0], unit[:, 1, 0], unit[:, 1, 1]
        det = np.maximum(a * c - b * b, 0.0)
        s = np.sqrt(det)
        lam_max = 0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b)   # in [1, 2]
        factor = np.sqrt(scale / (a + c + 2.0 * s))
        z0, z1 = zeta[:, 0], zeta[:, 1]
        root_zeta = np.stack([(a + s) * z0 + b * z1, b * z0 + (c + s) * z1], axis=1)
        return factor[:, None] * root_zeta, np.where(finite, det / lam_max * scale, np.nan)
    lam, u = np.linalg.eigh(q)
    root = (u * np.sqrt(np.maximum(lam, 0.0))[:, None, :]) @ u.transpose(0, 2, 1)
    return (root @ zeta[..., None])[..., 0], np.where(finite, lam[:, 0], np.nan)


def _sigma_integral(q: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_T, S, min eig Q_T) of an integral of sigma sigma^* dt: a (P,) scalar
    q of a scalar sigma, for Q_T = q I_d with root sqrt(q) I_d, or a
    (P, d, d) Q_T, whose root is ``_root_times``."""
    if q.ndim == 1:
        return q[:, None, None] * np.eye(zeta.shape[1]), np.sqrt(q)[:, None] * zeta, q
    return (q, *_root_times(q, zeta))


def _running_products(steps: np.ndarray) -> None:
    """Overwrite each steps[k] of a (B, P, m, m) array with the running
    product steps[k] ... steps[0]: ceil(log2 B) doubling rounds of one
    batched product each (Hillis and Steele, 1986), in place of B dependent
    steps."""
    span = 1
    while span < len(steps):
        steps[span:] = np.einsum("kpab,kpbc->kpac", steps[span:], steps[:-span])
        span *= 2


def _step_sum(values: np.ndarray) -> np.ndarray:
    """The sum over the leading (step) axis of ``values``, by halving: it adds
    whole rows only, so a path's sum takes one order whatever the number of
    paths beside it (``np.sum`` would sum a lone path's steps pairwise).
    ``values`` is not written; the halves after the first are added in place."""
    summed = None
    while len(values) > 1:
        half = len(values) // 2
        summed = np.add(values[:half], values[half:2 * half],
                        out=None if summed is None else summed[:half])
        if len(values) % 2:
            summed[0] += values[-1]
        values = summed
    return values[0]


def _at_directions(axis_values: list, directions: np.ndarray) -> np.ndarray:
    """sum_j directions[..., j] axis_values[j]: a callback that is linear in
    its direction, at the directions (B, P, m), from its values (B, P, ...)
    along the coordinate axes e_j."""
    return functools.reduce(np.add, (
        directions[..., j].reshape(directions.shape[:2] + (1,) * (value.ndim - 2)) * value
        for j, value in enumerate(axis_values)))


def _prepare(model: ModelSpec, x0, y0, grid: TimeGrid,
             noise: Noise) -> tuple[np.ndarray, np.ndarray]:
    """Checked starting point (x0, y0) of a kernel call on ``noise``.

    The noise must be a ``Noise`` with zeta (P, d), P = len(zeta), and the
    modes (P, KL_MODES + 3, m) of a basic linear-family model or the eps
    (P, n_steps, m) of any other, so noise drawn for another batch, another
    step count or another kind of model is refused, not truncated.
    """
    x0 = _as_state(x0, model.m, "x0")
    y0 = _as_state(y0, model.d, "y0")
    if not isinstance(noise, Noise):
        raise TypeError(f"noise must be a paths.Noise, got {type(noise).__name__}")
    P = len(noise.zeta)
    if reads_modes(model):
        name, drawn, want = "modes", noise.modes, (P, KL_MODES + 3, model.m)
    else:
        name, drawn, want = "eps", noise.eps, (P, grid.n_steps, model.m)
    if np.shape(drawn) != want or np.shape(noise.zeta) != (P, model.d):
        raise ValueError(f"noise has shapes {np.shape(drawn)} ({name}) and "
                         f"{np.shape(noise.zeta)}; expected {want} and ({P}, {model.d})")
    return x0, y0


def _basic_kernel(model: ModelSpec, x0: np.ndarray, y0: np.ndarray, grid: TimeGrid,
                  noise: Noise, axes: bool):
    """The basic kernel on the noise: a ``PathBatch`` if ``axes``, else
    (X_T, Y_T, valid) from its direction-free part alone.

    The linear family (sigma(x) = x) reads the ``KLFunctionals`` that the noise
    keeps, scaled to the horizon, and calls no callback.  Otherwise the left
    nodes of X on the walk of the noise live in its scratch, as do, for a
    scalar sigma, the step products sigma^2 and w (grad_e sigma) sigma, and
    for any other sigma the weighted steps w (grad_e sigma), whose
    ``_step_gram`` with sigma is the trace term.
    """
    P, m, d = len(noise.zeta), model.m, model.d
    n, T = grid.n_steps, grid.horizon
    linear = reads_modes(model)
    if linear:
        # B_T = sqrt(T) B_1 and Q_T = T ((x0 + sqrt(T) m)^2 + T v), exact in time
        functionals = noise.functionals
        b_final = math.sqrt(T) * functionals.end
        q = quadratic_integral(x0, T, functionals)
    else:
        x_left, b_final = brownian_left_nodes(
            x0, noise.walk, grid, out=noise.scratch("nodes", noise.eps.shape))
        if model.scalar_identity:
            field = np.asarray(model.sigma_scalar(x_left), dtype=float)   # (P, n)
            steps = np.multiply(field, field, out=noise.scratch("steps", noise.eps.shape[:2]))
            q = T * np.mean(steps, axis=1)
        else:
            field = np.ascontiguousarray(model.sigma(x_left), dtype=float)   # (P, n, d, d)
            q = T * _step_gram(field, field) / n
    q_matrix, s, min_eig = _sigma_integral(q, noise.zeta)
    y_final = y0 + s
    valid = (
        np.isfinite(q_matrix).all(axis=(1, 2))
        & np.isfinite(s).all(axis=1)
        & np.isfinite(y_final).all(axis=1)
    )
    if not axes:
        return x0 + b_final, y_final, valid

    if linear:
        # grad_e sigma = 1 on the one axis: C = int_0^T ((T-t)/T) X_t dt = T (x0/2 + sqrt(T) u)
        trace_integral = (T * (0.5 * x0 + math.sqrt(T) * functionals.decay))[:, :, None, None]
    else:
        w = grid.decay_weights()
        slots = []      # int ((T-t)/T){(grad_e sigma) sigma^*} dt, (P, d, d) per axis e
        for e in np.eye(m):
            if model.scalar_identity:
                # w_k (grad_e sigma)(X_k) sigma(X_k), in the scratch that held sigma^2
                np.multiply(w, np.asarray(model.grad_sigma_scalar(x_left, e), dtype=float),
                            out=steps)
                steps *= field
                slots.append((T * np.mean(steps, axis=1))[:, None, None] * np.eye(d))
            else:
                # w_k (grad_e sigma)(X_k) in the scratch, as the callback's array
                # may be read-only
                weighted = np.multiply(np.asarray(model.grad_sigma(x_left, e), dtype=float),
                                       w[:, None, None],
                                       out=noise.scratch("weighted", field.shape))
                slots.append(T * _step_gram(weighted, field) / n)
        trace_integral = np.stack(slots, axis=1)
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


def _extended_kernel(model: ModelSpec, x0: np.ndarray, y0: np.ndarray, grid: TimeGrid,
                     noise: Noise, axes: bool):
    """The extended kernel in blocks of ``BLOCK_STEPS`` steps: a ``PathBatch``
    if ``axes``, else (X_T, Y_T, valid) from its direction-free part alone.

    The step loop advances X alone, X_{k+1} = X_k + sigma1(X_k) dB_k +
    b1(X_k) dt, and writes each left node X_k and sigma1(X_k) into the
    scratch of the noise, step-major: (B, P, ...), so a sum over a block's
    steps adds whole rows (``_step_sum``).  Every other functional is read
    off a block's left nodes at once, with one call of each other callback
    per block (per axis for a gradient).  The direction-free part adds the
    block's steps of Q_T (scalar products, or ``_step_gram`` for a matrix
    sigma) and of int b2 dt, and flags a singular sigma1.

    If ``axes``, the direction part advances xi, whose column i is the xi
    started at e_i.  Every gradient callback is linear in its direction
    (``ModelSpec``), so xi_{k+1} = M_k xi_k, M_k = f_k (I + A_k), with f_k the
    integrating factor and column j of A_k (grad_{e_j} sigma1) dB_k +
    (grad_{e_j} b1) dt; the running products of xi and a block's M_k
    (``_running_products``) give xi at its every node.  A gradient along xi
    is the sum of those along the axes, weighted by the entries of xi
    (``_at_directions``), so the steps of the trace term and of
    int grad_xi b2 dt are weighted by xi as the basic kernel's are by the
    decay weights, and the xi-drift weight sums
    <xi_k, sigma1(X_k)^{-T} dB_k>/(T-t_k).  ``valid`` asks X_T, Y_T, Q_T and S
    finite and sigma1 invertible at every node, and with ``axes`` also the
    direction functionals finite.
    """
    eps = noise.eps
    P, m, d = len(eps), model.m, model.d
    n, T, dt, h = grid.n_steps, grid.horizon, grid.dt, np.sqrt(grid.dt)
    scalar = model.scalar_identity
    width = min(BLOCK_STEPS, n)
    block_db = noise.scratch("block_db", (width, P, m))
    block_x = noise.scratch("block_x", (width, P, m))
    block_sigma1 = noise.scratch("block_sigma1", (width, P, m, m))
    x = np.broadcast_to(x0, (P, m)).copy()
    b_final = np.zeros((P, m))
    q_sum = np.zeros((P,) if scalar else (P, d, d))
    ydrift_sum = np.zeros((P, d))
    singular = np.zeros(P, dtype=bool)

    remaining = T - grid.times()               # (n+1,), exactly 0 at the final node
    factors = remaining[1:] / remaining[:n]    # integrating factors, last one exactly 0
    eye = np.eye(m)
    xi = np.broadcast_to(eye, (P, m, m)).copy()     # column i starts at e_i
    tr_sum = np.zeros((P, m) if scalar else (P, m, d, d))
    dgi_sum = np.zeros((P, m, d))
    xdw_sum = np.zeros((P, m))

    for start in range(0, n, width):
        stop = min(start + width, n)
        db = np.multiply(eps[:, start:stop].transpose(1, 0, 2), h,
                         out=block_db[:stop - start])                # (B, P, m)
        x_left, s1 = block_x[:stop - start], block_sigma1[:stop - start]
        for j in range(stop - start):
            x_left[j] = x
            s1_now = np.asarray(model.sigma1(x), dtype=float)         # (P, m, m)
            s1[j] = s1_now
            x = (x + np.einsum("pij,pj->pi", s1_now, db[j])
                 + np.asarray(model.b1(x), dtype=float) * dt)
            b_final += db[j]

        if m == 1:
            bad = np.abs(s1[..., 0, 0]) < 1e-300
        else:
            bad = np.abs(np.linalg.det(s1)) <= 1e-12 * np.abs(s1).max(axis=(2, 3)) ** m
        singular |= bad.any(axis=0)
        if scalar:
            field = np.asarray(model.sigma_scalar(x_left), dtype=float)       # (B, P)
            q_sum += _step_sum(field * field)
        else:
            field = np.asarray(model.sigma(x_left), dtype=float)              # (B, P, d, d)
            field = np.ascontiguousarray(field.transpose(1, 0, 2, 3))        # (P, B, d, d)
            q_sum += _step_gram(field, field)
        ydrift_sum += _step_sum(np.asarray(model.b2(x_left), dtype=float))
        if not axes:
            continue

        # xi at the block's nodes: the running products of xi and the block's M_k,
        # column j of A_k along e_j
        xis = np.empty((stop - start + 1, P, m, m))
        xis[0] = xi
        for j, e in enumerate(eye):
            np.einsum("kpab,kpb->kpa", np.asarray(model.grad_sigma1(x_left, e), dtype=float),
                      db, out=xis[1:, ..., j])
            xis[1:, ..., j] += np.asarray(model.grad_b1(x_left, e), dtype=float) * dt
        xis[1:] += eye
        xis[1:] *= factors[start:stop, None, None, None]
        _running_products(xis)
        xi, xi_left = xis[-1].copy(), xis[:-1]
        # z_k = sigma1^{-T} dB_k / (T - t_k), a singular sigma1 read as I, in
        # the scratch of sigma1 and dB
        s1[bad] = eye
        if m == 1:
            z = np.divide(db, s1[..., 0], out=db)
        else:
            z = db
            z[...] = np.linalg.solve(np.swapaxes(s1, 2, 3), db[..., None])[..., 0]
        z /= remaining[start:stop, None, None]
        xdw_sum += _step_sum(np.einsum("kpa,kpai->kpi", z, xi_left))
        grad = model.grad_sigma_scalar if scalar else model.grad_sigma
        grads = [np.asarray(grad(x_left, e), dtype=float) for e in eye]
        for i in range(m):
            along = _at_directions(grads, xi_left[..., i])
            if scalar:
                tr_sum[:, i] += _step_sum(np.multiply(along, field, out=along))
            else:
                tr_sum[:, i] += _step_gram(along.transpose(1, 0, 2, 3), field)
        del grads   # block arrays are dropped as soon as read: they set the peak RSS
        drift_grads = [np.asarray(model.grad_b2(x_left, e), dtype=float) for e in eye]
        for i in range(m):
            dgi_sum[:, i] += _step_sum(_at_directions(drift_grads, xi_left[..., i]))
        del xis, xi_left, drift_grads

    q_matrix, s, min_eig = _sigma_integral(T * q_sum / n, noise.zeta)
    y_final = y0 + (s + T * ydrift_sum / n)
    valid = (
        np.isfinite(x).all(axis=1)
        & np.isfinite(y_final).all(axis=1)
        & np.isfinite(q_matrix).all(axis=(1, 2))
        & np.isfinite(s).all(axis=1)
        & ~singular
    )
    if not axes:
        return x, y_final, valid
    trace_integral = T * tr_sum / n
    if scalar:
        trace_integral = trace_integral[:, :, None, None] * np.eye(d)
    drift_grad_integral = T * dgi_sum / n
    valid &= (
        np.isfinite(trace_integral).all(axis=(1, 2, 3))
        & np.isfinite(drift_grad_integral).all(axis=(1, 2))
        & np.isfinite(xdw_sum).all(axis=1)
    )

    return PathBatch(
        b_final=b_final,
        x_final=x,
        y_final=y_final,
        q_matrix=q_matrix,
        trace_integral=trace_integral,
        sigma_stoch_integral=s,
        drift_grad_integral=drift_grad_integral,
        xi_drift_weight=xdw_sum,
        min_eig_q=min_eig,
        valid=valid,
    )


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
    return _basic_kernel(model, x0, y0, grid, noise, axes=True)


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
    return _extended_kernel(model, x0, y0, grid, noise, axes=True)


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
    kernel = _basic_kernel if model.kind is ModelKind.BASIC else _extended_kernel
    return kernel(model, x0, y0, grid, noise, axes=False)


def simulate_batch(model: ModelSpec, x0, y0, grid: TimeGrid,
                   noise: Noise) -> PathBatch:
    """Simulate with the kernel of the model's kind, basic or extended."""
    # the kernels are looked up as module globals at call time, so a rebinding
    # of ``simulate_basic_batch`` / ``simulate_extended_batch`` sees every call
    sim = simulate_basic_batch if model.kind is ModelKind.BASIC else simulate_extended_batch
    return sim(model, x0, y0, grid, noise)
