"""Monte Carlo estimators: semigroup values, weight and finite-difference gradients,
and the moment quantities behind the negative-moment and L^q inequalities.  The
exact values they are checked against live in ``oracles``.

Determinism contract: per-path sample values are pure functions of
(master_seed, path_index), since path i reads column i % 256 of the SFC64 block
i // 256 of each substream it draws (0, and 1 for the panels' zeta; see ``rng``
and ``paths.standard_noise``) whatever batch asks for it; they are assembled into
arrays ordered by path index and reduced by a fixed pairwise tree.
Serial and multi-worker runs, and any batch size, are therefore bitwise
identical.

Parallelism: ``run_batches`` is the one place where work runs on threads.  A
call maps its batches over ``workers``, and the points of a list run inline, in
order, on each tile's draw.  Nothing else starts a thread, so no map nests in
another and at most ``workers`` threads work at once: the suite runs its
checks, and the panels of a check, one after another.

Batches and tiles: a batch is the unit of parallel work, and a tile is one
noise draw.  A batch holds ``batch_size`` paths (8,192 by default), or fewer:
a tiled call cuts more batches where it needs them to occupy its workers, and
an untiled call above ``batch_size`` cuts its batches evenly.
A batch runs as consecutive tiles, each the largest multiple of
``rng.BLOCK_PATHS`` whose (P, n_steps, w) draw fits ``TILE_NORMALS`` floats
(2 MiB), w = m + d for a panel, cut at absolute multiples of the tile, so no
tile cut splits an RNG block and a tile's (P, n_steps) arrays hold at most
2 MiB / w each; the basic kernel writes its per-point ones into the tile
scratch of the noise (``paths.Noise``).  Panels on an extended model are
untiled and keep their batches whole at any worker count: that kernel loops
over the steps in Python, and its cost per step falls with the width of the
call.  By the contract above, batches and tiles change no result.

Panels share the work of a tile across their columns.  ``bismut_panel`` runs
one simulation per tile for any list of directions: the kernels fill their
direction part along the m coordinate axes, and ``weights`` combines those
axes along each direction's v1.  ``pt_panel`` runs the direction-free part
once per distinct x-start and reads every start with that x off it, and
``fd_panel`` is that semigroup-value panel at the starts z +- eps*v,
differenced path by path (see ``_terminal_panel``).  A points-list form
shares the draw of a tile across its points: every draw is of standard
normals, and the basic kernel and ``paths.brownian_left_nodes`` read their
standard random walk, built once per tile (``paths.Noise``), scaled to each
point's own grid.  So every (T, x) point and every x-start of a tile reads
one cumulative sum, and each point's estimate is bit for bit its one-point
estimate at the same seed.  At n = 1 the Lemma 3.1 points read two per-path
statistics of the walk in its place.  ``estimate_lq_moments`` is the
points-list form of the L^q cases: every case reads the one (P, n_steps, 2)
draw of a tile.  The points' estimates are then correlated, each with its own
validity mask.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .models import Direction, ModelKind, ModelSpec, TestFunction
from .oracles import LQ_INTEGRANDS, check_lq_case
from .paths import (
    TimeGrid,
    brownian_left_nodes,
    simulate_batch,
    simulate_terminal_batch,
    standard_increments,
    standard_noise,
    standard_walk,
)
from .rng import BLOCK_PATHS
from .weights import weight_terms_shared

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "MCEstimate",
    "EstimationError",
    "pairwise_sum",
    "estimate_pt",
    "estimate_gradient_bismut",
    "estimate_gradient_fd",
    "estimate_negative_moment",
    "estimate_negative_moments",
    "estimate_lq_moment",
    "estimate_lq_moments",
    "default_fd_eps",
    "split_point",
    "pt_panel",
    "bismut_panel",
    "bismut_panels",
    "fd_panel",
]

DEFAULT_BATCH_SIZE = 8192
# floats of one (P, n_steps, w) array of a tile: 2 MiB, a per-core L2 on common hosts;
# chosen over 2^17 and 2^19 on timings of `gruschin run configs/default.json`
# (BENCH_cache_tiles.json)
TILE_NORMALS = 2**18


class EstimationError(RuntimeError):
    """Raised when an estimate cannot be formed (e.g. every path invalid)."""


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and path accounting."""

    mean: float
    stderr: float
    n_valid: int
    n_invalid: int


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise-tree sum over a 1-d array in index order."""
    x = np.ascontiguousarray(values, dtype=float)
    return _pairwise(x)


def _pairwise(x: np.ndarray) -> float:
    n = x.size
    if n <= 1024:
        return float(np.add.reduce(x))
    mid = n // 2
    return _pairwise(x[:mid]) + _pairwise(x[mid:])


def _finalize(values: np.ndarray, valid: np.ndarray) -> MCEstimate:
    n_total = len(values)
    good = values[valid]
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise EstimationError("all paths invalid; nothing to average")
    mean = pairwise_sum(good) / n_valid
    if n_valid >= 2:
        var = pairwise_sum((good - mean) ** 2) / (n_valid - 1)
        stderr = math.sqrt(var / n_valid)
    else:
        stderr = float("inf")
    return MCEstimate(mean=mean, stderr=stderr, n_valid=n_valid,
                      n_invalid=n_total - n_valid)


def _chunks(n_paths: int, batch_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + batch_size, n_paths)) for s in range(0, n_paths, batch_size)]


def _tile(n_steps: int, width: int) -> int:
    """The tile of a kernel whose per-step arrays have ``width`` columns: the
    largest multiple of ``rng.BLOCK_PATHS`` whose (P, n_steps, width) array fits
    ``TILE_NORMALS`` (at least one block)."""
    return max(1, TILE_NORMALS // (n_steps * width) // BLOCK_PATHS) * BLOCK_PATHS


def _model_tile(model: ModelSpec, n_steps: int) -> Optional[int]:
    """The tile of a panel on ``model``, at the width m + d of the kernel's
    per-step arrays; none for an extended model, whose batches stay whole."""
    if model.kind is ModelKind.EXTENDED:
        return None
    return _tile(n_steps, model.m + model.d)


def _tiles(start: int, stop: int, tile: Optional[int]) -> list[tuple[int, int]]:
    """start..stop cut at the absolute multiples of ``tile``; whole without one."""
    if tile is None:
        return [(start, stop)]
    cuts = [start, *range((start // tile + 1) * tile, stop, tile), stop]
    return list(zip(cuts[:-1], cuts[1:]))


def _all_finite(cols: dict, ok: np.ndarray) -> np.ndarray:
    """``ok`` restricted to the paths whose values are finite in every column."""
    for vals in cols.values():
        ok &= np.isfinite(vals)
    return ok


def run_batches(
    n_paths: int,
    draw: Callable[[np.ndarray], Any],
    point_fns: Sequence[Callable[[Any], tuple[dict, np.ndarray]]],
    workers: int = 1,
    batch_size: Optional[int] = None,
    tile: Optional[int] = None,
) -> list[dict]:
    """For each function of ``point_fns``, one MCEstimate per column it fills,
    under the column's key.

    ``draw(path_indices)`` returns the noise of the paths of an int64 index
    array, and each point function maps that noise to ``({key: values}, ok)``,
    with the same keys for every call.  A path counts as valid for a point if
    its ``ok`` marks it and its values are finite in every column of the
    point, and each column is averaged over the valid paths; an invalid path
    of one point leaves the counts of the others unchanged.  Tiles are
    concatenated in path order, so the result is independent of worker count,
    batch size, tile and completion order.

    A tile is one ``draw`` call, whose noise every point function reads before
    it is dropped: a batch of ``batch_size`` paths runs as the consecutive
    tiles cut at the absolute multiples of ``tile`` (see ``_tile``), so every
    tile's (P, n_steps, w) draw stays within ``TILE_NORMALS`` floats, and no
    RNG block is drawn by two tiles of one batch.  Without ``tile`` a batch is
    one tile; the extended panels keep their batches whole, as their kernel
    loops over the steps in Python and a narrower call costs more per step.

    The batches are the only parallel unit: this is the one code that starts
    threads, and nothing it runs starts more.  With ``workers > 1`` and more
    than one batch, the batches are mapped over a pool of ``workers`` threads
    and their results kept in path order; otherwise they run inline.  Inside a
    tile the point functions run inline, in order, on its one draw.  With
    ``workers > 1`` and a ``tile``, a batch is at most ceil(n_paths / workers)
    paths long, rounded up to a multiple of ``rng.BLOCK_PATHS``: a call has up
    to one batch per worker, and that cut splits no RNG block between two
    batches.  A call without ``tile`` runs the fewest batches ``batch_size``
    allows, cut evenly at ceil(n_paths / count) paths rounded up to a multiple
    of ``rng.BLOCK_PATHS`` (never above ``batch_size``): it runs inline up to
    ``batch_size`` paths at any worker count, and above that leaves no batch
    narrow, as the extended kernel costs more per path on a narrow batch.
    Without point functions nothing is drawn, and a ``batch_size`` or
    ``workers`` that is not a positive integer raises ``ValueError`` first.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    if batch_size is not None and not (isinstance(batch_size, (int, np.integer))
                                       and batch_size >= 1):
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if not point_fns:
        return []
    size = batch_size or DEFAULT_BATCH_SIZE
    n_batches = math.ceil(n_paths / size) if tile is None else workers
    per_batch = math.ceil(n_paths / n_batches)
    size = min(size, math.ceil(per_batch / BLOCK_PATHS) * BLOCK_PATHS)
    spans = [_tiles(*span, tile) for span in _chunks(n_paths, size)]

    def run_tile(start: int, stop: int) -> list:
        noise = draw(np.arange(start, stop, dtype=np.int64))
        return [(out, _all_finite(out, ok)) for out, ok in (fn(noise) for fn in point_fns)]

    def run_batch(tiles: list) -> list:
        return [run_tile(*t) for t in tiles]

    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_batch, spans))
    else:
        results = [run_batch(tiles) for tiles in spans]
    tile_results = list(itertools.chain(*results))  # in path order
    estimates = []
    for k in range(len(point_fns)):
        outs, oks = zip(*(per_point[k] for per_point in tile_results))
        valid = np.concatenate(oks)
        estimates.append({key: _finalize(np.concatenate([out[key] for out in outs]), valid)
                          for key in outs[0]})
    return estimates


def split_point(model: ModelSpec, z0) -> tuple[np.ndarray, np.ndarray]:
    """Split a finite point of R^{m+d} into its (x, y) components."""
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    if z.shape != (model.m + model.d,):
        raise ValueError(f"z0 must have shape ({model.m + model.d},), got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError(f"z0 must be finite, got {z}")
    return z[: model.m], z[model.m:]


def default_fd_eps(z0) -> float:
    return 1e-3 * (1.0 + float(np.linalg.norm(np.asarray(z0, dtype=float))))


def estimate_pt(model: ModelSpec, f: TestFunction, z0, T: float,
                n_paths: int, n_steps: int, seed: int,
                *, workers: int = 1, batch_size: Optional[int] = None) -> MCEstimate:
    """Monte Carlo estimate of the semigroup value E f(X_T, Y_T) from (x, y) = z0.

    The one-observable case of ``pt_panel``.
    """
    panel = pt_panel(model, [z0], T, [f], n_paths, n_steps, seed,
                     workers=workers, batch_size=batch_size)
    return panel[("pt", f.name, 0)]


def estimate_gradient_bismut(model: ModelSpec, f: TestFunction, z0, v: Direction,
                             T: float, n_paths: int, n_steps: int, seed: int,
                             *, workers: int = 1,
                             batch_size: Optional[int] = None) -> MCEstimate:
    """Directional semigroup derivative via the weight representation E[f * M_T].

    The one-observable, one-direction case of ``bismut_panel``.  The observable
    should be bounded or polynomially bounded so that f * M_T is integrable (the
    weight has finite moments of every order).
    """
    panel = bismut_panel(model, z0, T, [f], [v], n_paths, n_steps, seed,
                         workers=workers, batch_size=batch_size)
    return panel[("grad", f.name, 0)]


def estimate_gradient_fd(model: ModelSpec, f: TestFunction, z0, v: Direction,
                         T: float, n_paths: int, n_steps: int, seed: int,
                         eps: Optional[float] = None,
                         *, workers: int = 1,
                         batch_size: Optional[int] = None) -> MCEstimate:
    """Central finite difference of the semigroup along v with common random numbers.

    The one-observable, one-direction case of ``fd_panel``.
    """
    panel = fd_panel(model, z0, T, [f], [v], n_paths, n_steps, seed, eps,
                     workers=workers, batch_size=batch_size)
    return panel[("grad_fd", f.name, 0)]


def estimate_negative_moment(m: int, x, T: float, n_exp: float, alpha: float,
                             n_paths: int, n_steps: int, seed: int,
                             *, workers: int = 1,
                             batch_size: Optional[int] = None) -> MCEstimate:
    """E (int_0^T |x + B_t|^{2n} dt)^{-alpha} for an m-dimensional Brownian path.

    The one-point case of ``estimate_negative_moments``.
    """
    return estimate_negative_moments(m, [(x, T)], n_exp, alpha, n_paths, n_steps, seed,
                                     workers=workers, batch_size=batch_size)[0]


def estimate_negative_moments(m: int, points: Sequence[tuple], n_exp: float, alpha: float,
                              n_paths: int, n_steps: int, seed: int,
                              *, workers: int = 1,
                              batch_size: Optional[int] = None) -> list[MCEstimate]:
    """``estimate_negative_moment`` at every (x, T) of ``points``, in order.

    Each tile draws its standard normals once and builds their random walk W
    (``paths.standard_walk``), which every point reads on its own grid, so
    each estimate is bit for bit the one-point estimate at ``seed``, whichever
    points share the call.  At n = 1 the path is x + sqrt(dt) W_k, so the
    integral is T (|x + sqrt(dt) m_W|^2 + dt v_W), with m_W the mean of W over
    the left nodes and v_W its centred mean square (``_left_node_statistics``):
    the tile computes those once and a point costs O(P m), not O(P n_steps m).
    Other n read the path (``paths.brownian_left_nodes``).  The batches are
    mapped over ``workers``, and the points run inline on each tile's draw.
    """
    if not (1 <= n_exp < math.inf):
        raise ValueError("moment exponent n must be finite and satisfy n >= 1")
    if not (0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")
    starts = [np.atleast_1d(np.asarray(x, dtype=float)) for x, _ in points]
    for x in starts:
        if x.shape != (m,):
            raise ValueError(f"x must have shape ({m},)")
        if not np.isfinite(x).all():
            raise ValueError(f"x must be finite, got {x}")
    grids = [TimeGrid(T, n_steps) for _, T in points]

    quadratic = n_exp == 1.0

    def draw(idx):
        walk = standard_walk(standard_increments(seed, idx, n_steps, m))
        return _left_node_statistics(walk) if quadratic else walk

    def moment(x, grid, drawn):
        integral = (_quadratic_integral(x, grid, drawn) if quadratic
                    else _path_integral(x, grid, drawn, n_exp))
        ok = integral > 0.0
        return {"value": np.where(ok, integral, 1.0) ** (-alpha)}, ok

    point_fns = [functools.partial(moment, x, grid) for x, grid in zip(starts, grids)]
    return [col["value"] for col in run_batches(n_paths, draw, point_fns, workers,
                                                batch_size, _tile(n_steps, m))]


def _left_node_statistics(walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean m_W (P, m) of a walk W (P, n + 1, m) over its left nodes
    W_0..W_{n-1}, and its centred mean square v_W = mean_k |W_k - m_W|^2 (P,)."""
    left = walk[:, :-1]
    w_mean = left.mean(axis=1)
    dev = left - w_mean[:, None]
    return w_mean, np.mean(np.sum(dev * dev, axis=2), axis=1)


def _quadratic_integral(x: np.ndarray, grid: TimeGrid,
                        statistics: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """T mean_k |x + h W_k|^2 = T (|x + h m_W|^2 + h^2 v_W), h = sqrt(dt), from
    the ``_left_node_statistics`` of W: a sum of two nonnegative terms, with
    no cancellation."""
    w_mean, w_var = statistics
    shifted = x + np.sqrt(grid.dt) * w_mean
    return grid.horizon * (np.sum(shifted * shifted, axis=1) + grid.dt * w_var)


def _path_integral(x: np.ndarray, grid: TimeGrid, walk: np.ndarray,
                   n_exp: float) -> np.ndarray:
    """T mean_k |x + h W_k|^(2 n_exp), the left-point sum on the path of W."""
    x_left, _ = brownian_left_nodes(x, walk, grid)
    r = np.abs(x_left[..., 0]) if x_left.shape[-1] == 1 else np.linalg.norm(x_left, axis=-1)
    return grid.horizon * np.mean(r ** (2.0 * n_exp), axis=1)


# ---------------------------------------------------------------------------
# L^q moments: the left-hand sides of the catalogue of ``oracles.LQ_INTEGRANDS``
# ---------------------------------------------------------------------------

def estimate_lq_moment(integrand: str, q: float, T: float,
                       n_paths: int, n_steps: int, seed: int,
                       *, l: float = 1.0, x: float = 0.0,
                       workers: int = 1,
                       batch_size: Optional[int] = None) -> MCEstimate:
    """Left-hand side E |int_0^T <rho_t, dBt_t>|^q for a catalogued predictable rho.

    Catalogue (all one-dimensional):
      constant_unit -- rho_t = 1;
      adapted_cos   -- rho_t = cos(Bt_{t}) at the left node (bounded, adapted);
      sigma_row     -- rho_t = (x + W_t)^l with W an independent Brownian motion.

    The one-case form of ``estimate_lq_moments``.
    """
    return estimate_lq_moments([(integrand, q, {"l": l, "x": x})], T, n_paths, n_steps,
                               seed, workers=workers, batch_size=batch_size)[0]


def estimate_lq_moments(cases: Sequence[tuple[str, float, dict]], T: float,
                        n_paths: int, n_steps: int, seed: int,
                        *, workers: int = 1,
                        batch_size: Optional[int] = None) -> list[MCEstimate]:
    """``estimate_lq_moment`` for every (integrand, q, {l, x}) of ``cases``, in order.

    Each tile draws one (P, n_steps, 2) array of standard normals: column 1
    drives the integrator Bt, and column 0 the independent W of ``sigma_row``.
    Every case reads that draw, inline, so each estimate is bit for bit the
    one-case estimate at ``seed``, whichever cases share the call, and the
    estimates are correlated.  Every case is checked before anything is drawn.
    The batches are mapped over ``workers``.
    """
    grid = TimeGrid(T, n_steps)
    point_fns = [_lq_integral(name, q, grid, **kwargs) for name, q, kwargs in cases]

    def draw(idx):
        return standard_increments(seed, idx, n_steps, 2)

    return [col["value"] for col in run_batches(n_paths, draw, point_fns, workers,
                                                batch_size, _tile(n_steps, 2))]


def _lq_integral(integrand: str, q: float, grid: TimeGrid,
                 *, l: float = 1.0, x: float = 0.0) -> Callable:
    """The per-path |int <rho, dBt>|^q of one catalogue case, as a point
    function of the standard normals (P, n_steps, 2) of ``estimate_lq_moments``."""
    check_lq_case(q, grid.horizon, l, x)
    if integrand not in LQ_INTEGRANDS:
        raise ValueError(f"unknown integrand {integrand!r}; choose from {LQ_INTEGRANDS}")

    def moment(eps):
        if integrand == "constant_unit":
            rho = 1.0
        elif integrand == "adapted_cos":
            rho = np.cos(brownian_left_nodes(0.0, standard_walk(eps[:, :, 1]), grid)[0])
        else:  # sigma_row
            w_left, _ = brownian_left_nodes(x, standard_walk(eps[:, :, 0]), grid)
            rho = np.sign(w_left) * np.abs(w_left) ** l
        n_T = (rho * (eps[:, :, 1] * np.sqrt(grid.dt))).sum(axis=1)   # the Ito sum
        return {"value": np.abs(n_T) ** q}, np.ones(len(n_T), dtype=bool)

    return moment


# ---------------------------------------------------------------------------
# Panels: many observables / directions off shared simulations
# ---------------------------------------------------------------------------

def _terminal_panel(model: ModelSpec, starts: Sequence, T: float,
                    columns: Callable[[list[np.ndarray]], dict],
                    n_paths: int, n_steps: int, seed: int,
                    workers: int, batch_size: Optional[int]) -> dict:
    """The MCEstimates of ``columns(finals)``, ``finals`` the terminal states
    Z_T (P, m + d) from every start point of ``starts``, in order.

    Every start is checked before anything is drawn, and every start of a tile
    runs on its one noise draw, whose walk the basic kernel builds once.  The
    coefficients depend on x alone, so on fixed noise a shift of y0 only
    translates Y_T: each distinct x-start is simulated once, at y0 = 0, and a
    start (x, y) reads its terminal state as (X_T, y + Y_T), bit for bit the
    state a simulation from (x, y) would give.
    All columns share one validity mask: a path is invalid in every column if
    it is invalid from any start or any of its column values is not finite.

    The simulations run only the direction-free part of the kernel
    (``simulate_terminal_batch``), so the mask checks the quantities that
    determine the terminal state and no gradient.  For every builtin model it
    is the one the full kernel gives.  A custom model whose gradient callback
    (``grad_sigma``, and for the extended kind ``grad_sigma1``, ``grad_b1`` or
    ``grad_b2``) is not finite on the coordinate axes where sigma is finite
    gets those paths counted valid here, as their terminal state is well
    defined, while ``bismut_panel``, which needs the derivative, counts them
    invalid.
    """
    points = [split_point(model, z) for z in starts]
    grid = TimeGrid(T, n_steps)
    y_origin = np.zeros(model.d)

    def draw(idx):
        return standard_noise(seed, idx, n_steps, model)

    def panel(noise):
        sims = {}  # x-start bytes -> (X_T, Y_T, valid) simulated from (x-start, 0)
        ok = np.ones(len(noise.zeta), dtype=bool)
        finals = []
        for x_start, y_start in points:
            key = x_start.tobytes()
            if key not in sims:
                sims[key] = simulate_terminal_batch(model, x_start, y_origin, grid, noise)
            x_final, y_rel, valid = sims[key]
            y_final = y_start + y_rel
            ok &= valid & np.isfinite(y_final).all(axis=1)
            finals.append(np.concatenate([x_final, y_final], axis=1))
        return columns(finals), ok

    return run_batches(n_paths, draw, [panel], workers, batch_size,
                       _model_tile(model, n_steps))[0]


def pt_panel(model: ModelSpec, starts: Sequence, T: float, fs: Sequence[TestFunction],
             n_paths: int, n_steps: int, seed: int,
             *, workers: int = 1, batch_size: Optional[int] = None) -> dict:
    """Semigroup values E f(X_T, Y_T) for every f from every start point.

    Maps ("pt", f.name, k), k indexing ``starts``, to MCEstimates that share
    one validity mask (see ``_terminal_panel``).  A panel with no observable or
    no start is refused before anything is drawn.
    """
    if not fs or not starts:
        raise ValueError("pt_panel needs at least one observable and one start")
    def values(finals):
        return {("pt", f.name, k): np.asarray(f.eval(z_final), dtype=float)
                for f in fs for k, z_final in enumerate(finals)}

    return _terminal_panel(model, starts, T, values, n_paths, n_steps, seed,
                           workers, batch_size)


def bismut_panel(model: ModelSpec, z0, T: float,
                 fs: Sequence[TestFunction], vs: Sequence[Direction],
                 n_paths: int, n_steps: int, seed: int,
                 *, extra_obs: Sequence[tuple[str, Callable]] = (),
                 workers: int = 1, batch_size: Optional[int] = None) -> dict:
    """Weight-gradient estimates for every (f, v) plus plain semigroup observables.

    The one-point case of ``bismut_panels``.  Each tile draws its noise once
    and runs one simulation, whose direction part runs along the m coordinate
    axes; every direction's weight is the combination of those axes along its
    v1 (``weights.weight_terms_shared``), so an entry does not depend on which
    other directions share the panel.  The returned dict maps
    ("grad", f.name, j) and ("pt", label) to MCEstimates.  All estimates share
    one validity mask: a path counts as invalid in every column if its
    simulation is invalid, its Q_T is not solvable, or any of its column values
    is not finite.
    """
    return bismut_panels(model, [(z0, T)], fs, vs, n_paths, n_steps, seed,
                         extra_obs=extra_obs, workers=workers, batch_size=batch_size)[0]


def bismut_panels(model: ModelSpec, points: Sequence[tuple],
                  fs: Sequence[TestFunction], vs: Sequence[Direction],
                  n_paths: int, n_steps: int, seed: int,
                  *, extra_obs: Sequence[tuple[str, Callable]] = (),
                  workers: int = 1, batch_size: Optional[int] = None) -> list[dict]:
    """``bismut_panel`` at every (z0, T) of ``points``, in order.

    Each tile draws its standard normals once (``paths.standard_noise``), and
    every point passes them with its own grid to ``simulate_batch``, whose
    kernel scales them: by Brownian scaling one draw serves every horizon, and
    the basic kernel of every point reads the one walk of the draw.  So
    each panel is bit for bit the one-point panel at ``seed``, whichever points
    share the call, and each keeps its own validity mask.  The batches are
    mapped over ``workers``, and the points run inline on each tile's draw.
    A panel with no direction, or with neither an observable nor an
    ``extra_obs``, is refused before anything is drawn.
    """
    if not vs:
        raise ValueError("bismut_panel needs at least one direction")
    if not fs and not extra_obs:
        raise ValueError("bismut_panel needs at least one observable or extra_obs")
    grids = [TimeGrid(T, n_steps) for _, T in points]

    def draw(idx):
        return standard_noise(seed, idx, n_steps, model)

    def columns(x0, y0, grid, noise):
        batch = simulate_batch(model, x0, y0, grid, noise)
        ok = np.ones(len(batch), dtype=bool)
        m_t = []
        for v in vs:
            drift, trace, inner, solvable = weight_terms_shared(batch, v)
            ok &= solvable  # solvable implies batch.valid
            m_t.append(np.where(solvable, drift + trace + inner, 0.0))
        z_final = batch.z_final
        fvals = [np.asarray(f.eval(z_final), dtype=float) for f in fs]
        out = {("grad", f.name, j): fval * m_t[j]
               for f, fval in zip(fs, fvals) for j in range(len(vs))}
        for label, fn in extra_obs:
            out[("pt", label)] = np.asarray(fn(z_final), dtype=float)
        return out, ok

    point_fns = [functools.partial(columns, *split_point(model, z0), grid)
                 for (z0, _), grid in zip(points, grids)]
    return run_batches(n_paths, draw, point_fns, workers, batch_size,
                       _model_tile(model, n_steps))


def fd_panel(model: ModelSpec, z0, T: float,
             fs: Sequence[TestFunction], vs: Sequence[Direction],
             n_paths: int, n_steps: int, seed: int,
             eps: Optional[float] = None,
             *, workers: int = 1, batch_size: Optional[int] = None) -> dict:
    """Common-random-number central differences for every (f, v) pair.

    The semigroup-value panel at the starts z +- eps*v of every direction,
    differenced path by path: ("grad_fd", f.name, j) is the MCEstimate of
    (f(Z_T^+) - f(Z_T^-)) / (2 eps) along ``vs[j]``.  Every start reuses one
    noise draw per tile, so the per-path difference has drastically reduced
    variance, and directions with v1 = 0 share the unshifted x-path.  All
    estimates share one validity mask (see ``_terminal_panel``).  A panel with
    no observable or no direction is refused before anything is drawn.
    """
    if not fs or not vs:
        raise ValueError("fd_panel needs at least one observable and one direction")
    z = np.concatenate(split_point(model, z0))
    eps = default_fd_eps(z) if eps is None else float(eps)
    if not (0 < eps < math.inf):
        raise ValueError("eps must be positive and finite")
    shifts = [eps * np.concatenate([v.v1, v.v2]) for v in vs]
    starts = [z_start for shift in shifts for z_start in (z + shift, z - shift)]

    def differences(finals):
        return {("grad_fd", f.name, j): (np.asarray(f.eval(z_up), dtype=float)
                                         - np.asarray(f.eval(z_dn), dtype=float)) / (2.0 * eps)
                for f in fs for j, (z_up, z_dn) in enumerate(zip(finals[::2], finals[1::2]))}

    return _terminal_panel(model, starts, T, differences, n_paths, n_steps, seed,
                           workers, batch_size)
