"""Monte Carlo estimators: semigroup values, weight and finite-difference gradients,
and the moment quantities behind the negative-moment and L^q inequalities.  The
exact values they are checked against live in ``oracles``.

Determinism contract: per-path sample values are pure functions of
(master_seed, path_index), since path i reads column i % 256 of the SFC64 block
i // 256 of each substream it draws (0 for increments, 1 for the panels' zeta
and 2 for KL modes; see ``rng`` and ``paths.standard_noise``) whatever batch
asks for it; they are assembled into
arrays ordered by path index and reduced by a fixed pairwise tree.
Serial and multi-worker runs, and any batch size, are therefore bitwise
identical.

Parallelism: every thread the package starts belongs to one pool of
``workers`` threads per worker count, which ``_pool`` builds on the first call
with ``workers > 1`` and keeps for the process.  Batches are the one
parallel axis: only ``run_batches`` hands the pool work, through ``_map``, and
only when a call runs more than one batch.  The points of a list run
inline, in order, on each tile's draw.  A call with one batch runs it on the
calling thread and starts no thread.  No pool work nests in another (``_map``
raises RuntimeError on a pool thread rather than wait on the pool), so at most
``workers`` threads work at once: the suite runs its checks, and the panels of
a check, one after another.

Batches and tiles: a batch is the unit of parallel work, and a tile is one
noise draw.  A batch holds ``batch_size`` paths (8,192 by default), or fewer:
a tiled call runs one batch per worker, but never more batches than the tiles
it spans, so no batch is narrower than a tile, and an untiled call above
``batch_size`` cuts its batches evenly.
A batch runs as consecutive tiles, each the largest multiple of
``rng.BLOCK_PATHS`` whose (P, n_steps, w) draw fits ``TILE_NORMALS`` floats
(2 MiB), w = m + d for a panel, with KL_MODES + 3 rows in place of n_steps
for a draw of KL modes (``_draw_layout``: 6,656 paths for a linear-family
panel), cut at absolute multiples of the tile, so no
tile cut splits an RNG block and a tile's (P, n_steps) arrays hold at most
2 MiB / w each; the basic kernel writes its per-point ones into the tile
scratch of the noise (``paths.Noise``).  Panels on an extended model are
untiled and keep their batches whole at any worker count: that kernel's
Python loop steps X through the whole call, a fixed count of numpy calls per
step and per block of ``paths.BLOCK_STEPS`` steps whatever its width, so a
narrower call costs more per path (BENCH_cache_tiles.json and
BENCH_extended_blocks.json measure tiles on them).  By the contract above,
batches and tiles change no result.

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
estimate at the same seed.  A linear-family model (sigma(x) = x) draws no
increments: ``paths.standard_noise`` draws K + 3 Karhunen-Loeve modes per
path, the tile computes their four Brownian functionals on [0, 1] once
(``paths.kl_functionals``), and every point scales them to its horizon,
exact in time.  At n = 1 the Lemma 3.1 points read two of them, the mean and
the spread, through ``paths.quadratic_integral``, the kernel's own Q_T
formula.  Every estimate reports the resolution of its paths as
``MCEstimate.n_steps``: the step count, or ``paths.KL_MODES`` where it read
modes (``_draw_layout``).
``estimate_lq_moments`` is the points-list form of the L^q cases: every case
reads the one (P, n_steps, 2) draw of a tile.  The points' estimates are then
correlated, each with its own validity mask.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .models import Direction, ModelKind, ModelSpec, TestFunction
from .oracles import LQ_INTEGRANDS, check_lq_case
from .paths import (
    KL_MODES,
    TimeGrid,
    brownian_left_nodes,
    kl_functionals,
    quadratic_integral,
    reads_modes,
    simulate_batch,
    simulate_terminal_batch,
    standard_increments,
    standard_modes,
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
    """A Monte Carlo mean with its standard error and path accounting.

    ``n_steps`` is the resolution of the paths: their time steps, or the KL
    modes of paths drawn as modes (``_draw_layout``).
    """

    mean: float
    stderr: float
    n_valid: int
    n_invalid: int
    n_steps: int


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


def _finalize(values: np.ndarray, valid: np.ndarray, n_steps: int) -> MCEstimate:
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
                      n_invalid=n_total - n_valid, n_steps=n_steps)


def _tile(n_steps: int, width: int) -> int:
    """The tile of a kernel whose per-step arrays have ``width`` columns: the
    largest multiple of ``rng.BLOCK_PATHS`` whose (P, n_steps, width) array fits
    ``TILE_NORMALS`` (at least one block)."""
    return max(1, TILE_NORMALS // (n_steps * width) // BLOCK_PATHS) * BLOCK_PATHS


def _draw_layout(modes: bool, n_steps: int, width: int) -> tuple[int, int]:
    """(tile, resolution) of a draw of ``width`` columns: the tile of its
    (P, rows, width) arrays, and the step count its estimates report.  A draw
    of KL modes has ``paths.KL_MODES`` + 3 rows and reports ``KL_MODES``,
    whatever ``n_steps``; a draw of increments has ``n_steps`` of each."""
    if modes:
        return _tile(KL_MODES + 3, width), KL_MODES
    return _tile(n_steps, width), n_steps


def _model_layout(model: ModelSpec, n_steps: int) -> tuple[Optional[int], int]:
    """``_draw_layout`` of a panel on ``model``, at the width m + d of the
    kernel's per-step arrays; no tile for an extended model, whose batches
    stay whole."""
    if model.kind is ModelKind.EXTENDED:
        return None, n_steps
    return _draw_layout(reads_modes(model), n_steps, model.m + model.d)


def _tiles(start: int, stop: int, tile: Optional[int]) -> list[tuple[int, int]]:
    """start..stop cut at the absolute multiples of ``tile``; whole without one."""
    if tile is None:
        return [(start, stop)]
    cuts = [start, *range((start // tile + 1) * tile, stop, tile), stop]
    return list(zip(cuts[:-1], cuts[1:]))


# set on every thread of a ``_pool``, by its initializer
_ON_POOL = contextvars.ContextVar("on_pool", default=False)


@functools.lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, built on first use and kept.
    A pool starts its threads on submit, so one built twice in a race and
    dropped holds none."""
    return ThreadPoolExecutor(max_workers=workers, initializer=_ON_POOL.set, initargs=(True,))


def _map(workers: int, fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, the items run on ``_pool(workers)``.
    Returns once every item has finished or been cancelled, and raises the
    exception of the first item, in order, that raised.  On a pool thread it
    raises RuntimeError instead: pool work that waited on the pool could
    deadlock."""
    if _ON_POOL.get():
        raise RuntimeError("estimators._map called from a pool thread")
    futures = [_pool(workers).submit(fn, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


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
    n_steps: int = 0,
) -> list[dict]:
    """For each function of ``point_fns``, one MCEstimate per column it fills,
    under the column's key, each reporting ``n_steps`` as the resolution of
    the paths (0 where the caller states none).

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
    one tile; the extended panels keep their batches whole, as their kernel's
    Python loop steps X through the whole call, a fixed count of numpy calls
    per step whatever its width, so a narrower call costs more per path.

    With ``workers > 1`` and more than one batch, the batches are mapped over
    the process pool of ``workers`` threads (``_pool``) and their results
    kept in path order; otherwise they run inline, on the calling thread,
    and no thread starts.  So ``draw`` takes the path indices alone, and the
    pool is the only parallel axis.  Inside a tile the point functions run
    inline, in order, on its one draw.  A call with a ``tile``
    runs min(workers, tiles it spans) batches, each at most ceil(n_paths /
    count) paths long, rounded up to a multiple of ``rng.BLOCK_PATHS``: no
    batch is narrower than a tile, and no RNG block is split between two
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
    n_batches = (math.ceil(n_paths / size) if tile is None
                 else min(workers, math.ceil(n_paths / tile)))
    per_batch = math.ceil(n_paths / n_batches)
    size = min(size, math.ceil(per_batch / BLOCK_PATHS) * BLOCK_PATHS)
    spans = [_tiles(*span, tile) for span in _tiles(0, n_paths, size)]

    def run_tile(start: int, stop: int) -> list:
        noise = draw(np.arange(start, stop, dtype=np.int64))
        return [(out, _all_finite(out, ok)) for out, ok in (fn(noise) for fn in point_fns)]

    def run_batch(tiles: list) -> list:
        return [run_tile(*t) for t in tiles]

    if workers > 1 and len(spans) > 1:
        results = _map(workers, run_batch, spans)
    else:
        results = [run_batch(tiles) for tiles in spans]
    tile_results = list(itertools.chain(*results))  # in path order
    estimates = []
    for k in range(len(point_fns)):
        outs, oks = zip(*(per_point[k] for per_point in tile_results))
        valid = np.concatenate(oks)
        estimates.append({key: _finalize(np.concatenate([out[key] for out in outs]), valid,
                                         n_steps)
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

    At n = 1 the integral int_0^T |x + B_t|^2 dt reads the Karhunen-Loeve
    functionals of B on [0, 1] (``paths.kl_functionals``), exact in time:
    each tile draws the KL modes of its paths once (``paths.standard_modes``,
    whatever ``n_steps``) and computes their mean m and spread v, which every
    point reads as T (|x + sqrt(T) m|^2 + T v) (``paths.quadratic_integral``,
    as the linear-family kernel reads Q_T), so a point costs O(P m).  Other n
    draw standard normals, build their random walk W (``paths.standard_walk``)
    and read the left-point sum on each point's grid
    (``paths.brownian_left_nodes``).  Either way each estimate is bit for bit
    the one-point estimate at ``seed``, whichever points share the call, and
    reports the resolution it read: ``paths.KL_MODES`` modes at n = 1, else
    ``n_steps``.  The batches are mapped over ``workers``, and the points run
    inline on each tile's draw.
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
        if quadratic:
            return kl_functionals(standard_modes(seed, idx, m))
        return standard_walk(standard_increments(seed, idx, n_steps, m))

    def moment(x, grid, drawn):
        integral = (quadratic_integral(x, grid.horizon, drawn) if quadratic
                    else _path_integral(x, grid, drawn, n_exp))
        ok = integral > 0.0
        return {"value": np.where(ok, integral, 1.0) ** (-alpha)}, ok

    point_fns = [functools.partial(moment, x, grid) for x, grid in zip(starts, grids)]
    return [col["value"] for col in run_batches(
        n_paths, draw, point_fns, workers, batch_size, *_draw_layout(quadratic, n_steps, m))]


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
    The tile builds each distinct Ito sum of the cases once on that draw
    (``_ito_sums``), and drops the draw before the cases read their sums: cases
    differing only in q raise one sum to their powers.  So each estimate is bit
    for bit the one-case estimate at ``seed``, whichever cases share the call,
    and the estimates are correlated.  Every case is checked before anything
    is drawn.  The batches are mapped over ``workers``.
    """
    grid = TimeGrid(T, n_steps)
    keys = [_lq_sum_key(name, q, grid, **kwargs) for name, q, kwargs in cases]
    distinct = list(dict.fromkeys(keys))

    def draw(idx):
        return _ito_sums(standard_increments(seed, idx, n_steps, 2), grid, distinct)

    def moment(key, q, sums):
        return {"value": np.abs(sums[key]) ** q}, np.ones(len(sums[key]), dtype=bool)

    point_fns = [functools.partial(moment, key, q) for key, (_, q, _) in zip(keys, cases)]
    return [col["value"] for col in run_batches(n_paths, draw, point_fns, workers,
                                                batch_size, _tile(n_steps, 2), n_steps)]


def _lq_sum_key(integrand: str, q: float, grid: TimeGrid,
                *, l: float = 1.0, x: float = 0.0) -> tuple:
    """The Ito sum a checked catalogue case reads: (integrand,), or
    ("sigma_row", l, x), as ``sigma_row`` alone depends on l and x."""
    check_lq_case(q, grid.horizon, l, x)
    if integrand not in LQ_INTEGRANDS:
        raise ValueError(f"unknown integrand {integrand!r}; choose from {LQ_INTEGRANDS}")
    return (integrand, l, x) if integrand == "sigma_row" else (integrand,)


def _ito_sums(eps: np.ndarray, grid: TimeGrid, keys: Sequence[tuple]) -> dict:
    """The per-path Ito sums int <rho, dBt> (P,) of ``keys`` on the standard
    normals (P, n_steps, 2) of one tile.  The increments of Bt are built once
    for all of them, and each rho is formed in place, on the left nodes of its
    walk, in two work arrays.  Each sum has the bits of
    (rho * (sqrt(dt) eps[:, :, 1])).sum(axis=1) on the catalogue's rho."""
    dbt = eps[:, :, 1] * np.sqrt(grid.dt)
    rho, work = np.empty_like(dbt), np.empty_like(dbt)
    sums = {}
    for key in keys:
        if key[0] == "constant_unit":
            sums[key] = dbt.sum(axis=1)
            continue
        if key[0] == "adapted_cos":   # rho = cos(Bt) at the left nodes
            brownian_left_nodes(0.0, standard_walk(eps[:, :, 1]), grid, out=rho)
            np.cos(rho, out=rho)
        else:   # sigma_row: rho = sign(w) |w|^l at the left nodes w of x + W
            _, l, x = key
            brownian_left_nodes(x, standard_walk(eps[:, :, 0]), grid, out=rho)
            np.abs(rho, out=work)
            work **= l
            np.sign(rho, out=rho)
            rho *= work
        rho *= dbt
        sums[key] = rho.sum(axis=1)
    return sums


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
                       *_model_layout(model, n_steps))[0]


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
    the basic kernel of every point reads the one walk of the draw, or on a
    linear-family model its one set of KL functionals.  So
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
                       *_model_layout(model, n_steps))


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
