"""In-memory span tracing of calls into the ``gruschin`` layers.

The tracer wraps public functions of each module from outside the package, for
the traced run only, and restores them afterwards; ``src/`` is not edited.  A
span records (name, start, end, parent, thread).  Spans stay in memory until
the traced pass ends, when ``layer_metrics`` reduces them.

Self time is a span's duration minus the durations of its children.  Children
are found through the parent index, which a per-thread stack sets, so spans of
different threads never subtract from each other.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import threading
import time

import numpy as np

import gruschin
from gruschin import analysis, cli, estimators, linalg, models, paths, rng, weights

_MODULES = (gruschin, rng, paths, weights, linalg, models, estimators, analysis, cli)

COEFF_FIELDS = ("sigma", "grad_sigma", "sigma_scalar", "grad_sigma_scalar",
                "sigma1", "grad_sigma1", "b1", "grad_b1", "b2", "grad_b2")

ESTIMATORS = ("bismut_panel", "fd_panel", "estimate_pt", "estimate_gradient_bismut",
              "estimate_gradient_fd", "estimate_negative_moment", "estimate_lq_moment")

CHECKS = {"check_a5": "a5", "check_a6": "a6", "check_lemma31": "lemma31",
          "check_lemma_ll": "lemma_ll", "check_harnack_suite": "harnack"}

# (metric, unit) in output order; every traced run reports all of them
LAYER_METRICS = (
    [("rng.busy_s", "s"), ("rng.calls", "count"), ("rng.normals", "count"),
     ("rng.mb", "MB"), ("rng.unique_frac", "ratio"),
     ("paths.scalar_s", "s"), ("paths.matrix_s", "s"), ("paths.extended_s", "s"),
     ("paths.path_steps", "count"), ("paths.invalid_frac", "ratio"),
     ("models.coeff_s", "s"), ("models.eval_s", "s"), ("models.eval_calls", "count"),
     ("weights.busy_s", "s"), ("weights.calls", "count"), ("weights.unsolvable_frac", "ratio"),
     ("linalg.spd_solve_s", "s"), ("linalg.spd_solve_rows", "count")]
    + [(f"estimators.{fn}_s", "s") for fn in ESTIMATORS]
    + [("estimators.reduce_s", "s"), ("estimators.self_s", "s")]
    + [(f"analysis.{short}_s", "s") for short in CHECKS.values()]
    + [("analysis.self_s", "s"),
       ("cli.bismut_vs_fd_s", "s"), ("cli.reduction_s", "s"), ("cli.write_s", "s"),
       ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
       ("trace.wall_s", "s"), ("trace.uncovered_s", "s"), ("trace.overhead_s", "s")]
)

# span name -> the self-time metric it feeds; these partition the traced wall time
SELF_METRIC = {
    "rng.fill_normals": "rng.busy_s",
    "paths.scalar": "paths.scalar_s",
    "paths.matrix": "paths.matrix_s",
    "paths.extended": "paths.extended_s",
    "models.coeff": "models.coeff_s",
    "models.eval": "models.eval_s",
    "weights.weight_terms": "weights.busy_s",
    "linalg.spd_solve": "linalg.spd_solve_s",
    "estimators.pairwise_sum": "estimators.reduce_s",
}
SELF_METRIC.update({f"estimators.{fn}": "estimators.self_s" for fn in ESTIMATORS})
SELF_METRIC.update({f"analysis.{fn}": "analysis.self_s" for fn in CHECKS})
SELF_METRIC.update({f"cli.{fn}": "cli.self_s"
                    for fn in ("run_experiment", "_run_bismut_vs_fd", "_run_reduction")})


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, thread]
        self.counts = collections.Counter()
        self.blocks: dict[tuple, list] = collections.defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's arguments.

        ``after(args, kwargs, result)`` records counts once the span has closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(index)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                with tracer._lock:
                    after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, replacement) -> None:
        """Point every binding of ``original`` in the package at ``replacement``."""
        for mod in _MODULES:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def patch(self, module, attr, name, after=None) -> None:
        original = getattr(module, attr)
        self._rebind(original, self.wrap(name, original, after))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- inputs built by the workload --------------------------------------

    def model(self, spec):
        """The model with every coefficient closure timed as ``models.coeff``."""
        fields = {f: self.wrap("models.coeff", getattr(spec, f))
                  for f in COEFF_FIELDS if getattr(spec, f) is not None}
        return dataclasses.replace(spec, **fields)

    def test_function(self, f):
        def count(args, kwargs, result):
            self.counts["eval_calls"] += 1

        return dataclasses.replace(f, eval=self.wrap("models.eval", f.eval, count))

    def trace_builtin_models(self) -> None:
        """Trace models and observables that the program builds by name."""
        build_model, build_obs = models.builtin_model, models.observable
        self._rebind(build_model, lambda *a, **k: self.model(build_model(*a, **k)))
        self._rebind(build_obs, lambda *a, **k: self.test_function(build_obs(*a, **k)))

    # -- the layer boundaries ------------------------------------------------

    def install(self) -> None:
        counts, blocks = self.counts, self.blocks

        fill = rng.PathStreams.fill_normals
        fill_args = _bound(fill)

        def after_fill(args, kwargs, out):
            a = fill_args(args, kwargs)
            streams = a["self"]
            counts["rng_calls"] += 1
            counts["rng_normals"] += out.size
            key = (streams.master_seed, streams.substream, tuple(a["shape"]))
            blocks[key].append(np.asarray(a["path_indices"], dtype=np.int64).copy())

        rng.PathStreams.fill_normals = self.wrap("rng.fill_normals", fill, after_fill)
        self._undo.append((rng.PathStreams, "fill_normals", fill))

        def counting_paths(fn):
            bind = _bound(fn)

            def after_sim(args, kwargs, batch):
                counts["paths"] += len(batch)
                counts["path_steps"] += len(batch) * bind(args, kwargs)["grid"].n_steps
                counts["invalid_paths"] += int(np.count_nonzero(~batch.valid))

            return bind, after_sim

        bind_basic, after_basic = counting_paths(paths.simulate_basic_batch)
        self.patch(paths, "simulate_basic_batch",
                   lambda args, kwargs: ("paths.scalar" if bind_basic(args, kwargs)["model"]
                                         .scalar_identity else "paths.matrix"),
                   after_basic)
        self.patch(paths, "simulate_extended_batch", "paths.extended",
                   counting_paths(paths.simulate_extended_batch)[1])

        def after_weights(args, kwargs, result):
            solvable = result[3]
            counts["weights_calls"] += 1
            counts["weight_rows"] += len(solvable)
            counts["unsolvable_rows"] += int(np.count_nonzero(~solvable))

        # weight_terms_batch delegates to weight_terms_shared, so this sees every call once
        self.patch(weights, "weight_terms_shared", "weights.weight_terms", after_weights)

        def after_solve(args, kwargs, result):
            counts["spd_solve_rows"] += int(np.asarray(args[0]).shape[0])

        self.patch(weights, "spd_solve", "linalg.spd_solve", after_solve)
        self.patch(estimators, "pairwise_sum", "estimators.pairwise_sum")
        for fn in ESTIMATORS:
            self.patch(estimators, fn, f"estimators.{fn}")
        for fn in CHECKS:
            self.patch(analysis, fn, f"analysis.{fn}")
        for fn in ("run_experiment", "_run_bismut_vs_fd", "_run_reduction"):
            self.patch(cli, fn, f"cli.{fn}")

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, wall: float, main_thread: int) -> dict[str, float]:
        """Per-layer numbers for one traced pass of ``wall`` seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        last_child_end: dict[int, float] = {}
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
                last_child_end[parent] = max(last_child_end.get(parent, start), end)

        out = {metric: 0.0 for metric, _ in LAYER_METRICS}
        covered = 0.0
        for i, (name, start, end, parent, thread) in enumerate(spans):
            dur = end - start
            out[SELF_METRIC[name]] += dur - child_time[i]
            if parent is None and thread == main_thread:
                covered += dur
            fn = name.split(".", 1)[1]
            if name.startswith("estimators.") and fn in ESTIMATORS:
                out[f"estimators.{fn}_s"] += dur
            elif name.startswith("analysis."):
                out[f"analysis.{CHECKS[fn]}_s"] += dur
            elif name == "cli._run_bismut_vs_fd":
                out["cli.bismut_vs_fd_s"] += dur
            elif name == "cli._run_reduction":
                out["cli.reduction_s"] += dur
            elif name == "cli.run_experiment":
                # artifacts are rendered and written after the last check returns
                out["cli.write_s"] += end - last_child_end.get(i, start)

        c = self.counts
        drawn = sum(len(a) for arrs in self.blocks.values() for a in arrs)
        unique = sum(len(np.unique(np.concatenate(arrs))) for arrs in self.blocks.values())
        out.update({
            "rng.calls": c["rng_calls"],
            "rng.normals": c["rng_normals"],
            "rng.mb": c["rng_normals"] * 8 / 1e6,
            "rng.unique_frac": unique / drawn if drawn else 0.0,
            "paths.path_steps": c["path_steps"],
            "paths.invalid_frac": c["invalid_paths"] / c["paths"] if c["paths"] else 0.0,
            "models.eval_calls": c["eval_calls"],
            "weights.calls": c["weights_calls"],
            "weights.unsolvable_frac": (c["unsolvable_rows"] / c["weight_rows"]
                                        if c["weight_rows"] else 0.0),
            "linalg.spd_solve_rows": c["spd_solve_rows"],
            "trace.wall_s": wall,
            "trace.uncovered_s": wall - covered,
        })
        return out


def self_time_sum(metrics: dict[str, float]) -> float:
    """Sum of the self-time metrics; with ``trace.uncovered_s`` it equals the wall."""
    return sum(metrics[m] for m in set(SELF_METRIC.values()))

