"""One benchmark process: set up a workload, then time or trace its passes.

Started by run.py with ``PYTHONPATH=src`` and BLAS threads pinned to 1.  The
last line of standard output is one JSON object for run.py; lines before it
name every failed operation.  After set-up, one reference pass is checked
against the oracles; then every timed pass of a run has the same inputs, is
checked for validity, and must reproduce the first timed pass bit for bit.

    --setup-only   import, build and warm up, then report setup_s
    --trace 0      alternate workers=1 and workers=2 passes until --seconds is used
    --trace 1      alternate untraced and traced workers=1 passes
"""

import time

T0 = time.perf_counter()   # setup_s counts from here: importing gruschin is set-up

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import traceback
from pathlib import Path

import numpy as np

import workloads  # noqa: E402  (imports gruschin)

ACCURACY = 1e-3   # time_to_accuracy_s is the time to a stderr of this size
CAL_REF_S = 0.025  # calibration time that defines the reference host speed

# end-to-end metrics measured here; run.py adds setup_s from several processes
E2E_UNITS = {"wall_s": "s", "wall_s.w2": "s", "scaling_eff": "ratio",
             "time_to_accuracy_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


class Ledger:
    """Operations attempted and failed; failures are printed as they happen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ops, tag: str) -> None:
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                print(f"FAILED [{tag}] {op.name}: {op.detail}", flush=True)


def calibrate() -> float:
    """Time a fixed numpy kernel that does not touch gruschin: the host-speed probe.

    The shared host's core speed drifts by up to 2x over minutes; dividing pass
    times by this kernel's time, taken on the same CPUs just before and after
    each pass, removes most of that drift.  See README.md.
    """
    gen = np.random.Generator(np.random.Philox(key=[1, 2]))
    t = time.perf_counter()
    for _ in range(2):
        x = gen.standard_normal((2048, 50, 2))
        y = np.cumsum(x, axis=1)
        np.einsum("pni,pnj->pij", y, y)
        np.sin(y).sum() + np.tanh(x).sum()
    return time.perf_counter() - t


def calibrate_on(cpus: set) -> float:
    """Mean calibration time over ``cpus``, with this thread pinned to each in turn."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(calibrate())
    return statistics.fmean(times)


def check_reference(name: str, root: Path, work: Path, ledger: Ledger):
    """Run the reference pass at workers=1 and check it against the oracles.

    The oracles are 4-sigma bands: on inputs that change from run to run, a
    correct program would fail one of them by chance in some runs.  The
    reference pass has the same inputs in every run, so every run of the same
    code checks the same estimates.  It also warms the process up.  Returns
    the reference workload and its finished outcome, or None if the program
    raised.
    """
    ref = workloads.build(name, root, workloads.reference_seed(root), work)
    try:
        done = ref.finish(ref.run_pass(1))
    except Exception:
        ledger.record([workloads.Op("pass", False, traceback.format_exc())], "reference")
        return None
    ledger.record(ref.check(done), "reference")
    return ref, done


class Checker:
    """Validity of every timed pass, and the determinism probe across them.

    Every timed pass, at either worker count and traced or not, must give the
    outputs of the first bit for bit.
    """

    def __init__(self, wl, ledger: Ledger):
        self.wl = wl
        self.ledger = ledger
        self.fingerprint = None

    def __call__(self, done, tag: str) -> None:
        self.ledger.record(self.wl.validate(done), tag)
        if self.fingerprint is None:
            self.fingerprint = self.wl.fingerprint(done)
            return
        same = self.wl.fingerprint(done) == self.fingerprint
        self.ledger.record([workloads.Op("determinism", same, "outputs differ from those "
                                         "of the first pass on the same inputs")], tag)


def _timed_pass(wl, workers: int, checker: Checker, tag: str):
    """Run one pass; returns (wall, finished outcome), or None if the program raised."""
    try:
        t = time.perf_counter()
        outcome = wl.run_pass(workers)
        wall = time.perf_counter() - t
        done = wl.finish(outcome)
    except Exception:
        checker.ledger.record([workloads.Op("pass", False, traceback.format_exc())], tag)
        return None
    checker(done, tag)
    return wall, done


def _pairs(seconds: float):
    """Pair indices until the next pair would likely end after ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        t_pair = time.perf_counter()
        yield index
        index += 1
        now = time.perf_counter()
        if now - start + (now - t_pair) > seconds:
            return


def measure(wl, seconds: float, ledger: Ledger, reference) -> dict:
    """Alternate workers=1 and workers=2 passes on the same inputs."""
    checker = Checker(wl, ledger)
    walls = {1: [], 2: []}
    scaled = {1: [], 2: []}
    # workers=1 passes run pinned to one CPU and workers=2 passes to two, so the
    # calibration measures the CPUs that the pass uses (their speeds differ)
    mask = os.sched_getaffinity(0)
    cpus = {1: set(sorted(mask)[:1]), 2: set(sorted(mask)[:2])}
    try:
        for index in _pairs(seconds):
            res = {}
            for workers in ((1, 2) if index % 2 == 0 else (2, 1)):
                before = calibrate_on(cpus[workers])
                os.sched_setaffinity(0, cpus[workers])
                res[workers] = _timed_pass(wl, workers, checker,
                                           f"pass {index} workers={workers}")
                after = calibrate_on(cpus[workers])
                if res[workers] is not None:
                    walls[workers].append(res[workers][0])
                    scaled[workers].append(res[workers][0] * 2.0 * CAL_REF_S
                                           / (before + after))
    finally:
        os.sched_setaffinity(0, mask)
    if not walls[1] or not walls[2]:
        raise SystemExit("no pass completed at one of the worker counts")

    # each pass is scaled to the reference host speed by the calibrations just
    # before and after it, which removes the host's drift; the median then
    # removes the slow outliers that the calibration misses
    wall = statistics.median(scaled[1])
    wall_w2 = statistics.median(scaled[2])
    # the stderrs of the reference pass, the same in every run, so the figure
    # moves with the estimators' variance and not with one seed's sampling
    # noise; the median over estimates, because the weight of y_squared is
    # heavy tailed and its stderr would set a mean
    ref, ref_done = reference
    accuracy = statistics.median((se / ACCURACY) ** 2 for se in ref.stderrs(ref_done))
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "passes": {"workers=1": walls[1], "workers=2": walls[2]},
        "pinned_cpus": {f"workers={w}": sorted(c) for w, c in cpus.items()},
        "metrics": {
            "wall_s": wall,
            "wall_s.w2": wall_w2,
            "scaling_eff": wall / (2.0 * wall_w2),
            "time_to_accuracy_s": wall * accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - ledger.failed / ledger.attempted,
        },
    }


def trace(wl, seconds: float, ledger: Ledger) -> dict:
    """Alternate untraced and traced workers=1 passes on the same inputs."""
    import tracer as tr

    checker = Checker(wl, ledger)
    untraced, traced = [], []
    main_thread = threading.get_ident()
    for index in _pairs(seconds):
        plain = _timed_pass(wl, 1, checker, f"pass {index} untraced")
        if plain is not None:
            untraced.append(plain[0])

        t = tr.Tracer()
        traced_wl = wl.trace_inputs(t)
        t.install()
        try:
            res = _timed_pass(traced_wl, 1, checker, f"pass {index} traced")
        finally:
            t.restore()
        if res is None:
            continue
        wall, done = res
        layers = t.layer_metrics(wall, main_thread)
        layers["cli.artifact_bytes"] = wl.artifact_bytes(done)
        covered = tr.self_time_sum(layers) + layers["trace.uncovered_s"]
        ledger.record([workloads.Op(
            "trace accounting", abs(covered - wall) <= 1e-9 * max(wall, 1.0),
            f"self times + uncovered = {covered!r}, wall = {wall!r}")], f"pass {index} traced")
        traced.append(layers)
    if not untraced or not traced:
        raise SystemExit("no untraced or no traced pass completed")

    # report the traced pass of median wall time whole, so its parts still add up
    traced.sort(key=lambda m: m["trace.wall_s"])
    layers = traced[(len(traced) - 1) // 2]
    layers["trace.overhead_s"] = (statistics.median(m["trace.wall_s"] for m in traced)
                                  - statistics.median(untraced))
    return {"attempted": ledger.attempted, "failed": ledger.failed,
            "passes": {"untraced": untraced, "traced": [m["trace.wall_s"] for m in traced]},
            "metrics": layers}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measuring time; not used by --setup-only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="working directory for artifacts")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.build(args.workload, Path.cwd(), args.seed, Path(args.work))
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    calibrate()  # warm
    setup_s *= CAL_REF_S / statistics.fmean(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ledger = Ledger()
    reference = check_reference(args.workload, Path.cwd(), Path(args.work), ledger)
    if reference is None:
        raise SystemExit("the reference pass raised")
    if args.trace:
        import tracer

        result, units = trace(wl, args.seconds, ledger), dict(tracer.LAYER_METRICS)
    else:
        result, units = measure(wl, args.seconds, ledger, reference), E2E_UNITS
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    import scipy

    result["setup_s"] = setup_s
    result["host"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                      "scipy": scipy.__version__,
                      "pinned_cpus": result.pop("pinned_cpus", None)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
