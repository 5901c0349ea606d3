"""Benchmark entry point for the gruschin Monte Carlo engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload panel_scalar --seed 1 --seconds 20 --trace 0

The program is used from ``src/`` as it stands; nothing is installed.  Every
process this script starts gets ``PYTHONPATH=src`` and BLAS pinned to one
thread, so ``workers=2`` runs on at most two cores.  Standard output carries a
host record, any failed operations, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3        # fresh set-up processes per run, besides the measuring one
DEADLINE_S = 170.0       # a run must end within 180 s
BLAS_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def host_record() -> dict:
    caches = {}
    for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[name.lower()] = int(out) if out.isdigit() else None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "caches": caches, "blas_threads": BLAS_PINS}


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py; relay its report lines and return its final JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("out of time before the run finished")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="checked by worker.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not re.fullmatch(r"[a-z_]+", args.workload):
        ap.error("--workload must be a workload name, such as panel_scalar")
    deadline = time.monotonic() + DEADLINE_S
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "gruschin" / "__init__.py").is_file():
        print("perfbench: run from the root of a gruschin checkout (src/gruschin missing)",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    work_root = root / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    try:
        setups = [child(common + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        res = child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    print("host " + json.dumps(dict(host_record(), **res["host"])))
    print("passes " + json.dumps(res["passes"]))
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
