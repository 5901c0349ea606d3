#!/usr/bin/env python3
"""Side-by-side gradient estimates on the degenerate model.

Compares the weight-based estimator, the common-random-number central
difference, and the closed form (where one exists) for a few observables.

Run:
    python scripts/gradient_demo.py [--n-paths N] [--n-steps K] [--seed S]
"""

import argparse

import numpy as np

from gruschin import Direction, bismut_panel, fd_panel, make_power_law_model, observable


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-paths", type=int, default=50000)
    ap.add_argument("--n-steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=2027)
    ap.add_argument("--t", type=float, default=1.0)
    args = ap.parse_args()

    model = make_power_law_model(1, 1, 1.0)
    z0 = np.array([1.0, 1.0])
    dirs = {"d/dx": Direction.make(1.0, 0.0), "d/dy": Direction.make(0.0, 1.0)}

    print(f"power-law model (l=1), z0=({z0[0]:g}, {z0[1]:g}), T={args.t}, "
          f"N={args.n_paths}, steps={args.n_steps}")
    print(f"{'observable':<12}{'direction':<10}{'weight est':>14}{'fd est':>14}"
          f"{'closed form':>14}")
    fs = [observable(fname, model) for fname in ("y_squared", "sin_y", "x_plus_y")]
    vs = list(dirs.values())
    pb = bismut_panel(model, z0, args.t, fs, vs, args.n_paths, args.n_steps, args.seed)
    pf = fd_panel(model, z0, args.t, fs, vs, args.n_paths, args.n_steps, args.seed + 1)
    for f in fs:
        for j, (dname, v) in enumerate(dirs.items()):
            gb, gf = pb[("grad", f.name, j)], pf[("grad_fd", f.name, j)]
            closed = ""
            if f.closed_form_grad_pt is not None:
                g = np.asarray(f.closed_form_grad_pt(args.t, z0[:1], z0[1:]))
                closed = f"{float(g @ np.concatenate([v.v1, v.v2])):>14.4f}"
            print(f"{f.name:<12}{dname:<10}"
                  f"{gb.mean:>9.4f}+-{gb.stderr:.3f}"
                  f"{gf.mean:>9.4f}+-{gf.stderr:.3f}{closed}")


if __name__ == "__main__":
    main()
