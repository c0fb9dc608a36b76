#!/usr/bin/env python3
"""Refinement study on the smooth closed-string scenario.

Prints, per grid step, the max-norm error of the general solver's
z-component against the closed form, the staged-vs-general differences of
the remaining components, and the null-residual monitor, with the observed
orders between rungs.
"""
import time

import numpy as np

from stringsheet import (
    OriClosedForm,
    OriQuadratic,
    build_grid,
    build_initial_data,
    build_theta0,
    solve,
    staged_solution,
)


def build_case(nodes, a=0.5, radius=1.0, z_amp=0.05, z_vel=0.05):
    model = OriQuadratic(a)
    th = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    n = len(th)
    phi = np.stack(
        [np.zeros(n), radius * np.sin(th), radius * np.cos(th), z_amp * np.cos(th)],
        axis=1,
    )
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, z_vel)], axis=1)
    data = build_initial_data(model, th, phi, psi, 2.0 * np.pi)
    return model, data


def main(t_max=5.0):
    rows = []
    for denom in (128, 256, 512):
        model, data = build_case(denom)
        cmap = build_theta0(data)
        grid = build_grid(cmap, 2.0 * np.pi / denom, t_max)
        started = time.perf_counter()
        cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
        staged = staged_solution(cf, data, cmap, grid)
        worst = np.zeros(4)

        def sink(m, u, p, q):
            # staged components level by level in lockstep; their z is the
            # closed form read from the lattice tables, as in ``compare``
            _, u_staged = next(staged)
            np.fmax(worst, np.max(np.abs(u - u_staged), axis=0), out=worst)

        sol = solve(model, data, cmap, grid, sink=sink)
        wall = time.perf_counter() - started
        rows.append((grid.step, worst.tolist(), sol.max_null_residual, wall))
    print(f"{'h':>12} {'err u0':>11} {'err u1':>11} {'err u2':>11} "
          f"{'err u3':>11} {'null res':>11} {'wall':>7}")
    for step, errs, null, wall in rows:
        print(f"{step:12.6f} " + " ".join(f"{e:11.3e}" for e in errs)
              + f" {null:11.3e} {wall:6.1f}s")
    print("orders between rungs:")
    for c in range(4):
        orders = [
            np.log2(rows[k][1][c] / rows[k + 1][1][c]) for k in range(len(rows) - 1)
        ]
        print(f"  u{c}: " + ", ".join(f"{o:.2f}" for o in orders))
    nulls = [r[2] for r in rows]
    orders = [np.log2(nulls[k] / nulls[k + 1]) for k in range(len(rows) - 1)]
    print("  null residual: " + ", ".join(f"{o:.2f}" for o in orders))


if __name__ == "__main__":
    main()
