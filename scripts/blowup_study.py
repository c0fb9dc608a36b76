#!/usr/bin/env python3
"""Blow-up study: closed-form existence threshold vs numerical abort.

For a family of straight strings with increasing forward z-velocity k the
closed form predicts loss of smoothness at t* = 2/k.  The study prints the
scanned verdict, the bisected t*, and where the lattice solver actually
gives up.
"""
import numpy as np

from stringsheet import (
    OriClosedForm,
    OriQuadratic,
    build_grid,
    build_initial_data,
    build_theta0,
    solve,
)


def run_case(k, a=0.01, window=(-10.0, 10.0), nodes=801, step=0.02, t_max=9.0):
    model = OriQuadratic(a)
    th = np.linspace(window[0], window[1], nodes)
    n = len(th)
    phi = np.stack([np.zeros(n), th, np.zeros(n), np.zeros(n)], axis=1)
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, k)], axis=1)
    data = build_initial_data(model, th, phi, psi, None)
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=a)
    report = cf.existence_check(t_max)
    grid = build_grid(cmap, step, min(t_max, (nodes - 1) * step / 2 * 0.95))
    sol = solve(model, data, cmap, grid)
    return report, sol


def main():
    print(f"{'k':>6} {'predicted t*':>14} {'bisected t*':>13} {'numerical abort':>16}")
    for k in (0.4, 0.6, 0.8, 1.0):
        report, sol = run_case(k)
        predicted = 2.0 / k  # flat position profile, constant velocity k
        t_star = report.t_star if not report.passed else float("nan")
        t_abort = sol.blowup.time if sol.blowup else float("nan")
        print(f"{k:6.2f} {predicted:14.4f} {t_star:13.6f} {t_abort:16.4f}")
    # backward z-drift needs a deeply negative wave profile to stay
    # timelike; run the displaced closed string as the global counterpart
    print("\nnonpositive velocity never blows up:")
    model = OriQuadratic(1.0)
    th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    n = len(th)
    phi = np.stack(
        [np.zeros(n), 0.3 * np.sin(th), 2.5 + 0.3 * np.cos(th), np.zeros(n)], axis=1
    )
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, -0.5)], axis=1)
    data = build_initial_data(model, th, phi, psi, 2.0 * np.pi)
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=1.0)
    print(f"  verdict: {cf.existence_check(50.0).describe()}")
    grid = build_grid(cmap, cmap.vtheta_period / 512, 5.0)
    sol = solve(model, data, cmap, grid)
    print(f"  solver abort: {sol.blowup}")


if __name__ == "__main__":
    main()
