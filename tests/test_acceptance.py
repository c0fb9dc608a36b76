"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] PASS ...` line on success; a failed
assertion marks the criterion red.  The heavy periodic runs are shared
through a module-level cache.
"""
import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import (
    blowup_line_data,
    blowup_scenario_dict,
    circle_ori_data,
    minkowski_circle_data,
    observed_orders,
    offset_circle_ori_data,
    product_xy_model,
    random_timelike_states,
    recorded_solve,
    recorded_staged,
)
from oracles import (
    characteristic_speeds,
    conservation_residual,
    eigen_system,
    induced_metric,
    linear_degeneracy_residuals,
    linear_degeneracy_residuals_fd,
    map_from_profiles,
    rk4_transport_check,
    route_u3,
    system_matrix,
    whole_lattice_ordering_violation,
)
from stringsheet import (
    Minkowski,
    OriClosedForm,
    OriQuadratic,
    build_grid,
    build_inverse_map,
    build_theta0,
    solve,
    solve_riemann_invariants,
)
from stringsheet.cli import _speed_ordering_violation, main

RNG_SEED = 20260808
_CACHE = {}


def ori_run(denom, t_max=5.0):
    """General-solver run of the smooth periodic scenario at step 2pi/denom,
    shared between criteria."""
    key = (denom, t_max)
    if key not in _CACHE:
        model, data = circle_ori_data(nodes=denom)
        cmap = build_theta0(data)
        grid = build_grid(cmap, 2.0 * np.pi / denom, t_max)
        started = time.perf_counter()
        sol = recorded_solve(model, data, cmap, grid)
        cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
        staged = recorded_staged(cf, data, cmap, grid)
        u3 = cf.u3(grid.t_nodes[:, None], grid.vtheta[None, :])
        wall = time.perf_counter() - started
        _CACHE[key] = dict(
            model=model, data=data, cmap=cmap, grid=grid, sol=sol, cf=cf,
            staged=staged, u3=u3, wall=wall,
        )
    return _CACHE[key]


def test_criterion_1_eigenstructure_suite():
    rng = np.random.default_rng(RNG_SEED)
    models = [Minkowski(3), OriQuadratic(0.8), product_xy_model(0.6)]
    started = time.perf_counter()
    worst = 0.0
    for model in models:
        for state in random_timelike_states(model, 200, rng):
            im = induced_metric(model, state)
            sp = characteristic_speeds(im)
            n = model.dim - 1
            a = system_matrix(im, n)
            es = eigen_system(sp, n)
            for i in range(3 * (n + 1)):
                lam = es.values[i]
                worst = max(worst, float(np.max(np.abs(a @ es.right[:, i] - lam * es.right[:, i]))))
                worst = max(worst, float(np.max(np.abs(es.left[i] @ a - lam * es.left[i]))))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12, worst
    assert elapsed < 1.0, elapsed
    print(f"\n[criterion 1] PASS eigenstructure: max residual {worst:.2e}, "
          f"600 states in {elapsed:.2f}s")


def test_criterion_2_linear_degeneracy():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst_analytic = 0.0
    worst_fd = 0.0
    for model in (Minkowski(3), OriQuadratic(1.1), product_xy_model(0.5)):
        for state in random_timelike_states(model, 200, rng):
            rm, rp = linear_degeneracy_residuals(model, state)
            worst_analytic = max(worst_analytic, rm, rp)
    # finite-difference cross-check on a subsample
    for model in (OriQuadratic(1.1), product_xy_model(0.5)):
        for state in random_timelike_states(model, 25, rng):
            fm, fp = linear_degeneracy_residuals_fd(model, state)
            worst_fd = max(worst_fd, fm, fp)
    assert worst_analytic <= 1e-10, worst_analytic
    assert worst_fd <= 1e-6, worst_fd
    print(f"\n[criterion 2] PASS linear degeneracy: analytic {worst_analytic:.2e}, "
          f"finite-difference {worst_fd:.2e}")


def test_criterion_3_null_conservation():
    run = ori_run(512)
    res_fine = run["sol"].max_null_residual
    res_coarse = ori_run(256)["sol"].max_null_residual
    assert run["sol"].blowup is None
    assert res_fine <= 1e-6, res_fine
    order = float(np.log2(res_coarse / res_fine))
    assert 1.7 <= order <= 2.3, (res_coarse, res_fine, order)
    print(f"\n[criterion 3] PASS null conservation: max residual {res_fine:.2e} "
          f"at h=2pi/512, halving order {order:.2f}")


def test_criterion_4_riemann_transport():
    cmap = ori_run(512)["cmap"]
    step = cmap.vtheta_period / 256
    t_nodes = step * np.arange(int(2.0 / step) + 1)
    vtheta = cmap.vtheta_nodes[0] + step * np.arange(256)
    fields = solve_riemann_invariants(cmap, t_nodes, vtheta)
    # exact by construction
    expect = cmap.lam_minus_bar(vtheta[None, :] - t_nodes[:, None])
    assert np.array_equal(fields.lam_minus, expect)
    mesh = build_inverse_map(cmap, t_nodes, vtheta)
    dev = rk4_transport_check(cmap, fields, mesh, n_paths=12)
    assert dev <= 10.0 * step**2, (dev, step)
    residuals = []
    for denom in (64, 128, 256):
        # refine the evaluation lattice while it stays above the data
        # interpolation floor (profiles are tabulated at 512 nodes)
        sub_step = cmap.vtheta_period / denom
        sub_t = sub_step * np.arange(int(1.5 / sub_step) + 1)
        sub_v = cmap.vtheta_nodes[0] + sub_step * np.arange(denom)
        f = solve_riemann_invariants(cmap, sub_t, sub_v)
        m = build_inverse_map(cmap, sub_t, sub_v)
        residuals.append(conservation_residual(cmap, f, m))
    orders = observed_orders(residuals)
    assert all(o >= 1.7 for o in orders), (residuals, orders)
    print(f"\n[criterion 4] PASS transport: RK4 deviation {dev:.2e} <= 10h^2, "
          f"conservation orders {[f'{o:.2f}' for o in orders]}")


def seeded_speed_profiles(rng, periodic, decreasing):
    """(Lam-, Lam+) as functions of vartheta, 2 pi-periodic on a ring:
    a decreasing minus profile under a constant gap, or a random sum of
    harmonics under a random positive gap."""
    if decreasing:
        shift, gap = rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.2)
        slope = (lambda s: 0.7 * np.sin(s)) if periodic else (lambda s: 0.7 * s)
        lam_minus = lambda s: -np.tanh(slope(s)) + shift
        return lam_minus, lambda s: lam_minus(s) + gap
    base, a1, p1, a2, p2 = (rng.uniform(lo, hi) for lo, hi in
                            ((-0.5, 0.3), (0.05, 0.5), (0, 6), (0.0, 0.3), (0, 6)))
    g0, g1, p3 = rng.uniform(0.1, 1.2), rng.uniform(0.0, 0.6), rng.uniform(0, 6)
    lam_minus = lambda s: base + a1 * np.sin(s + p1) + a2 * np.cos(2 * s + p2)
    return lam_minus, lambda s: lam_minus(s) + g0 + g1 * (1.0 + np.sin(3 * s + p3))


def test_criterion_5_ordering_criterion_sweep():
    # the one speed-ordering verdict of every command, the lattice scan
    # cli._speed_ordering_violation, against the speeds transported over the
    # whole lattice at once, on 50 seeded profiles (rings and lines)
    rng = np.random.default_rng(RNG_SEED + 2)
    n, t_max = 160, 3.0
    crossing = 0
    for case in range(50):
        periodic = case % 2 == 0
        window = (0.0, 2 * np.pi) if periodic else (-6.0, 6.0)
        lam_minus, lam_plus = seeded_speed_profiles(rng, periodic, case % 3 == 2)
        cmap = map_from_profiles(lam_minus, lam_plus, window, nodes=n, periodic=periodic)
        grid = build_grid(cmap, (window[1] - window[0]) / (n if periodic else n - 1), t_max)
        assert grid.t_max == t_max
        whole = whole_lattice_ordering_violation(cmap, grid.t_nodes, grid.vtheta)
        with redirect_stdout(io.StringIO()) as out:
            assert _speed_ordering_violation(cmap, grid) == whole
        line = "" if whole is None else (
            f"speed ordering breaks at t={whole[0]:.6g}, vartheta={whole[1]:.6g}\n"
        )
        assert out.getvalue() == line
        crossing += whole is not None
    assert crossing >= 10 and 50 - crossing >= 10, crossing
    print(f"\n[criterion 5] PASS speed ordering: 50 profiles ({crossing} crossing "
          f"for t <= {t_max:g}), lattice scan == whole-lattice transport")


def test_criterion_6_closed_form_vs_general_solver():
    errs = []
    for denom in (128, 256, 512):
        run = ori_run(denom)
        errs.append(float(np.nanmax(np.abs(run["sol"].u[:, :, 3] - run["u3"]))))
    orders = observed_orders(errs)
    assert all(abs(o - 2.0) <= 0.3 for o in orders), (errs, orders)
    wall = ori_run(512)["wall"]
    assert wall < 60.0, wall
    print(f"\n[criterion 6] PASS closed form vs solver: errors {errs[0]:.2e} -> "
          f"{errs[-1]:.2e}, orders {[f'{o:.2f}' for o in orders]}, "
          f"finest pipeline {wall:.1f}s")


def test_criterion_7_blowup_reproduction(tmp_path):
    model, data = blowup_line_data()
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
    report = cf.existence_check(6.0)
    assert not report.passed
    assert report.t_star == pytest.approx(4.0, abs=1e-4), report.t_star
    grid = build_grid(cmap, 0.025, 5.0)
    sol = solve(model, data, cmap, grid)
    assert sol.blowup is not None
    assert abs(sol.blowup.time - 4.0) <= 0.05 * 4.0
    scenario = tmp_path / "blowup.json"
    scenario.write_text(json.dumps(blowup_scenario_dict()))
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o")]) == 4
    # global-existence counterpart
    model2, data2 = offset_circle_ori_data(z_vel=-0.5)
    cmap2 = build_theta0(data2)
    cf2 = OriClosedForm.from_initial_data(data2, cmap2, coupling_constant=model2.a)
    rep2 = cf2.existence_check(50.0)
    assert rep2.passed
    tt = np.linspace(0.0, 50.0, 501)[:, None]
    u3 = cf2.u3(tt, cmap2.vtheta_nodes[None, :])
    assert np.all(np.isfinite(u3))
    bound = 2.0 * np.log(1.0 + 0.25 * 50.0) + 1e-6  # closed-form envelope
    assert np.max(np.abs(u3)) <= bound
    print(f"\n[criterion 7] PASS blow-up: t* = {report.t_star:.6f}, solver abort at "
          f"t = {sol.blowup.time:.3f}, exit 4; counterpart bounded by {bound:.2f}")


def test_criterion_8_corollary_soundness():
    rng = np.random.default_rng(RNG_SEED + 3)
    flagged = 0
    for case in range(100):
        mode = case % 4
        n_modes = int(rng.integers(1, 4))
        coef = rng.uniform(-0.3, 0.3, size=(2, n_modes, 2))
        shift = 0.0
        scale = 1.0
        if mode == 0:
            # push the velocity profile strictly nonpositive
            shift = -rng.uniform(0.05, 0.3) - float(np.sum(np.abs(coef[1])))
        elif mode == 1:
            scale = 0.03  # small amplitudes: L1 flags likely
        elif mode == 2:
            shift = rng.uniform(0.0, 0.3)  # positive drift, flags rarely true

        def phi3(s, coef=coef, scale=scale):
            out = np.zeros_like(np.asarray(s, dtype=float))
            for k in range(coef.shape[1]):
                out += scale * (
                    coef[0, k, 0] * np.sin((k + 1) * s) + coef[0, k, 1] * np.cos((k + 1) * s)
                )
            return out

        def psi3(s, coef=coef, shift=shift, scale=scale):
            out = np.full_like(np.asarray(s, dtype=float), shift)
            for k in range(coef.shape[1]):
                out += scale * (
                    coef[1, k, 0] * np.sin((k + 1) * s) + coef[1, k, 1] * np.cos((k + 1) * s)
                )
            return out

        cf = OriClosedForm.from_profiles(
            phi3, psi3, (0.0, 2 * np.pi), periodic=True, nodes=257
        )
        flags = cf.corollary_flags()
        if flags.any_true():
            flagged += 1
            assert cf.existence_check(8.0).passed, (case, flags)
    assert flagged >= 25, flagged
    print(f"\n[criterion 8] PASS corollary soundness: {flagged}/100 data sets "
          f"carried a true flag, zero counterexamples")


def test_criterion_9_dual_route_equivalence():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = 0.0
    for _ in range(20):
        n_modes = int(rng.integers(1, 4))
        coef = rng.uniform(-0.25, 0.25, size=(2, n_modes, 2))

        def phi3(s, coef=coef):
            out = np.zeros_like(np.asarray(s, dtype=float))
            for k in range(coef.shape[1]):
                out += coef[0, k, 0] * np.sin((k + 1) * s) + coef[0, k, 1] * np.cos((k + 1) * s)
            return out

        def psi3(s, coef=coef):
            out = np.zeros_like(np.asarray(s, dtype=float))
            for k in range(coef.shape[1]):
                out += coef[1, k, 0] * np.sin((k + 1) * s) + coef[1, k, 1] * np.cos((k + 1) * s)
            return out

        cf = OriClosedForm.from_profiles(phi3, psi3, (0.0, 2 * np.pi), periodic=True)
        t = np.linspace(0.0, 2.0, 11)[:, None]
        vth = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)[None, :]
        base = cf.u3(t, vth)
        assert np.all(np.isfinite(base))
        for form in ("p", "q"):
            worst = max(worst, float(np.nanmax(np.abs(base - route_u3(cf, t, vth, form)))))
    assert worst <= 1e-8, worst
    print(f"\n[criterion 9] PASS dual routes: max disagreement {worst:.2e} over 20 sets")


def test_criterion_10_flat_space_exactness():
    errs = []
    for denom in (256, 512):
        model, data = minkowski_circle_data(nodes=denom, wave_amp=0.1, unit_speeds=True)
        cmap = build_theta0(data)
        grid = build_grid(cmap, 2.0 * np.pi / denom, 2.0)
        sol = recorded_solve(model, data, cmap, grid)
        assert sol.blowup is None
        # bitwise transport of the one-forms along their characteristics
        for m in range(0, sol.levels_computed + 1, 16):
            assert np.array_equal(sol.p[m], np.roll(sol.p[0], m, axis=0))
            assert np.array_equal(sol.q[m], np.roll(sol.q[0], -m, axis=0))
        t = grid.t_nodes[:, None]
        vth = grid.vtheta[None, :]
        expect = 0.05 * (np.sin(vth + t) + np.sin(vth - t))
        errs.append(float(np.max(np.abs(sol.u[:, :, 3] - expect))))
    order = observed_orders(errs)[0]
    assert errs[-1] <= 1e-4
    assert order == pytest.approx(2.0, abs=0.3), (errs, order)
    print(f"\n[criterion 10] PASS flat space: bitwise transport, superposition "
          f"error {errs[-1]:.2e}, order {order:.2f}")
