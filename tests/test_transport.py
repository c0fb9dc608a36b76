from pathlib import Path

import numpy as np
import pytest

from conftest import circle_ori_data, minkowski_circle_data, observed_orders
from oracles import (
    conservation_residual,
    map_from_profiles,
    midpoint_inverse_map,
    quad_across,
    ring_knots,
    rk4_transport_check,
    whole_lattice_ordering_violation,
)
from stringsheet import (
    CausalityError,
    Minkowski,
    build_initial_data,
    build_inverse_map,
    build_theta0,
    solve_riemann_invariants,
)
from stringsheet.cli import _prepare, _speed_ordering_violation
from stringsheet.lightcone import LightconeGrid, build_grid
from stringsheet.scenario import load_scenario
from stringsheet.transport import rectangle_residual

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def line_data_with_speeds(gap_fn, n=201, window=(-5.0, 5.0)):
    """Minkowski line data engineered so lam+- = +-gap(theta)/2."""
    model = Minkowski(2)
    th = np.linspace(window[0], window[1], n)
    # with psi = (c, 0, 0) and phi = (0, theta, 0): lam+- = +-c; modulate c
    c = gap_fn(th) / 2.0
    phi = np.stack([np.zeros(n), th, np.zeros(n)], axis=1)
    psi = np.stack([c, np.zeros(n), np.zeros(n)], axis=1)
    return build_initial_data(model, th, phi, psi, None)


def test_theta0_identity_for_unit_gap():
    data = line_data_with_speeds(lambda th: 2.0 * np.ones_like(th))
    cmap = build_theta0(data)
    th = np.linspace(-4.5, 4.5, 40)
    assert np.allclose(cmap.theta0(th), th, atol=1e-12)
    assert np.allclose(cmap.theta0_inverse(th), th, atol=1e-10)


def test_theta0_half_for_double_gap():
    data = line_data_with_speeds(lambda th: 4.0 * np.ones_like(th))
    cmap = build_theta0(data)
    th = np.linspace(-4.0, 4.0, 40)
    assert np.allclose(cmap.theta0(th), th / 2.0, atol=1e-12)


def test_theta0_closed_form_antiderivative():
    # gap 2/(1+theta^2) gives the cubic antiderivative theta + theta^3/3
    data = line_data_with_speeds(lambda th: 2.0 / (1.0 + th**2), n=501)
    cmap = build_theta0(data)
    th = np.linspace(-5.0, 5.0, 101)
    assert np.max(np.abs(cmap.theta0(th) - (th + th**3 / 3.0))) < 1e-8


def test_theta0_line_continues_linearly_past_both_ends():
    # the integrand 1 + theta^2 has edge derivative 26 at theta = +-5; past
    # each end the map and its inverse continue with their edge slopes,
    # which are second-order one-sided estimates of 26 and 1/26
    h = 0.02
    data = line_data_with_speeds(lambda th: 2.0 / (1.0 + th**2), n=501)
    cmap = build_theta0(data)
    dist = np.array([1e-9, 0.5, 1.0, 3.0])
    for edge, out in ((-5.0, -1.0), (5.0, 1.0)):
        inside = cmap.theta0(edge)
        x = edge + out * dist
        outside = cmap.theta0(x)
        assert abs(outside[0] - inside) < 1e-7  # continuous at the edge
        slope = (outside - inside) / (x - edge)
        assert np.allclose(slope[1:], slope[1], rtol=1e-12, atol=0.0)
        assert slope[1] == pytest.approx(26.0, rel=1e-4)
        assert np.all(np.abs(cmap.theta0_inverse(outside) - x) <= h**2 * dist)


def test_theta0_round_trip_is_exact_past_both_ends():
    # the inverse continues with the reciprocals of theta0's edge slopes,
    # so past each end of a line window (h = 0.02) the two continuations
    # invert each other up to rounding
    data = line_data_with_speeds(lambda th: 2.0 / (1.0 + th**2), n=501)
    cmap = build_theta0(data)
    dist = np.linspace(0.5, 3.0, 11)
    for x in (-5.0 - dist, 5.0 + dist):
        assert np.max(np.abs(cmap.theta0_inverse(cmap.theta0(x)) - x)) <= 1e-12


def test_theta0_monotone_and_roundtrip(rng):
    _, data = circle_ori_data(nodes=128)
    cmap = build_theta0(data)
    assert np.all(np.diff(cmap.vtheta_nodes) > 0.0)
    th = rng.uniform(0.0, 2.0 * np.pi, 50)
    assert np.max(np.abs(cmap.theta0_inverse(cmap.theta0(th)) - th)) < 1e-8
    # winding consistency over one period
    assert cmap.theta0(th + 2.0 * np.pi) == pytest.approx(
        cmap.theta0(th) + cmap.vtheta_period, abs=1e-10
    )


def test_theta0_rejects_violated_ordering():
    # a gap that collapses from node 4 of 11 on, or NaN speeds at nodes 4
    # and 7: the error names node 4, the first
    model = Minkowski(2)
    th = np.linspace(0.0, 1.0, 11)
    phi = np.stack([np.zeros(11), th, np.zeros(11)], axis=1)
    psi = np.stack([np.ones(11), np.zeros(11), np.zeros(11)], axis=1)
    for corrupt in ("collapsed", "nan"):
        data = build_initial_data(model, th, phi, psi, None)
        if corrupt == "collapsed":
            data.lam_plus[4:] = data.lam_minus[4:]
        else:
            data.lam_plus[[4, 7]] = np.nan
        with pytest.raises(CausalityError, match="at node 4 "):
            build_theta0(data)


# ---------------------------------------------------------------------------
# invariant transport
# ---------------------------------------------------------------------------


def test_constant_profiles_stay_constant():
    cmap = map_from_profiles(
        lambda s: -np.ones_like(s), lambda s: np.ones_like(s), (0.0, 2.0 * np.pi),
        periodic=True,
    )
    t = np.linspace(0.0, 3.0, 31)
    vth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    fields = solve_riemann_invariants(cmap, t, vth)
    assert np.all(fields.lam_minus == -1.0)
    assert np.all(fields.lam_plus == 1.0)


def test_transport_is_profile_shift():
    cmap = map_from_profiles(
        lambda s: 0.5 * np.sin(s), lambda s: np.ones_like(s), (0.0, 2.0 * np.pi),
        periodic=True, nodes=256,
    )
    t = np.linspace(0.0, 2.0, 21)
    vth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    fields = solve_riemann_invariants(cmap, t, vth)
    expect = cmap.lam_minus_bar(vth[None, :] - t[:, None])
    assert np.array_equal(fields.lam_minus, expect)
    assert np.max(np.abs(fields.lam_minus - 0.5 * np.sin(vth[None, :] - t[:, None]))) < 1e-6


def test_rk4_oracle_against_shifted_profile():
    cmap = map_from_profiles(
        lambda s: 0.5 * np.sin(s), lambda s: np.ones_like(s), (0.0, 2.0 * np.pi),
        periodic=True, nodes=256,
    )
    step = 2.0 * np.pi / 128
    t = step * np.arange(int(2.0 / step) + 1)
    vth = cmap.vtheta_nodes[0] + (cmap.vtheta_period / 128) * np.arange(128)
    fields = solve_riemann_invariants(cmap, t, vth)
    mesh = build_inverse_map(cmap, t, vth)
    dev = rk4_transport_check(cmap, fields, mesh, n_paths=12)
    assert dev <= 10.0 * step**2


def test_ordering_violation_detected_at_predicted_time():
    # decreasing minus-profile crossing the plus-profile: the earliest
    # discrete violation must match the pair-scan prediction
    # t = (vtheta2 - vtheta1)/2 minimized over violating pairs
    lam_m = lambda s: -np.tanh(0.8 * s)
    lam_p = lambda s: -np.tanh(0.8 * s) + 0.2
    cmap = map_from_profiles(lam_m, lam_p, (-8.0, 8.0), nodes=801)
    step = 0.02
    grid = LightconeGrid.over(-8.0, step, 801, None, 6.0)
    violation = _speed_ordering_violation(cmap, grid)
    assert violation == whole_lattice_ordering_violation(cmap, grid.t_nodes, grid.vtheta)
    s = grid.vtheta
    pred = np.inf
    lm_vals = lam_m(s)
    lp_vals = lam_p(s)
    for i in range(len(s)):
        later = s > s[i]
        bad = lm_vals[i] >= lp_vals[later]
        if np.any(bad):
            pred = min(pred, float(np.min((s[later][bad] - s[i]) / 2.0)))
    t_detect = violation[0]
    assert t_detect == pytest.approx(pred, abs=3 * step)


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------


def test_inverse_map_identity_for_unit_speeds():
    cmap = map_from_profiles(
        lambda s: -np.ones_like(s), lambda s: np.ones_like(s), (0.0, 2.0 * np.pi),
        periodic=True,
    )
    t = 0.1 * np.arange(11)
    vth = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    mesh = build_inverse_map(cmap, t, vth)
    assert np.allclose(mesh.theta, np.broadcast_to(vth, mesh.theta.shape), atol=1e-12)


def test_inverse_map_linear_drift():
    # lam- = 0, lam+ = 2: d theta = d vtheta + dt
    cmap = map_from_profiles(
        lambda s: np.zeros_like(s), lambda s: 2.0 * np.ones_like(s), (-10.0, 10.0),
        nodes=401,
    )
    t = 0.05 * np.arange(21)
    vth = np.linspace(-5.0, 5.0, 41)
    mesh = build_inverse_map(cmap, t, vth)
    expect = vth[None, :] + t[:, None] + float(cmap.theta0_inverse(np.zeros(1))[0])
    offset = mesh.theta[0, 0] - expect[0, 0]
    assert np.max(np.abs(mesh.theta - expect - offset)) < 1e-10


def test_inverse_map_monotone_in_vtheta():
    _, data = circle_ori_data(nodes=128)
    cmap = build_theta0(data)
    step = cmap.vtheta_period / 256
    t = step * np.arange(int(2.0 / step))
    vth = cmap.vtheta_nodes[0] + step * np.arange(256)
    mesh = build_inverse_map(cmap, t, vth)
    assert np.all(np.diff(mesh.theta, axis=1) > 0.0)


def test_inverse_map_integrates_the_differential_along_both_legs():
    # theta(t, s) - theta(0, s) is the integral of (lam+ + lam-)/2 in t, and
    # theta(t, b) - theta(t, a) - (theta(0, b) - theta(0, a)) that of the
    # change of (lam+ - lam-)/2 in vtheta, for the spline profiles
    # themselves, on a ring and on a line
    for periodic, window in ((True, (0.0, 2.0 * np.pi)), (False, (-6.0, 6.0))):
        cmap = map_from_profiles(
            lambda s: -1.0 + 0.3 * np.sin(s), lambda s: 1.0 + 0.2 * np.cos(2 * s),
            window, periodic=periodic, nodes=128,
        )
        lm, lp = cmap.lam_minus_bar, cmap.lam_plus_bar
        knots = cmap.vtheta_nodes
        if periodic:
            knots = ring_knots(knots, cmap.vtheta_period, 2)
        t = np.array([0.0, 0.7, 2.3])
        a, b = -1.9, 2.6
        theta = build_inverse_map(cmap, t, np.array([a, b])).theta
        for m, tm in enumerate(t):
            along_t = quad_across(
                lambda x: 0.5 * (lp(b + x) + lm(b - x)), 0.0, tm,
                np.concatenate([knots - b, b - knots]),
            )
            change_s = quad_across(
                lambda x: 0.5 * (lp(x + tm) - lm(x - tm) - lp(x) + lm(x)), a, b,
                np.concatenate([knots - tm, knots + tm, knots]),
            )
            assert theta[m, 1] - theta[0, 1] == pytest.approx(along_t, abs=1e-12)
            step_s = theta[m, 1] - theta[m, 0] - (theta[0, 1] - theta[0, 0])
            assert step_s == pytest.approx(change_s, abs=1e-12)


def test_inverse_map_levels_are_independent_of_the_slice():
    # the CLI writes theta level by level and on the valid nodes only; every
    # slice must carry the bits of the whole lattice
    cmap = map_from_profiles(
        lambda s: -np.tanh(0.3 * s) - 1.0, lambda s: 1.0 + 0.2 * np.cos(s), (-8.0, 8.0),
        nodes=321,
    )
    t = 0.05 * np.arange(41)
    vth = np.linspace(-8.0, 8.0, 321)
    whole = build_inverse_map(cmap, t, vth).theta
    for m in (0, 1, 17, 40):
        part = build_inverse_map(cmap, t[m : m + 1], vth[m : len(vth) - m]).theta
        assert np.array_equal(part[0], whole[m, m : len(vth) - m])
    assert np.array_equal(build_inverse_map(cmap, t[5:23], vth).theta, whole[5:23])


def test_midpoint_march_converges_to_the_exact_map_at_second_order():
    # the midpoint march the closed form replaced, on ori_global for t <= 3.5:
    # its error falls 4x per halving of the step (1.475e-5 at h = 0.01)
    _, _, cmap, _ = _prepare(load_scenario(SCENARIO_DIR / "ori_global.json"))
    errors = []
    for h in (0.01, 0.005):
        grid = build_grid(cmap, h, 3.5)
        exact = build_inverse_map(cmap, grid.t_nodes, grid.vtheta).theta
        errors.append(np.max(np.abs(midpoint_inverse_map(cmap, grid.t_nodes, grid.vtheta) - exact)))
    assert errors[0] == pytest.approx(1.475e-5, rel=0.01)
    assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)


def test_rectangle_exactness():
    cmap = map_from_profiles(
        lambda s: -1.0 + 0.3 * np.sin(s), lambda s: 1.0 + 0.2 * np.cos(2 * s),
        (0.0, 2.0 * np.pi), periodic=True, nodes=256,
    )
    # legs commensurate with the step: the two integration orders sample
    # identical midpoint sets, so the residual sits at roundoff
    for h in (0.1, 0.05):
        assert abs(rectangle_residual(cmap, 1.0, 0.5, 4.1, h)) < 1e-12
    # incommensurate legs expose the quadrature difference, still O(h^2)
    for h in (0.1, 0.05, 0.025):
        assert abs(rectangle_residual(cmap, 0.9731, 0.5, 4.0873, h)) <= 10.0 * h * h


def test_rectangle_residual_matches_scalar_marches():
    # reference: the four legs marched one midpoint panel at a time, as the
    # residual was computed before it was vectorised; only the order of the
    # sums differs, worth a few hundred ulps over ~150 panels of O(1) terms
    cmap = map_from_profiles(
        lambda s: -1.0 + 0.3 * np.sin(s), lambda s: 1.0 + 0.2 * np.cos(2 * s),
        (0.0, 2.0 * np.pi), periodic=True, nodes=256,
    )

    def march(slope, lo, hi, step):
        n = max(1, int(round(abs(hi - lo) / step)))
        d, x, out = (hi - lo) / n, lo, 0.0
        for _ in range(n):
            out += d * slope(x + 0.5 * d)
            x += d
        return out

    def d_s(t):
        return lambda s: 0.5 * (cmap.lam_plus_bar(s + t) - cmap.lam_minus_bar(s - t))

    def d_t(s):
        return lambda t: 0.5 * (cmap.lam_plus_bar(s + t) + cmap.lam_minus_bar(s - t))

    for t_hi, s_a, s_b, h in ((0.9731, 0.5, 4.0873, 0.025), (2.31, 5.9, 1.23, 0.05)):
        expect = (march(d_s(0.0), s_a, s_b, h) + march(d_t(s_b), 0.0, t_hi, h)) - (
            march(d_t(s_a), 0.0, t_hi, h) + march(d_s(t_hi), s_a, s_b, h)
        )
        assert rectangle_residual(cmap, t_hi, s_a, s_b, h) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# conservation identity
# ---------------------------------------------------------------------------


def test_conservation_residual_second_order():
    _, data = circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    res = []
    for denom in (64, 128, 256):
        step = cmap.vtheta_period / denom
        t = step * np.arange(int(1.5 / step) + 1)
        vth = cmap.vtheta_nodes[0] + step * np.arange(denom)
        fields = solve_riemann_invariants(cmap, t, vth)
        mesh = build_inverse_map(cmap, t, vth)
        res.append(conservation_residual(cmap, fields, mesh))
    orders = observed_orders(res)
    assert all(o >= 1.7 for o in orders), (res, orders)


def test_roundtrip_through_mesh(rng):
    _, data = minkowski_circle_data(nodes=128, wave_amp=0.15)
    cmap = build_theta0(data)
    # map random (t=0, theta) -> vtheta -> theta
    th = rng.uniform(0, 2 * np.pi, 30)
    back = cmap.theta0_inverse(cmap.theta0(th))
    assert np.max(np.abs(back - th)) < 1e-8
