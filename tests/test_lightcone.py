import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    blowup_line_data,
    circle_ori_data,
    minkowski_circle_data,
    observed_orders,
    recorded_solve,
)
from stringsheet import (
    ConfigError,
    Minkowski,
    OriClosedForm,
    OriQuadratic,
    build_grid,
    build_theta0,
    cli,
    initial_lightcone_data,
    solve,
)
from stringsheet.lightcone import advance_diagonal, corners, relative_null_residuals
from stringsheet.scenario import build_theta_grid, scenario_from_dict
from stringsheet.worldsheet import Profile

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def solved_minkowski(nodes=256, denom=256, t_max=2.0, unit_speeds=True, wave_amp=0.1):
    model, data = minkowski_circle_data(nodes=nodes, wave_amp=wave_amp, unit_speeds=unit_speeds)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 2.0 * np.pi / denom, t_max)
    return model, data, cmap, grid, recorded_solve(model, data, cmap, grid)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_grid_wraps_period_exactly():
    _, data = circle_ori_data(nodes=128)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 0.05, 1.0)
    assert grid.periodic
    assert len(grid.vtheta) * grid.step == pytest.approx(cmap.vtheta_period, abs=1e-12)


def test_line_grid_shrinks_and_guards_window():
    _, data = blowup_line_data(nodes=201)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 0.1, 3.0)
    lo, hi = grid.valid_bounds(5)
    assert (lo, hi) == (5, len(grid.vtheta) - 5)
    with pytest.raises(ConfigError):
        build_grid(cmap, 0.1, 1e6)


def reference_grid(cmap, step, t_max):
    """``build_grid`` written out with its own ring and line branches:
    (vtheta, step, levels, t_max), or None where the window is too short."""
    if cmap.periodic:
        period = cmap.vtheta_period
        n = max(8, int(round(period / step)))
        actual = period / n
        levels = int(np.floor(t_max / actual + 1e-9))
        return cmap.vtheta_nodes[0] + actual * np.arange(n), actual, levels, t_max
    lo, hi = cmap.vtheta_nodes[0], cmap.vtheta_nodes[-1]
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    levels = int(np.floor(t_max / step + 1e-9))
    if n - 2 * levels < 1:
        return None
    return lo + step * np.arange(n), step, levels, t_max


def reference_scan_grid(cf, t_max):
    """``OriClosedForm.scan_grid`` written out: one node per closed-form
    node, and on a line t_max cut where the triangle closes.  Its levels
    take the floor of t_max / step + 1e-9 as ``build_grid`` does, so that a
    t_max of k steps has k levels whichever way the division rounds."""
    n = len(cf.vtheta_nodes)
    lo = cf.vtheta_nodes[0]
    if cf.periodic:
        step = cf.period / n
    else:
        step = (cf.vtheta_nodes[-1] - lo) / (n - 1)
        t_max = min(t_max, (n - 1) // 2 * step)
    return lo + step * np.arange(n), step, int(np.floor(t_max / step + 1e-9)), t_max


def assert_layout(grid, vtheta, step, levels, t_max, periodic):
    assert np.array_equal(grid.vtheta, vtheta)
    assert (grid.step, grid.n_levels, grid.t_max, grid.periodic) == (step, levels, t_max, periodic)


@pytest.mark.parametrize("periodic", [True, False])
def test_build_grid_lays_out_the_reference_lattice(periodic):
    _, data = circle_ori_data(nodes=128) if periodic else blowup_line_data(nodes=201)
    cmap = build_theta0(data)
    for step in (0.013, 0.05, 0.1, 0.37, cmap.vtheta_nodes[1] - cmap.vtheta_nodes[0]):
        vtheta, actual, _, _ = reference_grid(cmap, step, 1.0)
        closes = (len(vtheta) - 1) // 2 * actual
        # k steps exactly, between levels, and past the triangle's last level
        for t_max in (11 * actual, 43 * actual, 0.5, 3.3, closes, closes + 0.5 * actual, 1e3):
            ref = reference_grid(cmap, step, t_max)
            if ref is None:
                with pytest.raises(ConfigError):
                    build_grid(cmap, step, t_max)
                continue
            vtheta, actual, levels, t_ref = ref
            if not periodic:  # a line's t_max is cut to the triangle's last level
                t_ref = min(t_ref, closes)
            assert_layout(build_grid(cmap, step, t_max), vtheta, actual, levels, t_ref, periodic)


@pytest.mark.parametrize("periodic, nodes", [(True, 64), (True, 257), (False, 201), (False, 401)])
def test_scan_grid_lays_out_the_reference_lattice(periodic, nodes):
    window = (0.0, 2.0 * np.pi) if periodic else (-5.0, 5.0)
    cf = OriClosedForm.from_profiles(
        lambda s: 0.1 * np.sin(s), lambda s: -0.5 + 0.1 * np.cos(s), window,
        periodic=periodic, nodes=nodes,
    )
    step = reference_scan_grid(cf, 1.0)[1]
    for k in (11, 43, 81, 86, 91):
        # the division of k steps by the step rounds below k for some k
        assert cf.scan_grid(k * step).n_levels == k
    for t_max in (11 * step, 43 * step, 0.7, 2.5, 4.0, 50.0):
        assert_layout(cf.scan_grid(t_max), *reference_scan_grid(cf, t_max), periodic)


def test_theta_grid_lays_out_the_reference_row():
    domains = [
        {"kind": "periodic"},
        {"kind": "periodic", "length": 5.0, "start": -1.0},
        {"kind": "line", "window": [-10.0, 10.0]},
        {"kind": "line", "window": [-1.3, 2.9]},
    ]
    for domain in domains:
        for h in (0.013, 0.0245436926061703, 0.025, 0.1, 0.37, 2.0):
            sc = scenario_from_dict(
                {"metric": {}, "domain": domain, "grid": {"h": h, "t_max": 1.0}, "initial_data": {}}
            )
            if domain["kind"] == "periodic":
                length, start = domain.get("length", 2.0 * np.pi), domain.get("start", 0.0)
                n = max(8, int(round(length / h)))
                expect = start + (length / n) * np.arange(n)
            else:
                lo, hi = domain["window"]
                expect = lo + h * np.arange(int(np.floor((hi - lo) / h + 1e-9)) + 1)
            assert np.array_equal(build_theta_grid(sc), expect)


@pytest.mark.parametrize("shape", [(), (2,), (4,)])
@pytest.mark.parametrize("periodic", [True, False])
def test_corners_are_the_rolled_or_cut_diagonal(rng, periodic, shape):
    for n in (3, 8, 403):
        a = rng.normal(size=(n,) + shape)
        left, right = corners(a, periodic)
        if periodic:
            expect = np.roll(a, 1, axis=0), np.roll(a, -1, axis=0)
        else:
            expect = a[:-2], a[2:]
        assert np.array_equal(left, expect[0]) and np.array_equal(right, expect[1])


# ---------------------------------------------------------------------------
# initial line
# ---------------------------------------------------------------------------


def test_initial_line_unit_speed_relations():
    # with speeds +-1 and the identity map: p0 = psi - phi', q0 = psi + phi'
    model, data = minkowski_circle_data(nodes=256, wave_amp=0.1, unit_speeds=True)
    assert np.allclose(data.lam_minus, -1.0, atol=1e-13)
    assert np.allclose(data.lam_plus, 1.0, atol=1e-13)
    # node identity up to the rounding of the computed speeds
    assert np.allclose(data.p0, data.psi - data.phi_theta, atol=1e-12)
    assert np.allclose(data.q0, data.psi + data.phi_theta, atol=1e-12)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 2.0 * np.pi / 128, 1.0)
    u0, p0, q0 = initial_lightcone_data(data, cmap, grid)
    th = grid.vtheta  # identity map
    psi = Profile(data.theta, data.psi, data.domain.length)(th)
    dphi = data.phi_at(th, nu=1)
    # off-node evaluation mixes the stencil and spline derivatives
    assert np.max(np.abs(p0 - (psi - dphi))) < 2e-6
    assert np.max(np.abs(q0 - (psi + dphi))) < 2e-6


def test_initial_line_derivative_consistency():
    _, data = circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    errs = []
    for denom in (128, 256):
        grid = build_grid(cmap, cmap.vtheta_period / denom, 1.0)
        u0, p0, q0 = initial_lightcone_data(data, cmap, grid)
        du = (np.roll(u0, -1, axis=0) - np.roll(u0, 1, axis=0)) / (2.0 * grid.step)
        errs.append(np.max(np.abs(0.5 * (q0 - p0) - du)))
    assert observed_orders(errs)[0] > 1.7


def test_static_point_string():
    model = Minkowski(3)
    n = 64
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    # a circle with zero transverse velocity: p0, q0 have only the time
    # component; a fully constant position needs a degenerate curve, so the
    # static statement is about the spatial one-forms
    from stringsheet import Domain, build_initial_data

    phi = np.stack([np.zeros(n), np.cos(th), np.sin(th), np.zeros(n)], axis=1)
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n)], axis=1)
    data = build_initial_data(model, th, phi, psi, Domain.closed(2 * np.pi))
    cmap = build_theta0(data)
    grid = build_grid(cmap, 2 * np.pi / 256, 0.5)
    sol = recorded_solve(model, data, cmap, grid)
    # transverse one-forms are +-phi' and transport exactly; u0 grows linearly
    assert sol.blowup is None
    assert np.allclose(sol.u[-1, :, 0], grid.n_levels * grid.step, atol=1e-12)


# ---------------------------------------------------------------------------
# scheme structure
# ---------------------------------------------------------------------------


def test_flat_space_bitwise_transport():
    _, _, _, grid, sol = solved_minkowski(denom=128, t_max=1.0)
    n = len(grid.vtheta)
    for m in range(sol.levels_computed + 1):
        assert np.array_equal(sol.p[m], np.roll(sol.p[0], m, axis=0))
        assert np.array_equal(sol.q[m], np.roll(sol.q[0], -m, axis=0))


def test_dalembert_superposition_order():
    errs = []
    for denom in (256, 512):
        model, data, cmap, grid, sol = solved_minkowski(denom=denom, t_max=2.0)
        t = grid.t_nodes[:, None]
        vth = grid.vtheta[None, :]
        # unit speeds: vtheta equals theta and the wave component solves the
        # plain superposition formula eps/2 [sin(x+t) + sin(x-t)]
        expect = 0.05 * (np.sin(vth + t) + np.sin(vth - t))
        errs.append(float(np.max(np.abs(sol.u[:, :, 3] - expect))))
    assert errs[-1] < 5e-4
    assert observed_orders(errs)[0] == pytest.approx(2.0, abs=0.3)


def test_domain_of_dependence_is_exact():
    model = OriQuadratic(0.3)
    _, data = circle_ori_data(nodes=256, a=0.3)
    cmap = build_theta0(data)
    grid = build_grid(cmap, cmap.vtheta_period / 256, 0.0001)
    u0, p0, q0 = initial_lightcone_data(data, cmap, grid)
    steps = 40
    h = grid.step

    def rhs(where, u, p, q):
        return -model.contract_pq(u, p, q)

    def march(u, p, q):
        hist = [(u, p, q)]
        for m in range(steps):
            u, p, q = advance_diagonal(rhs, u, p, q, h, periodic=True)
            hist.append((u, p, q))
        return hist

    base = march(u0.copy(), p0.copy(), q0.copy())
    # perturb outside the past cone of node j0 at level `steps`
    j0 = 100
    u1, p1, q1 = u0.copy(), p0.copy(), q0.copy()
    outside = np.ones(len(grid.vtheta), dtype=bool)
    outside[j0 - steps : j0 + steps + 1] = False
    u1[outside] += 0.37
    p1[outside] -= 0.11
    pert = march(u1, p1, q1)
    assert np.array_equal(base[-1][0][j0], pert[-1][0][j0])
    assert np.array_equal(base[-1][1][j0], pert[-1][1][j0])
    assert np.array_equal(base[-1][2][j0], pert[-1][2][j0])


def test_manufactured_solution_local_truncation():
    # wave-form components solve the free equation exactly, so the source
    # must equal the connection contraction of the exact state; one
    # characteristic-rectangle step then has O(h^3) local error
    model = OriQuadratic(0.8)
    alpha = np.array([0.3, -0.2, 0.25, 0.15])
    beta = np.array([-0.1, 0.3, 0.2, -0.25])

    def u_exact(t, vth):
        x_plus = vth + t
        x_minus = vth - t
        return (
            alpha[None, :] * np.sin(x_plus[:, None] + 0.3)
            + beta[None, :] * np.cos(x_minus[:, None] - 0.7)
        )

    def p_exact(t, vth):  # u_t - u_vtheta
        return 2.0 * beta[None, :] * np.sin((vth - t)[:, None] - 0.7)

    def q_exact(t, vth):  # u_t + u_vtheta
        return 2.0 * alpha[None, :] * np.cos((vth + t)[:, None] + 0.3)

    def source(t, vth):
        uu = u_exact(np.full_like(vth, t), vth)
        return model.contract_pq(uu, p_exact(np.full_like(vth, t), vth),
                                 q_exact(np.full_like(vth, t), vth))

    errs = []
    steps = [0.2, 0.1, 0.05, 0.025]
    for h in steps:
        vth = np.array([1.3 - h, 1.3, 1.3 + h])
        t0 = np.zeros(3)
        u, p, q = u_exact(t0, vth), p_exact(t0, vth), q_exact(t0, vth)

        def rhs(where, uu, pp, qq):
            # where is in (levels, nodes) steps from the source node at vth[1]
            return -model.contract_pq(uu, pp, qq) + source(where[0] * h, vth[1:-1] + where[1] * h)

        un, pn, qn = advance_diagonal(rhs, u, p, q, h, periodic=False)
        tt = np.array([h])
        vv = np.array([1.3])
        err = max(
            np.max(np.abs(un - u_exact(tt, vv))),
            np.max(np.abs(pn - p_exact(tt, vv))),
            np.max(np.abs(qn - q_exact(tt, vv))),
        )
        errs.append(float(err))
    orders = observed_orders(errs)
    assert all(o >= 2.6 for o in orders), (errs, orders)


def test_transverse_coupling_reduces_to_z_product():
    # the z-component update integrates dp3/dxi = p3 q3 / 2
    model = OriQuadratic(1.7)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, (7, 4))
    p = rng.uniform(-1, 1, (7, 4))
    q = rng.uniform(-1, 1, (7, 4))
    rhs = -model.contract_pq(u, p, q)
    assert np.allclose(rhs[:, 3], 0.5 * p[:, 3] * q[:, 3], atol=1e-15)


# ---------------------------------------------------------------------------
# monitors and blow-up
# ---------------------------------------------------------------------------


def test_null_residual_stays_small_and_shrinks():
    model, data = circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    res = []
    for denom in (128, 256):
        grid = build_grid(cmap, cmap.vtheta_period / denom, 2.0)
        sol = solve(model, data, cmap, grid)
        assert sol.blowup is None
        res.append(sol.max_null_residual)
    assert res[-1] < 1e-6
    assert observed_orders(res)[0] == pytest.approx(2.0, abs=0.4)


def test_blowup_detected_near_closed_form_time():
    model, data = blowup_line_data()
    cmap = build_theta0(data)
    grid = build_grid(cmap, 0.025, 5.0)
    sol = solve(model, data, cmap, grid)
    assert sol.blowup is not None
    assert abs(sol.blowup.time - 4.0) <= 0.2  # within 5 percent
    # fields on the last computed level are recorded
    assert sol.levels_computed == pytest.approx(sol.blowup.time / grid.step, abs=1)


def ori_smooth_solve(field_ceiling, wrap=lambda model: model):
    """Solve ``ori_smooth`` with its field ceiling overridden and its model
    passed through ``wrap``."""
    cfg = json.loads((SCENARIO_DIR / "ori_smooth.json").read_text())
    cfg["thresholds"] = {"field_ceiling": field_ceiling}
    sc = scenario_from_dict(cfg)
    model, data = cli._prepare(sc)
    cmap = build_theta0(data)
    grid = build_grid(cmap, sc.step, sc.t_max)
    return solve(wrap(model), data, cmap, grid, sc.thresholds)


def test_field_overflow_report():
    # the time component is the first to cross a ceiling of 1.5
    sol = ori_smooth_solve(1.5)
    assert sol.blowup.reason == "field overflow"
    assert sol.levels_computed == 64
    assert (sol.blowup.time, sol.blowup.vtheta, sol.blowup.component) == (
        1.5703705300795936, 0.0, 0,
    )
    assert sol.blowup.value == 1.5139238429705577


def test_field_overflow_of_a_nonfinite_field_reports_inf():
    # a NaN right-hand side makes every field of level 1 non-finite
    class NaNRhs:
        def __init__(self, model):
            self.null_forms = model.null_forms

        def contract_pq(self, u, p, q):
            return np.full_like(p, np.nan)

    sol = ori_smooth_solve(1e8, NaNRhs)
    assert sol.levels_computed == 1
    assert sol.blowup.reason == "field overflow"
    assert (sol.blowup.vtheta, sol.blowup.component) == (0.0, 0)
    assert sol.blowup.value == np.inf


def test_monitor_ceiling_consistency_error():
    # very coarse grid on O(1) data: discretization alone breaches the hard
    # monitor ceiling while everything stays bounded
    from stringsheet import NumericalConsistencyError

    model, data = circle_ori_data(nodes=64)
    cmap = build_theta0(data)
    grid = build_grid(cmap, cmap.vtheta_period / 16, 1.0)
    with pytest.raises(NumericalConsistencyError):
        solve(model, data, cmap, grid)


def test_relative_null_residual_shape():
    model, data = circle_ori_data(nodes=64)
    cmap = build_theta0(data)
    grid = build_grid(cmap, cmap.vtheta_period / 64, 0.5)
    u0, p0, q0 = initial_lightcone_data(data, cmap, grid)
    rp, rq = relative_null_residuals(model, u0, p0, q0)
    assert rp.shape == rq.shape == (len(grid.vtheta),)
    assert np.max(rp) < 1e-10 and np.max(rq) < 1e-10
