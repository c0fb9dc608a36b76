import numpy as np
import pytest

from conftest import (
    blowup_line_data,
    circle_ori_data,
    minkowski_circle_data,
    observed_orders,
)
from stringsheet import (
    ConfigError,
    Minkowski,
    OriQuadratic,
    build_grid,
    build_theta0,
    initial_lightcone_data,
    solve,
)
from stringsheet.lightcone import advance_diagonal, relative_null_residuals


def solved_minkowski(nodes=256, denom=256, t_max=2.0, unit_speeds=True, wave_amp=0.1):
    model, data = minkowski_circle_data(nodes=nodes, wave_amp=wave_amp, unit_speeds=unit_speeds)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 2.0 * np.pi / denom, t_max)
    return model, data, cmap, grid, solve(model, data, cmap, grid)


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
    psi = data.psi_at(th)
    dphi = data.phi_theta_at(th)
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
    sol = solve(model, data, cmap, grid)
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
