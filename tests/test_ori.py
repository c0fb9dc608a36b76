from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from conftest import (
    blowup_line_data,
    circle_ori_data,
    observed_orders,
    offset_circle_ori_data,
    record_levels,
    recorded_fields,
    recorded_solve,
    recorded_staged,
)
from oracles import (
    coupling,
    per_level_existence_check,
    per_level_minima,
    route_u3,
    u3_eta,
    u3_xi,
)
from stringsheet import (
    DomainTruncationError,
    lightcone,
    LightconeGrid,
    OriClosedForm,
    OriQuadratic,
    WindowError,
    build_grid,
    build_initial_data,
    build_theta0,
    solve,
    solve_plane_components,
    solve_time_component,
)
from stringsheet.ori import LatticeTables
from stringsheet.worldsheet import Profile


def fourier_profiles(rng, n_modes=3, amp=0.25):
    coef = rng.uniform(-amp, amp, size=(2, n_modes, 2))

    def phi3(s):
        out = np.zeros_like(np.asarray(s, dtype=float))
        for k in range(n_modes):
            out = out + coef[0, k, 0] * np.sin((k + 1) * s) + coef[0, k, 1] * np.cos((k + 1) * s)
        return out

    def psi3(s):
        out = np.zeros_like(np.asarray(s, dtype=float))
        for k in range(n_modes):
            out = out + coef[1, k, 0] * np.sin((k + 1) * s) + coef[1, k, 1] * np.cos((k + 1) * s)
        return out

    return phi3, psi3


# ---------------------------------------------------------------------------
# closed form basics
# ---------------------------------------------------------------------------


def test_static_profile_is_constant():
    c = 0.7
    cf = OriClosedForm.from_profiles(
        lambda s: np.full_like(s, c), lambda s: np.zeros_like(s), (-10.0, 10.0)
    )
    t = np.linspace(0.0, 8.0, 17)
    vals = cf.u3(t, np.zeros_like(t))
    assert np.allclose(vals, c, atol=1e-12)
    assert np.allclose(cf.log_argument(t, np.zeros_like(t)), np.exp(-c / 2), atol=1e-12)


def test_constant_velocity_log_growth():
    # flat position, constant velocity k: u3 = -2 log(1 - k t / 2)
    for k in (0.5, -0.4):
        cf = OriClosedForm.from_profiles(
            lambda s: np.zeros_like(s), lambda s: np.full_like(s, k), (-40.0, 40.0),
            nodes=4097,
        )
        t = np.linspace(0.0, 3.0, 13)
        got = cf.u3(t, np.zeros_like(t))
        assert np.allclose(got, -2.0 * np.log(1.0 - k * t / 2.0), atol=1e-10)


def test_initial_value_recovered():
    rng = np.random.default_rng(3)
    phi3, psi3 = fourier_profiles(rng)
    cf = OriClosedForm.from_profiles(phi3, psi3, (0.0, 2 * np.pi), periodic=True)
    vth = np.linspace(0.0, 2 * np.pi, 50)
    got = cf.u3(np.zeros_like(vth), vth)
    assert np.max(np.abs(got - phi3(vth))) < 1e-9


def test_cumulative_against_quad():
    rng = np.random.default_rng(11)
    phi3, psi3 = fourier_profiles(rng)
    cf = OriClosedForm.from_profiles(phi3, psi3, (0.0, 2 * np.pi), periodic=True)

    def integrand(s):
        return psi3(2 * s) * np.exp(-0.5 * phi3(2 * s))

    for b in (0.3, 1.9, 3.7, 9.4, -2.2):
        expect = quad(integrand, 0.0, b, epsabs=1e-12, limit=300)[0]
        got = cf.cumulative(np.array([b]))[0] - cf.cumulative(np.array([0.0]))[0]
        assert got == pytest.approx(expect, abs=5e-9)


def test_dual_routes_agree(rng):
    for _ in range(5):
        phi3, psi3 = fourier_profiles(rng)
        cf = OriClosedForm.from_profiles(phi3, psi3, (0.0, 2 * np.pi), periodic=True)
        t = np.linspace(0.0, 2.0, 9)[:, None]
        vth = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)[None, :]
        base = cf.u3(t, vth)
        assert np.nanmax(np.abs(base - route_u3(cf, t, vth, "p"))) < 1e-8
        assert np.nanmax(np.abs(base - route_u3(cf, t, vth, "q"))) < 1e-8


def test_exact_partials_match_finite_differences(rng):
    phi3, psi3 = fourier_profiles(rng, amp=0.2)
    cf = OriClosedForm.from_profiles(phi3, psi3, (0.0, 2 * np.pi), periodic=True)
    t = np.linspace(0.2, 1.8, 7)
    vth = np.linspace(0.0, 2 * np.pi, 11)
    step = 1e-5
    for tt in t:
        for vv in vth:
            # xi-derivative: d/dt + d/dvtheta at unit rate along plus lines
            fd_xi = (
                cf.u3(np.array([tt + step / 2]), np.array([vv + step / 2]))[0]
                - cf.u3(np.array([tt - step / 2]), np.array([vv - step / 2]))[0]
            ) / step
            fd_eta = (
                cf.u3(np.array([tt + step / 2]), np.array([vv - step / 2]))[0]
                - cf.u3(np.array([tt - step / 2]), np.array([vv + step / 2]))[0]
            ) / step
            assert u3_xi(cf, tt, vv) == pytest.approx(fd_xi, rel=1e-5, abs=1e-6)
            assert u3_eta(cf, tt, vv) == pytest.approx(fd_eta, rel=1e-5, abs=1e-6)


def test_blowup_marker_and_mask():
    cf = OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: np.full_like(s, 0.5), (-40.0, 40.0),
        nodes=4097,
    )
    t = np.array([3.9, 3.999999, 4.1, 5.0])
    vals = cf.u3(t, np.zeros_like(t))
    assert np.isfinite(vals[0])
    assert np.isnan(vals[2]) and np.isnan(vals[3])
    args = cf.log_argument(t, np.zeros_like(t))
    assert args[2] < 0.0  # the marker carries the argument value


# ---------------------------------------------------------------------------
# lattice tables
# ---------------------------------------------------------------------------


def lattice(lo, step, nodes, levels, period=None):
    """A characteristic lattice of ``nodes`` nodes from ``lo`` and
    ``levels`` levels, on a ring when ``period`` is given."""
    return LightconeGrid(
        step=step, t_max=levels * step, vtheta=lo + step * np.arange(nodes),
        period=period, n_levels=levels,
    )


def assert_tables_match_pointwise(cf, lo, step, nodes, levels):
    """Every lattice point and leg midpoint against the pointwise closed
    form and its pointwise partials: on a ring one node past each end of the
    row, on a line the triangle of determinacy, nodes level .. nodes - 1 -
    level at each level and half level."""
    tables = LatticeTables(cf, lattice(lo, step, nodes, levels, cf.period))
    for level in np.arange(0.0, levels + 0.5, 0.5):
        if cf.period is not None:
            whole = level == int(level)
            first, count = (-1.0, nodes + 2) if whole else (-0.5, nodes + 1)
        else:
            first, count = level, int(nodes - 2 * level)
        t = level * step
        vth = lo + step * (first + np.arange(count))
        got = tables.log_argument(level, first, count)
        assert np.max(np.abs(got - cf.log_argument(t, vth))) <= 1e-14, level
        for name, pointwise in (("u3_xi", u3_xi), ("u3_eta", u3_eta), ("coupling", coupling)):
            got = getattr(tables, name)(level, first, count)
            expect = pointwise(cf, t, vth)
            assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-13, (name, level)


def test_lattice_tables_match_pointwise_over_several_periods():
    # levels reach t = 3 periods, so xi and eta wind three times each way
    cf = OriClosedForm.from_profiles(
        lambda s: 0.1 * np.sin(s), lambda s: -0.5 + 0.1 * np.cos(s), (0.0, 2 * np.pi),
        periodic=True, nodes=257, coupling_constant=0.7,
    )
    assert_tables_match_pointwise(cf, 0.0, 2 * np.pi / 64, 64, 192)


def test_lattice_tables_match_pointwise_past_the_line_window():
    # on the window's own lattice the triangle stays inside the window; on
    # a lattice 4 wider at both ends xi and eta run 4 past both window
    # edges, where the profiles are clipped and the cumulative integral
    # extends linearly
    cf = OriClosedForm.from_profiles(
        lambda s: 0.1 * np.sin(s), lambda s: -0.5 + 0.1 * np.cos(s), (-5.0, 5.0),
        nodes=401, coupling_constant=0.7,
    )
    assert_tables_match_pointwise(cf, -5.0, 0.05, 201, 80)
    assert_tables_match_pointwise(cf, -9.0, 0.05, 361, 80)


def test_line_tables_sample_one_entry_per_lattice_node(monkeypatch):
    cf = OriClosedForm.from_profiles(
        lambda s: 0.1 * np.sin(s), lambda s: -0.5 + 0.1 * np.cos(s), (-5.0, 5.0), nodes=401,
    )
    grid = cf.scan_grid(3.0)
    sampled = []
    cumulative = cf.cumulative
    monkeypatch.setattr(cf, "cumulative", lambda s: sampled.append(np.size(s)) or cumulative(s))
    LatticeTables(cf, grid)
    # one cumulative per table (A in xi, B in eta) and lattice node
    assert sum(sampled) == 2 * len(grid.vtheta) == 2 * 401


def test_lattice_tables_reject_points_outside():
    cf = OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: np.full_like(s, -0.5), (0.0, 2 * np.pi),
        periodic=True, nodes=64,
    )
    tables = LatticeTables(cf, lattice(0.0, 0.1, 10, 5, cf.period))
    assert np.all(np.isfinite(tables.log_argument(7, 0, 10)))
    assert np.all(np.isfinite(tables.log_argument(0, 3, 10)))
    for level, node in ((8, 0), (0, 4), (-8, 0)):
        with pytest.raises(IndexError):
            tables.log_argument(level, node, 10)


# ---------------------------------------------------------------------------
# existence criterion
# ---------------------------------------------------------------------------


def test_existence_analytic_blowup_time():
    report = _constant_velocity_form().existence_check(6.0)
    assert not report.passed
    assert report.t_star == pytest.approx(4.0, abs=1e-4)


def brute_force_scan(cf, t_max, bisect_tol=1e-6):
    """The existence scan with every lattice level evaluated pointwise: on
    a ring every node at every time, on a line only the nodes at least t
    from both window ends, and only until none is left."""
    n = len(cf.vtheta_nodes)
    lo, hi = cf.vtheta_nodes[0], cf.vtheta_nodes[-1]
    step = (hi - lo) / (n - 1) if cf.period is None else cf.period / n
    nodes = lo + step * np.arange(n)
    if cf.period is None:
        t_max = min(t_max, (n - 1) // 2 * step)
    levels = int(np.floor(t_max / step))
    t_nodes = step * np.arange(levels + 1)
    if t_max > t_nodes[-1]:
        t_nodes = np.append(t_nodes, t_max)

    def inside(t):
        if cf.period is not None:
            return nodes
        k = int(np.ceil(t / step - 1e-9))  # node k is the first at least t from lo
        return nodes[k : n - k]

    def min_arg(t):
        x = inside(t)
        return float(np.min(cf.log_argument(np.full_like(x, t), x)))

    margin, t_prev = np.inf, 0.0
    for t in t_nodes:
        m = min_arg(t)
        margin = min(margin, m)
        if m <= cf.eps_log:
            t_lo, t_hi = t_prev, float(t)
            while t_hi - t_lo > bisect_tol:
                mid = 0.5 * (t_lo + t_hi)
                if min_arg(mid) <= cf.eps_log:
                    t_hi = mid
                else:
                    t_lo = mid
            x = inside(t_hi)
            args = cf.log_argument(np.full_like(x, t_hi), x)
            return dict(
                passed=False,
                margin=margin,
                t_star=0.5 * (t_lo + t_hi),
                vtheta_star=float(x[int(np.argmin(args))]),
                t_end=t_max,
            )
        t_prev = float(t)
    return dict(passed=True, margin=margin, t_star=None, vtheta_star=None, t_end=t_max)


def _periodic_form(psi3):
    return OriClosedForm.from_profiles(
        lambda s: 0.2 * np.sin(s), psi3, (0.0, 2 * np.pi), periodic=True, nodes=257
    )


def _line_form():
    model, data = blowup_line_data()
    return OriClosedForm.from_initial_data(data, build_theta0(data), coupling_constant=model.a)


def _constant_velocity_form():
    # step 10 / 200 = 0.05
    return OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: np.full_like(s, 0.5), (-5.0, 5.0), nodes=201
    )


def _edge_ramp_form():
    # psi3 rises to 1/2 only past s = 8.5: the window's extension past its
    # right end blows up at t = 6.5, the data's triangle of determinacy never
    return OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: 0.25 * (1.0 + np.tanh((s - 8.5) / 0.3)),
        (-10.0, 10.0),
    )


# label: (closed form, t_max)
SCAN_CASES = {
    "periodic blow-up": lambda: (_periodic_form(lambda s: 0.6 + 0.3 * np.cos(s)), 8.0),
    "periodic, many periods": lambda: (_periodic_form(lambda s: -0.2 - 0.1 * np.cos(s)), 25.0),
    "line blow-up": lambda: (_line_form(), 6.0),
    "line, step 0.05": lambda: (_constant_velocity_form(), 6.0),
    "line, past the triangle": lambda: (_edge_ramp_form(), 12.0),
    "line, off-lattice t_max": lambda: (_edge_ramp_form(), 8.0),
}


@pytest.mark.parametrize("label", list(SCAN_CASES))
def test_existence_check_matches_pointwise_scan(label):
    cf, t_max = SCAN_CASES[label]()
    report = cf.existence_check(t_max)
    expect = brute_force_scan(cf, t_max)
    assert report.t_end == expect["t_end"]
    assert report.passed == expect["passed"]
    assert abs(report.margin_min - expect["margin"]) <= 1e-14
    assert report.vtheta_star == expect["vtheta_star"]
    if not expect["passed"]:
        assert abs(report.t_star - expect["t_star"]) <= 1e-6


def bits(values):
    """The float64 bit patterns of ``values``, so that equality is bitwise."""
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_scan_is_the_per_level_scan(cf, t_max):
    """The blocked scan's report and per-level minima against the scan that
    read one level per iteration, bit for bit."""
    report, expect = cf.existence_check(t_max), per_level_existence_check(cf, t_max)
    assert astuple(report) == astuple(expect)
    assert bits(report.margin_min) == bits(expect.margin_min)
    grid = cf.scan_grid(t_max)
    tables = LatticeTables(cf, grid)
    blocks = list(tables.level_minima())
    assert [m for levels, _ in blocks for m in levels] == list(range(grid.n_levels + 1))
    got = np.concatenate([minima for _, minima in blocks])
    assert np.array_equal(bits(got), bits(per_level_minima(tables, grid)))
    return report, grid, got


def _levels_not_dividing(count):
    return next(k for k in (7, 11, 13, 17) if count % k)


@pytest.mark.parametrize("batch", ["one level", "not dividing", "failure in a later block"])
@pytest.mark.parametrize("label", list(SCAN_CASES))
def test_blocked_scan_is_the_per_level_scan_bit_for_bit(label, batch, monkeypatch):
    cf, t_max = SCAN_CASES[label]()
    grid = cf.scan_grid(t_max)
    nodes, count = len(grid.vtheta), grid.n_levels + 1
    if batch == "one level":
        per_block = 1
    elif batch == "not dividing":
        per_block = _levels_not_dividing(count)
    else:
        # the first level at or below eps_log (or the last level on a pass)
        # falls inside the fourth block or a later one, not at its start
        _, expect_grid, minima = assert_scan_is_the_per_level_scan(cf, t_max)
        failing = np.flatnonzero(minima <= cf.eps_log)
        first = int(failing[0]) if len(failing) else count - 1
        per_block = max(1, first // 3 - 1)
        assert first // per_block >= 3 and first % per_block
    monkeypatch.setattr(lightcone, "LEVEL_BATCH", per_block * nodes)
    assert_scan_is_the_per_level_scan(cf, t_max)


@given(
    st.sampled_from(range(4)),
    arrays(np.float64, st.tuples(st.just(2), st.integers(1, 3), st.just(2)),
           elements=st.floats(-0.3, 0.3)),
    st.floats(0.0, 1.0),
    st.integers(1, 40),
)
def test_blocked_scan_matches_the_per_level_scan_on_random_profiles(kind, coef, u, per_block):
    # the four kinds of random periodic profile the existence benchmark
    # draws: psi3 pushed nonpositive, small amplitudes, a forward drift that
    # blows up (so the scan bisects), and unconstrained
    shift, scale = 0.0, 1.0
    if kind == 0:
        shift = -(0.05 + 0.25 * u) - float(np.sum(np.abs(coef[1])))
    elif kind == 1:
        scale = 0.03
    elif kind == 2:
        shift = 0.5 + 0.5 * u

    def series(s, row):
        s = np.asarray(s, dtype=float)
        k = np.arange(1, coef.shape[1] + 1)
        return scale * (np.sin(np.multiply.outer(s, k)) @ coef[row, :, 0]
                        + np.cos(np.multiply.outer(s, k)) @ coef[row, :, 1])

    cf = OriClosedForm.from_profiles(
        lambda s: series(s, 0), lambda s: shift + series(s, 1), (0.0, 2 * np.pi),
        periodic=True, nodes=257,
    )
    with mock.patch.object(lightcone, "LEVEL_BATCH", per_block * 257):
        assert_scan_is_the_per_level_scan(cf, 8.0)


@pytest.mark.parametrize("t_max,t_end", [(12.0, 10.0), (8.0, 8.0)])
def test_line_scan_reads_only_the_triangle_of_determinacy(t_max, t_end):
    # the window's extension past s = 10 would fail at t* = 6.500289,
    # vtheta = 10; inside the triangle the log argument stays above 0.81
    cf = _edge_ramp_form()
    report = cf.existence_check(t_max)
    assert report.passed
    assert report.margin_min >= 0.81
    assert report.t_end == t_end
    assert report.describe() == (
        f"PASS over scanned region (t in [0, {t_end:g}], vtheta in [-10 + t, 10 - t]); "
        "min margin 8.125e-01"
    )


def test_line_violation_lies_inside_the_triangle():
    cf = _line_form()
    report = cf.existence_check(5.0)
    lo, hi = cf.scan_window()
    assert report.t_star == pytest.approx(4.0, abs=1e-4)
    assert lo + report.t_star <= report.vtheta_star <= hi - report.t_star


def test_periodic_scan_nodes_stop_short_of_the_period():
    # 2 pi / 197 is a step for which np.arange(0, 2 pi, step) returns 198
    # values, the last one being vtheta = 2 pi, the first node again
    cf = OriClosedForm.from_profiles(
        lambda s: 0.3 * np.sin(s), lambda s: -0.2 - 0.1 * np.cos(s), (0.0, 2 * np.pi),
        periodic=True, nodes=197,
    )
    seen = []

    def recording(t, vtheta):
        seen.append(np.asarray(vtheta))
        return OriClosedForm.log_argument(cf, t, vtheta)

    cf.log_argument = recording
    assert cf.existence_check(2.0).passed
    assert seen and all(len(v) == 197 and v[-1] < 2 * np.pi - 1e-9 for v in seen)


def test_existence_pass_for_nonpositive_velocity():
    cf = OriClosedForm.from_profiles(
        lambda s: 0.3 * np.sin(s), lambda s: -0.2 - 0.1 * np.cos(s), (0.0, 2 * np.pi),
        periodic=True,
    )
    report = cf.existence_check(25.0)
    assert report.passed
    flags = cf.corollary_flags()
    assert flags.psi3_nonpositive


def test_flags_sign_and_l1():
    cf = OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: np.full_like(s, -1.0), (0.0, 2 * np.pi),
        periodic=True,
    )
    flags = cf.corollary_flags()
    assert flags.psi3_nonpositive and flags.p30_nonpositive and flags.q30_nonpositive
    # pure position ripple: one-form traces change sign but have small L1
    cf = OriClosedForm.from_profiles(
        lambda s: 0.02 * np.sin(s), lambda s: np.zeros_like(s), (0.0, 2 * np.pi),
        periodic=True,
    )
    flags = cf.corollary_flags(l1_threshold=0.1)
    assert not flags.p30_nonpositive and not flags.q30_nonpositive
    assert flags.p30_l1_small and flags.q30_l1_small
    # integral of |0.02 cos| over a period is 0.08, so a tighter threshold fails
    flags = cf.corollary_flags(l1_threshold=0.05)
    assert not flags.p30_l1_small


def test_all_false_flags_do_not_imply_failure():
    # positive velocity somewhere, sizable L1, yet existence passes on the
    # scanned window: the conditions are sufficient, not necessary
    cf = OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s), lambda s: 0.05 + 0.2 * np.sin(s), (0.0, 2 * np.pi),
        periodic=True,
    )
    flags = cf.corollary_flags()
    assert not flags.any_true()
    assert cf.existence_check(10.0).passed


def test_consistency_residual_small_on_real_data():
    # the straightened traces satisfy (q30 - p30) / 2 = d phi3 / d vtheta
    _, data = circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=0.5)
    x = cf.vtheta_nodes
    residual = 0.5 * (cf.q30_bar(x) - cf.p30_bar(x)) - cf.phi3_bar(x, nu=1)
    assert np.max(np.abs(residual)) < 1e-6


def test_straightened_velocity_differs_from_naive_composition():
    # when the mean speed is nonzero the straightened velocity is not the
    # plain composition of psi3 with the inverse map
    _, data = circle_ori_data(nodes=256, z_amp=0.1, z_vel=0.2)
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=0.5)
    theta_star = cmap.theta0_inverse(cmap.vtheta_nodes)
    naive = Profile(data.theta, data.psi, data.period)(theta_star)[:, 3]
    actual = cf.psi3_bar(cmap.vtheta_nodes)
    drift = 0.5 * (data.lam_plus + data.lam_minus)
    assert np.max(np.abs(drift)) > 1e-3  # scenario really has mean drift
    assert np.max(np.abs(actual - naive)) > 1e-4
    # and the difference is exactly the drift times the position derivative
    lam_minus = Profile(data.theta, data.lam_minus, data.period)(theta_star)
    recon = naive + lam_minus * data.phi_at(theta_star, nu=1)[:, 3]
    assert np.allclose(cf.p30_bar(cmap.vtheta_nodes), recon, atol=1e-7)


# ---------------------------------------------------------------------------
# staged solves
# ---------------------------------------------------------------------------


def test_plane_components_free_wave_when_coupling_vanishes():
    # static z closed form (constant position, zero velocity): the coupling
    # coefficient is identically zero, so the transverse march must
    # reproduce plain wave superposition.  Timelike data always carries
    # some z-drift, so the static closed form is supplied synthetically.
    model, data = offset_circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    grid = build_grid(cmap, cmap.vtheta_period / 256, 1.0)
    lo = float(cmap.vtheta_nodes[0])
    cf = OriClosedForm.from_profiles(
        lambda s: np.zeros_like(s),
        lambda s: np.zeros_like(s),
        (lo, lo + cmap.vtheta_period),
        periodic=True,
        coupling_constant=model.a,
    )
    assert np.max(np.abs(coupling(cf, grid.t_nodes[:, None], grid.vtheta[None, :]))) < 1e-20
    plane = recorded_fields(
        solve_plane_components(LatticeTables(cf, grid), data, cmap, grid), grid
    )
    # compare against superposition of the mapped profiles
    theta_star = cmap.theta0_inverse
    for comp, col in ((0, 1), (1, 2)):
        prof = lambda s: data.phi_at(np.asarray(theta_star(s)))[:, col]
        tt = grid.t_nodes[:, None]
        vv = grid.vtheta[None, :]
        shape = (len(grid.t_nodes), len(grid.vtheta))
        expect = 0.5 * (
            prof((vv + tt).ravel()).reshape(shape) + prof((vv - tt).ravel()).reshape(shape)
        )
        err = np.max(np.abs(plane.u[:, :, comp] - expect))
        assert err < 5e-4


def test_staged_matches_general_solver():
    model, data = circle_ori_data(nodes=256)
    cmap = build_theta0(data)
    errs = {c: [] for c in range(4)}
    for denom in (128, 256):
        grid = build_grid(cmap, cmap.vtheta_period / denom, 2.0)
        sol = recorded_solve(model, data, cmap, grid)
        cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
        staged = recorded_staged(cf, data, cmap, grid)
        for c in range(4):
            errs[c].append(float(np.nanmax(np.abs(sol.u[:, :, c] - staged[:, :, c]))))
    for c in range(4):
        assert errs[c][-1] < 1e-5
        assert observed_orders(errs[c])[0] == pytest.approx(2.0, abs=0.4)


def rippled_line_data(nodes=401, a=0.5):
    """Straight string along x with a transverse and a z-ripple and a
    localised z-velocity bump: unlike blowup_line_data, its closed form
    and coupling vary along vtheta."""
    model = OriQuadratic(a)
    th = np.linspace(-10.0, 10.0, nodes)
    n = len(th)
    phi = np.stack([np.zeros(n), th, 0.3 * np.sin(0.5 * th), 0.1 * np.cos(0.7 * th)], axis=1)
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), 0.2 * np.exp(-0.1 * th**2)], axis=1)
    return model, build_initial_data(model, th, phi, psi, None)


@pytest.mark.parametrize(
    "make, components",
    [(lambda: blowup_line_data(nodes=401), (0, 1, 3)), (rippled_line_data, (0, 1, 2, 3))],
    ids=["blowup_line", "rippled_line"],
)
def test_staged_matches_general_solver_on_a_line(make, components):
    # a line lattice loses one node per side and level; the staged solves
    # share the corner logic of the general march, so they must leave the
    # same triangle and converge to it at second order.  The y-component
    # of the blow-up data is zero in both and drops out of the orders.
    model, data = make()
    cmap = build_theta0(data)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
    errs = {c: [] for c in components}
    for h in (0.05, 0.025):
        grid = build_grid(cmap, h, 2.0)
        sol = recorded_solve(model, data, cmap, grid)
        staged = recorded_staged(cf, data, cmap, grid)
        assert np.array_equal(np.isnan(staged), np.isnan(sol.u))
        for c in errs:
            errs[c].append(float(np.nanmax(np.abs(sol.u[:, :, c] - staged[:, :, c]))))
    for c in errs:
        assert errs[c][-1] < 1e-4
        assert observed_orders(errs[c])[0] == pytest.approx(2.0, abs=0.3)


def test_transverse_swap_symmetry():
    # swapping the two transverse axes while flipping the sign of the
    # coupling constant swaps the roles of the two components
    from stringsheet import OriQuadratic, build_initial_data

    n = 256
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    base_phi = np.stack(
        [np.zeros(n), np.sin(th), np.cos(th), 0.05 * np.cos(th)], axis=1
    )
    base_psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, 0.05)], axis=1)
    swapped_phi = base_phi[:, [0, 2, 1, 3]]
    swapped_psi = base_psi[:, [0, 2, 1, 3]]
    out = {}
    for tag, a, phi, psi in (
        ("base", 0.3, base_phi, base_psi),
        ("swap", -0.3, swapped_phi, swapped_psi),
    ):
        model = OriQuadratic(a)
        data = build_initial_data(model, th, phi, psi, 2 * np.pi)
        cmap = build_theta0(data)
        grid = build_grid(cmap, cmap.vtheta_period / 128, 1.0)
        cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=a)
        out[tag] = recorded_fields(
            solve_plane_components(LatticeTables(cf, grid), data, cmap, grid), grid
        )
    assert np.allclose(out["base"].u[:, :, 0], out["swap"].u[:, :, 1], atol=1e-10)
    assert np.allclose(out["base"].u[:, :, 1], out["swap"].u[:, :, 0], atol=1e-10)


def test_staged_solve_rejects_blown_domain():
    model, data = blowup_line_data(nodes=401)
    cmap = build_theta0(data)
    grid = build_grid(cmap, 0.05, 4.5)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
    with pytest.raises(DomainTruncationError):
        record_levels(solve_plane_components(LatticeTables(cf, grid), data, cmap, grid), grid)


def test_time_component_free_wave_limit():
    # a = 0 decouples everything: the time component is a free wave
    model, data = circle_ori_data(nodes=256, a=0.0)
    cmap = build_theta0(data)
    grid = build_grid(cmap, cmap.vtheta_period / 256, 1.0)
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=0.0)
    tables = LatticeTables(cf, grid)
    plane = solve_plane_components(tables, data, cmap, grid)
    time_f = recorded_fields(solve_time_component(tables, data, cmap, grid, plane), grid)
    sol = recorded_solve(model, data, cmap, grid)
    assert np.nanmax(np.abs(time_f.u - sol.u[:, :, 0])) < 1e-6


def test_staged_solve_rejects_lattice_past_the_data_window():
    # a hand-built line lattice reaching 10 steps past each end of the
    # straightened window: its initial line maps outside the sampled data
    model, data = blowup_line_data(nodes=401)
    cmap = build_theta0(data)
    step = 0.05
    lo, hi = cmap.vtheta_nodes[0] - 10 * step, cmap.vtheta_nodes[-1] + 10 * step
    vtheta = lo + step * np.arange(int(np.floor((hi - lo) / step)) + 1)
    grid = LightconeGrid(
        step=step, t_max=1.0, vtheta=vtheta, period=None, n_levels=20
    )
    cf = OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
    with pytest.raises(WindowError):
        solve(model, data, cmap, grid)
    with pytest.raises(WindowError):
        recorded_staged(cf, data, cmap, grid)
