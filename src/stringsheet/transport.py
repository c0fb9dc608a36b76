"""Exact transport of the characteristic-speed pair.

The two speeds form a 2x2 quasilinear system in which each speed is
constant along the other family's characteristics.  A conservation identity
lets us build a strictly increasing coordinate in which both families
travel at unit speed, so the system is solved exactly by shifting the
initial profiles; the original coordinate is recovered by integrating the
inverse differential with a midpoint march.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import CausalityError, NumericalConsistencyError
from .worldsheet import StringInitialData

__all__ = [
    "CoordinateMap",
    "build_theta0",
    "map_from_profiles",
    "TransportFields",
    "solve_riemann_invariants",
    "WorldsheetMesh",
    "build_inverse_map",
    "rectangle_residual",
    "conservation_residual",
    "rk4_transport_check",
]


@dataclass
class CoordinateMap:
    """Monotone tables of the straightening coordinate and speed profiles.

    For closed strings the map winds: theta0(theta + L) = theta0(theta) + P
    where P is the image period; evaluations reduce arguments accordingly.
    Line-domain speed profiles extrapolate as constants outside the window
    (callers can ask whether an argument was clamped).
    """

    theta_nodes: np.ndarray
    vtheta_nodes: np.ndarray
    periodic: bool
    theta_period: Optional[float]
    vtheta_period: Optional[float]
    anchor_theta: float
    _fwd: PchipInterpolator
    _inv: PchipInterpolator
    _prof_minus: CubicSpline
    _prof_plus: CubicSpline

    @property
    def window(self):
        return float(self.vtheta_nodes[0]), float(
            self.vtheta_nodes[0] + self.vtheta_period
            if self.periodic
            else self.vtheta_nodes[-1]
        )

    # -- coordinate tables -------------------------------------------------

    def theta0(self, theta):
        th = np.asarray(theta, dtype=float)
        if self.periodic:
            lo = self.theta_nodes[0]
            k = np.floor((th - lo) / self.theta_period)
            rem = th - k * self.theta_period
            return self._fwd(rem) + k * self.vtheta_period
        lo, hi = self.theta_nodes[0], self.theta_nodes[-1]
        out = self._fwd(np.clip(th, lo, hi))
        # linear continuation with the edge slope of the integrand
        slo = float(self._fwd(lo, nu=1))
        shi = float(self._fwd(hi, nu=1))
        out = np.where(th < lo, self._fwd(lo) + slo * (th - lo), out)
        out = np.where(th > hi, self._fwd(hi) + shi * (th - hi), out)
        return out

    def theta0_inverse(self, vtheta):
        s = np.asarray(vtheta, dtype=float)
        if self.periodic:
            lo = self.vtheta_nodes[0]
            k = np.floor((s - lo) / self.vtheta_period)
            rem = s - k * self.vtheta_period
            return self._inv(rem) + k * self.theta_period
        lo, hi = self.vtheta_nodes[0], self.vtheta_nodes[-1]
        out = self._inv(np.clip(s, lo, hi))
        slo = float(self._inv(lo, nu=1))
        shi = float(self._inv(hi, nu=1))
        out = np.where(s < lo, self._inv(lo) + slo * (s - lo), out)
        out = np.where(s > hi, self._inv(hi) + shi * (s - hi), out)
        return out

    # -- speed profiles in the straightened coordinate ---------------------

    def _reduce(self, s):
        s = np.asarray(s, dtype=float)
        if self.periodic:
            lo = self.vtheta_nodes[0]
            return lo + np.mod(s - lo, self.vtheta_period)
        return np.clip(s, self.vtheta_nodes[0], self.vtheta_nodes[-1])

    def clamped(self, s) -> bool:
        if self.periodic:
            return False
        s = np.asarray(s, dtype=float)
        return bool(
            np.any((s < self.vtheta_nodes[0]) | (s > self.vtheta_nodes[-1]))
        )

    def lam_minus_bar(self, s):
        return self._prof_minus(self._reduce(s))

    def lam_plus_bar(self, s):
        return self._prof_plus(self._reduce(s))


def build_theta0(data: StringInitialData) -> CoordinateMap:
    """Cumulative-Simpson table of the straightening coordinate, anchored at
    the grid node nearest theta = 0, with a monotone-cubic inverse."""
    gap = data.lam_plus - data.lam_minus
    if np.any(gap <= 0.0):
        k = int(np.argmin(gap))
        raise CausalityError(
            f"speed ordering fails at node {k}; straightening map undefined"
        )
    periodic = data.domain.periodic
    theta = data.theta
    if periodic:
        theta_ext = np.append(theta, theta[0] + data.domain.length)
        integrand = 2.0 / np.append(gap, gap[0])
    else:
        theta_ext = theta
        integrand = 2.0 / gap
    cum = cumulative_simpson(integrand, x=theta_ext, initial=0.0)
    anchor_idx = int(np.argmin(np.abs(theta)))
    cum = cum - cum[anchor_idx]
    if np.any(np.diff(cum) <= 0.0):
        raise CausalityError("straightening coordinate is not strictly increasing")
    fwd = PchipInterpolator(theta_ext, cum)
    inv = PchipInterpolator(cum, theta_ext)
    vtheta_nodes = cum[: len(theta)] if periodic else cum
    if periodic:
        period = float(cum[-1] - cum[0])
        x = np.append(vtheta_nodes, vtheta_nodes[0] + period)
        pm = CubicSpline(x, np.append(data.lam_minus, data.lam_minus[0]), bc_type="periodic")
        pp = CubicSpline(x, np.append(data.lam_plus, data.lam_plus[0]), bc_type="periodic")
    else:
        period = None
        pm = CubicSpline(vtheta_nodes, data.lam_minus)
        pp = CubicSpline(vtheta_nodes, data.lam_plus)
    return CoordinateMap(
        theta_nodes=theta,
        vtheta_nodes=vtheta_nodes,
        periodic=periodic,
        theta_period=data.domain.length if periodic else None,
        vtheta_period=period,
        anchor_theta=float(theta[anchor_idx]),
        _fwd=fwd,
        _inv=inv,
        _prof_minus=pm,
        _prof_plus=pp,
    )


def map_from_profiles(
    lam_minus_bar,
    lam_plus_bar,
    vtheta_window,
    nodes: int = 513,
    periodic: bool = False,
) -> CoordinateMap:
    """Synthetic map built directly from straightened-coordinate profiles.

    Useful for driving the transport layer with manufactured speed data; the
    implied original coordinate follows from integrating
    d theta / d vtheta = (lam+ - lam-) / 2.
    """
    lo, hi = map(float, vtheta_window)
    if periodic:
        vth = np.linspace(lo, hi, nodes, endpoint=False)
        vth_ext = np.append(vth, hi)
    else:
        vth = np.linspace(lo, hi, nodes)
        vth_ext = vth
    lm = np.asarray(lam_minus_bar(vth_ext), dtype=float)
    lp = np.asarray(lam_plus_bar(vth_ext), dtype=float)
    if np.any(lp - lm <= 0.0):
        raise CausalityError("profiles must satisfy lam- < lam+ everywhere")
    theta_ext = cumulative_simpson((lp - lm) / 2.0, x=vth_ext, initial=0.0)
    fwd = PchipInterpolator(theta_ext, vth_ext)
    inv = PchipInterpolator(vth_ext, theta_ext)
    if periodic:
        period = hi - lo
        pm = CubicSpline(vth_ext, lm, bc_type="periodic") if np.isclose(lm[0], lm[-1]) else None
        pp = CubicSpline(vth_ext, lp, bc_type="periodic") if np.isclose(lp[0], lp[-1]) else None
        if pm is None or pp is None:
            raise CausalityError("periodic profiles must match at the seam")
        theta_period = float(theta_ext[-1] - theta_ext[0])
        vnodes = vth
    else:
        period = None
        theta_period = None
        pm = CubicSpline(vth_ext, lm)
        pp = CubicSpline(vth_ext, lp)
        vnodes = vth_ext
    return CoordinateMap(
        theta_nodes=theta_ext[: len(vnodes)],
        vtheta_nodes=vnodes,
        periodic=periodic,
        theta_period=theta_period,
        vtheta_period=period,
        anchor_theta=0.0,
        _fwd=fwd,
        _inv=inv,
        _prof_minus=pm,
        _prof_plus=pp,
    )


@dataclass
class TransportFields:
    """Speed fields on the (t, vtheta) lattice, transported exactly."""

    t_nodes: np.ndarray
    vtheta_nodes: np.ndarray
    lam_minus: np.ndarray  # shape (levels, nodes)
    lam_plus: np.ndarray
    ordering_ok: bool
    violation: Optional[tuple]  # (t, vtheta, lam-, lam+)
    window_exited: bool


def solve_riemann_invariants(
    cmap: CoordinateMap, t_nodes, vtheta_nodes
) -> TransportFields:
    """Shift the initial profiles along the unit-speed characteristics and
    verify the strict ordering on the whole lattice."""
    t = np.asarray(t_nodes, dtype=float)
    s = np.asarray(vtheta_nodes, dtype=float)
    args_minus = s[None, :] - t[:, None]
    args_plus = s[None, :] + t[:, None]
    lm = cmap.lam_minus_bar(args_minus)
    lp = cmap.lam_plus_bar(args_plus)
    exited = cmap.clamped(args_minus) or cmap.clamped(args_plus)
    bad = lm >= lp
    ordering_ok = not bool(np.any(bad))
    violation = None
    if not ordering_ok:
        level = int(np.argmax(np.any(bad, axis=1)))
        j = int(np.argmax(bad[level]))
        violation = (float(t[level]), float(s[j]), float(lm[level, j]), float(lp[level, j]))
    return TransportFields(
        t_nodes=t,
        vtheta_nodes=s,
        lam_minus=lm,
        lam_plus=lp,
        ordering_ok=ordering_ok,
        violation=violation,
        window_exited=exited,
    )


@dataclass
class WorldsheetMesh:
    """theta(t, vtheta) reconstruction table on the same lattice."""

    t_nodes: np.ndarray
    vtheta_nodes: np.ndarray
    theta: np.ndarray  # shape (levels, nodes)


_RECTANGLES = 6
_RECTANGLE_SEED = 20121


def build_inverse_map(cmap: CoordinateMap, t_nodes, vtheta_nodes) -> WorldsheetMesh:
    """March d theta = ((lam+ - lam-)/2) d vtheta + ((lam+ + lam-)/2) dt in t
    with the midpoint rule from theta(0, .) = theta0^{-1}.

    The differential is exact, so integrating vtheta-first and t-first
    around six seeded lattice rectangles must agree to 10 h^2; disagreement
    raises a consistency error.
    """
    t = np.asarray(t_nodes, dtype=float)
    s = np.asarray(vtheta_nodes, dtype=float)
    theta = np.empty((len(t), len(s)))
    theta[0] = cmap.theta0_inverse(s)
    for m in range(len(t) - 1):
        dt = t[m + 1] - t[m]
        tm = t[m] + 0.5 * dt
        drift = 0.5 * (cmap.lam_plus_bar(s + tm) + cmap.lam_minus_bar(s - tm))
        theta[m + 1] = theta[m] + dt * drift
    mesh = WorldsheetMesh(t_nodes=t, vtheta_nodes=s, theta=theta)
    if len(t) > 2 and len(s) > 2:
        step = float(t[1] - t[0])
        rng = np.random.default_rng(_RECTANGLE_SEED)
        worst = 0.0
        for _ in range(_RECTANGLES):
            m = int(rng.integers(1, len(t)))
            ja, jb = sorted(rng.choice(len(s), size=2, replace=False))
            worst = max(worst, abs(rectangle_residual(cmap, t[m], s[ja], s[jb], step)))
        if worst > 10.0 * step**2:
            raise NumericalConsistencyError(
                f"coordinate reconstruction is path dependent "
                f"(residual {worst:.3e} > {10.0 * step**2:.3e})"
            )
    return mesh


def _midpoint_rule(f, lo, hi, step):
    """Integral of f from lo to hi by the midpoint rule on the panel count
    nearest |hi - lo| / step (at least one)."""
    n = max(1, int(round(abs(hi - lo) / step)))
    d = (hi - lo) / n
    return d * float(np.sum(f(lo + d * (np.arange(n) + 0.5))))


def rectangle_residual(cmap, t_hi, s_a, s_b, step) -> float:
    """Difference between the two integration orders over the rectangle
    [0, t_hi] x [s_a, s_b]; zero in the continuum."""

    def along_s(t):  # d theta / d vtheta at fixed t
        return lambda s: 0.5 * (cmap.lam_plus_bar(s + t) - cmap.lam_minus_bar(s - t))

    def along_t(s):  # d theta / dt at fixed vtheta
        return lambda t: 0.5 * (cmap.lam_plus_bar(s + t) + cmap.lam_minus_bar(s - t))

    route1 = _midpoint_rule(along_s(0.0), s_a, s_b, step) + _midpoint_rule(
        along_t(s_b), 0.0, t_hi, step
    )
    route2 = _midpoint_rule(along_t(s_a), 0.0, t_hi, step) + _midpoint_rule(
        along_s(t_hi), s_a, s_b, step
    )
    return float(route1 - route2)


def _slice_interpolant(theta_row, values, periodic, theta_period):
    """Cubic interpolant of a field sampled on one reconstructed t-slice."""
    th = np.asarray(theta_row, dtype=float)
    val = np.asarray(values, dtype=float)
    if periodic:
        lo = th[0]
        w = lo + np.mod(th - lo, theta_period)
        order = np.argsort(w)
        ws = w[order]
        vs = val[order]
        x = np.append(ws, ws[0] + theta_period)
        y = np.append(vs, vs[0])
        spline = CubicSpline(x, y, bc_type="periodic")
        return lambda q: spline(ws[0] + np.mod(np.asarray(q, float) - ws[0], theta_period))
    spline = CubicSpline(th, val)
    return spline


def conservation_residual(
    cmap: CoordinateMap, fields: TransportFields, mesh: WorldsheetMesh, theta_grid=None
) -> float:
    """Discrete residual of the conservation identity behind the map,
    d_t(2/(lam+ - lam-)) + d_theta((lam+ + lam-)/(lam+ - lam-)),
    on a fixed rectangular (t, theta) grid; converges at second order."""
    if theta_grid is None:
        theta_grid = cmap.theta_nodes
    th = np.asarray(theta_grid, dtype=float)
    levels = len(fields.t_nodes)
    a = np.empty((levels, len(th)))
    b = np.empty((levels, len(th)))
    for m in range(levels):
        gap = fields.lam_plus[m] - fields.lam_minus[m]
        ssum = fields.lam_plus[m] + fields.lam_minus[m]
        fa = _slice_interpolant(mesh.theta[m], 2.0 / gap, cmap.periodic, cmap.theta_period)
        fb = _slice_interpolant(mesh.theta[m], ssum / gap, cmap.periodic, cmap.theta_period)
        a[m] = fa(th)
        b[m] = fb(th)
    dt = float(fields.t_nodes[1] - fields.t_nodes[0])
    da_dt = (a[2:] - a[:-2]) / (2.0 * dt)
    if cmap.periodic:
        dth = float(th[1] - th[0])
        db = (np.roll(b, -1, axis=1) - np.roll(b, 1, axis=1)) / (2.0 * dth)
        res = da_dt + db[1:-1]
        return float(np.max(np.abs(res)))
    dth = float(th[1] - th[0])
    db = (b[:, 2:] - b[:, :-2]) / (2.0 * dth)
    res = da_dt[:, 1:-1] + db[1:-1]
    # trim edges influenced by constant extrapolation
    margin = max(1, int(np.ceil(len(th) / 10)))
    core = res[:, margin:-margin] if res.shape[1] > 2 * margin else res
    return float(np.max(np.abs(core)))


def rk4_transport_check(
    cmap: CoordinateMap,
    fields: TransportFields,
    mesh: WorldsheetMesh,
    n_paths: int = 10,
    seed: int = 7,
) -> float:
    """Trace plus-family characteristics in the original coordinates with
    RK4 and verify the minus speed is constant along them.

    Independent of the unit-speed construction: the path is driven only by
    per-slice samples of lam+(t, theta).
    """
    t = fields.t_nodes
    if len(t) < 3:
        raise ValueError("need at least three time levels")
    levels = len(t) - ((len(t) - 1) % 2)  # odd count -> even number of steps
    plus_interp = [
        _slice_interpolant(mesh.theta[m], fields.lam_plus[m], cmap.periodic, cmap.theta_period)
        for m in range(levels)
    ]
    minus_interp = [
        _slice_interpolant(mesh.theta[m], fields.lam_minus[m], cmap.periodic, cmap.theta_period)
        for m in range(levels)
    ]
    rng = np.random.default_rng(seed)
    starts = rng.choice(mesh.theta[0], size=min(n_paths, len(mesh.theta[0])), replace=False)
    worst = 0.0
    dt = float(t[1] - t[0])
    for th0 in starts:
        invariant = float(minus_interp[0](th0))
        th = float(th0)
        for m in range(0, levels - 2, 2):
            k1 = float(plus_interp[m](th))
            k2 = float(plus_interp[m + 1](th + dt * k1))
            k3 = float(plus_interp[m + 1](th + dt * k2))
            k4 = float(plus_interp[m + 2](th + 2.0 * dt * k3))
            th += (2.0 * dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            worst = max(worst, abs(float(minus_interp[m + 2](th)) - invariant))
    return worst
