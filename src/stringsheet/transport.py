"""Exact transport of the characteristic-speed pair.

The two speeds form a 2x2 quasilinear system in which each speed is
constant along the other family's characteristics.  A conservation identity
lets us build a strictly increasing coordinate in which both families
travel at unit speed, so the system is solved exactly by shifting the
initial profiles, and the original coordinate is recovered in closed form
from the antiderivatives of those profiles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

from .errors import CausalityError
from .worldsheet import Profile, StringInitialData, _continue

__all__ = [
    "CoordinateMap",
    "build_theta0",
    "TransportFields",
    "solve_riemann_invariants",
    "WorldsheetMesh",
    "build_inverse_map",
    "rectangle_residual",
]


@dataclass
class CoordinateMap:
    """Monotone tables of the straightening coordinate and speed profiles.

    For closed strings the map winds: theta0(theta + L) = theta0(theta) + P
    where P is the image period; on a line it continues linearly with its
    edge slopes, and the inverse with their reciprocals, so the two
    continuations invert each other.  The speed profiles ``lam_minus_bar``
    and ``lam_plus_bar`` are functions of the straightened coordinate that
    wrap on a ring and hold their edge values on a line.
    """

    theta_nodes: np.ndarray
    vtheta_nodes: np.ndarray
    periodic: bool
    theta_period: Optional[float]
    vtheta_period: Optional[float]
    _fwd: PchipInterpolator
    _inv: PchipInterpolator
    lam_minus_bar: Profile
    lam_plus_bar: Profile

    def _edge_slopes(self):
        return self._fwd(self.theta_nodes[[0, -1]], nu=1)

    def theta0(self, theta):
        return _continue(
            self._fwd, self.theta_nodes, self.theta_period, self.vtheta_period, theta,
            self._edge_slopes(),
        )

    def theta0_inverse(self, vtheta):
        return _continue(
            self._inv, self.vtheta_nodes, self.vtheta_period, self.theta_period, vtheta,
            1.0 / self._edge_slopes(),
        )


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
    vtheta_nodes = cum[: len(theta)] if periodic else cum
    period = float(cum[-1] - cum[0]) if periodic else None
    return CoordinateMap(
        theta_nodes=theta,
        vtheta_nodes=vtheta_nodes,
        periodic=periodic,
        theta_period=data.domain.length,
        vtheta_period=period,
        _fwd=PchipInterpolator(theta_ext, cum),
        _inv=PchipInterpolator(cum, theta_ext),
        lam_minus_bar=Profile(vtheta_nodes, data.lam_minus, period),
        lam_plus_bar=Profile(vtheta_nodes, data.lam_plus, period),
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
    )


@dataclass
class WorldsheetMesh:
    """theta(t, vtheta) on a (levels, nodes) lattice."""

    theta: np.ndarray


def build_inverse_map(cmap: CoordinateMap, t_nodes, vtheta_nodes) -> WorldsheetMesh:
    """theta on the product lattice: the speeds are the shifted profiles
    Lam-(vtheta - t) and Lam+(vtheta + t), so the exact differential
    d theta = ((lam+ - lam-)/2) d vtheta + ((lam+ + lam-)/2) dt integrates
    to theta0^{-1}(vtheta) + [G+(vtheta + t) - G+(vtheta)]/2
    - [G-(vtheta - t) - G-(vtheta)]/2, G+- the antiderivatives of Lam+-.
    Each point is evaluated on its own, so a slice of the lattice gives the
    bits of the whole."""
    t = np.asarray(t_nodes, dtype=float)[:, None]
    s = np.asarray(vtheta_nodes, dtype=float)
    g_plus, g_minus = cmap.lam_plus_bar.integral, cmap.lam_minus_bar.integral
    theta = (
        cmap.theta0_inverse(s)
        + 0.5 * (g_plus(s + t) - g_plus(s))
        - 0.5 * (g_minus(s - t) - g_minus(s))
    )
    return WorldsheetMesh(theta=theta)


def _midpoint_rule(f, lo, hi, step):
    """Integral of f from lo to hi by the midpoint rule on the panel count
    nearest |hi - lo| / step (at least one)."""
    n = max(1, int(round(abs(hi - lo) / step)))
    d = (hi - lo) / n
    return d * float(np.sum(f(lo + d * (np.arange(n) + 0.5))))


def rectangle_residual(cmap, t_hi, s_a, s_b, step) -> float:
    """Difference between the two integration orders over the rectangle
    [0, t_hi] x [s_a, s_b]; zero in the continuum (a test oracle)."""

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

