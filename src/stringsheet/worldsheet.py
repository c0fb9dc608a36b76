"""Initial data on the worldsheet.

The first-order reduction of the string equations has two nonzero
characteristic speeds, the roots of

    g11 lam^2 + 2 g01 lam + g00 = 0,

built from the induced metric of the sheet; they are strictly ordered
exactly when the state is timelike (delta = g00 g11 - g01^2 < 0).  This
module derives the speeds, the energy density and the null data from
sampled initial curves, holds ``Profile``, the one interpolant of every
sampled curve, and checks the speed ordering at t = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .config import DEFAULT_THRESHOLDS, Thresholds
from .errors import (
    CausalityError,
    ConfigError,
    DegeneracyError,
    DimensionMismatch,
)
from .metrics import MetricModel

__all__ = [
    "Profile",
    "StringInitialData",
    "fourth_order_derivative",
    "build_initial_data",
    "check_physicality",
]


def _speed_roots(g00, g01, g11):
    """Stable, ordered roots of g11 lam^2 + 2 g01 lam + g00 = 0 (vectorized).

    Assumes the discriminant is positive and g11 nonzero; callers enforce
    both with named errors.
    """
    g00 = np.asarray(g00, dtype=float)
    g01 = np.asarray(g01, dtype=float)
    g11 = np.asarray(g11, dtype=float)
    disc = g01 * g01 - g00 * g11
    root = np.sqrt(disc)
    qq = -(g01 + np.copysign(root, g01))
    r1 = qq / g11
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(qq != 0.0, g00 / np.where(qq != 0.0, qq, 1.0), 0.0)
    return np.minimum(r1, r2), np.maximum(r1, r2)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def fourth_order_derivative(values: np.ndarray, spacing: float, periodic: bool) -> np.ndarray:
    """d/dtheta on a uniform grid: 5-point centered stencil, one-sided at the
    ends of line domains.  A ring is padded with its two wrapped nodes on
    each side, so that every node is an interior one."""
    v = np.asarray(values, dtype=float)
    if periodic:
        v = np.concatenate([v[-2:], v, v[:2]])
    n = v.shape[0]
    if n < 5:
        raise ConfigError("need at least 5 nodes for 4th-order derivatives")
    h12 = 12.0 * spacing
    inner = (-v[4:] + 8.0 * v[3 : n - 1] - 8.0 * v[1 : n - 3] + v[: n - 4]) / h12
    if periodic:
        return inner
    out = np.empty_like(v)
    out[2 : n - 2] = inner
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / h12
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / h12
    out[n - 2] = (3.0 * v[n - 1] + 10.0 * v[n - 2] - 18.0 * v[n - 3] + 6.0 * v[n - 4] - v[n - 5]) / h12
    out[n - 1] = (25.0 * v[n - 1] - 48.0 * v[n - 2] + 36.0 * v[n - 3] - 16.0 * v[n - 4] + 3.0 * v[n - 5]) / h12
    return out


def _continue(table, nodes, period, image_period, x, slopes):
    """Evaluate a monotone table past its nodes: on a ring it winds, gaining
    ``image_period`` per ``period``; on a line it continues linearly with
    ``slopes`` at its first and last node."""
    x = np.asarray(x, dtype=float)
    if period is not None:
        k = np.floor((x - nodes[0]) / period)
        return table(x - k * period) + k * image_period
    lo, hi = nodes[0], nodes[-1]
    out = table(np.clip(x, lo, hi))  # the edge values past the ends
    return (
        out
        + np.where(x < lo, slopes[0] * (x - lo), 0.0)
        + np.where(x > hi, slopes[1] * (x - hi), 0.0)
    )


class Profile:
    """Cubic spline of samples y at nodes x along axis 0, extended past its
    nodes by the domain's rule.

    With a period the spline closes over one period and its argument wraps
    as lo + mod(s - lo, period) (a ring).  With ``period=None`` it is
    not-a-knot and its argument is clipped to [x[0], x[-1]], so the curve
    holds its edge values (a line).  ``profile(s, nu)`` is the value or the
    nu-th derivative, and ``profile.integral(s)`` the antiderivative from
    x[0], continued by the same rule.
    """

    def __init__(self, x, y, period):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.lo, self.hi, self.period = x[0], x[-1], period
        if period is None:
            self._spline = CubicSpline(x, y, axis=0)
        else:
            x = np.append(x, x[0] + period)
            y = np.concatenate([y, y[:1]], axis=0)
            self._spline = CubicSpline(x, y, axis=0, bc_type="periodic")

    def __call__(self, s, nu: int = 0):
        s = np.asarray(s, dtype=float)
        if self.period is None:
            return self._spline(np.clip(s, self.lo, self.hi), nu)
        return self._spline(self.lo + np.mod(s - self.lo, self.period), nu)

    @cached_property
    def _antiderivative(self):
        g = self._spline.antiderivative()
        # a periodic spline's antiderivative does not extrapolate; s may wrap below lo
        g.extrapolate = True
        return g

    def integral(self, s):
        """Integral of the profile from x[0] to s: on a ring it winds by its
        integral over one period, on a line it continues linearly with the
        edge values the profile holds."""
        g = self._antiderivative
        if self.period is None:
            ends = np.array([self.lo, self.hi])
            return _continue(g, ends, None, None, s, self._spline(ends))
        return _continue(g, [self.lo], self.period, g(self.lo + self.period), s, None)


@dataclass
class StringInitialData:
    """Sampled initial position and velocity with the derived functionals.

    ``period`` is the length of a closed string (a ring), or None on a line.
    On a ring the grid covers one period without the duplicate endpoint;
    interpolants wrap.  Position data must itself be periodic
    (winding configurations are rejected at construction).  The position
    and one-form interpolants are built on first use.
    """

    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    period: Optional[float]
    phi_theta: np.ndarray
    lam_minus: np.ndarray
    lam_plus: np.ndarray
    lagrangian_density: np.ndarray
    p0: np.ndarray
    q0: np.ndarray

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    @cached_property
    def phi_at(self) -> Profile:
        return Profile(self.theta, self.phi, self.period)

    @cached_property
    def p0_at(self) -> Profile:
        return Profile(self.theta, self.p0, self.period)

    @cached_property
    def q0_at(self) -> Profile:
        return Profile(self.theta, self.q0, self.period)


def _check_uniform(theta: np.ndarray) -> float:
    d = np.diff(theta)
    if np.any(d <= 0.0):
        raise ConfigError("theta grid must be strictly increasing")
    h = float(d[0])
    if np.max(np.abs(d - h)) > 1e-8 * h:
        raise ConfigError("theta grid must be uniform for the derivative stencils")
    return h


def build_initial_data(
    model: MetricModel,
    theta,
    phi,
    psi,
    period: Optional[float],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> StringInitialData:
    """Derive speeds, energy density and null data from sampled curves.

    phi rows are positions, psi rows velocities, one row per grid node;
    ``period`` is the ring's length, or None on a line.  Raises
    CausalityError naming the first node whose energy density fails to be
    negative, DegeneracyError when |g11| collapses.
    """
    if period is not None and not period > 0.0:
        raise ConfigError("periodic length must be positive")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.ndim != 2 or psi.shape != phi.shape or phi.shape[0] != theta.shape[0]:
        raise ConfigError("phi and psi must be (n_nodes, dim) arrays over theta")
    if phi.shape[1] != model.dim:
        raise DimensionMismatch(
            f"data has {phi.shape[1]} components, model expects {model.dim}"
        )
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))):
        raise ConfigError("initial data contains non-finite entries")
    if len(theta) < 5:
        raise ConfigError(f"the grid has {len(theta)} data node(s), fewer than the 5 the derivative stencils need")
    spacing = _check_uniform(theta)
    if period is not None:
        if abs(theta[-1] + spacing - theta[0] - period) > 1e-8 * period:
            raise ConfigError(
                "periodic grid must cover one period without the duplicate endpoint"
            )
        probe = _periodic_wrap_mismatch(phi, spacing)
        tol = 50.0 * spacing**2 * (1.0 + float(np.max(np.abs(phi))))
        if probe > max(1e-8, tol):
            raise ConfigError(
                f"position data does not close up over one period "
                f"(seam mismatch {probe:.3e}); winding strings are unsupported"
            )

    phi_theta = fourth_order_derivative(phi, spacing, period is not None)
    (g00, g01, g11), _ = model.forms(phi, ((psi, psi), (psi, phi_theta), (phi_theta, phi_theta)))
    density = g00 * g11 - g01 * g01
    scale = np.maximum.reduce([np.abs(g00), np.abs(g01), np.abs(g11)])
    scale = np.maximum(scale, 1.0)

    bad = np.abs(g11) < thresholds.eps_g11 * scale
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegeneracyError(f"|g11| vanishes at node {k} (theta={theta[k]:.6g})")
    bad = density >= -thresholds.eps_timelike * scale**2
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CausalityError(
            f"initial data not time-like at node {k} (theta={theta[k]:.6g}, "
            f"energy density {density[k]:.6g} >= 0)"
        )

    lam_minus, lam_plus = _speed_roots(g00, g01, g11)
    p0 = psi + lam_minus[:, None] * phi_theta
    q0 = psi + lam_plus[:, None] * phi_theta
    return StringInitialData(
        theta=theta,
        phi=phi,
        psi=psi,
        period=period,
        phi_theta=phi_theta,
        lam_minus=lam_minus,
        lam_plus=lam_plus,
        lagrangian_density=density,
        p0=p0,
        q0=q0,
    )


def _periodic_wrap_mismatch(phi, h) -> float:
    """Seam jump of phi across the wrap, minus the jump a smooth periodic
    curve would have.  Winding components leave a residual of order the
    winding displacement."""
    if len(phi) < 5:
        return 0.0
    # one-sided derivative at the last node, uncontaminated by the seam
    slope = (
        25.0 * phi[-1] - 48.0 * phi[-2] + 36.0 * phi[-3] - 16.0 * phi[-4] + 3.0 * phi[-5]
    ) / (12.0 * h)
    jump = phi[0] - phi[-1]
    return float(np.max(np.abs(jump - h * slope)))


# ---------------------------------------------------------------------------
# physicality check
# ---------------------------------------------------------------------------


def check_physicality(data: StringInitialData) -> None:
    """Raise CausalityError at the first node where the speeds are not
    strictly ordered, lam- < lam+ (a NaN speed fails too).  This is the
    check at t = 0 only; the order at later times is that of the
    transported speeds on the lattice."""
    bad = ~(data.lam_plus - data.lam_minus > 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CausalityError(
            f"speed ordering fails at node {k} (theta={data.theta[k]:.6g}, "
            f"lam-={data.lam_minus[k]:.6g}, lam+={data.lam_plus[k]:.6g}); "
            "straightening map undefined"
        )
