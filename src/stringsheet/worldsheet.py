"""Worldsheet kinematics.

Induced-metric quantities, the characteristic structure of the first-order
reduction of the string equations, null data, and the initial-data
functionals with their physicality checks.

The first-order reduction stacks U = (u, v, w) with v = u_t and w = u_theta.
Its nonzero characteristic speeds are the two roots of

    g11 lam^2 + 2 g01 lam + g00 = 0,

which are strictly ordered exactly when the state is timelike
(delta = g00 g11 - g01^2 < 0).
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
    "StateVector",
    "InducedMetric",
    "CharacteristicSpeeds",
    "NullPair",
    "Domain",
    "Profile",
    "StringInitialData",
    "OrderingReport",
    "EigenSystem",
    "induced_metric",
    "characteristic_speeds",
    "system_matrix",
    "eigen_system",
    "null_pair",
    "null_residual",
    "relative_null_residual",
    "linear_degeneracy_residuals",
    "linear_degeneracy_residuals_fd",
    "fourth_order_derivative",
    "build_initial_data",
    "ordering_sweep",
    "check_physicality",
    "smallness_flag",
]


@dataclass(frozen=True)
class StateVector:
    """Position u, velocity v = u_t and tangent w = u_theta at one point."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("u", "v", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"state component {name} is non-finite")
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise DimensionMismatch("u, v, w must have equal length")

    @property
    def dim(self) -> int:
        return self.u.shape[-1]


@dataclass(frozen=True)
class InducedMetric:
    g00: float
    g01: float
    g11: float
    delta: float

    @property
    def scale(self) -> float:
        return max(abs(self.g00), abs(self.g01), abs(self.g11), 1.0)

    def timelike(self, eps: float = DEFAULT_THRESHOLDS.eps_timelike) -> bool:
        return self.delta < -eps * self.scale**2


@dataclass(frozen=True)
class CharacteristicSpeeds:
    lam_minus: float
    lam_plus: float


@dataclass(frozen=True)
class NullPair:
    p: np.ndarray
    q: np.ndarray


def induced_metric(model: MetricModel, state: StateVector) -> InducedMetric:
    if state.dim != model.dim:
        raise DimensionMismatch(
            f"state has {state.dim} components, model expects {model.dim}"
        )
    g = model.metric(state.u)
    g00 = float(state.v @ g @ state.v)
    g01 = float(state.v @ g @ state.w)
    g11 = float(state.w @ g @ state.w)
    return InducedMetric(g00=g00, g01=g01, g11=g11, delta=g00 * g11 - g01 * g01)


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


def characteristic_speeds(
    im: InducedMetric, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> CharacteristicSpeeds:
    scale = im.scale
    if abs(im.g11) < thresholds.eps_g11 * scale:
        raise DegeneracyError(
            f"|g11|={abs(im.g11):.3e} below threshold, speeds unbounded"
        )
    if im.delta >= -thresholds.eps_timelike * scale**2:
        raise CausalityError(
            f"motion not time-like (delta={im.delta:.3e} >= 0)"
        )
    lm, lp = _speed_roots(im.g00, im.g01, im.g11)
    return CharacteristicSpeeds(lam_minus=float(lm), lam_plus=float(lp))


def system_matrix(
    im: InducedMetric, n: int, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> np.ndarray:
    """Advection matrix of the stacked first-order system, size 3(n+1)."""
    if abs(im.g11) < thresholds.eps_g11 * im.scale:
        raise DegeneracyError("|g11| below threshold, system matrix undefined")
    m = n + 1
    eye = np.eye(m)
    a = np.zeros((3 * m, 3 * m))
    a[m : 2 * m, m : 2 * m] = -2.0 * im.g01 / im.g11 * eye
    a[m : 2 * m, 2 * m :] = im.g00 / im.g11 * eye
    a[2 * m :, m : 2 * m] = -eye
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with right vectors as columns and left vectors as rows,
    paired index by index."""

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


def eigen_system(speeds: CharacteristicSpeeds, n: int) -> EigenSystem:
    m = n + 1
    lm, lp = speeds.lam_minus, speeds.lam_plus
    values = np.concatenate([np.zeros(m), np.full(m, lm), np.full(m, lp)])
    right = np.zeros((3 * m, 3 * m))
    left = np.zeros((3 * m, 3 * m))
    for c in range(m):
        right[c, c] = 1.0
        left[c, c] = 1.0
        # family travelling at lam_minus
        right[m + c, m + c] = -lm
        right[2 * m + c, m + c] = 1.0
        left[m + c, m + c] = 1.0
        left[m + c, 2 * m + c] = lp
        # family travelling at lam_plus
        right[m + c, 2 * m + c] = -lp
        right[2 * m + c, 2 * m + c] = 1.0
        left[2 * m + c, m + c] = 1.0
        left[2 * m + c, 2 * m + c] = lm
    return EigenSystem(values=values, right=right, left=left)


def null_pair(state: StateVector, speeds: CharacteristicSpeeds) -> NullPair:
    return NullPair(
        p=state.v + speeds.lam_minus * state.w,
        q=state.v + speeds.lam_plus * state.w,
    )


def null_residual(g: np.ndarray, vec: np.ndarray) -> float:
    return float(vec @ g @ vec)


def relative_null_residual(g: np.ndarray, vec: np.ndarray) -> float:
    scale = float(np.max(np.abs(g))) * float(vec @ vec)
    return abs(null_residual(g, vec)) / max(1.0, scale)


def _speed_gradients(model: MetricModel, state: StateVector, im: InducedMetric):
    """Analytic gradients of both speeds with respect to (u, v, w).

    Implicit differentiation of the root equation: for a root lam,
    d lam = -(lam^2 dg11 + 2 lam dg01 + dg00) / (2 (g11 lam + g01)), and the
    denominator equals -+sqrt(disc).  The u-gradient contracts the metric
    partials with the family's own null direction v + lam w.
    Returns ((du-, dv-, dw-), (du+, dv+, dw+)).
    """
    disc = im.g01 * im.g01 - im.g00 * im.g11
    if disc <= 0.0 or np.sqrt(disc) < DEFAULT_THRESHOLDS.eps_timelike * im.scale:
        raise DegeneracyError("coincident speeds, gradient undefined")
    g = model.metric(state.u)
    dg = model.metric_partials(state.u)
    gv = g @ state.v
    gw = g @ state.w
    lm, lp = _speed_roots(im.g00, im.g01, im.g11)
    out = []
    for lam in (float(lm), float(lp)):
        denom = im.g11 * lam + im.g01
        fam = state.v + lam * state.w
        du = -0.5 * np.einsum("cab,a,b->c", dg, fam, fam) / denom
        dv = -(gw * lam + gv) / denom
        dw = -lam * (gw * lam + gv) / denom
        out.append((du, dv, dw))
    return tuple(out)


def linear_degeneracy_residuals(model: MetricModel, state: StateVector):
    """Contractions grad(lam) . r over each family's own eigenvectors.

    Both must vanish: the system's nonzero fields are linearly degenerate.
    Returns the two maximal absolute residuals (minus family, plus family).
    """
    im = induced_metric(model, state)
    (du_m, dv_m, dw_m), (du_p, dv_p, dw_p) = _speed_gradients(model, state, im)
    lm, lp = _speed_roots(im.g00, im.g01, im.g11)
    # r-vectors of each family have zero u-block, so du drops out of the
    # contraction; it is computed anyway to keep the gradient complete.
    res_minus = np.max(np.abs(-float(lm) * dv_m + dw_m))
    res_plus = np.max(np.abs(-float(lp) * dv_p + dw_p))
    return float(res_minus), float(res_plus)


def linear_degeneracy_residuals_fd(
    model: MetricModel, state: StateVector, step: float = 1e-6
):
    """Same contractions with central-difference speed gradients (oracle)."""
    im = induced_metric(model, state)
    lm0, lp0 = _speed_roots(im.g00, im.g01, im.g11)
    dim = state.dim

    def speeds_of(v, w):
        g = model.metric(state.u)
        g00 = float(v @ g @ v)
        g01 = float(v @ g @ w)
        g11 = float(w @ g @ w)
        return _speed_roots(g00, g01, g11)

    dv = np.zeros((2, dim))
    dw = np.zeros((2, dim))
    for c in range(dim):
        e = np.zeros(dim)
        e[c] = step
        lm_p, lp_p = speeds_of(state.v + e, state.w)
        lm_m, lp_m = speeds_of(state.v - e, state.w)
        dv[0, c] = (lm_p - lm_m) / (2.0 * step)
        dv[1, c] = (lp_p - lp_m) / (2.0 * step)
        lm_p, lp_p = speeds_of(state.v, state.w + e)
        lm_m, lp_m = speeds_of(state.v, state.w - e)
        dw[0, c] = (lm_p - lm_m) / (2.0 * step)
        dw[1, c] = (lp_p - lp_m) / (2.0 * step)
    res_minus = np.max(np.abs(-float(lm0) * dv[0] + dw[0]))
    res_plus = np.max(np.abs(-float(lp0) * dv[1] + dw[1]))
    return float(res_minus), float(res_plus)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    periodic: bool
    length: Optional[float] = None

    @staticmethod
    def closed(length: float) -> "Domain":
        if length <= 0.0:
            raise ConfigError("periodic length must be positive")
        return Domain(periodic=True, length=float(length))

    @staticmethod
    def line() -> "Domain":
        return Domain(periodic=False, length=None)


def fourth_order_derivative(values: np.ndarray, spacing: float, periodic: bool) -> np.ndarray:
    """d/dtheta on a uniform grid: 5-point centered stencil, one-sided at the
    ends of line domains."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    h12 = 12.0 * spacing
    if periodic:
        vm2, vm1 = np.roll(v, 2, axis=0), np.roll(v, 1, axis=0)
        vp1, vp2 = np.roll(v, -1, axis=0), np.roll(v, -2, axis=0)
        out[:] = (-vp2 + 8.0 * vp1 - 8.0 * vm1 + vm2) / h12
        return out
    n = v.shape[0]
    if n < 5:
        raise ConfigError("need at least 5 nodes for 4th-order derivatives")
    out[2 : n - 2] = (-v[4:] + 8.0 * v[3 : n - 1] - 8.0 * v[1 : n - 3] + v[: n - 4]) / h12
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / h12
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / h12
    out[n - 2] = (3.0 * v[n - 1] + 10.0 * v[n - 2] - 18.0 * v[n - 3] + 6.0 * v[n - 4] - v[n - 5]) / h12
    out[n - 1] = (25.0 * v[n - 1] - 48.0 * v[n - 2] + 36.0 * v[n - 3] - 16.0 * v[n - 4] + 3.0 * v[n - 5]) / h12
    return out


class Profile:
    """Cubic spline of samples y at nodes x along axis 0, extended past its
    nodes by the domain's rule.

    With a period the spline closes over one period and its argument wraps
    as lo + mod(s - lo, period) (a ring).  With ``period=None`` it is
    not-a-knot and its argument is clipped to [x[0], x[-1]], so the curve
    holds its edge values (a line).  ``profile(s, nu)`` is the value or the
    nu-th derivative.
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


@dataclass
class StringInitialData:
    """Sampled initial position and velocity with the derived functionals.

    For periodic domains the grid covers one period without the duplicate
    endpoint; interpolants wrap.  Position data must itself be periodic
    (winding configurations are rejected at construction).  The position
    and one-form interpolants are built on first use.
    """

    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    domain: Domain
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
        return Profile(self.theta, self.phi, self.domain.length)

    @cached_property
    def p0_at(self) -> Profile:
        return Profile(self.theta, self.p0, self.domain.length)

    @cached_property
    def q0_at(self) -> Profile:
        return Profile(self.theta, self.q0, self.domain.length)


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
    domain: Domain,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> StringInitialData:
    """Derive speeds, energy density and null data from sampled curves.

    phi rows are positions, psi rows velocities, one row per grid node.
    Raises CausalityError naming the first node whose energy density fails
    to be negative, DegeneracyError when |g11| collapses.
    """
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
        raise ValueError("initial data contains non-finite entries")
    spacing = _check_uniform(theta)
    if domain.periodic:
        if abs(theta[-1] + spacing - theta[0] - domain.length) > 1e-8 * domain.length:
            raise ConfigError(
                "periodic grid must cover one period without the duplicate endpoint"
            )
        probe = _periodic_wrap_mismatch(theta, phi, spacing)
        tol = 50.0 * spacing**2 * (1.0 + float(np.max(np.abs(phi))))
        if probe > max(1e-8, tol):
            raise ConfigError(
                f"position data does not close up over one period "
                f"(seam mismatch {probe:.3e}); winding strings are unsupported"
            )

    phi_theta = fourth_order_derivative(phi, spacing, domain.periodic)
    g = model.metric(phi)
    g00 = np.einsum("nab,na,nb->n", g, psi, psi)
    g01 = np.einsum("nab,na,nb->n", g, psi, phi_theta)
    g11 = np.einsum("nab,na,nb->n", g, phi_theta, phi_theta)
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
        domain=domain,
        phi_theta=phi_theta,
        lam_minus=lam_minus,
        lam_plus=lam_plus,
        lagrangian_density=density,
        p0=p0,
        q0=q0,
    )


def _periodic_wrap_mismatch(theta, phi, h) -> float:
    """Seam jump of phi across the wrap, minus the jump a smooth periodic
    curve would have.  Winding components leave a residual of order the
    winding displacement."""
    del theta
    if len(phi) < 5:
        return 0.0
    # one-sided derivative at the last node, uncontaminated by the seam
    slope = (
        25.0 * phi[-1] - 48.0 * phi[-2] + 36.0 * phi[-3] - 16.0 * phi[-4] + 3.0 * phi[-5]
    ) / (12.0 * h)
    jump = phi[0] - phi[-1]
    return float(np.max(np.abs(jump - h * slope)))


# ---------------------------------------------------------------------------
# physicality checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderingReport:
    pointwise_ok: bool
    global_ok: bool
    pointwise_violation: Optional[tuple] = None  # (theta, lam-, lam+)
    global_violation: Optional[tuple] = None  # (theta1, theta2, lam-, lam+)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.pointwise_ok and self.global_ok


def ordering_sweep(lam_minus, lam_plus, theta, periodic: bool):
    """Single left-to-right sweep of the global ordering condition.

    For every node k the running max of lam_minus over earlier nodes must be
    strictly below lam_plus at k.  Closed strings sweep two periods, which
    covers every ordered pair on the circle.  Ties count as violations.
    Returns (ok, (i1, i2)) with indices into the (possibly doubled) arrays
    reduced modulo the base length.
    """
    lm = np.asarray(lam_minus, dtype=float)
    lp = np.asarray(lam_plus, dtype=float)
    n = lm.shape[0]
    if periodic:
        lm = np.concatenate([lm, lm])
        lp = np.concatenate([lp, lp])
    run = -np.inf
    arg = -1
    for k in range(1, lm.shape[0]):
        if lm[k - 1] > run:
            run = lm[k - 1]
            arg = k - 1
        if run >= lp[k]:
            return False, (arg % n, k % n)
    return True, None


def check_physicality(data: StringInitialData) -> OrderingReport:
    """Pointwise and global speed-ordering checks; violations are report
    content, not exceptions."""
    gap = data.lam_plus - data.lam_minus
    pointwise_ok = bool(np.all(gap > 0.0))
    pv = None
    if not pointwise_ok:
        k = int(np.argmin(gap))
        pv = (float(data.theta[k]), float(data.lam_minus[k]), float(data.lam_plus[k]))
    ok, pair = ordering_sweep(
        data.lam_minus, data.lam_plus, data.theta, data.domain.periodic
    )
    gv = None
    if not ok:
        i1, i2 = pair
        gv = (
            float(data.theta[i1]),
            float(data.theta[i2]),
            float(data.lam_minus[i1]),
            float(data.lam_plus[i2]),
        )
    note = "closed-string sweep over two periods" if data.domain.periodic else ""
    return OrderingReport(
        pointwise_ok=pointwise_ok,
        global_ok=ok,
        pointwise_violation=pv,
        global_violation=gv,
        note=note,
    )


def smallness_flag(data: StringInitialData, epsilon: float) -> bool:
    """Diagnostic only: True when every component's arc-length and velocity
    integrals are at most epsilon (trapezoid quadrature)."""
    if data.domain.periodic:
        x = np.append(data.theta, data.theta[0] + data.domain.length)
        dphi = np.concatenate([np.abs(data.phi_theta), np.abs(data.phi_theta[:1])], axis=0)
        vel = np.concatenate([np.abs(data.psi), np.abs(data.psi[:1])], axis=0)
    else:
        x = data.theta
        dphi = np.abs(data.phi_theta)
        vel = np.abs(data.psi)
    arc = np.trapezoid(dphi, x, axis=0)
    mom = np.trapezoid(vel, x, axis=0)
    return bool(np.all(arc <= epsilon) and np.all(mom <= epsilon))
