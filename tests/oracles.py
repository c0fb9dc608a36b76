"""Independent checks the test suite compares the library against.

Nothing in the pipeline calls these: ``cli.py``, ``perfbench/`` and
``scripts/`` reach only ``src/``.  They live here, apart from the code they
check:

* per-point worldsheet kinematics: induced metric, characteristic speeds,
  the first-order system's eigenstructure, null pairs, and the analytic and
  finite-difference speed gradients behind linear degeneracy;
* the ordering of the transported speeds over a whole product lattice at
  once;
* the metric models' connection coefficients and metric partials, with a
  finite-difference oracle built from the metric tensor alone, the metric
  tensor itself written from the line element, and the relative null
  residuals contracted with it;
* transport: a coordinate map built directly from straightened speed
  profiles, the midpoint march of the inverse map, the
  conservation-identity residual, and RK4 tracing of characteristics in
  the original coordinate;
* the closed form: the pointwise partials that ``ori.LatticeTables``
  gathers, the p- and q-route log arguments, integrated by
  Gauss-Legendre quadrature over the spline knots, and the existence scan
  that read its lattice one level per iteration.
"""
import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import PchipInterpolator

from stringsheet import DEFAULT_THRESHOLDS, OriGeneral
from stringsheet.errors import CausalityError, DegeneracyError
from stringsheet.ori import ExistenceReport, LatticeTables
from stringsheet.transport import CoordinateMap, solve_riemann_invariants
from stringsheet.worldsheet import Profile, _speed_roots

# ---------------------------------------------------------------------------
# worldsheet kinematics at one point
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Position u, velocity v = u_t and tangent w = u_theta at one point."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray


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


def induced_metric(model, state: StateVector) -> InducedMetric:
    g = metric_tensor(model, state.u)
    g00 = float(state.v @ g @ state.v)
    g01 = float(state.v @ g @ state.w)
    g11 = float(state.w @ g @ state.w)
    return InducedMetric(g00=g00, g01=g01, g11=g11, delta=g00 * g11 - g01 * g01)


def characteristic_speeds(im: InducedMetric) -> CharacteristicSpeeds:
    """The two roots of g11 lam^2 + 2 g01 lam + g00 = 0, by the root
    solver ``build_initial_data`` uses."""
    scale = im.scale
    if abs(im.g11) < DEFAULT_THRESHOLDS.eps_g11 * scale:
        raise DegeneracyError(
            f"|g11|={abs(im.g11):.3e} below threshold, speeds unbounded"
        )
    if im.delta >= -DEFAULT_THRESHOLDS.eps_timelike * scale**2:
        raise CausalityError(
            f"motion not time-like (delta={im.delta:.3e} >= 0)"
        )
    lm, lp = _speed_roots(im.g00, im.g01, im.g11)
    return CharacteristicSpeeds(lam_minus=float(lm), lam_plus=float(lp))


def system_matrix(im: InducedMetric, n: int) -> np.ndarray:
    """Advection matrix of the stacked first-order system U = (u, v, w),
    size 3(n+1)."""
    if abs(im.g11) < DEFAULT_THRESHOLDS.eps_g11 * im.scale:
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


def speed_gradients(model, state: StateVector, im: InducedMetric):
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
    g = metric_tensor(model, state.u)
    dg = metric_partials(model, state.u)
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


def linear_degeneracy_residuals(model, state: StateVector):
    """Contractions grad(lam) . r over each family's own eigenvectors.

    Both must vanish: the system's nonzero fields are linearly degenerate.
    Returns the two maximal absolute residuals (minus family, plus family).
    """
    im = induced_metric(model, state)
    (du_m, dv_m, dw_m), (du_p, dv_p, dw_p) = speed_gradients(model, state, im)
    lm, lp = _speed_roots(im.g00, im.g01, im.g11)
    # r-vectors of each family have zero u-block, so du drops out of the
    # contraction; it is computed anyway to keep the gradient complete.
    res_minus = np.max(np.abs(-float(lm) * dv_m + dw_m))
    res_plus = np.max(np.abs(-float(lp) * dv_p + dw_p))
    return float(res_minus), float(res_plus)


def linear_degeneracy_residuals_fd(model, state: StateVector, step: float = 1e-6):
    """Same contractions with central-difference speed gradients."""
    im = induced_metric(model, state)
    lm0, lp0 = _speed_roots(im.g00, im.g01, im.g11)
    dim = len(state.u)

    def speeds_of(v, w):
        g = metric_tensor(model, state.u)
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


def whole_lattice_ordering_violation(cmap, t_nodes, vtheta_nodes):
    """The first (t, vtheta, lam-, lam+), level by level and node by node,
    where lam- >= lam+ on the product lattice, from the speeds transported
    over all of it at once; None if they keep their order."""
    t, s = np.asarray(t_nodes, dtype=float), np.asarray(vtheta_nodes, dtype=float)
    fields = solve_riemann_invariants(cmap, t, s)
    bad = fields.lam_minus >= fields.lam_plus
    if not np.any(bad):
        return None
    level = int(np.argmax(np.any(bad, axis=1)))
    j = int(np.argmax(bad[level]))
    lm, lp = fields.lam_minus[level, j], fields.lam_plus[level, j]
    return float(t[level]), float(s[j]), float(lm), float(lp)


def smallness_flag(data, epsilon: float) -> bool:
    """True when every component's arc-length and velocity integrals are at
    most epsilon (trapezoid quadrature)."""
    if data.period is not None:
        x = np.append(data.theta, data.theta[0] + data.period)
        dphi = np.concatenate([np.abs(data.phi_theta), np.abs(data.phi_theta[:1])], axis=0)
        vel = np.concatenate([np.abs(data.psi), np.abs(data.psi[:1])], axis=0)
    else:
        x = data.theta
        dphi = np.abs(data.phi_theta)
        vel = np.abs(data.psi)
    arc = np.trapezoid(dphi, x, axis=0)
    mom = np.trapezoid(vel, x, axis=0)
    return bool(np.all(arc <= epsilon) and np.all(mom <= epsilon))


# ---------------------------------------------------------------------------
# metric tensors
# ---------------------------------------------------------------------------


def _profile(model, pts):
    """f, f_x, f_y and f_z at the points, each broadcast to the points'
    shape."""
    x, y, z = pts[..., 1], pts[..., 2], pts[..., 3]
    zero = np.zeros_like(x)
    return tuple(g(x, y, z) + zero for g in (model.f, model.f_x, model.f_y, model.f_z))


def metric_tensor(model, points) -> np.ndarray:
    """g[..., a, b] at the points, written from the line element: diag(-1, 1,
    ..., 1) for a flat model, and dx^2 + dy^2 - 2 dz dt + (f - t) dz^2 for an
    ``OriGeneral``."""
    pts = np.asarray(points, dtype=float)
    g = np.zeros(pts.shape[:-1] + (model.dim, model.dim))
    if not isinstance(model, OriGeneral):
        g[...] = np.diag([-1.0] + [1.0] * (model.dim - 1))
        return g
    g[..., 1, 1] = g[..., 2, 2] = 1.0
    g[..., 0, 3] = g[..., 3, 0] = -1.0
    g[..., 3, 3] = _profile(model, pts)[0] - pts[..., 0]
    return g


def einsum_null_residuals(model, u, p, q):
    """``lightcone.relative_null_residuals`` from the full metric tensor:
    |g_ab v^a v^b| / max(1, max |g_ab| |v|^2) for v = p and v = q."""
    g = metric_tensor(model, u)
    gp = np.einsum("...ab,...a,...b->...", g, p, p)
    gq = np.einsum("...ab,...a,...b->...", g, q, q)
    gscale = np.max(np.abs(g), axis=(-2, -1))
    denom_p = np.maximum(1.0, gscale * np.einsum("...a,...a->...", p, p))
    denom_q = np.maximum(1.0, gscale * np.einsum("...a,...a->...", q, q))
    return np.abs(gp) / denom_p, np.abs(gq) / denom_q


def christoffels(model, points) -> np.ndarray:
    """Gamma[..., c, a, b] with the first tensor index upper: zero for a
    flat model, the plane-fronted symbols for an ``OriGeneral``."""
    pts = np.asarray(points, dtype=float)
    gamma = np.zeros(pts.shape[:-1] + (model.dim,) * 3)
    if not isinstance(model, OriGeneral):
        return gamma
    # the time in the 33-coefficient is the point's own first component
    t = pts[..., 0]
    f, fx, fy, fz = _profile(model, pts)
    gamma[..., 0, 0, 3] = 0.5
    gamma[..., 0, 3, 0] = 0.5
    gamma[..., 0, 1, 3] = -0.5 * fx
    gamma[..., 0, 3, 1] = -0.5 * fx
    gamma[..., 0, 2, 3] = -0.5 * fy
    gamma[..., 0, 3, 2] = -0.5 * fy
    gamma[..., 0, 3, 3] = 0.5 * (t - f - fz)
    gamma[..., 1, 3, 3] = -0.5 * fx
    gamma[..., 2, 3, 3] = -0.5 * fy
    gamma[..., 3, 3, 3] = -0.5
    return gamma


def metric_partials(model, points) -> np.ndarray:
    """dg[..., c, a, b] = d g_ab / d u^c."""
    pts = np.asarray(points, dtype=float)
    dg = np.zeros(pts.shape[:-1] + (model.dim,) * 3)
    if not isinstance(model, OriGeneral):
        return dg
    _, fx, fy, fz = _profile(model, pts)
    dg[..., 0, 3, 3] = -1.0
    dg[..., 1, 3, 3] = fx
    dg[..., 2, 3, 3] = fy
    dg[..., 3, 3, 3] = fz
    return dg


def lorentzian_signature_ok(g: np.ndarray) -> bool:
    """True when the symmetric matrix has exactly one negative eigenvalue."""
    eig = np.linalg.eigvalsh(np.asarray(g, dtype=float))
    return int(np.sum(eig < 0.0)) == 1 and not np.any(eig == 0.0)


def finite_difference_christoffels(metric, point, step: float) -> np.ndarray:
    """Connection coefficients from the standard metric-derivative formula,
    with central differences of ``metric``, a function of the points."""
    pt = np.asarray(point, dtype=float).ravel()
    dim = len(pt)
    g = metric(pt)
    det = np.linalg.det(g)
    if abs(det) < 1e-13:
        raise DegeneracyError(f"metric is singular at {pt} (det={det:.3e})")
    ginv = np.linalg.inv(g)
    dg = np.empty((dim, dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        dg[a] = (metric(pt + e) - metric(pt - e)) / (2.0 * step)
    # dg[c, a, b] = d_c g_ab; bracket[d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    bracket = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("cd,dab->cab", ginv, bracket)


def verify_christoffels_numerically(model, point, step: float = 1e-4) -> float:
    """Max absolute difference between analytic and finite-difference
    connection coefficients; O(step^2) for smooth profiles."""
    analytic = christoffels(model, point)
    numeric = finite_difference_christoffels(functools.partial(metric_tensor, model), point, step)
    return float(np.max(np.abs(analytic - numeric)))


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def map_from_profiles(
    lam_minus_bar, lam_plus_bar, vtheta_window, nodes: int = 513, periodic: bool = False
) -> CoordinateMap:
    """Coordinate map built directly from straightened-coordinate speed
    profiles; the implied original coordinate follows from integrating
    d theta / d vtheta = (lam+ - lam-) / 2."""
    lo, hi = map(float, vtheta_window)
    vth_ext = np.linspace(lo, hi, nodes + 1 if periodic else nodes)
    lm = np.asarray(lam_minus_bar(vth_ext), dtype=float)
    lp = np.asarray(lam_plus_bar(vth_ext), dtype=float)
    if np.any(lp - lm <= 0.0):
        raise CausalityError("profiles must satisfy lam- < lam+ everywhere")
    if periodic and not (np.isclose(lm[0], lm[-1]) and np.isclose(lp[0], lp[-1])):
        raise CausalityError("periodic profiles must match at the seam")
    theta_ext = cumulative_simpson((lp - lm) / 2.0, x=vth_ext, initial=0.0)
    period = hi - lo if periodic else None
    return CoordinateMap(
        theta_nodes=theta_ext[:nodes],
        vtheta_nodes=vth_ext[:nodes],
        theta_period=float(theta_ext[-1] - theta_ext[0]) if periodic else None,
        vtheta_period=period,
        _fwd=PchipInterpolator(theta_ext, vth_ext),
        _inv=PchipInterpolator(vth_ext, theta_ext),
        lam_minus_bar=Profile(vth_ext[:nodes], lm[:nodes], period),
        lam_plus_bar=Profile(vth_ext[:nodes], lp[:nodes], period),
    )


def quad_across(f, a, b, breaks):
    """Integral of f from a to b by adaptive quadrature to 1e-13, split at
    every one of ``breaks`` that lies between them (the knots of a spline
    integrand), so each piece is smooth."""
    lo, hi = min(a, b), max(a, b)
    breaks = np.asarray(breaks, dtype=float)
    inside = np.unique(breaks[(breaks > lo) & (breaks < hi)])
    value, _ = quad(f, lo, hi, points=inside, limit=len(inside) + 50, epsabs=1e-13, epsrel=1e-13)
    return value if b >= a else -value


def ring_knots(nodes, period, reach):
    """The knots of a ring spline over ``nodes``, repeated every period out
    to ``reach`` periods on both sides."""
    return (np.asarray(nodes)[None, :] + period * np.arange(-reach, reach + 1)[:, None]).ravel()


def midpoint_inverse_map(cmap, t_nodes, vtheta_nodes) -> np.ndarray:
    """theta on the (levels, nodes) lattice by marching
    d theta / dt = (lam+ + lam-) / 2 in t with the midpoint rule from
    theta(0, .) = theta0^{-1}; second order in the level spacing."""
    t = np.asarray(t_nodes, dtype=float)
    s = np.asarray(vtheta_nodes, dtype=float)
    theta = np.empty((len(t), len(s)))
    theta[0] = cmap.theta0_inverse(s)
    for m in range(len(t) - 1):
        dt = t[m + 1] - t[m]
        tm = t[m] + 0.5 * dt
        drift = 0.5 * (cmap.lam_plus_bar(s + tm) + cmap.lam_minus_bar(s - tm))
        theta[m + 1] = theta[m] + dt * drift
    return theta


def _slice_profile(theta_row, values, period):
    """Periodic interpolant of a field sampled on one reconstructed t-slice
    of a closed string: the slice's theta, wound into one period from its
    first node, is sorted."""
    wound = theta_row[0] + np.mod(theta_row - theta_row[0], period)
    order = np.argsort(wound)
    return Profile(wound[order], np.asarray(values)[order], period)


def conservation_residual(cmap, fields, mesh) -> float:
    """Discrete residual of the conservation identity behind the map,
    d_t(2/(lam+ - lam-)) + d_theta((lam+ + lam-)/(lam+ - lam-)), on the
    closed string's theta nodes; converges at second order."""
    th = cmap.theta_nodes
    levels = len(fields.t_nodes)
    a = np.empty((levels, len(th)))
    b = np.empty((levels, len(th)))
    for m in range(levels):
        gap = fields.lam_plus[m] - fields.lam_minus[m]
        ssum = fields.lam_plus[m] + fields.lam_minus[m]
        a[m] = _slice_profile(mesh.theta[m], 2.0 / gap, cmap.theta_period)(th)
        b[m] = _slice_profile(mesh.theta[m], ssum / gap, cmap.theta_period)(th)
    dt = float(fields.t_nodes[1] - fields.t_nodes[0])
    da_dt = (a[2:] - a[:-2]) / (2.0 * dt)
    dth = float(th[1] - th[0])
    db = (np.roll(b, -1, axis=1) - np.roll(b, 1, axis=1)) / (2.0 * dth)
    return float(np.max(np.abs(da_dt + db[1:-1])))


def rk4_transport_check(cmap, fields, mesh, n_paths: int = 10, seed: int = 7) -> float:
    """Trace plus-family characteristics of a closed string in the original
    coordinates with RK4 and return the largest change of the minus speed
    along them (zero in the continuum).

    Independent of the unit-speed construction: the path is driven only by
    per-slice samples of lam+(t, theta).
    """
    t = fields.t_nodes
    if len(t) < 3:
        raise ValueError("need at least three time levels")
    levels = len(t) - ((len(t) - 1) % 2)  # odd count -> even number of steps
    period = cmap.theta_period
    plus_interp = [_slice_profile(mesh.theta[m], fields.lam_plus[m], period) for m in range(levels)]
    minus_interp = [_slice_profile(mesh.theta[m], fields.lam_minus[m], period) for m in range(levels)]
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


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def u3_xi(cf, t, vtheta):
    """Exact xi-derivative of the closed-form u3 (quotient of integrand
    evaluations)."""
    plus = np.asarray(vtheta, dtype=float) + t
    return cf.q30_bar(plus) * np.exp(-0.5 * cf.phi3_bar(plus)) / cf.log_argument(t, vtheta)


def u3_eta(cf, t, vtheta):
    minus = np.asarray(vtheta, dtype=float) - t
    return cf.p30_bar(minus) * np.exp(-0.5 * cf.phi3_bar(minus)) / cf.log_argument(t, vtheta)


def coupling(cf, t, vtheta):
    """a u3_xi u3_eta, the coefficient of the transverse equations."""
    plus = np.asarray(vtheta, dtype=float) + t
    minus = np.asarray(vtheta, dtype=float) - t
    d = cf.log_argument(t, vtheta)
    return (
        cf.a
        * cf.q30_bar(plus)
        * cf.p30_bar(minus)
        * np.exp(-0.5 * (cf.phi3_bar(plus) + cf.phi3_bar(minus)))
        / (d * d)
    )


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)


def _gauss(f, a, b):
    """8-point Gauss-Legendre integral of f over [a, b], elementwise."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * (f(mid[..., None] + half[..., None] * _GAUSS_X) @ _GAUSS_W)


def route_u3(cf, t, vtheta, route):
    """u3 of a closed string's closed form by the p-route (the factored
    equation integrated along xi) or the q-route (along eta):

        p: e^{-phi3(xi)/2}  - 1/4 int_eta^xi p30 e^{-phi3/2}
        q: e^{-phi3(eta)/2} - 1/4 int_eta^xi q30 e^{-phi3/2}

    The library evaluates the symmetrized psi-route from adaptive Simpson
    tables; here each integral is Gauss-Legendre on every interval between
    spline knots, wound by whole periods.  All routes agree in the
    continuum.  NaN where the argument is at or below ``cf.eps_log``."""
    trace = {"p": cf.p30_bar, "q": cf.q30_bar}[route]

    def integrand(x):
        return trace(x) * np.exp(-0.5 * cf.phi3_bar(x))

    knots = np.append(cf.vtheta_nodes, cf.vtheta_nodes[0] + cf.period)
    table = np.concatenate([[0.0], np.cumsum(_gauss(integrand, knots[:-1], knots[1:]))])

    def primitive(x):  # integral from knots[0] to x
        k = np.floor((x - knots[0]) / cf.period)
        rem = x - k * cf.period
        i = np.clip(np.searchsorted(knots, rem, side="right") - 1, 0, len(knots) - 2)
        return k * table[-1] + table[i] + _gauss(integrand, knots[i], rem)

    t, vtheta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(vtheta, dtype=float))
    xi, eta = vtheta + t, vtheta - t
    edge = xi if route == "p" else eta
    arg = np.exp(-0.5 * cf.phi3_bar(edge)) - 0.25 * (primitive(xi) - primitive(eta))
    return -2.0 * np.log(np.where(arg > cf.eps_log, arg, np.nan))


def per_level_minima(tables, grid):
    """The least log argument on the valid nodes of each level of ``grid``,
    one level at a time."""
    return np.array([np.min(tables.level(m)) for m in range(grid.n_levels + 1)])


def per_level_existence_check(cf, t_max):
    """``OriClosedForm.existence_check`` as it was before the block scan:
    each lattice level's minimum read by ``np.min(tables.level(m))`` in one
    Python iteration, the margin kept by ``min()``."""
    grid = cf.scan_grid(t_max)
    tables = LatticeTables(cf, grid)

    def nodes_at(t):
        lo, hi = grid.valid_bounds(int(np.ceil(t / grid.step - 1e-9)))
        return grid.vtheta[lo:hi]

    def min_arg(t):
        nodes = nodes_at(t)
        return float(np.min(cf.log_argument(np.full_like(nodes, t), nodes)))

    def level_minima():
        for m, t in enumerate(grid.t_nodes):
            yield float(t), float(np.min(tables.level(m)))
        if grid.t_max > grid.t_nodes[-1]:
            yield grid.t_max, min_arg(grid.t_max)

    report = dict(t_end=grid.t_max, window=cf.scan_window(), triangle=cf.period is None)
    margin = np.inf
    t_prev = 0.0
    for t, m in level_minima():
        margin = min(margin, m)
        if m <= cf.eps_log:
            t_lo, t_hi = t_prev, t
            while t_hi - t_lo > 1e-6:
                mid = 0.5 * (t_lo + t_hi)
                if min_arg(mid) <= cf.eps_log:
                    t_hi = mid
                else:
                    t_lo = mid
            nodes = nodes_at(t_hi)
            j = int(np.argmin(cf.log_argument(np.full_like(nodes, t_hi), nodes)))
            return ExistenceReport(
                passed=False,
                margin_min=margin,
                t_star=0.5 * (t_lo + t_hi),
                vtheta_star=float(nodes[j]),
                **report,
            )
        t_prev = t
    return ExistenceReport(passed=True, margin_min=margin, **report)
