"""Lorentzian metric backends.

Every model evaluates the ambient metric g_AB and its connection
coefficients Gamma^C_AB at a space-time point.  For the four dimensional
plane-fronted family the coordinate ordering is fixed as
(t, x, y, z) <-> indices (0, 1, 2, 3), and the line element is

    ds^2 = dx^2 + dy^2 - 2 dz dt + (f(x, y, z) - t) dz^2

with a wave profile f satisfying f_xx + f_yy = 0.  All evaluators accept a
single point of shape (dim,) or a batch of shape (..., dim) and broadcast.
Models are immutable after construction and safe to share across workers.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DegeneracyError, DimensionMismatch

__all__ = [
    "MetricModel",
    "Minkowski",
    "OriGeneral",
    "OriQuadratic",
    "finite_difference_christoffels",
    "verify_christoffels_numerically",
    "lorentzian_signature_ok",
]


def _as_points(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != dim:
        raise DimensionMismatch(
            f"expected points with {dim} components, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise ValueError("space-time point has non-finite coordinates")
    return pts


def lorentzian_signature_ok(g: np.ndarray) -> bool:
    """True when the symmetric matrix has exactly one negative eigenvalue."""
    eig = np.linalg.eigvalsh(np.asarray(g, dtype=float))
    return int(np.sum(eig < 0.0)) == 1 and not np.any(eig == 0.0)


class MetricModel:
    """Shared interface: metric, connection, and their point derivatives."""

    dim: int
    name: str

    def metric(self, points) -> np.ndarray:
        raise NotImplementedError

    def christoffels(self, points) -> np.ndarray:
        """Gamma[..., c, a, b] with the first tensor index upper."""
        raise NotImplementedError

    def metric_partials(self, points) -> np.ndarray:
        """dg[..., c, a, b] = d g_ab / d u^c."""
        raise NotImplementedError

    def contract_pq(self, u, p, q) -> np.ndarray:
        """Gamma^C_AB(u) p^A q^B, the source of the light-cone system."""
        gamma = self.christoffels(u)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        return np.einsum("...cab,...a,...b->...c", gamma, p, q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class Minkowski(MetricModel):
    """Flat space-time diag(-1, 1, ..., 1) in n+1 dimensions."""

    def __init__(self, spatial_dim: int = 3):
        if spatial_dim < 0:
            raise ValueError("spatial_dim must be nonnegative")
        self.dim = spatial_dim + 1
        self.name = f"minkowski({spatial_dim})"
        eta = np.eye(self.dim)
        eta[0, 0] = -1.0
        self._eta = eta

    def metric(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        shape = pts.shape[:-1] + (self.dim, self.dim)
        return np.broadcast_to(self._eta, shape).copy()

    def christoffels(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        return np.zeros(pts.shape[:-1] + (self.dim,) * 3)

    def metric_partials(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        return np.zeros(pts.shape[:-1] + (self.dim,) * 3)

    def contract_pq(self, u, p, q) -> np.ndarray:
        _as_points(u, self.dim)
        return np.zeros_like(np.asarray(p, dtype=float))


class OriGeneral(MetricModel):
    """Plane-fronted vacuum family with a user supplied harmonic profile.

    The profile and its three partial derivatives are supplied as callbacks
    f(x, y, z), f_x(x, y, z), f_y(x, y, z), f_z(x, y, z); harmonicity is only
    spot-checked (see ``harmonic_residual``), it is a precondition of the
    family, not something enforceable pointwise at runtime.
    """

    dim = 4

    def __init__(
        self,
        f: Callable,
        f_x: Callable,
        f_y: Callable,
        f_z: Callable,
        name: str = "ori_general",
    ):
        self.f = f
        self.f_x = f_x
        self.f_y = f_y
        self.f_z = f_z
        self.name = name

    def _profile(self, pts):
        x, y, z = pts[..., 1], pts[..., 2], pts[..., 3]
        zero = np.zeros_like(x)
        return (
            self.f(x, y, z) + zero,
            self.f_x(x, y, z) + zero,
            self.f_y(x, y, z) + zero,
            self.f_z(x, y, z) + zero,
        )

    def metric(self, points) -> np.ndarray:
        pts = _as_points(points, 4)
        t = pts[..., 0]
        f, _, _, _ = self._profile(pts)
        g = np.zeros(pts.shape[:-1] + (4, 4))
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = 1.0
        g[..., 0, 3] = -1.0
        g[..., 3, 0] = -1.0
        g[..., 3, 3] = f - t
        return g

    def christoffels(self, points) -> np.ndarray:
        pts = _as_points(points, 4)
        # The time appearing in the 33-coefficient is the target-space time
        # coordinate, i.e. the point's own first component.
        t = pts[..., 0]
        f, fx, fy, fz = self._profile(pts)
        gamma = np.zeros(pts.shape[:-1] + (4, 4, 4))
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

    def metric_partials(self, points) -> np.ndarray:
        pts = _as_points(points, 4)
        _, fx, fy, fz = self._profile(pts)
        dg = np.zeros(pts.shape[:-1] + (4, 4, 4))
        dg[..., 0, 3, 3] = -1.0
        dg[..., 1, 3, 3] = fx
        dg[..., 2, 3, 3] = fy
        dg[..., 3, 3, 3] = fz
        return dg

    def contract_pq(self, u, p, q) -> np.ndarray:
        pts = _as_points(u, 4)
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        t = pts[..., 0]
        f, fx, fy, fz = self._profile(pts)
        p0, p1, p2, p3 = (p[..., c] for c in range(4))
        q0, q1, q2, q3 = (q[..., c] for c in range(4))
        out = np.zeros_like(p)
        pq33 = p3 * q3
        out[..., 0] = (
            0.5 * (p0 * q3 + p3 * q0)
            - 0.5 * fx * (p1 * q3 + p3 * q1)
            - 0.5 * fy * (p2 * q3 + p3 * q2)
            + 0.5 * (t - f - fz) * pq33
        )
        out[..., 1] = -0.5 * fx * pq33
        out[..., 2] = -0.5 * fy * pq33
        out[..., 3] = -0.5 * pq33
        return out

    def harmonic_residual(self, points, step: float = 1e-4) -> float:
        """Max |f_xx + f_yy| over probe points, by central differences."""
        pts = _as_points(points, 4)
        pts = pts.reshape(-1, 4)
        x, y, z = pts[:, 1], pts[:, 2], pts[:, 3]
        fxx = (self.f(x + step, y, z) - 2.0 * self.f(x, y, z) + self.f(x - step, y, z))
        fyy = (self.f(x, y + step, z) - 2.0 * self.f(x, y, z) + self.f(x, y - step, z))
        return float(np.max(np.abs((fxx + fyy) / step**2)))


class OriQuadratic(OriGeneral):
    """Concrete saddle profile f = a (x^2 - y^2), exactly harmonic."""

    def __init__(self, a: float = 1.0):
        self.a = float(a)
        super().__init__(
            f=lambda x, y, z: self.a * (x * x - y * y),
            f_x=lambda x, y, z: 2.0 * self.a * x,
            f_y=lambda x, y, z: -2.0 * self.a * y,
            f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
            name=f"ori_quadratic(a={a})",
        )


def finite_difference_christoffels(model: MetricModel, point, step: float) -> np.ndarray:
    """Connection coefficients from the standard metric-derivative formula,
    with central differences.  Independent oracle for the analytic tensors."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    pt = _as_points(point, model.dim).reshape(model.dim)
    dim = model.dim
    g = model.metric(pt)
    det = np.linalg.det(g)
    if abs(det) < 1e-13:
        raise DegeneracyError(f"metric is singular at {pt} (det={det:.3e})")
    ginv = np.linalg.inv(g)
    dg = np.empty((dim, dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = step
        dg[a] = (model.metric(pt + e) - model.metric(pt - e)) / (2.0 * step)
    # dg[c, a, b] = d_c g_ab; bracket[d, a, b] = d_a g_db + d_b g_da - d_d g_ab
    bracket = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("cd,dab->cab", ginv, bracket)


def verify_christoffels_numerically(model: MetricModel, point, step: float = 1e-4) -> float:
    """Max absolute difference between analytic and finite-difference
    connection coefficients; O(step^2) for smooth profiles."""
    analytic = model.christoffels(np.asarray(point, dtype=float))
    numeric = finite_difference_christoffels(model, point, step)
    return float(np.max(np.abs(analytic - numeric)))
