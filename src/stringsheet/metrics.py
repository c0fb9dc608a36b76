"""Lorentzian metric backends.

Every model evaluates the ambient metric g_AB at a space-time point and
the contraction Gamma^C_AB p^A q^B of its connection coefficients, the
source of the light-cone system.  For the four dimensional plane-fronted
family the coordinate ordering is fixed as (t, x, y, z) <-> indices
(0, 1, 2, 3), and the line element is

    ds^2 = dx^2 + dy^2 - 2 dz dt + (f(x, y, z) - t) dz^2

with a wave profile f satisfying f_xx + f_yy = 0.  All evaluators accept a
single point of shape (dim,) or a batch of shape (..., dim) and broadcast.
Models are immutable after construction and safe to share across workers.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "MetricModel",
    "Minkowski",
    "OriGeneral",
    "OriQuadratic",
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


class MetricModel:
    """Shared interface: ``metric(points)``, the metric g_AB;
    ``null_forms(u, p, q)``, g(p, p), g(q, q) and max |g_ab| at u; and
    ``contract_pq(u, p, q)``, Gamma^C_AB(u) p^A q^B, the source of the
    light-cone system.  The last two check nothing: the march calls them on
    fields it has already checked."""

    dim: int
    name: str

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

    def null_forms(self, u, p, q):
        # in the order einsum adds g_ab v^a v^b, so bitwise the same sum
        gp, gq = (sum((v[..., c] ** 2 for c in range(1, self.dim)), -v[..., 0] ** 2)
                  for v in (p, q))
        return gp, gq, 1.0

    def contract_pq(self, u, p, q) -> np.ndarray:
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

    def metric(self, points) -> np.ndarray:
        pts = _as_points(points, 4)
        t, x, y, z = (pts[..., c] for c in range(4))
        f = self.f(x, y, z) + np.zeros_like(x)
        g = np.zeros(pts.shape[:-1] + (4, 4))
        g[..., 1, 1] = 1.0
        g[..., 2, 2] = 1.0
        g[..., 0, 3] = -1.0
        g[..., 3, 0] = -1.0
        g[..., 3, 3] = f - t
        return g

    def null_forms(self, u, p, q):
        t, x, y, z = (u[..., c] for c in range(4))
        g33 = self.f(x, y, z) - t
        gp, gq = (-v[..., 0] * v[..., 3] + v[..., 1] ** 2 + v[..., 2] ** 2 - v[..., 3] * v[..., 0]
                  + g33 * v[..., 3] * v[..., 3] for v in (p, q))  # in einsum's order
        return gp, gq, np.maximum(1.0, np.abs(g33))

    def contract_pq(self, u, p, q) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        t, x, y, z = (u[..., c] for c in range(4))
        f, fx, fy, fz = (g(x, y, z) for g in (self.f, self.f_x, self.f_y, self.f_z))
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

