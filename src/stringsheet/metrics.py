"""Lorentzian metric backends.

Every model evaluates the bilinear forms g_u(v, w) of the ambient metric at
space-time points u, and the contraction Gamma^C_AB p^A q^B of its
connection coefficients, the source of the light-cone system.  For the
four dimensional plane-fronted family the coordinate ordering is fixed as
(t, x, y, z) <-> indices (0, 1, 2, 3), and the line element is

    ds^2 = dx^2 + dy^2 - 2 dz dt + (f(x, y, z) - t) dz^2

with a wave profile f satisfying f_xx + f_yy = 0.  All evaluators accept a
single point of shape (dim,) or a batch of shape (..., dim) and broadcast.
Models are immutable after construction and safe to share across workers.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = [
    "MetricModel",
    "Minkowski",
    "OriGeneral",
    "OriQuadratic",
]


class MetricModel:
    """Shared interface: ``forms(u, pairs)``, the list of g_u(v, w) for each
    (v, w) in ``pairs`` with the scale max(1, max |g_ab(u)|); and
    ``contract_pq(u, p, q)``, Gamma^C_AB(u) p^A q^B, the source of the
    light-cone system.  Neither checks its arguments: callers pass fields
    they have already checked.

    Each form starts from +0.0 and adds the nonzero terms g_ab v^a w^b in
    (a, b) order, as ``einsum`` sums the full contraction, so the two agree
    to the bit, signed zeros included."""

    dim: int
    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class Minkowski(MetricModel):
    """Flat space-time diag(-1, 1, ..., 1) in n+1 dimensions."""

    def __init__(self, spatial_dim: int = 3):
        if spatial_dim < 0:
            raise ConfigError(f"'spatial_dim' must be nonnegative, got {spatial_dim}")
        self.dim = spatial_dim + 1
        self.name = f"minkowski({spatial_dim})"

    def forms(self, u, pairs):
        return [
            sum((v[..., c] * w[..., c] for c in range(1, self.dim)), 0.0 - v[..., 0] * w[..., 0])
            for v, w in pairs
        ], 1.0

    def contract_pq(self, u, p, q) -> np.ndarray:
        return np.zeros_like(np.asarray(p, dtype=float))


class OriGeneral(MetricModel):
    """Plane-fronted vacuum family with a user supplied harmonic profile.

    The profile and its three partial derivatives are supplied as callbacks
    f(x, y, z), f_x(x, y, z), f_y(x, y, z), f_z(x, y, z).  Harmonicity is a
    precondition of the family, not something enforceable pointwise at
    runtime; the test suite checks it for every registry profile.
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

    def forms(self, u, pairs):
        t, x, y, z = (u[..., c] for c in range(4))
        g33 = self.f(x, y, z) - t
        return [
            0.0 - v[..., 0] * w[..., 3] + v[..., 1] * w[..., 1] + v[..., 2] * w[..., 2]
            - v[..., 3] * w[..., 0] + g33 * v[..., 3] * w[..., 3]
            for v, w in pairs
        ], np.maximum(1.0, np.abs(g33))

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

