"""Closed-form machinery for the plane-fronted (Ori) space-time.

The z-component equation on the characteristic lattice factorizes, so it
integrates in closed form along either characteristic direction: the
solution is -2 log of an argument built from the straightened initial
profiles and a cumulative integral.  Global existence is equivalent to that
argument staying positive, which gives a scannable criterion, a blow-up
time, and a family of cheap sufficient conditions.  Once the z-component is
known, the two transverse components satisfy linear equations and the time
component a final linear equation.  The staged solves march them with the
general solver's one rectangle kernel (``lightcone.march``); each passes a
right-hand-side closure that gathers the closed form from ``LatticeTables``
at the rectangle corners and leg midpoints.

The straightened initial profiles are the single most error-prone input:
the velocity profile at fixed vtheta differs from the original velocity
whenever the mean speed (lam+ + lam-)/2 is nonzero.  All conversions happen
in ``OriClosedForm.from_initial_data`` and are cross-checked against the
derivative of the position profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .config import DEFAULT_THRESHOLDS
from .errors import ConfigError, DomainTruncationError
from .lightcone import LightconeGrid, corners, initial_lightcone_data, march
from .transport import CoordinateMap
from .worldsheet import StringInitialData

__all__ = [
    "OriClosedForm",
    "LatticeTables",
    "ExistenceReport",
    "CorollaryFlags",
    "StagedFields",
    "solve_plane_components",
    "solve_time_component",
    "staged_solution",
]


def _composite_simpson(f, a, b, panels):
    frac = np.linspace(0.0, 1.0, panels + 1)
    x = a[:, None] + (b - a)[:, None] * frac[None, :]
    y = f(x.reshape(-1)).reshape(x.shape)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (b - a) / (3.0 * panels) * (y @ w)


def _segment_integrals(f, nodes, tol=1e-13):
    """Simpson integrals over consecutive node pairs, panel count doubled
    until the Richardson estimate meets tol (vectorized adaptivity)."""
    a, b = nodes[:-1], nodes[1:]
    prev = _composite_simpson(f, a, b, 4)
    panels = 8
    cur = prev
    while panels <= 512:
        cur = _composite_simpson(f, a, b, panels)
        if np.max(np.abs(cur - prev)) / 15.0 <= tol:
            break
        prev = cur
        panels *= 2
    return cur


def _u3_of_argument(arg, eps_log):
    """-2 log of the log argument; NaN where it is at or below eps_log."""
    return -2.0 * np.log(np.where(arg > eps_log, arg, np.nan))


@dataclass(frozen=True)
class ExistenceReport:
    passed: bool
    t_max: float
    window: tuple
    margin_min: float
    t_star: Optional[float] = None
    vtheta_star: Optional[float] = None

    def describe(self) -> str:
        region = f"t in [0, {self.t_max:g}], vtheta in [{self.window[0]:g}, {self.window[1]:g}]"
        if self.passed:
            return f"PASS over scanned region ({region}); min margin {self.margin_min:.3e}"
        return (
            f"FAIL: earliest violation at t*={self.t_star:.6f}, "
            f"vtheta={self.vtheta_star:.6f} (scanned {region})"
        )


@dataclass(frozen=True)
class CorollaryFlags:
    psi3_nonpositive: bool
    p30_nonpositive: bool
    q30_nonpositive: bool
    p30_l1_small: bool
    q30_l1_small: bool

    def any_true(self) -> bool:
        return any(
            (
                self.psi3_nonpositive,
                self.p30_nonpositive,
                self.q30_nonpositive,
                self.p30_l1_small,
                self.q30_l1_small,
            )
        )

    def as_dict(self) -> dict:
        return {
            "psi3_nonpositive": self.psi3_nonpositive,
            "p30_nonpositive": self.p30_nonpositive,
            "q30_nonpositive": self.q30_nonpositive,
            "p30_l1_small": self.p30_l1_small,
            "q30_l1_small": self.q30_l1_small,
        }


class OriClosedForm:
    """Closed-form z-component and existence criterion.

    Holds the straightened profiles (position phi3, velocity psi3 and the
    two one-form traces p30 = psi3 - d phi3, q30 = psi3 + d phi3) together
    with cumulative tables of the three equivalent integrand forms.
    """

    def __init__(
        self,
        vtheta_nodes: np.ndarray,
        phi3_values: np.ndarray,
        p30_values: np.ndarray,
        q30_values: np.ndarray,
        periodic: bool,
        period: Optional[float],
        coupling_constant: Optional[float] = None,
        eps_log: float = DEFAULT_THRESHOLDS.eps_log,
    ):
        self.vtheta_nodes = np.asarray(vtheta_nodes, dtype=float)
        self.periodic = periodic
        self.period = period
        self.a = coupling_constant
        self.eps_log = float(eps_log)
        psi3 = 0.5 * (np.asarray(p30_values) + np.asarray(q30_values))
        if periodic:
            x = np.append(self.vtheta_nodes, self.vtheta_nodes[0] + period)
            mk = lambda v: CubicSpline(x, np.append(v, v[:1]), bc_type="periodic")
        else:
            x = self.vtheta_nodes
            mk = lambda v: CubicSpline(x, v)
        self._phi3 = mk(np.asarray(phi3_values, dtype=float))
        self._psi3 = mk(psi3)
        self._p30 = mk(np.asarray(p30_values, dtype=float))
        self._q30 = mk(np.asarray(q30_values, dtype=float))
        self.consistency_residual = float(
            np.max(
                np.abs(
                    0.5 * (np.asarray(q30_values) - np.asarray(p30_values))
                    - self._phi3(self.vtheta_nodes, nu=1)
                )
            )
        )
        self._build_tables()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_initial_data(
        cls,
        data: StringInitialData,
        cmap: CoordinateMap,
        coupling_constant: Optional[float] = None,
        eps_log: float = DEFAULT_THRESHOLDS.eps_log,
    ) -> "OriClosedForm":
        if data.dim != 4:
            raise ConfigError("closed form needs four-component data (t, x, y, z)")
        return cls(
            vtheta_nodes=cmap.vtheta_nodes,
            phi3_values=data.phi[:, 3],
            p30_values=data.p0[:, 3],
            q30_values=data.q0[:, 3],
            periodic=cmap.periodic,
            period=cmap.vtheta_period,
            coupling_constant=coupling_constant,
            eps_log=eps_log,
        )

    @classmethod
    def from_profiles(
        cls,
        phi3_bar: Callable,
        psi3_bar: Callable,
        window: tuple,
        periodic: bool = False,
        nodes: int = 1025,
        coupling_constant: Optional[float] = None,
        eps_log: float = DEFAULT_THRESHOLDS.eps_log,
    ) -> "OriClosedForm":
        """Build directly from straightened-coordinate profiles."""
        lo, hi = map(float, window)
        if periodic:
            vth = np.linspace(lo, hi, nodes, endpoint=False)
            period = hi - lo
        else:
            vth = np.linspace(lo, hi, nodes)
            period = None
        phi = np.asarray(phi3_bar(vth), dtype=float) + np.zeros_like(vth)
        psi = np.asarray(psi3_bar(vth), dtype=float) + np.zeros_like(vth)
        if periodic:
            x = np.append(vth, lo + period)
            sp = CubicSpline(x, np.append(phi, phi[:1]), bc_type="periodic")
        else:
            sp = CubicSpline(vth, phi)
        dphi = sp(vth, nu=1)
        return cls(
            vtheta_nodes=vth,
            phi3_values=phi,
            p30_values=psi - dphi,
            q30_values=psi + dphi,
            periodic=periodic,
            period=period,
            coupling_constant=coupling_constant,
            eps_log=eps_log,
        )

    # -- profile evaluation --------------------------------------------------

    def _reduce(self, s):
        s = np.asarray(s, dtype=float)
        if self.periodic:
            lo = self.vtheta_nodes[0]
            return lo + np.mod(s - lo, self.period)
        return np.clip(s, self.vtheta_nodes[0], self.vtheta_nodes[-1])

    def phi3_bar(self, s):
        return self._phi3(self._reduce(s))

    def psi3_bar(self, s):
        return self._psi3(self._reduce(s))

    def p30_bar(self, s):
        return self._p30(self._reduce(s))

    def q30_bar(self, s):
        return self._q30(self._reduce(s))

    # -- cumulative tables -----------------------------------------------------

    def _integrand(self, which):
        prof = {"psi": self.psi3_bar, "p": self.p30_bar, "q": self.q30_bar}[which]
        return lambda s: prof(2.0 * s) * np.exp(-0.5 * self.phi3_bar(2.0 * s))

    def _build_tables(self):
        lo = self.vtheta_nodes[0] / 2.0
        if self.periodic:
            hi = (self.vtheta_nodes[0] + self.period) / 2.0
        else:
            hi = self.vtheta_nodes[-1] / 2.0
        n = max(257, 4 * len(self.vtheta_nodes) + 1)
        s_nodes = np.linspace(lo, hi, n)
        self._s_nodes = s_nodes
        self._s_period = hi - lo if self.periodic else None
        self._tables = {}
        for which in ("psi", "p", "q"):
            seg = _segment_integrals(self._integrand(which), s_nodes)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            self._tables[which] = cum
        self._edge_values = {
            which: (
                float(self._integrand(which)(np.array([lo]))[0]),
                float(self._integrand(which)(np.array([hi]))[0]),
            )
            for which in ("psi", "p", "q")
        }

    def cumulative(self, s, which="psi"):
        """F(s) = integral of the chosen integrand from the table origin,
        table lookup plus a local Simpson correction (absolute accuracy well
        below the blow-up threshold)."""
        s = np.asarray(s, dtype=float)
        nodes = self._s_nodes
        f = self._integrand(which)
        table = self._tables[which]
        if self.periodic:
            total = table[-1]
            k = np.floor((s - nodes[0]) / self._s_period)
            rem = s - k * self._s_period
            base_winding = k * total
        else:
            lo_edge, hi_edge = self._edge_values[which]
            below = s < nodes[0]
            above = s > nodes[-1]
            rem = np.clip(s, nodes[0], nodes[-1])
            base_winding = np.where(below, lo_edge * (s - nodes[0]), 0.0)
            base_winding = base_winding + np.where(above, hi_edge * (s - nodes[-1]), 0.0)
        idx = np.clip(np.searchsorted(nodes, rem, side="right") - 1, 0, len(nodes) - 2)
        a = nodes[idx]
        d = rem - a
        mid = f(a + 0.5 * d)
        corr = d / 6.0 * (f(a) + 4.0 * mid + f(rem))
        return table[idx] + corr + base_winding

    # -- closed form -----------------------------------------------------------

    def log_argument(self, t, vtheta, form="psi"):
        """The positive-argument expression whose log gives -u3/2.

        The three forms integrate the factored equation along xi (p-form),
        along eta (q-form), or in the symmetrized velocity form; they agree
        identically in the continuum.
        """
        t = np.asarray(t, dtype=float)
        vth = np.asarray(vtheta, dtype=float)
        plus = vth + t
        minus = vth - t
        hi = 0.5 * plus
        lo = 0.5 * minus
        if form == "psi":
            integral = self.cumulative(hi, "psi") - self.cumulative(lo, "psi")
            return (
                0.5 * np.exp(-0.5 * self.phi3_bar(plus))
                + 0.5 * np.exp(-0.5 * self.phi3_bar(minus))
                - 0.5 * integral
            )
        if form == "p":
            integral = self.cumulative(hi, "p") - self.cumulative(lo, "p")
            return np.exp(-0.5 * self.phi3_bar(plus)) - 0.5 * integral
        if form == "q":
            integral = self.cumulative(hi, "q") - self.cumulative(lo, "q")
            return np.exp(-0.5 * self.phi3_bar(minus)) - 0.5 * integral
        raise ValueError(f"unknown form {form!r}")

    def u3(self, t, vtheta, form="psi"):
        """Closed-form z-component; NaN marks blown-up points (argument at
        or below the log threshold)."""
        return _u3_of_argument(self.log_argument(t, vtheta, form=form), self.eps_log)

    def u3_xi(self, t, vtheta):
        """Exact xi-derivative of u3 (quotient of integrand evaluations)."""
        t = np.asarray(t, dtype=float)
        vth = np.asarray(vtheta, dtype=float)
        plus = vth + t
        d = self.log_argument(t, vth)
        return self.q30_bar(plus) * np.exp(-0.5 * self.phi3_bar(plus)) / d

    def u3_eta(self, t, vtheta):
        t = np.asarray(t, dtype=float)
        vth = np.asarray(vtheta, dtype=float)
        minus = vth - t
        d = self.log_argument(t, vth)
        return self.p30_bar(minus) * np.exp(-0.5 * self.phi3_bar(minus)) / d

    def coupling(self, t, vtheta):
        """a * u3_xi * u3_eta, the coefficient of the transverse equations."""
        if self.a is None:
            raise ConfigError("coupling constant not set on this closed form")
        t = np.asarray(t, dtype=float)
        vth = np.asarray(vtheta, dtype=float)
        plus, minus = vth + t, vth - t
        d = self.log_argument(t, vth)
        return (
            self.a
            * self.q30_bar(plus)
            * self.p30_bar(minus)
            * np.exp(-0.5 * (self.phi3_bar(plus) + self.phi3_bar(minus)))
            / (d * d)
        )

    # -- existence -------------------------------------------------------------

    def scan_window(self):
        lo = float(self.vtheta_nodes[0])
        if self.periodic:
            return lo, lo + float(self.period)
        return lo, float(self.vtheta_nodes[-1])

    def existence_check(
        self,
        t_max: float,
        step: Optional[float] = None,
        window: Optional[tuple] = None,
        bisect_tol: float = 1e-6,
    ) -> ExistenceReport:
        """Scan the log argument over the region and report the verdict; on
        failure the earliest violation is bracketed on the grid and refined
        by bisection in t.

        The scan lattice has nodes lo + j step and levels t = m step, so
        every level below t_max is read from the lattice tables; the final
        level clipped to t_max and the bisection evaluate pointwise."""
        if window is None:
            window = self.scan_window()
        lo, hi = map(float, window)
        if step is None:
            step = (
                self.period / len(self.vtheta_nodes)
                if self.periodic
                else (hi - lo) / max(1, len(self.vtheta_nodes) - 1)
            )
        if self.periodic:
            # the node at lo + period is the node at lo again
            n = int(np.ceil((hi - lo) / step - 1e-9))
        else:
            n = int(np.floor((hi - lo) / step + 1e-9)) + 1
        nodes = lo + step * np.arange(n)
        levels = int(np.floor(t_max / step)) + 1
        t_grid = step * np.arange(levels + 1)
        t_nodes = np.minimum(t_grid, t_max)
        tables = LatticeTables(self, lo, step, n, levels)

        def min_arg(tval):
            return float(np.min(self.log_argument(np.full_like(nodes, tval), nodes)))

        margin = np.inf
        t_prev = 0.0
        for level, tval in enumerate(t_nodes):
            if t_grid[level] <= t_max:
                m = float(np.min(tables.log_argument(level, 0, n)))
            else:
                m = min_arg(float(tval))
            margin = min(margin, m)
            if m <= self.eps_log:
                t_lo, t_hi = t_prev, float(tval)
                while t_hi - t_lo > bisect_tol:
                    mid = 0.5 * (t_lo + t_hi)
                    if min_arg(mid) <= self.eps_log:
                        t_hi = mid
                    else:
                        t_lo = mid
                t_star = 0.5 * (t_lo + t_hi)
                args = self.log_argument(np.full_like(nodes, t_hi), nodes)
                j = int(np.argmin(args))
                return ExistenceReport(
                    passed=False,
                    t_max=t_max,
                    window=(lo, hi),
                    margin_min=margin,
                    t_star=t_star,
                    vtheta_star=float(nodes[j]),
                )
            t_prev = float(tval)
        return ExistenceReport(
            passed=True, t_max=t_max, window=(lo, hi), margin_min=margin
        )

    def corollary_flags(
        self, l1_threshold: float = DEFAULT_THRESHOLDS.l1_threshold
    ) -> CorollaryFlags:
        """Cheap sufficient conditions for global existence, evaluated on
        the straightened profiles.  Each true flag implies the scan passes;
        all-false implies nothing."""
        lo, hi = self.scan_window()
        s = np.linspace(lo, hi, 4 * len(self.vtheta_nodes) + 1)
        psi = self.psi3_bar(s)
        p30 = self.p30_bar(s)
        q30 = self.q30_bar(s)
        l1_p = float(np.trapezoid(np.abs(p30), s))
        l1_q = float(np.trapezoid(np.abs(q30), s))
        return CorollaryFlags(
            psi3_nonpositive=bool(np.max(psi) <= 0.0),
            p30_nonpositive=bool(np.max(p30) <= 0.0),
            q30_nonpositive=bool(np.max(q30) <= 0.0),
            p30_l1_small=l1_p <= l1_threshold,
            q30_l1_small=l1_q <= l1_threshold,
        )


class LatticeTables:
    """The closed form gathered from 1D tables on the characteristic lattice
    with nodes vtheta = lo + j step (0 <= j < nodes) and levels t = m step
    (0 <= m <= levels).

    The psi-form log argument splits as A(xi) + B(eta), xi = vtheta + t,
    eta = vtheta - t, with A = e^{-phi3/2}/2 - F/2, B = e^{-phi3/2}/2 + F/2
    and F(s) = cumulative(s/2).  The partials need Q = q30 e^{-phi3/2} at xi
    and P = p30 e^{-phi3/2} at eta.  All four are sampled once on the grid
    lo + k step by the pointwise methods, so periodic winding and the
    line-window extension carry over unchanged.  A and Q cover the xi-range
    of the lattice, B and P its eta-range, each with a margin of
    ``_MARGIN`` steps for the rectangle corners one node outside.

    A lattice point is named by its level and node in units of the step
    (t = level step, vtheta = lo + node step).  Both may be half-integers
    when their sum is an integer, as at the rectangle leg midpoints; the
    point then has xi-index node + level and eta-index node - level, and
    ``count`` consecutive nodes read contiguous table slices.
    """

    _MARGIN = 2
    _CHUNK = 1024

    def __init__(self, cf: OriClosedForm, lo: float, step: float, nodes: int, levels: int):
        pad = self._MARGIN
        self._eta_origin = levels + pad
        self._a, self._q = self._sample(cf, lo, step, -pad, nodes + levels + pad, -1.0, cf.q30_bar)
        self._b, self._p = self._sample(cf, lo, step, -levels - pad, nodes + pad, 1.0, cf.p30_bar)
        self.coupling_constant = cf.a
        self.eps_log = cf.eps_log

    def _sample(self, cf, lo, step, first, last, sign, trace):
        """e^{-phi3/2}/2 + sign F/2 and trace e^{-phi3/2} on lo + k step,
        first <= k <= last, evaluated in chunks: ``cumulative`` makes about a
        dozen temporaries of its argument's size, so this bounds the peak
        memory of a build."""
        size = last - first + 1
        half, weighted = np.empty(size), np.empty(size)
        for start in range(0, size, self._CHUNK):
            k = np.arange(first + start, first + min(size, start + self._CHUNK))
            x = lo + step * k
            w = np.exp(-0.5 * cf.phi3_bar(x))
            part = slice(start, start + len(x))
            half[part] = 0.5 * w + sign * 0.5 * cf.cumulative(0.5 * x, "psi")
            weighted[part] = trace(x) * w
        return half, weighted

    def _slices(self, level, node, count):
        i = self._MARGIN + int(round(node + level))
        k = self._eta_origin + int(round(node - level))
        if min(i, k) < 0 or i + count > len(self._a) or k + count > len(self._b):
            raise IndexError(f"lattice point (level {level}, node {node}) outside the tables")
        return slice(i, i + count), slice(k, k + count)

    def log_argument(self, level, node, count):
        xi, eta = self._slices(level, node, count)
        return self._a[xi] + self._b[eta]

    def u3(self, level, node, count):
        return _u3_of_argument(self.log_argument(level, node, count), self.eps_log)

    def u3_xi(self, level, node, count):
        xi, _ = self._slices(level, node, count)
        return self._q[xi] / self.log_argument(level, node, count)

    def u3_eta(self, level, node, count):
        _, eta = self._slices(level, node, count)
        return self._p[eta] / self.log_argument(level, node, count)

    def coupling(self, level, node, count):
        if self.coupling_constant is None:
            raise ConfigError("coupling constant not set on this closed form")
        xi, eta = self._slices(level, node, count)
        d = self.log_argument(level, node, count)
        return self.coupling_constant * self._q[xi] * self._p[eta] / (d * d)


# ---------------------------------------------------------------------------
# staged solves on the characteristic lattice
# ---------------------------------------------------------------------------


@dataclass
class StagedFields:
    """Staged components and their one-forms on the lattice: (levels+1,
    nodes, 2) for the transverse pair, (levels+1, nodes) for time."""

    u: np.ndarray
    p: np.ndarray
    q: np.ndarray


def _grid_tables(cf: OriClosedForm, grid: LightconeGrid) -> LatticeTables:
    return LatticeTables(cf, float(grid.vtheta[0]), grid.step, len(grid.vtheta), grid.n_levels)


def _check_domain_finite(tables: LatticeTables, grid: LightconeGrid):
    for m, t in enumerate(grid.t_nodes):
        lo, hi = grid.valid_bounds(m)
        if np.any(tables.log_argument(m, lo, hi - lo) <= tables.eps_log):
            raise DomainTruncationError(
                f"closed-form z-component blows up inside the requested domain "
                f"at t={t:.6g}; truncate t_max or change the data"
            )


def solve_plane_components(
    cf: OriClosedForm,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
) -> StagedFields:
    """March the two transverse components, which are linear once the
    closed-form z-component supplies the coupling coefficient c: the
    right-hand side is (c u_x, -c u_y), with c gathered from the lattice
    tables at each corner and leg midpoint."""
    tables = _grid_tables(cf, grid)
    _check_domain_finite(tables, grid)
    signs = np.array([1.0, -1.0])  # +c u for x, -c u for y

    def rhs_at(m):
        lo, hi = grid.valid_bounds(m + 1)

        def rhs(where, u, p, q):
            c = tables.coupling(m + where[0], lo + where[1], hi - lo)
            return c[:, None] * signs * u

        return rhs

    init = (f[:, 1:3] for f in initial_lightcone_data(data, cmap, grid))
    u, p, q, _ = march(grid, init, rhs_at)
    return StagedFields(u=u, p=p, q=q)


def solve_time_component(
    cf: OriClosedForm,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
    plane: StagedFields,
) -> StagedFields:
    """March the time component, which is linear given the plane fields and
    the closed-form z-derivatives.  The right-hand side reads the plane
    fields at the rectangle corners and averages them along each leg to the
    target node for the midpoints."""
    if cf.a is None:
        raise ConfigError("staged time solve needs the coupling constant")
    a = cf.a
    tables = _grid_tables(cf, grid)

    def rhs_at(m):
        lo, hi = grid.valid_bounds(m)
        nlo, nhi = grid.valid_bounds(m + 1)
        fields = (plane.u, plane.p, plane.q)
        ends = [corners(f[m, lo:hi], grid.periodic) for f in fields]
        target = [f[m + 1, nlo:nhi] for f in fields]

        def rhs(where, u0v, p0v, q0v):
            level, node = m + where[0], nlo + where[1]
            p3 = tables.u3_eta(level, node, nhi - nlo)
            q3 = tables.u3_xi(level, node, nhi - nlo)
            plane_here = [end[where[1] > 0] for end in ends]
            if where[0]:  # leg midpoint: average the corner with the target
                plane_here = [0.5 * (c + x) for c, x in zip(plane_here, target)]
            (u1, u2), (pp1, pp2), (qq1, qq2) = (f.T for f in plane_here)
            return (
                -0.5 * (p0v * q3 + p3 * q0v)
                + a * u1 * (pp1 * q3 + p3 * qq1)
                - a * u2 * (pp2 * q3 + p3 * qq2)
                - 0.5 * (u0v - a * (u1 * u1 - u2 * u2)) * p3 * q3
            )

        return rhs

    init = (f[:, 0] for f in initial_lightcone_data(data, cmap, grid))
    u, p, q, _ = march(grid, init, rhs_at)
    return StagedFields(u=u, p=p, q=q)


def staged_solution(
    cf: OriClosedForm,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
) -> np.ndarray:
    """Assemble the full four-component field: closed-form z, staged
    transverse and time components.  Shape (levels+1, nodes, 4)."""
    plane = solve_plane_components(cf, data, cmap, grid)
    time = solve_time_component(cf, data, cmap, grid, plane)
    levels = grid.n_levels
    out = np.full((levels + 1, len(grid.vtheta), 4), np.nan)
    out[:, :, 0] = time.u
    out[:, :, 1:3] = plane.u
    tables = _grid_tables(cf, grid)
    for m in range(levels + 1):
        lo, hi = grid.valid_bounds(m)
        out[m, lo:hi, 3] = tables.u3(m, lo, hi - lo)
    return out
