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
at the rectangle corners and leg midpoints, and each is a generator of
lattice levels that holds one diagonal.

The straightened initial profiles are the single most error-prone input:
the velocity profile at fixed vtheta differs from the original velocity
whenever the mean speed (lam+ + lam-)/2 is nonzero.  All conversions happen
in ``OriClosedForm.from_initial_data``.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_THRESHOLDS
from .errors import ConfigError, DomainTruncationError
from .lightcone import CharacteristicTable, LightconeGrid, corners, initial_lightcone_data, march
from .transport import CoordinateMap
from .worldsheet import Profile, StringInitialData, _continue

__all__ = [
    "OriClosedForm",
    "LatticeTables",
    "ExistenceReport",
    "CorollaryFlags",
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


def _segment_integrals(f, nodes):
    """Simpson integrals over consecutive node pairs, panel count doubled
    until the Richardson estimate is at most 1e-13 (vectorized adaptivity)."""
    a, b = nodes[:-1], nodes[1:]
    prev = _composite_simpson(f, a, b, 4)
    panels = 8
    cur = prev
    while panels <= 512:
        cur = _composite_simpson(f, a, b, panels)
        if np.max(np.abs(cur - prev)) / 15.0 <= 1e-13:
            break
        prev = cur
        panels *= 2
    return cur


def _u3_of_argument(arg, eps_log):
    """-2 log of the log argument; NaN where it is at or below eps_log."""
    return -2.0 * np.log(np.where(arg > eps_log, arg, np.nan))


@dataclass(frozen=True)
class ExistenceReport:
    """Verdict of the existence scan over t in [0, t_end].  On a ring the
    scan covers the whole period at every t.  On a line (``triangle``) it
    covers only what the data determine, vtheta in [lo + t, hi - t], and
    t_end is where that triangle closes if it closes before the requested
    t_max."""

    passed: bool
    t_end: float
    window: tuple
    triangle: bool
    margin_min: float
    t_star: Optional[float] = None
    vtheta_star: Optional[float] = None

    def describe(self) -> str:
        lo, hi = self.window
        vtheta = f"[{lo:g} + t, {hi:g} - t]" if self.triangle else f"[{lo:g}, {hi:g}]"
        region = f"t in [0, {self.t_end:g}], vtheta in {vtheta}"
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
        return any(astuple(self))


class OriClosedForm:
    """Closed-form z-component and existence criterion.

    Holds the straightened profiles (position phi3, velocity psi3 and the
    two one-form traces p30 = psi3 - d phi3, q30 = psi3 + d phi3) and a
    cumulative table of the velocity integrand psi3 e^{-phi3/2} (at 2s, in
    s = vtheta/2), built at construction.  The log argument is the
    symmetrized velocity form of the closed form, the average of its
    integrals along xi and along eta.  ``period`` is the ring's period in
    vtheta, or None on a line.
    """

    def __init__(
        self,
        vtheta_nodes: np.ndarray,
        phi3_values: np.ndarray,
        p30_values: np.ndarray,
        q30_values: np.ndarray,
        period: Optional[float],
        coupling_constant: Optional[float] = None,
        eps_log: float = DEFAULT_THRESHOLDS.eps_log,
    ):
        self.vtheta_nodes = np.asarray(vtheta_nodes, dtype=float)
        self.period = period
        self.a = coupling_constant
        self.eps_log = float(eps_log)
        psi3 = 0.5 * (np.asarray(p30_values) + np.asarray(q30_values))
        x = self.vtheta_nodes
        self.phi3_bar = Profile(x, phi3_values, period)
        self.psi3_bar = Profile(x, psi3, period)
        self.p30_bar = Profile(x, p30_values, period)
        self.q30_bar = Profile(x, q30_values, period)
        lo = x[0] / 2.0
        hi = (x[-1] if period is None else x[0] + period) / 2.0
        self._s_nodes = np.linspace(lo, hi, max(257, 4 * len(x) + 1))
        self._s_period = None if period is None else hi - lo
        seg = _segment_integrals(self._integrand, self._s_nodes)
        self._table = np.concatenate([[0.0], np.cumsum(seg)])
        # slopes of the linear continuation past a line window
        self._edge_slopes = (
            float(self._integrand(self._s_nodes[:1])[0]),
            float(self._integrand(self._s_nodes[-1:])[0]),
        )

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
        period = hi - lo if periodic else None
        vth = np.linspace(lo, hi, nodes, endpoint=not periodic)
        phi = np.asarray(phi3_bar(vth), dtype=float) + np.zeros_like(vth)
        psi = np.asarray(psi3_bar(vth), dtype=float) + np.zeros_like(vth)
        dphi = Profile(vth, phi, period)(vth, nu=1)
        return cls(
            vtheta_nodes=vth,
            phi3_values=phi,
            p30_values=psi - dphi,
            q30_values=psi + dphi,
            period=period,
            coupling_constant=coupling_constant,
            eps_log=eps_log,
        )

    # -- closed form -----------------------------------------------------------

    def _integrand(self, s):
        return self.psi3_bar(2.0 * s) * np.exp(-0.5 * self.phi3_bar(2.0 * s))

    def cumulative(self, s):
        """F(s) = integral of the velocity integrand from the table origin
        (absolute accuracy well below the blow-up threshold).  Past the table
        it winds by the integral over a period on a ring and continues
        linearly on a line, by the rule of the straightening map."""
        return _continue(
            self._lookup, self._s_nodes, self._s_period, self._table[-1], s, self._edge_slopes
        )

    def _lookup(self, s):
        """F on the table nodes' span: table value plus a local Simpson
        correction."""
        nodes = self._s_nodes
        f = self._integrand
        idx = np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 2)
        a = nodes[idx]
        d = s - a
        mid = f(a + 0.5 * d)
        corr = d / 6.0 * (f(a) + 4.0 * mid + f(s))
        return self._table[idx] + corr

    def log_argument(self, t, vtheta):
        """The positive-argument expression whose log gives -u3/2."""
        t = np.asarray(t, dtype=float)
        vth = np.asarray(vtheta, dtype=float)
        plus = vth + t
        minus = vth - t
        integral = self.cumulative(0.5 * plus) - self.cumulative(0.5 * minus)
        return (
            0.5 * np.exp(-0.5 * self.phi3_bar(plus))
            + 0.5 * np.exp(-0.5 * self.phi3_bar(minus))
            - 0.5 * integral
        )

    def u3(self, t, vtheta):
        """Closed-form z-component; NaN marks blown-up points (argument at
        or below the log threshold)."""
        return _u3_of_argument(self.log_argument(t, vtheta), self.eps_log)

    # -- existence -------------------------------------------------------------

    def scan_window(self):
        lo = float(self.vtheta_nodes[0])
        if self.period is None:
            return lo, float(self.vtheta_nodes[-1])
        return lo, lo + float(self.period)

    def scan_grid(self, t_max: float) -> LightconeGrid:
        """The lattice of the existence scan: one node per closed-form node,
        lo + j step with step = period / nodes on a ring and window /
        (nodes - 1) on a line, and the levels t = m step up to t_max.  On a
        line, t_max is cut to the level where the triangle of determinacy
        closes."""
        lo, hi = self.scan_window()
        n = len(self.vtheta_nodes)
        step = (hi - lo) / (n - 1) if self.period is None else self.period / n
        return LightconeGrid.over(lo, step, n, self.period, t_max)

    def existence_check(self, t_max: float) -> ExistenceReport:
        """Scan the log argument over the region the data determine up to
        t_max (``scan_grid``) and report the verdict; on failure the
        earliest violation is bracketed between levels and refined by
        bisection in t.

        Every lattice level is read from the lattice tables over its valid
        nodes, a block of levels at a time.  A last level at t_max off the
        lattice, and the bisection, evaluate pointwise on the nodes of level
        ceil(t / step): on a line, the lattice nodes inside the triangle at
        time t."""
        grid = self.scan_grid(t_max)
        tables = LatticeTables(self, grid)

        def nodes_at(t):
            lo, hi = grid.valid_bounds(int(np.ceil(t / grid.step - 1e-9)))
            return grid.vtheta[lo:hi]

        def min_arg(t):
            nodes = nodes_at(t)
            return float(np.min(self.log_argument(np.full_like(nodes, t), nodes)))

        def level_minima():  # (times, minima) a block of levels at a time
            for levels, minima in tables.level_minima():
                yield grid.step * np.arange(levels.start, levels.stop), minima
            if grid.t_max > grid.step * grid.n_levels:
                yield [grid.t_max], np.array([min_arg(grid.t_max)])

        report = dict(t_end=grid.t_max, window=self.scan_window(), triangle=self.period is None)
        margin = np.inf
        t_prev = 0.0
        for times, minima in level_minima():
            failed = np.flatnonzero(minima <= self.eps_log)
            read = minima[: failed[0] + 1] if len(failed) else minima
            margin = min(margin, float(np.fmin.reduce(read)))  # both skip a NaN level
            if len(failed):
                k = failed[0]
                t_lo, t_hi = float(times[k - 1]) if k else t_prev, float(times[k])
                while t_hi - t_lo > 1e-6:  # t* to six decimals
                    mid = 0.5 * (t_lo + t_hi)
                    if min_arg(mid) <= self.eps_log:
                        t_hi = mid
                    else:
                        t_lo = mid
                nodes = nodes_at(t_hi)
                j = int(np.argmin(self.log_argument(np.full_like(nodes, t_hi), nodes)))
                return ExistenceReport(
                    passed=False,
                    margin_min=margin,
                    t_star=0.5 * (t_lo + t_hi),
                    vtheta_star=float(nodes[j]),
                    **report,
                )
            t_prev = float(times[-1])
        return ExistenceReport(passed=True, margin_min=margin, **report)

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


class LatticeTables(CharacteristicTable):
    """The closed form gathered from 1D tables on a characteristic lattice
    ``grid``, with nodes vtheta = lo + j step (0 <= j < nodes) and levels
    t = m step (0 <= m <= n_levels).

    The psi-form log argument splits as A(xi) + B(eta), xi = vtheta + t,
    eta = vtheta - t, with A = e^{-phi3/2}/2 - F/2, B = e^{-phi3/2}/2 + F/2
    and F(s) = cumulative(s/2): the two functions of this table.  The
    partials need Q = q30 e^{-phi3/2} at xi and P = p30 e^{-phi3/2} at eta,
    a second table over the same indices.  All four are sampled once on the
    grid lo + k step by the pointwise methods, so periodic winding carries
    over unchanged.  On a line the triangle of determinacy, rectangle
    corners and leg midpoints included, reads 0 <= k < nodes in both.  On a
    ring the tables cover the whole xi- and eta-range of the levels, with a
    margin of ``_MARGIN`` steps for the rectangle corners one node outside.
    A point (level, node) is read as ``CharacteristicTable.at`` names it.
    """

    _MARGIN = 2
    _CHUNK = 1024

    def __init__(self, cf: OriClosedForm, grid: LightconeGrid):
        lo, step, nodes, levels = float(grid.vtheta[0]), grid.step, len(grid.vtheta), grid.n_levels
        if grid.periodic:
            pad = self._MARGIN
            xi, eta = (-pad, nodes + levels + pad), (-levels - pad, nodes + pad)
        else:
            xi = eta = (0, nodes - 1)
        a, q = self._sample(cf, lo, step, *xi, -1.0, cf.q30_bar)
        b, p = self._sample(cf, lo, step, *eta, 1.0, cf.p30_bar)
        super().__init__(grid, a, b, xi[0], eta[0])
        self._traces = CharacteristicTable(grid, q, p, xi[0], eta[0])
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
            half[part] = 0.5 * w + sign * 0.5 * cf.cumulative(0.5 * x)
            weighted[part] = trace(x) * w
        return half, weighted

    def log_argument(self, level, node, count):
        a, b = self.at(level, node, count)
        return a + b

    def level(self, m):
        """The log argument on the valid nodes of level m."""
        lo, hi = self.grid.valid_bounds(m)
        return self.log_argument(m, lo, hi - lo)

    def level_minima(self):
        """Yield ``(levels, minima)`` per range of whole levels: the least
        log argument on the valid nodes of each, ``np.min(self.level(m))``."""
        for levels, block, where in self.level_blocks(np.add, True):
            yield levels, np.min(block, axis=1, initial=np.inf, where=where)

    def u3_xi(self, level, node, count):
        q, _ = self._traces.at(level, node, count)
        return q / self.log_argument(level, node, count)

    def u3_eta(self, level, node, count):
        _, p = self._traces.at(level, node, count)
        return p / self.log_argument(level, node, count)

    def coupling(self, level, node, count):
        if self.coupling_constant is None:
            raise ConfigError("coupling constant not set on this closed form")
        q, p = self._traces.at(level, node, count)
        d = self.log_argument(level, node, count)
        return self.coupling_constant * q * p / (d * d)


# ---------------------------------------------------------------------------
# staged solves on the characteristic lattice
# ---------------------------------------------------------------------------


def _check_domain_finite(tables: LatticeTables, grid: LightconeGrid, m: int):
    if np.any(tables.level(m) <= tables.eps_log):
        raise DomainTruncationError(
            f"closed-form z-component blows up inside the requested domain "
            f"at t={m * grid.step:.6g}; truncate t_max or change the data"
        )


def solve_plane_components(
    tables: LatticeTables,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
):
    """Yield ``(m, u, p, q)`` of the two transverse components level by
    level (see ``lightcone.march``).  They are linear once the closed-form
    z-component supplies the coupling coefficient c: the right-hand side is
    (c u_x, -c u_y), with c gathered from the lattice tables at each corner
    and leg midpoint.  Each level's log argument is checked before the
    march steps onto it."""
    signs = np.array([1.0, -1.0])  # +c u for x, -c u for y

    def rhs_at(m):
        _check_domain_finite(tables, grid, m + 1)
        lo, hi = grid.valid_bounds(m + 1)

        def rhs(where, u, p, q):
            c = tables.coupling(m + where[0], lo + where[1], hi - lo)
            return c[:, None] * signs * u

        return rhs

    _check_domain_finite(tables, grid, 0)
    init = (f[:, 1:3] for f in initial_lightcone_data(data, cmap, grid))
    yield from march(grid, init, rhs_at)


def solve_time_component(
    tables: LatticeTables,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
    plane,
):
    """Yield ``(m, u, p, q)`` of the time component level by level.  It is
    linear given the plane fields and the closed-form z-derivatives.
    ``plane`` iterates over the plane levels as ``solve_plane_components``
    yields them, and the step onto level m + 1 pulls plane level m + 1.  The
    right-hand side reads the plane fields at the rectangle corners and
    averages them along each leg to the target node for the midpoints."""
    a = tables.coupling_constant
    if a is None:
        raise ConfigError("staged time solve needs the coupling constant")
    plane = iter(plane)
    below = next(plane)[1:]

    def rhs_at(m):
        nonlocal below
        nlo, nhi = grid.valid_bounds(m + 1)
        ends = [corners(f, grid.periodic) for f in below]
        target = below = next(plane)[1:]

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
    yield from march(grid, init, rhs_at)


def staged_solution(
    cf: OriClosedForm,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
):
    """Yield ``(m, u)`` level by level: the four-component field on the
    valid nodes, shape (nodes, 4), with staged time and transverse
    components and the closed-form z-component."""
    tables = LatticeTables(cf, grid)
    plane_u = {}  # plane levels pulled by the time march and not yet yielded

    def plane():
        for level in solve_plane_components(tables, data, cmap, grid):
            plane_u[level[0]] = level[1]
            yield level

    for m, u0, _, _ in solve_time_component(tables, data, cmap, grid, plane()):
        u3 = _u3_of_argument(tables.level(m), cf.eps_log)
        yield m, np.column_stack([u0, plane_u.pop(m), u3])
