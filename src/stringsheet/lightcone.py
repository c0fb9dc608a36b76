"""Characteristic-lattice solver for the semilinear light-cone system.

In the straightened coordinates both characteristic families travel at unit
speed, so a square lattice with dt = dvtheta = h aligns exactly with the
characteristics.  The one-form fields advance along their own families with
a second-order predictor-corrector on each characteristic rectangle; the
position field is recovered by trapezoid integration along both legs.
``advance_diagonal`` is that one rectangle step and ``march`` the one level
loop, a generator that holds only the current diagonal; the general solve
and the staged solves of ``ori`` differ only in the right-hand side they
pass.  Nothing stores a lattice: ``solve`` hands each level to a sink.

There is no CFL restriction and no transport error: with a flat ambient
metric the one-form values are bitwise constant along their characteristics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DEFAULT_THRESHOLDS, Thresholds
from .errors import ConfigError, NumericalConsistencyError, WindowError
from .metrics import MetricModel
from .transport import CoordinateMap
from .worldsheet import StringInitialData

__all__ = [
    "LightconeGrid",
    "build_grid",
    "level_batches",
    "CharacteristicTable",
    "BlowUpReport",
    "LightconeSolution",
    "initial_lightcone_data",
    "corners",
    "advance_diagonal",
    "march",
    "relative_null_residuals",
    "solve",
]


# the most points a lattice may hold, nodes times levels; far above the
# largest shipped lattice (the 11,304 x 628 existence scan of ori_global)
MAX_LATTICE_POINTS = 10**9


@dataclass(frozen=True)
class LightconeGrid:
    """Square lattice in (t, vtheta) with the initial line as a diagonal.

    On a ring the vtheta window is one ``period`` and indices wrap; on a
    line (``period`` None) each level loses one node per side (pure
    initial-value problem on the triangle of determinacy).  Every lattice is
    laid out by ``over``.
    """

    step: float
    t_max: float
    vtheta: np.ndarray
    period: Optional[float]
    n_levels: int

    @classmethod
    def over(cls, lo, step, nodes, period, t_max) -> "LightconeGrid":
        """The lattice of the nodes lo + j step (0 <= j < nodes) and the
        levels t = m step up to t_max: on a ring of ``period``, or on a line
        when ``period`` is None, where t_max is cut to the last level that
        the triangle of determinacy reaches.  A lattice of more than
        ``MAX_LATTICE_POINTS`` points is refused before any array is laid
        out."""
        if period is None:
            t_max = min(t_max, (nodes - 1) // 2 * step)
        n_levels = int(np.floor(t_max / step + 1e-9))
        if nodes * (n_levels + 1) > MAX_LATTICE_POINTS:
            raise ConfigError(
                f"a lattice of {nodes} nodes x {n_levels + 1} levels at step {step:.6g} "
                f"is over the limit of {MAX_LATTICE_POINTS:.0e} points"
            )
        return cls(
            step=step,
            t_max=t_max,
            vtheta=lo + step * np.arange(nodes),
            period=period,
            n_levels=n_levels,
        )

    @staticmethod
    def row(span, step, periodic):
        """``(nodes, step)`` of a lattice row over a window of length
        ``span`` at about ``step``: on a ring the nodes divide one period,
        at least 8 of them, and the step is adjusted to fit; on a line the
        step is kept and the nodes fill the window."""
        if periodic:
            nodes = max(8, int(round(span / step)))
            return nodes, span / nodes
        return int(np.floor(span / step + 1e-9)) + 1, step

    @property
    def periodic(self) -> bool:
        return self.period is not None

    @property
    def t_nodes(self) -> np.ndarray:
        return self.step * np.arange(self.n_levels + 1)

    def valid_bounds(self, level: int):
        n = len(self.vtheta)
        if self.periodic:
            return 0, n
        return level, n - level


def build_grid(cmap: CoordinateMap, step: float, t_max: float) -> LightconeGrid:
    if step <= 0.0 or t_max <= 0.0:
        raise ConfigError("step and t_max must be positive")
    lo, period = cmap.vtheta_nodes[0], cmap.vtheta_period
    span = cmap.vtheta_nodes[-1] - lo if period is None else period
    nodes, step = LightconeGrid.row(span, step, period is not None)
    grid = LightconeGrid.over(lo, step, nodes, period, t_max)
    if grid.n_levels < int(np.floor(t_max / step + 1e-9)):
        raise ConfigError(
            f"window supports only t <= {grid.t_max:.6g} "
            f"at step {step:.6g}, requested t_max={t_max:.6g}"
        )
    return grid


LEVEL_BATCH = 1 << 16  # lattice points per batch of whole levels


def level_batches(t_nodes, nodes):
    """Consecutive slices of ``t_nodes``, each of whole levels of about
    ``LEVEL_BATCH`` points at ``nodes`` points per level (one level at
    least), so a lattice-wide field is never held whole."""
    per_batch = max(1, LEVEL_BATCH // nodes)
    for start in range(0, len(t_nodes), per_batch):
        yield t_nodes[start : start + per_batch]


def _samples(values, first, lo, hi):
    """``values``, the first at lattice index ``first``, at the indices
    lo <= k < hi; NaN where they are not sampled."""
    before, after = max(first - lo, 0), max(hi - first - len(values), 0)
    start = lo - first + before
    return np.pad(values, (before, after), constant_values=np.nan)[start : start + hi - lo]


class CharacteristicTable:
    """A function of xi = vtheta + t and one of eta = vtheta - t on the
    lattice ``grid``, sampled once over the lattice indices a use reads:
    ``xi[k - xi_first]`` and ``eta[k - eta_first]`` at vtheta = lo + k step.
    At level m and node j, xi is index j + m and eta index j - m."""

    def __init__(self, grid: LightconeGrid, xi, eta, xi_first: int, eta_first: int):
        self.grid, self.xi, self.eta = grid, xi, eta
        self.xi_first, self.eta_first = xi_first, eta_first

    def at(self, level, node, count):
        """Both functions at ``count`` nodes from (level, node), as two
        contiguous views; level and node may be half-integers that sum to
        an integer, as at the rectangle leg midpoints."""
        i = int(round(node + level)) - self.xi_first
        k = int(round(node - level)) - self.eta_first
        if min(i, k) < 0 or i + count > len(self.xi) or k + count > len(self.eta):
            raise IndexError(f"lattice point (level {level}, node {node}) outside the tables")
        return self.xi[i : i + count], self.eta[k : k + count]

    def level_blocks(self, op, triangle: bool):
        """Yield ``(levels, block, where)`` per batch of whole levels:
        block[r, j] = op(xi-function, eta-function) at level levels[r] and
        node j, from two strided views of the samples into one buffer that
        the next block reuses.  ``where`` marks the nodes to read: with
        ``triangle`` those of ``grid.valid_bounds`` (an unsampled node
        reads NaN), else all (True)."""
        nodes, levels = len(self.grid.vtheta), self.grid.n_levels
        xi_rows = sliding_window_view(_samples(self.xi, self.xi_first, 0, nodes + levels), nodes)
        eta = _samples(self.eta, self.eta_first, -levels, nodes)
        eta_rows = sliding_window_view(eta, nodes)[::-1]  # row m starts at index -m
        block = None
        for batch in level_batches(range(levels + 1), nodes):
            rows = slice(batch.start, batch.stop)
            out = None if block is None else block[: len(batch)]
            block = op(xi_rows[rows], eta_rows[rows], out=out)
            where = True
            if triangle and not self.grid.periodic:
                m, j = np.arange(batch.start, batch.stop)[:, None], np.arange(nodes)
                where = (j >= m) & (j < nodes - m)
            yield batch, block, where


@dataclass(frozen=True)
class BlowUpReport:
    time: float
    vtheta: float
    component: int
    reason: str
    value: float

    def describe(self) -> str:
        return (
            f"blow-up detected at t={self.time:.6g}, vtheta={self.vtheta:.6g}, "
            f"component {self.component}: {self.reason} (value {self.value:.6g})"
        )


@dataclass
class LightconeSolution:
    """Monitor series and outcome of a march; the fields themselves went to
    the sink level by level."""

    null_res_p: np.ndarray  # per-level max relative residuals
    null_res_q: np.ndarray
    deriv_res: np.ndarray
    blowup: Optional[BlowUpReport] = None
    levels_computed: int = 0

    @property
    def max_null_residual(self) -> float:
        m = self.levels_computed
        return float(
            max(np.max(self.null_res_p[: m + 1]), np.max(self.null_res_q[: m + 1]))
        )

    @property
    def max_deriv_residual(self) -> float:
        return float(np.max(self.deriv_res[: self.levels_computed + 1]))


def initial_lightcone_data(
    data: StringInitialData, cmap: CoordinateMap, grid: LightconeGrid
):
    """Restrict the initial data to the lattice diagonal t = 0.

    The one-form values are carried as scalars through the coordinate
    change, so they are plain compositions with the inverse table.  On a
    line, nodes may leave the data window by rounding only (the profiles
    hold their edge values there); anything further raises WindowError.
    """
    theta_star = np.asarray(cmap.theta0_inverse(grid.vtheta), dtype=float)
    if data.period is None:
        lo, hi = data.theta[0], data.theta[-1]
        span = hi - lo
        if np.any(theta_star < lo - 1e-9 * span) or np.any(theta_star > hi + 1e-9 * span):
            raise WindowError("lattice nodes map outside the sampled data window")
    u0 = data.phi_at(theta_star)
    p0 = data.p0_at(theta_star)
    q0 = data.q0_at(theta_star)
    return u0, p0, q0


def corners(a: np.ndarray, periodic: bool):
    """Values of one diagonal at corners A (one node left) and B (one node
    right) of each node of the next diagonal, as two slices.  A ring
    diagonal is first padded with its two wrapped end nodes, so the next
    diagonal is as long; on a line it is two nodes shorter."""
    if periodic:
        a = np.concatenate([a[-1:], a, a[:1]])
    return a[:-2], a[2:]


def advance_diagonal(
    rhs: Callable,
    u: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    step: float,
    periodic: bool,
):
    """One characteristic-rectangle step for every target node of the next
    diagonal.

    Target node X at (t+h, s) takes its p-value along the rectangle leg from
    A = (t, s-h) and its q-value from B = (t, s+h); u is recovered from the
    trapezoid rule along both legs, averaged.  The corrector re-evaluates
    the right-hand side at the leg midpoints once.

    ``rhs(where, u, p, q)`` is the right-hand side shared by the p- and
    q-equations at the point ``where``, named in (levels, nodes) steps from
    the source node below X: (0, -1) and (0, 1) for the corners A and B,
    (1/2, -1/2) and (1/2, 1/2) for the leg midpoints.  For line domains the
    returned arrays are two nodes shorter.
    """
    (ua, ub), (pa, pb), (qa, qb) = (corners(a, periodic) for a in (u, p, q))
    h = step
    # predictor: corner evaluations
    p_star = pa + h * rhs((0.0, -1.0), ua, pa, qa)
    q_star = qb + h * rhs((0.0, 1.0), ub, pb, qb)
    u_star = 0.5 * (ua + ub) + 0.25 * h * (qa + q_star + pb + p_star)
    # corrector: midpoint evaluations on each leg
    p_new = pa + h * rhs(
        (0.5, -0.5), 0.5 * (ua + u_star), 0.5 * (pa + p_star), 0.5 * (qa + q_star)
    )
    q_new = qb + h * rhs(
        (0.5, 0.5), 0.5 * (ub + u_star), 0.5 * (pb + p_star), 0.5 * (qb + q_star)
    )
    u_new = 0.5 * (ua + ub) + 0.25 * h * (qa + q_new + pb + p_new)
    return u_new, p_new, q_new


def march(grid: LightconeGrid, init, rhs_at: Callable):
    """Yield ``(m, u, p, q)`` on the valid nodes of each level, from the
    initial diagonal ``init = (u0, p0, q0)`` up.

    Only the current diagonal is held: level m + 1 is computed when the
    consumer asks for it, and a consumer stops the march by leaving the
    loop.  ``rhs_at(m)`` gives the right-hand side of the step from level m
    to m + 1 (see ``advance_diagonal``); it is called once per step, in
    order, just before the step.
    """
    u, p, q = init
    yield 0, u, p, q
    for m in range(grid.n_levels):
        u, p, q = advance_diagonal(rhs_at(m), u, p, q, grid.step, grid.periodic)
        yield m + 1, u, p, q


def relative_null_residuals(model: MetricModel, u, p, q):
    """Per-node |g(p,p)| and |g(q,q)| scaled by the metric and field size."""
    (gp, gq), gscale = model.forms(u, ((p, p), (q, q)))
    denom_p = np.maximum(1.0, gscale * np.einsum("...a,...a->...", p, p))
    denom_q = np.maximum(1.0, gscale * np.einsum("...a,...a->...", q, q))
    return np.abs(gp) / denom_p, np.abs(gq) / denom_q


def _deriv_consistency(u, p, q, step, periodic):
    """Max relative mismatch between (q - p)/2 and the centered d/dvtheta of
    u along one diagonal."""
    if not periodic and u.shape[0] < 3:
        return 0.0
    target = 0.5 * (q - p)
    scale = max(1.0, float(np.max(np.abs(target))))
    left, right = corners(u, periodic)
    if not periodic:
        target = target[1:-1]
    diff = (right - left) / (2.0 * step) - target
    return float(np.max(np.abs(diff))) / scale


def solve(
    model: MetricModel,
    data: StringInitialData,
    cmap: CoordinateMap,
    grid: LightconeGrid,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    sink: Optional[Callable] = None,
) -> LightconeSolution:
    """March the lattice level by level, monitoring the null residuals and
    the one-form/derivative consistency on every diagonal, then passing it
    to ``sink(m, u, p, q)`` (valid nodes only; the blow-up level included).

    Field overflow or a null-residual breach stops the run with a structured
    blow-up report carried on the returned solution.  A derivative-
    consistency breach alone keeps marching: if values later overflow it was
    blow-up; if the run completes bounded it raises a consistency error.
    """
    levels = grid.n_levels
    null_p = np.zeros(levels + 1)
    null_q = np.zeros(levels + 1)
    deriv = np.zeros(levels + 1)
    pending: list = []

    def rhs(where, u, p, q):
        return -model.contract_pq(u, p, q)

    def inspect(level, uu, pp, qq):
        lo, _ = grid.valid_bounds(level)
        t_here = level * grid.step
        # the largest of |u|, |p|, |q| per entry; np.maximum keeps a NaN, and
        # a NaN fails the comparison, so one mask catches non-finite fields
        size = np.maximum(np.maximum(np.abs(uu), np.abs(pp)), np.abs(qq))
        bad = ~(size <= thresholds.field_ceiling)
        if np.any(bad):
            j, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
            val = float(size[j, c])
            return BlowUpReport(
                time=t_here,
                vtheta=float(grid.vtheta[lo + j]),
                component=int(c),
                reason="field overflow",
                value=val if np.isfinite(val) else np.inf,
            )
        rp, rq = relative_null_residuals(model, uu, pp, qq)
        null_p[level] = float(np.max(rp))
        null_q[level] = float(np.max(rq))
        deriv[level] = _deriv_consistency(uu, pp, qq, grid.step, grid.periodic)
        if max(null_p[level], null_q[level]) > thresholds.monitor_ceiling:
            j = int(np.argmax(np.maximum(rp, rq)))
            return BlowUpReport(
                time=t_here,
                vtheta=float(grid.vtheta[lo + j]),
                component=-1,
                reason="null residual breach",
                value=float(max(rp[j], rq[j])),
            )
        if deriv[level] > thresholds.monitor_ceiling and not pending:
            # Ambiguous on its own: the same breach precedes genuine blow-up
            # (error constants diverge with the fields).  Keep marching; if
            # values or the null monitor blow up later this was blow-up,
            # otherwise the run ends and it is a consistency failure.
            pending.append((t_here, deriv[level]))
        return None

    init = initial_lightcone_data(data, cmap, grid)
    blowup, computed = None, 0
    for computed, uu, pp, qq in march(grid, init, lambda m: rhs):
        blowup = inspect(computed, uu, pp, qq)
        if sink is not None:
            sink(computed, uu, pp, qq)
        if blowup is not None:
            break
    if blowup is None and pending:
        t_bad, value = pending[0]
        raise NumericalConsistencyError(
            f"one-form/derivative consistency breached at t={t_bad:.6g} "
            f"(residual {value:.3e}) and the run stayed bounded"
        )
    return LightconeSolution(
        null_res_p=null_p,
        null_res_q=null_q,
        deriv_res=deriv,
        blowup=blowup,
        levels_computed=computed,
    )
