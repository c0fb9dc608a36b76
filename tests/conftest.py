from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from oracles import StateVector, metric_tensor
from stringsheet import (
    Minkowski,
    OriGeneral,
    OriQuadratic,
    build_initial_data,
    solve,
    staged_solution,
)

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def observed_orders(errors):
    e = np.asarray(errors, dtype=float)
    return [float(np.log2(e[k] / e[k + 1])) for k in range(len(e) - 1)]


class LatticeRecorder:
    """A level sink that keeps every level: each field of ``(m, field, ...)``
    goes into a (levels+1, nodes, ...) lattice, NaN outside the valid
    triangle and above the last level received."""

    def __init__(self, grid):
        self.grid = grid
        self.lattices = None

    def __call__(self, m, *fields):
        if self.lattices is None:
            shape = (self.grid.n_levels + 1, len(self.grid.vtheta))
            self.lattices = [np.full(shape + np.shape(f)[1:], np.nan) for f in fields]
        lo, hi = self.grid.valid_bounds(m)
        for lattice, f in zip(self.lattices, fields):
            lattice[m, lo:hi] = f


def record_levels(levels, grid):
    """The lattices of a level generator, one per field it yields."""
    recorder = LatticeRecorder(grid)
    for level in levels:
        recorder(*level)
    return recorder.lattices


def recorded_fields(levels, grid):
    """u, p and q lattices of a staged level generator."""
    u, p, q = record_levels(levels, grid)
    return SimpleNamespace(u=u, p=p, q=q)


def recorded_solve(model, data, cmap, grid, **kwargs):
    """``solve`` with its u, p and q lattices recorded on the solution."""
    recorder = LatticeRecorder(grid)
    sol = solve(model, data, cmap, grid, sink=recorder, **kwargs)
    sol.u, sol.p, sol.q = recorder.lattices
    return sol


def recorded_staged(cf, data, cmap, grid):
    """The (levels+1, nodes, 4) lattice of ``staged_solution``."""
    (u,) = record_levels(staged_solution(cf, data, cmap, grid), grid)
    return u


def harmonic_xy_model(c=0.7):
    """Non-polynomial harmonic wave profile f = c e^x sin y."""
    return OriGeneral(
        f=lambda x, y, z: c * np.exp(x) * np.sin(y),
        f_x=lambda x, y, z: c * np.exp(x) * np.sin(y),
        f_y=lambda x, y, z: c * np.exp(x) * np.cos(y),
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
        name="ori_general(exp-sin)",
    )


def product_xy_model(c=1.0):
    """Harmonic profile f = c x y (cross term)."""
    return OriGeneral(
        f=lambda x, y, z: c * x * y,
        f_x=lambda x, y, z: c * y,
        f_y=lambda x, y, z: c * x,
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
        name="ori_general(xy)",
    )


def random_timelike_states(model, count, rng, speed_cap=5.0):
    """Batch-sample states with a timelike worldsheet plane and bounded
    characteristic speeds."""
    dim = model.dim
    out = []
    while len(out) < count:
        m = 8 * count
        u = rng.uniform(-1.5, 1.5, size=(m, dim))
        v = rng.uniform(-1.0, 1.0, size=(m, dim))
        w = rng.uniform(-1.0, 1.0, size=(m, dim))
        g = metric_tensor(model, u)
        g00 = np.einsum("nab,na,nb->n", g, v, v)
        g01 = np.einsum("nab,na,nb->n", g, v, w)
        g11 = np.einsum("nab,na,nb->n", g, w, w)
        disc = g01 * g01 - g00 * g11
        ok = (np.abs(g11) >= 0.2) & (disc >= 0.01)
        root = np.sqrt(np.where(ok, disc, 1.0))
        lam_a = (-g01 - root) / g11
        lam_b = (-g01 + root) / g11
        ok &= (np.abs(lam_a) <= speed_cap) & (np.abs(lam_b) <= speed_cap)
        for idx in np.nonzero(ok)[0]:
            out.append(StateVector(u=u[idx], v=v[idx], w=w[idx]))
            if len(out) == count:
                break
    return out


def circle_ori_data(nodes=256, a=0.5, radius=1.0, z_amp=0.05, z_vel=0.05):
    """Closed string on a unit circle in the wave plane with a small
    z-ripple and forward z-drift; globally physical and smooth."""
    model = OriQuadratic(a)
    th = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    n = len(th)
    phi = np.stack(
        [np.zeros(n), radius * np.sin(th), radius * np.cos(th), z_amp * np.cos(th)],
        axis=1,
    )
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, z_vel)], axis=1)
    data = build_initial_data(model, th, phi, psi, 2.0 * np.pi)
    return model, data


def offset_circle_ori_data(nodes=256, a=1.0, radius=0.3, y_offset=2.5, z_vel=-0.5):
    """Closed string displaced along y so the wave profile is deeply
    negative, which makes backward z-drift timelike."""
    model = OriQuadratic(a)
    th = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    n = len(th)
    phi = np.stack(
        [np.zeros(n), radius * np.sin(th), y_offset + radius * np.cos(th), np.zeros(n)],
        axis=1,
    )
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, z_vel)], axis=1)
    data = build_initial_data(model, th, phi, psi, 2.0 * np.pi)
    return model, data


def blowup_line_data(nodes=801, a=0.01, z_vel=0.5, window=(-10.0, 10.0)):
    """Straight string along x with forward z-velocity; the straightened
    velocity profile is the constant z_vel, so blow-up at t* = 2/z_vel."""
    model = OriQuadratic(a)
    th = np.linspace(window[0], window[1], nodes)
    n = len(th)
    phi = np.stack([np.zeros(n), th, np.zeros(n), np.zeros(n)], axis=1)
    psi = np.stack([np.ones(n), np.zeros(n), np.zeros(n), np.full(n, z_vel)], axis=1)
    data = build_initial_data(model, th, phi, psi, None)
    return model, data


def minkowski_circle_data(nodes=256, wave_amp=0.1, unit_speeds=False):
    """Flat-space closed string on a circle with a small transverse wave.

    With unit_speeds the time velocity is scaled so both characteristic
    speeds are exactly +-1 and the straightening map is the identity.
    """
    model = Minkowski(3)
    th = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    n = len(th)
    phi = np.stack(
        [np.zeros(n), np.cos(th), np.sin(th), wave_amp * np.sin(th)], axis=1
    )
    psi0 = (
        np.sqrt(1.0 + wave_amp**2 * np.cos(th) ** 2) if unit_speeds else np.ones(n)
    )
    psi = np.stack([psi0, np.zeros(n), np.zeros(n), np.zeros(n)], axis=1)
    data = build_initial_data(model, th, phi, psi, 2.0 * np.pi)
    return model, data


def ori_smooth_scenario_dict(h, t_max, stride=32):
    half_pi = float(np.pi / 2.0)
    return {
        "metric": {"model": "ori_quadratic", "a": 0.5},
        "domain": {"kind": "periodic", "length": float(2.0 * np.pi), "start": 0.0},
        "grid": {"h": h, "t_max": t_max},
        "initial_data": {
            "phi": [
                {"family": "constant", "value": 0.0},
                {"family": "sine", "amplitude": 1.0, "wavenumber": 1.0, "phase": 0.0},
                {"family": "sine", "amplitude": 1.0, "wavenumber": 1.0, "phase": half_pi},
                {"family": "sine", "amplitude": 0.05, "wavenumber": 1.0, "phase": half_pi},
            ],
            "psi": [
                {"family": "constant", "value": 1.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": 0.05},
            ],
        },
        "output": {"directory": "out", "snapshot_stride": stride},
    }


def blowup_scenario_dict(h=0.025, t_max=5.0, z_vel=0.5):
    return {
        "metric": {"model": "ori_quadratic", "a": 0.01},
        "domain": {"kind": "line", "window": [-10.0, 10.0]},
        "grid": {"h": h, "t_max": t_max},
        "initial_data": {
            "phi": [
                {"family": "constant", "value": 0.0},
                {"family": "linear", "slope": 1.0, "offset": 0.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": 0.0},
            ],
            "psi": [
                {"family": "constant", "value": 1.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": z_vel},
            ],
        },
        "output": {"directory": "out", "snapshot_stride": 20},
    }


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
