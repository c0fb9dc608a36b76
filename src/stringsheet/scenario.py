"""Scenario files: JSON configuration for the command-line pipelines.

A scenario names a metric model, an initial-data recipe (built-in expression
families per component, or a CSV of samples), a domain, grid and output
settings, and optional threshold overrides.  See the README for the full
schema with defaults and units.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import lightcone
from .config import DEFAULT_THRESHOLDS, Thresholds
from .errors import ConfigError
from .lightcone import LightconeGrid
from .metrics import MetricModel, Minkowski, OriGeneral, OriQuadratic

__all__ = [
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "build_model",
    "build_domain",
    "build_theta_grid",
    "build_initial_arrays",
    "check_size",
    "FAMILIES",
    "PROFILE_REGISTRY",
]


def _finite(value, name) -> float:
    """``value`` as a finite float, or a ConfigError naming ``name``: the one
    conversion of every numeric scenario value."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{name!r} must be a finite number, got {value!r}")
    return number


def _positive(value, name, or_zero: bool) -> float:
    """``value`` as a finite float above 0 (or at 0, with ``or_zero``), or a
    ConfigError naming ``name``."""
    number = _finite(value, name)
    if not (number > 0.0 or (or_zero and number == 0.0)):
        raise ConfigError(f"{name!r} must be {'at least 0' if or_zero else 'positive'}, got {value!r}")
    return number


def _whole(value, name, least: int) -> int:
    """``value`` as a whole number at or above ``least``, or a ConfigError
    naming ``name``: nothing is truncated or clamped."""
    number = _finite(value, name)
    if not (number.is_integer() and number >= least):
        raise ConfigError(f"{name!r} must be a whole number of at least {least}, got {value!r}")
    return int(number)


def _path(value, name) -> str:
    """``value`` as a path string, or a ConfigError naming ``name``."""
    if not isinstance(value, str):
        raise ConfigError(f"{name!r} must be a path string, got {value!r}")
    return value


def _numbers(spec, defaults):
    """The values of ``spec`` at the keys of ``defaults``, each read by
    ``_finite`` (its default where the key is absent)."""
    return [_finite(spec.get(key, default), key) for key, default in defaults.items()]


def _family_gaussian(theta, amplitude, center, width, offset):
    if width <= 0.0:
        raise ConfigError("gaussian width must be positive")
    return offset + amplitude * np.exp(-((theta - center) ** 2) / (2.0 * width**2))


# name -> (parameters with their defaults, the curve of theta and them)
FAMILIES = {
    "constant": ({"value": 0.0}, lambda theta, value: np.full_like(theta, value)),
    "sine": (
        {"amplitude": 0.0, "wavenumber": 1.0, "phase": 0.0, "offset": 0.0},
        lambda theta, amp, k, phase, offset: offset + amp * np.sin(k * theta + phase),
    ),
    "gaussian": ({"amplitude": 0.0, "center": 0.0, "width": 1.0, "offset": 0.0}, _family_gaussian),
    "linear": ({"slope": 1.0, "offset": 0.0}, lambda theta, slope, offset: offset + slope * theta),
}


def _profile_xy(c):
    return dict(
        f=lambda x, y, z: c * x * y,
        f_x=lambda x, y, z: c * y,
        f_y=lambda x, y, z: c * x,
        f_z=lambda x, y, z: np.zeros_like(np.asarray(x, dtype=float)),
    )


def _profile_linear(cx, cy, cz):
    return dict(
        f=lambda x, y, z: cx * x + cy * y + cz * z,
        f_x=lambda x, y, z: np.full_like(np.asarray(x, dtype=float), cx),
        f_y=lambda x, y, z: np.full_like(np.asarray(x, dtype=float), cy),
        f_z=lambda x, y, z: np.full_like(np.asarray(x, dtype=float), cz),
    )


# built-in wave profiles selectable from scenario files, harmonic for every
# parameter value (the test suite checks each)
PROFILE_REGISTRY = {
    "xy": (_profile_xy, ("c",)),
    "linear": (_profile_linear, ("cx", "cy", "cz")),
}


@dataclass
class Scenario:
    metric: dict
    domain: dict
    grid: dict
    initial_data: dict
    output: dict = field(default_factory=dict)
    thresholds: Thresholds = DEFAULT_THRESHOLDS
    base_dir: Path = Path(".")
    raw: dict = field(default_factory=dict)

    @property
    def step(self) -> float:
        return float(self.grid["h"])

    @property
    def t_max(self) -> float:
        return float(self.grid["t_max"])

    @property
    def out_dir(self) -> Path:
        # outputs land relative to the working directory, inputs relative to
        # the scenario file
        return Path(_path(self.output.get("directory", "out"), "directory"))

    @property
    def snapshot_stride(self) -> int:
        return _whole(self.output.get("snapshot_stride", 16), "snapshot_stride", 1)

    @property
    def compare_steps(self) -> list:
        """The steps of the ``compare`` ladder, one per rung, coarsest first:
        the step doubled ``levels - 1`` times, then each halving down to it."""
        levels = _whole(self.raw.get("compare", {}).get("levels", 3), "levels", 1)
        try:
            return [math.ldexp(self.step, k) for k in reversed(range(levels))]
        except OverflowError:
            raise ConfigError(
                f"'levels' = {levels} doubles grid 'h' = {self.step:g} past the largest float"
            ) from None


def scenario_from_dict(cfg: dict, base_dir: Path = Path(".")) -> Scenario:
    for key in ("metric", "domain", "grid", "initial_data"):
        if key not in cfg:
            raise ConfigError(f"scenario is missing required section {key!r}")
    for key in ("metric", "domain", "grid", "initial_data", "output", "compare", "thresholds"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"scenario section {key!r} must be a JSON object")
    grid = dict(cfg["grid"])
    if "h" not in grid:
        raise ConfigError("grid section requires a step 'h'")
    if "t_max" not in grid:
        raise ConfigError("grid section requires 't_max'")
    grid["h"], grid["t_max"] = (_positive(grid[key], key, False) for key in ("h", "t_max"))
    thresholds = DEFAULT_THRESHOLDS
    overrides = cfg.get("thresholds", {})
    if overrides:
        known = {k for k in Thresholds.__dataclass_fields__}
        bad = set(overrides) - known
        if bad:
            raise ConfigError(f"unknown threshold keys: {sorted(bad)}")
        # the ceilings must be above 0, the other thresholds at least 0
        ceilings = ("monitor_ceiling", "field_ceiling")
        thresholds = replace(
            thresholds, **{k: _positive(v, k, k not in ceilings) for k, v in overrides.items()}
        )
    scenario = Scenario(
        metric=dict(cfg["metric"]),
        domain=dict(cfg["domain"]),
        grid=grid,
        initial_data=dict(cfg["initial_data"]),
        output=dict(cfg.get("output", {})),
        thresholds=thresholds,
        base_dir=base_dir,
        raw=cfg,
    )
    # the output and compare values are read late; reject them at load
    scenario.out_dir, scenario.snapshot_stride, scenario.compare_steps
    check_size(scenario)
    return scenario


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("scenario file must contain a JSON object")
    return scenario_from_dict(cfg, base_dir=path.parent)


def build_model(scenario: Scenario) -> MetricModel:
    spec = scenario.metric
    tag = spec.get("model")
    if tag == "minkowski":
        return Minkowski(_whole(spec.get("spatial_dim", 3), "spatial_dim", 0))
    if tag == "ori_quadratic":
        if "a" not in spec:
            raise ConfigError("ori_quadratic requires parameter 'a'")
        return OriQuadratic(_finite(spec["a"], "a"))
    if tag == "ori_general":
        name = spec.get("profile")
        if name not in PROFILE_REGISTRY:
            raise ConfigError(
                f"unknown wave profile {name!r}; choose from {sorted(PROFILE_REGISTRY)}"
            )
        builder, params = PROFILE_REGISTRY[name]
        args = _numbers(spec, dict.fromkeys(params, 0.0))
        return OriGeneral(**builder(*args), name=f"ori_general({name})")
    raise ConfigError(f"unknown metric model {tag!r}")


def build_domain(scenario: Scenario) -> Optional[float]:
    """The period of a closed string (a ring), or None for a line: the one
    record of the choice, which every later layer reads."""
    spec = scenario.domain
    kind = spec.get("kind")
    if kind == "periodic":
        return _finite(spec.get("length", 2.0 * math.pi), "length")
    if kind == "line":
        window = spec.get("window")
        if (
            not isinstance(window, (list, tuple))
            or len(window) != 2
            or _finite(window[0], "window") >= _finite(window[1], "window")
        ):
            raise ConfigError("line domain requires 'window': [lo, hi] with lo < hi")
        return None
    raise ConfigError(f"unknown domain kind {kind!r}")


def _window(scenario: Scenario):
    """(first data node, span, period) of the domain."""
    period = build_domain(scenario)
    if period is None:
        lo, hi = map(float, scenario.domain["window"])
        return lo, hi - lo, None
    return _finite(scenario.domain.get("start", 0.0), "start"), period, period


def check_size(scenario: Scenario) -> None:
    """Reject a scenario that would lay out more than
    ``lightcone.MAX_LATTICE_POINTS`` points: about span / h + 1 data nodes
    times t_max / h + 1 levels, counted in floats before any array is
    allocated."""
    _, span, _ = _window(scenario)
    h, t_max = scenario.step, scenario.t_max
    nodes, levels = span / h + 1.0, t_max / h + 1.0
    if not nodes * levels <= lightcone.MAX_LATTICE_POINTS:
        raise ConfigError(
            f"grid 'h' = {h:g} and 't_max' = {t_max:g} lay out about {nodes:.3g} nodes "
            f"x {levels:.3g} levels, over the limit of {lightcone.MAX_LATTICE_POINTS:.0e} points"
        )


def build_theta_grid(scenario: Scenario) -> np.ndarray:
    """The data nodes, laid out as a lattice row (``LightconeGrid.row``)."""
    lo, span, period = _window(scenario)
    n, step = LightconeGrid.row(span, scenario.step, period is not None)
    return lo + step * np.arange(n)


def _arrays_from_families(theta: np.ndarray, spec_list, dim: int, label: str) -> np.ndarray:
    if not isinstance(spec_list, list) or len(spec_list) != dim:
        raise ConfigError(f"{label} must list {dim} component families")
    cols = []
    for k, spec in enumerate(spec_list):
        if not isinstance(spec, dict):
            raise ConfigError(f"{label}[{k}] must be a JSON object naming a family, got {spec!r}")
        fam = spec.get("family")
        if fam not in FAMILIES:
            raise ConfigError(
                f"{label}[{k}]: unknown family {fam!r}; choose from {sorted(FAMILIES)}"
            )
        defaults, curve = FAMILIES[fam]
        cols.append(curve(theta, *_numbers(spec, defaults)))
    return np.stack(cols, axis=1)


def _arrays_from_csv(path: Path, theta: np.ndarray, dim: int):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read samples file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"samples file {path} is empty")
    header = rows[0]
    expected = (
        ["theta"]
        + [f"phi{c}" for c in range(dim)]
        + [f"psi{c}" for c in range(dim)]
    )
    if header != expected:
        raise ConfigError(
            f"samples file must have columns {expected}, got {header}"
        )
    if any(len(row) != len(expected) for row in rows[1:]):
        raise ConfigError(f"samples file {path} has rows of the wrong length")
    body = np.array([[_finite(v, "samples") for v in row] for row in rows[1:]])
    if body.shape[0] != len(theta):
        raise ConfigError(
            f"samples file has {body.shape[0]} rows, grid has {len(theta)} nodes"
        )
    if np.max(np.abs(body[:, 0] - theta)) > 1e-9 * max(1.0, float(np.max(np.abs(theta)))):
        raise ConfigError("samples file theta column does not match the scenario grid")
    return body[:, 1 : dim + 1], body[:, dim + 1 :]


def build_initial_arrays(scenario: Scenario, theta: np.ndarray, dim: int):
    spec = scenario.initial_data
    if "csv" in spec:
        return _arrays_from_csv(scenario.base_dir / _path(spec["csv"], "csv"), theta, dim)
    if "phi" not in spec or "psi" not in spec:
        raise ConfigError("initial_data requires 'phi' and 'psi' family lists (or 'csv')")
    phi = _arrays_from_families(theta, spec["phi"], dim, "phi")
    psi = _arrays_from_families(theta, spec["psi"], dim, "psi")
    return phi, psi
