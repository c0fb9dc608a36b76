"""Numerical thresholds used across the solvers.

All tolerances live in one frozen dataclass so a scenario file can override
them in a single place and runs stay self-describing.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Thresholds:
    # Separates timelike from degenerate states, relative to the squared
    # scale of the induced-metric components.
    eps_timelike: float = 1e-10
    # Reject states whose g11 would make the characteristic speeds blow up.
    eps_g11: float = 1e-12
    # Log argument at or below this counts as blow-up of the closed form.
    eps_log: float = 1e-12
    # Default threshold for the "small L1 norm" sufficient conditions.
    l1_threshold: float = 0.1
    # Hard ceiling for the per-diagonal solver monitors.
    monitor_ceiling: float = 1e-3
    # Any field component beyond this magnitude is treated as blown up.
    field_ceiling: float = 1e8


DEFAULT_THRESHOLDS = Thresholds()
