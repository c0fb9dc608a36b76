"""Relativistic string worldsheets on characteristic lattices.

Simulates the motion of a one-dimensional extended object in a curved
Lorentzian space-time: characteristic speeds and null data of sampled
initial curves, exact transport of the speeds in a straightening
coordinate, a second-order characteristic-rectangle solver for the
light-cone form of the equations of motion, and closed-form machinery
(solution, global-existence criterion, blow-up time) for the plane-fronted
vacuum family.
"""

from .config import DEFAULT_THRESHOLDS, Thresholds
from .errors import (
    CausalityError,
    ConfigError,
    DegeneracyError,
    DimensionMismatch,
    DomainTruncationError,
    NumericalConsistencyError,
    StringSheetError,
    WindowError,
)
from .lightcone import (
    BlowUpReport,
    LightconeGrid,
    LightconeSolution,
    build_grid,
    initial_lightcone_data,
    solve,
)
from .metrics import Minkowski, OriGeneral, OriQuadratic
from .ori import (
    CorollaryFlags,
    ExistenceReport,
    OriClosedForm,
    solve_plane_components,
    solve_time_component,
    staged_solution,
)
from .transport import (
    CoordinateMap,
    build_inverse_map,
    build_theta0,
    solve_riemann_invariants,
)
from .worldsheet import StringInitialData, build_initial_data, check_physicality

__version__ = "0.1.0"
