"""Output checks that stand apart from the program.

Every check takes the program's outputs (CLI text, CSV files, returned
objects) and compares them with an independent computation or a property
the output must have.  Each returns a list of problems; an empty list means
the check passed.  None of them reads a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import math
import re
import warnings

import numpy as np
from scipy.integrate import quad

# -- existence criterion ------------------------------------------------------

T_STAR_RE = re.compile(r"t\* = ([-+0-9.eE]+)")


def check_blowup_time(cli_text, expected, tol):
    """``check`` prints the bisected blow-up time; it must match ``expected``."""
    found = T_STAR_RE.findall(cli_text)
    if len(found) != 1:
        return [f"expected one t* line in the check output, found {len(found)}"]
    t_star = float(found[0])
    if abs(t_star - expected) > tol:
        return [f"t* = {t_star!r}, expected {expected} +- {tol}"]
    return []


def quad_log_argument(phi3, psi3, t, vtheta):
    """Independent evaluation of the closed-form log argument
    1/2 e^{-phi3(xi)/2} + 1/2 e^{-phi3(eta)/2} - 1/2 int_{eta/2}^{xi/2} psi3(2s) e^{-phi3(2s)/2} ds
    with xi = vtheta + t and eta = vtheta - t, by adaptive quadrature."""
    xi, eta = vtheta + t, vtheta - t
    integral, _ = quad(
        lambda s: psi3(2.0 * s) * math.exp(-0.5 * phi3(2.0 * s)),
        0.5 * eta,
        0.5 * xi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return 0.5 * math.exp(-0.5 * phi3(xi)) + 0.5 * math.exp(-0.5 * phi3(eta)) - 0.5 * integral


def check_log_argument(label, program_values, phi3, psi3, points, tol):
    """``program_values[k]`` is the program's log argument at ``points[k]``."""
    problems = []
    for value, (t, vth) in zip(program_values, points):
        ref = quad_log_argument(phi3, psi3, t, vth)
        if not abs(float(value) - ref) <= tol:
            problems.append(
                f"{label}: log argument at t={t:.6g}, vtheta={vth:.6g} is {float(value)!r}, "
                f"quadrature gives {ref!r}"
            )
    return problems


def check_blowup_bracket(label, phi3, psi3, t_star, vtheta_star, tol):
    """At the reported blow-up point the log argument must have reached zero."""
    ref = quad_log_argument(phi3, psi3, t_star, vtheta_star)
    if not abs(ref) <= tol:
        return [f"{label}: log argument at reported t*={t_star:.9g} is {ref:.3e}, not 0"]
    return []


def check_flag_soundness(label, any_flag, passed):
    """A true sufficient-condition flag implies that the scan passes."""
    if any_flag and not passed:
        return [f"{label}: a corollary flag is true but the existence scan failed"]
    return []


# -- CSV parsing ----------------------------------------------------------------


def read_csv_exact(path):
    """Header and values of a numeric CSV, parsed exactly to float64.

    Raises ValueError when a row has the wrong number of fields or a field
    is not a number."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        body = fh.read()
    ncols = len(header)
    if not body:
        return header, np.empty((0, ncols))
    if not body.endswith(b"\n"):
        raise ValueError(f"{path.name}: last row is not terminated")
    lines = body[:-1].split(b"\n")
    bad = [k for k, line in enumerate(lines) if line.count(b",") != ncols - 1]
    if bad:
        raise ValueError(f"{path.name}: row {bad[0] + 1} does not have {ncols} fields")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(body[:-1].replace(b"\n", b",").decode(), sep=",")
        except (DeprecationWarning, ValueError) as exc:
            raise ValueError(f"{path.name}: a field is not a number") from exc
    if values.size != len(lines) * ncols:
        raise ValueError(f"{path.name}: a field is not a number")
    return header, values.reshape(len(lines), ncols)


def check_round_trip(label, values, expected):
    """Parsed CSV values must be bitwise the float64 the program computed."""
    if values.shape != expected.shape:
        return [f"{label}: shape {values.shape}, expected {expected.shape}"]
    same = values == expected
    if not np.all(same):
        r, c = np.argwhere(~same)[0]
        return [
            f"{label}: row {r} column {c} reads {values[r, c]!r}, "
            f"the program computed {expected[r, c]!r}"
        ]
    return []


def check_row_count(label, values, levels, nodes):
    if values.shape[0] != levels * nodes:
        return [f"{label}: {values.shape[0]} rows, expected {levels} x {nodes} = {levels * nodes}"]
    return []


# -- speed fields -----------------------------------------------------------------


def check_speed_field(label, values, levels, nodes, tol):
    """Columns t, vartheta, theta, lambda_minus, lambda_plus on a periodic
    lattice stored level by level.  Both speeds are constant along the other
    family's unit-speed characteristics, so lambda-(t_m, s_j) equals the t=0
    value at s_{j-m} and lambda+(t_m, s_j) the t=0 value at s_{j+m}."""
    problems = check_row_count(label, values, levels, nodes)
    if problems:
        return problems
    lam_m = values[:, 3].reshape(levels, nodes)
    lam_p = values[:, 4].reshape(levels, nodes)
    bad = ~(lam_m < lam_p)
    if np.any(bad):
        m, j = np.argwhere(bad)[0]
        problems.append(f"{label}: lambda- >= lambda+ at level {m}, node {j}")
    m = np.arange(levels)[:, None]
    j = np.arange(nodes)[None, :]
    shifted_m = lam_m[0][(j - m) % nodes]
    shifted_p = lam_p[0][(j + m) % nodes]
    dev = max(float(np.max(np.abs(lam_m - shifted_m))), float(np.max(np.abs(lam_p - shifted_p))))
    if not dev <= tol:
        problems.append(f"{label}: speeds deviate {dev:.3e} from the shifted initial profiles")
    return problems


# -- lattice solver output ----------------------------------------------------------


def read_snapshot(path):
    """Rows of a snapshot CSV through the standard csv reader."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError(f"{path.name}: ragged rows")
    return header, np.array(body, dtype=float)


def ori_null_residual(a, u, v):
    """Relative |g(v, v)| for the plane-fronted metric with f = a (x^2 - y^2):
    g = dx^2 + dy^2 - 2 dz dt + (f - t) dz^2, scaled like the program's
    monitor by max(1, max|g_ab| |v|^2)."""
    g33 = a * (u[:, 1] ** 2 - u[:, 2] ** 2) - u[:, 0]
    gvv = v[:, 1] ** 2 + v[:, 2] ** 2 - 2.0 * v[:, 0] * v[:, 3] + g33 * v[:, 3] ** 2
    gscale = np.maximum(1.0, np.abs(g33))
    return np.abs(gvv) / np.maximum(1.0, gscale * np.sum(v * v, axis=1))


def check_snapshot(label, header, values, dim, nodes, a, null_tol):
    problems = []
    ncols = 3 + 3 * dim + 2
    if len(header) != ncols:
        problems.append(f"{label}: {len(header)} columns, expected {ncols}")
        return problems
    if values.shape[0] != nodes:
        problems.append(f"{label}: {values.shape[0]} rows, expected {nodes}")
    u = values[:, 3 : 3 + dim]
    p = values[:, 3 + dim : 3 + 2 * dim]
    q = values[:, 3 + 2 * dim : 3 + 3 * dim]
    worst = max(float(np.max(ori_null_residual(a, u, p))), float(np.max(ori_null_residual(a, u, q))))
    if not worst <= null_tol:
        problems.append(f"{label}: null residual {worst:.3e} exceeds {null_tol:g}")
    return problems


# -- convergence orders -------------------------------------------------------------


def observed_orders(errors):
    e = np.asarray(errors, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(e[:-1] / e[1:])


def check_orders(label, errors, expected, tol):
    """Errors at successive halvings of the step must fall at the expected
    order."""
    problems = []
    for k, order in enumerate(observed_orders(errors)):
        if not abs(order - expected) <= tol:
            problems.append(
                f"{label}: observed order {order:.3f} between refinements {k} and {k + 1}, "
                f"expected {expected} +- {tol}"
            )
    return problems
