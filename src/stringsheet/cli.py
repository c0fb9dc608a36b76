"""Scenario-driven command line front end.

Commands
  check     physicality checks and, for the plane-fronted models, the
            global-existence criterion with its sufficient-condition flags
  simulate  full pipeline to CSV snapshots plus a run manifest
  compare   cross-validate the staged/closed-form solution against the
            general solver over a refinement ladder
  speeds    emit the initial speed functionals and transported speed fields

Exit codes: 0 success, 1 parse or I/O error, 2 physicality violation,
3 existence criterion fails, 4 blow-up, 5 numerical-consistency error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import lightcone, ori, transport, worldsheet
from .errors import (
    CausalityError,
    ConfigError,
    DegeneracyError,
    DomainTruncationError,
    NumericalConsistencyError,
    StringSheetError,
)
from .metrics import OriGeneral
from .scenario import (
    Scenario,
    build_domain,
    build_initial_arrays,
    build_model,
    build_theta_grid,
    load_scenario,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PHYSICALITY = 2
EXIT_EXISTENCE = 3
EXIT_BLOWUP = 4
EXIT_CONSISTENCY = 5


CSV_BLOCK_ROWS = 4096  # rows formatted by one ``%`` operation
LEVEL_BATCH = 1 << 16  # lattice points per batch of whole levels


def _write_csv(path: Path, header, table):
    """Write a float table as CSV, every value as ``%.17g`` (17 significant
    digits, so each float64 reads back exactly).

    ``table`` is a 2-D array or an iterable of 2-D blocks, one column per
    header name.  Each block is written ``CSV_BLOCK_ROWS`` rows at a time,
    so memory above the blocks themselves stays O(rows per block)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    blocks = [table] if isinstance(table, np.ndarray) else table
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for start in range(0, len(block), CSV_BLOCK_ROWS):
                part = block[start : start + CSV_BLOCK_ROWS]
                fh.write(row * len(part) % tuple(part.ravel().tolist()))


def _write_manifest(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare(scenario: Scenario):
    model = build_model(scenario)
    domain = build_domain(scenario)
    theta = build_theta_grid(scenario)
    phi, psi = build_initial_arrays(scenario, theta, model.dim)
    data = worldsheet.build_initial_data(
        model, theta, phi, psi, domain, thresholds=scenario.thresholds
    )
    return model, data


def _is_ori(model) -> bool:
    return isinstance(model, OriGeneral)


def _closed_form(model, data, cmap, scenario):
    a = getattr(model, "a", None)
    return ori.OriClosedForm.from_initial_data(
        data, cmap, coupling_constant=a, eps_log=scenario.thresholds.eps_log
    )


def cmd_check(scenario: Scenario, out_dir: Path) -> int:
    model, data = _prepare(scenario)
    report = worldsheet.check_physicality(data)
    print(f"metric model       : {model.name}")
    print(f"nodes              : {len(data.theta)}")
    print(f"pointwise ordering : {'PASS' if report.pointwise_ok else 'FAIL'}")
    print(f"global ordering    : {'PASS' if report.global_ok else 'FAIL'}")
    if report.note:
        print(f"note               : {report.note}")
    if not report.ok:
        if report.pointwise_violation:
            th, lm, lp = report.pointwise_violation
            print(f"first pointwise violation: theta={th:.6g} lam-={lm:.6g} lam+={lp:.6g}")
        if report.global_violation:
            t1, t2, lm, lp = report.global_violation
            print(
                f"first ordered-pair violation: theta1={t1:.6g} theta2={t2:.6g} "
                f"lam-(theta1)={lm:.6g} >= lam+(theta2)={lp:.6g}"
            )
        return EXIT_PHYSICALITY
    if not _is_ori(model):
        print("existence criterion: not applicable (flat model)")
        return EXIT_OK
    cmap = transport.build_theta0(data)
    cf = _closed_form(model, data, cmap, scenario)
    verdict = cf.existence_check(scenario.t_max)
    flags = cf.corollary_flags(scenario.thresholds.l1_threshold)
    print(f"existence criterion: {verdict.describe()}")
    for name, value in asdict(flags).items():
        print(f"  flag {name:<18}: {value}")
    if out_dir is not None:
        t_nodes = scenario.step * np.arange(np.floor(scenario.t_max / scenario.step + 1e-9) + 1)
        _write_csv(
            out_dir / "log_argument.csv",
            ["t", "vartheta", "log_argument"],
            _log_argument_blocks(cf, t_nodes, cmap.vtheta_nodes),
        )
    if not verdict.passed:
        print(f"blow-up time estimate t* = {verdict.t_star:.6f}")
        return EXIT_EXISTENCE
    return EXIT_OK


def _level_batches(t_nodes, nodes):
    """Consecutive slices of ``t_nodes``, each of whole levels of about
    ``LEVEL_BATCH`` points at ``nodes`` points per level (one level at
    least), so a lattice-wide field is never held whole."""
    per_batch = max(1, LEVEL_BATCH // nodes)
    for start in range(0, len(t_nodes), per_batch):
        yield t_nodes[start : start + per_batch]


def _log_argument_blocks(cf, t_nodes, vtheta):
    """(t, vartheta, log argument) rows level by level, evaluated pointwise
    in level batches."""
    for levels in _level_batches(t_nodes, len(vtheta)):
        tt = np.repeat(levels, len(vtheta))
        vv = np.tile(vtheta, len(levels))
        yield np.column_stack([tt, vv, cf.log_argument(tt, vv)])


def _snapshot_writer(model, grid, cmap, out_dir: Path):
    """``write(m, u, p, q)`` writes level m, with its theta, as a snapshot
    CSV and returns its file name."""
    header = (
        ["t", "vartheta", "theta"]
        + [f"{f}{c}" for f in "upq" for c in range(model.dim)]
        + ["null_residual_p", "null_residual_q"]
    )

    def write(m, uu, pp, qq):
        lo, hi = grid.valid_bounds(m)
        rp, rq = lightcone.relative_null_residuals(model, uu, pp, qq)
        t_here = np.full(hi - lo, m * grid.step)
        theta = transport.build_inverse_map(cmap, grid.t_nodes[m : m + 1], grid.vtheta[lo:hi]).theta
        columns = [t_here, grid.vtheta[lo:hi], theta[0], uu, pp, qq, rp, rq]
        name = out_dir / f"snapshot_{m:05d}.csv"
        _write_csv(name, header, np.column_stack(columns))
        return name.name

    return write


def _speed_ordering_violation(cmap, grid):
    """The first (t, vartheta, lam-, lam+) where the transported speeds lose
    their order, printed, or None; checked in level batches."""
    for levels in _level_batches(grid.t_nodes, len(grid.vtheta)):
        fields = transport.solve_riemann_invariants(cmap, levels, grid.vtheta)
        if not fields.ordering_ok:
            t, v, _, _ = fields.violation
            print(f"speed ordering breaks at t={t:.6g}, vartheta={v:.6g}")
            return fields.violation
    return None


def _speed_blocks(cmap, grid):
    """(t, vartheta, theta, lam-, lam+) rows in level batches."""
    vtheta = grid.vtheta
    for levels in _level_batches(grid.t_nodes, len(vtheta)):
        fields = transport.solve_riemann_invariants(cmap, levels, vtheta)
        mesh = transport.build_inverse_map(cmap, levels, vtheta)
        yield np.column_stack(
            [np.repeat(levels, len(vtheta)), np.tile(vtheta, len(levels)),
             mesh.theta.ravel(), fields.lam_minus.ravel(), fields.lam_plus.ravel()]
        )


def cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    started = time.perf_counter()
    model, data = _prepare(scenario)
    report = worldsheet.check_physicality(data)
    if not report.ok:
        print("physicality violation; run `check` for details")
        return EXIT_PHYSICALITY
    cmap = transport.build_theta0(data)
    grid = lightcone.build_grid(cmap, scenario.step, scenario.t_max)
    if _speed_ordering_violation(cmap, grid) is not None:
        return EXIT_PHYSICALITY
    write = _snapshot_writer(model, grid, cmap, out_dir)
    stride = max(1, scenario.snapshot_stride)
    snapshots, last = [], []

    def sink(m, *fields):
        last[:] = [m, *fields]
        if m % stride == 0:
            snapshots.append(write(m, *fields))

    sol = lightcone.solve(model, data, cmap, grid, thresholds=scenario.thresholds, sink=sink)
    if sol.levels_computed % stride:
        snapshots.append(write(*last))
    manifest = {
        "command": "simulate",
        "scenario": scenario.raw,
        "grid": {
            "step": grid.step,
            "t_max": grid.t_max,
            "nodes": len(grid.vtheta),
            "levels": grid.n_levels,
            "levels_computed": sol.levels_computed,
            "periodic": grid.periodic,
        },
        "thresholds": asdict(scenario.thresholds),
        "monitors": {
            "max_null_residual": sol.max_null_residual,
            "max_derivative_residual": sol.max_deriv_residual,
        },
        "blowup": asdict(sol.blowup) if sol.blowup else None,
        "snapshots": snapshots,
        "wall_seconds": time.perf_counter() - started,
    }
    _write_manifest(out_dir / "run_manifest.json", manifest)
    print(f"wrote {len(snapshots)} snapshots to {out_dir}")
    print(f"max null residual {sol.max_null_residual:.3e}, "
          f"max derivative residual {sol.max_deriv_residual:.3e}")
    if sol.blowup is not None:
        print(sol.blowup.describe())
        return EXIT_BLOWUP
    return EXIT_OK


def cmd_compare(scenario: Scenario, out_dir: Path) -> int:
    model, _ = _prepare(scenario)
    if not _is_ori(model) or getattr(model, "a", None) is None:
        print("compare requires the quadratic plane-fronted model")
        return EXIT_PARSE
    levels = int(scenario.raw.get("compare", {}).get("levels", 3))
    steps = [scenario.step * 2.0**k for k in reversed(range(levels))]
    errors = {c: [] for c in range(4)}
    for h in steps:
        sub = replace(scenario, grid={"h": h, "t_max": scenario.t_max})
        model, data = _prepare(sub)
        cmap = transport.build_theta0(data)
        grid = lightcone.build_grid(cmap, h, sub.t_max)
        staged = ori.staged_solution(_closed_form(model, data, cmap, sub), data, cmap, grid)
        worst = np.full(4, np.nan)  # fmax skips NaN, like nanmax
        staged_error = []

        def sink(m, u, p, q):
            # the staged march follows the general one level by level; a
            # closed-form domain error counts only if the general solve
            # ends without a blow-up of its own
            if staged_error:
                return
            try:
                _, u_staged = next(staged)
            except DomainTruncationError as exc:
                staged_error.append(exc)
                return
            np.fmax(worst, np.fmax.reduce(np.abs(u - u_staged), axis=0), out=worst)

        sol = lightcone.solve(model, data, cmap, grid, thresholds=sub.thresholds, sink=sink)
        if sol.blowup is not None:
            print(sol.blowup.describe())
            return EXIT_BLOWUP
        if staged_error:
            raise staged_error[0]
        for c in range(4):
            errors[c].append(float(worst[c]))
    print(f"{'h':>12} " + " ".join(f"{'u' + str(c):>12}" for c in range(4)))
    for k, h in enumerate(steps):
        print(f"{h:12.6f} " + " ".join(f"{errors[c][k]:12.4e}" for c in range(4)))
    print("observed orders between consecutive refinements:")
    for c in range(4):
        orders = [
            float(np.log2(errors[c][k] / errors[c][k + 1]))
            for k in range(len(steps) - 1)
            if errors[c][k + 1] > 0.0
        ]
        txt = ", ".join(f"{o:.2f}" for o in orders) if orders else "exact"
        print(f"  u{c}: {txt}")
    if out_dir is not None:
        table = np.column_stack([steps] + [errors[c] for c in range(4)])
        _write_csv(out_dir / "compare.csv", ["h", "err_u0", "err_u1", "err_u2", "err_u3"], table)
    return EXIT_OK


def cmd_speeds(scenario: Scenario, out_dir: Path) -> int:
    _, data = _prepare(scenario)
    _write_csv(
        out_dir / "initial_speeds.csv",
        ["theta", "lambda_minus", "lambda_plus", "lagrangian_density"],
        np.column_stack([data.theta, data.lam_minus, data.lam_plus, data.lagrangian_density]),
    )
    cmap = transport.build_theta0(data)
    grid = lightcone.build_grid(cmap, scenario.step, scenario.t_max)
    if _speed_ordering_violation(cmap, grid) is not None:
        return EXIT_PHYSICALITY
    _write_csv(
        out_dir / "speeds_field.csv",
        ["t", "vartheta", "theta", "lambda_minus", "lambda_plus"],
        _speed_blocks(cmap, grid),
    )
    print(f"wrote speed tables to {out_dir}")
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "speeds": cmd_speeds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stringsheet",
        description="Relativistic string worldsheets on characteristic lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("scenario", type=Path, help="path to a scenario JSON file")
        p.add_argument(
            "--grid-override",
            type=float,
            default=None,
            metavar="H",
            help="replace the scenario grid step",
        )
        p.add_argument("--tmax", type=float, default=None, help="replace t_max")
        p.add_argument("--out", type=Path, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.grid_override is not None:
            if args.grid_override <= 0.0:
                raise ConfigError("--grid-override must be positive")
            scenario.grid["h"] = float(args.grid_override)
        if args.tmax is not None:
            if args.tmax <= 0.0:
                raise ConfigError("--tmax must be positive")
            scenario.grid["t_max"] = float(args.tmax)
        if args.out is not None:
            out_dir = Path(args.out)
        elif args.command == "check":
            out_dir = None  # the log-argument CSV is opt-in for check
        else:
            out_dir = scenario.out_dir
        return COMMANDS[args.command](scenario, out_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CausalityError, DegeneracyError) as exc:
        print(f"physicality error: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except DomainTruncationError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except NumericalConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except StringSheetError as exc:  # fallback for unexpected package errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
