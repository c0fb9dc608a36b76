"""Scenario-driven command line front end.

Commands
  check     the speed-ordering verdict and, for the plane-fronted models,
            the global-existence criterion with its sufficient-condition flags
  simulate  full pipeline to CSV snapshots plus a run manifest
  compare   cross-validate the staged/closed-form solution against the
            general solver over a refinement ladder
  speeds    emit the initial speed functionals and transported speed fields

Exit codes: 0 success, 1 parse or I/O error, 2 physicality violation
(data that are not timelike or are degenerate, or lam- >= lam+ at a
lattice point with t <= t_max), 3 existence criterion fails, 4 blow-up,
5 numerical-consistency error.  Every command decides the speed ordering
by one lattice scan, in ``_prepare``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import signal
import sys
import time
from dataclasses import asdict, replace
from itertools import chain
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
from .metrics import OriGeneral, OriQuadratic
from .scenario import (
    Scenario,
    _positive,
    build_domain,
    build_initial_arrays,
    build_model,
    build_theta_grid,
    check_size,
    load_scenario,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PHYSICALITY = 2
EXIT_EXISTENCE = 3
EXIT_BLOWUP = 4
EXIT_CONSISTENCY = 5


CSV_BLOCK_ROWS = 4096  # rows formatted by one ``%`` operation


def _format_once(col):
    """``%.17g`` text of a float column, one format per distinct bit pattern
    (so ``-0.0`` keeps its ``-0``)."""
    bits, inverse = np.unique(np.ascontiguousarray(col, float).view(np.uint64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)[inverse]


def _write_csv(path: Path, header, blocks):
    """Write blocks of rows as CSV, every float as ``%.17g`` (17 significant
    digits, so each float64 reads back exactly).

    ``blocks`` is an iterable of blocks, each a list of columns, one per
    header name: a float array or ``_format_once`` text.  Rows are gathered
    and formatted ``CSV_BLOCK_ROWS`` at a time, so memory above the blocks
    themselves stays O(rows per block)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for cols in blocks:
            row = ",".join("%s" if c.dtype == object else "%.17g" for c in cols) + "\n"
            for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
                part = [c[start : start + CSV_BLOCK_ROWS].tolist() for c in cols]
                fh.write(row * len(part[0]) % tuple(chain.from_iterable(zip(*part))))


def _write_manifest(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _speed_ordering_violation(cmap, grid):
    """The first (t, vartheta, lam-, lam+), level by level and node by node,
    where the transported speeds Lam+(xi) and Lam-(eta) lose their order,
    tested on one sample of each per lattice index; printed, or None.  The
    pair is evaluated at the lattice point, as solve_riemann_invariants."""
    nodes, levels = len(grid.vtheta), grid.n_levels
    x = grid.vtheta[0] + grid.step * np.arange(-levels, nodes + levels)
    speeds = lightcone.CharacteristicTable(
        grid, cmap.lam_plus_bar(x[levels:]), cmap.lam_minus_bar(x[: nodes + levels]), 0, -levels
    )
    for batch, crossed, _ in speeds.level_blocks(np.less_equal, False):
        if crossed.any():
            r, j = divmod(int(np.argmax(crossed)), nodes)
            t, v = float(grid.t_nodes[batch[r]]), float(grid.vtheta[j])
            print(f"speed ordering breaks at t={t:.6g}, vartheta={v:.6g}")
            return t, v, float(cmap.lam_minus_bar([v - t])[0]), float(cmap.lam_plus_bar([v + t])[0])
    return None


class _OrderingBreak(Exception):
    """The transported speeds lose their order on the lattice (exit 2); the
    line that says where is already printed."""


def _prepare(scenario: Scenario):
    """The model, initial data, straightening map and lattice of a scenario,
    after the one speed-ordering verdict: ``_OrderingBreak`` if lam- >= lam+
    at a lattice point with t <= t_max."""
    model = build_model(scenario)
    period = build_domain(scenario)
    theta = build_theta_grid(scenario)
    phi, psi = build_initial_arrays(scenario, theta, model.dim)
    data = worldsheet.build_initial_data(
        model, theta, phi, psi, period, thresholds=scenario.thresholds
    )
    cmap = transport.build_theta0(data)
    grid = lightcone.build_grid(cmap, scenario.step, scenario.t_max)
    if _speed_ordering_violation(cmap, grid) is not None:
        raise _OrderingBreak
    return model, data, cmap, grid


def _closed_form(model, data, cmap, scenario):
    a = getattr(model, "a", None)
    return ori.OriClosedForm.from_initial_data(
        data, cmap, coupling_constant=a, eps_log=scenario.thresholds.eps_log
    )


def cmd_check(scenario: Scenario, out_dir: Path) -> int:
    model, data, cmap, _ = _prepare(scenario)
    closed = isinstance(model, OriGeneral)
    if closed:
        cf = _closed_form(model, data, cmap, scenario)
        cf.scan_grid(scenario.t_max)  # refuses an over-limit scan before any output
    print(f"metric model       : {model.name}")
    print(f"nodes              : {len(data.theta)}")
    print(f"speed ordering     : PASS for t <= {scenario.t_max:.6g}")
    if not closed:
        print("existence criterion: not applicable (flat model)")
        return EXIT_OK
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


def _log_argument_blocks(cf, t_nodes, vtheta):
    """(t, vartheta, log argument) columns level by level, evaluated
    pointwise in level batches; t and vartheta as text."""
    v_text = _format_once(vtheta)
    for levels in lightcone.level_batches(t_nodes, len(vtheta)):
        log_arg = cf.log_argument(np.repeat(levels, len(vtheta)), np.tile(vtheta, len(levels)))
        yield [np.repeat(_format_once(levels), len(vtheta)), np.tile(v_text, len(levels)), log_arg]


def _snapshot_name(m):
    return f"snapshot_{m:05d}.csv"


def _snapshot_writer(model, grid, cmap, out_dir: Path):
    """``write(m, u, p, q)`` writes level m, with its theta and null
    residuals, as a snapshot CSV.  The vartheta row is formatted once, and
    each level writes its valid slice of it."""
    header = (
        ["t", "vartheta", "theta"]
        + [f"{f}{c}" for f in "upq" for c in range(model.dim)]
        + ["null_residual_p", "null_residual_q"]
    )
    v_text = _format_once(grid.vtheta)

    def write(m, uu, pp, qq):
        lo, hi = grid.valid_bounds(m)
        rp, rq = lightcone.relative_null_residuals(model, uu, pp, qq)
        t_text = np.repeat(_format_once([m * grid.step]), hi - lo)
        theta = transport.build_inverse_map(cmap, grid.t_nodes[m : m + 1], grid.vtheta[lo:hi]).theta
        columns = [t_text, v_text[lo:hi], theta[0], *uu.T, *pp.T, *qq.T, rp, rq]
        _write_csv(out_dir / _snapshot_name(m), header, [columns])

    return write


class _SnapshotProcess:
    """A forked process that runs ``write(m, u, p, q)`` on the levels handed
    to ``put``, in order, while the caller marches on.

    ``put`` sends the level over a pipe, whose own buffer bounds what waits.
    The writer answers once: with the first exception ``write`` raised, as
    soon as it is raised (later levels are read and not written), or with
    None after the end mark.  ``put`` raises an early answer instead of
    sending; leaving the ``with`` block sends the end mark, raises the
    answer and ends the process on every exit path.  An interrupt, which
    may cut a level in half, closes the pipe instead of sending the mark.

    The process is forked so that it inherits ``write`` with the model,
    grid and map it closes over.  The caller must not be running threads of
    its own."""

    def __init__(self, write):
        ctx = multiprocessing.get_context("fork")
        self.pipe, pipe = ctx.Pipe()
        self.process = ctx.Process(target=self._serve, args=(write, pipe))
        self.process.start()
        pipe.close()
        self.answered = False

    def _serve(self, write, pipe):
        self.pipe.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller ends the writer
        answer = None
        with contextlib.suppress(EOFError, OSError):  # the caller closed the pipe midway
            for level in iter(pipe.recv, None):
                try:
                    if answer is None:
                        write(*level)
                except Exception as exc:  # raised again in the caller
                    pipe.send(answer := exc)
            if answer is None:
                pipe.send(None)

    def _answer(self):
        self.answered = True
        try:
            answer = self.pipe.recv()
        except (EOFError, ConnectionError):  # the writer died without answering
            self.process.join()
            raise OSError(f"snapshot writer process ended with code {self.process.exitcode}") from None
        if answer is not None:
            raise answer

    def put(self, m, u, p, q):
        if self.pipe.poll():  # the writer failed or died
            self._answer()
        self.pipe.send((m, u, p, q))  # a ConnectionError here is a writer that died: see __exit__

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        try:
            if exc_type is None or issubclass(exc_type, Exception):
                with contextlib.suppress(ConnectionError):  # a writer that died reads no more
                    self.pipe.send(None)
                if not self.answered:
                    self._answer()
        finally:
            self.pipe.close()
            self.process.join()
            self.process.close()


def _speed_blocks(cmap, grid):
    """(t, vartheta, theta, lam-, lam+) columns in level batches, all but
    theta as text."""
    vtheta, v_text = grid.vtheta, _format_once(grid.vtheta)
    for levels in lightcone.level_batches(grid.t_nodes, len(vtheta)):
        fields = transport.solve_riemann_invariants(cmap, levels, vtheta)
        theta = transport.build_inverse_map(cmap, levels, vtheta).theta.ravel()
        yield [np.repeat(_format_once(levels), len(vtheta)), np.tile(v_text, len(levels)), theta,
               _format_once(fields.lam_minus.ravel()), _format_once(fields.lam_plus.ravel())]


def cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    started = time.perf_counter()
    model, data, cmap, grid = _prepare(scenario)
    stride = scenario.snapshot_stride
    snapshots, last = [], []
    # the writer forks here, with the model, grid and map the levels need
    with _SnapshotProcess(_snapshot_writer(model, grid, cmap, out_dir)) as writer:

        def sink(m, *fields):
            last[:] = [m, *fields]
            if m % stride == 0:
                writer.put(m, *fields)
                snapshots.append(_snapshot_name(m))

        sol = lightcone.solve(model, data, cmap, grid, thresholds=scenario.thresholds, sink=sink)
        if sol.levels_computed % stride:
            writer.put(*last)
            snapshots.append(_snapshot_name(last[0]))
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
    if not isinstance(build_model(scenario), OriQuadratic):
        print("compare requires the quadratic plane-fronted model")
        return EXIT_PARSE
    steps = scenario.compare_steps
    errors = {c: [] for c in range(4)}
    for h in steps:
        sub = replace(scenario, grid={"h": h, "t_max": scenario.t_max})
        model, data, cmap, grid = _prepare(sub)
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
    if len(steps) == 1:
        print("observed orders: none, one rung has no refinement to compare with")
    else:
        print("observed orders between consecutive refinements:")
        for c in range(4):
            orders = [
                "exact" if fine == 0.0 else f"{float(np.log2(coarse / fine)):.2f}"
                for coarse, fine in zip(errors[c], errors[c][1:])
            ]
            print(f"  u{c}: {', '.join(orders)}")
    if out_dir is not None:
        columns = [np.array(steps)] + [np.array(errors[c]) for c in range(4)]
        _write_csv(out_dir / "compare.csv", ["h", "err_u0", "err_u1", "err_u2", "err_u3"], [columns])
    return EXIT_OK


def cmd_speeds(scenario: Scenario, out_dir: Path) -> int:
    _, data, cmap, grid = _prepare(scenario)
    _write_csv(
        out_dir / "initial_speeds.csv",
        ["theta", "lambda_minus", "lambda_plus", "lagrangian_density"],
        [[data.theta, data.lam_minus, data.lam_plus, data.lagrangian_density]],
    )
    header = ["t", "vartheta", "theta", "lambda_minus", "lambda_plus"]
    _write_csv(out_dir / "speeds_field.csv", header, _speed_blocks(cmap, grid))
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse gives a usage error code 2, a physicality code here
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        scenario = load_scenario(args.scenario)
        if args.grid_override is not None:
            scenario.grid["h"] = _positive(args.grid_override, "--grid-override", False)
        if args.tmax is not None:
            scenario.grid["t_max"] = _positive(args.tmax, "--tmax", False)
        check_size(scenario)
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
    except _OrderingBreak:
        return EXIT_PHYSICALITY
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
