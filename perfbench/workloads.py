"""The four benchmark workloads: their inputs, one round of operations, and
the checks run on the last round's outputs after timing.

A round is a fixed list of operations.  CLI operations call
``stringsheet.cli.main`` in-process with ``--out`` inside the run's
temporary directory; library operations call the public ``ori`` API.  Each
operation has an expected outcome; one that ends otherwise counts as failed.
"""
from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import stringsheet as ss
from stringsheet import cli

import checks

# Lattices (levels + 1, nodes) of each input, fixed by the scenario files.
# ``check`` scans its own lattice (step = straightened period / data nodes);
# ``simulate``, ``speeds`` and ``compare`` march the characteristic lattice.
SCAN_LATTICE = {
    "ori_smooth": (66, 256),
    "ori_blowup": (192, 801),
    "ori_psi_negative": (312, 251),
    "ori_global": (11304, 628),
}
MARCH_LATTICE = {
    ("ori_smooth", 128): (102, 402),
    ("ori_smooth", 256): (204, 805),
    ("ori_smooth", 512): (408, 1610),
    ("ori_smooth", 1024): (815, 3219),
    ("ori_global", None): (5004, 278),
}
# rows of the log-argument CSV that ``check --out`` writes: one level per
# scenario step up to t_max, one row per data node
LOG_ARGUMENT_LATTICE = {"ori_smooth": (204, 256)}

# random existence batch: straightened profiles on [0, 2 pi)
BATCH_SIZE = 16
BATCH_NODES = 257
BATCH_T_MAX = 8.0
QUAD_TOL = 1e-5


def scenario_path(name):
    return f"scenarios/{name}.json"


def run_cli(argv):
    """Call the CLI in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def prepare(name, h=None):
    """Load a scenario and build its initial data (set-up work)."""
    scenario = ss.scenario.load_scenario(scenario_path(name))
    if h is not None:
        scenario.grid["h"] = h
    model = ss.scenario.build_model(scenario)
    domain = ss.scenario.build_domain(scenario)
    theta = ss.scenario.build_theta_grid(scenario)
    phi, psi = ss.scenario.build_initial_arrays(scenario, theta, model.dim)
    data = ss.worldsheet.build_initial_data(
        model, theta, phi, psi, domain, thresholds=scenario.thresholds
    )
    return scenario, model, data


@dataclass
class Op:
    """One operation of a round.  ``run`` returns (outcome, payload)."""

    label: str
    run: object
    expected: object = 0


@dataclass
class RoundResult:
    outcomes: dict = field(default_factory=dict)
    payloads: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)


def cli_op(label, argv, expected=0):
    return Op(label, lambda: run_cli(argv), expected)


# -- random periodic profiles ------------------------------------------------


@dataclass
class Profile:
    """phi3 = scale * sum_k (a_k sin ks + b_k cos ks); psi3 likewise plus a
    constant drift."""

    coef: np.ndarray
    scale: float
    shift: float

    def _series(self, s, row):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for k in range(self.coef.shape[1]):
            out = out + self.scale * (
                self.coef[row, k, 0] * np.sin((k + 1) * s)
                + self.coef[row, k, 1] * np.cos((k + 1) * s)
            )
        return out

    def phi3(self, s):
        return self._series(s, 0)

    def psi3(self, s):
        return self.shift + self._series(s, 1)

    def phi3_scalar(self, s):
        return float(self._series(s, 0))

    def psi3_scalar(self, s):
        return float(self.psi3(s))


def random_profiles(rng, count):
    """Four kinds in turn: velocity pushed nonpositive (sign flag true),
    small amplitudes (L1 flags likely), forward drift (blow-up, so the scan
    bisects), and unconstrained."""
    out = []
    for case in range(count):
        kind = case % 4
        n_modes = int(rng.integers(1, 4))
        coef = rng.uniform(-0.3, 0.3, size=(2, n_modes, 2))
        shift, scale = 0.0, 1.0
        if kind == 0:
            shift = -rng.uniform(0.05, 0.3) - float(np.sum(np.abs(coef[1])))
        elif kind == 1:
            scale = 0.03
        elif kind == 2:
            shift = rng.uniform(0.5, 1.0)
        out.append(Profile(coef=coef, scale=scale, shift=shift))
    return out


def batch_scan_lattice():
    step = 2.0 * math.pi / BATCH_NODES
    return (int(math.floor(BATCH_T_MAX / step)) + 2, BATCH_NODES)


def existence_op(profile):
    def run():
        cf = ss.ori.OriClosedForm.from_profiles(
            profile.phi3, profile.psi3, (0.0, 2.0 * math.pi), periodic=True, nodes=BATCH_NODES
        )
        flags = cf.corollary_flags()
        report = cf.existence_check(BATCH_T_MAX)
        return "ok", (cf, flags, report)

    return run


# -- workloads ------------------------------------------------------------------


class Workload:
    """Set-up happens in the constructor, which takes the seed."""

    name = ""

    def ops(self, out):
        raise NotImplementedError

    def points(self):
        raise NotImplementedError

    def check(self, result, out):
        raise NotImplementedError


def _cells(lattices):
    return sum(levels * nodes for levels, nodes in lattices)


class ExistenceScan(Workload):
    name = "existence_scan"
    scenarios = ("ori_smooth", "ori_blowup", "ori_psi_negative", "ori_global")
    expected = {"ori_smooth": 0, "ori_blowup": 3, "ori_psi_negative": 0, "ori_global": 0}

    def __init__(self, seed):
        self.prepared = {name: prepare(name) for name in self.scenarios}
        rng = np.random.default_rng(seed)
        self.profiles = random_profiles(rng, BATCH_SIZE)
        # sample points for the quadrature cross-check: one profile per kind
        self.samples = [
            (k, float(rng.uniform(0.0, BATCH_T_MAX)), float(rng.uniform(0.0, 2.0 * math.pi)))
            for k in range(4)
            for _ in range(3)
        ]

    def ops(self, out):
        ops = [
            cli_op(f"check {name}", ["check", scenario_path(name)], self.expected[name])
            for name in self.scenarios
        ]
        ops += [Op(f"profile {k}", existence_op(p), "ok") for k, p in enumerate(self.profiles)]
        return ops

    def points(self):
        return _cells(SCAN_LATTICE.values()) + BATCH_SIZE * _cells([batch_scan_lattice()])

    def check(self, result, out):
        problems = []
        if "check ori_blowup" in result.payloads:
            # straight string with forward z-velocity k = 0.5: t* = 2/k
            problems += checks.check_blowup_time(result.payloads["check ori_blowup"], 4.0, 1e-4)
        for k, profile in enumerate(self.profiles):
            label = f"profile {k}"
            if label not in result.payloads:
                continue
            cf, flags, report = result.payloads[label]
            problems += checks.check_flag_soundness(label, flags.any_true(), report.passed)
            if not report.passed:
                problems += checks.check_blowup_bracket(
                    label, profile.phi3_scalar, profile.psi3_scalar,
                    report.t_star, report.vtheta_star, QUAD_TOL,
                )
        for k, t, vth in self.samples:
            label = f"profile {k}"
            if label not in result.payloads:
                continue
            cf = result.payloads[label][0]
            value = cf.log_argument(np.array([t]), np.array([vth]))[0]
            profile = self.profiles[k]
            problems += checks.check_log_argument(
                label, [value], profile.phi3_scalar, profile.psi3_scalar, [(t, vth)], QUAD_TOL
            )
        return problems


class LatticeMarch(Workload):
    """``simulate scenarios/ori_global.json`` is left out: it exits 5 every
    time (derivative monitor, see the README) and would make a round 11-13 s
    long, so that a run timed a single round."""

    name = "lattice_march"
    runs = (("ori_smooth", 512), ("ori_smooth", 1024))

    def __init__(self, seed):
        self.prepared = {
            (name, k): prepare(name, 2.0 * math.pi / k) for name, k in self.runs
        }

    def ops(self, out):
        ops = []
        for name, k in self.runs:
            argv = ["simulate", scenario_path(name), "--out", out / f"{name}_{k}",
                    "--grid-override", repr(2.0 * math.pi / k)]
            ops.append(cli_op(f"simulate {name} {k}", argv))
        return ops

    def points(self):
        return _cells(MARCH_LATTICE[run] for run in self.runs)

    def check(self, result, out):
        problems = []
        errors = []
        for name, k in self.runs:
            label = f"simulate {name} {k}"
            if label not in result.payloads:
                continue
            run_dir = out / f"{name}_{k}"
            if not (run_dir / "run_manifest.json").is_file():
                problems.append(f"{label}: no run manifest")
            scenario, model, data = self.prepared[(name, k)]
            nodes = MARCH_LATTICE[(name, k)][1]
            snapshots = sorted(run_dir.glob("snapshot_*.csv"))
            if not snapshots:
                problems.append(f"{label}: no snapshots")
                continue
            cmap = ss.transport.build_theta0(data)
            cf = ss.ori.OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
            worst = 0.0
            for path in snapshots:
                try:
                    header, values = checks.read_snapshot(path)
                except ValueError as exc:
                    problems.append(f"{label}: {exc}")
                    continue
                problems += checks.check_snapshot(
                    f"{label} {path.name}", header, values, 4, nodes, model.a, 1e-6
                )
                if len(header) == 17:
                    u3 = cf.u3(values[:, 0], values[:, 1])
                    worst = max(worst, float(np.max(np.abs(values[:, 6] - u3))))
            errors.append(worst)
        if len(errors) == 2:
            problems += checks.check_orders("u3 against the closed form", errors, 2.0, 0.3)
        return problems


class StagedCompare(Workload):
    name = "staged_compare"

    def __init__(self, seed):
        self.prepared = {k: prepare("ori_smooth", 2.0 * math.pi / k) for k in (128, 256, 512)}

    def ops(self, out):
        argv = ["compare", scenario_path("ori_smooth"), "--grid-override", repr(2.0 * math.pi / 512),
                "--out", out / "compare"]
        return [cli_op("compare ori_smooth 512", argv)]

    def points(self):
        return _cells(MARCH_LATTICE[("ori_smooth", k)] for k in (128, 256, 512))

    def check(self, result, out):
        if "compare ori_smooth 512" not in result.payloads:
            return []
        try:
            header, values = checks.read_csv_exact(out / "compare" / "compare.csv")
        except (OSError, ValueError) as exc:
            return [f"compare.csv: {exc}"]
        problems = []
        steps = [2.0 * math.pi / k for k in (128, 256, 512)]
        if values.shape != (3, 5) or not np.allclose(values[:, 0], steps, rtol=1e-12):
            return [f"compare.csv: expected rungs {steps}, got {values[:, 0].tolist()}"]
        for c in range(4):
            problems += checks.check_orders(f"compare u{c}", values[:, 1 + c], 2.0, 0.3)
        return problems


class CsvOutput(Workload):
    name = "csv_output"

    def __init__(self, seed):
        self.prepared = {name: prepare(name) for name in ("ori_global", "ori_smooth")}

    def ops(self, out):
        return [
            cli_op("speeds ori_global", ["speeds", scenario_path("ori_global"), "--out", out / "speeds"]),
            cli_op("check ori_smooth --out", ["check", scenario_path("ori_smooth"), "--out", out / "check"]),
        ]

    def points(self):
        return _cells([MARCH_LATTICE[("ori_global", None)], SCAN_LATTICE["ori_smooth"]])

    def check(self, result, out):
        problems = []
        if "speeds ori_global" in result.payloads:
            problems += self._check_speeds(out / "speeds")
        if "check ori_smooth --out" in result.payloads:
            problems += self._check_log_argument(out / "check" / "log_argument.csv")
        return problems

    def _check_speeds(self, out):
        scenario, model, data = self.prepared["ori_global"]
        levels, nodes = MARCH_LATTICE[("ori_global", None)]
        problems = []
        try:
            _, initial = checks.read_csv_exact(out / "initial_speeds.csv")
            _, field_values = checks.read_csv_exact(out / "speeds_field.csv")
        except (OSError, ValueError) as exc:
            return [f"speeds: {exc}"]
        expected_initial = np.stack(
            [data.theta, data.lam_minus, data.lam_plus, data.lagrangian_density], axis=1
        )
        problems += checks.check_round_trip("initial_speeds.csv", initial, expected_initial)
        problems += checks.check_speed_field("speeds_field.csv", field_values, levels, nodes, 1e-12)
        if problems:
            return problems
        # recompute the transported fields in memory: the CSV must hold
        # exactly these float64 values
        cmap = ss.transport.build_theta0(data)
        grid = ss.lightcone.build_grid(cmap, scenario.step, scenario.t_max)
        fields = ss.transport.solve_riemann_invariants(cmap, grid.t_nodes, grid.vtheta)
        mesh = ss.transport.build_inverse_map(cmap, grid.t_nodes, grid.vtheta)
        t_col = np.repeat(grid.t_nodes, len(grid.vtheta))
        v_col = np.tile(grid.vtheta, len(grid.t_nodes))
        expected = np.stack(
            [t_col, v_col, mesh.theta.ravel(), fields.lam_minus.ravel(), fields.lam_plus.ravel()],
            axis=1,
        )
        problems += checks.check_round_trip("speeds_field.csv", field_values, expected)
        return problems

    def _check_log_argument(self, path):
        scenario, model, data = self.prepared["ori_smooth"]
        levels, nodes = LOG_ARGUMENT_LATTICE["ori_smooth"]
        try:
            _, values = checks.read_csv_exact(path)
        except (OSError, ValueError) as exc:
            return [f"log_argument.csv: {exc}"]
        problems = checks.check_row_count("log_argument.csv", values, levels, nodes)
        if problems:
            return problems
        if not np.all(values[:, 2] > scenario.thresholds.eps_log):
            problems.append("log_argument.csv: nonpositive log argument in a passing scenario")
        cmap = ss.transport.build_theta0(data)
        cf = ss.ori.OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
        t_nodes = scenario.step * np.arange(levels)
        expected = np.stack(
            [
                np.repeat(t_nodes, nodes),
                np.tile(cmap.vtheta_nodes, levels),
                np.concatenate(
                    [cf.log_argument(np.full_like(cmap.vtheta_nodes, t), cmap.vtheta_nodes) for t in t_nodes]
                ),
            ],
            axis=1,
        )
        problems += checks.check_round_trip("log_argument.csv", values, expected)
        return problems


WORKLOADS = {w.name: w for w in (ExistenceScan, LatticeMarch, StagedCompare, CsvOutput)}


def run_round(ops):
    """Run every operation once; exceptions count as failures."""
    result = RoundResult()
    for op in ops:
        try:
            outcome, payload = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            outcome, payload = f"{type(exc).__name__}: {exc}", None
        result.outcomes[op.label] = outcome
        if outcome == op.expected:
            result.payloads[op.label] = payload
        else:
            result.failed.append(op.label)
    return result

