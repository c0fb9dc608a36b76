import io
import json
import math
import multiprocessing
import os
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import golden
from conftest import (
    blowup_scenario_dict,
    ori_smooth_scenario_dict,
    recorded_solve,
    recorded_staged,
)
from oracles import map_from_profiles, whole_lattice_ordering_violation
from stringsheet import cli, lightcone, ori, scenario, transport, worldsheet
from stringsheet.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(args, tmp_path):
    return main([a if isinstance(a, str) else str(a) for a in args])


# ---------------------------------------------------------------------------
# parsing and exit codes
# ---------------------------------------------------------------------------


def test_missing_file_exits_1(tmp_path):
    assert main(["check", str(tmp_path / "nope.json")]) == 1


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 1


def test_missing_sections_exit_1(tmp_path):
    path = write_scenario(tmp_path, {"metric": {"model": "minkowski"}})
    assert main(["check", str(path)]) == 1


def test_unknown_family_exits_1(tmp_path):
    cfg = ori_smooth_scenario_dict(h=0.1, t_max=0.5)
    cfg["initial_data"]["phi"][1]["family"] = "sawtooth"
    path = write_scenario(tmp_path, cfg)
    assert main(["check", str(path)]) == 1


def shipped_dict(name):
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def set_at(cfg, path, value):
    """``cfg`` with the entry at ``path`` (keys and list indices) set to
    ``value``, sections created on the way."""
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return cfg


def assert_one_error_line(code, captured, name):
    """Exit 1 with one ``error:`` line on stderr naming ``name``, nothing on
    stdout."""
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and repr(name) in lines[0], lines


MALFORMED_SMOOTH = {
    "amplitude": (("initial_data", "phi", 1, "amplitude"), "big"),
    "amplitude-nan": (("initial_data", "phi", 3, "amplitude"), math.nan),
    "h": (("grid", "h"), "x"),
    "a": (("metric", "a"), "x"),
    "snapshot_stride": (("output", "snapshot_stride"), "x"),
    "levels": (("compare", "levels"), "three"),
    # whole numbers are neither truncated nor clamped: stride >= 1, levels >= 1
    "snapshot_stride-0": (("output", "snapshot_stride"), 0),
    "snapshot_stride-negative": (("output", "snapshot_stride"), -4),
    "snapshot_stride-fraction": (("output", "snapshot_stride"), 2.5),
    "levels-0": (("compare", "levels"), 0),
    "levels-fraction": (("compare", "levels"), 1.5),
    # the coarsest rung, h 2^(levels - 1), is not a float
    "levels-overflow": (("compare", "levels"), 1100),
    # thresholds: the tolerances at least 0, the ceilings above 0
    "eps_timelike-negative": (("thresholds", "eps_timelike"), -1e9),
    "eps_g11-negative": (("thresholds", "eps_g11"), -1e-12),
    "eps_log-negative": (("thresholds", "eps_log"), -1.0),
    "l1_threshold-negative": (("thresholds", "l1_threshold"), -0.1),
    "monitor_ceiling-0": (("thresholds", "monitor_ceiling"), 0.0),
    "monitor_ceiling-negative": (("thresholds", "monitor_ceiling"), -1e-3),
    "field_ceiling-0": (("thresholds", "field_ceiling"), 0),
    "field_ceiling-negative": (("thresholds", "field_ceiling"), -1e8),
    "h-0": (("grid", "h"), 0.0),
    "t_max-negative": (("grid", "t_max"), -1.0),
    # a family spec that is not an object; the error names phi[0], psi[2]
    "phi-spec": (("initial_data", "phi", 0), 1),
    "psi-spec": (("initial_data", "psi", 2), "sine"),
    # sizes numpy refuses to allocate: rejected at load, before any array
    "t_max-size": (("grid", "t_max"), 1e300),
    "h-size": (("grid", "h"), 1e-300),
    # path values: rejected at load, before they are joined to a directory
    "csv": (("initial_data", "csv"), 5),
    "directory": (("output", "directory"), 5),
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("case", list(MALFORMED_SMOOTH))
def test_malformed_values_exit_1_with_one_error_line(case, command, tmp_path, capsys):
    path, value = MALFORMED_SMOOTH[case]
    scenario_path = write_scenario(tmp_path, set_at(shipped_dict("ori_smooth"), path, value))
    code = main([command, str(scenario_path), "--out", str(tmp_path / "out")])
    assert_one_error_line(code, capsys.readouterr(), path[-1])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize(
    "flag, value, name",
    [("--tmax", "1e300", "t_max"), ("--grid-override", "1e-300", "h")]
    + [(flag, value, flag) for flag in ("--tmax", "--grid-override")
       for value in ("nan", "inf", "-inf", "0", "-1")],
)
def test_oversized_flags_exit_1_with_one_error_line(command, flag, value, name, tmp_path, capsys):
    # the flags replace the grid after load; the size limit applies to them,
    # and a value that is not a positive finite number names the flag.
    # "--tmax=-inf": argparse would read a separate "-inf" as an option
    out_dir = tmp_path / "out"
    path = SCENARIO_DIR / "ori_smooth.json"
    code = main([command, str(path), f"{flag}={value}", "--out", str(out_dir)])
    assert_one_error_line(code, capsys.readouterr(), name)
    assert not out_dir.exists()


def test_zero_thresholds_are_allowed(tmp_path):
    # a tolerance of 0 is a strict test, not a malformed value
    cfg = shipped_dict("ori_smooth")
    cfg["grid"]["t_max"] = 1.0
    cfg["thresholds"] = dict.fromkeys(["eps_timelike", "eps_g11", "eps_log", "l1_threshold"], 0)
    assert main(["check", str(write_scenario(tmp_path, cfg))]) == 0


def test_size_limit_is_far_above_the_largest_shipped_lattice():
    # check ori_global scans 11,304 levels x 628 nodes
    assert lightcone.MAX_LATTICE_POINTS >= 100 * 11304 * 628
    for name in SHIPPED_VERDICTS:
        scenario.check_size(scenario.load_scenario(SCENARIO_DIR / f"{name}.json"))


def test_check_refuses_a_scan_lattice_over_the_limit(monkeypatch, capsys):
    # ori_global lays out about 629 data nodes x 5001 levels (3.1 M points)
    # but scans 628 nodes x 11,303 levels (7.1 M): a limit between the two
    # passes the scenario at load and refuses the scan before its tables
    monkeypatch.setattr(lightcone, "MAX_LATTICE_POINTS", 5 * 10**6)
    monkeypatch.setattr(ori, "LatticeTables", None)  # building one raises TypeError
    path = SCENARIO_DIR / "ori_global.json"
    scenario.check_size(scenario.load_scenario(path))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 1
    assert captured.out == ""
    assert len(lines) == 1
    assert lines[0].startswith("error: a lattice of 628 nodes x 11303 levels at step 0.00442362")


@pytest.mark.parametrize("value", [-1, 2.5])
def test_negative_spatial_dimension_exits_1_with_one_error_line(value, tmp_path, capsys):
    cfg = set_at(shipped_dict("minkowski_wave"), ("metric", "spatial_dim"), value)
    code = main(["check", str(write_scenario(tmp_path, cfg))])
    assert_one_error_line(code, capsys.readouterr(), "spatial_dim")


def _not_a_finite_number(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return True


# every numeric value of the shipped ring and line scenarios, as (scenario,
# path); the name the error must carry is the last key ("window" for its ends)
NUMERIC_VALUES = (
    [("ori_smooth", ("metric", "a")), ("minkowski_wave", ("metric", "spatial_dim"))]
    + [("ori_smooth", ("domain", key)) for key in ("length", "start")]
    + [("ori_blowup", ("domain", "window", k)) for k in (0, 1)]
    + [("ori_smooth", ("grid", key)) for key in ("h", "t_max")]
    + [("ori_smooth", ("initial_data", "phi", 1, key)) for key in ("amplitude", "wavenumber", "phase", "offset")]
    + [("ori_smooth", ("initial_data", "psi", 3, "value")), ("ori_blowup", ("initial_data", "phi", 1, "slope"))]
    + [("ori_smooth", ("output", "snapshot_stride")), ("ori_smooth", ("compare", "levels"))]
    + [("ori_smooth", ("thresholds", key)) for key in ("eps_log", "monitor_ceiling")]
)
MALFORMED = st.one_of(
    st.text(max_size=6).filter(_not_a_finite_number),
    st.sampled_from([math.nan, math.inf, -math.inf, None, [], [1.0], {}, {"value": 1.0}]),
)


@given(st.sampled_from(NUMERIC_VALUES), MALFORMED, st.sampled_from(list(cli.COMMANDS)))
def test_any_malformed_numeric_value_exits_1_with_one_error_line(where, value, command):
    name, path = where
    cfg = set_at(shipped_dict(name), path, value)
    with tempfile.TemporaryDirectory() as tmp:
        scenario_path = write_scenario(Path(tmp), cfg)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(err):
            code = main([command, str(scenario_path), "--out", str(Path(tmp) / "out")])
        captured = SimpleNamespace(out=out.getvalue(), err=err.getvalue())
    named = "window" if path[-2] == "window" else path[-1]
    assert_one_error_line(code, captured, named)


def test_unphysical_data_exits_2(tmp_path):
    cfg = ori_smooth_scenario_dict(h=0.05, t_max=1.0)
    # zero velocity makes the worldsheet plane degenerate
    for comp in cfg["initial_data"]["psi"]:
        comp["value"] = 0.0
    path = write_scenario(tmp_path, cfg)
    assert main(["check", str(path)]) == 2


def test_check_pass_with_flag(tmp_path, capsys):
    path = SCENARIO_DIR / "ori_psi_negative.json"
    code = main(["check", str(path), "--tmax", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "psi3_nonpositive  : True" in out
    assert "PASS" in out


def test_check_blowup_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, blowup_scenario_dict())
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert "t* = 4.0000" in out


def test_simulate_blowup_exits_4(tmp_path):
    path = write_scenario(tmp_path, blowup_scenario_dict())
    out_dir = tmp_path / "out"
    code = main(["simulate", str(path), "--out", str(out_dir)])
    assert code == 4
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["blowup"] is not None
    assert abs(manifest["blowup"]["time"] - 4.0) <= 0.2


def test_consistency_breach_exits_5(tmp_path, monkeypatch):
    # coarse grid on O(1) amplitudes: monitors breach while bounded
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 16), t_max=2.0)
    path = write_scenario(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "fast")]) == 5
    slow_writer(monkeypatch, tmp_path / "pids")
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 5
    # the march streams its levels out, so the snapshots handed to the writer
    # before the breach stay, written whole before main returns, even by a
    # slow writer
    assert [p.name for p in sorted((tmp_path / "o").glob("snapshot_*.csv"))] == [
        "snapshot_00000.csv"
    ]
    written = (tmp_path / "o" / "snapshot_00000.csv").read_bytes()
    assert written == (tmp_path / "fast" / "snapshot_00000.csv").read_bytes()


# ---------------------------------------------------------------------------
# the snapshot writer process
# ---------------------------------------------------------------------------


def slow_writer(monkeypatch, pid_file, delay=0.05):
    """Make each CSV write wait ``delay`` seconds first and record the id of
    the process that makes it in ``pid_file``."""
    write_csv = cli._write_csv

    def slow(*args):
        time.sleep(delay)
        with open(pid_file, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        write_csv(*args)

    monkeypatch.setattr(cli, "_write_csv", slow)


def writer_pids(pid_file):
    return set(pid_file.read_text().split()) if pid_file.exists() else set()


@pytest.mark.parametrize(
    "make, expect",
    [
        (lambda: ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0, stride=3), 0),
        (lambda: blowup_scenario_dict(), 4),
        (lambda: ori_smooth_scenario_dict(h=float(2 * np.pi / 16), t_max=2.0), 5),
        (lambda: ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0), 1),
    ],
    ids=["exit0", "exit4", "exit5", "exit1"],
)
def test_simulate_leaves_no_writer_process_or_thread(tmp_path, monkeypatch, make, expect):
    # the snapshots are written by one other process, which main has joined
    # on every exit path; exit 1 is a write failure, --out under a file
    out_dir = tmp_path / "out"
    if expect == 1:
        (tmp_path / "file").write_text("")
        out_dir = tmp_path / "file" / "out"
    threads = threading.active_count()
    slow_writer(monkeypatch, tmp_path / "pids", delay=0.01)
    assert main(["simulate", str(write_scenario(tmp_path, make())), "--out", str(out_dir)]) == expect
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    pids = writer_pids(tmp_path / "pids")
    assert len(pids) == 1 and str(os.getpid()) not in pids


def test_simulate_write_failure_prints_one_error_line(tmp_path, capfd):
    # the writer's OSError is raised again in main, which prints it once; the
    # writer itself prints nothing (capfd sees the writer's own stderr)
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "out"
    path = write_scenario(tmp_path, ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0))
    assert main(["simulate", str(path), "--out", str(out_dir)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: [Errno 20] Not a directory: '{out_dir}'"]


def test_simulate_reports_a_writer_that_died(tmp_path, monkeypatch, capfd):
    # a writer killed from outside (say, out of memory) answers nothing: one
    # error line, exit 1, and nothing left running
    monkeypatch.setattr(cli, "_write_csv", lambda *args: os._exit(9))
    path = write_scenario(tmp_path, ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: snapshot writer process ended with code 9"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("writer_levels", [1, cli.WRITER_LEVELS])
def test_listed_snapshots_are_whole_when_main_returns(tmp_path, monkeypatch, writer_levels):
    # 10 levels at stride 3: levels 0, 3, 6, 9 and the last level 10; with a
    # writer slower than the march, main returns only after it wrote them all
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0, stride=3)
    path = write_scenario(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "fast")]) == 0
    monkeypatch.setattr(cli, "WRITER_LEVELS", writer_levels)
    slow_writer(monkeypatch, tmp_path / "pids")
    assert main(["simulate", str(path), "--out", str(tmp_path / "slow")]) == 0
    listed = json.loads((tmp_path / "slow" / "run_manifest.json").read_text())["snapshots"]
    assert listed == [f"snapshot_{m:05d}.csv" for m in (0, 3, 6, 9, 10)]
    assert sorted(p.name for p in (tmp_path / "slow").glob("snapshot_*.csv")) == listed
    for name in listed:
        assert (tmp_path / "slow" / name).read_bytes() == (tmp_path / "fast" / name).read_bytes()
    assert str(os.getpid()) not in writer_pids(tmp_path / "pids")


# ---------------------------------------------------------------------------
# simulate output contract
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 128), t_max=1.0, stride=16)
    path = tmp / "scenario.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp / "out"
    code = main(["simulate", str(path), "--out", str(out_dir)])
    return code, out_dir, path


def test_simulate_ok(simulate_run):
    code, out_dir, _ = simulate_run
    assert code == 0
    assert (out_dir / "run_manifest.json").exists()


def test_snapshot_column_contract(simulate_run):
    _, out_dir, _ = simulate_run
    snap = sorted(out_dir.glob("snapshot_*.csv"))[0]
    lines = snap.read_text().splitlines()
    header = lines[0].split(",")
    n_comp = 4  # components of the position vector
    assert len(header) == 3 + 3 * n_comp + 2
    assert header[:3] == ["t", "vartheta", "theta"]
    assert header[-2:] == ["null_residual_p", "null_residual_q"]
    assert len(lines[1].split(",")) == len(header)


def test_manifest_records_monitors(simulate_run):
    _, out_dir, _ = simulate_run
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["blowup"] is None
    assert manifest["monitors"]["max_null_residual"] < 1e-6
    assert manifest["grid"]["periodic"] is True
    assert set(manifest["thresholds"]) >= {"eps_timelike", "eps_log", "monitor_ceiling"}


def test_simulate_deterministic(simulate_run, tmp_path):
    _, out_dir, path = simulate_run
    again = tmp_path / "again"
    assert main(["simulate", str(path), "--out", str(again)]) == 0
    for name in sorted(p.name for p in out_dir.glob("snapshot_*.csv")):
        assert (again / name).read_bytes() == (out_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# speeds
# ---------------------------------------------------------------------------


def test_speeds_outputs(tmp_path, capsys):
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5)
    path = write_scenario(tmp_path, cfg)
    out_dir = tmp_path / "sp"
    assert main(["speeds", str(path), "--out", str(out_dir)]) == 0
    init = (out_dir / "initial_speeds.csv").read_text().splitlines()
    assert init[0] == "theta,lambda_minus,lambda_plus,lagrangian_density"
    body = np.array([[float(x) for x in row.split(",")] for row in init[1:]])
    assert np.all(body[:, 3] < 0.0)  # physical data: density negative
    assert np.all(body[:, 1] < body[:, 2])
    field = (out_dir / "speeds_field.csv").read_text().splitlines()
    assert field[0] == "t,vartheta,theta,lambda_minus,lambda_plus"


def crossing_line_dict():
    """A flat line string with in-plane velocity 0.5 theta: its speeds
    -0.5 theta -+ 1 are ordered at each node, but lam- at theta = -5 meets
    lam+ at theta = -1, and the transported speeds cross at t = 2 (level 40
    of 41, 201 nodes a level)."""
    return {
        "metric": {"model": "minkowski", "spatial_dim": 2},
        "domain": {"kind": "line", "window": [-5.0, 5.0]},
        "grid": {"h": 0.05, "t_max": 2.0},
        "initial_data": {
            "phi": [
                {"family": "constant", "value": 0.0},
                {"family": "linear", "slope": 1.0, "offset": 0.0},
                {"family": "constant", "value": 0.0},
            ],
            "psi": [
                {"family": "constant", "value": 1.0},
                {"family": "linear", "slope": 0.5, "offset": 0.0},
                {"family": "constant", "value": 0.0},
            ],
        },
    }


def test_speeds_ordering_break_exits_2_without_the_field_file(tmp_path, capsys):
    # the verdict comes before any output, so not even initial_speeds.csv
    out_dir = tmp_path / "sp"
    path = write_scenario(tmp_path, crossing_line_dict())
    assert main(["speeds", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().out == "speed ordering breaks at t=2, vartheta=-3\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("tmax, expect", [("1.9", 0), ("2.0", 2)])
def test_one_ordering_verdict_for_every_command(tmp_path, capsys, tmax, expect):
    # the crossing string's speeds cross at t = 2: up to t_max = 1.9 every
    # command passes, up to 2.0 each exits 2 with the same one line and
    # writes nothing
    path = write_scenario(tmp_path, crossing_line_dict())
    for command in ("check", "simulate", "speeds"):
        out_dir = tmp_path / command
        code = main([command, str(path), "--tmax", tmax, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == expect, (command, captured)
        assert captured.err == ""
        if expect == 2:
            assert captured.out == "speed ordering breaks at t=2, vartheta=-3\n"
            assert not out_dir.exists()
        elif command == "check":
            assert "speed ordering     : PASS for t <= 1.9" in captured.out.splitlines()


def test_check_refuses_a_line_t_max_past_the_triangle(tmp_path, capsys):
    # the window [-5, 5] determines the string up to t = 5 only; check lays
    # out the lattice of every command, and refuses t_max = 6 as they do
    path = write_scenario(tmp_path, crossing_line_dict())
    for command in ("check", "simulate", "speeds"):
        code = main([command, str(path), "--tmax", "6", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.splitlines() == [
            "error: window supports only t <= 5 at step 0.05, requested t_max=6"
        ]
    assert not (tmp_path / "out").exists()


def test_speeds_ordering_break_in_a_later_batch_leaves_no_field_file(
    tmp_path, monkeypatch, capsys
):
    # four levels a batch: the ordering scan finds the crossing level in the
    # eleventh batch, before the field file is opened
    monkeypatch.setattr(lightcone, "LEVEL_BATCH", 4 * 201)
    assert [len(b) for b in lightcone.level_batches(np.arange(41.0), 201)] == [4] * 10 + [1]
    out_dir = tmp_path / "sp"
    path = write_scenario(tmp_path, crossing_line_dict())
    assert main(["speeds", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().out == "speed ordering breaks at t=2, vartheta=-3\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "make",
    [
        lambda: ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=1.0),
        lambda: blowup_scenario_dict(h=0.1),
    ],
    ids=["ring", "line"],
)
@pytest.mark.parametrize("level_batch, block_rows", [(1 << 16, 4096), (300, 7)])
def test_speeds_field_is_the_oracle_format_of_the_library_fields(
    tmp_path, monkeypatch, make, level_batch, block_rows
):
    # the text columns and the single transport pass write the bytes of
    # one format(x, ".17g") per library value, whatever the batching
    monkeypatch.setattr(lightcone, "LEVEL_BATCH", level_batch)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    path = write_scenario(tmp_path, make())
    assert main(["speeds", str(path), "--out", str(tmp_path / "sp")]) == 0
    assert (tmp_path / "sp" / "speeds_field.csv").read_text() == oracle_csv(
        CSV_HEADERS["speeds_field.csv"].split(","), library_speeds_field(path)
    )


def test_constant_speed_columns(tmp_path):
    # minkowski circle with unit-length tangent: speeds are +-1 constants
    cfg = {
        "metric": {"model": "minkowski", "spatial_dim": 2},
        "domain": {"kind": "periodic", "length": float(2 * np.pi), "start": 0.0},
        "grid": {"h": float(2 * np.pi / 64), "t_max": 0.5},
        "initial_data": {
            "phi": [
                {"family": "constant", "value": 0.0},
                {"family": "sine", "amplitude": 1.0, "wavenumber": 1.0, "phase": 0.0},
                {"family": "sine", "amplitude": 1.0, "wavenumber": 1.0,
                 "phase": float(np.pi / 2)},
            ],
            "psi": [
                {"family": "constant", "value": 1.0},
                {"family": "constant", "value": 0.0},
                {"family": "constant", "value": 0.0},
            ],
        },
    }
    path = write_scenario(tmp_path, cfg)
    out_dir = tmp_path / "sp"
    assert main(["speeds", str(path), "--out", str(out_dir)]) == 0
    field = np.array(
        [
            [float(x) for x in row.split(",")]
            for row in (out_dir / "speeds_field.csv").read_text().splitlines()[1:]
        ]
    )
    assert np.allclose(field[:, 3], -1.0, atol=1e-12)
    assert np.allclose(field[:, 4], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_orders(tmp_path, capsys):
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 256), t_max=1.5)
    cfg["compare"] = {"levels": 3}
    path = write_scenario(tmp_path, cfg)
    out_dir = tmp_path / "cmp"
    code = main(["compare", str(path), "--out", str(out_dir)])
    assert code == 0
    rows = (out_dir / "compare.csv").read_text().splitlines()
    assert rows[0] == "h,err_u0,err_u1,err_u2,err_u3"
    table = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    # refinement halves h and errors drop by about 4 per rung
    for c in range(1, 5):
        orders = np.log2(table[:-1, c] / table[1:, c])
        assert np.all(orders > 1.5) and np.all(orders < 2.5)
    # the closed-form component never lags the staged ones by more than the
    # general solver's own error scale
    assert table[-1, 4] < 10 * max(table[-1, 1], table[-1, 2], table[-1, 3])


def test_compare_rejects_a_ladder_without_rungs(tmp_path, capsys):
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5)
    cfg["compare"] = {"levels": 0}
    path = write_scenario(tmp_path, cfg)
    code = main(["compare", str(path), "--out", str(tmp_path / "cmp")])
    assert_one_error_line(code, capsys.readouterr(), "levels")
    assert not (tmp_path / "cmp").exists()


def test_compare_with_one_rung_reports_no_order(tmp_path, capsys):
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5)
    cfg["compare"] = {"levels": 1}
    path = write_scenario(tmp_path, cfg)
    assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # the header, one rung's errors and the order line
    errors = [float(x) for x in lines[1].split()[1:]]
    assert len(errors) == 4 and all(e > 0.0 for e in errors)
    assert lines[2] == "observed orders: none, one rung has no refinement to compare with"
    assert len((tmp_path / "cmp" / "compare.csv").read_text().splitlines()) == 2


def test_compare_calls_exact_only_the_pairs_whose_finer_error_is_0(tmp_path, capsys):
    # with a = 0 the transverse components decouple: their staged and
    # general marches do the same arithmetic and agree bit for bit, while
    # u0 and u3 keep errors that fall with the step
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 128), t_max=0.5)
    cfg["metric"]["a"] = 0.0
    cfg["compare"] = {"levels": 3}
    path = write_scenario(tmp_path, cfg)
    assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 0
    lines = capsys.readouterr().out.splitlines()
    orders = dict(line.strip().split(": ") for line in lines[-4:])
    assert orders["u1"] == orders["u2"] == "exact, exact"
    for c in ("u0", "u3"):
        assert all(float(o) > 1.0 for o in orders[c].split(", ")), orders


def test_simulate_flat_standing_wave(tmp_path):
    out_dir = tmp_path / "mink"
    code = main(
        ["simulate", str(SCENARIO_DIR / "minkowski_wave.json"), "--tmax", "1.0",
         "--out", str(out_dir)]
    )
    assert code == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    # flat ambient metric: one-forms transport exactly, residuals at roundoff
    assert manifest["monitors"]["max_null_residual"] < 1e-9


def test_compare_requires_quadratic_model(tmp_path):
    cfg = ori_smooth_scenario_dict(h=0.1, t_max=0.5)
    cfg["metric"] = {"model": "minkowski", "spatial_dim": 3}
    path = write_scenario(tmp_path, cfg)
    assert main(["compare", str(path)]) == 1


# ---------------------------------------------------------------------------
# streaming: one diagonal held, whatever the number of levels
# ---------------------------------------------------------------------------


def traced_peak(argv):
    """Exit code and tracemalloc peak in bytes of one in-process CLI call."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command, denom", [("simulate", 256), ("compare", 192)])
def test_peak_memory_does_not_scale_with_levels(tmp_path, command, denom):
    # Four times the levels may raise the peak by at most half.  The march
    # holds one diagonal, the speed ordering is checked from 1-D tables and
    # theta is evaluated per written level; with whole (levels, nodes, 4)
    # lattices the peak grew 3.6x (simulate) and 3.8x (compare) on these
    # scenarios.
    peaks = []
    for t_max in (2.0, 8.0):
        cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / denom), t_max=t_max, stride=10**6)
        cfg["compare"] = {"levels": 1}
        path = write_scenario(tmp_path, cfg, f"t{t_max:g}.json")
        code, peak = traced_peak([command, str(path), "--out", str(tmp_path / f"t{t_max:g}")])
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("command", ["speeds", "simulate"])
def test_transport_memory_does_not_grow_with_t_max(tmp_path, monkeypatch, command):
    # speeds transports and writes in batches of about five levels, simulate
    # checks the speed ordering from 1-D tables, and theta is evaluated only
    # on the levels written, so four times t_max leaves the peak where it
    # was; with whole-lattice speed and theta tables it grew 3.6x (speeds)
    # and 1.8x (simulate) here
    monkeypatch.setattr(lightcone, "LEVEL_BATCH", 1024)
    peaks = []
    for t_max in (8.0, 32.0):
        cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=t_max, stride=10**6)
        path = write_scenario(tmp_path, cfg, f"t{t_max:g}.json")
        code, peak = traced_peak([command, str(path), "--out", str(tmp_path / f"t{t_max:g}")])
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize(
    "make",
    [
        lambda: ori_smooth_scenario_dict(h=float(2 * np.pi / 128), t_max=1.0),
        lambda: blowup_scenario_dict(h=0.05, t_max=2.0),
    ],
    ids=["ring", "line"],
)
def test_streamed_compare_errors_equal_whole_lattice_maxima(tmp_path, make):
    # compare keeps per-component maxima level by level while the general
    # and staged marches run in lockstep; they must be the nanmax over the
    # whole recorded lattices, bit for bit
    cfg = make()
    cfg["compare"] = {"levels": 2}
    path = write_scenario(tmp_path, cfg)
    assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 0
    _, values = read_csv(tmp_path / "cmp" / "compare.csv")
    for h, row in zip(values[:, 0], values[:, 1:]):
        cfg["grid"]["h"] = float(h)
        model, data, cmap, grid, _, _ = library_run(write_scenario(tmp_path, cfg, "rung.json"))
        sol = recorded_solve(model, data, cmap, grid)
        cf = ori.OriClosedForm.from_initial_data(data, cmap, coupling_constant=model.a)
        diff = np.abs(sol.u - recorded_staged(cf, data, cmap, grid))
        assert np.array_equal(row, [np.nanmax(diff[:, :, c]) for c in range(4)])


@pytest.fixture(scope="module")
def smooth_log_argument(tmp_path_factory):
    """``log_argument.csv`` of ``check ori_smooth --out`` in one batch."""
    out_dir = tmp_path_factory.mktemp("log_argument")
    assert main(["check", str(SCENARIO_DIR / "ori_smooth.json"), "--out", str(out_dir)]) == 0
    return (out_dir / "log_argument.csv").read_bytes()


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_check_out_is_independent_of_the_level_batch(
    tmp_path, monkeypatch, smooth_log_argument, levels
):
    # ori_smooth has 256 nodes per level and 204 levels
    monkeypatch.setattr(lightcone, "LEVEL_BATCH", 256 * levels + 100)
    assert len(next(lightcone.level_batches(np.arange(204.0), 256))) == levels
    assert main(["check", str(SCENARIO_DIR / "ori_smooth.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "log_argument.csv").read_bytes() == smooth_log_argument


def test_speed_ordering_batches_find_the_whole_lattice_violation(monkeypatch):
    # the data of test_ordering_violation_detected_at_predicted_time on the
    # line lattice of its window, one level a batch, seven levels (which do
    # not divide the 301) and one batch, against the whole lattice at once
    lam_m = lambda s: -np.tanh(0.8 * s)
    lam_p = lambda s: -np.tanh(0.8 * s) + 0.2
    cmap = map_from_profiles(lam_m, lam_p, (-8.0, 8.0), nodes=801)
    grid = lightcone.LightconeGrid.over(-8.0, 0.02, 801, None, 6.0)
    assert grid.n_levels == 300
    whole = whole_lattice_ordering_violation(cmap, grid.t_nodes, grid.vtheta)
    assert whole is not None
    for level_batch in (1, 7 * 801, 1 << 16):
        monkeypatch.setattr(lightcone, "LEVEL_BATCH", level_batch)
        assert cli._speed_ordering_violation(cmap, grid) == whole


@pytest.mark.parametrize(
    "name",
    ["minkowski_wave", "ori_blowup", "ori_global", "ori_psi_negative", "ori_smooth",
     "crossing_line"],
)
def test_speed_ordering_verdict_is_that_of_the_whole_lattice(name, tmp_path, capsys):
    # simulate and speeds both decide exit 2 by _speed_ordering_violation on
    # their lattice: its verdict and printed line are those of the speeds
    # transported over the whole lattice at once
    if name == "crossing_line":
        path = write_scenario(tmp_path, crossing_line_dict())
    else:
        path = SCENARIO_DIR / f"{name}.json"
    _, _, cmap, grid = library_lattice(path)
    whole = whole_lattice_ordering_violation(cmap, grid.t_nodes, grid.vtheta)
    line = ""
    if whole is not None:
        line = f"speed ordering breaks at t={whole[0]:.6g}, vartheta={whole[1]:.6g}\n"
    assert cli._speed_ordering_violation(cmap, grid) == whole
    assert capsys.readouterr().out == line
    assert (name == "crossing_line") == (line == "speed ordering breaks at t=2, vartheta=-3\n")


def test_simulate_does_not_transport_the_speeds(tmp_path, monkeypatch):
    calls = []
    riemann = transport.solve_riemann_invariants
    monkeypatch.setattr(
        transport, "solve_riemann_invariants", lambda *args: calls.append(args) or riemann(*args)
    )
    path = SCENARIO_DIR / "ori_smooth.json"
    assert main(["simulate", str(path), "--out", str(tmp_path / "sim")]) == 0
    assert len(calls) == 0
    # the counter sees speeds, which writes its lambda columns from it
    path = write_scenario(tmp_path, ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5))
    assert main(["speeds", str(path), "--out", str(tmp_path / "sp")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# shipped scenarios stay valid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,tmax,expect",
    [
        ("ori_smooth.json", "2.0", 0),
        ("ori_psi_negative.json", "2.0", 0),
        ("ori_global.json", "2.0", 0),
        ("ori_blowup.json", "5.0", 3),
        ("minkowski_wave.json", "2.0", 0),
    ],
)
def test_shipped_scenarios_check(name, tmax, expect):
    code = main(["check", str(SCENARIO_DIR / name), "--tmax", tmax])
    assert code == expect


SHIPPED_VERDICTS = {
    "minkowski_wave": (0, "not applicable (flat model)"),
    "ori_blowup": (
        3,
        "FAIL: earliest violation at t*=4.000000, vtheta=1.623156 "
        "(scanned t in [0, 5], vtheta in [-10.472 + t, 10.472 - t])",
    ),
    "ori_global": (
        0,
        "PASS over scanned region (t in [0, 50], vtheta in [0, 2.77803]); min margin 1.000e+00",
    ),
    "ori_psi_negative": (
        0,
        "PASS over scanned region (t in [0, 10], vtheta in [0, 8.07429]); min margin 1.000e+00",
    ),
    "ori_smooth": (
        0,
        "PASS over scanned region (t in [0, 5], vtheta in [0, 19.7523]); min margin 8.694e-01",
    ),
}


@pytest.mark.parametrize("name", list(SHIPPED_VERDICTS))
def test_shipped_scenarios_check_verdict_line(name, tmp_path):
    # each at its own t_max; the ring verdicts are those of the full-window
    # scan, and stdout with the log-argument CSV is the pinned output
    code, out, _, pin = golden.run_pair("check", name, tmp_path / "out")
    lines = out.splitlines()
    expect_code, verdict = SHIPPED_VERDICTS[name]
    assert code == expect_code
    assert f"existence criterion: {verdict}" in lines
    if name == "ori_blowup":
        assert "blow-up time estimate t* = 4.000000" in lines
    assert pin == golden.pinned("check", name)


def test_check_out_reaches_t_max_where_the_ratio_rounds_down(tmp_path):
    # 0.3 / 0.1 = 2.9999999999999996: the levels take the 1e-9 floor of
    # LightconeGrid.over, so the file reaches t = 0.3
    scen = str(SCENARIO_DIR / "ori_smooth.json")
    flags = ["--grid-override", "0.1", "--tmax", "0.3", "--out", str(tmp_path)]
    assert main(["check", scen, *flags]) == 0
    _, rows = read_csv(tmp_path / "log_argument.csv")
    levels = np.unique(rows[:, 0])
    assert len(levels) == 4
    assert levels[-1] == pytest.approx(0.3)


SHIPPED_SIMULATE = {
    "minkowski_wave": (0, None),
    "ori_blowup": (
        4,
        "blow-up detected at t=4, vtheta=1.80302, component -1: "
        "null residual breach (value 0.0019583)",
    ),
    "ori_psi_negative": (0, None),
    "ori_smooth": (0, None),
}


@pytest.mark.parametrize("name", list(SHIPPED_SIMULATE))
def test_shipped_scenarios_simulate_outcome(name, tmp_path):
    # each at its own step and t_max; ori_global (exit 5 after about 5 s) has
    # its own test below
    code, out, _, pin = golden.run_pair("simulate", name, tmp_path / "out")
    lines = out.splitlines()
    expect_code, last = SHIPPED_SIMULATE[name]
    assert code == expect_code
    if last is not None:
        assert lines[-1] == last
    else:
        assert not any("blow-up" in line for line in lines)
    assert pin == golden.pinned("simulate", name)


@pytest.mark.parametrize("name", list(SHIPPED_SIMULATE))
def test_shipped_scenarios_speeds_outcome(name, tmp_path):
    # each at its own step and t_max; ori_global (t <= 50, 134 MB of
    # output) has its own test below
    out_dir = tmp_path / "out"
    code, out, _, pin = golden.run_pair("speeds", name, out_dir)
    assert code == 0
    assert out.splitlines() == [f"wrote speed tables to {out_dir}"]
    assert pin == golden.pinned("speeds", name)


# the outcome of compare on each shipped scenario, at its own step and t_max:
# exit code, the stream of the verdict and the verdict, the last line there
SHIPPED_COMPARE = {
    "minkowski_wave": (1, "out", "compare requires the quadratic plane-fronted model"),
    "ori_blowup": (
        4,
        "out",
        "blow-up detected at t=3.7, vtheta=-6.77198, component -1: "
        "null residual breach (value 0.00110827)",
    ),
    "ori_global": (
        4,
        "out",
        "blow-up detected at t=1.73124, vtheta=2.57673, component -1: "
        "null residual breach (value 0.00101686)",
    ),
    "ori_psi_negative": (
        5,
        "err",
        "consistency error: one-form/derivative consistency breached at t=1.09651 "
        "(residual 1.082e-03) and the run stayed bounded",
    ),
    "ori_smooth": (0, "out", "  u3: 1.98, 1.99"),
}


@pytest.mark.parametrize("name", list(SHIPPED_COMPARE))
def test_shipped_scenarios_compare_outcome(name, tmp_path):
    code, out, err, pin = golden.run_pair("compare", name, tmp_path / "out")
    captured = SimpleNamespace(out=out, err=err)
    expect_code, stream, verdict = SHIPPED_COMPARE[name]
    assert code == expect_code
    assert getattr(captured, stream).splitlines()[-1] == verdict
    assert getattr(captured, "err" if stream == "out" else "out") == ""
    assert pin == golden.pinned("compare", name)


def test_shipped_ori_global_simulate_exits_5(tmp_path):
    code, out, err, pin = golden.run_pair("simulate", "ori_global", tmp_path / "out")
    assert code == 5
    assert out == ""
    assert err.splitlines() == [
        "consistency error: one-form/derivative consistency breached at t=3.16776 "
        "(residual 1.022e-03) and the run stayed bounded"
    ]
    assert pin == golden.pinned("simulate", "ori_global")


def test_shipped_ori_global_speeds_exits_0(tmp_path):
    # run_pair removes the output once digested: the field file is about 130 MB
    out_dir = tmp_path / "speeds"
    code, out, _, pin = golden.run_pair("speeds", "ori_global", out_dir)
    assert code == 0
    assert out.splitlines() == [f"wrote speed tables to {out_dir}"]
    assert pin == golden.pinned("speeds", "ori_global")


def test_golden_outputs_pin_every_shipped_pair():
    # the pin tests above run each of these pairs once and compare its pin
    pins = json.loads(golden.GOLDEN_PATH.read_text())
    assert set(pins) == {f"{c} {n}" for c in golden.COMMANDS for n in golden.SCENARIOS}
    assert set(SHIPPED_VERDICTS) == set(SHIPPED_COMPARE) == set(golden.SCENARIOS)
    assert set(SHIPPED_SIMULATE) == set(golden.SCENARIOS) - {"ori_global"}


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------


def oracle_csv(header, rows) -> str:
    """The row-by-row formatter the block writer replaced: one
    ``format(v, ".17g")`` per value."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_csv(path):
    """Header and rows of a CSV, each field parsed by ``float``."""
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


EDGE_VALUES = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, 2.0**53 + 2,
    1e22, -1e22, 0.1, 1.0, -3.0, 1e16, 1.7976931348623157e308, 2.2250738585072014e-308,
]


def test_writer_matches_oracle_on_edge_values(tmp_path):
    table = np.array(EDGE_VALUES).reshape(-1, 1) * np.ones(3)
    path = tmp_path / "edge.csv"
    cli._write_csv(path, ["a", "b", "c"], [list(table.T)])
    text = path.read_text()
    assert text == oracle_csv(["a", "b", "c"], table)
    assert "\n1,1,1\n" in text and "\n-0,-0,-0\n" in text
    assert "\nnan,nan,nan\n" in text and "\n-inf,-inf,-inf\n" in text


@given(
    arrays(np.float64, st.tuples(st.integers(0, 40), st.integers(1, 6))),
    st.integers(1, 9),
    st.integers(1, 3),
)
def test_writer_matches_oracle_on_random_blocks(table, block_rows, pieces):
    header = [f"c{k}" for k in range(table.shape[1])]
    expected = oracle_csv(header, table)
    # the same rows as one block and as an iterable of uneven blocks
    cuts = np.linspace(0, len(table), pieces + 1).astype(int)
    blocks = (list(table[a:b].T) for a, b in zip(cuts[:-1], cuts[1:]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "t.csv"
        for source in ([list(table.T)], blocks):
            cli._write_csv(path, header, source)
            assert path.read_text() == expected


# repeated values, both zeros, both NaN signs, infinities and subnormals,
# so a helper that merged equal floats would write 0 for -0
TEXT_POOL = EDGE_VALUES + [-np.nan, 1e-310]


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(1, 5)),
        elements=st.sampled_from(TEXT_POOL),
    ),
    st.lists(st.booleans(), min_size=5, max_size=5),
    st.integers(1, 9),
    st.integers(1, 3),
)
def test_text_columns_match_oracle_on_repeated_edge_values(table, as_text, block_rows, pieces):
    header = [f"c{k}" for k in range(table.shape[1])]
    for col in table.T:
        assert cli._format_once(col).tolist() == [format(float(v), ".17g") for v in col]
    cuts = np.linspace(0, len(table), pieces + 1).astype(int)
    blocks = [
        [cli._format_once(c) if text else c for c, text in zip(table[a:b].T, as_text)]
        for a, b in zip(cuts[:-1], cuts[1:])
    ]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "t.csv"
        cli._write_csv(path, header, blocks)
        assert path.read_text() == oracle_csv(header, table)


def test_writer_peak_memory_does_not_grow_with_a_text_block(tmp_path):
    # one block of 64 x CSV_BLOCK_ROWS rows is formatted in chunks, so its
    # peak above the block itself is that of a block of 4 x CSV_BLOCK_ROWS
    peaks = []
    for chunks in (4, 64):
        n = chunks * cli.CSV_BLOCK_ROWS
        levels = np.repeat(0.01 * np.arange(n // 256), 256)
        nodes = np.tile(np.linspace(-1.0, 1.0, 256), n // 256)
        block = [
            cli._format_once(levels),
            cli._format_once(nodes),
            np.sin(levels + nodes),
            cli._format_once(np.round(nodes - levels, 3)),
        ]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ["t", "v", "x", "y"], [block])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def library_lattice(path):
    """The model, data, coordinate map and lattice of ``speeds`` and
    ``simulate``, built through the library."""
    sc = scenario.load_scenario(path)
    model = scenario.build_model(sc)
    theta = scenario.build_theta_grid(sc)
    phi, psi = scenario.build_initial_arrays(sc, theta, model.dim)
    data = worldsheet.build_initial_data(
        model, theta, phi, psi, scenario.build_domain(sc), thresholds=sc.thresholds
    )
    cmap = transport.build_theta0(data)
    return model, data, cmap, lightcone.build_grid(cmap, sc.step, sc.t_max)


def library_run(path):
    """The pipeline of ``speeds`` and ``simulate`` called through the
    library, to hold the values their CSVs must contain."""
    model, data, cmap, grid = library_lattice(path)
    fields = transport.solve_riemann_invariants(cmap, grid.t_nodes, grid.vtheta)
    mesh = transport.build_inverse_map(cmap, grid.t_nodes, grid.vtheta)
    return model, data, cmap, grid, fields, mesh


def library_speeds_field(path):
    """The (t, vartheta, theta, lam-, lam+) rows ``speeds_field.csv`` must
    hold, from the library."""
    _, _, _, grid, fields, mesh = library_run(path)
    return np.column_stack(
        [
            np.repeat(grid.t_nodes, len(grid.vtheta)),
            np.tile(grid.vtheta, len(grid.t_nodes)),
            mesh.theta.ravel(),
            fields.lam_minus.ravel(),
            fields.lam_plus.ravel(),
        ]
    )


def test_speeds_field_round_trips_exactly(tmp_path):
    path = write_scenario(tmp_path, ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5))
    assert main(["speeds", str(path), "--out", str(tmp_path / "sp")]) == 0
    _, values = read_csv(tmp_path / "sp" / "speeds_field.csv")
    assert np.array_equal(values, library_speeds_field(path))


def test_snapshot_round_trips_exactly(tmp_path):
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5, stride=4)
    path = write_scenario(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "sim")]) == 0
    model, data, cmap, grid, _, mesh = library_run(path)
    sol = recorded_solve(model, data, cmap, grid, thresholds=scenario.load_scenario(path).thresholds)
    m = 4
    lo, hi = grid.valid_bounds(m)
    u, p, q = sol.u[m, lo:hi], sol.p[m, lo:hi], sol.q[m, lo:hi]
    rp, rq = lightcone.relative_null_residuals(model, u, p, q)
    expected = np.column_stack(
        [np.full(hi - lo, m * grid.step), grid.vtheta[lo:hi], mesh.theta[m, lo:hi], u, p, q, rp, rq]
    )
    _, values = read_csv(tmp_path / "sim" / f"snapshot_{m:05d}.csv")
    assert np.array_equal(values, expected)


def _snapshot_header(dim):
    names = [f"{f}{c}" for f in "upq" for c in range(dim)]
    return ",".join(["t", "vartheta", "theta"] + names + ["null_residual_p", "null_residual_q"])


CSV_HEADERS = {
    "initial_speeds.csv": "theta,lambda_minus,lambda_plus,lagrangian_density",
    "speeds_field.csv": "t,vartheta,theta,lambda_minus,lambda_plus",
    "log_argument.csv": "t,vartheta,log_argument",
    "compare.csv": "h,err_u0,err_u1,err_u2,err_u3",
    "snapshot": _snapshot_header(4),
}
SMALL_H = float(2 * np.pi / 64)


def _compare_dict():
    cfg = ori_smooth_scenario_dict(h=SMALL_H, t_max=0.5)
    cfg["compare"] = {"levels": 2}
    return cfg


@pytest.mark.parametrize(
    "command,cfg,expect",
    [
        ("speeds", ori_smooth_scenario_dict(h=SMALL_H, t_max=0.5), 0),
        ("simulate", ori_smooth_scenario_dict(h=SMALL_H, t_max=0.5, stride=4), 0),
        ("simulate", blowup_scenario_dict(h=0.1), 4),
        ("check", ori_smooth_scenario_dict(h=SMALL_H, t_max=0.5), 0),
        ("check", blowup_scenario_dict(h=0.1), 3),
        ("compare", _compare_dict(), 0),
    ],
    ids=["speeds", "simulate", "simulate-blowup", "check", "check-blowup", "compare"],
)
def test_csv_bytes_are_the_oracle_format(tmp_path, command, cfg, expect):
    # every CSV is its parsed values re-formatted by the oracle, header
    # included, so a writer change cannot alter the format unnoticed
    path = write_scenario(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main([command, str(path), "--out", str(out_dir)]) == expect
    written = sorted(out_dir.glob("*.csv"))
    assert written
    for csv_path in written:
        key = "snapshot" if csv_path.name.startswith("snapshot_") else csv_path.name
        header, values = read_csv(csv_path)
        assert ",".join(header) == CSV_HEADERS[key]
        assert csv_path.read_text() == oracle_csv(header, values), csv_path.name
