"""The benchmark's output checks pass on the program's output and fail on
corrupted output.  Runs in seconds:

    python3 -m pytest -q perfbench/test_checks.py
"""
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from stringsheet import OriClosedForm  # noqa: E402
from stringsheet.cli import main  # noqa: E402


def phi3(s):
    return 0.2 * np.sin(s) + 0.1 * np.cos(2.0 * s)


def psi3(s):
    return 0.6 + 0.2 * np.cos(s)


def scalar(f):
    return lambda s: float(f(s))


@pytest.fixture(scope="module")
def closed_form():
    return OriClosedForm.from_profiles(phi3, psi3, (0.0, 2.0 * math.pi), periodic=True, nodes=257)


@pytest.fixture(scope="module")
def speeds_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("speeds")
    assert main(["speeds", str(ROOT / "scenarios/ori_smooth.json"), "--tmax", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate")
    argv = ["simulate", str(ROOT / "scenarios/ori_smooth.json"), "--tmax", "0.5", "--out", str(out)]
    assert main(argv) == 0
    return out


def test_blowup_time_rejects_shifted_t_star():
    assert checks.check_blowup_time("blow-up time estimate t* = 4.000000\n", 4.0, 1e-4) == []
    assert checks.check_blowup_time("blow-up time estimate t* = 4.001000\n", 4.0, 1e-4)
    assert checks.check_blowup_time("no verdict\n", 4.0, 1e-4)


def test_log_argument_matches_quadrature_and_rejects_perturbation(closed_form):
    points = [(0.7, 1.3), (2.5, 5.0), (6.1, 0.2)]
    values = [closed_form.log_argument(np.array([t]), np.array([v]))[0] for t, v in points]
    args = (scalar(phi3), scalar(psi3), points, 1e-5)
    assert checks.check_log_argument("cf", values, *args) == []
    perturbed = list(values)
    perturbed[1] += 1e-4
    assert checks.check_log_argument("cf", perturbed, *args)


def test_blowup_bracket_rejects_shifted_t_star(closed_form):
    report = closed_form.existence_check(8.0)
    assert not report.passed
    args = (scalar(phi3), scalar(psi3))
    assert checks.check_blowup_bracket("cf", *args, report.t_star, report.vtheta_star, 1e-5) == []
    assert checks.check_blowup_bracket("cf", *args, report.t_star + 1e-3, report.vtheta_star, 1e-5)


def test_flag_soundness():
    assert checks.check_flag_soundness("p", True, True) == []
    assert checks.check_flag_soundness("p", False, False) == []
    assert checks.check_flag_soundness("p", True, False)


def test_speed_field_passes_program_output(speeds_dir):
    header, values = checks.read_csv_exact(speeds_dir / "speeds_field.csv")
    assert header == ["t", "vartheta", "theta", "lambda_minus", "lambda_plus"]
    levels = len(np.unique(values[:, 0]))
    nodes = values.shape[0] // levels
    assert checks.check_speed_field("f", values, levels, nodes, 1e-12) == []
    assert checks.check_row_count("f", values, levels, nodes) == []


def test_speed_field_rejects_dropped_row(speeds_dir, tmp_path):
    lines = (speeds_dir / "speeds_field.csv").read_text().splitlines(keepends=True)
    _, values = checks.read_csv_exact(speeds_dir / "speeds_field.csv")
    levels = len(np.unique(values[:, 0]))
    nodes = values.shape[0] // levels
    path = tmp_path / "dropped.csv"
    path.write_text("".join(lines[:40] + lines[41:]))
    _, dropped = checks.read_csv_exact(path)
    assert checks.check_row_count("f", dropped, levels, nodes)
    assert checks.check_speed_field("f", dropped, levels, nodes, 1e-12)


def test_speed_field_rejects_swapped_pair(speeds_dir):
    _, values = checks.read_csv_exact(speeds_dir / "speeds_field.csv")
    levels = len(np.unique(values[:, 0]))
    nodes = values.shape[0] // levels
    swapped = values.copy()
    swapped[nodes + 3, [3, 4]] = swapped[nodes + 3, [4, 3]]
    problems = checks.check_speed_field("f", swapped, levels, nodes, 1e-12)
    assert any("lambda- >= lambda+" in p for p in problems)


def test_speed_field_rejects_unshifted_profile(speeds_dir):
    _, values = checks.read_csv_exact(speeds_dir / "speeds_field.csv")
    levels = len(np.unique(values[:, 0]))
    nodes = values.shape[0] // levels
    moved = values.copy()
    moved[2 * nodes + 5, 3] += 1e-9
    assert checks.check_speed_field("f", moved, levels, nodes, 1e-12)


def test_round_trip_rejects_truncated_digits(speeds_dir, tmp_path):
    _, values = checks.read_csv_exact(speeds_dir / "speeds_field.csv")
    assert checks.check_round_trip("f", values, values.copy()) == []
    path = tmp_path / "short.csv"
    with open(path, "w") as fh:
        fh.write("t,vartheta,theta,lambda_minus,lambda_plus\n")
        for row in values:
            fh.write(",".join(format(v, ".15g") for v in row) + "\n")
    _, short = checks.read_csv_exact(path)
    assert checks.check_round_trip("f", short, values)


def test_read_csv_rejects_ragged_and_non_numeric_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        checks.read_csv_exact(path)
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError):
        checks.read_csv_exact(path)


def test_snapshot_passes_program_output_and_rejects_corruption(snapshot_dir, tmp_path):
    path = sorted(snapshot_dir.glob("snapshot_*.csv"))[-1]
    header, values = checks.read_snapshot(path)
    nodes = values.shape[0]
    assert checks.check_snapshot("s", header, values, 4, nodes, 0.5, 1e-6) == []
    bent = values.copy()
    bent[7, 3 + 4 + 1] += 1e-3  # p1: the one-form leaves the null cone
    assert checks.check_snapshot("s", header, bent, 4, nodes, 0.5, 1e-6)
    assert checks.check_snapshot("s", header[:-1], values[:, :-1], 4, nodes, 0.5, 1e-6)
    assert checks.check_snapshot("s", header, values[:-1], 4, nodes, 0.5, 1e-6)
    ragged = tmp_path / "ragged.csv"
    shutil.copy(path, ragged)
    with open(ragged, "a") as fh:
        fh.write("1,2\n")
    with pytest.raises(ValueError):
        checks.read_snapshot(ragged)


def test_orders():
    assert checks.check_orders("e", [4e-6, 1e-6, 2.5e-7], 2.0, 0.3) == []
    assert checks.check_orders("e", [4e-6, 1e-6, 1e-6], 2.0, 0.3)
    assert checks.check_orders("e", [4e-6, 2e-6], 2.0, 0.3)
    assert checks.check_orders("e", [0.0, 0.0], 2.0, 0.3)
