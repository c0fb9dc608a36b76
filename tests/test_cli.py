import json
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    blowup_scenario_dict,
    ori_smooth_scenario_dict,
    recorded_solve,
    recorded_staged,
)
from oracles import map_from_profiles
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


def test_consistency_breach_exits_5(tmp_path):
    # coarse grid on O(1) amplitudes: monitors breach while bounded
    cfg = ori_smooth_scenario_dict(h=float(2 * np.pi / 16), t_max=2.0)
    path = write_scenario(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 5
    # the march streams its levels out, so the snapshots written before the
    # breach stay
    assert [p.name for p in sorted((tmp_path / "o").glob("snapshot_*.csv"))] == [
        "snapshot_00000.csv"
    ]


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


def test_speeds_ordering_break_exits_2_without_the_field_file(tmp_path, capsys):
    # a flat line string with in-plane velocity 0.5 theta has speeds
    # -0.5 theta -+ 1: ordered at each node, but lam- at theta = -5 meets
    # lam+ at theta = -1, and the transported speeds cross at t = 2
    cfg = {
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
    out_dir = tmp_path / "sp"
    assert main(["speeds", str(write_scenario(tmp_path, cfg)), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().out == "speed ordering breaks at t=2, vartheta=-3\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["initial_speeds.csv"]


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
    # holds one diagonal, the speed ordering is checked in level batches and
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
    # speeds transports and writes, and simulate checks the speed ordering,
    # in batches of about five levels, and theta is evaluated only on the
    # levels written, so four times t_max leaves the peak where it was; with
    # whole-lattice speed and theta tables it grew 3.6x (speeds) and 1.8x
    # (simulate) here
    monkeypatch.setattr(cli, "LEVEL_BATCH", 1024)
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
    monkeypatch.setattr(cli, "LEVEL_BATCH", 256 * levels + 100)
    assert len(next(cli._level_batches(np.arange(204.0), 256))) == levels
    assert main(["check", str(SCENARIO_DIR / "ori_smooth.json"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "log_argument.csv").read_bytes() == smooth_log_argument


def test_speed_ordering_batches_find_the_whole_lattice_violation(monkeypatch):
    # the data of test_ordering_violation_detected_at_predicted_time, one
    # level per batch against the whole lattice at once
    lam_m = lambda s: -np.tanh(0.8 * s)
    lam_p = lambda s: -np.tanh(0.8 * s) + 0.2
    cmap = map_from_profiles(lam_m, lam_p, (-8.0, 8.0), nodes=801)
    t = 0.02 * np.arange(int(6.0 / 0.02) + 1)
    vth = np.linspace(-8.0, 8.0, 801)
    whole = transport.solve_riemann_invariants(cmap, t, vth)
    assert not whole.ordering_ok
    monkeypatch.setattr(cli, "LEVEL_BATCH", 1)
    grid = SimpleNamespace(t_nodes=t, vtheta=vth)
    assert cli._speed_ordering_violation(cmap, grid) == whole.violation


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
def test_shipped_scenarios_check_verdict_line(name, capsys):
    # each at its own t_max; the ring verdicts are those of the full-window scan
    code = main(["check", str(SCENARIO_DIR / f"{name}.json")])
    lines = capsys.readouterr().out.splitlines()
    expect_code, verdict = SHIPPED_VERDICTS[name]
    assert code == expect_code
    assert f"existence criterion: {verdict}" in lines
    if name == "ori_blowup":
        assert "blow-up time estimate t* = 4.000000" in lines


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
def test_shipped_scenarios_simulate_outcome(name, tmp_path, capsys):
    # each at its own step and t_max; ori_global (exit 5 after about 5 s) is
    # left out
    code = main(["simulate", str(SCENARIO_DIR / f"{name}.json"), "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    expect_code, last = SHIPPED_SIMULATE[name]
    assert code == expect_code
    if last is not None:
        assert lines[-1] == last
    else:
        assert not any("blow-up" in line for line in lines)


@pytest.mark.parametrize("name", list(SHIPPED_SIMULATE))
def test_shipped_scenarios_speeds_outcome(name, tmp_path, capsys):
    # each at its own step and t_max; ori_global (t <= 50, 134 MB of
    # output) is left out
    code = main(["speeds", str(SCENARIO_DIR / f"{name}.json"), "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote speed tables to {tmp_path}"]


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
    cli._write_csv(path, ["a", "b", "c"], table)
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
    # the same rows as one array and as an iterable of uneven blocks
    cuts = np.linspace(0, len(table), pieces + 1).astype(int)
    blocks = (table[a:b] for a, b in zip(cuts[:-1], cuts[1:]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "t.csv"
        for source in (table, blocks):
            cli._write_csv(path, header, source)
            assert path.read_text() == expected


def library_run(path):
    """The pipeline of ``speeds`` and ``simulate`` called through the
    library, to hold the values their CSVs must contain."""
    sc = scenario.load_scenario(path)
    model = scenario.build_model(sc)
    theta = scenario.build_theta_grid(sc)
    phi, psi = scenario.build_initial_arrays(sc, theta, model.dim)
    data = worldsheet.build_initial_data(
        model, theta, phi, psi, scenario.build_domain(sc), thresholds=sc.thresholds
    )
    cmap = transport.build_theta0(data)
    grid = lightcone.build_grid(cmap, sc.step, sc.t_max)
    fields = transport.solve_riemann_invariants(cmap, grid.t_nodes, grid.vtheta)
    mesh = transport.build_inverse_map(cmap, grid.t_nodes, grid.vtheta)
    return model, data, cmap, grid, fields, mesh


def test_speeds_field_round_trips_exactly(tmp_path):
    path = write_scenario(tmp_path, ori_smooth_scenario_dict(h=float(2 * np.pi / 64), t_max=0.5))
    assert main(["speeds", str(path), "--out", str(tmp_path / "sp")]) == 0
    _, _, _, grid, fields, mesh = library_run(path)
    _, values = read_csv(tmp_path / "sp" / "speeds_field.csv")
    expected = np.column_stack(
        [
            np.repeat(grid.t_nodes, len(grid.vtheta)),
            np.tile(grid.vtheta, len(grid.t_nodes)),
            mesh.theta.ravel(),
            fields.lam_minus.ravel(),
            fields.lam_plus.ravel(),
        ]
    )
    assert np.array_equal(values, expected)


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
