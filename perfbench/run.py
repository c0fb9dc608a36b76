"""stringsheet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a stringsheet checkout.  The workload runs in its own
process (``worker.py``) with a one-thread BLAS pool.  With ``--trace 0`` the
end-to-end metrics are printed: ``wall_s`` (median round time),
``points_per_s``, ``setup_s`` (median over several fresh processes) and
``peak_rss_mb``.  With ``--trace 1`` the per-layer metrics of a traced run
are printed instead.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("existence_scan", "lattice_march", "staged_compare", "csv_output")
SETUP_PROBES = 3  # extra set-up-only processes; the worker's own set-up is one more sample
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
OUT_DIR = ".perfbench_out"

LAYER_UNITS = {"_s": "s", "_mb": "MB", "_mb_per_s": "MB/s"}


def layer_unit(name):
    for suffix in ("_mb_per_s", "_mb", "_s"):
        if name.endswith(suffix):
            return LAYER_UNITS[suffix]
    return "count"


def spawn(args, out, extra, timeout):
    env = dict(os.environ)
    # one BLAS thread: the workload's load is a single process
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), *extra,
    ]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stringsheet" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        print("perfbench: run from the root of a stringsheet checkout "
              "(src/stringsheet and scenarios/ not found)", file=sys.stderr)
        return 2
    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, out, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"])
        report = spawn(args, out, [], WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in report["layers"].items()}
    else:
        setups.append(report["setup_s"])
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "points_per_s": {"value": report["points"] / report["wall_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for wall, (user, system) in zip(report["round_s"], report["cpu_s"]):
        print(f"round: wall {wall:.3f} s, user {user:.3f} s, sys {system:.3f} s", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
