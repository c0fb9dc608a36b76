"""One workload in its own process: set-up, timed rounds, output checks.

Started by ``run.py``; prints one JSON object on its last line of output.
``--spawned-at`` is the CLOCK_MONOTONIC reading taken by the parent just
before it started this process, so ``setup_s`` covers interpreter start-up,
the imports of numpy, scipy and stringsheet, loading the scenarios and
building the initial data.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def count_output(directory):
    """(CSV rows, bytes) of every file a round wrote under ``directory``."""
    rows = nbytes = 0
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        nbytes += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    return rows, nbytes


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import stringsheet

    if Path(stringsheet.__file__).resolve().parent != (root / "src" / "stringsheet").resolve():
        print(f"stringsheet imported from {stringsheet.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(stringsheet)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    round_s, cpu_s, cli_output = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    k = 0
    while True:
        out = args.out / f"round{k}"
        ops = workload.ops(out)
        gc.collect()
        if tracer:
            tracer.round = k
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = workloads.run_round(ops)
        round_s.append(time.perf_counter() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s.append((r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime))
        attempted += len(ops)
        failed += len(result.failed)
        for label in result.failed:
            print(f"failed: {label}: {result.outcomes[label]}", file=sys.stderr)
        if tracer:
            cli_output.append(count_output(out))
        # whole rounds only: stop before a round that would end after --seconds
        if time.monotonic() - start + round_s[-1] > args.seconds:
            break
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "round_s": round_s,
        "cpu_s": cpu_s,
        "wall_s": statistics.median(round_s),
        "peak_rss_mb": peak_rss_mb,
        "points": workload.points(),
        "attempted": attempted,
        "failed": failed,
    }
    if tracer:
        memory_out = args.out / "memory"
        ops = workload.ops(memory_out)
        gc.collect()
        tracer.start_memory()
        memory_result = workloads.run_round(ops)
        tracer.stop_memory()
        shutil.rmtree(memory_out, ignore_errors=True)
        report["attempted"] += len(ops)
        report["failed"] += len(memory_result.failed)
        tracer.uninstall()
        report["layers"] = tracer.metrics(cli_output)
        tracer.dump(args.out.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")
    problems = workload.check(result, out)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    report["correct"] = not problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
