"""Outside-in span tracing of the stringsheet layers.

The tracer replaces the public functions and methods that mark each
module's boundary with thin wrappers that record one span per call: name,
round, start, end, parent span and the tracemalloc peak above the memory
held at entry.  Nothing in ``src/`` is edited; the originals are restored by
``uninstall``.  Spans are kept in memory and turned into per-layer metrics
(and optionally written out) when the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

import numpy as np

# (span name, module, attribute path).  A dotted path names a method on a
# class; "COMMANDS.<name>" names a CLI command in the dispatch table.
BOUNDARIES = [
    ("scenario.load", "scenario", "load_scenario"),
    ("worldsheet.initial_data", "worldsheet", "build_initial_data"),
    ("worldsheet.physicality", "worldsheet", "check_physicality"),
    ("transport.theta0", "transport", "build_theta0"),
    ("transport.riemann", "transport", "solve_riemann_invariants"),
    ("transport.inverse_map", "transport", "build_inverse_map"),
    ("transport.rectangle_check", "transport", "rectangle_residual"),
    ("lightcone.solve", "lightcone", "solve"),
    ("lightcone.advance", "lightcone", "advance_diagonal"),
    ("lightcone.null_residual", "lightcone", "relative_null_residuals"),
    ("metrics.contract_pq", "metrics", "MetricModel.contract_pq"),
    ("metrics.contract_pq", "metrics", "Minkowski.contract_pq"),
    ("metrics.contract_pq", "metrics", "OriGeneral.contract_pq"),
    ("ori.closed_form_build", "ori", "OriClosedForm.__init__"),
    ("ori.existence", "ori", "OriClosedForm.existence_check"),
    ("ori.flags", "ori", "OriClosedForm.corollary_flags"),
    ("ori.log_argument", "ori", "OriClosedForm.log_argument"),
    ("ori.cumulative", "ori", "OriClosedForm.cumulative"),
    ("ori.plane", "ori", "solve_plane_components"),
    ("ori.time", "ori", "solve_time_component"),
    ("ori.staged", "ori", "staged_solution"),
    ("cli.check", "cli", "COMMANDS.check"),
    ("cli.simulate", "cli", "COMMANDS.simulate"),
    ("cli.compare", "cli", "COMMANDS.compare"),
    ("cli.speeds", "cli", "COMMANDS.speeds"),
]

SETUP_ROUND = -1
# tracemalloc slows allocation-heavy Python code several-fold, so peaks come
# from one extra round of their own and times from rounds without it
MEMORY_ROUND = -2

CLI_COMMANDS = ("cli.check", "cli.simulate", "cli.compare", "cli.speeds")


def _log_argument_points(args, kwargs):
    t = kwargs.get("t", args[1] if len(args) > 1 else 0.0)
    vth = kwargs.get("vtheta", args[2] if len(args) > 2 else 0.0)
    return int(np.broadcast(np.asarray(t), np.asarray(vth)).size)


def _advanced_nodes(result):
    return int(len(result[0]))


# Work counts taken at the boundary: from the arguments before the call or
# from the result after it.
COUNT_BEFORE = {"ori.log_argument": _log_argument_points}
COUNT_AFTER = {"lightcone.advance": _advanced_nodes}


class Tracer:
    """Records spans for wrapped calls.  One instance per traced run."""

    def __init__(self):
        # span: [name, round, start, end, parent index, peak bytes, work count]
        self.spans = []
        self.round = SETUP_ROUND
        self.memory = False
        self._stack = []
        self._restore = []

    # -- patching ------------------------------------------------------------

    def install(self, package):
        for name, module_name, path in BOUNDARIES:
            module = getattr(package, module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "COMMANDS":
                table = module.COMMANDS
                self._restore.append((table.__setitem__, attr, table[attr]))
                table[attr] = self._wrap(name, table[attr])
            elif owner_name:
                cls = getattr(module, owner_name)
                if attr not in vars(cls):
                    continue
                original = vars(cls)[attr]
                self._restore.append((functools.partial(setattr, cls), attr, original))
                setattr(cls, attr, self._wrap(name, original))
            else:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                # rebind every alias, e.g. names imported with ``from .x import``
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != package.__name__:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((functools.partial(setattr, mod), key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    def start_memory(self):
        """Switch to the memory round: tracemalloc on, spans give peaks only."""
        self.round = MEMORY_ROUND
        self.memory = True
        tracemalloc.start()

    def stop_memory(self):
        self.memory = False
        tracemalloc.stop()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        before = COUNT_BEFORE.get(name)
        after = COUNT_AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = before(args, kwargs) if before else 0
            span = [name, self.round, 0.0, 0.0, stack[-1][0] if stack else -1, 0, 0]
            frame = [len(spans), 0, 0]  # index, running peak, memory at entry
            spans.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                tracemalloc.reset_peak()
                frame[1] = frame[2] = current
            stack.append(frame)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if self.memory:
                    frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
                    span[5] = frame[1] - frame[2]
                    if stack:
                        stack[-1][1] = max(stack[-1][1], frame[1])
            if after:
                count += after(result)
            span[6] = count
            return result

        return wrapper

    # -- reporting -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, cli_output):
        """Per-layer metrics.  Set-up spans give the scenario and initial-data
        figures, the memory round gives the peaks, and every other figure is
        the median over the timing rounds.  ``cli_output`` lists the
        (rows, bytes) written in each timing round."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        advance_time = [0.0] * len(spans)
        for span in spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
                if span[0] == "lightcone.advance":
                    advance_time[span[4]] += span[3] - span[2]
        # the outermost span of a name carries its time; nested repeats do not
        outer = []
        for i, span in enumerate(spans):
            j = span[4]
            while j >= 0 and spans[j][0] != span[0]:
                j = spans[j][4]
            outer.append(j < 0)

        rounds = sorted({s[1] for s in spans if s[1] >= 0})
        per_round = {r: _RoundTotals() for r in rounds + [SETUP_ROUND, MEMORY_ROUND]}
        for i, span in enumerate(spans):
            tot = per_round[span[1]]
            name = span[0]
            dur = span[3] - span[2]
            tot.calls[name] = tot.calls.get(name, 0) + 1
            tot.work[name] = tot.work.get(name, 0) + span[6]
            tot.peak[name] = max(tot.peak.get(name, 0), span[5])
            if outer[i]:
                tot.time[name] = tot.time.get(name, 0.0) + dur
            if name == "lightcone.solve":
                monitor = dur - advance_time[i]
                tot.time["lightcone.monitor"] = tot.time.get("lightcone.monitor", 0.0) + monitor
            if name in CLI_COMMANDS:
                tot.time["cli.self"] = tot.time.get("cli.self", 0.0) + dur - child_time[i]

        setup = per_round[SETUP_ROUND]
        memory = per_round[MEMORY_ROUND]
        out = {
            "scenario.load_s": setup.time.get("scenario.load", 0.0),
            "worldsheet.initial_data_s": setup.time.get("worldsheet.initial_data", 0.0),
        }

        def med(fn):
            return statistics.median(fn(per_round[r]) for r in rounds) if rounds else 0.0

        for key, span_name in [
            ("worldsheet.physicality_s", "worldsheet.physicality"),
            ("transport.theta0_s", "transport.theta0"),
            ("transport.riemann_s", "transport.riemann"),
            ("transport.inverse_map_s", "transport.inverse_map"),
            ("transport.rectangle_check_s", "transport.rectangle_check"),
            ("lightcone.solve_s", "lightcone.solve"),
            ("lightcone.advance_s", "lightcone.advance"),
            ("lightcone.monitor_s", "lightcone.monitor"),
            ("lightcone.null_residual_s", "lightcone.null_residual"),
            ("metrics.contract_pq_s", "metrics.contract_pq"),
            ("ori.closed_form_build_s", "ori.closed_form_build"),
            ("ori.existence_s", "ori.existence"),
            ("ori.flags_s", "ori.flags"),
            ("ori.log_argument_s", "ori.log_argument"),
            ("ori.cumulative_s", "ori.cumulative"),
            ("ori.plane_s", "ori.plane"),
            ("ori.time_s", "ori.time"),
            ("ori.staged_s", "ori.staged"),
            ("cli.check_s", "cli.check"),
            ("cli.simulate_s", "cli.simulate"),
            ("cli.compare_s", "cli.compare"),
            ("cli.speeds_s", "cli.speeds"),
            ("cli.self_s", "cli.self"),
        ]:
            out[key] = med(lambda t, n=span_name: t.time.get(n, 0.0))
        for key, span_name in [
            ("transport.rectangle_checks", "transport.rectangle_check"),
            ("lightcone.advance_calls", "lightcone.advance"),
            ("lightcone.null_residual_calls", "lightcone.null_residual"),
            ("metrics.contract_pq_calls", "metrics.contract_pq"),
            ("ori.log_argument_calls", "ori.log_argument"),
            ("ori.cumulative_calls", "ori.cumulative"),
        ]:
            out[key] = med(lambda t, n=span_name: t.calls.get(n, 0))
        out["lightcone.nodes_advanced"] = med(lambda t: t.work.get("lightcone.advance", 0))
        out["ori.log_argument_points"] = med(lambda t: t.work.get("ori.log_argument", 0))

        mb = 1e-6
        out["transport.peak_mb"] = mb * max(
            memory.peak.get(n, 0)
            for n in ("transport.theta0", "transport.riemann", "transport.inverse_map")
        )
        out["lightcone.solve_peak_mb"] = mb * memory.peak.get("lightcone.solve", 0)
        out["ori.staged_peak_mb"] = mb * memory.peak.get("ori.staged", 0)
        rows = [c[0] for c in cli_output]
        nbytes = [c[1] for c in cli_output]
        out["cli.rows_written"] = statistics.median(rows) if rows else 0
        out["cli.bytes_written"] = statistics.median(nbytes) if nbytes else 0
        self_s = out["cli.self_s"]
        out["cli.write_mb_per_s"] = mb * out["cli.bytes_written"] / self_s if self_s > 0 else 0.0
        return out


class _RoundTotals:
    def __init__(self):
        self.time = {}
        self.calls = {}
        self.work = {}
        self.peak = {}

