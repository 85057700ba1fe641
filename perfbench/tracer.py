"""Span and counter recorder for the traced benchmark run.

Hooks replace a function in the namespace of the module that calls it:
patching ``coupling.solve_backward`` times the backward sweeps the fixed-point
engine runs and nothing else, because every other caller holds its own
reference.  Each call becomes a span (name, start, end, parent).  Functions
called hundreds of thousands of times per run (``maximize_over``, law
construction, set realization) go into aggregate counters instead; their time
is still charged to the enclosing span, so self times stay exact.  Everything
is kept in memory and written once, when the run ends.

A hook whose target no longer exists logs a warning and its metrics are left
out of the report instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager

_clock = time.perf_counter


def _noise_bytes(args, result):
    return {"sde.noise_bytes": result.nbytes}


def _regression_work(args, result):
    """Rows and a flop model of one node regression (computed, not measured).

    The model counts a singular-value pass and a least-squares solve on the
    n x p design matrix (4 n p^2 each) plus the fitted values (2 n p m).  A
    frozen state cloud is reduced to means by the solver and counts as no work.
    """
    x, targets, degree = args[:3]
    n = x.shape[0]
    k = int((x.max(axis=0) > x.min(axis=0)).sum())
    if k == 0:
        return {}
    p = math.comb(k + int(degree), int(degree))
    m = 1 if targets.ndim == 1 else targets.shape[1]
    return {"bsde.regression_rows": n, "bsde.regression_flop": 8 * n * p * p + 2 * n * p * m}


def _grid_work(args, result):
    # solve_hjb(spec, grid1d, flow): one explicit update per space node and time layer
    grid1d = args[1]
    return {"pde.node_updates": int(grid1d.nx) * int(grid1d.nt)}


def _file_bytes(key):
    def measure(args, result):
        return {key: os.path.getsize(args[0])}
    return measure


def _sweeps(args, result):
    return {"coupling.sweeps": result[1].iterations}


def _ties(args, result):
    return {"optimizer.tie_events": 1} if result.tie_flag else {}


_PROPERTY_CHECKS = (
    "check_dynamic_consistency", "check_monotonicity", "check_subadditivity",
    "check_translation_invariance", "theta_expectation", "martingale_diagnostics",
    "y0_standard_error",
)
_PATHS_BYTES = _file_bytes("sde.paths_csv_bytes")
_SURFACE_BYTES = _file_bytes("pde.surface_csv_bytes")

# (caller module, attribute, span or counter, layer key, work counted from the
# arguments and result).  The benchmark's own calls go through the
# ``theta_fbsde`` package namespace, the command line's through
# ``theta_fbsde.cli``.
HOOKS = [
    ("theta_fbsde", "picard_solve", "span", "coupling.solve", _sweeps),
    ("theta_fbsde", "feynman_kac_check", "span", "pde.feynman_kac", None),
    ("theta_fbsde", "write_surface_csv", "span", "pde.surface_csv", _SURFACE_BYTES),
    *[("theta_fbsde", name, "span", "properties.checks", None) for name in _PROPERTY_CHECKS],
    ("theta_fbsde.cli", "_load_config", "span", "cli.config", None),
    ("theta_fbsde.cli", "build_problem", "span", "cli.config", None),
    ("theta_fbsde.cli", "_solver_params", "span", "cli.config", None),
    ("theta_fbsde.cli", "_write_json", "span", "cli.json_write", None),
    ("theta_fbsde.cli", "picard_solve", "span", "coupling.solve", _sweeps),
    ("theta_fbsde.cli", "write_paths_csv", "span", "sde.paths_csv", _PATHS_BYTES),
    ("theta_fbsde.cli", "feynman_kac_check", "span", "pde.feynman_kac", None),
    ("theta_fbsde.cli", "write_surface_csv", "span", "pde.surface_csv", _SURFACE_BYTES),
    ("theta_fbsde.cli", "run_counterexample", "span", "scenarios.counterexample", None),
    *[("theta_fbsde.cli", name, "span", "properties.checks", None)
      for name in _PROPERTY_CHECKS if name != "y0_standard_error"],
    ("theta_fbsde.scenarios", "picard_solve", "span", "coupling.solve", _sweeps),
    ("theta_fbsde.scenarios", "check_subadditivity", "span", "properties.checks", None),
    ("theta_fbsde.scenarios", "theta_expectation", "span", "properties.checks", None),
    ("theta_fbsde.properties", "picard_solve", "span", "properties.resolve", _sweeps),
    ("theta_fbsde.properties", "_node_regression", "span", "bsde.regression", _regression_work),
    ("theta_fbsde.properties", "solve_deterministic_ode", "span", "bsde.ode", None),
    ("theta_fbsde.coupling", "brownian_increments", "span", "sde.noise", _noise_bytes),
    ("theta_fbsde.coupling", "simulate_forward", "span", "sde.forward", None),
    ("theta_fbsde.coupling", "solve_backward", "span", "bsde.backward", None),
    ("theta_fbsde.coupling", "maximize_over", "counter", "optimizer.argmax", _ties),
    ("theta_fbsde.coupling", "EmpiricalMeasure", "counter", "measures.law", None),
    ("theta_fbsde.bsde", "_node_regression", "span", "bsde.regression", _regression_work),
    ("theta_fbsde.bsde", "polynomial_basis", "span", "bsde.basis", None),
    ("theta_fbsde.pde", "solve_hjb", "span", "pde.hjb", _grid_work),
    ("theta_fbsde.pde", "maximize_over", "counter", "pde.argmax", _ties),
    ("theta_fbsde.optimizer", "maximize_over", "counter", "optimizer.argmax", _ties),
    ("theta_fbsde.uncertainty", "AmbiguityMap.realize", "counter", "uncertainty.realize", None),
]


class Recorder:
    """In-memory spans, aggregate counters and computed work counts."""

    def __init__(self):
        self.spans: list[list] = []          # [name, key, start, end, parent, charged]
        self.counters: dict[str, list] = {}  # key -> [calls, seconds]
        self.work: dict[str, float] = {}     # computed counts, e.g. bytes or rows
        self.installed: set[str] = set()     # layer keys with at least one live hook
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _add_work(self, counts):
        for name, value in counts.items():
            self.work[name] = self.work.get(name, 0) + value

    @contextmanager
    def span(self, name, key=None):
        """Record one span around the enclosed block while recording is on."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, key or name, _clock(), None, parent, 0.0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = _clock()

    def _span_hook(self, name, key, fn, work):
        @functools.wraps(fn, updated=())
        def hooked(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, key):
                result = fn(*args, **kwargs)
            if work is not None:
                self._add_work(work(args, result))
            return result

        return hooked

    def _counter_hook(self, key, fn, work):
        counter = self.counters.setdefault(key, [0, 0.0])

        @functools.wraps(fn, updated=())
        def hooked(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = _clock()
            result = fn(*args, **kwargs)
            elapsed = _clock() - start
            counter[0] += 1
            counter[1] += elapsed
            if self._stack:
                self.spans[self._stack[-1]][5] += elapsed
            if work is not None:
                self._add_work(work(args, result))
            return result

        return hooked

    # -- hooks --------------------------------------------------------------

    def install(self, hooks=HOOKS):
        """Patch every hook target; warn about and skip the ones that are gone."""
        for module_name, attr, kind, key, work in hooks:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                print(f"warning: hook target {module_name}.{attr} not found; "
                      f"'{key}' metrics fed by it are left out", file=sys.stderr)
                continue
            name = f"{module_name.removeprefix('theta_fbsde.')}.{attr}"
            if kind == "span":
                wrapped = self._span_hook(name, key, original, work)
            else:
                wrapped = self._counter_hook(key, original, work)
            setattr(owner, leaf, wrapped)
            self._patches.append((owner, leaf, original))
            self.installed.add(key)

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def _by_key(self):
        """Per layer key: calls, total time and self time.

        A span nested inside a span of the same key adds to the call count
        but not to the time, so recursion through a layer is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, list] = {}
        for i, (name, key, start, end, parent, charged) in enumerate(self.spans):
            entry = stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            outer = parent
            while outer >= 0 and self.spans[outer][1] != key:
                outer = self.spans[outer][4]
            if outer < 0:
                entry[1] += end - start
            entry[2] += end - start - child_time[i] - charged
        return stats

    def layer_metrics(self, root: str) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, value and unit.

        ``root`` names the span around the timed workload; its self time is
        the time no layer accounts for.
        """
        stats = self._by_key()
        counters = self.counters
        work = self.work
        have = self.installed
        out: dict[str, tuple[float, str]] = {}

        def calls(key):
            return stats.get(key, (0, 0.0, 0.0))[0]

        def secs(key):
            return stats.get(key, (0, 0.0, 0.0))[1]

        def put(name, value, unit, *needs):
            if all(n in have for n in needs):
                out[name] = (value, unit)

        csv_s = secs("sde.paths_csv")
        csv_mb = work.get("sde.paths_csv_bytes", 0) / 1e6
        put("sde.paths_csv_s", csv_s, "s", "sde.paths_csv")
        put("sde.paths_csv_mb", csv_mb, "MB", "sde.paths_csv")
        put("sde.paths_csv_mb_per_s", csv_mb / csv_s if csv_s > 0 else 0.0, "MB/s", "sde.paths_csv")
        put("sde.noise_s", secs("sde.noise"), "s", "sde.noise")
        put("sde.noise_calls", calls("sde.noise"), "count", "sde.noise")
        put("sde.noise_mb", work.get("sde.noise_bytes", 0) / 1e6, "MB", "sde.noise")
        put("sde.forward_s", secs("sde.forward"), "s", "sde.forward")
        put("sde.forward_calls", calls("sde.forward"), "count", "sde.forward")

        put("bsde.backward_s", secs("bsde.backward"), "s", "bsde.backward")
        put("bsde.backward_calls", calls("bsde.backward"), "count", "bsde.backward")
        put("bsde.regressions", calls("bsde.regression"), "count", "bsde.regression")
        put("bsde.regression_s", secs("bsde.regression"), "s", "bsde.regression")
        put("bsde.regression_rows", work.get("bsde.regression_rows", 0), "count", "bsde.regression")
        put("bsde.regression_mflop", work.get("bsde.regression_flop", 0) / 1e6, "Mflop",
            "bsde.regression")
        put("bsde.basis_s", secs("bsde.basis"), "s", "bsde.basis")
        put("bsde.ode_s", secs("bsde.ode"), "s", "bsde.ode")
        put("bsde.ode_calls", calls("bsde.ode"), "count", "bsde.ode")

        argmax_calls = sum(counters.get(k, (0, 0.0))[0] for k in ("optimizer.argmax", "pde.argmax"))
        argmax_s = sum(counters.get(k, (0, 0.0))[1] for k in ("optimizer.argmax", "pde.argmax"))
        put("optimizer.argmax_calls", argmax_calls, "count", "optimizer.argmax")
        put("optimizer.argmax_s", argmax_s, "s", "optimizer.argmax")
        put("optimizer.argmax_us", 1e6 * argmax_s / argmax_calls if argmax_calls else 0.0, "us",
            "optimizer.argmax")
        put("optimizer.tie_events", work.get("optimizer.tie_events", 0), "count", "optimizer.argmax")

        put("pde.hjb_s", secs("pde.hjb"), "s", "pde.hjb")
        put("pde.argmax_calls", counters.get("pde.argmax", (0, 0.0))[0], "count", "pde.argmax")
        put("pde.node_updates", work.get("pde.node_updates", 0), "count", "pde.hjb")
        put("pde.surface_csv_s", secs("pde.surface_csv"), "s", "pde.surface_csv")
        put("pde.surface_csv_mb", work.get("pde.surface_csv_bytes", 0) / 1e6, "MB", "pde.surface_csv")

        put("measures.laws_built", counters.get("measures.law", (0, 0.0))[0], "count", "measures.law")
        put("measures.law_s", counters.get("measures.law", (0, 0.0))[1], "s", "measures.law")
        put("uncertainty.realize_calls", counters.get("uncertainty.realize", (0, 0.0))[0], "count",
            "uncertainty.realize")
        put("uncertainty.realize_s", counters.get("uncertainty.realize", (0, 0.0))[1], "s",
            "uncertainty.realize")

        solves = calls("coupling.solve") + calls("properties.resolve")
        solve_s = secs("coupling.solve") + secs("properties.resolve")
        sweeps = work.get("coupling.sweeps", 0)
        self_s = sum(stats.get(k, (0, 0.0, 0.0))[2] for k in ("coupling.solve", "properties.resolve"))
        put("coupling.solves", solves, "count", "coupling.solve")
        put("coupling.sweeps", sweeps, "count", "coupling.solve")
        put("coupling.solve_s", solve_s, "s", "coupling.solve")
        put("coupling.self_s", self_s, "s", "coupling.solve")
        put("coupling.sweep_ms", 1e3 * solve_s / sweeps if sweeps else 0.0, "ms", "coupling.solve")

        put("properties.checks_s", secs("properties.checks"), "s", "properties.checks")
        put("properties.resolves", calls("properties.resolve"), "count", "properties.resolve")
        put("scenarios.counterexample_s", secs("scenarios.counterexample"), "s",
            "scenarios.counterexample")
        put("cli.config_s", secs("cli.config"), "s", "cli.config")
        put("cli.json_write_s", secs("cli.json_write"), "s", "cli.json_write")
        out["trace.unattributed_s"] = (stats.get(root, (0, 0.0, 0.0))[2], "s")
        return out

    def write(self, path):
        """Write the spans and counters as JSON; times are seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = {
            "spans": [
                {"name": name, "layer": key, "start": start - t0, "end": end - t0, "parent": parent}
                for name, key, start, end, parent, _ in self.spans
            ],
            "counters": {k: {"calls": c, "seconds": s} for k, (c, s) in self.counters.items()},
            "work": self.work,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
