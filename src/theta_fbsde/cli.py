"""Command-line entry point: config parsing, subcommand dispatch, artifacts.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure,
3 property-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from ._atomic import atomic_write
from .coupling import picard_solve
from .errors import NumericalError, UsageError
from .optimizer import LinearF0, TableF0
from .pde import Grid1D, check_contains_x0, check_stability, default_grid, feynman_kac_check, write_surface_csv
from .properties import (
    check_dynamic_consistency,
    check_monotonicity,
    check_subadditivity,
    check_translation_invariance,
    martingale_diagnostics,
    subadditivity_gate,
    theta_expectation,
    translation_defect_gate,
)
from .scenarios import build_application_spec, quartic_reduction, run_application, run_counterexample
from .sde import (
    ConstantTerminal,
    LinearTerminal,
    ProblemSpec,
    QuadraticTerminal,
    TimeGrid,
    write_paths_csv,
)
from .uncertainty import AmbiguityMap, IntervalUnion


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _reject_unknown(section: dict, allowed: set[str], context: str) -> None:
    if not isinstance(section, dict):
        raise UsageError(f"{context} must be a JSON object, got {section!r}")
    for key in section:
        if key not in allowed:
            raise UsageError(f"unknown field '{key}' in {context}")


def _integer(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _number(value) -> float:
    """``float(value)`` of a JSON number; a boolean or a string is refused,
    though ``float()`` would take it."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _finite(value) -> float:
    number = _number(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


def _array(value) -> np.ndarray:
    cells = np.asarray(value, dtype=object)  # a ragged list keeps its rows, which _number refuses
    return np.array([_number(v) for v in cells.flat], dtype=float).reshape(cells.shape)


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return _number(lo), _number(hi)


def _pairs(value) -> tuple[tuple[float, float], ...]:
    return tuple(_pair(p) for p in value)


def _field(cfg: dict, key: str, convert, context: str, *default):
    """``convert`` applied to ``cfg[key]`` (or to the default when one is given).

    A missing required field raises ``KeyError``, which the entry point reports
    by name; a value of the wrong type or shape becomes a :class:`UsageError`.
    """
    value = cfg.get(key, *default) if default else cfg[key]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed field '{key}' in {context}: {value!r}") from exc


def _kind(cfg: dict, fields: dict[str, tuple[str, ...]], default: str, context: str) -> str:
    """The ``kind`` of a section whose other fields are all ones that kind reads.

    ``fields`` maps each kind to the fields it reads besides ``kind``.
    """
    _reject_unknown(cfg, {"kind"}.union(*fields.values()), context)
    kind = cfg.get("kind", default)
    if not isinstance(kind, str) or kind not in fields:
        raise UsageError(f"unknown {context} kind {kind!r}")
    for key in cfg:
        if key != "kind" and key not in fields[kind]:
            raise UsageError(f"field '{key}' does not apply to {context} kind '{kind}'")
    return kind


_THETA_RULE_FIELDS = {"constant": ("value",), "affine": ("alpha", "beta", "bounds")}
_F0_FIELDS = {"zero": (), "linear": ("slope",), "table": ("ys", "values")}
_TERMINAL_FIELDS = {"linear": ("coeffs",), "quadratic": (), "constant": ("value",)}


def build_ambiguity(cfg: dict) -> AmbiguityMap:
    """The map of an ``ambiguity`` section; its ``theta_rule`` is ``constant``
    (``value``) or ``affine`` (``alpha``, ``beta``, ``bounds``)."""
    _reject_unknown(cfg, {"intervals", "theta_rule", "endpoint_shifts"}, "ambiguity")
    base = IntervalUnion(_field(cfg, "intervals", _pairs, "ambiguity"))
    shifts = _field(cfg, "endpoint_shifts", lambda v: tuple(_number(s) for s in v), "ambiguity", ())
    rule = cfg.get("theta_rule", {})
    if _kind(rule, _THETA_RULE_FIELDS, "constant", "theta_rule") == "constant":
        value = _field(rule, "value", _finite, "theta_rule", 0.0)
        return AmbiguityMap(base, shifts, theta_bounds=(value, value))
    bounds = _field(rule, "bounds", _pair, "theta_rule")
    alpha = _field(rule, "alpha", _number, "theta_rule", 0.0)
    beta = _field(rule, "beta", _number, "theta_rule", 0.0)
    return AmbiguityMap(base, shifts, alpha=alpha, beta=beta, theta_bounds=bounds)


def _build_f0(cfg: dict):
    kind = _kind(cfg, _F0_FIELDS, "zero", "f0")
    if kind == "zero":
        return LinearF0(0.0)
    if kind == "linear":
        return LinearF0(_field(cfg, "slope", _number, "f0"))
    return TableF0(_field(cfg, "ys", _array, "f0"), _field(cfg, "values", _array, "f0"))


def _build_terminal(cfg: dict):
    kind = _kind(cfg, _TERMINAL_FIELDS, "linear", "terminal")
    if kind == "linear":
        return LinearTerminal(_field(cfg, "coeffs", _array, "terminal", [1.0]))
    if kind == "quadratic":
        return QuadraticTerminal()
    return ConstantTerminal(_field(cfg, "value", _number, "terminal"))


def build_problem(cfg: dict) -> ProblemSpec:
    allowed = {
        "kind", "C0", "C1", "sigma", "x0", "T", "kappa", "w0", "f0", "terminal", "ambiguity",
    }
    _reject_unknown(cfg, allowed, "problem")
    if cfg.get("kind", "application") != "application":
        raise UsageError(f"unknown problem kind '{cfg.get('kind')}'")
    return build_application_spec(
        C0=_field(cfg, "C0", _array, "problem"),
        C1=_field(cfg, "C1", _array, "problem"),
        sigma=_field(cfg, "sigma", _array, "problem"),
        kappa=_field(cfg, "kappa", _number, "problem", 1.0),
        w0=_field(cfg, "w0", _number, "problem", 0.0),
        f0=_build_f0(cfg.get("f0", {})),
        ambiguity=build_ambiguity(cfg["ambiguity"]),
        x0=_field(cfg, "x0", _array, "problem"),
        horizon=_field(cfg, "T", _number, "problem"),
        terminal=_build_terminal(cfg.get("terminal", {})),
    )


# The solver settings that a command-line flag can override.
_SOLVER_FLAGS = ("particles", "steps", "seed", "tol", "max_iter")


def _solver_params(cfg: dict, args) -> dict:
    defaults = {
        "particles": (_integer, 10_000), "steps": (_integer, 100), "seed": (_integer, 0),
        "tol": (_number, 1e-6), "max_iter": (_integer, 50), "beta": (_number, 1.0),
        "damping": (_number, 1.0),
    }
    _reject_unknown(cfg, set(defaults), "solver")
    params = {
        name: _field(cfg, name, convert, "solver", default)
        for name, (convert, default) in defaults.items()
    }
    for name in _SOLVER_FLAGS:
        flag = getattr(args, name, None)
        if flag is not None:
            params[name] = flag
    return params


def _picard_options(params: dict) -> dict:
    """The fixed-point options of :func:`picard_solve` among the solver parameters."""
    return {name: params[name] for name in ("tol", "max_iter", "beta", "damping")}


def _configured(cfg: dict, args):
    """The configured problem, its time grid and the solver parameters."""
    spec = build_problem(cfg["problem"])
    params = _solver_params(cfg.get("solver", {}), args)
    return spec, TimeGrid(spec.horizon, params["steps"]), params


def _solve(spec: ProblemSpec, grid: TimeGrid, params: dict):
    """Solve with every solver parameter; returns the solution and the report."""
    return picard_solve(
        spec, grid, params["particles"], seed=params["seed"], **_picard_options(params)
    )


def _load_config(path: str | None) -> dict:
    if path is None:
        raise UsageError("--config is required for this subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    _reject_unknown(cfg, {"problem", "solver"}, "config")
    t0 = time.perf_counter()
    spec, grid, params = _configured(cfg, args)
    sol, report = _solve(spec, grid, params)
    wall = time.perf_counter() - t0
    out = _out_dir(args)
    t0 = time.perf_counter()
    write_paths_csv(out / "paths.csv", sol)
    write_time = time.perf_counter() - t0
    _write_json(out / "summary.json", {
        "Y0": sol.y0,
        "iterations": report.iterations,
        "converged": report.converged,
        "seed": params["seed"],
        "wall_time_s": wall,
        "write_time_s": write_time,
    })
    _write_json(out / "picard_report.json", report.to_dict())
    print(
        f"solve: Y0={sol.y0:.6f} iterations={report.iterations} "
        f"converged={report.converged} out={out}"
    )
    return 0


def _cmd_counterexample(args) -> int:
    report = run_counterexample(args.lam, args.gamma, c=args.c, horizon=args.T, n_steps=args.steps)
    print(
        f"counterexample: gap={report.subadditivity_gap:+.6f} "
        f"e_plus={report.e_plus:.6f} e_minus={report.e_minus:.6f} "
        f"curvature={report.curvature_analytic:.6f}"
    )
    if args.out is not None:
        out = _out_dir(args)
        _write_json(out / "counterexample_report.json", report.to_dict())
    return 0


def _cmd_application(args) -> int:
    cfg = _load_config(args.config)
    _reject_unknown(cfg, {"problem", "solver"}, "config")
    spec, grid, params = _configured(cfg, args)
    report = run_application(
        spec, grid, params["particles"], seed=params["seed"], **_picard_options(params)
    )
    out = _out_dir(args)
    write_paths_csv(out / "paths_nonconvex.csv", report.solution_nonconvex)
    write_paths_csv(out / "paths_hull.csv", report.solution_hull)
    _write_json(out / "comparison_report.json", report.to_dict())
    print(
        f"application: controls {report.control_nonconvex:g} vs {report.control_hull:g}, "
        f"multipliers {report.multiplier_nonconvex:g} vs {report.multiplier_hull:g}, "
        f"Y0 {report.y0_nonconvex:.6f} vs {report.y0_hull:.6f}"
    )
    return 0


def _pde_grid(spec: ProblemSpec, pde_cfg: dict) -> Grid1D:
    """The grid of a ``"pde"`` section, checked to hold ``x0`` and be stable before any solve.

    ``nt``, ``x_min`` and ``x_max`` come together with ``nx`` (an explicit
    grid) or not at all (the default grid, built from ``nx`` and ``cfl``).
    """
    if {"nt", "x_min", "x_max"} & set(pde_cfg):
        missing = sorted({"nx", "nt", "x_min", "x_max"} - set(pde_cfg))
        if missing:
            raise UsageError(
                f"an explicit pde grid needs nx, nt, x_min and x_max; missing {', '.join(missing)}"
            )
        if "cfl" in pde_cfg:
            raise UsageError("cfl sets the default pde grid only; drop it or nt, x_min and x_max")
        grid1d = Grid1D(
            _field(pde_cfg, "x_min", _number, "pde"), _field(pde_cfg, "x_max", _number, "pde"),
            _field(pde_cfg, "nx", _integer, "pde"), _field(pde_cfg, "nt", _integer, "pde"),
        )
    else:
        nx = _field(pde_cfg, "nx", _integer, "pde", 201)
        grid1d = default_grid(spec, nx=nx, cfl=_field(pde_cfg, "cfl", _number, "pde", 0.45))
    check_contains_x0(spec, grid1d)
    check_stability(spec, grid1d)
    return grid1d


def _cmd_pde_check(args) -> int:
    cfg = _load_config(args.config)
    _reject_unknown(cfg, {"problem", "solver", "pde"}, "config")
    pde_cfg = cfg.get("pde", {})
    _reject_unknown(pde_cfg, {"nx", "nt", "x_min", "x_max", "cfl"}, "pde")
    spec, grid, params = _configured(cfg, args)
    grid1d = _pde_grid(spec, pde_cfg)
    sol, _ = _solve(spec, grid, params)
    report = feynman_kac_check(spec, grid1d, grid, sol)
    out = _out_dir(args)
    _write_json(out / "feynman_kac_report.json", report.to_dict())
    write_surface_csv(out / "value_surface.csv", grid1d, spec.horizon, report.surface)
    print(
        f"pde-check: v0={report.v0:.6f} Y0={report.y0:.6f} "
        f"relative_gap={report.relative_gap:.4%}"
    )
    return 0


def _cmd_properties(args) -> int:
    cfg = _load_config(args.config)
    _reject_unknown(cfg, {"counterexample", "problem", "solver"}, "config")
    if "problem" not in cfg:
        unused = ["a 'solver' section"] if "solver" in cfg else []
        unused += [
            f"--{name.replace('_', '-')}" for name in _SOLVER_FLAGS if getattr(args, name) is not None
        ]
        if unused:
            raise UsageError(
                f"{', '.join(unused)} set the solve of a 'problem' section, and the config has none"
            )
    results: dict[str, dict] = {}

    if "counterexample" in cfg:
        ce = cfg["counterexample"]
        _reject_unknown(ce, {"lambda", "gamma", "c", "T", "steps", "split"}, "counterexample")
        lam = _field(ce, "lambda", _number, "counterexample")
        gamma = _field(ce, "gamma", _number, "counterexample")
        c = _field(ce, "c", _finite, "counterexample", 0.1)
        horizon = _field(ce, "T", _number, "counterexample", 1.0)
        steps = _field(ce, "steps", _integer, "counterexample", 1000)
        split = _field(ce, "split", _number, "counterexample", horizon / 2)
        spec = quartic_reduction(lam, gamma, c, horizon)
        grid = TimeGrid(horizon, steps)

        disc = check_dynamic_consistency(spec, grid, c, split)
        results["dynamic_consistency"] = {"discrepancy": disc, "passed": disc <= 1e-8}
        mono = check_monotonicity(spec, grid, abs(c), -abs(c))
        results["monotonicity"] = {"margin": mono.margin, "passed": not mono.violated}
        sub = check_subadditivity(spec, c, grid)
        results["subadditivity_violation"] = subadditivity_gate(spec, c, grid, sub.gap)
        defect = check_translation_invariance(spec, 0.0, c, grid)
        coarse = check_translation_invariance(spec, 0.0, c, TimeGrid(horizon, max(1, steps // 2)))
        results["translation_defect"] = translation_defect_gate(spec, c, grid, defect, coarse)
        _, det_sol = theta_expectation(spec, grid, xi=c)
        mart = martingale_diagnostics(spec, grid, det_sol)
        results["martingale_drift"] = {
            "max_drift": mart.martingale_drift,
            "passed": mart.martingale_drift is not None and mart.martingale_drift <= 1e-8,
        }

    if "problem" in cfg:
        spec, grid, params = _configured(cfg, args)
        sol, _ = _solve(spec, grid, params)
        mart = martingale_diagnostics(spec, grid, sol)
        results["martingale_zscores"] = {
            "within_three_fraction": mart.within_three_fraction,
            "max_abs_driver": mart.max_abs_driver,
            "passed": (mart.within_three_fraction or 0.0) >= 0.95,
        }

    if not results:
        raise UsageError("the properties config needs a 'counterexample' or 'problem' section")
    failures = [name for name, res in results.items() if not res["passed"]]
    if args.out is not None:
        out = _out_dir(args)
        _write_json(out / "property_report.json", {"results": results, "failures": failures})
    status = "ok" if not failures else f"FAILED: {', '.join(failures)}"
    print(f"properties: {len(results) - len(failures)}/{len(results)} checks passed ({status})")
    return 0 if not failures else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="theta-fbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="noise seed (default 0)")
        p.add_argument("--particles", type=int, default=None, help="particle count (default 10000)")
        p.add_argument("--steps", type=int, default=None, help="time steps (default 100)")
        p.add_argument("--out", type=str, default="./out", help="output directory")
        p.add_argument("--tol", type=float, default=None, help="fixed-point tolerance (default 1e-6)")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None, help="iteration budget (default 50)")

    p_solve = sub.add_parser("solve", help="solve a configured coupled system")
    add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_ce = sub.add_parser("counterexample", help="deterministic quartic diagnostics")
    p_ce.add_argument("--lambda", dest="lam", type=float, required=True, help="quartic lambda")
    p_ce.add_argument("--gamma", type=float, required=True, help="quartic gamma (< lambda)")
    p_ce.add_argument("--c", type=float, default=0.1, help="terminal split size (default 0.1)")
    p_ce.add_argument("--T", type=float, default=1.0, help="horizon (default 1)")
    p_ce.add_argument("--steps", type=int, default=1000, help="RK4 steps (default 1000)")
    p_ce.add_argument("--out", type=str, default=None, help="directory for the JSON report")
    p_ce.set_defaults(func=_cmd_counterexample)

    p_app = sub.add_parser("application", help="non-convex vs convexified comparison")
    add_common(p_app)
    p_app.set_defaults(func=_cmd_application)

    p_pde = sub.add_parser("pde-check", help="grid solver cross-check of a particle run")
    add_common(p_pde)
    p_pde.set_defaults(func=_cmd_pde_check)

    p_prop = sub.add_parser("properties", help="run the property checkers")
    add_common(p_prop)
    p_prop.set_defaults(func=_cmd_properties)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # every stage raises NumericalError on a non-finite value, so numpy's
        # overflow and invalid-value warnings would only repeat that error
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: missing required config field {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        message = str(exc)
        # non-contraction and an exhausted budget carry the iterations run so far
        report = getattr(exc, "report", None)
        if report is not None and args.out is not None:
            try:
                _write_json(_out_dir(args) / "picard_report.json", report.to_dict())
            except UsageError as err:
                message += f"; partial report not written: {err}"
        print(f"numerical failure: {message}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
