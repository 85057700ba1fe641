#!/usr/bin/env python3
"""Benchmark of the theta-fbsde solver stack.

    python3 perfbench/run.py --workload solve_csv --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout.  The seed generates the workload's
config (it becomes the solver seed); each iteration then runs in a fresh
Python process (``worker.py``), one after another, for about ``--seconds``
seconds and at least twice.  A few extra processes only set up, so
``setup_s`` is a median over several set-ups.  Every iteration's outputs are
checked; an iteration with a failed check counts as a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics, medians over
the iterations; the wall time enters as ``wall_ref``, a multiple of a
reference task timed in the same process (``reference.py``).  With
``--trace 1`` untraced and traced iterations alternate and the last line
reports the per-layer metrics of the traced ones, plus the tracing overhead.
The lines before it list every metric by name and unit, the gates, and the
environment.  ``--smoke`` shrinks every workload so the whole pipeline runs
in seconds.
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
WORKER = HERE / "worker.py"
WORK_DIR = Path(".perfbench_out")
SETUP_PROBES = 3
MIN_ITERATIONS = 2
RUN_LIMIT_S = 170.0

END_TO_END = ("wall_ref", "setup_s", "peak_rss_mb", "y0_stderr")

README_PROBLEM = {
    "kind": "application",
    "C0": [0.0], "C1": [[0.25]], "sigma": [[0.3]], "x0": [1.0], "T": 1.0,
    "kappa": 1.0, "w0": 0.6,
    "f0": {"kind": "linear", "slope": 0.5},
    "terminal": {"kind": "linear", "coeffs": [1.0]},
    "ambiguity": {
        "intervals": [[-2.0, -1.0], [1.0, 2.0]],
        "theta_rule": {"kind": "constant", "value": 0.0},
        "endpoint_shifts": [0.0, 0.0, 0.0, 0.0],
    },
}


def make_config(workload: str, seed: int, smoke: bool) -> dict:
    """The generated input of one run; the seed only reaches the solver."""
    solver = {"seed": seed % 2**64, "tol": 1e-6, "max_iter": 50}
    if workload == "solve_csv":
        solver.update(particles=400 if smoke else 2000, steps=20 if smoke else 100)
        return {"problem": README_PROBLEM, "solver": solver}
    if workload == "coupled_checks":
        problem = dict(README_PROBLEM, ambiguity={
            "intervals": [[-2.0, -1.0], [1.0, 2.0]],
            "theta_rule": {"kind": "affine", "alpha": 1.0, "beta": 1.0, "bounds": [-0.5, 0.5]},
            "endpoint_shifts": [0.5, 0.5, 0.5, 0.5],
        })
        # smoke keeps enough particles and steps for the defect and grid gates to pass
        solver.update(particles=8000 if smoke else 10_000, steps=25 if smoke else 50)
        return {"problem": problem, "solver": solver,
                "bench": {"translation_c": 0.1, "nx": 41 if smoke else 201}}
    if workload == "quartic_grid":
        problem = dict(README_PROBLEM, T=0.5, ambiguity={"intervals": [[-2.0, -0.5], [0.5, 2.0]]})
        solver.update(particles=100 if smoke else 200, steps=10 if smoke else 50)
        counterexample = {"lambda": 2.0, "gamma": 1.0, "c": 0.1, "T": 1.0,
                          "steps": 50 if smoke else 1000}
        return {"problem": problem, "solver": solver,
                "bench": {"quartic": {"lambda": 2.0, "gamma": 1.0}, "nx": 21 if smoke else 201,
                          "properties": {"counterexample": counterexample}}}
    raise SystemExit(f"error: unknown workload '{workload}'")


def _child_env() -> dict:
    """Cap BLAS threads at the CPUs this process may use; never raise a lower cap."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        current = env.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(cap)
    return env


def run_child(workload, config, run_dir, index, *, trace, setup_only, spans, deadline, env):
    """Run one worker process; return its result dict, or None if it failed."""
    out = run_dir / f"iter{index}"
    result_path = run_dir / f"result{index}.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--config", str(config),
           "--out", str(out), "--result", str(result_path), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"iteration {index}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        print(f"iteration {index}: worker exited with code {proc.returncode}\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    if proc.stderr:
        print(proc.stderr.rstrip(), file=sys.stderr)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["solve_csv", "coupled_checks", "quartic_grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not Path("src/theta_fbsde/__init__.py").is_file():
        print("error: run from the root of a theta-fbsde source checkout "
              "(src/theta_fbsde not found)", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    spans_path = WORK_DIR / f"{args.workload}-seed{args.seed}.spans.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    try:
        config = run_dir / "config.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(make_config(args.workload, args.seed, args.smoke), fh, indent=2)

        index = 0
        setups = []
        for _ in range(SETUP_PROBES):
            res = run_child(args.workload, config, run_dir, index, trace=False, setup_only=True,
                            spans=None, deadline=deadline, env=env)
            index += 1
            if res is None:
                return 2
            setups.append(res["setup_s"])

        plain, traced, failed_ops = [], [], 0
        budget_start = time.monotonic()
        last = 0.0
        while failed_ops < 3:
            enough = (plain and traced) if args.trace else len(plain) >= MIN_ITERATIONS
            if enough and time.monotonic() - budget_start + last > args.seconds:
                break
            if time.monotonic() + last > deadline:
                break
            use_trace = bool(args.trace) and len(plain) > len(traced)
            t0 = time.monotonic()
            res = run_child(args.workload, config, run_dir, index, trace=use_trace,
                            setup_only=False, spans=spans_path if use_trace else None,
                            deadline=deadline, env=env)
            last = time.monotonic() - t0
            index += 1
            if res is None:
                failed_ops += 1
            else:
                (traced if use_trace else plain).append(res)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    iterations = plain + traced
    gate_lines, failed = [], failed_ops
    for i, res in enumerate(iterations):
        first = iterations[0]["metrics"]
        same = all(res["metrics"].get(k) == first.get(k) for k in ("y0", "paths_sha256"))
        res["gates"]["same_seed_same_result"] = {
            "passed": same, "detail": "Y0 and paths.csv bytes equal those of the first iteration"}
        failed += not all(v["passed"] for v in res["gates"].values())
        for g, v in res["gates"].items():
            gate_lines.append(f"gate iter{i} {g}: {'PASS' if v['passed'] else 'FAIL'} ({v['detail']})")
    attempted = len(iterations) + failed_ops

    def median_of(key, group=plain):
        return statistics.median(r[key] for r in group)

    report = {}
    if plain:
        report["wall_ref"] = (statistics.median(r["wall_s"] / r["ref_s"] for r in plain), "ref")
        report["wall_s"] = (median_of("wall_s"), "s")
        report["setup_s"] = (statistics.median(setups + [r["setup_s"] for r in plain]), "s")
        report["peak_rss_mb"] = (median_of("peak_rss_mb"), "MB")
        accuracy = plain[0]["metrics"]
        report["y0_stderr"] = (accuracy["y0_stderr"], "1")
        for name in ("y0_abs_err", "fk_rel_gap"):
            if name in accuracy:
                report[name] = (accuracy[name], "1")
    report["error_rate"] = (failed / attempted if attempted else 1.0, "1")
    layers = {}
    if traced:
        names = traced[0]["layers"]
        for name, entry in names.items():
            values = [r["layers"][name]["value"] for r in traced if name in r["layers"]]
            layers[name] = (statistics.median(values), entry["unit"])
        if plain:
            layers["trace.overhead_s"] = (median_of("wall_s", traced) - median_of("wall_s"), "s")

    env_stamp = iterations[0]["env"] if iterations else {}
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced iterations, {len(setups)} extra set-ups, "
          f"{time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env_stamp, sort_keys=True))
    for line in gate_lines:
        print(line)
    print(f"samples wall_s = {[r['wall_s'] for r in plain]} s")
    print(f"samples ref_s = {[r['ref_s'] for r in plain]} s")
    print(f"samples setup_s = {setups + [r['setup_s'] for r in plain]} s")
    print(f"metric attempted = {attempted} count")
    print(f"metric failed = {failed} count")
    for name, (value, unit) in {**report, **layers}.items():
        print(f"metric {name} = {value:.6g} {unit}")

    chosen = layers if args.trace else {k: report[k] for k in END_TO_END if k in report}
    print(json.dumps({
        "correct": failed == 0 and bool(iterations),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
