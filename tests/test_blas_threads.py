"""The bits of a solve do not depend on the BLAS thread count.

OpenBLAS splits a long dot product or a large matrix product across its
threads, so a reduction that goes through BLAS may sum in an order that
follows the thread count.  The same computation runs in two processes, at
one and at two OpenBLAS threads, and must give the same bits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The benchmark's law-dependent set on the README problem: its argmax is
# state-free, so the value iterate is Anderson-mixed; 26 nodes x 2000
# particles put 52,000 elements into each of the mixing's inner products.
SOLVE = """
import hashlib, json
import numpy as np
from theta_fbsde import (
    AffineControlDrift, AmbiguityMap, ConstantVolatility, IntervalUnion, LinearF0,
    LinearTerminal, ProblemSpec, QuadraticPenaltyDriver, TimeGrid, picard_solve,
)
spec = ProblemSpec(
    horizon=1.0,
    x0=np.array([1.0]),
    drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
    volatility=ConstantVolatility(np.array([[0.3]])),
    driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
    terminal=LinearTerminal(np.array([1.0])),
    ambiguity=AmbiguityMap(
        base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))),
        endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
        alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
    ),
)
sol, report = picard_solve(spec, TimeGrid(1.0, 25), 2000, seed=5)
arrays = {name: hashlib.sha256(getattr(sol, name).tobytes()).hexdigest() for name in "XYZA"}
print(json.dumps({"report": report.to_dict(), "arrays": arrays, "y_size": sol.Y.size}))
"""

# A node fit on K moving coordinates and N rows, run with "K, N = ..." in
# front.  At K = 3 (20 basis columns, 1e4 rows) one moment product over every
# row rounded differently at 1 and 2 threads; at K = 1 and 1e5 rows the
# product is summed over about ten row blocks.
FIT = """
import hashlib, json
import numpy as np
from theta_fbsde.bsde import REGRESSION_DEGREE, _node_regression
rng = np.random.default_rng(3)
x = 1.0 + 0.5 * rng.standard_normal((N, K))
targets = np.column_stack([np.sin(x).sum(axis=1), x[:, 0] * rng.standard_normal(N)])
fit = _node_regression(x, targets, REGRESSION_DEGREE)
arrays = {name: hashlib.sha256(getattr(fit, name).tobytes()).hexdigest()
          for name in ("mean", "std", "coef", "values")}
print(json.dumps({"arrays": arrays, "cond": fit.cond, "columns": fit.coef.shape[0]}))
"""

# The README problem in three dimensions (diagonal C1, sigma and x0): every
# node after the first fits 20 columns and four targets on 6000 rows.
SOLVE_K3 = """
import hashlib, json
import numpy as np
from theta_fbsde import (
    AffineControlDrift, ConstantVolatility, LinearF0, LinearTerminal, ProblemSpec,
    QuadraticPenaltyDriver, TimeGrid, picard_solve, static_set,
)
spec = ProblemSpec(
    horizon=1.0,
    x0=np.array([1.0, 0.8, 1.2]),
    drift=AffineControlDrift(np.zeros(3), np.diag([0.25, 0.2, 0.3])),
    volatility=ConstantVolatility(np.diag([0.3, 0.25, 0.35])),
    driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
    terminal=LinearTerminal(np.ones(3)),
    ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
)
sol, report = picard_solve(spec, TimeGrid(1.0, 6), 6000, seed=5)
arrays = {name: hashlib.sha256(getattr(sol, name).tobytes()).hexdigest() for name in "XYZA"}
print(json.dumps({"report": report.to_dict(), "arrays": arrays, "shape": list(sol.X.shape)}))
"""


def _run_at(script: str, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_mixed_solve_is_bit_identical_at_one_and_two_threads():
    one, two = _run_at(SOLVE, 1), _run_at(SOLVE, 2)
    assert one["y_size"] >= 50_000
    assert sum(g != 0.0 for g in one["report"]["mixing"]) >= 2
    # json writes each float by repr, so equal dicts are equal bits
    assert one["report"] == two["report"]
    assert one["arrays"] == two["arrays"]


def test_three_coordinate_fit_is_bit_identical_at_one_and_two_threads():
    script = "K, N = 3, 10_000\n" + FIT
    one, two = _run_at(script, 1), _run_at(script, 2)
    assert one["columns"] == 20
    assert one == two


def test_one_coordinate_fit_over_many_row_blocks_is_bit_identical_at_one_and_two_threads():
    script = "K, N = 1, 100_000\n" + FIT
    one, two = _run_at(script, 1), _run_at(script, 2)
    assert one["columns"] == 4
    assert one == two


def test_three_coordinate_solve_is_bit_identical_at_one_and_two_threads():
    one, two = _run_at(SOLVE_K3, 1), _run_at(SOLVE_K3, 2)
    assert one["shape"] == [7, 6000, 3]
    # json writes each float by repr, so equal dicts are equal bits
    assert one["report"] == two["report"]
    assert one["arrays"] == two["arrays"]
