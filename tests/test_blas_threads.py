"""The bits of a mixed solve do not depend on the BLAS thread count.

OpenBLAS splits a long dot product across its threads, so a reduction that
goes through BLAS sums in an order that follows the thread count.  The same
solve runs in two processes, at one and at two OpenBLAS threads, and must
give the same report and arrays bit for bit.
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
    AffineControlDrift, AffineTheta, AmbiguityMap, ConstantVolatility, IntervalUnion, LinearF0,
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
        theta_rule=AffineTheta(alpha=1.0, beta=1.0, lo=-0.5, hi=0.5),
    ),
)
sol, report = picard_solve(spec, TimeGrid(1.0, 25), 2000, seed=5)
arrays = {name: hashlib.sha256(getattr(sol, name).tobytes()).hexdigest() for name in "XYZA"}
print(json.dumps({"report": report.to_dict(), "arrays": arrays, "y_size": sol.Y.size}))
"""


def _solve_at(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    result = subprocess.run(
        [sys.executable, "-c", SOLVE], env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_mixed_solve_is_bit_identical_at_one_and_two_threads():
    one, two = _solve_at(1), _solve_at(2)
    assert one["y_size"] >= 50_000
    assert sum(g != 0.0 for g in one["report"]["mixing"]) >= 2
    # json writes each float by repr, so equal dicts are equal bits
    assert one["report"] == two["report"]
    assert one["arrays"] == two["arrays"]
