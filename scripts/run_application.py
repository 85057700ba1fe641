#!/usr/bin/env python3
"""Two-regime dynamical system versus its convexified stand-in.

The feasible drift parameter lives in [-2, -1] u [1, 2] while the reference
sits at 0.6.  Projecting onto the union snaps the dynamics to the nearest
regime (control 1, drift multiplier 4); projecting onto the hull keeps the
reference itself (control 0.6, multiplier 2.8).  The two valuations and state
statistics quantify how much structure convexification erases.
"""

import argparse
import sys
from pathlib import Path

try:
    import theta_fbsde as tf
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import theta_fbsde as tf


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--particles", type=int, default=10_000)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--w0", type=float, default=0.6)
    args = parser.parse_args()

    spec = tf.build_application_spec(
        C0=[0.0],
        C1=[[0.25]],
        sigma=[[0.3]],
        kappa=1.0,
        w0=args.w0,
        f0=tf.LinearF0(0.5),
        ambiguity=tf.static_set([(-2.0, -1.0), (1.0, 2.0)]),
        x0=[1.0],
        horizon=1.0,
    )
    rep = tf.run_application(spec, tf.TimeGrid(1.0, args.steps), args.particles, seed=args.seed)
    print(f"{'':24} {'two-regime set':>16} {'convex hull':>14}")
    print(f"{'control':24} {rep.control_nonconvex:16.4f} {rep.control_hull:14.4f}")
    print(f"{'drift multiplier 1+3w':24} {rep.multiplier_nonconvex:16.4f} {rep.multiplier_hull:14.4f}")
    print(f"{'Y0':24} {rep.y0_nonconvex:16.6f} {rep.y0_hull:14.6f}")
    print(f"{'mean X_T':24} {rep.x_terminal_mean_nonconvex:16.6f} {rep.x_terminal_mean_hull:14.6f}")
    print(f"{'std X_T':24} {rep.x_terminal_std_nonconvex:16.6f} {rep.x_terminal_std_hull:14.6f}")
    print(f"\nvaluation gap (set minus hull): {rep.y0_gap:+.6f}")


if __name__ == "__main__":
    main()
