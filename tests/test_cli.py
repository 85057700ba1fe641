import json
import re

import numpy as np
import pytest

from theta_fbsde import EmpiricalMeasure, Grid1D, SolutionPaths, write_paths_csv, write_surface_csv
from theta_fbsde.cli import _write_json, main

APP_CONFIG = {
    "problem": {
        "kind": "application",
        "C0": [0.0],
        "C1": [[0.25]],
        "sigma": [[0.3]],
        "x0": [1.0],
        "T": 1.0,
        "kappa": 1.0,
        "w0": 0.6,
        "f0": {"kind": "linear", "slope": 0.5},
        "terminal": {"kind": "linear", "coeffs": [1.0]},
        "ambiguity": {
            "intervals": [[-2.0, -1.0], [1.0, 2.0]],
            "theta_rule": {"kind": "constant", "value": 0.0},
            "endpoint_shifts": [0.0, 0.0, 0.0, 0.0],
        },
    },
    "solver": {"particles": 400, "steps": 25, "seed": 5, "tol": 1e-6, "max_iter": 50},
}


@pytest.fixture
def app_config(tmp_path):
    path = tmp_path / "app.json"
    path.write_text(json.dumps(APP_CONFIG))
    return path


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "missing.json")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        code = main(["counterexample", "--lambda", "2", "--gamma", "1", "--bogus", "3"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["problem"]["mystery_knob"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(path)])
        assert code == 1
        assert "mystery_knob" in capsys.readouterr().err

    def test_invalid_parameters_are_usage_errors(self, capsys):
        code = main(["counterexample", "--lambda", "1", "--gamma", "2"])
        assert code == 1

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        del cfg["problem"]["C0"]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(path)])
        assert code == 1
        assert "C0" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, app_config, tmp_path, capsys):
        code = main(
            [
                "solve",
                "--config",
                str(app_config),
                "--tol",
                "1e-18",
                "--max-iter",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2
        partial = json.loads((tmp_path / "o" / "picard_report.json").read_text())
        assert partial["iterations"] == 1
        assert partial["converged"] is False


MALFORMED = [
    (("solver",), "particles", "abc"),
    (("solver",), "particles", -5),
    (("solver",), "particles", 1),
    (("solver",), "tol", float("nan")),
    (("solver",), "threads", 2),
    (("problem", "ambiguity"), "intervals", [[1.0]]),
    (("problem",), "C0", "abc"),
    (("problem", "terminal"), "coeffs", [1.0, 2.0]),
]


class TestMalformedInputs:
    """Bad inputs end with exit 1 and one ``error:`` line, never a traceback."""

    @staticmethod
    def assert_one_line_usage_error(code, err):
        assert code == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "path,key,value", MALFORMED, ids=[f"{k}={v!r}" for _, k, v in MALFORMED]
    )
    def test_config_value(self, path, key, value, tmp_path, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        section = cfg
        for name in path:
            section = section[name]
        section[key] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert key in err or "particles" in err

    @pytest.mark.parametrize("command", ["solve", "pde-check", "properties", "application"])
    def test_solver_damping_reaches_every_solve(self, command, tmp_path, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["solver"]["damping"] = float("nan")
        cfg_path = tmp_path / "nan_damping.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "damping" in err

    @pytest.mark.parametrize(
        "flags", [["--steps", "0"], ["--particles", "7"]], ids=["steps=0", "particles=7"]
    )
    def test_counterexample_flag(self, flags, capsys):
        code = main(["counterexample", "--lambda", "2", "--gamma", "1", *flags])
        self.assert_one_line_usage_error(code, capsys.readouterr().err)

    def test_removed_threads_flag(self, app_config, tmp_path, capsys):
        code = main(
            ["solve", "--config", str(app_config), "--out", str(tmp_path / "o"), "--threads", "2"]
        )
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "--threads" in err


class TestCounterexampleCommand:
    def test_help_lists_only_read_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["counterexample", "--help"])
        flags = set(re.findall(r"--\w[\w-]*", capsys.readouterr().out))
        assert flags == {"--help", "--lambda", "--gamma", "--c", "--T", "--steps", "--out"}

    def test_prints_gap(self, capsys):
        code = main(["counterexample", "--lambda", "2", "--gamma", "1", "--c", "0.1", "--T", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gap=+" in out
        gap = float(out.split("gap=")[1].split()[0])
        assert 0.015 <= gap <= 0.025


class TestSolveCommand:
    def test_artifacts_and_summary(self, app_config, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        code = main(["solve", "--config", str(app_config), "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary) == {
            "Y0", "iterations", "converged", "seed", "wall_time_s", "write_time_s",
        }
        assert isinstance(summary["write_time_s"], float)
        assert summary["write_time_s"] >= 0.0
        assert summary["converged"] is True
        assert summary["seed"] == 5
        header = (out_dir / "paths.csv").read_text().splitlines()[0]
        assert header == "t,particle,X_1,Y,Z_1,A"

    def test_reruns_are_byte_identical(self, app_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(app_config), "--out", str(out_a)]) == 0
        assert main(["solve", "--config", str(app_config), "--out", str(out_b)]) == 0
        assert (out_a / "paths.csv").read_bytes() == (out_b / "paths.csv").read_bytes()

    def test_flag_overrides_config(self, app_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(app_config), "--out", str(out_a), "--seed", "9"])
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["seed"] == 9
        main(["solve", "--config", str(app_config), "--out", str(out_b)])
        other = json.loads((out_b / "summary.json").read_text())
        assert (out_a / "paths.csv").read_bytes() != (out_b / "paths.csv").read_bytes()
        assert other["seed"] == 5


class TestApplicationCommand:
    def test_comparison_report(self, app_config, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code = main(["application", "--config", str(app_config), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "comparison_report.json").read_text())
        assert report["control_nonconvex"] == 1.0
        assert report["control_hull"] == 0.6
        assert report["multiplier_nonconvex"] == 4.0
        assert report["multiplier_hull"] == pytest.approx(2.8)
        assert (out_dir / "paths_nonconvex.csv").exists()
        assert (out_dir / "paths_hull.csv").exists()
        out = capsys.readouterr().out
        assert "controls 1 vs 0.6" in out


class TestPdeCheckCommand:
    def test_report_written(self, app_config, tmp_path, capsys):
        out_dir = tmp_path / "pde"
        code = main(
            [
                "pde-check",
                "--config",
                str(app_config),
                "--out",
                str(out_dir),
                "--particles",
                "1500",
                "--steps",
                "50",
            ]
        )
        assert code == 0
        report = json.loads((out_dir / "feynman_kac_report.json").read_text())
        assert report["relative_gap"] <= 0.05


class TestPropertiesCommand:
    def test_counterexample_suite_passes(self, tmp_path, capsys):
        cfg = {
            "counterexample": {
                "lambda": 2.0,
                "gamma": 1.0,
                "c": 0.1,
                "T": 1.0,
                "steps": 1000,
                "split": 0.5,
            }
        }
        path = tmp_path / "props.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "props_out"
        code = main(["properties", "--config", str(path), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "property_report.json").read_text())
        assert report["failures"] == []
        assert report["results"]["subadditivity_violation"]["passed"]

    def test_stochastic_martingale_section(self, tmp_path):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["solver"]["particles"] = 2000
        path = tmp_path / "props_mc.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "mc_out"
        code = main(["properties", "--config", str(path), "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "property_report.json").read_text())
        assert report["results"]["martingale_zscores"]["within_three_fraction"] >= 0.95

    def test_empty_config_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["properties", "--config", str(path)]) == 1

    def test_failed_check_exits_three(self, tmp_path, capsys):
        # a split too small for the defect threshold trips the check
        cfg = {
            "counterexample": {
                "lambda": 2.0,
                "gamma": 1.0,
                "c": 1e-4,
                "T": 1.0,
                "steps": 400,
                "split": 0.5,
            }
        }
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "weak_out"
        code = main(["properties", "--config", str(path), "--out", str(out_dir)])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out
        assert json.loads((out_dir / "property_report.json").read_text())["failures"]


class TestPdeSurfaceDump:
    def test_value_surface_written(self, app_config, tmp_path):
        out_dir = tmp_path / "surf"
        code = main(
            [
                "pde-check",
                "--config",
                str(app_config),
                "--out",
                str(out_dir),
                "--particles",
                "800",
                "--steps",
                "25",
            ]
        )
        assert code == 0
        lines = (out_dir / "value_surface.csv").read_text().splitlines()
        assert lines[0] == "t,x,v"
        assert len(lines) > 1000


# Every column of the golden inputs sees each of these: signed zero, the
# smallest subnormal, a 17-digit integer, inexact decimals, integral and
# negative floats, and the non-finite values.
SPECIAL = np.array([
    -0.0, 5e-324, 1e16, 0.1, 3.0, -2.5, -1e-300, 1 / 3, -7.0, 2.0**60, 1e-5,
    123456.789, float("nan"), float("inf"), -float("inf"),
])


def reference_paths_csv(path, sol):
    """The per-cell writer that the block writer replaced, kept as the byte reference."""
    k = sol.X.shape[2]
    d = sol.Z.shape[2]
    header = (
        ["t", "particle"]
        + [f"X_{j + 1}" for j in range(k)]
        + ["Y"]
        + [f"Z_{j + 1}" for j in range(d)]
        + ["A"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(sol.times):
            for p in range(sol.n_particles):
                row = [f"{t:.17g}", str(p)]
                row += [f"{v:.17g}" for v in sol.X[i, p]]
                row.append(f"{sol.Y[i, p]:.17g}")
                row += [f"{v:.17g}" for v in sol.Z[i, p]]
                row.append(f"{sol.A[i, p]:.17g}")
                fh.write(",".join(row) + "\n")


def reference_surface_csv(path, grid1d, horizon, surface):
    """The per-cell surface writer that the block writer replaced."""
    xs = grid1d.xs
    dt = grid1d.dt(horizon)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,v\n")
        for i in range(surface.shape[0]):
            t = i * dt
            for j in range(grid1d.nx):
                fh.write(f"{t:.17g},{xs[j]:.17g},{surface[i, j]:.17g}\n")


def golden_solution(a_dtype=float):
    """Three nodes of SPECIAL.size particles with k = 2 and d = 2."""
    n_nodes = 3
    cols = np.array([
        [np.roll(SPECIAL, 3 * i + c) for c in range(6)] for i in range(n_nodes)
    ]).transpose(0, 2, 1)
    return SolutionPaths(
        times=np.array([-0.0, 0.1, 1 / 3]),
        X=cols[:, :, 0:2],
        Y=cols[:, :, 2],
        Z=cols[:, :, 3:5],
        A=cols[:, :, 5].astype(a_dtype),
        measures=(EmpiricalMeasure(np.zeros(1)),) * n_nodes,
    )


GOLDEN_GRID = Grid1D(-2.5, 0.1, SPECIAL.size, 3)


def golden_surface(dtype=float):
    return np.array([np.roll(SPECIAL, 2 * i) for i in range(GOLDEN_GRID.nt + 1)], dtype=dtype)


class TestArtifactWriters:
    def test_paths_csv_matches_reference_bytes(self, tmp_path):
        sol = golden_solution()
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        reference_paths_csv(ref, sol)
        new.write_text("stale longer content\n" * 500)
        write_paths_csv(new, sol)
        assert new.read_bytes() == ref.read_bytes()
        assert new.stat().st_mode == ref.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]

    def test_surface_csv_matches_reference_bytes(self, tmp_path):
        surface = golden_surface()
        ref, new = tmp_path / "ref.csv", tmp_path / "new.csv"
        reference_surface_csv(ref, GOLDEN_GRID, 1 / 3, surface)
        new.write_text("stale longer content\n" * 500)
        write_surface_csv(new, GOLDEN_GRID, 1 / 3, surface)
        assert new.read_bytes() == ref.read_bytes()
        assert new.stat().st_mode == ref.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "ref.csv"]

    def test_golden_inputs_cover_every_column(self, tmp_path):
        write_paths_csv(tmp_path / "paths.csv", golden_solution())
        rows = [line.split(",") for line in (tmp_path / "paths.csv").read_text().splitlines()]
        assert rows[0] == ["t", "particle", "X_1", "X_2", "Y", "Z_1", "Z_2", "A"]
        for col in range(2, 8):
            cells = {row[col] for row in rows[1:]}
            assert {"-0", "4.9406564584124654e-324", "10000000000000000", "0.10000000000000001"} <= cells
            assert {"3", "-2.5", "1.152921504606847e+18", "nan", "inf", "-inf"} <= cells

    @pytest.mark.parametrize("writer", ["paths", "surface", "json"])
    def test_failed_write_keeps_previous_file(self, writer, tmp_path):
        # the body raises after part of the new content has been written
        target = tmp_path / "artifact"
        target.write_bytes(b"previous run\n")
        with pytest.raises(TypeError):
            if writer == "paths":
                sol = golden_solution(a_dtype=object)
                sol.A[2, 4] = "not a number"
                write_paths_csv(target, sol)
            elif writer == "surface":
                surface = golden_surface(dtype=object)
                surface[3, 7] = "not a number"
                write_surface_csv(target, GOLDEN_GRID, 1 / 3, surface)
            else:
                _write_json(target, {"a": list(range(1000)), "z": object()})
        assert target.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
