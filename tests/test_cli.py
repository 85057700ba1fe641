import json
import re

import pytest

from theta_fbsde.cli import main

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
        assert set(summary) == {"Y0", "iterations", "converged", "seed", "wall_time_s"}
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
        code = main(["properties", "--config", str(path)])
        assert code == 3
        assert "FAILED" in capsys.readouterr().out


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
