import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from theta_fbsde import (
    EmpiricalMeasure,
    Grid1D,
    SolutionPaths,
    TimeGrid,
    UsageError,
    picard_solve,
    write_paths_csv,
    write_surface_csv,
)
from theta_fbsde import _csv, cli, coupling
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


class TestEntryPoint:
    """The installed ``theta-fbsde`` script calls ``entry``, which exits with ``main``'s code."""

    @pytest.mark.parametrize(
        "flags, expected", [(["--steps", "50"], 0), (["--bogus", "3"], 1)], ids=["ok", "unknown_flag"]
    )
    def test_exit_code_is_mains(self, flags, expected, monkeypatch, capsys):
        argv = ["counterexample", "--lambda", "2", "--gamma", "1", *flags]
        monkeypatch.setattr(sys, "argv", ["theta-fbsde", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == expected == main(argv)


class TestThetaRuleConfig:
    """Both ``theta_rule`` kinds build one :class:`AmbiguityMap`."""

    @pytest.mark.parametrize("v", [0.0, 0.4, -0.8])
    def test_constant_is_affine_with_zero_weights_and_pinned_bounds(self, v):
        section = {"intervals": [[-2.0, -1.0], [1.0, 2.0]], "endpoint_shifts": [0.5, 0.0, -0.5, 0.5]}
        constant = cli.build_ambiguity({**section, "theta_rule": {"kind": "constant", "value": v}})
        affine = cli.build_ambiguity({**section, "theta_rule": {
            "kind": "affine", "alpha": 0.0, "beta": 0.0, "bounds": [v, v],
        }})
        assert constant == affine and constant.is_static
        assert constant.realize(EmpiricalMeasure(np.array([3.0]))) == affine.realize_at(v)


class TestPicardReportArtifact:
    """picard_report.json carries the per-sweep Anderson coefficients."""

    @staticmethod
    def law_shifted_config(tmp_path):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["problem"]["ambiguity"].update(
            theta_rule={"kind": "affine", "alpha": 1.0, "beta": 1.0, "bounds": [-0.5, 0.5]},
            endpoint_shifts=[0.5, 0.5, 0.5, 0.5],
        )
        path = tmp_path / "law_shifted.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_mixing_has_one_coefficient_per_sweep(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["solve", "--config", str(self.law_shifted_config(tmp_path)), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "picard_report.json").read_text())
        assert len(report["mixing"]) == report["iterations"] > 2
        assert report["mixing"][0] == report["mixing"][-1] == 0.0
        assert any(g != 0.0 for g in report["mixing"])

    def test_partial_report_carries_mixing(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "solve", "--config", str(self.law_shifted_config(tmp_path)),
            "--tol", "1e-18", "--max-iter", "3", "--out", str(out),
        ])
        assert code == 2
        partial = json.loads((out / "picard_report.json").read_text())
        assert partial["iterations"] == 3
        assert len(partial["mixing"]) == 3 and partial["mixing"][0] == 0.0


MALFORMED = [
    (("solver",), "particles", "abc"),
    (("solver",), "particles", -5),
    (("solver",), "particles", 1),
    # more bytes than numpy can index: refused before anything is allocated
    (("solver",), "particles", 1e20),
    (("solver",), "particles", 1e18),
    (("solver",), "tol", float("nan")),
    (("solver",), "tol", float("inf")),
    (("solver",), "beta", float("inf")),
    (("problem",), "w0", float("nan")),
    (("problem",), "w0", float("inf")),
    (("problem",), "w0", float("-inf")),
    (("problem",), "kappa", float("inf")),
    (("problem", "f0"), "slope", float("nan")),
    (("solver",), "threads", 2),
    (("problem", "ambiguity"), "intervals", [[1.0]]),
    (("problem",), "C0", "abc"),
    (("problem", "terminal"), "coeffs", [1.0, 2.0]),
    # a field another kind of the same section reads
    (("problem", "terminal"), "value", 3.0),
    (("problem",), "f0", {"kind": "zero", "slope": 7.0}),
    (("problem", "ambiguity"), "theta_rule", {"kind": "constant", "alpha": 5.0, "bounds": [0, 1]}),
    (("problem", "ambiguity", "theta_rule"), "value", float("nan")),
    (("problem", "ambiguity", "theta_rule"), "value", float("inf")),
    (("problem", "ambiguity", "theta_rule"), "value", float("-inf")),
]


# finite configs whose solves overflow: each stage raises a NumericalError
DIVERGING = [
    *(
        (path, value, ("solve", "pde-check", "properties", "application"))
        for path, value in [
            (("problem", "w0"), 1e308),
            (("problem", "kappa"), 1e308),
            (("problem", "f0", "slope"), 1e308),
            (("problem", "terminal", "coeffs"), [1e308]),
            (("problem", "terminal"), {"kind": "constant", "value": 1e308}),
            (("problem", "x0"), [1e308]),
        ]
    ),
    # pde-check refuses these two before the solve: their grids have no finite step count
    (("problem", "T"), 1e308, ("solve", "properties", "application")),
    (("problem", "C1"), [[1e308]], ("solve", "properties", "application")),
]


# float() takes strings and booleans; a config number must be a JSON number
NOT_NUMBERS = [
    ("solve", ("solver",), "tol", True),
    ("solve", ("solver",), "tol", "1e-3"),
    ("solve", ("solver",), "seed", True),
    ("solve", ("problem",), "kappa", "2.5"),
    ("solve", ("problem",), "C0", ["0.2"]),
    ("solve", ("problem",), "x0", [True]),
    ("solve", ("problem",), "x0", [True, 1.0]),
    ("solve", ("problem", "ambiguity"), "intervals", "[[-2, -1], [1, 2]]"),
    ("solve", ("problem", "ambiguity"), "intervals", ["12", "34"]),
    ("solve", ("problem", "ambiguity"), "endpoint_shifts", [0.0, 0.0, 0.0, "0"]),
    ("solve", ("problem", "ambiguity", "theta_rule"), "bounds", [False, True]),
    ("properties", ("counterexample",), "lambda", "2"),
    ("pde-check", ("pde",), "cfl", "0.4"),
]
NOT_NUMBER_BASES = {
    "solve": APP_CONFIG,
    "pde-check": {**APP_CONFIG, "pde": {}},
    "properties": {"counterexample": {"lambda": 2.0, "gamma": 1.0}},
}


class TestMalformedInputs:
    """Bad inputs end with exit 1 and one ``error:`` line, never a traceback.

    Inputs that make the numerics diverge end with exit 2 and one
    ``numerical failure:`` line.
    """

    @staticmethod
    def assert_one_line_usage_error(code, err):
        TestMalformedInputs.assert_one_line_failure(code, err, 1)

    @staticmethod
    def assert_one_line_failure(code, err, expected):
        assert code == expected
        assert err.startswith({1: "error: ", 2: "numerical failure: "}[expected])
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
        if isinstance(value, dict):
            assert any(f"'{field}'" in err for field in value if field != "kind")

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
        "flags, expected",
        [
            (["--steps", "0"], 1), (["--particles", "7"], 1), (["--c", "nan"], 1),
            (["--c", "inf"], 1), (["--lambda", "inf"], 1), (["--steps", str(10**20)], 1),
            # the value path overflows the quartic driver: a numerical failure
            (["--c", "5"], 2), (["--c", "1e200"], 2), (["--T", "1e6", "--steps", "10"], 2),
        ],
        ids=[
            "steps=0", "particles=7", "c=nan", "c=inf", "lambda=inf", "steps=1e20",
            "c=5", "c=1e200", "T=1e6,steps=10",
        ],
    )
    def test_counterexample_flag(self, flags, expected, capsys):
        code = main(["counterexample", "--lambda", "2", "--gamma", "1", *flags])
        self.assert_one_line_failure(code, capsys.readouterr().err, expected)

    def test_config_names_a_directory(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "config file" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.json"
        cfg_path.write_bytes(json.dumps(APP_CONFIG).replace("linear", "lin\xe9ar").encode("latin-1"))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "UTF-8" in err

    @pytest.mark.parametrize(
        "command",
        [["solve", "--config", None], ["counterexample", "--lambda", "2", "--gamma", "1"]],
        ids=["solve", "counterexample"],
    )
    def test_out_names_an_existing_file(self, command, app_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        argv = [str(app_config) if arg is None else arg for arg in command]
        code = main([*argv, "--out", str(taken)])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert str(taken) in err
        assert taken.read_text() == "kept\n"

    def test_out_names_an_existing_file_after_a_numerical_failure(self, app_config, tmp_path,
                                                                  capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code = main([
            "solve", "--config", str(app_config), "--tol", "1e-18", "--max-iter", "1",
            "--out", str(taken),
        ])
        err = capsys.readouterr().err
        self.assert_one_line_failure(code, err, 2)
        assert "partial report not written" in err and str(taken) in err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("c", [float("nan"), float("-inf")])
    def test_properties_counterexample_split(self, c, tmp_path, capsys):
        cfg_path = tmp_path / "props.json"
        cfg_path.write_text(json.dumps({"counterexample": {"lambda": 2.0, "gamma": 1.0, "c": c}}))
        code = main(["properties", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "'c'" in err

    @pytest.mark.parametrize("c", [1e308, -1e308])
    @pytest.mark.parametrize("command", ["counterexample", "properties"])
    def test_counterexample_c_too_large(self, command, c, tmp_path, capsys):
        # finite, but the quartic control set's radius at 1 + |c| overflows
        if command == "counterexample":
            argv = ["counterexample", "--lambda", "2", "--gamma", "1", f"--c={c!r}"]
        else:
            cfg_path = tmp_path / "props.json"
            cfg_path.write_text(json.dumps({"counterexample": {"lambda": 2.0, "gamma": 1.0, "c": c}}))
            argv = ["properties", "--config", str(cfg_path)]
        code = main([*argv, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "c is too large" in err

    def test_properties_counterexample_divergence(self, tmp_path, capsys):
        cfg_path = tmp_path / "props.json"
        cfg_path.write_text(json.dumps({"counterexample": {"lambda": 2.0, "gamma": 1.0, "c": 3.0}}))
        code = main(["properties", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        self.assert_one_line_failure(code, capsys.readouterr().err, 2)

    @staticmethod
    def run_config_with(command, path, value, tmp_path):
        cfg = json.loads(json.dumps(APP_CONFIG))
        section = cfg
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = value
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(cfg))
        return main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize(
        "command, path, value",
        [
            (command, path, value)
            for path, value, commands in DIVERGING
            for command in commands
        ],
        ids=[
            f"{command}:{path[-1]}={value!r}"
            for path, value, commands in DIVERGING
            for command in commands
        ],
    )
    def test_divergence_prints_one_line(self, command, path, value, tmp_path, capsys):
        # under the suite's warnings-as-errors filter a numpy RuntimeWarning
        # would escape main; outside it, it would print above the failure line
        code = self.run_config_with(command, path, value, tmp_path)
        self.assert_one_line_failure(code, capsys.readouterr().err, 2)

    @pytest.mark.parametrize("command", ["solve", "properties", "application"])
    def test_state_whose_mean_square_overflows(self, command, tmp_path, capsys):
        # at sigma = 1e200 the paths are finite but their squares are not, so
        # the regression cannot standardize them; more particles would not help
        code = self.run_config_with(command, ("problem", "sigma"), [[1e200]], tmp_path)
        err = capsys.readouterr().err
        self.assert_one_line_failure(code, err, 2)
        assert "mean square overflows" in err
        assert "particles" not in err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("problem", "T"), 1e308),
            (("problem", "C0"), [1e308]),
            (("problem", "C1"), [[1e308]]),
            (("problem", "ambiguity", "intervals"), [[-1e308, -1.0], [1.0, 1e308]]),
            (("problem", "sigma"), [[1e200]]),
        ],
        ids=["T=1e308", "C0=1e308", "C1=1e308", "intervals=1e308", "sigma=1e200"],
    )
    def test_pde_grid_without_a_finite_step_count(self, path, value, tmp_path, monkeypatch,
                                                  capsys):
        solves = []
        monkeypatch.setattr(cli, "picard_solve", lambda *args, **kwargs: solves.append(args))
        code = self.run_config_with("pde-check", path, value, tmp_path)
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "time step count" in err
        assert solves == []

    def test_pde_sigma_whose_square_underflows_runs_as_sigma_zero(self, tmp_path, capsys):
        surfaces = []
        for run, sigma in enumerate((1e-300, 0.0)):
            (tmp_path / str(run)).mkdir()
            code = self.run_config_with("pde-check", ("problem", "sigma"), [[sigma]], tmp_path / str(run))
            assert code == 0
            surfaces.append((tmp_path / str(run) / "o" / "value_surface.csv").read_bytes())
        assert capsys.readouterr().err == ""
        assert surfaces[0] == surfaces[1]

    @pytest.mark.parametrize(
        "pde",
        [
            {"cfl": float("nan")}, {"cfl": 0}, {"cfl": -0.3}, {"cfl": float("inf")},
            {"nx": 0}, {"nx": 1}, {"nx": 2},
            {"nx": 3, "nt": 10, "x_min": 0.0, "x_max": float("inf")},
            # a value surface of more bytes than numpy can index
            {"nx": 1e20}, {"nx": 1e18}, {"nx": 51, "nt": 1e20, "x_min": 0.0, "x_max": 2.0},
            # the explicit scheme's stability ratio, checked where the grid is built
            {"cfl": 0.9},
            {"nx": 201, "nt": 10, "x_min": -1.0, "x_max": 3.0},
            # settings the chosen grid would not use
            {"nt": 1}, {"x_min": 0.0}, {"nx": 51, "nt": 400, "x_min": 0.0},
            {"nx": 51, "nt": 400, "x_min": 0.0, "x_max": 2.0, "cfl": 0.4},
            # a box without x0 = 1, where the grid value would be clamped to an edge
            {"nx": 41, "nt": 2000, "x_min": 5.0, "x_max": 6.0},
        ],
        ids=[
            "cfl=nan", "cfl=0", "cfl=-0.3", "cfl=inf", "nx=0", "nx=1", "nx=2", "x_max=inf",
            "nx=1e20", "nx=1e18", "nt=1e20", "cfl=0.9", "explicit_nt_too_small", "partial_nt", "partial_x_min",
            "partial_no_x_max", "cfl_with_explicit_grid", "box_without_x0",
        ],
    )
    def test_pde_grid_rejected_before_the_solve(self, pde, tmp_path, monkeypatch, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["pde"] = pde
        cfg_path = tmp_path / "pde.json"
        cfg_path.write_text(json.dumps(cfg))
        solves = []
        monkeypatch.setattr(cli, "picard_solve", lambda *args, **kwargs: solves.append(args))
        code = main(["pde-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        self.assert_one_line_usage_error(code, capsys.readouterr().err)
        assert solves == []

    @pytest.mark.parametrize("box", [(1.0, 3.0), (-1.0, 1.0)], ids=["x_min=x0", "x_max=x0"])
    def test_pde_box_with_x0_on_an_edge_runs(self, box, tmp_path, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["pde"] = {"nx": 41, "nt": 100, "x_min": box[0], "x_max": box[1]}
        cfg_path = tmp_path / "pde.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["pde-check", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "o" / "feynman_kac_report.json").exists()

    @pytest.mark.parametrize(
        "problem, named",
        [
            ({"sigma": [[0.3, 0.1], [0.2, 0.1]]}, "sigma"),
            (
                {
                    "x0": [1.0, 1.0], "C0": [0.0, 0.0], "C1": [[0.25, 0.0], [0.0, 0.25]],
                    "terminal": {"kind": "linear", "coeffs": [1.0, 1.0]}, "sigma": [[0.3]],
                },
                "sigma",
            ),
            ({"sigma": []}, "sigma"),
            ({"terminal": {"kind": "constant", "value": float("nan")}}, "terminal value"),
        ],
        ids=["sigma_2x2_for_1d_state", "sigma_1x1_for_2d_state", "sigma_empty", "terminal_nan"],
    )
    def test_problem_rejected_when_built(self, problem, named, tmp_path, monkeypatch, capsys):
        cfg = json.loads(json.dumps(APP_CONFIG))
        cfg["problem"].update(problem)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        solves = []
        monkeypatch.setattr(cli, "picard_solve", lambda *args, **kwargs: solves.append(args))
        code = main(["solve", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert named in err
        assert solves == []

    @pytest.mark.parametrize("steps", [10**20, 10**18], ids=["steps=1e20", "steps=1e18"])
    def test_oversized_time_grid_rejected_before_the_solve(self, steps, app_config, tmp_path,
                                                           monkeypatch, capsys):
        # 1e20 steps fail the time grid, 1e18 steps the particle paths of 100 particles
        draws = []
        monkeypatch.setattr(coupling, "brownian_increments", lambda *args: draws.append(args))
        code = main(["solve", "--config", str(app_config), "--particles", "100",
                     "--steps", str(steps), "--out", str(tmp_path / "o")])
        self.assert_one_line_usage_error(code, capsys.readouterr().err)
        assert draws == []

    def test_removed_threads_flag(self, app_config, tmp_path, capsys):
        code = main(
            ["solve", "--config", str(app_config), "--out", str(tmp_path / "o"), "--threads", "2"]
        )
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert "--threads" in err

    @pytest.mark.parametrize(
        "command,path,key,value", NOT_NUMBERS, ids=[f"{c}:{k}={v!r}" for c, _, k, v in NOT_NUMBERS]
    )
    def test_config_number_of_another_type(self, command, path, key, value, tmp_path, monkeypatch,
                                           capsys):
        cfg = json.loads(json.dumps(NOT_NUMBER_BASES[command]))
        section = cfg
        for name in path:
            section = section[name]
        if key == "bounds":  # an affine rule in place of the constant one
            section.clear()
            section.update(kind="affine", alpha=0.0, beta=0.0)
        section[key] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        solves = []
        monkeypatch.setattr(cli, "picard_solve", lambda *args, **kwargs: solves.append(args))
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert f"'{key}'" in err
        assert solves == []

    def test_allocation_beyond_memory(self, capsys):
        # 1e18 steps pass the index-size check, and their 8 EiB value path
        # lies beyond the address space, so the allocation fails at once
        code = main(["counterexample", "--lambda", "2", "--gamma", "1", "--steps", str(10**18)])
        err = capsys.readouterr().err
        self.assert_one_line_usage_error(code, err)
        assert err.startswith("error: out of memory: ")


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

    def test_reference_report_bit_for_bit(self, tmp_path, capsys):
        # the deterministic reduction at lambda 2, gamma 1, c 0.1, T 1, 1000 RK4 steps
        expected = {
            "e_zero": "0x0.0p+0",
            "e_plus": "0x1.c50f010100f7fp-4",
            "e_minus": "-0x1.7585420d68a24p-4",
            "subadditivity_gap": "0x1.3e26fbce6156cp-6",
            "translation_defect": "0x1.5bab3b3b3af28p-7",
            "curvature_numeric": "0x1.ffff79c8b02f7p+0",
        }
        code = main([
            "counterexample", "--lambda", "2", "--gamma", "1", "--c", "0.1", "--T", "1",
            "--steps", "1000", "--out", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "counterexample_report.json").read_text())
        assert {k: report[k].hex() for k in expected} == expected


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


def readme_config():
    """The JSON block under "A problem config looks like:" in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tail = readme.split("A problem config looks like:", 1)[1]
    block = re.search(r"```json\n(.*?)```", tail, re.S)
    return json.loads(block.group(1))


class TestReadmeExample:
    def test_problem_config_solves(self, tmp_path, capsys):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(readme_config()))
        out_dir = tmp_path / "o"
        code = main([
            "solve", "--config", str(path), "--particles", "200", "--steps", "10",
            "--out", str(out_dir),
        ])
        assert code == 0, capsys.readouterr().err
        assert json.loads((out_dir / "summary.json").read_text())["converged"]


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
        sub = report["results"]["subadditivity_violation"]
        assert sub["passed"]
        assert set(sub) == {"gap", "expected", "floor", "passed"}
        assert sub["gap"] > 0.5 * sub["expected"] > 1e6 * sub["floor"]

    def test_negative_split_passes_every_gate(self, tmp_path, capsys):
        # the monotonicity check orders c and -c itself; the counterexample
        # command takes the same negative c
        reports = {}
        for c in (-0.1, 0.1):
            path = tmp_path / f"props{c}.json"
            path.write_text(json.dumps({"counterexample": {"lambda": 2.0, "gamma": 1.0, "c": c}}))
            out_dir = tmp_path / f"out{c}"
            code = main(["properties", "--config", str(path), "--out", str(out_dir)])
            assert code == 0
            assert "5/5 checks passed" in capsys.readouterr().out
            reports[c] = json.loads((out_dir / "property_report.json").read_text())
        assert reports[-0.1]["failures"] == []
        assert reports[-0.1]["results"]["monotonicity"] == reports[0.1]["results"]["monotonicity"]
        assert reports[-0.1]["results"]["monotonicity"]["margin"] > 0.0

    @pytest.mark.parametrize(
        "lam, gamma, c", [(2.0, 1.0, 0.1), (3.0, 1.0, -0.2), (4.0, 0.5, 0.05), (1.5, 1.0, 0.3)]
    )
    def test_gap_and_defect_equal_the_counterexample_commands(self, lam, gamma, c, tmp_path,
                                                              capsys):
        # both suites value one quartic reduction, so they report the same floats
        path = tmp_path / "props.json"
        path.write_text(json.dumps({"counterexample": {"lambda": lam, "gamma": gamma, "c": c,
                                                       "steps": 400}}))
        assert main(["properties", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert main([
            "counterexample", f"--lambda={lam}", f"--gamma={gamma}", f"--c={c}", "--steps=400",
            f"--out={tmp_path}",
        ]) == 0
        results = json.loads((tmp_path / "property_report.json").read_text())["results"]
        report = json.loads((tmp_path / "counterexample_report.json").read_text())
        assert results["subadditivity_violation"]["gap"].hex() == report["subadditivity_gap"].hex()
        assert results["translation_defect"]["defect"].hex() == report["translation_defect"].hex()

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

    @pytest.mark.parametrize(
        "flags, solver",
        [
            (["--particles", "3"], None), (["--seed", "7"], None), (["--tol", "-5"], None),
            (["--steps", "1"], None), (["--max-iter", "2"], None),
            (["--particles", "3", "--seed", "7", "--tol", "-5", "--steps", "1"], None),
            ([], {"particles": 400}),
        ],
        ids=["particles", "seed", "tol", "steps", "max_iter", "four_flags", "solver_section"],
    )
    def test_solver_settings_need_a_problem_section(self, flags, solver, tmp_path, capsys):
        cfg = {"counterexample": {"lambda": 2.0, "gamma": 1.0, "steps": 50}}
        if solver is not None:
            cfg["solver"] = solver
        path = tmp_path / "props.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "o"
        code = main(["properties", "--config", str(path), "--out", str(out_dir), *flags])
        TestMalformedInputs.assert_one_line_usage_error(code, capsys.readouterr().err)
        assert not out_dir.exists()

    def test_failed_check_exits_three(self, tmp_path, capsys):
        # a split too small for the RK4 defect to resolve trips the check
        cfg = {
            "counterexample": {
                "lambda": 2.0,
                "gamma": 1.0,
                "c": 1e-9,
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
        report = json.loads((out_dir / "property_report.json").read_text())
        assert "translation_defect" in report["failures"]
        # the gap 2 c^2 T = 2e-18 lies far below the rounding floor of about 4.4e-16
        assert "subadditivity_violation" in report["failures"]
        sub = report["results"]["subadditivity_violation"]
        assert sub["expected"] == pytest.approx(2e-18, rel=1e-12)
        assert abs(sub["gap"]) < sub["floor"] and sub["expected"] < sub["floor"]

    @staticmethod
    def translation_result(tmp_path, c):
        cfg = {"counterexample": {"lambda": 2.0, "gamma": 1.0, "c": c, "T": 1.0, "steps": 400}}
        path = tmp_path / "props.json"
        path.write_text(json.dumps(cfg))
        code = main(["properties", "--config", str(path), "--out", str(tmp_path / "o")])
        report = json.loads((tmp_path / "o" / "property_report.json").read_text())
        return code, report["results"]["translation_defect"]

    @pytest.mark.parametrize("c", [0.1, 1e-3, 5e-4, 1e-4])
    def test_translation_defect_gate_scales_with_c(self, tmp_path, c):
        # the old absolute gate |defect| > 1e-6 failed every c below about 1e-3
        code, result = self.translation_result(tmp_path, c)
        assert code == 0
        assert result["passed"]
        # lam gamma / (lam - gamma) = 2, so the leading term is c^2 T
        assert result["expected"] == pytest.approx(c * c, rel=1e-12)
        assert 1.0 <= result["defect"] / result["expected"] <= 1.1
        assert 0.0 < result["floor"] < 1e-3 * result["defect"]

    def test_zero_split_has_no_defect_and_fails(self, tmp_path):
        code, result = self.translation_result(tmp_path, 0.0)
        assert code == 3
        assert result["defect"] == 0.0
        assert not result["passed"]


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


class TestJsonReport:
    def test_same_bytes_as_json_dump_to_a_text_file(self, tmp_path):
        payload = {
            "z": {"nested": {"list": [1, 2.5, -0.0, None, True], "empty": {}}},
            "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "neg_zero": -0.0,
            "σ_ключ": "значение", "a": [[0.1, 1e300], [5e-324], []],
        }
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_json(tmp_path / "new.json", payload)
        assert (tmp_path / "new.json").read_bytes() == ref.read_bytes()


# fast-path cells with 17 digits, then fallback cells, then fast-path cells
# again: with two rows per block each kind fills whole blocks, so a reused
# slot buffer meets both orders in every column
ALTERNATING = np.array([1 / 3, -2 / 3, float("nan"), 1e-300, 0.1, 123456.789, -0.0, 5e-324, 2 / 7, -7.75])


class TestBlockedWriters:
    def test_reused_block_buffer_keeps_no_stale_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_csv, "_BLOCK_ROWS", 2)
        n = ALTERNATING.size
        cols = np.array([[np.roll(ALTERNATING, 2 * c) for c in range(4)]] * 2).transpose(0, 2, 1)
        sol = SolutionPaths(
            times=np.array([0.0, 0.1]),
            X=cols[:, :, 0:1],
            Y=cols[:, :, 1],
            Z=cols[:, :, 2:3],
            A=cols[:, :, 3],
            measures=(EmpiricalMeasure(np.zeros(1)),) * 2,
        )
        write_paths_csv(tmp_path / "new.csv", sol)
        reference_paths_csv(tmp_path / "ref.csv", sol)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        grid = Grid1D(-1.0, 1.0, n, 2)
        surface = np.array([np.roll(ALTERNATING, 4 * i) for i in range(grid.nt + 1)])
        write_surface_csv(tmp_path / "new_surface.csv", grid, 0.5, surface)
        reference_surface_csv(tmp_path / "ref_surface.csv", grid, 0.5, surface)
        assert (tmp_path / "new_surface.csv").read_bytes() == (tmp_path / "ref_surface.csv").read_bytes()

    def test_object_arrays_of_floats_write_the_same_bytes(self, tmp_path):
        write_paths_csv(tmp_path / "paths.csv", golden_solution(a_dtype=object))
        reference_paths_csv(tmp_path / "paths_ref.csv", golden_solution())
        assert (tmp_path / "paths.csv").read_bytes() == (tmp_path / "paths_ref.csv").read_bytes()
        write_surface_csv(tmp_path / "surface.csv", GOLDEN_GRID, 1 / 3, golden_surface(dtype=object))
        reference_surface_csv(tmp_path / "surface_ref.csv", GOLDEN_GRID, 1 / 3, golden_surface())
        assert (tmp_path / "surface.csv").read_bytes() == (tmp_path / "surface_ref.csv").read_bytes()


def broadcast_a_solution(n_particles=SPECIAL.size):
    """One node per SPECIAL value, each node's A that value broadcast over the
    particles (stride 0, as a state-free solve returns it); t runs through
    SPECIAL too, and k = 2, d = 1."""
    n_nodes = SPECIAL.size
    cols = np.array([
        [np.resize(np.roll(SPECIAL, 2 * i + c), n_particles) for c in range(4)] for i in range(n_nodes)
    ]).transpose(0, 2, 1)
    return SolutionPaths(
        times=np.roll(SPECIAL, 5),
        X=cols[:, :, 0:2],
        Y=cols[:, :, 2],
        Z=cols[:, :, 3:4],
        A=np.broadcast_to(SPECIAL[:, None], (n_nodes, n_particles)),
        measures=(EmpiricalMeasure(np.zeros(1)),) * n_nodes,
    )


def same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


class TestOnceFormattedColumns:
    """The columns printed once (t, particle, a repeated A, the surface's t
    and x) against the per-cell reference writers."""

    @pytest.mark.parametrize("block_rows", [2, None])
    def test_broadcast_a_matches_reference_bytes(self, block_rows, tmp_path, monkeypatch):
        if block_rows is not None:  # a node spans several passes
            monkeypatch.setattr(_csv, "_BLOCK_ROWS", block_rows)
        sol = broadcast_a_solution()
        assert sol.A.strides[0] != 0 and sol.A.strides[1] == 0
        write_paths_csv(tmp_path / "new.csv", sol)
        reference_paths_csv(tmp_path / "ref.csv", sol)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_materialized_a_writes_the_same_bytes(self, tmp_path):
        sol = broadcast_a_solution()
        dense = SolutionPaths(sol.times, sol.X, sol.Y, sol.Z, np.array(sol.A), sol.measures)
        assert dense.A.strides[1] == dense.A.itemsize
        write_paths_csv(tmp_path / "broadcast.csv", sol)
        write_paths_csv(tmp_path / "dense.csv", dense)
        assert same_bytes(tmp_path / "broadcast.csv", tmp_path / "dense.csv")

    def test_equal_floats_with_other_bits_keep_their_own_cells(self, tmp_path):
        # -0.0 == 0.0 and nan payloads differ: a float == test would print one text
        nan_bits = np.array([0x7FF8000000000000, 0x7FF8000000000001], np.uint64).view(float)
        for first, other in ((0.0, -0.0), (-0.0, 0.0), tuple(nan_bits)):
            sol = broadcast_a_solution(n_particles=4)
            a = np.full(sol.A.shape, first)
            a[:, 2] = other
            sol = SolutionPaths(sol.times, sol.X, sol.Y, sol.Z, a, sol.measures)
            write_paths_csv(tmp_path / "new.csv", sol)
            reference_paths_csv(tmp_path / "ref.csv", sol)
            assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    @pytest.mark.parametrize("block_rows", [4, 20, 32, None])
    def test_surface_layers_across_passes_match_reference_bytes(self, block_rows, tmp_path, monkeypatch):
        # nx = 15 is no multiple of any block size; at 32 rows a pass holds two
        # layers and the last pass one
        if block_rows is not None:
            monkeypatch.setattr(_csv, "_BLOCK_ROWS", block_rows)
        grid = Grid1D(-2.5, 0.1, SPECIAL.size, 6)
        surface = np.array([np.roll(SPECIAL, 3 * i) for i in range(grid.nt + 1)])
        write_surface_csv(tmp_path / "new.csv", grid, 0.7, surface)
        reference_surface_csv(tmp_path / "ref.csv", grid, 0.7, surface)
        assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")

    def test_cli_solve_matches_reference_bytes(self, tmp_path, monkeypatch, capsys):
        solved = []

        def recording_writer(path, sol):
            solved.append(sol)
            write_paths_csv(path, sol)

        monkeypatch.setattr(cli, "write_paths_csv", recording_writer)
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(readme_config()))
        code = main([
            "solve", "--config", str(path), "--particles", "60", "--steps", "6", "--seed", "3",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0, capsys.readouterr().err
        (sol,) = solved
        assert all(isinstance(a, _csv.Text) for a in _csv.rows_once_if_repeated(sol.A))
        reference_paths_csv(tmp_path / "ref.csv", sol)
        assert same_bytes(tmp_path / "o" / "paths.csv", tmp_path / "ref.csv")


class TestSurfaceShape:
    @pytest.mark.parametrize("shape", [(2, 5), (4, 5), (3, 4), (3, 6)])
    def test_surface_off_the_grid_is_a_usage_error(self, shape, tmp_path):
        grid = Grid1D(-1.0, 1.0, 5, 2)
        target = tmp_path / "value_surface.csv"
        target.write_bytes(b"previous run\n")
        with pytest.raises(UsageError, match="does not match"):
            write_surface_csv(target, grid, 1.0, np.zeros(shape))
        assert target.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["value_surface.csv"]

    def test_surface_on_the_grid_is_written(self, tmp_path):
        grid = Grid1D(-1.0, 1.0, 5, 2)
        write_surface_csv(tmp_path / "s.csv", grid, 1.0, np.zeros((3, 5)))
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 3 * 5


class TestCellsPrintedPerPass:
    """Count the cells the fill kernel receives: the per-cell columns once per
    cell, each once-printed column once per value."""

    @pytest.fixture
    def filled(self, monkeypatch):
        counts = []
        fill = _csv._fill

        def counting_fill(x, slots):
            counts.append(x.size)
            return fill(x, slots)

        monkeypatch.setattr(_csv, "_fill", counting_fill)
        return counts

    def test_state_free_solution(self, filled, tmp_path):
        spec = cli.build_problem(APP_CONFIG["problem"])
        n_steps, n = 5, 40
        sol, _ = picard_solve(spec, TimeGrid(1.0, n_steps), n, seed=2)
        N = n_steps + 1
        assert sol.X.shape == (N, n, 1) and sol.Z.shape == (N, n, 1)
        write_paths_csv(tmp_path / "p.csv", sol)
        # X, Y, Z per cell; particle once per file; t and A once per node
        assert sum(filled) == 3 * N * n + n + N + N == 772

    def test_state_dependent_solution(self, filled, tmp_path):
        sol = broadcast_a_solution()
        sol = SolutionPaths(sol.times, sol.X[..., :1], sol.Y, sol.Z, np.array(sol.X[..., 1]), sol.measures)
        N, n = sol.A.shape
        write_paths_csv(tmp_path / "p.csv", sol)
        # X, Y, Z and A per cell; particle once per file; t once per node
        assert sum(filled) == 4 * N * n + n + N == 930

    def test_surface(self, filled, tmp_path):
        grid = Grid1D(-1.0, 1.0, 7, 4)
        write_surface_csv(tmp_path / "s.csv", grid, 1.0, np.ones((grid.nt + 1, grid.nx)))
        # v per cell; x once per file; t once per layer
        assert sum(filled) == 5 * 7 + 7 + 5 == 47
