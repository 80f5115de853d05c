import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diaginterp import cli
from diaginterp.cli import main
from diaginterp.engine import config_to_json
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import spec_to_json, ImageSpaceSpec
from diaginterp.models import LinearModel, init_neural, model_to_json


def read_json(path):
    return json.loads(path.read_text())


class TestInterpret:
    def test_fixture_run_writes_report_and_trajectory(self, tmp_path):
        code = main(["interpret", "--fixture", "fig2-diagonal", "--seed", "7",
                     "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "report.json")
        assert report["final_interpretability"] == 1.0
        assert len(report["steps"]) <= 4
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,I_t,delta_I_t,H_total"
        assert len(lines) == len(report["steps"]) + 1

    def test_run_spec_file_with_explicit_models(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        spec = config_to_json(fx.engine_config(rng_seed=3))
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "report.json")["seed"] == 3

    def test_run_spec_with_fixture_shortcut(self, tmp_path):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"fixture": "fig2-diagonal", "rng_seed": 7}))
        code = main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)])
        assert code == 0

    def test_missing_model_b_exits_2(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        doc = config_to_json(fx.engine_config(rng_seed=0))
        del doc["model_b"]
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2

    def test_malformed_json_exits_2_with_position(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text('{"fixture": "fig2-diagonal",\n  broken\n}')
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_spec_and_fixture_together_exit_2(self, tmp_path):
        assert main(["interpret", "--spec", "x.json", "--fixture", "fig1b",
                     "--out", str(tmp_path)]) == 2

    def test_guard_error_exits_3(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        doc = config_to_json(fx.engine_config(rng_seed=0))
        doc["space"] = spec_to_json(ImageSpaceSpec(5, 5, "full"))
        doc["model_a"]["width"] = doc["model_a"]["height"] = 5
        doc["model_b"]["width"] = doc["model_b"]["height"] = 5
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exits_2_without_report(self, tmp_path, value):
        assert main(["interpret", "--fixture", "fig1b", "--lambda", value,
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("models, value", [
        ("explicit", 2.7), ("fixture", 2.7), ("fixture", "3"),
    ])
    def test_non_integer_max_queries_exits_2(self, tmp_path, capsys, models, value):
        if models == "fixture":
            doc = {"fixture": "fig1b"}
        else:
            doc = config_to_json(build_fixture("fig2-diagonal").engine_config(rng_seed=0))
        doc["max_queries"] = value
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "max_queries must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("fixture, value", [("eval-squares", 2.5), ("fig1b", "7")])
    def test_non_integer_fixture_seed_exits_2(self, tmp_path, capsys, fixture, value):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"fixture": fixture, "rng_seed": value}))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "rng_seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("lambda", "0.5"), ("lambda", True), ("retrain_learning_rate", "2"),
    ])
    def test_non_number_real_setting_exits_2(self, tmp_path, capsys, key, value):
        doc = config_to_json(build_fixture("fig2-diagonal").engine_config(rng_seed=0))
        doc[key] = value
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert f"{key} must be a finite real number" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_integer_lambda_echoes_as_float(self, tmp_path):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"fixture": "fig2-diagonal", "lambda": 1}))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").read_text().count('"lambda": 1.0,') == 1

    @pytest.mark.parametrize("label", [1.7, True, "0", 2])
    def test_dataset_label_not_0_or_1_exits_2(self, tmp_path, capsys, label):
        model_a = LinearModel(4, 4, np.zeros(16), 0.0)
        config = build_fixture("fig2-diagonal").engine_config(rng_seed=0)
        doc = config_to_json(replace(config, model_a=model_a, base_dataset=()))
        doc["base_dataset"] = [["0" * 16, label]]
        doc["max_queries"] = 0
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "base_dataset labels must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("index", [1.5, True])
    def test_non_integer_rule_pixel_exits_2(self, tmp_path, capsys, index):
        def rule(ones):
            return {"kind": "rule", "width": 2, "height": 2,
                    "levels": [{"ones_required": ones, "zeros_required": []}]}

        doc = {"space": {"width": 2, "height": 2, "mode": "full"}, "model_a": rule([index]),
               "model_b": rule([0]), "updater": "rule_minimal_edit"}
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: pixel index")
        assert not out.exists()

    @pytest.mark.parametrize("updater", ["retrain_with_queries", "rule_edit", None])
    def test_updater_must_name_the_known_models_update(self, tmp_path, capsys, updater):
        doc = config_to_json(build_fixture("fig2-diagonal").engine_config(rng_seed=0))
        assert doc["updater"] == "rule_minimal_edit"
        if updater is None:
            del doc["updater"]
        else:
            doc["updater"] = updater
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "updater" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["interpret", "--fixture", "fig2-diagonal", "--seed", "9",
                         "--out", str(out)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


class TestOracle:
    def test_diagonal_fixture_counts(self, tmp_path, capsys):
        assert main(["oracle", "--fixture", "fig2-diagonal", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "oracle.json")
        assert doc["disagreement_counts"] == [4]
        assert doc["sample_size"] == 34
        assert "4" in capsys.readouterr().out

    def test_identical_models_from_files(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        models_path = tmp_path / "models.json"
        models_path.write_text(json.dumps({
            "model_a": model_to_json(fx.model_b),
            "model_b": model_to_json(fx.model_b),
        }))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(spec_to_json(fx.space)))
        assert main(["oracle", "--models", str(models_path), "--space", str(space_path),
                     "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "oracle.json")
        assert doc["disagreement_counts"] == [0]
        assert doc["total_entropy"] == 0.0

    def test_fig1c_emits_fixed_point_entropies(self, tmp_path):
        assert main(["oracle", "--fixture", "fig1c", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "oracle.json")
        fp = doc["fixed_point"]
        assert fp["initial_entropy"] == pytest.approx(1.0)
        assert 0.0 < fp["fixed_point_entropy"] < fp["initial_entropy"]
        expected = (fp["initial_entropy"] - fp["fixed_point_entropy"]) / fp["initial_entropy"]
        assert fp["interpretability"] == pytest.approx(expected, abs=1e-12)

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["oracle", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("broken, message", [
        ("model_a", "models file missing key 'model_a'"),
        ("zeros_required", "model document missing key 'zeros_required'"),
    ])
    def test_missing_model_key_exits_2_naming_it(self, tmp_path, capsys, broken, message):
        fx = build_fixture("fig2-diagonal")
        models = {"model_a": model_to_json(fx.model_a), "model_b": model_to_json(fx.model_b)}
        if broken == "model_a":
            del models["model_a"]
        else:
            del models["model_b"]["levels"][0]["zeros_required"]
        models_path = tmp_path / "models.json"
        models_path.write_text(json.dumps(models))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(spec_to_json(fx.space)))
        assert main(["oracle", "--models", str(models_path), "--space", str(space_path),
                     "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "oracle.json").exists()

    def test_malformed_neural_model_exits_2(self, tmp_path, capsys):
        net = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
        net["layers"][0]["activation"] = "tanh"
        models_path = tmp_path / "models.json"
        models_path.write_text(json.dumps({"model_a": net, "model_b": net}))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(spec_to_json(ImageSpaceSpec(2, 2, "full"))))
        assert main(["oracle", "--models", str(models_path), "--space", str(space_path),
                     "--out", str(tmp_path)]) == 2
        assert "error: unknown activation 'tanh'" in capsys.readouterr().err
        assert not (tmp_path / "oracle.json").exists()

    def test_ragged_neural_weights_exit_2_with_a_typed_message(self, tmp_path, capsys):
        net = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
        net["layers"][0]["weights"][1].pop()
        models_path = tmp_path / "models.json"
        models_path.write_text(json.dumps({"model_a": net, "model_b": net}))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(spec_to_json(ImageSpaceSpec(2, 2, "full"))))
        assert main(["oracle", "--models", str(models_path), "--space", str(space_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: layer weights must be a rectangular array of numbers" in err
        assert "malformed input" not in err
        assert not (tmp_path / "oracle.json").exists()


class TestDemo:
    def test_fig1b_summary(self, tmp_path, capsys):
        assert main(["demo", "--fixture", "fig1b", "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "I = 1.000" in summary
        assert "H_final = 0.000" in summary

    def test_fig2_diagonal_summary_reports_initial_entropy(self, tmp_path):
        assert main(["demo", "--fixture", "fig2-diagonal", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "h = 0.5226" in summary
        assert "I = 1.000" in summary

    def test_fig1c_summary_strictly_between(self, tmp_path):
        assert main(["demo", "--fixture", "fig1c", "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "I = 0.189" in summary

    def test_unknown_fixture_exits_2_and_lists_names(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["demo", "--fixture", "mystery", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for name in ("fig1b", "fig1c", "fig2-diagonal", "eval-squares"):
            assert name in err
        assert not out.exists()

    def test_eval_squares_demo_writes_per_seed_reports(self, tmp_path):
        assert main(["demo", "--fixture", "eval-squares", "--seed", "0",
                     "--seeds", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report_seed0.json").exists()
        assert (tmp_path / "report_seed1.json").exists()
        assert (tmp_path / "trajectory_seed0.csv").exists()
        mean = (tmp_path / "mean_trajectory.csv").read_text().splitlines()
        assert mean[0] == "t,mean_I_t"
        reports = [read_json(tmp_path / f"report_seed{s}.json") for s in (0, 1)]
        horizon = max(len(r["steps"]) for r in reports)
        assert len(mean) == horizon + 1
        for row in mean[1:]:
            # shorter runs are padded with their final interpretability
            assert 0.0 <= float(row.split(",")[1]) <= 1.0
        summary = (tmp_path / "summary.txt").read_text()
        assert "seeds reached I >= 0.99" in summary
        assert "epsilon" in summary

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_1_exit_2(self, tmp_path, capsys, monkeypatch, seeds):
        def no_fixture(*args):
            raise AssertionError("a fixture was built")

        monkeypatch.setattr(cli, "build_fixture", no_fixture)
        assert main(["demo", "--fixture", "eval-squares", "--seeds", seeds,
                     "--out", str(tmp_path)]) == 2
        assert "--seeds must be at least 1" in capsys.readouterr().err

    def test_demo_and_oracle_agree_on_initial_entropy(self, tmp_path):
        demo_dir, oracle_dir = tmp_path / "demo", tmp_path / "oracle"
        assert main(["demo", "--fixture", "fig2-diagonal", "--seed", "7",
                     "--out", str(demo_dir)]) == 0
        assert main(["oracle", "--fixture", "fig2-diagonal",
                     "--out", str(oracle_dir)]) == 0
        demo_h = read_json(demo_dir / "report.json")["initial_entropy"]["total"]
        oracle_h = read_json(oracle_dir / "oracle.json")["total_entropy"]
        assert abs(demo_h - oracle_h) <= 1e-12

    def test_oracle_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["oracle", "--fixture", "fig2-diagonal", "--out", str(out)]) == 0
        assert (out1 / "oracle.json").read_bytes() == (out2 / "oracle.json").read_bytes()

    def test_demo_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["demo", "--fixture", "fig2-diagonal", "--seed", "4",
                         "--out", str(out)]) == 0
        assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestBlasThreads:
    """The CLI runs OpenBLAS on one thread unless the user chose a count.
    OpenBLAS reads the variable once, when numpy is first imported, so the
    package itself must not import numpy before cli.py sets it."""

    @staticmethod
    def fresh_python(code, threads=None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_cli_sets_one_thread_unless_the_user_chose(self, given, expected):
        code = "import os, diaginterp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.fresh_python(code, threads=given) == expected

    def test_package_import_leaves_numpy_unimported(self):
        code = "import sys, diaginterp; print('numpy' in sys.modules)"
        assert self.fresh_python(code) == "False"
