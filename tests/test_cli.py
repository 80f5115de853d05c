import gc
import hashlib
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
from diaginterp.engine import config_from_json, config_to_json, run_interpretation
from diaginterp.fixtures import build_fixture
from diaginterp.imagespace import spec_to_json, ImageSpaceSpec
from diaginterp.models import LinearModel, RuleLevel, RuleModel, init_neural, model_to_json


def read_json(path):
    return json.loads(path.read_text())


def linear_run_spec(rows=("0" * 16,), labels=(0,), **settings):
    """fig2-diagonal's run spec with a zero-weight linear known model, which
    is retrained on the base dataset of ``rows`` and ``labels``."""
    config = replace(build_fixture("fig2-diagonal"), rng_seed=0, **settings)
    base = np.array([[int(c) for c in text] for text in rows], dtype=np.uint8), np.array(labels)
    model_a = LinearModel(4, 4, np.zeros(16), 0.0)
    return config_to_json(replace(config, model_a=model_a, base_dataset=base))


# A base dataset for linear_run_spec: both diagonals and one off-diagonal image.
RETRAIN_ROWS = ["1000010000100001", "0001001001001000", "1100000000000000"]


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
        spec = config_to_json(replace(fx, rng_seed=3))
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)])
        assert code == 0
        assert read_json(tmp_path / "report.json")["seed"] == 3

    @pytest.mark.parametrize("fixture, seed", [("fig2-diagonal", "7"), ("eval-squares", "3")])
    def test_report_config_reruns_its_run(self, tmp_path, fixture, seed):
        # a report's config is an explicit run spec of the run that wrote it
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["interpret", "--fixture", fixture, "--seed", seed, "--out", str(first)]) == 0
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(read_json(first / "report.json")["config"]))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(again)]) == 0
        for name in ("report.json", "trajectory.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_spec_holding_only_a_fixture_exits_2(self, tmp_path, capsys):
        # a fixture is named with --fixture; a run spec is explicit
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"fixture": "fig2-diagonal"}))
        out = tmp_path / "out"
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: run spec missing key 'space'"]
        assert not out.exists()

    def test_misspelt_setting_exits_2_naming_it(self, tmp_path, capsys):
        # a key config_to_json does not write is refused, not run on its default
        doc = config_to_json(replace(build_fixture("fig2-diagonal"), rng_seed=7))
        doc["max_querys"] = 1
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: run spec has unknown key 'max_querys'"
        ]
        assert not out.exists()

    def test_missing_model_b_exits_2(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        doc = config_to_json(replace(fx, rng_seed=0))
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

    @pytest.mark.parametrize("text, kind", [('"model_a"', "str"), ("[]", "list"), ("7", "int")])
    def test_spec_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, text, kind):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(text)
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {spec_path} must hold a JSON object, got {kind}" in err
        assert "malformed input" not in err
        assert not (tmp_path / "out").exists()

    def test_spec_and_fixture_together_exit_2(self, tmp_path):
        assert main(["interpret", "--spec", "x.json", "--fixture", "fig1b",
                     "--out", str(tmp_path)]) == 2

    def test_guard_error_exits_3(self, tmp_path):
        fx = build_fixture("fig2-diagonal")
        doc = config_to_json(replace(fx, rng_seed=0))
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

    @pytest.mark.parametrize("value", [2.7, "3"], ids=["explicit-2.7", "explicit-3"])
    def test_non_integer_max_queries_exits_2(self, tmp_path, capsys, value):
        doc = config_to_json(replace(build_fixture("fig2-diagonal"), rng_seed=0))
        doc["max_queries"] = value
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "max_queries must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("fixture, value", [("eval-squares", "2.5"), ("fig1b", "7.0")])
    def test_non_integer_fixture_seed_exits_2(self, tmp_path, capsys, fixture, value):
        # argparse refuses it before any fixture is built
        out = tmp_path / "out"
        assert main(["interpret", "--fixture", fixture, "--seed", value, "--out", str(out)]) == 2
        assert f"argument --seed: invalid int value: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("lambda", "0.5"), ("lambda", True), ("retrain_learning_rate", "2"),
    ])
    def test_non_number_real_setting_exits_2(self, tmp_path, capsys, key, value):
        doc = config_to_json(replace(build_fixture("fig2-diagonal"), rng_seed=0))
        doc[key] = value
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert f"{key} must be a finite real number" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_bad_retrain_settings_exit_2_before_any_retrain(self, tmp_path, capsys):
        # with no query there is no retrain, so only the config can refuse them
        bad = {"retrain_learning_rate": -1, "retrain_epochs": 0, "max_queries": 0}
        doc = linear_run_spec() | bad
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: learning rate must be a positive finite real, got -1.0"
        ]
        assert not (tmp_path / "report.json").exists()

    def test_objective_overflow_exits_2_without_output(self, tmp_path, capsys):
        # lambda is finite, but lambda times the query count is not
        out = tmp_path / "out"
        assert main(["interpret", "--fixture", "fig1b", "--lambda", "1e308",
                     "--max-queries", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: objective J overflows: lambda 1e+308 times 3 queries"]
        assert not out.exists()

    @pytest.mark.parametrize("path, text, message", [
        (["lambda"], "1" + "0" * 400, "lambda must be a finite real number"),
        (["model_b", "levels", 0, "ones_required", 0], "1" + "0" * 400,
         "pixel index 1000"),
        (["model_a", "bias"], "1" + "0" * 400, "linear bias must be a number"),
        (["model_a", "weights", 0], "1" + "0" * 400, "linear weights must be a rectangular"),
        (["max_queries"], "1" * 5000, "Exceeds the limit (4300 digits)"),
    ], ids=["lambda", "pixel", "bias", "weight", "5000-digits"])
    def test_huge_json_integer_exits_2(self, tmp_path, capsys, path, text, message):
        # an integer past float range, or past the digits int() takes
        doc = linear_run_spec()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@raw"
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc).replace('"@raw"', text))
        out = tmp_path / "out"
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    def test_integer_lambda_echoes_as_float(self, tmp_path):
        doc = config_to_json(replace(build_fixture("fig2-diagonal"), rng_seed=0)) | {"lambda": 1}
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert '"lambda": 1,' in spec_path.read_text()
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").read_text().count('"lambda": 1.0,') == 1

    @pytest.mark.parametrize("label", [1.7, True, "0", 2])
    def test_dataset_label_not_0_or_1_exits_2(self, tmp_path, capsys, label):
        doc = linear_run_spec()
        doc["base_dataset"] = [["0" * 16, label]]
        doc["max_queries"] = 0
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2
        assert "base_dataset labels must be 0 or 1" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("dataset, message", [
        ([["0" * 16, 0], ["1" * 16, True]], "base_dataset labels must be 0 or 1, got True"),
        *[
            (shape, "base_dataset must be a list of [bitstring, label] pairs")
            for shape in (True, 0, 2.5, "x", [1], [None])
        ],
        *[
            ([[text, 1]], f"base_dataset image {text!r} is not a 16-bit string")
            for text in (None, [[]], "0" * 15, "2" * 16)
        ],
    ])
    def test_malformed_dataset_exits_2_with_a_typed_message(
        self, tmp_path, capsys, dataset, message
    ):
        doc = linear_run_spec()
        doc["base_dataset"] = dataset
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_spec_driven_retrain_writes_the_api_report(self, tmp_path):
        # a linear known model retrained on its base dataset plus each query
        doc = linear_run_spec(RETRAIN_ROWS, [1, 0, 0], max_queries=6)
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["interpret", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        report = read_json(tmp_path / "report.json")
        assert report == run_interpretation(config_from_json(doc)).to_json()
        assert report["config"]["updater"] == "retrain_with_queries"
        assert len(report["steps"]) == 6

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
        doc = config_to_json(replace(build_fixture("fig2-diagonal"), rng_seed=0))
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


@pytest.mark.parametrize("argv", [
    ["interpret", "--fixture", "fig2-diagonal", "--seed", "-1"],
    ["demo", "--fixture", "eval-squares", "--seed", "-1", "--seeds", "1"],
    ["oracle", "--fixture", "eval-squares", "--seed", "-1"],
    ["demo", "--fixture", "fig1b", "--seed", "-1"],
])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: fixture seed cannot be negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("broken", ["models", "space", "spec"])
def test_too_deeply_nested_json_exits_2(tmp_path, capsys, broken):
    # valid JSON nested deeper than the parser's recursion limit, in a model,
    # a space setting or a run setting
    fx = build_fixture("fig2-diagonal")
    files = {
        "models": {"model_a": model_to_json(fx.model_a), "model_b": model_to_json(fx.model_b)},
        "space": spec_to_json(fx.space),
        "spec": config_to_json(replace(fx, rng_seed=0)),
    }
    files[broken][{"models": "model_a", "space": "width", "spec": "lambda"}[broken]] = "@raw"
    for name, doc in files.items():
        text = json.dumps(doc).replace('"@raw"', "[" * 100_000 + "]" * 100_000)
        (tmp_path / f"{name}.json").write_text(text)
    if broken == "spec":
        argv = ["interpret", "--spec", str(tmp_path / "spec.json")]
    else:
        argv = ["oracle", "--models", str(tmp_path / "models.json"),
                "--space", str(tmp_path / "space.json")]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: malformed JSON in {tmp_path / f'{broken}.json'}: ")
    assert not out.exists()



# A 2x2 model's score weights whose bound sum |w| + |b| overflows: 1100 and
# 0011 would score +inf and -inf, and 1111 inf - inf, a NaN.
OVERFLOWING_WEIGHTS = [1e308, 1e308, -1e308, -1e308]
OVERFLOW_MESSAGES = {
    "linear": "linear model scores are unbounded: sum |w| + |b| is inf",
    "neural": "neural model scores are unbounded: inf",
}


@pytest.mark.parametrize("kind", ["linear", "neural"])
@pytest.mark.parametrize("command", ["interpret", "oracle"])
def test_model_whose_scores_can_overflow_exits_2(tmp_path, capsys, command, kind):
    # the net's hidden layer is the linear model's weight column
    model_b = {"kind": kind, "width": 2, "height": 2}
    if kind == "linear":
        model_b |= {"weights": OVERFLOWING_WEIGHTS, "bias": 0.0}
    else:
        model_b["layers"] = [
            {"weights": [[w] for w in OVERFLOWING_WEIGHTS], "bias": [0.0], "activation": "relu"},
            {"weights": [[1.0]], "bias": [0.0], "activation": "sigmoid"},
        ]
    models = {"model_a": model_to_json(RuleModel(2, 2, (RuleLevel.of(ones=[0]),))),
              "model_b": model_b}
    space = spec_to_json(ImageSpaceSpec(2, 2, "full"))
    if command == "interpret":
        doc = {"space": space, **models, "updater": "rule_minimal_edit"}
        (tmp_path / "run.json").write_text(json.dumps(doc))
        argv = ["--spec", str(tmp_path / "run.json")]
    else:
        (tmp_path / "models.json").write_text(json.dumps(models))
        (tmp_path / "space.json").write_text(json.dumps(space))
        argv = ["--models", str(tmp_path / "models.json"), "--space", str(tmp_path / "space.json")]
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {OVERFLOW_MESSAGES[kind]}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, out, fault", [
    (["interpret", "--fixture", "fig2-diagonal"], "file", "File exists"),
    (["oracle", "--fixture", "fig1b"], "file", "File exists"),
    (["demo", "--fixture", "fig1b"], "file/x", "Not a directory"),
])
def test_out_path_that_is_not_a_directory_exits_2(tmp_path, capsys, argv, out, fault):
    (tmp_path / "file").write_text("kept\n")
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write {tmp_path / out}/") and fault in err[0]
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"

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

    @pytest.mark.parametrize("files", [["--models"], ["--space"], ["--models", "--space"]])
    def test_fixture_with_input_files_exits_2(self, tmp_path, capsys, files):
        # a fixture names the whole pair and space, so a file beside it is refused
        argv = ["oracle", "--fixture", "fig1b", "--out", str(tmp_path / "out")]
        for flag in files:
            argv += [flag, str(tmp_path / f"{flag[2:]}.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: provide --fixture NAME or both --models PATH and --space PATH"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, key, message", [
        (["models"], "model_c", "models file has unknown key 'model_c'"),
        (["space"], "flip_radus", "space has unknown key 'flip_radus'"),
        (["models", "model_a"], "weights", "model has unknown key 'weights'"),
        (["models", "model_b", "levels", 0], "zeros_requried",
         "rule level has unknown key 'zeros_requried'"),
        (["models", "model_b", "layers", 1], "activaton",
         "neural layer has unknown key 'activaton'"),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, path, key, message):
        # every document holds only the keys its writer writes
        fx = build_fixture("fig2-diagonal")
        model_b = init_neural([16, 3, 1], 4, 4, rng_seed=0) if "layers" in path else fx.model_b
        files = {
            "models": {"model_a": model_to_json(fx.model_a), "model_b": model_to_json(model_b)},
            "space": spec_to_json(fx.space),
        }
        doc = files
        for step in path:
            doc = doc[step]
        doc[key] = [3]
        assert self.run_oracle_files(tmp_path, files["models"], files["space"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("broken, message", [
        ("model_a", "models file missing key 'model_a'"),
        ("zeros_required", "model document missing key 'zeros_required'"),
        ("model_a_list", "model document must be a JSON object, got list"),
        ("model_width_1e400", "model width must be an integer, got inf"),
        ("space_width_2.5", "space width must be an integer, got 2.5"),
        ("flip_radius_1.7", "space flip_radius must be an integer, got 1.7"),
    ])
    def test_missing_model_key_exits_2_naming_it(self, tmp_path, capsys, broken, message):
        # a missing key, a model that is not a JSON object, or a size that is
        # not a JSON integer, given as the raw JSON text of the value
        fx = build_fixture("fig2-diagonal")
        models = {"model_a": model_to_json(fx.model_a), "model_b": model_to_json(fx.model_b)}
        space = spec_to_json(fx.space)
        raw = {
            "model_a_list": (models, "model_a", "[]"),
            "model_width_1e400": (models["model_b"], "width", "1e400"),
            "space_width_2.5": (space, "width", "2.5"),
            "flip_radius_1.7": (space, "flip_radius", "1.7"),
        }
        text = ""
        if broken == "model_a":
            del models["model_a"]
        elif broken == "zeros_required":
            del models["model_b"]["levels"][0]["zeros_required"]
        else:
            doc, key, text = raw[broken]
            doc[key] = "@raw"
        models_path = tmp_path / "models.json"
        models_path.write_text(json.dumps(models).replace('"@raw"', text))
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps(space).replace('"@raw"', text))
        assert main(["oracle", "--models", str(models_path), "--space", str(space_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "malformed input" not in err
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("broken", ["models", "space"])
    @pytest.mark.parametrize("text, kind", [("[]", "list"), ('"model_a"', "str")])
    def test_file_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, broken, text, kind):
        fx = build_fixture("fig2-diagonal")
        files = {
            "models": json.dumps({"model_a": model_to_json(fx.model_a),
                                  "model_b": model_to_json(fx.model_b)}),
            "space": json.dumps(spec_to_json(fx.space)),
        }
        files[broken] = text
        for name, body in files.items():
            (tmp_path / f"{name}.json").write_text(body)
        assert main(["oracle", "--models", str(tmp_path / "models.json"),
                     "--space", str(tmp_path / "space.json"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / f'{broken}.json'} must hold a JSON object, got {kind}" in err
        assert "malformed input" not in err
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

    @staticmethod
    def run_oracle_files(tmp_path, models, space):
        """Exit code of ``oracle --models --space`` on the given documents."""
        (tmp_path / "models.json").write_text(json.dumps(models))
        (tmp_path / "space.json").write_text(json.dumps(space))
        return main(["oracle", "--models", str(tmp_path / "models.json"),
                     "--space", str(tmp_path / "space.json"), "--out", str(tmp_path)])

    @pytest.mark.parametrize("bases, message", [
        ([["0", "1", "0", "0"]], "base image ['0', '1', '0', '0'] is not a 4-bit string"),
        (5, "space base_images must be a list, got 5"),
        ([5], "base image 5 is not a 4-bit string"),
        ([None], "base image None is not a 4-bit string"),
        ("0100", "space base_images must be a list, got '0100'"),
    ])
    def test_malformed_base_images_exit_2_with_a_typed_message(
        self, tmp_path, capsys, bases, message
    ):
        model = model_to_json(LinearModel(2, 2, np.ones(4), -0.5))
        space = {"width": 2, "height": 2, "mode": "envelope", "base_images": bases,
                 "flip_radius": 1}
        assert self.run_oracle_files(tmp_path, {"model_a": model, "model_b": model}, space) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("path, value, message", [
        (["levels"], {"0": 1}, "model levels must be a list, got {'0': 1}"),
        (["levels", 0], 5, "rule level document must be a JSON object, got int"),
        (["levels", 0, "ones_required"], 0, "rule level ones_required must be a list, got 0"),
        (["levels", 0, "ones_required"], [[0]], "pixel index [0] is not an integer"),
        (["levels", 0, "zeros_required"], [{"3": 1}], "pixel index {'3': 1} is not an integer"),
        (["layers"], 5, "model layers must be a list, got 5"),
        (["layers", 1], "sigmoid", "neural layer document must be a JSON object, got str"),
    ])
    def test_malformed_model_lists_exit_2_with_a_typed_message(
        self, tmp_path, capsys, path, value, message
    ):
        net = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
        rule = model_to_json(RuleModel(2, 2, (RuleLevel.of(ones=[0], zeros=[3]),)))
        model = net if path[0] == "layers" else rule
        doc = model
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
        space = spec_to_json(ImageSpaceSpec(2, 2, "full"))
        assert self.run_oracle_files(tmp_path, {"model_a": model, "model_b": model}, space) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "oracle.json").exists()


    @pytest.mark.parametrize("path, value, message", [
        (["weights"], ["1", "0", "0", "-1"], "model weights holds '1', not a number"),
        (["weights", 2], True, "model weights holds True, not a number"),
        (["bias"], "0.5", "model bias holds '0.5', not a number"),
        (["bias"], True, "model bias holds True, not a number"),
        (["layers", 0, "weights", 1, 2], "0.25", "neural layer weights holds '0.25', not a number"),
        (["layers", 1, "weights", 0], [False], "neural layer weights holds False, not a number"),
        (["layers", 0, "bias", 1], "0", "neural layer bias holds '0', not a number"),
        (["layers", 1, "bias"], [True], "neural layer bias holds True, not a number"),
    ], ids=["linear-weights-str", "linear-weight-bool", "linear-bias-str", "linear-bias-bool",
            "layer-weight-str", "layer-weight-bool", "layer-bias-str", "layer-bias-bool"])
    def test_model_parameter_that_is_not_a_json_number_exits_2(
        self, tmp_path, capsys, path, value, message
    ):
        # np.array and float() read "1" and true as numbers; the reader does not
        linear = model_to_json(LinearModel(2, 2, np.array([1.0, 0.0, 0.0, -1.0]), 0.5))
        net = model_to_json(init_neural([4, 3, 1], 2, 2, rng_seed=0))
        model = net if path[0] == "layers" else linear
        doc = model
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
        space = spec_to_json(ImageSpaceSpec(2, 2, "full"))
        assert self.run_oracle_files(tmp_path, {"model_a": model, "model_b": model}, space) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("command", ["interpret", "oracle"])
    @pytest.mark.parametrize("width", [10**6, 10**30], ids=["1e6", "1e30"])
    def test_huge_full_space_exits_3_with_one_typed_line(self, tmp_path, capsys, command, width):
        # the guards compare the pixel count before anything holds 2^pixels
        rule = model_to_json(RuleModel(width, 1, (RuleLevel.of(ones=[0]),)))
        space = spec_to_json(ImageSpaceSpec(width, 1, "full"))
        out = tmp_path / "out"
        if command == "oracle":
            (tmp_path / "models.json").write_text(json.dumps({"model_a": rule, "model_b": rule}))
            (tmp_path / "space.json").write_text(json.dumps(space))
            argv = ["--models", str(tmp_path / "models.json"),
                    "--space", str(tmp_path / "space.json")]
            guard = f"oracle guard: full {width}x1 space has 2^{width} images"
        else:
            doc = {"space": space, "model_a": rule, "model_b": rule, "updater": "rule_minimal_edit"}
            (tmp_path / "run.json").write_text(json.dumps(doc))
            argv = ["--spec", str(tmp_path / "run.json")]
            guard = f"materialization guard: the {width}x1 full space needs 2^"
        assert main([command, *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {guard}")
        assert not out.exists()

    @pytest.mark.parametrize("size, code", [((4, 4), 0), ((4, 5), 3)], ids=["4x4", "4x5"])
    def test_fixed_point_search_exits_3_only_past_its_scan_limit(self, tmp_path, capsys, size, code):
        # A long rule-vs-linear search: 15,392 updates on 4x4, within its 32,768
        # (2^31 / 2^16); on 4x5 it passes the 2,048 (2^31 / 2^20) it is allowed.
        width, height = size
        rule = RuleModel(width, height, (RuleLevel.of(ones=[0, 7], zeros=[3]),))
        weights = np.random.default_rng(0).normal(size=width * height)
        linear = LinearModel(width, height, weights, 0.3)
        models = {"model_a": model_to_json(rule), "model_b": model_to_json(linear)}
        space = spec_to_json(ImageSpaceSpec(width, height, "full"))
        assert self.run_oracle_files(tmp_path, models, space) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
            assert "fixed_point" in read_json(tmp_path / "oracle.json")
        else:
            assert err == [
                "error: oracle guard: the fixed-point search needs over 2048 updates of "
                "2^20 images; the limit is 2147483648 image scans"
            ]
            assert not (tmp_path / "oracle.json").exists()

    @pytest.mark.parametrize("size", [(4, 5), (5, 5)])
    def test_oracle_checks_the_grid_before_enumerating(self, tmp_path, capsys, size):
        # a 5x5 full space is past the oracle's guard, but the grid is the fault
        rule = model_to_json(RuleModel(2, 2, (RuleLevel.of(ones=[0]),)))
        space = spec_to_json(ImageSpaceSpec(*size, "full"))
        assert self.run_oracle_files(tmp_path, {"model_a": rule, "model_b": rule}, space) == 2
        message = f"error: oracle: a 2x2 model cannot label the {size[0]}x{size[1]} space"
        assert capsys.readouterr().err.splitlines() == [message]
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


# sha256 of each output file of a command, taken from the outputs of the
# version before images left the package as objects; fig1b's summary and the
# fig2-diagonal demo from the version before a fixture became its
# EngineConfig. eval-squares is not here: its net's float sums depend on the
# BLAS build.
GOLDEN_OUTPUTS = {
    ("interpret", "--fixture", "fig2-diagonal", "--seed", "7"): {
        "report.json": "21df926a635a415e3c23220b86a1d6d42123ab74d8593eed97f1c197edf2179d",
        "trajectory.csv": "41de1f94dd8a4facad3d0384acbfe097d2d7550d0794213e2ce0b9df94210522",
    },
    ("demo", "--fixture", "fig1b"): {
        "report.json": "48b6da4d3de667780454719545a3f99d8587c7c0e4416424a4fb8dd714e76331",
        "trajectory.csv": "117c59328a5bf29ce87566ad27a3c721f4ad73fb6a04d8dc40ff75d557e7dae8",
        "summary.txt": "987e4477db8ea3334443414416fcf252b61500ae1dc716a7ba4ff215c2b1333d",
    },
    ("demo", "--fixture", "fig2-diagonal", "--seed", "7"): {
        "report.json": "21df926a635a415e3c23220b86a1d6d42123ab74d8593eed97f1c197edf2179d",
        "trajectory.csv": "41de1f94dd8a4facad3d0384acbfe097d2d7550d0794213e2ce0b9df94210522",
        "summary.txt": "8bac84f19e6300cf082b50d46286a36f535e88397a411dc596e466f0a1eb3318",
    },
    ("demo", "--fixture", "fig1c"): {
        "report.json": "e138fa3fc5b85f399415caced08c2eec7f6fa9d20908545b7333fd1e2d9fc08c",
        "trajectory.csv": "46c3720172462b8c206778d1faa3cbf78ac42428df8fd88d96f3553f4ee6bfd5",
        "summary.txt": "0510f225d40375fb52b99f72a62335c97943a8b1bbe762c7704b2107db030845",
    },
}


@pytest.mark.parametrize("argv", GOLDEN_OUTPUTS, ids=" ".join)
def test_outputs_match_their_golden_digests(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    for name, digest in GOLDEN_OUTPUTS[argv].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of a retrained run's outputs in each mode, taken from the outputs of
# the version whose run_interpretation retrained the known model itself. At
# learning rate 1.0 the perceptron's weights are integers, so its labels, and
# these digests, do not depend on the BLAS build.
RETRAIN_GOLDEN_OUTPUTS = {
    "diagnostic": {
        "report.json": "0fdb605ef20047b4a2cc37163e4146f213b56313a7ca8cfd8de6edc53b8139ed",
        "trajectory.csv": "73314e062a669b7810e1941468080b527ca2d998e7dfd6eedbe336fa4b0926fe",
    },
    "epsilon": {
        "report.json": "9e91b84a7d39fb386f8d32079fc1d38a100a5eb98f11f963ed41967ac8369946",
        "trajectory.csv": "73314e062a669b7810e1941468080b527ca2d998e7dfd6eedbe336fa4b0926fe",
    },
}


@pytest.mark.parametrize("mode", RETRAIN_GOLDEN_OUTPUTS)
def test_retrain_outputs_match_their_golden_digests(tmp_path, mode):
    doc = linear_run_spec(RETRAIN_ROWS, [1, 0, 0], max_queries=6, mode=mode)
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["interpret", "--spec", str(spec_path), "--out", str(out)]) == 0
    for name, digest in RETRAIN_GOLDEN_OUTPUTS[mode].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


class TestProcessEntry:
    """main() with no argv is the process entry, and freezes the import heap
    so the interpreter's teardown does not walk it; main(argv) called in
    process leaves the collector as it found it."""

    def test_in_process_main_leaves_the_collector_as_it_was(self, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["demo", "--fixture", "fig1b", "--out", str(tmp_path)]) == 0
        assert main(["interpret", "--fixture", "nope", "--out", str(tmp_path)]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_process_entry_freezes_the_import_heap(self, tmp_path):
        argv = ["diaginterp", "demo", "--fixture", "fig1b", "--out", str(tmp_path)]
        code = (
            "import gc, sys; from diaginterp.cli import main; "
            f"sys.argv = {argv!r}; "
            "frozen = gc.get_freeze_count(); code = main(); "
            "print(frozen, code, gc.get_freeze_count() > 0, gc.isenabled())"
        )
        # the last line, after the demo's summary
        assert TestBlasThreads.fresh_python(code).splitlines()[-1] == "0 0 True True"
        assert (tmp_path / "summary.txt").exists()
