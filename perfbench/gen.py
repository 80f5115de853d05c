"""Seeded inputs for the benchmark workloads.

``build(workload, seed, input_dir)`` writes every file the workload's ops read
and returns the workload's op cycle. Inputs depend only on the workload and
the seed: the same pair writes byte-identical files. Only the stdlib and numpy
are used here; the program under test never runs during generation.

An op is a dict:

* ``id``    -- unique within the cycle; repeats of an op reuse its inputs;
* ``argv``  -- arguments after ``python -m diaginterp.cli``; the literal
  ``OUT`` is replaced by the op's output directory;
* ``check`` -- what the output checker compares the outputs against.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Generator parameters per workload, echoed with every result. The one-line
# reason each workload exists is its ``why`` in BENCHMARK.json.
WORKLOADS = {
    "rule-oracle": {
        # interpret --spec runs: rule vs rule over full spaces, diagnostic mode
        "interpret": {
            "pairs_4x4": 4,
            "pairs_3x6": 1,
            "levels": [1, 3],
            "ones_per_level": [1, 3],
            "zeros_per_level": [0, 2],
            "max_queries": 16,
        },
        # oracle --models --space runs. Rule shapes are fixed: with a free
        # shape the fixed-point search's cost varies up to twofold between seeds.
        "oracle": {
            "pairs_3x4": 2,
            "levels": [2, 2],
            "ones_per_level": [2, 2],
            "zeros_per_level": [0, 0],
            "neural_linear": 2,
            "neural_bases": 16,
            "neural_on_prob": 0.3,
            "neural_hidden": 16,
        },
    },
    "net-envelope": {
        "demo_seeds": 2,
        "retrain_specs": 5,
        "bases": 192,
        "base_on_prob": 0.3,
        "hidden": 64,
        "dataset": 100,
        "max_queries": 30,
    },
}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return str(path)


def _bits(row) -> str:
    return "".join(str(int(b)) for b in row)


def _floats(values) -> list:
    # Six decimals keep the files small; labels are computed from the rounded
    # values, so the files alone determine every label.
    return [round(float(v), 6) for v in values]


def _rule_model(rng, width: int, height: int, levels: int, params: dict) -> dict:
    pixels = width * height
    docs = []
    for _ in range(levels):
        n_ones = int(rng.integers(params["ones_per_level"][0], params["ones_per_level"][1] + 1))
        n_zeros = int(rng.integers(params["zeros_per_level"][0], params["zeros_per_level"][1] + 1))
        picked = [int(p) for p in rng.permutation(pixels)[: n_ones + n_zeros]]
        docs.append(
            {"ones_required": sorted(picked[:n_ones]), "zeros_required": sorted(picked[n_ones:])}
        )
    return {"kind": "rule", "width": width, "height": height, "levels": docs}


def _rule_pair(rng, width: int, height: int, params: dict) -> tuple[dict, dict]:
    levels = int(rng.integers(params["levels"][0], params["levels"][1] + 1))
    return (
        _rule_model(rng, width, height, levels, params),
        _rule_model(rng, width, height, levels, params),
    )


def _linear_model(rng, width: int, height: int) -> dict:
    pixels = width * height
    weights = rng.normal(0.0, 1.0, pixels)
    return {
        "kind": "linear",
        "width": width,
        "height": height,
        "weights": _floats(weights),
        "bias": round(float(rng.normal(0.0, 1.0)), 6),
    }


def _envelope(rng, width: int, bases: int, on_prob: float) -> tuple[np.ndarray, np.ndarray]:
    """Random base images and every image within one flip of a base."""
    pixels = width * width
    base = (rng.random((bases, pixels)) < on_prob).astype(np.uint8)
    flips = base[:, None, :] ^ np.eye(pixels, dtype=np.uint8)[None, :, :]
    return base, np.concatenate([base, flips.reshape(-1, pixels)])


def _relu_net(rng, width: int, hidden: int, images: np.ndarray) -> tuple[dict, np.ndarray]:
    """A random 1-hidden-layer ReLU net whose output bias splits ``images``
    roughly in half; returns the model document and its labels on ``images``."""
    pixels = width * width
    w1 = np.array(_floats(rng.normal(0.0, 1.0 / np.sqrt(pixels), pixels * hidden))).reshape(
        pixels, hidden
    )
    b1 = np.array(_floats(rng.normal(0.0, 0.1, hidden)))
    w2 = np.array(_floats(rng.normal(0.0, 1.0 / np.sqrt(hidden), hidden))).reshape(hidden, 1)
    z = np.maximum(images @ w1 + b1, 0.0) @ w2
    b2 = round(-float(np.median(z)), 6)
    labels = ((z[:, 0] + b2) > 0.0).astype(np.uint8)
    doc = {
        "kind": "neural",
        "width": width,
        "height": width,
        "layers": [
            {"weights": w1.tolist(), "bias": b1.tolist(), "activation": "relu"},
            {"weights": w2.tolist(), "bias": [b2], "activation": "sigmoid"},
        ],
    }
    return doc, labels


def _full_space(width: int, height: int) -> dict:
    return {"width": width, "height": height, "mode": "full"}


def _envelope_space(width: int, bases: np.ndarray) -> dict:
    return {
        "width": width,
        "height": width,
        "mode": "envelope",
        "base_images": [_bits(row) for row in bases],
        "flip_radius": 1,
    }


def _interpret_spec_op(op_id: str, path: Path, spec: dict) -> dict:
    return {
        "id": op_id,
        "argv": ["interpret", "--spec", _write(path, spec), "--out", "OUT"],
        "check": {"kind": "spec", "spec": str(path)},
    }


def _fixture_op(op_id: str, argv: list[str], name: str, kind: str = "fixture") -> dict:
    return {"id": op_id, "argv": argv + ["--out", "OUT"], "check": {"kind": kind, "name": name}}


def _net_envelope(rng, input_dir: Path) -> list[dict]:
    params = WORKLOADS["net-envelope"]
    demo_seed = int(rng.integers(0, 1000))
    demo = {
        "id": "demo-eval-squares",
        "argv": [
            "demo", "--fixture", "eval-squares", "--seed", str(demo_seed),
            "--seeds", str(params["demo_seeds"]), "--out", "OUT",
        ],
        # The fixture trains its models; the checker reads them from the
        # config echo instead of training them a second time.
        "check": {"kind": "echo"},
    }
    ops = [demo]
    for i in range(params["retrain_specs"]):
        bases, images = _envelope(rng, 8, params["bases"], params["base_on_prob"])
        net, labels = _relu_net(rng, 8, params["hidden"], images.astype(np.float64))
        picked = rng.choice(images.shape[0], size=params["dataset"], replace=False)
        spec = {
            "space": _envelope_space(8, bases),
            "model_a": _linear_model(rng, 8, 8),
            "model_b": net,
            "updater": "retrain_with_queries",
            "max_queries": params["max_queries"],
            "rng_seed": int(rng.integers(0, 2**31)),
            "mode": "epsilon",
            # Two examples repeated with the opposite label make the data
            # inseparable, so every retrain runs all its epochs and an op's
            # cost does not hinge on whether the draw happened to be separable.
            "base_dataset": [[_bits(images[j]), int(labels[j])] for j in picked]
            + [[_bits(images[j]), 1 - int(labels[j])] for j in picked[:2]],
        }
        ops.append(_interpret_spec_op(f"retrain-{i}", input_dir / f"retrain-{i}.json", spec))
    return ops


def _oracle_op(op_id: str, input_dir: Path, model_a: dict, model_b: dict, space: dict) -> dict:
    models = _write(input_dir / f"{op_id}-models.json", {"model_a": model_a, "model_b": model_b})
    space_path = _write(input_dir / f"{op_id}-space.json", space)
    return {
        "id": op_id,
        "argv": ["oracle", "--models", models, "--space", space_path, "--out", "OUT"],
        "check": {"kind": "oracle", "models": models, "space": space_path},
    }


def _rule_oracle(rng, input_dir: Path) -> list[dict]:
    params = WORKLOADS["rule-oracle"]["interpret"]
    pairs = []
    for i, (w, h) in enumerate([(4, 4)] * params["pairs_4x4"] + [(3, 6)] * params["pairs_3x6"]):
        model_a, model_b = _rule_pair(rng, w, h, params)
        spec = {
            "space": _full_space(w, h),
            "model_a": model_a,
            "model_b": model_b,
            "updater": "rule_minimal_edit",
            "max_queries": params["max_queries"],
            "rng_seed": int(rng.integers(0, 2**31)),
            "mode": "diagnostic",
        }
        pairs.append(_interpret_spec_op(f"rule-{w}x{h}-{i}", input_dir / f"rule-{i}.json", spec))
    params = WORKLOADS["rule-oracle"]["oracle"]
    oracle_pairs = []
    for i in range(params["pairs_3x4"]):
        a, b = _rule_pair(rng, 3, 4, params)
        oracle_pairs.append(_oracle_op(f"oracle-rule-3x4-{i}", input_dir, a, b, _full_space(3, 4)))
    nets = []
    for i in range(params["neural_linear"]):
        bases, images = _envelope(rng, 8, params["neural_bases"], params["neural_on_prob"])
        net, _ = _relu_net(rng, 8, params["neural_hidden"], images.astype(np.float64))
        space = _envelope_space(8, bases)
        nets.append(
            _oracle_op(f"oracle-neural-linear-{i}", input_dir, net, _linear_model(rng, 8, 8), space)
        )
    fig1b = _fixture_op("demo-fig1b", ["demo", "--fixture", "fig1b"], "fig1b")
    fig1c = _fixture_op("demo-fig1c", ["demo", "--fixture", "fig1c"], "fig1c")
    diagonal = _fixture_op(
        "interpret-fig2-diagonal",
        ["interpret", "--fixture", "fig2-diagonal", "--seed", "7"],
        "fig2-diagonal",
    )
    oracle_fig1c = _fixture_op(
        "oracle-fig1c", ["oracle", "--fixture", "fig1c"], "fig1c", "oracle-fixture"
    )
    # Interleaved so that each pass over the cycle mixes sizes evenly.
    return [
        pairs[0], oracle_pairs[0], fig1b, pairs[1], nets[0], diagonal, pairs[4],
        pairs[2], oracle_pairs[1], fig1c, pairs[3], nets[1], oracle_fig1c,
    ]


_GENERATORS = {"rule-oracle": _rule_oracle, "net-envelope": _net_envelope}


def build(workload: str, seed: int, input_dir: Path) -> list[dict]:
    """Write the workload's input files under ``input_dir``; return its op cycle."""
    input_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return _GENERATORS[workload](rng, input_dir)
