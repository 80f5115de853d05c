"""Run one diaginterp CLI command with its layer functions wrapped in spans.

Usage: python perfbench/traced_op.py SPANS_PATH CLI_ARG...

The command is the one ``python -m diaginterp.cli CLI_ARG...`` would run. Each
function in LAYER_FUNCTIONS is replaced by a timing wrapper at every place the
package binds it, so a name that one module imported from another (``engine``
imports ``rule_update``, for example) is traced too. Spans nest on a stack and
stay in memory; they are written to SPANS_PATH as JSON once the command ends.

Serialization helpers (``model_from_json``, ``config_to_json``, ...) are not
wrapped, so the CLI's self time covers parsing, model and spec construction
and report writing.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

# The functions the per-layer metrics read; any other function's time counts
# in the self time of the wrapped function that called it.
LAYER_FUNCTIONS = {
    "cli": ["main"],
    "engine": ["run_interpretation", "run_complete_interpretation"],
    "metrics": ["disagreement_breakdown"],
    "models": [
        "level_label_matrix", "predict", "rule_update", "linear_update",
        "train_linear", "train_neural",
    ],
    "imagespace": ["enumerate_space", "space_matrix", "_materialize_full", "_materialize_envelope"],
    "oracle": ["brute_force_breakdown", "exhaustive_fixed_point"],
    "fixtures": ["build_fixture", "two_squares_class_pools"],
}

# level_label_matrix spans are named after the model family they label.
_FAMILIES = {"RuleModel": "rule", "LinearModel": "linear", "NeuralModel": "neural"}


class Tracer:
    """Span recorder. Each span is [name, parent index, start, duration,
    self time, attributes]; self time is the duration minus child spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.child_time: list[float] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        labels = name == "models.level_label_matrix"
        materialize = name.startswith("imagespace._materialize_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span_name = f"{name}[{_FAMILIES[type(args[0]).__name__]}]" if labels else name
            span = [span_name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0.0, None]
            self.spans.append(span)
            self.stack.append(index)
            self.child_time.append(0.0)
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if materialize else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.stack.pop()
                children = self.child_time.pop()
                if self.child_time:
                    self.child_time[-1] += duration
                span[2], span[3], span[4] = start, duration, duration - children
            if labels:
                span[5] = {"images": int(args[1].shape[0])}
            elif materialize:
                rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                span[5] = {"images": int(result[1].shape[0]), "rss_kib": rss_after - rss_before}
            return result

        return wrapper

    def count_yields(self, name: str, generator_fn):
        """Wrap a generator function so every item it yields bumps a counter."""

        @functools.wraps(generator_fn)
        def wrapper(*args, **kwargs):
            for item in generator_fn(*args, **kwargs):
                self.counters[name] = self.counters.get(name, 0) + 1
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every binding of each layer function across the package."""
        modules = {
            mod_name: module
            for mod_name, module in sys.modules.items()
            if mod_name == "diaginterp" or mod_name.startswith("diaginterp.")
        }
        replacements = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = modules[f"diaginterp.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                replacements[id(original)] = (original, self.wrap(f"{layer}.{fn_name}", original))
        scan = modules["diaginterp.oracle"]._iterate_space
        replacements[id(scan)] = (scan, self.count_yields("oracle.images_scanned", scan))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import diaginterp.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
