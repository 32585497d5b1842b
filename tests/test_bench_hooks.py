"""The benchmark under bench/ reaches into fedsim by module attribute.

Its tracer swaps names such as `fedsim.harness.run_round` for timing
wrappers, and its runner imports names from `fedsim` directly. A rename or
deletion of any of them would only show in a traced benchmark run; these
checks catch it in the fast suite.
"""

import ast
import importlib
import importlib.util
import pkgutil
import time
from pathlib import Path

import pytest

from fedsim.harness import ExperimentConfig, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _runner_references() -> set[str]:
    """Dotted names bench/run.py takes from fedsim."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    bound = {}  # local name -> dotted fedsim name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fedsim"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fedsim"):
                    bound[alias.asname or alias.name] = alias.name
    refs = set(bound.values())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            refs.add(f"{bound[node.value.id]}.{node.attr}")
    return refs


RUNNER_REFERENCES = sorted(_runner_references())


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.TRACED]
    + [(module, "ParamVector") for module in spans.COUNTED_VECTORS],
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_runner_references_found():
    nn_names = {"ModelSpec", "gradient", "init_model", "predict_proba"}
    assert {f"fedsim.nn.{name}" for name in nn_names} <= set(RUNNER_REFERENCES)


@pytest.mark.parametrize("name", RUNNER_REFERENCES)
def test_runner_name_resolves(name):
    pkgutil.resolve_name(name)


def test_traced_run_has_per_layer_rows():
    # layer_rows takes max() over each round's `federation.local_train`
    # spans, so a round loop that trains without calling that name crashes
    # the traced benchmark
    cfg = ExperimentConfig(
        dataset_params={"num_classes": 4, "per_class": 25, "input_dim": 6, "spread": 0.2},
        devices=4,
        rounds=2,
        hidden_dims=(6,),
        workers=2,
    )
    tracer = spans.Tracer()
    with tracer:
        run_experiment(cfg)
    setup, rows = tracer.layer_rows(time.perf_counter())
    assert len(rows) == cfg.rounds
    assert all(row["nn.local_train_calls"] >= 1 for row in rows)
    assert set(setup) == set(spans.SETUP)
