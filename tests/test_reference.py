"""`run_experiment` against the plain-code reference run, bit for bit.

`tests/reference.py` restates the protocol one device at a time. Here its
metrics.csv, device_entropy.csv, divergence_layers.csv and (when the config
traces dispensing) dispense_trace.jsonl text must equal the files
`harness.run_experiment` writes, on small drawn configs under
drawn worker counts and training sub-block budgets, and its metrics.csv
must give the pinned digests of the committed trend config.
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigInvalid
from fedsim.harness import load_config, run_experiment
from inputs import CONFIGS
from reference import reference_run


@st.composite
def configs(draw):
    """Small synthetic configs: 2-5 classes, 1-12 devices, server pools of
    none to 70 % of the train set, which segments of 0-4 samples per device
    (or the derived size) run through and reshuffle, with or without a
    dispense trace, and models of 0-3 hidden layers."""
    num_classes = draw(st.integers(2, 5))
    mode = draw(st.sampled_from(["iid", "one_class"]))
    devices = draw(st.integers(num_classes if mode == "one_class" else 1, 12))
    return ExperimentConfig(
        dataset_params={"num_classes": num_classes, "per_class": draw(st.integers(5, 16)),
                        "input_dim": draw(st.integers(2, 5)), "spread": 0.2},
        devices=devices,
        rounds=draw(st.integers(1, 3)),
        local_epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(1, 8)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        queue_fraction=draw(st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.7])),
        selection_fraction=draw(st.one_of(
            st.sampled_from([0.5, 0.9, 1.0]), st.floats(0.01, 1.0)
        )),
        partition_mode=mode,
        aggregator=draw(st.sampled_from(["fedavg_count", "ddfl_entropy"])),
        segment_size=draw(st.one_of(st.none(), st.integers(0, 4))),
        hidden_dims=draw(st.lists(st.integers(1, 8), max_size=3)),
        activation=draw(st.sampled_from(["relu", "tanh"])),
        seed=draw(st.integers(0, 2**16)),
        workers=draw(st.integers(1, 3)),
        trace_dispense=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(
    cfg=configs(),
    # 1 is one device per sub-block; 4,000 fits up to about 70 small models
    budget=st.one_of(st.just(nn._BLOCK_FLOATS), st.integers(1, 4000)),
)
def test_run_files_equal_the_reference_run(cfg, budget):
    try:
        expected = reference_run(cfg)
    except ConfigInvalid:  # a partition the drawn data cannot fill
        reject()
    with tempfile.TemporaryDirectory() as out, mock.patch.object(nn, "_BLOCK_FLOATS", budget):
        run_experiment(dataclasses.replace(cfg, output_dir=out))
        for name, text in expected.items():
            assert (Path(out) / name).read_text(encoding="ascii") == text, name


def test_reference_gives_the_pinned_trend_digests():
    # the metrics.csv sha256 prefixes that test_criterion_11 pins
    trend = load_config(CONFIGS / "trend.json")
    digests = {
        aggregator: hashlib.sha256(
            reference_run(dataclasses.replace(trend, aggregator=aggregator))["metrics.csv"]
            .encode("ascii")
        ).hexdigest()[:16]
        for aggregator in ("fedavg_count", "ddfl_entropy")
    }
    assert digests == {"fedavg_count": "0a99cebac506e358", "ddfl_entropy": "eb2a8629213f7c81"}
