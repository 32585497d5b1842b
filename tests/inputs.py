"""Inputs that several test modules share: the base config, its bad values
and a writer of config files, and writers of MNIST IDX and CIFAR binary
files. A test module takes shared inputs from here and from `reference.py`,
never from another test module.
"""

import json
import struct
from pathlib import Path

import numpy as np

# the committed configs and grids
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# the config the CLI and harness tests start from
BASE_CONFIG = {
    "dataset": "synthetic",
    "dataset_params": {"num_classes": 4, "per_class": 25, "input_dim": 6, "spread": 0.2},
    "devices": 4,
    "rounds": 2,
    "local_epochs": 1,
    "batch_size": 8,
    "learning_rate": 0.3,
    "queue_fraction": 0.2,
    "selection_fraction": 0.9,
    "partition_mode": "one_class",
    "aggregator": "ddfl",
    "hidden_dims": [6],
    "seed": 3,
}


def write_config(tmp_path, **overrides):
    """`tmp_path / "config.json"`, holding `BASE_CONFIG` with `overrides`."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE_CONFIG, **overrides}))
    return path


# (key, value) pairs that must fail at load time with a config error naming the
# key; "dataset_params.k" sets key k of dataset_params
INVALID_VALUES = [
    ("rounds", 0),
    ("hidden_dims", "32"),
    ("hidden_dims", [32.0]),
    ("seed", 1.5),
    ("selection_fraction", True),
    ("devices", True),
    ("devices", "10"),
    ("rounds", 2.0),
    ("learning_rate", "0.1"),
    ("learning_rate", float("nan")),
    ("segment_size", 1.5),
    ("dataset_params.input_dim", 16.9),
    ("dataset_params.per_class", "40"),
    ("dataset_params.spread", float("nan")),
    ("dataset_params.spread", -0.1),
    ("dataset_params.num_classes", True),
    ("dataset_params.num_classes", 1),
    ("dataset_params.per_class", 2.5),
    ("dataset_params.per_class", 1),
    ("dataset_params.input_dim", 1),
    ("dataset_params.bogus", 1),
    # infeasible for the 64 residual samples of 4 classes that the base config leaves
    ("devices", 3),
    ("devices", 200),
    ("queue_fraction", 0.999),
    ("aggregator", []),
    ("output_dir", 5),
    ("output_dir", ""),
    ("data_dir", 7),
    ("data_dir", ""),
    ("dataset_params", 5),
    ("trace_dispense", "no"),
]


def write_idx(path: Path, array) -> None:
    """An IDX file of unsigned bytes: the magic 0x800 plus the number of
    dimensions (0x803 for images, 0x801 for labels), one big-endian size per
    dimension, the item count first, then the bytes."""
    array = np.asarray(array, dtype=np.uint8)
    header = struct.pack(f">{1 + array.ndim}I", 0x800 + array.ndim, *array.shape)
    path.write_bytes(header + array.tobytes())


def write_mnist(data_dir: Path, train_labels=(0, 1), test_labels=(0, 1), side=2) -> Path:
    """`data_dir`, made if absent, holding the four MNIST IDX files: one
    random `side` x `side` image per label."""
    data_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(99)
    for prefix, labels in (("train", train_labels), ("t10k", test_labels)):
        images = rng.integers(0, 256, size=(len(labels), side, side))
        write_idx(data_dir / f"{prefix}-images-idx3-ubyte", images)
        write_idx(data_dir / f"{prefix}-labels-idx1-ubyte", labels)
    return data_dir


def write_cifar(data_dir: Path, variant="cifar10", per_file=2) -> Path:
    """`data_dir`, made if absent, holding a CIFAR binary batch set: each
    file holds `per_file` records of random pixels, labelled 0, 1, 0, ...
    (for cifar100, the fine label, after a coarse label of 0)."""
    data_dir.mkdir(exist_ok=True)
    if variant == "cifar10":
        names, prefix = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"], b""
    else:
        names, prefix = ["train.bin", "test.bin"], b"\x00"
    rng = np.random.default_rng(7)
    for name in names:
        (data_dir / name).write_bytes(b"".join(
            prefix + bytes([i % 2]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
            for i in range(per_file)
        ))
    return data_dir
