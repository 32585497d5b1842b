"""Dataset loading and generation.

A dataset is a LabeledSet: a float64 feature matrix with values in [0, 1]
plus an int64 label vector. Loaders exist for the two raw binary formats
below; a synthetic Gaussian-blob generator covers fast, download-free runs.
Each loader returns a (train, test) pair of LabeledSets; the run reads the
input width and class count off the train set. A run's train set is the
only copy of its training samples: the server queue, the residual and every
device's data are int64 index arrays into it (see `partition`), and
training gathers each minibatch from it.

MNIST IDX (big-endian):
    image file: magic 0x00000803, then count, rows, cols (uint32 each),
                then count*rows*cols unsigned bytes
    label file: magic 0x00000801, then count (uint32), then count bytes

CIFAR binary:
    cifar10:  records of 1 label byte + 3072 pixel bytes (R, G, B planes),
              files data_batch_1.bin .. data_batch_5.bin and test_batch.bin
    cifar100: records of 1 coarse + 1 fine label byte + 3072 pixel bytes,
              files train.bin and test.bin; the fine label is used

Pixels are scaled by 1/255 and flattened; no other normalization is applied.
A label byte outside the dataset's classes (10, or 100 for cifar100) is a
DatasetError naming its file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DatasetError

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

_CIFAR10_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
_CIFAR10_TEST = ["test_batch.bin"]


@dataclass
class LabeledSet:
    """Immutable-by-convention collection of labeled feature vectors."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array (samples, dims)")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must be 1-D and match the sample count")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])


def concat_sets(a: LabeledSet, b: LabeledSet) -> LabeledSet:
    if a.input_dim != b.input_dim:
        raise ValueError("feature widths differ")
    if a.num_classes != b.num_classes:
        raise ValueError("class counts differ")
    return LabeledSet(
        np.concatenate([a.features, b.features]),
        np.concatenate([a.labels, b.labels]),
        a.num_classes,
    )


def class_histogram(samples, num_classes: int) -> np.ndarray:
    """Per-class counts (int64 vector of length `num_classes`)."""
    labels = samples.labels if isinstance(samples, LabeledSet) else np.asarray(samples)
    labels = labels.astype(np.int64)
    if len(labels) and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")
    return np.bincount(labels, minlength=num_classes).astype(np.int64)


# ---------------------------------------------------------------------------
# MNIST IDX


def _read_idx(path: Path, magic: int, dims: int) -> np.ndarray:
    """The (count, item size) byte matrix of an IDX file whose header holds
    `magic` and `dims` sizes, the first of them the item count; a file that
    holds no items is a DatasetError, as a malformed one is."""
    raw = path.read_bytes()
    header = 4 * (1 + dims)
    if len(raw) < header:
        raise DatasetError(f"{path.name}: header needs {header} bytes, file has {len(raw)}")
    found, count, *item_shape = struct.unpack(f">{1 + dims}I", raw[:header])
    if found != magic:
        raise DatasetError(f"{path.name}: magic {found:#010x}, expected {magic:#010x}")
    if count == 0:
        raise DatasetError(f"{path.name}: holds no items")
    item = math.prod(item_shape)
    needed = header + count * item
    if len(raw) < needed:
        raise DatasetError(f"{path.name}: expected {needed} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype=np.uint8, count=count * item, offset=header)
    return data.reshape(count, item)


def _checked_labels(path: Path, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """The unsigned label bytes parsed from `path`, at least one (both
    readers refuse an empty file); one of `num_classes` or more is a
    DatasetError naming the file."""
    if labels.max() >= num_classes:
        raise DatasetError(f"{path.name}: label {labels.max()} is not below {num_classes}")
    return labels


def load_mnist(dir_path) -> tuple[LabeledSet, LabeledSet]:
    """Load the four canonical MNIST IDX files from `dir_path`; returns the
    train and test sets."""
    base = Path(dir_path)
    paths = {key: base / name for key, name in _MNIST_FILES.items()}
    missing = [p.name for p in paths.values() if not p.is_file()]
    if missing:
        raise DatasetError(f"missing MNIST files in {base}: {', '.join(missing)}")

    def _split(images_key: str, labels_key: str) -> LabeledSet:
        images_path, labels_path = paths[images_key], paths[labels_key]
        images = _read_idx(images_path, _IMAGE_MAGIC, 3)
        labels = _checked_labels(labels_path, _read_idx(labels_path, _LABEL_MAGIC, 1)[:, 0], 10)
        if images.shape[0] != labels.shape[0]:
            raise DatasetError(
                f"{images.shape[0]} images vs {labels.shape[0]} labels "
                f"({images_path.name}, {labels_path.name})"
            )
        return LabeledSet(np.divide(images, 255.0, dtype=np.float64), labels, num_classes=10)

    return _split("train_images", "train_labels"), _split("test_images", "test_labels")


# ---------------------------------------------------------------------------
# CIFAR binary


def _read_cifar_file(
    path: Path, record: int, label_byte: int, num_classes: int
) -> tuple[np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    if len(raw) == 0 or len(raw) % record != 0:
        raise DatasetError(
            f"{path.name}: size {len(raw)} is not a multiple of record size {record}"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    labels = _checked_labels(path, rows[:, label_byte], num_classes)
    pixels = rows[:, record - 3072 :]
    return pixels, labels


def load_cifar(dir_path, variant: str) -> tuple[LabeledSet, LabeledSet]:
    """Load CIFAR binary batches; `variant` is "cifar10" or "cifar100".
    Returns the train and test sets."""
    base = Path(dir_path)
    if variant == "cifar10":
        train_files, test_files = _CIFAR10_TRAIN, _CIFAR10_TEST
        record, label_byte, num_classes = 3073, 0, 10
    elif variant == "cifar100":
        train_files, test_files = ["train.bin"], ["test.bin"]
        record, label_byte, num_classes = 3074, 1, 100
    else:
        raise DatasetError(f"variant must be cifar10 or cifar100, got {variant!r}")

    missing = [n for n in train_files + test_files if not (base / n).is_file()]
    if missing:
        raise DatasetError(f"missing {variant} files in {base}: {', '.join(missing)}")

    def _load(names: list[str]) -> LabeledSet:
        parts = [_read_cifar_file(base / n, record, label_byte, num_classes) for n in names]
        pixels = np.concatenate([p for p, _ in parts])
        labels = np.concatenate([l for _, l in parts])
        return LabeledSet(np.divide(pixels, 255.0, dtype=np.float64), labels, num_classes)

    return _load(train_files), _load(test_files)


# ---------------------------------------------------------------------------
# Synthetic blobs


def _class_means(num_classes: int, input_dim: int) -> np.ndarray:
    """Deterministic well-separated class means inside [0.2, 0.8]^d.

    Class c sits at angle 2*pi*c/C on a circle replicated across every
    coordinate pair, which keeps distinct classes apart for any d >= 2.
    """
    angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
    directions = np.zeros((num_classes, input_dim))
    directions[:, 0::2] = np.cos(angles)[:, None]
    directions[:, 1::2] = np.sin(angles)[:, None]
    return 0.5 + 0.3 * directions


def make_synthetic(
    num_classes: int,
    per_class: int,
    input_dim: int,
    spread: float,
    seed: int,
) -> tuple[LabeledSet, LabeledSet]:
    """Gaussian class blobs with an 80/20 per-class train/test split; returns
    the train and test sets.

    `per_class` counts samples per class before the split; `spread` is the
    per-coordinate standard deviation. Features are clipped to [0, 1].
    Each class's draws go straight into its rows of the preallocated train
    and test matrices.
    """
    rng = np.random.default_rng(int(seed))
    means = _class_means(num_classes, input_dim)
    n_train = max(1, int(per_class * 0.8))
    n_test = per_class - n_train
    train_x = np.empty((num_classes * n_train, input_dim))
    test_x = np.empty((num_classes * n_test, input_dim))
    for c in range(num_classes):
        # class c's (per_class, d) draw, split over its train then its test rows
        train_rows = train_x[c * n_train : (c + 1) * n_train]
        for rows in (train_rows, test_x[c * n_test : (c + 1) * n_test]):
            rng.standard_normal(out=rows)
            rows *= spread
            rows += means[c]
            np.clip(rows, 0.0, 1.0, out=rows)

    classes = np.arange(num_classes)
    return (
        LabeledSet(train_x, np.repeat(classes, n_train), num_classes),
        LabeledSet(test_x, np.repeat(classes, n_test), num_classes),
    )
