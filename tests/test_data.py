import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fedsim.data import (
    LabeledSet,
    class_histogram,
    concat_sets,
    load_cifar,
    load_mnist,
    make_synthetic,
)
from fedsim.errors import DatasetError


def write_idx_images(path: Path, images: np.ndarray) -> None:
    count, rows, cols = images.shape
    path.write_bytes(
        struct.pack(">IIII", 0x00000803, count, rows, cols) + images.astype(np.uint8).tobytes()
    )


def write_idx_labels(path: Path, labels) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    path.write_bytes(struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes())


def make_mnist_dir(tmp_path: Path, train_labels, test_labels, side=4) -> Path:
    rng = np.random.default_rng(99)
    train_imgs = rng.integers(0, 256, size=(len(train_labels), side, side))
    test_imgs = rng.integers(0, 256, size=(len(test_labels), side, side))
    write_idx_images(tmp_path / "train-images-idx3-ubyte", train_imgs)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", train_labels)
    write_idx_images(tmp_path / "t10k-images-idx3-ubyte", test_imgs)
    write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", test_labels)
    return tmp_path


class TestLabeledSet:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 3)), np.array([0, 5]), 3)

    def test_concat_checks_dimensions(self):
        a = LabeledSet(np.zeros((2, 3)), np.zeros(2, dtype=int), 2)
        b = LabeledSet(np.zeros((2, 4)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError, match="feature widths differ"):
            concat_sets(a, b)


class TestClassHistogram:
    def test_single_class_block(self):
        data = LabeledSet(np.zeros((30, 2)), np.full(30, 3), 10)
        hist = class_histogram(data, 10)
        expected = np.zeros(10, dtype=np.int64)
        expected[3] = 30
        np.testing.assert_array_equal(hist, expected)

    def test_empty_input_gives_zero_vector(self):
        hist = class_histogram(np.empty(0, dtype=int), 7)
        np.testing.assert_array_equal(hist, np.zeros(7, dtype=np.int64))

    def test_counts_sum_to_sample_count(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 6, size=500)
        assert class_histogram(labels, 6).sum() == 500

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 5, size=100)
        shuffled = labels[rng.permutation(100)]
        np.testing.assert_array_equal(
            class_histogram(labels, 5), class_histogram(shuffled, 5)
        )


class TestMnistLoader:
    def test_round_trip_counts_and_scaling(self, tmp_path):
        train_labels = [5, 0, 4, 1, 9, 2]
        test_labels = [7, 2]
        make_mnist_dir(tmp_path, train_labels, test_labels)
        train, test, meta = load_mnist(tmp_path)
        assert meta.num_classes == 10
        assert meta.input_dim == 16
        assert (meta.train_size, meta.test_size) == (6, 2)
        np.testing.assert_array_equal(train.labels, train_labels)
        # first training label mirrors byte 8 of the label file
        raw = (tmp_path / "train-labels-idx1-ubyte").read_bytes()
        assert train.labels[0] == raw[8] == 5
        assert train.features.min() >= 0.0 and train.features.max() <= 1.0

    def test_pixel_scaling_is_exact(self, tmp_path):
        imgs = np.full((1, 2, 2), 128, dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", imgs)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [1])
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte", imgs)
        write_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", [1])
        train, _, _ = load_mnist(tmp_path)
        np.testing.assert_array_equal(train.features, 128.0 / 255.0)

    def test_scaled_bytes_equal_a_float_copy_divided_by_255(self, tmp_path):
        make_mnist_dir(tmp_path, [5, 0, 4], [7], side=16)
        # the test image holds every byte value once
        write_idx_images(tmp_path / "t10k-images-idx3-ubyte", np.arange(256).reshape(1, 16, 16))
        train, test, _ = load_mnist(tmp_path)
        for data, name in ((train, "train-images-idx3-ubyte"), (test, "t10k-images-idx3-ubyte")):
            pixels = np.frombuffer((tmp_path / name).read_bytes()[16:], dtype=np.uint8)
            expected = pixels.reshape(len(data), -1).astype(np.float64) / 255.0
            assert data.features.tobytes() == expected.tobytes()

    def test_repeated_loads_are_identical(self, tmp_path):
        make_mnist_dir(tmp_path, [1, 2, 3], [4])
        first, _, _ = load_mnist(tmp_path)
        second, _, _ = load_mnist(tmp_path)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.labels, second.labels)

    def test_bad_magic(self, tmp_path):
        make_mnist_dir(tmp_path, [1], [2])
        path = tmp_path / "train-images-idx3-ubyte"
        raw = bytearray(path.read_bytes())
        raw[3] = 0x99
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetError, match="magic"):
            load_mnist(tmp_path)

    def test_truncated_file(self, tmp_path):
        make_mnist_dir(tmp_path, [1, 2], [3])
        path = tmp_path / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DatasetError, match="expected .* bytes"):
            load_mnist(tmp_path)

    def test_count_mismatch(self, tmp_path):
        make_mnist_dir(tmp_path, [1, 2, 3], [4])
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", [1, 2])
        with pytest.raises(DatasetError, match="images vs"):
            load_mnist(tmp_path)

    def test_missing_files(self, tmp_path):
        with pytest.raises(DatasetError, match="missing MNIST files"):
            load_mnist(tmp_path)


@pytest.mark.slow
def test_real_mnist_if_available():
    data_dir = os.environ.get("FEDSIM_MNIST_DIR")
    if not data_dir:
        pytest.skip("set FEDSIM_MNIST_DIR to run against the real files")
    train, test, meta = load_mnist(data_dir)
    assert (meta.train_size, meta.test_size) == (60_000, 10_000)
    assert meta.input_dim == 784
    assert train.labels[0] == 5
    assert class_histogram(train, 10).sum() == 60_000


def write_cifar10_dir(tmp_path: Path, per_file=4) -> Path:
    rng = np.random.default_rng(7)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = []
        for _ in range(per_file):
            label = rng.integers(0, 10)
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
            records.append(bytes([label]) + pixels.tobytes())
        (tmp_path / name).write_bytes(b"".join(records))
    return tmp_path


class TestCifarLoader:
    def test_cifar10_shapes(self, tmp_path):
        write_cifar10_dir(tmp_path, per_file=4)
        train, test, meta = load_cifar(tmp_path, "cifar10")
        assert meta.num_classes == 10
        assert meta.input_dim == 3072
        assert (len(train), len(test)) == (20, 4)

    def test_cifar100_uses_fine_label(self, tmp_path):
        pixels = np.arange(3072, dtype=np.uint8).tobytes()
        record = bytes([1, 77]) + pixels  # coarse label 1, fine label 77
        (tmp_path / "train.bin").write_bytes(record * 3)
        (tmp_path / "test.bin").write_bytes(record)
        train, test, meta = load_cifar(tmp_path, "cifar100")
        assert meta.num_classes == 100
        np.testing.assert_array_equal(train.labels, [77, 77, 77])
        assert train.features[0, 0] == 0.0
        assert train.features[0, -1] == pytest.approx((3071 % 256) / 255.0)

    def test_scaled_bytes_equal_a_float_copy_divided_by_255(self, tmp_path):
        write_cifar10_dir(tmp_path, per_file=4)
        train, test, _ = load_cifar(tmp_path, "cifar10")
        for data, names in (
            (train, [f"data_batch_{i}.bin" for i in range(1, 6)]),
            (test, ["test_batch.bin"]),
        ):
            records = np.concatenate([
                np.frombuffer((tmp_path / n).read_bytes(), dtype=np.uint8).reshape(-1, 3073)
                for n in names
            ])
            expected = records[:, 1:].astype(np.float64) / 255.0
            assert data.features.tobytes() == expected.tobytes()

    def test_truncated_record(self, tmp_path):
        write_cifar10_dir(tmp_path)
        path = tmp_path / "data_batch_2.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DatasetError, match="not a multiple of record size"):
            load_cifar(tmp_path, "cifar10")

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(DatasetError, match="variant must be cifar10 or cifar100"):
            load_cifar(tmp_path, "cifar20")

    def test_missing_files(self, tmp_path):
        with pytest.raises(DatasetError, match="missing cifar100 files"):
            load_cifar(tmp_path, "cifar100")


class TestSynthetic:
    def test_split_arithmetic(self):
        train, test, meta = make_synthetic(10, 100, 16, 0.3, seed=0)
        assert (len(train), len(test)) == (800, 200)
        assert meta.train_size == 800 and meta.test_size == 200
        # exactly 80 train and 20 test samples per class
        np.testing.assert_array_equal(class_histogram(train, 10), 80)
        np.testing.assert_array_equal(class_histogram(test, 10), 20)

    def test_deterministic(self):
        a_train, a_test, _ = make_synthetic(4, 30, 8, 0.2, seed=5)
        b_train, b_test, _ = make_synthetic(4, 30, 8, 0.2, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_features_in_unit_interval(self):
        train, test, _ = make_synthetic(5, 50, 6, 0.8, seed=2)
        for data in (train, test):
            assert data.features.min() >= 0.0
            assert data.features.max() <= 1.0

    def test_zero_spread_classified_by_nearest_mean(self):
        train, test, _ = make_synthetic(6, 20, 8, 0.0, seed=9)
        # independent oracle: classify test points by the nearest class mean
        # estimated from the training data
        means = np.stack([
            train.features[train.labels == c].mean(axis=0) for c in range(6)
        ])
        dists = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert np.all(predictions == test.labels)

