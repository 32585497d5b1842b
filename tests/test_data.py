import os

import numpy as np
import pytest

from fedsim.data import (
    LabeledSet,
    concat_sets,
    load_cifar,
    load_mnist,
    make_synthetic,
)
from fedsim.errors import DatasetError
from inputs import write_cifar, write_idx, write_mnist


class TestLabeledSet:
    def test_concat_checks_dimensions(self):
        a = LabeledSet(np.zeros((2, 3)), np.zeros(2, dtype=int), 2)
        b = LabeledSet(np.zeros((2, 4)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError, match="feature widths differ"):
            concat_sets(a, b)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LabeledSet(np.zeros(3), np.zeros(3, dtype=int), 2),
         "features must be a 2-D array"),
        (lambda: LabeledSet(np.zeros((3, 2)), np.zeros(2, dtype=int), 2),
         "labels must be 1-D and match the sample count"),
        (lambda: LabeledSet(np.zeros((3, 2)), np.zeros((3, 1), dtype=int), 2),
         "labels must be 1-D and match the sample count"),
        (lambda: LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int), 0),
         "num_classes must be positive"),
        (lambda: LabeledSet(np.eye(2), [0, 3], 3), r"labels must lie in \[0, num_classes\)"),
        (lambda: LabeledSet(np.eye(2), [-1, 0], 3), r"labels must lie in \[0, num_classes\)"),
    ],
)
def test_bad_input_raises_naming_the_fault(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestMnistLoader:
    def test_round_trip_counts_and_scaling(self, tmp_path):
        train_labels = [5, 0, 4, 1, 9, 2]
        test_labels = [7, 2]
        write_mnist(tmp_path, train_labels, test_labels, side=4)
        train, test = load_mnist(tmp_path)
        assert train.num_classes == 10
        assert train.input_dim == 16
        assert (len(train), len(test)) == (6, 2)
        np.testing.assert_array_equal(train.labels, train_labels)
        # first training label mirrors byte 8 of the label file
        raw = (tmp_path / "train-labels-idx1-ubyte").read_bytes()
        assert train.labels[0] == raw[8] == 5
        assert train.features.min() >= 0.0 and train.features.max() <= 1.0

    def test_pixel_scaling_is_exact(self, tmp_path):
        write_mnist(tmp_path, [1], [1])
        write_idx(tmp_path / "train-images-idx3-ubyte", np.full((1, 2, 2), 128))
        train, _ = load_mnist(tmp_path)
        np.testing.assert_array_equal(train.features, 128.0 / 255.0)

    def test_scaled_bytes_equal_a_float_copy_divided_by_255(self, tmp_path):
        write_mnist(tmp_path, [5, 0, 4], [7], side=16)
        # the test image holds every byte value once
        write_idx(tmp_path / "t10k-images-idx3-ubyte", np.arange(256).reshape(1, 16, 16))
        train, test = load_mnist(tmp_path)
        for data, name in ((train, "train-images-idx3-ubyte"), (test, "t10k-images-idx3-ubyte")):
            pixels = np.frombuffer((tmp_path / name).read_bytes()[16:], dtype=np.uint8)
            expected = pixels.reshape(len(data), -1).astype(np.float64) / 255.0
            assert data.features.tobytes() == expected.tobytes()

    def test_repeated_loads_are_identical(self, tmp_path):
        write_mnist(tmp_path, [1, 2, 3], [4])
        first, _ = load_mnist(tmp_path)
        second, _ = load_mnist(tmp_path)
        np.testing.assert_array_equal(first.features, second.features)
        np.testing.assert_array_equal(first.labels, second.labels)

    def test_truncated_file(self, tmp_path):
        write_mnist(tmp_path, [1, 2], [3])
        path = tmp_path / "train-images-idx3-ubyte"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DatasetError, match="expected .* bytes"):
            load_mnist(tmp_path)

    def test_count_mismatch(self, tmp_path):
        write_mnist(tmp_path, [1, 2, 3], [4])
        write_idx(tmp_path / "train-labels-idx1-ubyte", [1, 2])
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
    train, test = load_mnist(data_dir)
    assert (len(train), len(test)) == (60_000, 10_000)
    assert train.input_dim == 784
    assert train.labels[0] == 5
    assert np.bincount(train.labels, minlength=10).sum() == 60_000


class TestCifarLoader:
    def test_cifar10_shapes(self, tmp_path):
        write_cifar(tmp_path, per_file=4)
        train, test = load_cifar(tmp_path, "cifar10")
        assert train.num_classes == 10
        assert train.input_dim == 3072
        assert (len(train), len(test)) == (20, 4)

    def test_cifar100_uses_fine_label(self, tmp_path):
        pixels = np.arange(3072, dtype=np.uint8).tobytes()
        record = bytes([1, 77]) + pixels  # coarse label 1, fine label 77
        (tmp_path / "train.bin").write_bytes(record * 3)
        (tmp_path / "test.bin").write_bytes(record)
        train, test = load_cifar(tmp_path, "cifar100")
        assert train.num_classes == 100
        np.testing.assert_array_equal(train.labels, [77, 77, 77])
        assert train.features[0, 0] == 0.0
        assert train.features[0, -1] == pytest.approx((3071 % 256) / 255.0)

    def test_scaled_bytes_equal_a_float_copy_divided_by_255(self, tmp_path):
        write_cifar(tmp_path, per_file=4)
        train, test = load_cifar(tmp_path, "cifar10")
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
        write_cifar(tmp_path)
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
        train, test = make_synthetic(10, 100, 16, 0.3, seed=0)
        assert (len(train), len(test)) == (800, 200)
        # exactly 80 train and 20 test samples per class
        np.testing.assert_array_equal(np.bincount(train.labels, minlength=10), 80)
        np.testing.assert_array_equal(np.bincount(test.labels, minlength=10), 20)

    def test_deterministic(self):
        a_train, a_test = make_synthetic(4, 30, 8, 0.2, seed=5)
        b_train, b_test = make_synthetic(4, 30, 8, 0.2, seed=5)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.features, b_test.features)

    def test_features_in_unit_interval(self):
        train, test = make_synthetic(5, 50, 6, 0.8, seed=2)
        for data in (train, test):
            assert data.features.min() >= 0.0
            assert data.features.max() <= 1.0

    def test_zero_spread_classified_by_nearest_mean(self):
        train, test = make_synthetic(6, 20, 8, 0.0, seed=9)
        # independent oracle: classify test points by the nearest class mean
        # estimated from the training data
        means = np.stack([
            train.features[train.labels == c].mean(axis=0) for c in range(6)
        ])
        dists = ((test.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predictions = dists.argmin(axis=1)
        assert np.all(predictions == test.labels)

