import hashlib

import numpy as np
import pytest

from fedsim.data import LabeledSet
from fedsim.errors import ConfigInvalid
from fedsim.partition import (
    accumulate,
    dispense,
    normalized_entropies,
    partition,
    split_global_queue,
)
from reference import reference_dispense


def balanced_set(num_classes=10, per_class=600, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledSet(rng.uniform(size=(len(labels), dim)), labels, num_classes)


def partition_all(train, mode, num_devices, seed):
    """Partition every sample of `train` (no queue held back); returns the
    devices and their histograms."""
    return partition(train, np.arange(len(train)), mode, num_devices, seed)


class TestSplitGlobalQueue:
    def test_pool_and_residual_sizes(self):
        train = balanced_set(per_class=6000)  # 60000 samples
        queue, residual = split_global_queue(train, 0.1, seed=1)
        assert len(queue.pool) == 6000
        assert len(residual) == 54000

    def test_stratified_pool_is_class_uniform(self):
        train = balanced_set(per_class=6000)
        queue, _ = split_global_queue(train, 0.1, seed=1)
        np.testing.assert_array_equal(np.bincount(train.labels[queue.pool], minlength=10), 600)

    def test_zero_fraction(self):
        train = balanced_set(per_class=30)
        queue, residual = split_global_queue(train, 0.0, seed=1)
        assert len(queue.pool) == 0
        np.testing.assert_array_equal(residual, np.arange(len(train)))

    def test_uniform_to_the_extent_counts_allow(self):
        # class 0 has only 5 samples; the shortfall spreads over other classes
        labels = np.concatenate([np.zeros(5, dtype=int), np.repeat([1, 2, 3], 100)])
        rng = np.random.default_rng(3)
        train = LabeledSet(rng.uniform(size=(len(labels), 3)), labels, 4)
        queue, _ = split_global_queue(train, 0.2, seed=2)
        target = round(0.2 * len(train))
        hist = np.bincount(train.labels[queue.pool], minlength=4)
        assert hist.sum() == target == len(queue.pool)
        assert hist[0] == 5
        assert hist[1:].max() - hist[1:].min() <= 1


class TestPartition:
    def test_iid_balanced_data_gives_unit_entropy(self):
        train = balanced_set(per_class=100)
        devices, hists = partition_all(train, "iid", 10, seed=5)
        assert normalized_entropies(hists).tolist() == [1.0] * 10
        assert all(len(d) == 100 for d in devices)

    def test_iid_sizes_balanced_within_one(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 7, size=503)
        train = LabeledSet(rng.uniform(size=(503, 3)), labels, 7)
        devices, _ = partition_all(train, "iid", 10, seed=1)
        sizes = [len(d) for d in devices]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 503

    def test_iid_shards_disjoint_and_cover(self):
        train = balanced_set(per_class=30)
        _, hists = partition_all(train, "iid", 4, seed=2)
        np.testing.assert_array_equal(hists.sum(axis=0), np.bincount(train.labels, minlength=10))

    def test_one_class_matching_device_count(self):
        train = balanced_set(per_class=40)
        devices, hists = partition_all(train, "one_class", 10, seed=3)
        assert normalized_entropies(hists).tolist() == [0.0] * 10
        for k, d in enumerate(devices):
            assert set(np.unique(train.labels[d])) == {k}
            assert len(d) == 40

    def test_one_class_two_devices_per_class(self):
        train = balanced_set(per_class=41)
        devices, _ = partition_all(train, "one_class", 20, seed=3)
        for j in range(10):
            a, b = devices[2 * j], devices[2 * j + 1]
            assert set(np.unique(train.labels[a])) == {j}
            assert set(np.unique(train.labels[b])) == {j}
            # the pair splits class j evenly and without overlap
            assert len(a) + len(b) == 41
            assert abs(len(a) - len(b)) <= 1

    def test_one_class_needs_enough_devices(self):
        train = balanced_set(num_classes=10, per_class=10)
        with pytest.raises(ConfigInvalid, match="devices: one_class needs at least one device"):
            partition_all(train, "one_class", 5, seed=0)

    def test_too_few_samples(self):
        train = balanced_set(num_classes=2, per_class=1, dim=3)
        with pytest.raises(ConfigInvalid, match="devices: 2 samples cannot cover 10 devices"):
            partition_all(train, "iid", 10, seed=0)

    def test_device_k_is_row_k(self):
        train = balanced_set(per_class=20)
        for mode in ("iid", "one_class"):
            devices, hists = partition_all(train, mode, 10, seed=7)
            assert len(devices) == 10
            assert hists.shape == (10, 10) and hists.dtype == np.int64

    def test_histogram_matches_data(self):
        train = balanced_set(per_class=20)
        for mode in ("iid", "one_class"):
            devices, hists = partition_all(train, mode, 10, seed=7)
            for d, hist in zip(devices, hists):
                np.testing.assert_array_equal(hist, np.bincount(train.labels[d], minlength=10))


def test_negative_counts_raise():
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        normalized_entropies(np.array([[3, -1], [1, 1]]))


class TestDispense:
    # (pool size, [(devices, segment_size) per call]): one reshuffle; several
    # reshuffles in one call; a cursor ending exactly at the end of the pool,
    # then a call that must reshuffle first; calls starting mid-pool
    @pytest.mark.parametrize(
        "pool, calls",
        [
            (4, [(3, 2)]),
            (4, [(5, 3), (1, 1)]),
            (12, [(4, 3), (2, 1)]),
            (20, [(3, 4), (2, 4), (7, 5), (1, 13)]),
            (10, [(3, 1), (2, 7), (4, 0), (1, 2)]),
        ],
    )
    def test_matches_per_sample_loop(self, pool, calls):
        train = balanced_set(num_classes=2, per_class=pool, dim=3)
        queue, _ = split_global_queue(train, 0.5, seed=7)
        reference, _ = split_global_queue(train, 0.5, seed=7)
        assert len(queue.pool) == pool
        for num_devices, segment_size in calls:
            segments, indices = dispense(queue, num_devices, segment_size)
            expected = reference_dispense(reference, num_devices, segment_size)
            assert len(indices) == num_devices
            for got, want, segment in zip(indices, expected, segments):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(segment, queue.pool[want])
            assert (queue.cursor, queue.reshuffles) == (reference.cursor, reference.reshuffles)
            np.testing.assert_array_equal(queue.order, reference.order)

    def test_zero_segment_size(self):
        train = balanced_set(per_class=10)
        queue, _ = split_global_queue(train, 0.5, seed=2)
        before = queue.cursor
        segments, indices = dispense(queue, 4, 0)
        assert all(len(s) == 0 for s in segments)
        assert all(len(ix) == 0 for ix in indices)
        assert queue.cursor == before

    def test_rounds_disjoint_before_reshuffle(self):
        train = balanced_set(per_class=20)
        queue, _ = split_global_queue(train, 0.5, seed=3)
        _, first = dispense(queue, 5, 3)
        _, second = dispense(queue, 5, 3)
        all_indices = np.concatenate([*first, *second])
        assert len(np.unique(all_indices)) == len(all_indices)

    def test_empty_pool_dispenses_nothing(self):
        train = balanced_set(num_classes=2, per_class=5, dim=3)
        queue, _ = split_global_queue(train, 0.0, seed=4)
        segments, _ = dispense(queue, 3, 2)
        assert all(len(s) == 0 for s in segments)


class TestAccumulate:
    def test_one_segment_per_device(self):
        train = balanced_set(per_class=5)
        devices, hists = partition_all(train, "iid", 2, seed=1)
        with pytest.raises(ValueError):
            accumulate(devices, hists, normalized_entropies(hists), np.array([[0]]), train)


class TestSetUpIsPinned:
    """sha256 prefixes of the set-up arrays, which a rewrite of the split or
    the partition must not move: uneven one_class ownership (23 devices over
    7 classes), a 100-class iid split and 1,000 one_class devices over 100
    classes, each on uneven random class counts."""

    @pytest.mark.parametrize(
        "num_classes, n, mode, num_devices, fraction, seed, expected",
        [
            (7, 700, "one_class", 23, 0.15, 4,
             ("d910f5ad7b49f751", "9229e9739b179f6f", "bbb60218ef659bdb", "63142ce04f357aad")),
            (100, 5000, "iid", 37, 0.1, 2,
             ("c0ff62cba156eb40", "4c67de3aeb6ab5c3", "a1c9205095c54236", "c2f10135f7534551")),
            (100, 20000, "one_class", 1000, 0.1, 3,
             ("d60221813a59c3ae", "5122fc99741c8147", "b7dacc598c2ddf13", "5d60c138b613612a")),
        ],
    )
    def test_pool_residual_data_and_histograms(
        self, num_classes, n, mode, num_devices, fraction, seed, expected
    ):
        labels = np.random.default_rng(num_classes).integers(0, num_classes, size=n)
        train = LabeledSet(np.zeros((n, 1)), labels, num_classes)
        queue, residual = split_global_queue(train, fraction, seed)
        devices, hists = partition(train, residual, mode, num_devices, seed + 1)
        # the histograms' row sums pin where one device's data ends
        arrays = (queue.pool, residual, np.concatenate(devices), hists)
        digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)
        assert digests == expected
