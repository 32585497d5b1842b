"""Property tests for the index arrays that stand for a run's samples.

The queue pool, the residual, every dispensed segment and every device's
data are int64 index arrays into the one train set, and `accumulate`
derives histograms and entropies from them in batches. These properties
hold for any labels, fractions, partition plans and dispense sequences.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from fedsim.data import LabeledSet
from fedsim.errors import ConfigInvalid
from fedsim.partition import (
    PartitionPlan,
    accumulate,
    dispense,
    normalized_entropies,
    normalized_entropy,
    partition,
    split_global_queue,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


def scalar_normalized_entropy(counts) -> float:
    """Reference: the one-histogram implementation the batched pass replaced."""
    counts = np.asarray(counts)
    total = counts.sum()
    nonzero = counts[counts > 0].astype(np.float64)
    if nonzero.size == 1 or counts.size == 1:
        return 0.0
    if np.all(counts == counts.flat[0]):
        return 1.0
    p = np.sort(nonzero) / float(total)
    raw = float(-(p * np.log2(p)).sum())
    return min(1.0, max(0.0, raw / math.log2(counts.size)))


@st.composite
def train_sets(draw, max_classes=6, max_size=80):
    num_classes = draw(st.integers(2, max_classes))
    n = draw(st.integers(num_classes, max_size))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    # feature row i holds i, so a gathered row names the sample it came from
    features = np.arange(n, dtype=np.float64)[:, None]
    return LabeledSet(features, np.array(labels), num_classes)


def histogram_of(train, indices):
    return np.bincount(train.labels[indices], minlength=train.num_classes)


def partition_or_reject(train, residual, mode, num_devices, seed):
    try:
        return partition(train, residual, PartitionPlan(mode, num_devices, seed))
    except ConfigInvalid:
        reject()


@SETTINGS
@given(train=train_sets(), fraction=st.floats(0.0, 0.95), seed=st.integers(0, 2**20))
def test_pool_and_residual_are_disjoint_and_cover_the_train_set(train, fraction, seed):
    queue, residual = split_global_queue(train, fraction, seed)
    assert queue.pool.dtype == residual.dtype == np.int64
    both = np.concatenate([queue.pool, residual])
    np.testing.assert_array_equal(np.sort(both), np.arange(len(train)))
    assert np.all(np.diff(residual) > 0)  # the residual keeps train order


@SETTINGS
@given(
    train=train_sets(),
    fraction=st.floats(0.0, 0.6),
    mode=st.sampled_from(["iid", "one_class"]),
    num_devices=st.integers(1, 12),
    seed=st.integers(0, 2**20),
)
def test_shards_are_disjoint_and_cover_the_residual(train, fraction, mode, num_devices, seed):
    _, residual = split_global_queue(train, fraction, seed)
    devices = partition_or_reject(train, residual, mode, num_devices, seed)
    held = np.concatenate([d.data for d in devices])
    np.testing.assert_array_equal(np.sort(held), residual)
    for d in devices:
        assert len(d.data) > 0
        np.testing.assert_array_equal(d.histogram, histogram_of(train, d.data))
        assert d.entropy == scalar_normalized_entropy(d.histogram)


@SETTINGS
@given(
    pool_size=st.integers(1, 12),
    calls=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 6)), min_size=1, max_size=8),
    seed=st.integers(0, 2**20),
)
def test_dispensed_samples_repeat_only_across_a_reshuffle(pool_size, calls, seed):
    train = LabeledSet(
        np.zeros((2 * pool_size, 1)), np.repeat([0, 1], pool_size), num_classes=2
    )
    queue, _ = split_global_queue(train, 0.5, seed)
    assert len(queue.pool) == pool_size
    stream = []
    for num_devices, segment_size in calls:
        segments, positions = dispense(queue, num_devices, segment_size)
        assert len(segments) == len(positions) == num_devices
        for segment, where in zip(segments, positions):
            assert len(segment) == segment_size
            np.testing.assert_array_equal(segment, queue.pool[where])
            stream.extend(where.tolist())
    # each pass over the pool is one permutation of it; the last may be partial
    for start in range(0, len(stream), pool_size):
        chunk = stream[start : start + pool_size]
        assert len(set(chunk)) == len(chunk)
    assert queue.reshuffles == max(0, math.ceil(len(stream) / pool_size) - 1)


@SETTINGS
@given(
    train=train_sets(),
    mode=st.sampled_from(["iid", "one_class"]),
    num_devices=st.integers(1, 8),
    seed=st.integers(0, 2**20),
    data=st.data(),
)
def test_histograms_follow_the_data_under_any_accumulate_sequence(
    train, mode, num_devices, seed, data
):
    everything = np.arange(len(train))
    devices = partition_or_reject(train, everything, mode, num_devices, seed)
    rounds = data.draw(st.integers(1, 4))
    index = st.integers(0, len(train) - 1)
    for _ in range(rounds):
        segments = [
            np.array(data.draw(st.lists(index, max_size=4)), dtype=np.int64)
            for _ in devices
        ]
        before = devices
        devices = accumulate(devices, segments, train)
        for old, new, segment in zip(before, devices, segments):
            if len(segment) == 0:
                assert new is old
            np.testing.assert_array_equal(new.data, np.concatenate([old.data, segment]))
            np.testing.assert_array_equal(new.histogram, histogram_of(train, new.data))
            assert new.entropy == scalar_normalized_entropy(new.histogram)
            # training reads the same rows as a copied shard would hold
            np.testing.assert_array_equal(train.features[new.data, 0], new.data)


@st.composite
def histogram_stacks(draw):
    """(K, C) counts: C from 1 to 100, rows of every number of nonzero classes."""
    num_classes = draw(st.integers(1, 100))
    rows = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    high = draw(st.sampled_from([2, 10, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hists = rng.integers(1, high, size=(rows, num_classes))
    hists *= rng.random((rows, num_classes)) < density
    hists[hists.sum(axis=1) == 0, 0] = 1
    if draw(st.booleans()):  # a uniform row, which scores exactly 1
        hists[0] = draw(st.integers(1, 50))
    return hists


@settings(max_examples=300, deadline=None)
@given(hists=histogram_stacks())
def test_batched_entropy_is_the_scalar_entropy_bit_for_bit(hists):
    batched = normalized_entropies(hists)
    assert batched.shape == (len(hists),)
    for row, value in zip(hists, batched):
        expected = scalar_normalized_entropy(row)
        assert value == expected
        assert normalized_entropy(row) == expected
