"""Property tests for the index arrays that stand for a run's samples.

The queue pool, the residual, every dispensed segment and every device's
data are int64 index arrays into the one train set, and `accumulate`
derives the (K, C) histograms and (K,) entropies from them in batches. These
properties hold for any labels, fractions, partition modes and dispense
sequences.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from fedsim.data import LabeledSet
from fedsim.errors import ConfigInvalid
from fedsim.partition import (
    accumulate,
    class_positions,
    dispense,
    normalized_entropies,
    normalized_entropy,
    partition,
    split_global_queue,
)
from reference import reference_entropy

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


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
        return partition(train, residual, mode, num_devices, seed)
    except ConfigInvalid:
        reject()


@SETTINGS
@given(
    num_classes=st.integers(1, 8),
    labels=st.lists(st.integers(0, 7), max_size=60),
)
def test_class_positions_are_each_class_scanned_alone(num_classes, labels):
    # labels at or above num_classes are dropped; classes no label names
    # come out empty
    labels = np.array([y for y in labels if y < num_classes], dtype=np.int64)
    positions = class_positions(labels, num_classes)
    assert len(positions) == num_classes
    for c, idx in enumerate(positions):
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, np.flatnonzero(labels == c))


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
    devices, hists = partition_or_reject(train, residual, mode, num_devices, seed)
    held = np.concatenate(devices)
    np.testing.assert_array_equal(np.sort(held), residual)
    for k, d in enumerate(devices):
        assert len(d) > 0
        np.testing.assert_array_equal(hists[k], histogram_of(train, d))


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
        assert segments.shape == positions.shape == (num_devices, segment_size)
        assert segments.dtype == positions.dtype == np.int64
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
    devices, hists = partition_or_reject(train, everything, mode, num_devices, seed)
    entropies = normalized_entropies(hists)
    rounds = data.draw(st.integers(1, 4))
    index = st.integers(0, len(train) - 1)
    for _ in range(rounds):
        # every device gets s samples, s = 0 included, as a round dispenses
        count = len(devices) * data.draw(st.integers(0, 4))
        flat = data.draw(st.lists(index, min_size=count, max_size=count))
        segments = np.array(flat, dtype=np.int64).reshape(len(devices), -1)
        before = devices
        devices = accumulate(devices, hists, entropies, segments, train)
        for k, (old, new, segment) in enumerate(zip(before, devices, segments)):
            if len(segment) == 0:
                assert new is old
            np.testing.assert_array_equal(new, np.concatenate([old, segment]))
            np.testing.assert_array_equal(hists[k], histogram_of(train, new))
            assert entropies[k] == reference_entropy(hists[k])
            # training reads the same rows as a copied shard would hold
            np.testing.assert_array_equal(train.features[new, 0], new)


@SETTINGS
@given(
    train=train_sets(),
    num_devices=st.integers(2, 12),
    seed=st.integers(0, 2**20),
    data=st.data(),
)
def test_accumulate_gives_each_ragged_device_its_old_data_then_its_segment(
    train, num_devices, seed, data
):
    everything = np.arange(len(train))
    devices, hists = partition_or_reject(train, everything, "one_class", num_devices, seed)
    assume(len({len(d) for d in devices}) > 1)
    entropies = normalized_entropies(hists)
    index = st.integers(0, len(train) - 1)
    rounds = []
    for _ in range(data.draw(st.integers(1, 3))):
        s = data.draw(st.integers(1, 4))
        flat = data.draw(st.lists(index, min_size=len(devices) * s, max_size=len(devices) * s))
        segments = np.array(flat, dtype=np.int64).reshape(len(devices), s)
        expected = [np.concatenate([old, segment]) for old, segment in zip(devices, segments)]
        devices = accumulate(devices, hists, entropies, segments, train)
        rounds.append((devices, expected))
    # a later round leaves the arrays an earlier one returned as they were
    for grown, expected in rounds:
        for new, want in zip(grown, expected):
            assert new.ndim == 1 and new.dtype == np.int64
            np.testing.assert_array_equal(new, want)
            # `len` of the buffer is the sample count a benchmark reads
            assert len(new.data) == len(want)
    for k, new in enumerate(devices):
        assert len(new.data) == hists[k].sum()


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
        expected = reference_entropy(row)
        assert value == expected
        assert normalized_entropy(row) == expected
