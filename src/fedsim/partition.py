"""Device partitioning and the server-held dispensing queue.

The training set is split once: a configurable fraction goes into a server
queue with near-uniform class composition, the remainder is partitioned
across devices either evenly by class (iid) or one class per device
(one_class). Each round the queue dispenses fresh disjoint segments, which
devices accumulate permanently, so device class histograms and entropies
evolve over the run.

Queue mutation (cursor advance, reshuffle) must stay confined to a single
round loop; DeviceState values are immutable snapshots exchanged between
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, class_histogram, concat_sets
from .errors import (
    DimensionMismatch,
    InfeasibleOneClass,
    InvalidGamma,
    InvalidParam,
    TooFewSamples,
)
from .params import ParamVector
from .seeds import derive_seed

PARTITION_MODES = ("iid", "one_class")


@dataclass(frozen=True)
class PartitionPlan:
    mode: str
    num_devices: int
    seed: int

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise InvalidParam(f"mode must be one of {PARTITION_MODES}")
        if self.num_devices < 1:
            raise InvalidParam("num_devices must be at least 1")


@dataclass
class GlobalQueue:
    """Server-held sample pool dispensed in random order without replacement.

    `order` is a permutation of pool indices and `cursor` the next position.
    When the pool runs out mid-dispense the queue reshuffles with a freshly
    derived seed and keeps going.
    """

    pool: LabeledSet
    order: np.ndarray
    cursor: int
    seed: int
    reshuffles: int = 0

    def remaining(self) -> int:
        return int(len(self.order) - self.cursor)


@dataclass(frozen=True)
class DeviceState:
    """One device's cumulative data, class histogram, entropy, local model."""

    device_id: int
    data: LabeledSet
    histogram: np.ndarray
    entropy: float
    model: ParamVector | None = None


def _make_device_state(
    device_id: int, data: LabeledSet, hist: np.ndarray, model=None
) -> DeviceState:
    # local import: entropy lives with the aggregation code, which imports us
    from .federation import normalized_entropy

    return DeviceState(device_id, data, hist, normalized_entropy(hist), model)


def _uniform_quotas(counts: np.ndarray, target: int) -> np.ndarray:
    """Per-class draw sizes summing to `target`, as equal as counts allow."""
    num_classes = len(counts)
    quotas = np.zeros(num_classes, dtype=np.int64)
    remaining = target
    by_scarcity = sorted(range(num_classes), key=lambda c: (counts[c], c))
    for i, c in enumerate(by_scarcity):
        classes_left = num_classes - i
        share = -(-remaining // classes_left)  # ceil division
        take = min(int(counts[c]), share, remaining)
        quotas[c] = take
        remaining -= take
    return quotas


def split_global_queue(
    train: LabeledSet, queue_fraction: float, seed: int
) -> tuple[GlobalQueue, LabeledSet]:
    """Hold back round(fraction * n) samples as the server queue.

    The held-back pool draws equally from every class where counts permit;
    the residual (everything else) keeps its original order.
    """
    if not 0.0 <= queue_fraction < 1.0:
        raise InvalidGamma("queue_fraction must lie in [0, 1)")
    n = len(train)
    target = int(round(queue_fraction * n))
    counts = class_histogram(train, train.num_classes)
    quotas = _uniform_quotas(counts, target)

    rng = np.random.default_rng(derive_seed(seed, "select"))
    chosen_parts = []
    for c in range(train.num_classes):
        class_idx = np.flatnonzero(train.labels == c)
        if quotas[c] > 0:
            chosen_parts.append(rng.choice(class_idx, size=int(quotas[c]), replace=False))
    chosen = (
        np.concatenate(chosen_parts) if chosen_parts else np.empty(0, dtype=np.int64)
    )

    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    pool = train.subset(chosen)
    residual = train.subset(np.flatnonzero(~mask))
    order = np.random.default_rng(derive_seed(seed, "order", 0)).permutation(len(pool))
    queue = GlobalQueue(pool=pool, order=order, cursor=0, seed=seed)
    return queue, residual


def partition(residual: LabeledSet, plan: PartitionPlan) -> list[DeviceState]:
    """Split the residual across devices according to the plan.

    iid deals a per-class shuffled deck round-robin, so device sizes and
    per-device class counts are balanced within one sample. one_class gives
    device k every sample of class floor(k*C/K); a class shared by several
    devices is split evenly among them. Shards are disjoint and cover the
    residual exactly.
    """
    n = len(residual)
    if n == 0:
        raise TooFewSamples("residual dataset is empty")
    K = plan.num_devices
    if n < K:
        raise TooFewSamples(f"{n} samples cannot cover {K} devices")
    num_classes = residual.num_classes

    if plan.mode == "iid":
        deck_parts = []
        for c in range(num_classes):
            class_idx = np.flatnonzero(residual.labels == c)
            order = np.random.default_rng(derive_seed(plan.seed, "class", c)).permutation(
                len(class_idx)
            )
            deck_parts.append(class_idx[order])
        deck = np.concatenate(deck_parts)
        shards = [deck[k::K] for k in range(K)]
    else:
        if K < num_classes:
            raise InfeasibleOneClass(
                f"one_class needs at least one device per class ({K} < {num_classes})"
            )
        shards = [None] * K
        device_class = [(k * num_classes) // K for k in range(K)]
        for c in range(num_classes):
            owners = [k for k in range(K) if device_class[k] == c]
            class_idx = np.flatnonzero(residual.labels == c)
            if len(class_idx) < len(owners):
                raise TooFewSamples(
                    f"class {c} has {len(class_idx)} samples for {len(owners)} devices"
                )
            order = np.random.default_rng(derive_seed(plan.seed, "class", c)).permutation(
                len(class_idx)
            )
            for owner, chunk in zip(owners, np.array_split(class_idx[order], len(owners))):
                shards[owner] = chunk

    subsets = [residual.subset(shard) for shard in shards]
    return [
        _make_device_state(k, d, class_histogram(d, num_classes)) for k, d in enumerate(subsets)
    ]


def dispense(
    queue: GlobalQueue, num_devices: int, segment_size: int
) -> tuple[list[LabeledSet], list[np.ndarray]]:
    """Draw one disjoint segment per device in permutation order.

    Advances the queue cursor in place. When fewer samples remain than are
    requested, the queue reshuffles under a derived seed and continues, so
    repeats can only occur across a reshuffle boundary. Returns the segments
    and their pool indices (for audit traces).
    """
    if segment_size < 0:
        raise InvalidParam("segment_size must be nonnegative")
    empty = np.empty(0, dtype=np.int64)
    if segment_size == 0 or len(queue.pool) == 0:
        return [queue.pool.subset(empty) for _ in range(num_devices)], [empty] * num_devices

    need = num_devices * segment_size
    parts = []
    while need > 0:
        if queue.cursor >= len(queue.order):  # reshuffle only when a sample is due
            queue.reshuffles += 1
            queue.order = np.random.default_rng(
                derive_seed(queue.seed, "order", queue.reshuffles)
            ).permutation(len(queue.pool))
            queue.cursor = 0
        part = queue.order[queue.cursor : queue.cursor + need]
        parts.append(part)
        queue.cursor += len(part)
        need -= len(part)
    taken = np.concatenate(parts) if parts else empty
    indices = list(taken.reshape(num_devices, segment_size))
    segments = [queue.pool.subset(ix) for ix in indices]
    return segments, indices


def accumulate(device: DeviceState, segment: LabeledSet) -> DeviceState:
    """Extend a device's data with a dispensed segment (the segment's class
    counts are added to the histogram, and the entropy is recomputed); an
    empty segment leaves the state untouched."""
    if len(segment) == 0:
        return device
    if segment.input_dim != device.data.input_dim:
        raise DimensionMismatch("segment feature width differs from device data")
    if segment.num_classes != device.data.num_classes:
        raise DimensionMismatch("segment class count differs from device data")
    merged = concat_sets(device.data, segment)
    hist = device.histogram + class_histogram(segment, segment.num_classes)
    return _make_device_state(device.device_id, merged, hist, device.model)
