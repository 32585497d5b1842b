"""Device partitioning, the server-held dispensing queue, and data entropy.

The training set is split once: a configurable fraction goes into a server
queue with near-uniform class composition, the remainder is partitioned
across devices either evenly by class (iid) or one class per device
(one_class). Both set-up steps read each class's samples from one class-wise
split (`class_positions`), and both partition modes deal from the same
per-class shuffled decks: a mode is only its dealing rule. Each round the
queue dispenses fresh disjoint segments, which devices accumulate
permanently, so device class histograms and entropies evolve over the run.
Samples never move: the queue pool, the residual, each segment and each
device's data are int64 index arrays into the train set; a device is nothing
more than its 1-D array, so `len` of it is the device's sample count.

Device k's class counts and entropy are row k of a (K, C) and a (K,)
array, as its local model is row k of the federation's model bank:
`partition` returns the devices in id order with their histograms. A round
dispenses every device the same number s of samples, or none at all, so its
segments are one (K, s) index array, with s = 0 when nothing is dispensed;
`accumulate` adds them to the rows in place. Queue mutation (cursor advance,
reshuffle) must stay confined to a single round loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# concat_sets has no caller here; bench/spans.py traces it under this module
from .data import LabeledSet, concat_sets  # noqa: F401
from .errors import ConfigInvalid
from .seeds import derive_seed

PARTITION_MODES = ("iid", "one_class")


@dataclass
class GlobalQueue:
    """Server-held sample pool dispensed in random order without replacement.

    `pool` holds the pool's train-set indices, `order` is a permutation of
    pool positions and `cursor` the next position in it. When the pool runs
    out mid-dispense the queue reshuffles with a freshly derived seed and
    keeps going.
    """

    pool: np.ndarray
    order: np.ndarray
    cursor: int
    seed: int
    reshuffles: int = 0


def normalized_entropies(hists) -> np.ndarray:
    """`normalized_entropy` of each row of a (K, C) stack of histograms.

    The rows with m nonzero classes form one (rows, m) group, which is
    sorted, turned into p * log2(p) and summed along each row: one row's own
    operations in its own order, so each value is bit for bit the
    single-histogram one.
    """
    hists = np.asarray(hists)
    if hists.shape[1] == 0:
        raise ValueError("histogram has no classes")
    if np.any(hists < 0):
        raise ValueError("counts must be nonnegative")
    totals = hists.sum(axis=1)
    if np.any(totals <= 0):
        raise ValueError("histogram has no samples")
    nonzero = hists > 0
    widths = nonzero.sum(axis=1)
    uniform = np.all(hists == hists[:, :1], axis=1) & (widths > 1)
    out = uniform.astype(np.float64)
    mixed = ~uniform & (widths > 1)
    for m in np.unique(widths[mixed]):
        rows = np.flatnonzero(mixed & (widths == m))
        counts = hists[rows][nonzero[rows]].reshape(len(rows), m).astype(np.float64)
        # canonical summation order makes each value permutation-invariant bitwise
        p = np.sort(counts, axis=1) / totals[rows, None].astype(np.float64)
        raw = -(p * np.log2(p)).sum(axis=1)
        out[rows] = np.clip(raw / math.log2(hists.shape[1]), 0.0, 1.0)
    return out


def normalized_entropy(counts) -> float:
    """Shannon entropy of a class-count histogram, scaled to [0, 1].

    The raw base-2 entropy is divided by log2(C), so a uniform histogram
    scores exactly 1 and a single-class histogram exactly 0.
    """
    return float(normalized_entropies(np.asarray(counts).reshape(1, -1))[0])


def _stacked_histograms(
    flat: np.ndarray, lengths, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """(K, C) class counts of K index arrays into `labels`, laid end to end in
    `flat` with `lengths[k]` entries for row k, from one bincount."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    keys = owner * num_classes + labels[flat]
    return np.bincount(keys, minlength=len(lengths) * num_classes).reshape(-1, num_classes)


def class_positions(labels: np.ndarray, num_classes: int) -> list[np.ndarray]:
    """Each class's positions in `labels`, ascending: entry c equals
    `np.flatnonzero(labels == c)`, cut from one stable sort at the class
    counts' edges."""
    edges = np.cumsum(np.bincount(labels, minlength=num_classes))[:-1]
    return np.split(np.argsort(labels, kind="stable"), edges)


def _uniform_quotas(counts: list[int], target: int) -> np.ndarray:
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
) -> tuple[GlobalQueue, np.ndarray]:
    """Hold back round(fraction * n) samples as the server queue.

    The held-back pool draws equally from every class where counts permit.
    Returns the queue and the residual, the train-set indices of everything
    else in their original order.
    """
    n = len(train)
    target = int(round(queue_fraction * n))
    by_class = class_positions(train.labels, train.num_classes)
    quotas = _uniform_quotas([len(idx) for idx in by_class], target)

    rng = np.random.default_rng(derive_seed(seed, "select"))
    chosen_parts = [
        rng.choice(idx, size=int(quota), replace=False)
        for idx, quota in zip(by_class, quotas)
        if quota > 0
    ]
    pool = (
        np.concatenate(chosen_parts) if chosen_parts else np.empty(0, dtype=np.int64)
    )

    mask = np.zeros(n, dtype=bool)
    mask[pool] = True
    order = np.random.default_rng(derive_seed(seed, "order", 0)).permutation(len(pool))
    queue = GlobalQueue(pool=pool, order=order, cursor=0, seed=seed)
    return queue, np.flatnonzero(~mask)


def partition(
    train: LabeledSet, residual: np.ndarray, mode: str, num_devices: int, seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Split the residual (train-set indices) across `num_devices` devices.

    Returns the devices' data, device k's train-set indices at position k,
    and their (K, C) int64 class counts, row k for device k.

    Both modes deal from the same decks: each class's residual positions,
    shuffled under a seed derived from the class, and differ only in the
    dealing rule. iid deals the decks, laid end to end, round-robin, so
    device sizes and per-device class counts are balanced within one
    sample. one_class gives device k every sample of class floor(k*C/K):
    deck c is split evenly over its owners, devices ceil(c*K/C) to
    ceil((c+1)*K/C) - 1. Shards are disjoint and cover the residual exactly.
    A device count the residual cannot fill is a config error naming
    `devices`, or `queue_fraction` when it leaves no residual.
    """
    n = len(residual)
    if n == 0:
        raise ConfigInvalid("queue_fraction leaves no samples for the devices")
    K = num_devices
    if n < K:
        raise ConfigInvalid(f"devices: {n} samples cannot cover {K} devices")
    num_classes = train.num_classes
    if mode == "one_class" and K < num_classes:
        raise ConfigInvalid(
            f"devices: one_class needs at least one device per class ({K} < {num_classes})"
        )

    decks = [
        idx[np.random.default_rng(derive_seed(seed, "class", c)).permutation(len(idx))]
        for c, idx in enumerate(class_positions(train.labels[residual], num_classes))
    ]
    if mode == "iid":
        deck = np.concatenate(decks)
        shards = [deck[k::K] for k in range(K)]
    else:
        firsts = [-(-c * K // num_classes) for c in range(num_classes + 1)]  # ceil(c*K/C)
        shards = []
        for c, deck in enumerate(decks):
            owners = firsts[c + 1] - firsts[c]
            if len(deck) < owners:
                raise ConfigInvalid(
                    f"devices: class {c} has {len(deck)} samples for {owners} devices"
                )
            shards += np.array_split(deck, owners)

    devices = [residual[shard] for shard in shards]
    lengths = [len(data) for data in devices]
    return devices, _stacked_histograms(
        np.concatenate(devices), lengths, train.labels, num_classes
    )


def dispense(
    queue: GlobalQueue, num_devices: int, segment_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one disjoint segment of `segment_size` samples per device in
    permutation order.

    Advances the queue cursor in place. When fewer samples remain than are
    requested, the queue reshuffles under a derived seed and continues, so
    repeats can only occur across a reshuffle boundary. Returns two (K, s)
    int64 arrays, row k for device k: the segments as train-set indices, and
    the same samples' positions in the pool (for audit traces). s is 0 when
    `segment_size` is 0 or the pool is empty.
    """
    if segment_size == 0 or len(queue.pool) == 0:
        empty = np.empty((num_devices, 0), dtype=np.int64)
        return empty, empty

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
    positions = np.concatenate(parts).reshape(num_devices, segment_size)
    return queue.pool[positions], positions


def accumulate(
    devices: list[np.ndarray],
    histograms: np.ndarray,
    entropies: np.ndarray,
    segments: np.ndarray,
    train: LabeledSet,
) -> list[np.ndarray]:
    """Extend each device's data with its segment of train-set indices.

    Row k of the (K, s) `segments` goes to `devices[k]`, whose class counts
    and entropy are row k of `histograms` and `entropies`. One bincount adds
    the segments' class counts and one row-wise pass recomputes the
    entropies, both in place. The grown devices are consecutive slices of
    one new array, made by one concatenation: device k's old data, then its
    segment. With s = 0 the devices are returned as they were.
    """
    if len(segments) != len(devices):
        raise ValueError("need exactly one segment per device")
    width = segments.shape[1]
    if width == 0:
        return list(devices)
    lengths = np.full(len(segments), width)
    histograms += _stacked_histograms(segments.ravel(), lengths, train.labels, train.num_classes)
    entropies[:] = normalized_entropies(histograms)
    flat = np.concatenate([part for pair in zip(devices, segments) for part in pair])
    ends = np.cumsum([len(data) + width for data in devices]).tolist()
    return [flat[a:b] for a, b in zip([0, *ends[:-1]], ends)]
