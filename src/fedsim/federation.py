"""The per-round federation protocol and both aggregation rules.

A round runs: dispense queue segments, accumulate them into device data,
broadcast the global model, train every device locally, collect entropy
reports, aggregate, and evaluate on the test set. Two aggregators are
provided:

* fedavg_count: weighted mean of all device models, weights proportional to
  device sample counts (the classic baseline).
* ddfl_entropy: keep the top fraction of devices ranked by data entropy, then
  average their models with weights proportional to entropy, renormalized
  over the kept subset. If every kept entropy is zero (typical for round one
  of a one-class partition) the round falls back to a uniform mean and is
  flagged.

Devices train in blocks: sorted largest shard first and cut into blocks
whose stacked parameters and batch activations fit a fixed float budget,
each block one `local_train` call, and `workers` threads share the blocks.
Each device's result is a pure function of (model, device data, derived
seed), the same bits whatever block it shares or worker runs it, so
neither the block size nor the worker count changes results.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import LabeledSet
from .errors import EmptyHistogram, NoReports, NumericalDivergence, ZeroTotalWeight
from .nn import ModelSpec, TrainConfig, evaluate, local_train
from .params import ParamVector, check_same_layout, param_count
from .partition import DeviceState, GlobalQueue, accumulate, dispense
from .seeds import derive_seed

AGGREGATORS = ("fedavg_count", "ddfl_entropy")

# float64s a training block may hold in stacked parameters plus one batch of
# its widest layer's activations, per device; a block of small models stays
# in cache, and a model larger than this trains alone.
_BLOCK_FLOATS = 2**15


def normalized_entropy(counts) -> float:
    """Shannon entropy of a class-count histogram, scaled to [0, 1].

    The raw base-2 entropy is divided by log2(C), so a uniform histogram
    scores exactly 1 and a single-class histogram exactly 0.
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        raise EmptyHistogram("histogram has no classes")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise EmptyHistogram("histogram has no samples")
    nonzero = counts[counts > 0].astype(np.float64)
    if nonzero.size == 1 or counts.size == 1:
        return 0.0
    if np.all(counts == counts.flat[0]):
        return 1.0
    # canonical summation order makes the value permutation-invariant bitwise
    p = np.sort(nonzero) / float(total)
    raw = float(-(p * np.log2(p)).sum())
    return min(1.0, max(0.0, raw / math.log2(counts.size)))


@dataclass(frozen=True)
class EntropyReport:
    device_id: int
    entropy: float
    sample_count: int

    def __post_init__(self):
        if not (math.isfinite(self.entropy) and 0.0 <= self.entropy <= 1.0):
            raise ValueError("entropy must be finite and in [0, 1]")
        if self.sample_count < 0:
            raise ValueError("sample_count must be nonnegative")


@dataclass(frozen=True)
class AggregationPolicy:
    kind: str
    selection_fraction: float = 1.0

    def __post_init__(self):
        if self.kind not in AGGREGATORS:
            raise ValueError(f"kind must be one of {AGGREGATORS}")
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ValueError("selection_fraction must lie in (0, 1]")


def select_devices(reports: list[EntropyReport], selection_fraction: float) -> list[int]:
    """Ids of the max(1, floor(fraction*K)) highest-entropy devices.

    Ties break toward the lower device id; the result is sorted ascending.
    """
    if not reports:
        raise NoReports("no entropy reports to select from")
    if not 0.0 < selection_fraction <= 1.0:
        raise ValueError("selection_fraction must lie in (0, 1]")
    # tiny slack so fraction*K that is mathematically integral is not floored
    keep = max(1, math.floor(selection_fraction * len(reports) + 1e-9))
    ranked = sorted(reports, key=lambda r: (-r.entropy, r.device_id))
    return sorted(r.device_id for r in ranked[:keep])


def aggregate_fedavg(models: list[ParamVector], weights) -> ParamVector:
    """Elementwise weighted mean of models; weights are normalized to sum 1."""
    if not models:
        raise NoReports("no models to aggregate")
    for m in models[1:]:
        check_same_layout(models[0], m)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(models),):
        raise ValueError("need exactly one weight per model")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ZeroTotalWeight("weights sum to zero")
    p = w / total
    stacked = np.stack([m.values for m in models])
    return ParamVector(p @ stacked, models[0].layout)


def aggregate_ddfl(
    models: list[ParamVector],
    reports: list[EntropyReport],
    selection_fraction: float,
) -> tuple[ParamVector, list[int], bool]:
    """Entropy-ranked selection followed by entropy-weighted averaging.

    `models[i]` must belong to `reports[i]`. Returns the aggregated model,
    the sorted selected ids, and a flag that is True when all selected
    entropies were zero and a uniform mean was used instead.
    """
    if not reports:
        raise NoReports("no entropy reports")
    if len(models) != len(reports):
        raise ValueError("need exactly one model per report")
    selected = select_devices(reports, selection_fraction)
    position = {r.device_id: i for i, r in enumerate(reports)}
    picked = [position[device_id] for device_id in selected]
    entropies = np.array([reports[i].entropy for i in picked])
    fallback = bool(entropies.sum() <= 0.0)
    weights = np.ones(len(picked)) if fallback else entropies
    merged = aggregate_fedavg([models[i] for i in picked], weights)
    return merged, selected, fallback


@dataclass
class RoundReport:
    """What one round observed; the merged model and the trained devices
    (in id order) are in the state that run_round returns with it."""

    round_index: int
    selected_ids: list[int]
    agg_time: float
    test_accuracy: float
    test_loss: float
    zero_entropy_fallback: bool = False
    dispensed_indices: list[np.ndarray] = field(default_factory=list)


@dataclass
class FederationState:
    devices: list[DeviceState]
    queue: GlobalQueue
    global_model: ParamVector
    round_index: int = 0


@dataclass(frozen=True)
class RoundConfig:
    model_spec: ModelSpec
    learning_rate: float
    local_epochs: int
    batch_size: int
    policy: AggregationPolicy
    segment_size: int
    seed: int
    test_set: LabeledSet
    workers: int = 1


def _block_width(spec: ModelSpec, batch_size: int) -> int:
    """Devices per training block: as many as fit `_BLOCK_FLOATS`, at least one."""
    widest = max(spec.input_dim, *spec.hidden_dims, spec.num_classes)
    per_device = param_count(spec.layout()) + batch_size * widest
    return max(1, _BLOCK_FLOATS // per_device)


def _train_block(
    state: FederationState, cfg: RoundConfig, block: list[DeviceState]
) -> list[ParamVector]:
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        seeds=[derive_seed(cfg.seed, "train", state.round_index, d.device_id) for d in block],
    )
    try:
        return local_train(
            state.global_model, [d.data for d in block], train_cfg, cfg.model_spec.activation
        )
    except NumericalDivergence as exc:
        device_id = block[exc.shard].device_id
        raise NumericalDivergence(
            f"round {state.round_index}: device {device_id} trained to non-finite parameters"
        ) from exc


def run_round(state: FederationState, cfg: RoundConfig) -> tuple[FederationState, RoundReport]:
    """Execute one communication round; the queue is advanced in place."""
    devices = sorted(state.devices, key=lambda d: d.device_id)
    segments, seg_indices = dispense(state.queue, len(devices), cfg.segment_size)
    devices = [accumulate(d, seg) for d, seg in zip(devices, segments)]

    by_size = sorted(devices, key=lambda d: -len(d.data))
    width = _block_width(cfg.model_spec, cfg.batch_size)
    blocks = [by_size[i : i + width] for i in range(0, len(by_size), width)]
    train = partial(_train_block, state, cfg)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            trained = list(pool.map(train, blocks))
    else:
        trained = list(map(train, blocks))
    by_id = {
        d.device_id: model for block, models in zip(blocks, trained)
        for d, model in zip(block, models)
    }
    local_models = [by_id[d.device_id] for d in devices]

    reports = [
        EntropyReport(d.device_id, d.entropy, len(d.data)) for d in devices
    ]

    started = time.perf_counter()
    if cfg.policy.kind == "ddfl_entropy":
        merged, selected, fallback = aggregate_ddfl(
            local_models, reports, cfg.policy.selection_fraction
        )
    else:
        counts = [len(d.data) for d in devices]
        merged = aggregate_fedavg(local_models, counts)
        selected = [d.device_id for d in devices]
        fallback = False
    agg_time = time.perf_counter() - started

    test_stats = evaluate(merged, cfg.test_set, cfg.model_spec.activation)

    new_devices = [
        replace(device, model=model) for device, model in zip(devices, local_models)
    ]
    new_state = FederationState(
        devices=new_devices,
        queue=state.queue,
        global_model=merged,
        round_index=state.round_index + 1,
    )
    report = RoundReport(
        round_index=state.round_index,
        selected_ids=selected,
        agg_time=agg_time,
        test_accuracy=test_stats.accuracy,
        test_loss=test_stats.mean_loss,
        zero_entropy_fallback=fallback,
        dispensed_indices=seg_indices,
    )
    return new_state, report
