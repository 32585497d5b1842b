"""The per-round federation protocol and both aggregation rules.

A round runs: dispense queue segments, accumulate them into device data
(both index arrays into the run's train set), broadcast the global model,
train every device locally, collect entropy reports, aggregate, and
evaluate on the test set. Two aggregators are provided:

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
Each block writes its models into its rows of the state's model bank, and
both aggregators are one weighted sum over bank rows. Each device's result
is a pure function of (model, device data, derived seed), the same bits
whatever block it shares or worker runs it, so neither the block size nor
the worker count changes results.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .data import LabeledSet
from .errors import NumericalDivergence
from .nn import ModelSpec, TrainConfig, evaluate, local_train
from .params import Layout, ParamVector, param_count
from .partition import DeviceState, GlobalQueue, accumulate, dispense
from .seeds import derive_seed

AGGREGATORS = ("fedavg_count", "ddfl_entropy")

# float64s a training block may hold in stacked parameters plus one batch of
# its widest layer's activations, per device; a block of small models stays
# in cache, and a model larger than this trains alone.
_BLOCK_FLOATS = 2**15


@dataclass(frozen=True)
class EntropyReport:
    device_id: int
    entropy: float
    sample_count: int


@dataclass(frozen=True)
class AggregationPolicy:
    kind: str
    selection_fraction: float = 1.0


def select_devices(reports: list[EntropyReport], selection_fraction: float) -> list[int]:
    """Ids of the max(1, floor(fraction*K)) highest-entropy devices.

    Ties break toward the lower device id; the result is sorted ascending.
    """
    if not reports:
        raise ValueError("no entropy reports to select from")
    # tiny slack so fraction*K that is mathematically integral is not floored
    keep = max(1, math.floor(selection_fraction * len(reports) + 1e-9))
    ranked = sorted(reports, key=lambda r: (-r.entropy, r.device_id))
    return sorted(r.device_id for r in ranked[:keep])


def aggregate_fedavg(bank: np.ndarray, layout: Layout, weights) -> ParamVector:
    """Weighted mean of the rows of a (K, P) model bank; weights are normalized."""
    if not len(bank):
        raise ValueError("no models to aggregate")
    if bank.shape[1] != param_count(layout):
        raise ValueError(f"bank width {bank.shape[1]} != layout size {param_count(layout)}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(bank),):
        raise ValueError("need exactly one weight per model")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    p = w / total
    return ParamVector(p @ bank, layout)


def aggregate_ddfl(
    bank: np.ndarray,
    layout: Layout,
    reports: list[EntropyReport],
    selection_fraction: float,
) -> tuple[ParamVector, list[int], bool]:
    """Entropy-ranked selection followed by entropy-weighted averaging.

    Row i of the (K, P) `bank` is the model of `reports[i]`. Returns the
    aggregated model, the sorted selected ids, and a flag that is True when
    all selected entropies were zero and a uniform mean was used instead.
    """
    if len(bank) != len(reports):
        raise ValueError("need exactly one model per report")
    selected = select_devices(reports, selection_fraction)
    position = {r.device_id: i for i, r in enumerate(reports)}
    picked = [position[device_id] for device_id in selected]
    entropies = np.array([reports[i].entropy for i in picked])
    fallback = bool(entropies.sum() <= 0.0)
    weights = np.ones(len(picked)) if fallback else entropies
    merged = aggregate_fedavg(bank[picked], layout, weights)
    return merged, selected, fallback


@dataclass
class RoundReport:
    """What one round observed; the merged model, the devices (in id order)
    and their trained models (the bank) are in the state that run_round
    returns with it."""

    round_index: int
    selected_ids: list[int]
    agg_time: float
    test_accuracy: float
    test_loss: float
    zero_entropy_fallback: bool = False
    dispensed_indices: list[np.ndarray] = field(default_factory=list)


@dataclass
class FederationState:
    """Between rounds. `bank` (K, P) holds the latest round's local models,
    row k for the k-th device in id order; it is allocated once, and each
    run_round overwrites it and hands it on to the state it returns."""

    devices: list[DeviceState]
    queue: GlobalQueue
    global_model: ParamVector
    round_index: int = 0
    bank: np.ndarray | None = None

    def __post_init__(self):
        if self.bank is None:
            self.bank = np.empty((len(self.devices), len(self.global_model)))


@dataclass(frozen=True)
class RoundConfig:
    model_spec: ModelSpec
    learning_rate: float
    local_epochs: int
    batch_size: int
    policy: AggregationPolicy
    segment_size: int
    seed: int
    train_set: LabeledSet  # what device data and the queue pool index into
    test_set: LabeledSet
    workers: int = 1


def _block_width(spec: ModelSpec, batch_size: int) -> int:
    """Devices per training block: as many as fit `_BLOCK_FLOATS`, at least one."""
    widest = max(spec.input_dim, *spec.hidden_dims, spec.num_classes)
    per_device = param_count(spec.layout()) + batch_size * widest
    return max(1, _BLOCK_FLOATS // per_device)


def _train_block(
    state: FederationState, cfg: RoundConfig, devices: list[DeviceState], rows: list[int]
) -> None:
    """Train `devices[r]` for each r in `rows` and write them to those bank rows."""
    block = [devices[r] for r in rows]
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        seeds=[derive_seed(cfg.seed, "train", state.round_index, d.device_id) for d in block],
    )
    try:
        state.bank[rows] = local_train(
            state.global_model,
            [d.data for d in block],
            train_cfg,
            cfg.train_set,
            cfg.model_spec.activation,
        )
    except NumericalDivergence as exc:
        device_id = block[exc.shard].device_id
        raise NumericalDivergence(
            f"round {state.round_index}: device {device_id} trained to non-finite parameters"
        ) from exc


def run_round(state: FederationState, cfg: RoundConfig) -> tuple[FederationState, RoundReport]:
    """Execute one communication round; the queue and bank change in place."""
    devices = sorted(state.devices, key=lambda d: d.device_id)
    segments, positions = dispense(state.queue, len(devices), cfg.segment_size)
    devices = accumulate(devices, segments, cfg.train_set)

    by_size = sorted(range(len(devices)), key=lambda r: -len(devices[r].data))
    width = _block_width(cfg.model_spec, cfg.batch_size)
    blocks = [by_size[i : i + width] for i in range(0, len(by_size), width)]
    train = partial(_train_block, state, cfg, devices)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(train, blocks))  # drains the results, re-raising a block's error
    else:
        for rows in blocks:
            train(rows)

    reports = [EntropyReport(d.device_id, d.entropy, len(d.data)) for d in devices]

    started = time.perf_counter()
    if cfg.policy.kind == "ddfl_entropy":
        merged, selected, fallback = aggregate_ddfl(
            state.bank, state.global_model.layout, reports, cfg.policy.selection_fraction
        )
    else:
        counts = [len(d.data) for d in devices]
        merged = aggregate_fedavg(state.bank, state.global_model.layout, counts)
        selected = [d.device_id for d in devices]
        fallback = False
    agg_time = time.perf_counter() - started

    test_stats = evaluate(merged, cfg.test_set, cfg.model_spec.activation)

    new_state = replace(
        state, devices=devices, global_model=merged, round_index=state.round_index + 1
    )
    report = RoundReport(
        round_index=state.round_index,
        selected_ids=selected,
        agg_time=agg_time,
        test_accuracy=test_stats.accuracy,
        test_loss=test_stats.mean_loss,
        zero_entropy_fallback=fallback,
        dispensed_indices=positions,
    )
    return new_state, report
