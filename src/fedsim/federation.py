"""The per-round federation protocol and both aggregation rules.

A round runs: dispense queue segments, accumulate them into device data
(both index arrays into the run's train set) and class counts, broadcast the
global model, train every device locally, aggregate, evaluate on the test
set, and measure each local model's divergence from the merged one. Row k
of the state's histograms, entropies and model bank is device k, so both
aggregators read the rows as they stand. `run_round` returns the new state
and the round's one record, a RoundReport: the `metrics.csv` row, the
aggregation time and the per-layer divergence means; the harness only
writes it out. The round's numeric-health checks live here too: a
non-finite trained model, then a non-finite weight divergence, raises
NumericalDivergence naming the round and the lowest such device. Two
aggregators are provided:

* fedavg_count: weighted mean of all device models, weights proportional to
  device sample counts (the classic baseline).
* ddfl_entropy: keep the top fraction of devices ranked by data entropy, then
  average their models with weights proportional to entropy, renormalized
  over the kept subset. If every kept entropy is zero (typical for round one
  of a one-class partition) the round falls back to a uniform mean and is
  flagged.

Devices train in runs: consecutive device ids that hold shards of one
size. An iid partition makes at most 2 runs and one_class at most 2 per
class, and dispensing grows every shard alike. Each run is one `local_train`
call, which trains in cache-sized sub-blocks straight into the run's rows
of the state's model bank. With `workers` > 1 the runs are cut into
sub-block-sized tasks, largest shards first, which the threads share.
Both aggregators are one weighted sum over bank rows. Each device's result
is a pure function of (model, device data, derived seed), the same bits
whatever call or sub-block it shares or worker runs it, so neither the
float budget nor the worker count changes results.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .analysis import bank_divergence
from .data import LabeledSet
from .errors import NumericalDivergence
from .nn import ModelSpec, TrainConfig, _block_width, evaluate, local_train
from .params import Layout, ParamVector, param_count
from .partition import DeviceState, GlobalQueue, accumulate, dispense, normalized_entropies
from .seeds import derive_seeds

AGGREGATORS = ("fedavg_count", "ddfl_entropy")


def select_devices(entropies, selection_fraction: float) -> list[int]:
    """Rows of the max(1, floor(fraction*K)) highest of K device entropies.

    Ties break toward the lower row; the result is sorted ascending.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    if not len(entropies):
        raise ValueError("no entropies to select from")
    # tiny slack so fraction*K that is mathematically integral is not floored
    keep = max(1, math.floor(selection_fraction * len(entropies) + 1e-9))
    return sorted(np.argsort(-entropies, kind="stable")[:keep].tolist())


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
    entropies,
    selection_fraction: float,
) -> tuple[ParamVector, list[int], bool]:
    """Entropy-ranked selection followed by entropy-weighted averaging.

    `entropies[k]` belongs to the model in row k of the (K, P) `bank`.
    Returns the aggregated model, the selected rows in ascending order, and
    a flag that is True when all selected entropies were zero and a uniform
    mean was used instead.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    if len(bank) != len(entropies):
        raise ValueError("need exactly one entropy per model")
    selected = select_devices(entropies, selection_fraction)
    weights = entropies[selected]
    fallback = bool(weights.sum() <= 0.0)
    if fallback:
        weights = np.ones(len(selected))
    merged = aggregate_fedavg(bank[selected], layout, weights)
    return merged, selected, fallback


@dataclass
class RoundReport:
    """What one round observed: the `metrics.csv` row, named as its columns,
    then the aggregation wall time in seconds, the (L,) per-layer means of
    the weight divergence and the zero-entropy fallback flag. The merged
    model, the devices, their class counts, entropies and trained models,
    and the dispensed pool positions are in the state that run_round
    returns with it."""

    round_index: int
    test_accuracy: float
    mean_loss: float
    mean_entropy: float
    min_entropy: float
    max_entropy: float
    mean_weight_divergence: float
    mean_bias_norm: float
    selected_ids: list[int]
    agg_time: float
    layer_divergence: np.ndarray
    zero_entropy_fallback: bool = False


@dataclass
class FederationState:
    """Between rounds. Row k of `histograms` (K, C) int64, `entropies` (K,)
    and `bank` (K, P) belongs to `devices[k]`, whose id is k: its class
    counts, its data entropy and its latest local model. The entropies
    default to those of the histograms, and the bank is allocated once; each
    run_round updates all three in place, replaces `devices` with the grown
    list, and hands them on to the state it returns. `dispensed` holds the
    latest round's (K, s) pool positions, row k those dispensed to device k."""

    devices: list[DeviceState]
    queue: GlobalQueue
    global_model: ParamVector
    histograms: np.ndarray
    round_index: int = 0
    entropies: np.ndarray | None = None
    bank: np.ndarray | None = None
    dispensed: np.ndarray | None = None

    def __post_init__(self):
        if self.entropies is None:
            self.entropies = normalized_entropies(self.histograms)
        if self.bank is None:
            self.bank = np.empty((len(self.devices), len(self.global_model)))


@dataclass(frozen=True)
class RoundConfig:
    model_spec: ModelSpec
    learning_rate: float
    local_epochs: int
    batch_size: int
    aggregator: str
    selection_fraction: float
    segment_size: int
    seed: int
    train_set: LabeledSet  # what device data and the queue pool index into
    test_set: LabeledSet
    workers: int = 1


def _train_run(
    state: FederationState, cfg: RoundConfig, seeds: list[int], run: tuple[int, int]
) -> None:
    """Train devices a to b - 1, which hold shards of one size, where
    `run` = (a, b), from seeds[a:b] and in place in bank rows a:b."""
    a, b = run
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        seeds=seeds[a:b],
    )
    # `out` goes positionally: wrappers of local_train may take no keywords
    local_train(
        state.global_model,
        [device.data for device in state.devices[a:b]],
        train_cfg,
        cfg.train_set,
        cfg.model_spec.activation,
        state.bank[a:b],
    )


def _require_finite(finite: np.ndarray, round_index: int, what: str) -> None:
    """Raise NumericalDivergence naming the lowest device whose flag is False."""
    if not finite.all():
        raise NumericalDivergence(f"round {round_index}: device {int(np.argmin(finite))} {what}")


def run_round(state: FederationState, cfg: RoundConfig) -> tuple[FederationState, RoundReport]:
    """Execute one communication round; the queue, devices, histograms,
    entropies and bank change in place."""
    segments, positions = dispense(state.queue, len(state.devices), cfg.segment_size)
    # the old device list goes at once, before training: held to the end of
    # the round, it raised a many_devices process's peak RSS by 6 MB
    state.devices = accumulate(
        state.devices, state.histograms, state.entropies, segments, cfg.train_set
    )

    # runs of consecutive ids that share a shard size
    counts = state.histograms.sum(axis=1)
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    runs = list(zip(edges[:-1], edges[1:]))
    # device k's seed is derive_seed(cfg.seed, "train", round, k)
    seeds = derive_seeds(cfg.seed, "train", state.round_index, count=len(state.devices))
    train = partial(_train_run, state, cfg, seeds)
    if cfg.workers > 1:
        # sub-block-sized tasks, largest shards first, so the threads balance
        width = _block_width(cfg.model_spec.layout(), cfg.batch_size)
        runs.sort(key=lambda run: -counts[run[0]])  # stable: ids ascend within a size
        tasks = [(a, min(a + width, b)) for start, b in runs for a in range(start, b, width)]
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(train, tasks))  # drains the results, re-raising a task's error
    else:
        for run in runs:
            train(run)
    # a NaN or inf never turns finite under later SGD steps, so one check of
    # the trained rows catches every blow-up
    finite = np.isfinite(state.bank).all(axis=1)
    _require_finite(finite, state.round_index, "trained to non-finite parameters")

    started = time.perf_counter()
    if cfg.aggregator == "ddfl_entropy":
        merged, selected, fallback = aggregate_ddfl(
            state.bank, state.global_model.layout, state.entropies, cfg.selection_fraction
        )
    else:
        merged = aggregate_fedavg(state.bank, state.global_model.layout, counts)
        selected = list(range(len(state.devices)))
        fallback = False
    agg_time = time.perf_counter() - started

    test_stats = evaluate(merged, cfg.test_set, cfg.model_spec.activation)
    # finite models can still lie too far apart for a finite distance
    totals, per_layer = bank_divergence(merged, state.bank)
    _require_finite(np.isfinite(totals), state.round_index, "weight divergence is not finite")

    new_state = replace(
        state, global_model=merged, round_index=state.round_index + 1, dispensed=positions
    )
    report = RoundReport(
        round_index=state.round_index,
        test_accuracy=test_stats.accuracy,
        mean_loss=test_stats.mean_loss,
        mean_entropy=float(state.entropies.mean()),
        min_entropy=float(state.entropies.min()),
        max_entropy=float(state.entropies.max()),
        mean_weight_divergence=float(np.mean(totals)),
        # ‖local − global‖ is ‖global − local‖, bit for bit
        mean_bias_norm=float(np.mean(totals)),
        selected_ids=selected,
        agg_time=agg_time,
        layer_divergence=np.mean(per_layer, axis=0),
        zero_entropy_fallback=fallback,
    )
    return new_state, report
