"""The per-round federation protocol and both aggregation rules.

A round runs: dispense queue segments, accumulate them into device data
(both plain index arrays into the run's train set) and class counts,
broadcast the global model, train every device locally, aggregate, evaluate
on the test set, and measure each local model's divergence from the merged
one. Row k of the state's histograms, entropies and model bank is device k,
so both aggregators read the rows as they stand. `run_round` advances the
one FederationState it is given in place and returns it with the round's
one record, a RoundReport: the `metrics.csv` row, the aggregation time and
the per-layer divergence means; the harness only writes it out. A round
reads its settings from a RoundConfig, which is the run's checked
`config.ExperimentConfig` plus its train and test sets. The round's
numeric-health checks live here too: a non-finite trained model, then a
non-finite weight divergence, raises NumericalDivergence naming the round
and the lowest such device. Two aggregators are provided:

* fedavg_count: weighted mean of all device models, weights proportional to
  device sample counts (the classic baseline).
* ddfl_entropy: keep the top fraction of devices ranked by data entropy, then
  average their models with weights proportional to entropy, renormalized
  over the kept subset. If every kept entropy is zero (typical for round one
  of a one-class partition) the round falls back to a uniform mean and is
  flagged.

Each round splits the devices into at most `workers` ranges of consecutive
ids holding about equal sample counts and makes one `local_train` call per
range, straight into the range's rows of the state's model bank: the first
range on the calling thread, the rest on a thread pool. `local_train` cuts
each call into cache-sized sub-blocks of one shard size itself. Each
device's result is a pure function of (model, device data, derived seed),
the same bits whatever call or sub-block it shares or worker runs it, so
neither the float budget nor the worker count changes results.

Both aggregators are one merge of bank rows, made `_MERGE_COLUMNS` columns at
a time: DDFL passes the rows it keeps, and no row is copied, so the merge's
one temporary is a (rows, `_MERGE_COLUMNS`) block. The bank is mapped once
per run, in pages of its own.
"""

from __future__ import annotations

import math
import mmap
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import bank_divergence
from .config import ExperimentConfig
from .data import LabeledSet
from .errors import NumericalDivergence
from .nn import TrainConfig, evaluate, local_train
from .params import Layout, ParamVector, param_count
from .partition import GlobalQueue, accumulate, dispense, normalized_entropies
from .seeds import derive_seeds


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


_MERGE_COLUMNS = 128  # bank columns per merge step: a (rows, 128) block, 1 MB at 1,000 rows


def aggregate_fedavg(bank: np.ndarray, layout: Layout, weights, rows=None) -> ParamVector:
    """Weighted mean of the rows of a (K, P) model bank, or of the rows
    listed in `rows` only: one weight per averaged row, normalized here.

    The merge copies no row. It runs `_MERGE_COLUMNS` columns at a time,
    each step one product of the weights with a block of the averaged rows.
    Under one BLAS thread each entry is the same sum, in the same order, as
    in one product over all columns, so the bits are that product's.
    """
    count = len(bank) if rows is None else len(rows)
    if not count:
        raise ValueError("no models to aggregate")
    width = bank.shape[1]
    if width != param_count(layout):
        raise ValueError(f"bank width {width} != layout size {param_count(layout)}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (count,):
        raise ValueError("need exactly one weight per model")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero")
    p = w / total
    index = slice(None) if rows is None else rows
    # OpenBLAS sums a block 1 to 3 columns wide in another order than a wider
    # one, so a remainder that narrow joins the block before it
    starts = range(0, max(width - 3, 1), _MERGE_COLUMNS)
    out = np.empty(width)
    for lo, hi in zip(starts, [*starts[1:], width]):
        out[lo:hi] = p @ bank[index, lo:hi]
    return ParamVector(out, layout)


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
    merged = aggregate_fedavg(bank, layout, weights, selected)
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
    """The one round state, which run_round updates in place. Row k of
    `histograms` (K, C) int64, `entropies` (K,) and `bank` (K, P) belongs to
    `devices[k]`, whose id is k: its class counts, its data entropy and its
    latest local model. Only the four inputs are constructor arguments: the
    round index starts at 0, the entropies are those of the histograms, and
    the bank is allocated once, in pages of its own. `dispensed` holds the
    latest round's (K, s) pool positions, row k those dispensed to device
    k."""

    # each device stays a 1-D index array (a slice of one array per round),
    # so len(d.data), its buffer's length, is the device's sample count
    # (bench/run.py counts samples so)
    devices: list[np.ndarray]
    queue: GlobalQueue
    global_model: ParamVector
    histograms: np.ndarray
    round_index: int = field(init=False, default=0)
    entropies: np.ndarray = field(init=False)
    bank: np.ndarray = field(init=False)
    dispensed: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.entropies = normalized_entropies(self.histograms)
        # the bank maps pages of its own, which go back to the system when the
        # state goes: from the heap, a dropped bank left a hole that the next
        # run's set-up arrays could split, and the next bank then landed above
        # the hole's still-resident pages (many_devices peak RSS +5 MB)
        shape = (len(self.devices), len(self.global_model))
        pages = mmap.mmap(-1, 8 * math.prod(shape))
        self.bank = np.frombuffer(pages, dtype=np.float64).reshape(shape)


@dataclass(frozen=True, kw_only=True)
class RoundConfig(ExperimentConfig):
    """A run's checked config plus the data its rounds read: `train_set`,
    which device data and the queue pool index into, and `test_set`. Its
    `segment_size` is already resolved (`harness.derived_segment_size`), so
    it is an integer, not None."""

    train_set: LabeledSet
    test_set: LabeledSet


def _train_range(
    state: FederationState, cfg: RoundConfig, seeds: list[int], ids: tuple[int, int]
) -> None:
    """Train devices a to b - 1, where `ids` = (a, b), from seeds[a:b] and in
    place in bank rows a:b."""
    a, b = ids
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        seeds=seeds[a:b],
    )
    # `out` goes positionally: wrappers of local_train may take no keywords
    local_train(
        state.global_model,
        state.devices[a:b],
        train_cfg,
        cfg.train_set,
        cfg.activation,
        state.bank[a:b],
    )


def _require_finite(finite: np.ndarray, round_index: int, what: str) -> None:
    """Raise NumericalDivergence naming the lowest device whose flag is False."""
    if not finite.all():
        raise NumericalDivergence(f"round {round_index}: device {int(np.argmin(finite))} {what}")


def run_round(state: FederationState, cfg: RoundConfig) -> tuple[FederationState, RoundReport]:
    """Execute one communication round on `state`, which it updates in place
    and returns with the round's report."""
    segments, state.dispensed = dispense(state.queue, len(state.devices), cfg.segment_size)
    # the old device list goes at once, before training: held to the end of
    # the round, it raised a many_devices process's peak RSS by 6 MB
    state.devices = accumulate(
        state.devices, state.histograms, state.entropies, segments, cfg.train_set
    )

    # at most `workers` ranges of consecutive ids with about equal sample counts
    counts = state.histograms.sum(axis=1)
    targets = counts.sum() * np.arange(1, cfg.workers) / cfg.workers
    cuts = np.searchsorted(np.cumsum(counts), targets, side="right")
    edges = np.unique([0, *cuts.tolist(), len(counts)]).tolist()
    first, *rest = zip(edges[:-1], edges[1:])
    # device k's seed is derive_seed(cfg.seed, "train", round, k)
    seeds = derive_seeds(cfg.seed, "train", state.round_index, count=len(state.devices))
    train = partial(_train_range, state, cfg, seeds)
    # threads start on submit only, so one range starts none
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        futures = [pool.submit(train, ids) for ids in rest]
        train(first)
        for future in futures:
            future.result()  # re-raises a range's error
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

    test_stats = evaluate(merged, cfg.test_set, cfg.activation)
    # finite models can still lie too far apart for a finite distance
    totals, per_layer = bank_divergence(merged, state.bank)
    _require_finite(np.isfinite(totals), state.round_index, "weight divergence is not finite")

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
    state.global_model = merged
    state.round_index += 1
    return state, report
