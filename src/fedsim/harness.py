"""Experiment runner: configuration, the round loop, metric files, sweeps.

Configuration is a single JSON object (see ExperimentConfig for keys and
defaults; the JSON key for `lam` is "selection_fraction"). CLI flags override
file values. Every run writes into its output directory:

    config_resolved.json   fully resolved config, including derived defaults
    metrics.csv            one row per round (flushed as rounds complete)
    timings.csv            per-round aggregation wall-clock, kept separate
                           because timings are hardware-dependent while
                           metrics.csv must be bit-reproducible
    device_entropy.csv     (round, device, entropy) triples
    divergence_layers.csv  (round, layer, mean_divergence) rows
    summary.txt            key = value lines with final/best accuracy etc.
    dispense_trace.jsonl   optional audit log of dispensed samples (their
                           positions in the queue pool)

The divergence columns come from the round's (K, P) bank of local models in
a few array operations. Seed discipline: the master seed is split into
labelled streams ("data", "queue", "partition", "init", and ("train",
round, device)), so results do not depend on execution order or workers.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# bias_term and weight_divergence have no caller here; bench/spans.py traces them
from .analysis import bank_divergence, bias_term, weight_divergence  # noqa: F401
from .data import DatasetMeta, LabeledSet, load_cifar, load_mnist, make_synthetic
from .errors import ConfigInvalid, NumericalDivergence
from .federation import (
    AGGREGATORS,
    AggregationPolicy,
    FederationState,
    RoundConfig,
    run_round,
)
from .nn import ACTIVATIONS, ModelSpec, init_model
from .params import ParamVector
from .partition import PARTITION_MODES, PartitionPlan, partition, split_global_queue
from .seeds import derive_seed

DATASETS = ("synthetic", "mnist", "cifar10", "cifar100")

_AGGREGATOR_ALIASES = {"ddfl": "ddfl_entropy", "fedavg": "fedavg_count"}

# string fields and the values each may take
_CHOICES = {
    "aggregator": AGGREGATORS + tuple(_AGGREGATOR_ALIASES),
    "dataset": DATASETS,
    "partition_mode": PARTITION_MODES,
    "activation": ACTIVATIONS,
}

_SYNTHETIC_DEFAULTS = {"num_classes": 10, "per_class": 125, "input_dim": 16, "spread": 0.3}


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic"
    dataset_params: dict = field(default_factory=dict)
    data_dir: str | None = None
    devices: int = 10
    rounds: int = 50
    local_epochs: int = 1
    batch_size: int = 20
    learning_rate: float = 0.1
    queue_fraction: float = 0.1
    selection_fraction: float = 0.9
    partition_mode: str = "one_class"
    aggregator: str = "ddfl_entropy"
    segment_size: int | None = None
    hidden_dims: tuple[int, ...] = (32,)
    activation: str = "relu"
    seed: int = 0
    workers: int = 1
    output_dir: str | None = None
    trace_dispense: bool = False


@dataclass
class MetricsRow:
    """Per-round record; field order matches the metrics below."""

    round_index: int
    test_accuracy: float
    mean_loss: float
    mean_entropy: float
    min_entropy: float
    max_entropy: float
    mean_weight_divergence: float
    mean_bias_norm: float
    agg_time_ms: float
    selected_ids: list[int]


# agg_time_ms is written to timings.csv; everything else is deterministic.
_METRIC_COLUMNS = (
    "round_index,test_accuracy,mean_loss,mean_entropy,min_entropy,max_entropy,"
    "mean_weight_divergence,mean_bias_norm,selected_ids"
)


@dataclass
class ExperimentResult:
    rows: list[MetricsRow]
    final_model: ParamVector
    summary: dict
    output_dir: Path | None


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; unknown keys are rejected."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config file must contain one JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(sorted(unknown))}")
    return validate_config(ExperimentConfig(**raw))


# integer fields and the least value each may take
_INT_KEYS = {
    "devices": 1, "rounds": 1, "local_epochs": 1, "batch_size": 1, "seed": 0, "workers": 1
}
_FLOAT_KEYS = ("learning_rate", "queue_fraction", "selection_fraction")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _check_synthetic_params(params) -> None:
    if not isinstance(params, dict):
        raise ConfigInvalid("dataset_params must be a JSON object")
    unknown = set(params) - set(_SYNTHETIC_DEFAULTS)
    if unknown:
        raise ConfigInvalid(f"unknown synthetic params: {', '.join(sorted(unknown))}")
    for key, value in params.items():
        if key == "spread" and not (_is_finite_number(value) and value >= 0):
            raise ConfigInvalid("dataset_params.spread must be a nonnegative finite number")
        if key != "spread" and not (_is_int(value) and value >= 2):
            raise ConfigInvalid(f"dataset_params.{key} must be an integer of at least 2")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Normalize aliases and check every field; raises ConfigInvalid naming
    the key. This is the one place config values are checked: the code they
    reach trusts them."""
    for key, low in _INT_KEYS.items():
        value = getattr(cfg, key)
        if not _is_int(value) or value < low:
            raise ConfigInvalid(f"{key} must be an integer of at least {low}")
    for key in _FLOAT_KEYS:
        if not _is_finite_number(getattr(cfg, key)):
            raise ConfigInvalid(f"{key} must be a finite number")
    if cfg.learning_rate < 0:
        raise ConfigInvalid("learning_rate must be nonnegative")
    if not 0.0 <= cfg.queue_fraction < 1.0:
        raise ConfigInvalid("queue_fraction must lie in [0, 1)")
    if not 0.0 < cfg.selection_fraction <= 1.0:
        raise ConfigInvalid("selection_fraction must lie in (0, 1]")
    if cfg.segment_size is not None and not (_is_int(cfg.segment_size) and cfg.segment_size >= 0):
        raise ConfigInvalid("segment_size must be a nonnegative integer or null")
    if not isinstance(cfg.hidden_dims, (list, tuple)) or not all(
        _is_int(h) and h >= 1 for h in cfg.hidden_dims
    ):
        raise ConfigInvalid("hidden_dims must be a list of positive integers")
    cfg.hidden_dims = tuple(cfg.hidden_dims)
    for key, choices in _CHOICES.items():
        value = getattr(cfg, key)
        if not isinstance(value, str) or value not in choices:
            raise ConfigInvalid(f"{key} must be one of {choices}")
    cfg.aggregator = _AGGREGATOR_ALIASES.get(cfg.aggregator, cfg.aggregator)
    for key in ("data_dir", "output_dir"):
        value = getattr(cfg, key)
        if value is not None and not isinstance(value, str):
            raise ConfigInvalid(f"{key} must be a string or null")
    if not isinstance(cfg.trace_dispense, bool):
        raise ConfigInvalid("trace_dispense must be true or false")
    if cfg.dataset == "synthetic":
        _check_synthetic_params(cfg.dataset_params)
    elif cfg.dataset_params:
        raise ConfigInvalid(f"dataset_params apply to synthetic data only, not {cfg.dataset}")
    elif cfg.data_dir is None:
        raise ConfigInvalid(f"dataset {cfg.dataset!r} needs data_dir")
    return cfg


def _load_dataset(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet, DatasetMeta]:
    if cfg.dataset == "synthetic":
        params = {**_SYNTHETIC_DEFAULTS, **cfg.dataset_params}
        return make_synthetic(**params, seed=derive_seed(cfg.seed, "data"))
    if cfg.dataset == "mnist":
        return load_mnist(cfg.data_dir)
    return load_cifar(cfg.data_dir, cfg.dataset)


def derived_segment_size(cfg: ExperimentConfig, pool_size: int) -> int:
    """Segment size actually used for a run.

    An explicit config value wins. Otherwise the count-weighted baseline
    dispenses nothing (it is the static-partition reference point), while the
    entropy aggregator spreads the pool over the whole run, at least one
    sample per device per round while any pool exists.
    """
    if cfg.segment_size is not None:
        return cfg.segment_size
    if cfg.aggregator == "fedavg_count" or pool_size == 0:
        return 0
    return max(1, pool_size // (cfg.devices * cfg.rounds))


def _format_float(value: float) -> str:
    return repr(float(value))


def _metrics_line(row: MetricsRow) -> str:
    ids = ";".join(str(i) for i in row.selected_ids)
    return ",".join(
        [
            str(row.round_index),
            _format_float(row.test_accuracy),
            _format_float(row.mean_loss),
            _format_float(row.mean_entropy),
            _format_float(row.min_entropy),
            _format_float(row.max_entropy),
            _format_float(row.mean_weight_divergence),
            _format_float(row.mean_bias_norm),
            ids,
        ]
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full round loop; writes metric files when output_dir is set."""
    cfg = validate_config(dataclasses.replace(cfg))
    train, test, meta = _load_dataset(cfg)

    spec = ModelSpec(
        input_dim=meta.input_dim,
        hidden_dims=cfg.hidden_dims,
        num_classes=meta.num_classes,
        activation=cfg.activation,
    )
    queue, residual = split_global_queue(
        train, cfg.queue_fraction, derive_seed(cfg.seed, "queue")
    )
    plan = PartitionPlan(
        mode=cfg.partition_mode,
        num_devices=cfg.devices,
        seed=derive_seed(cfg.seed, "partition"),
    )
    devices = partition(train, residual, plan)
    global_model = init_model(spec, derive_seed(cfg.seed, "init"))
    segment_size = derived_segment_size(cfg, len(queue.pool))

    policy = AggregationPolicy(cfg.aggregator, cfg.selection_fraction)
    round_cfg = RoundConfig(
        model_spec=spec,
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        policy=policy,
        segment_size=segment_size,
        seed=cfg.seed,
        train_set=train,
        test_set=test,
        workers=cfg.workers,
    )

    out_dir: Path | None = None
    files = {}
    if cfg.output_dir is not None:
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        resolved = dataclasses.asdict(cfg)
        resolved["segment_size"] = segment_size
        resolved["input_dim"] = meta.input_dim
        resolved["num_classes"] = meta.num_classes
        (out_dir / "config_resolved.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        files["metrics"] = (out_dir / "metrics.csv").open("w", encoding="ascii")
        files["metrics"].write(_METRIC_COLUMNS + "\n")
        files["timings"] = (out_dir / "timings.csv").open("w", encoding="ascii")
        files["timings"].write("round_index,agg_time_ms\n")
        files["entropy"] = (out_dir / "device_entropy.csv").open("w", encoding="ascii")
        files["entropy"].write("round_index,device_id,entropy\n")
        files["layers"] = (out_dir / "divergence_layers.csv").open("w", encoding="ascii")
        files["layers"].write("round_index,layer,mean_divergence\n")
        if cfg.trace_dispense:
            files["trace"] = (out_dir / "dispense_trace.jsonl").open("w", encoding="ascii")

    state = FederationState(devices, queue, global_model)
    rows: list[MetricsRow] = []
    fallback_rounds = 0
    try:
        for _ in range(cfg.rounds):
            state, report = run_round(state, round_cfg)
            fallback_rounds += int(report.zero_entropy_fallback)

            # run_round returns the devices in id order, as the bank rows are
            entropies = np.array([d.entropy for d in state.devices])
            totals, per_layer = bank_divergence(state.global_model, state.bank)
            if not np.all(np.isfinite(totals)):
                device_id = state.devices[int(np.argmin(np.isfinite(totals)))].device_id
                raise NumericalDivergence(
                    f"round {report.round_index}: device {device_id} weight divergence "
                    "is not finite"
                )
            row = MetricsRow(
                round_index=report.round_index,
                test_accuracy=report.test_accuracy,
                mean_loss=report.test_loss,
                mean_entropy=float(entropies.mean()),
                min_entropy=float(entropies.min()),
                max_entropy=float(entropies.max()),
                mean_weight_divergence=float(np.mean(totals)),
                # ‖local − global‖ is ‖global − local‖, bit for bit
                mean_bias_norm=float(np.mean(totals)),
                agg_time_ms=report.agg_time * 1000.0,
                selected_ids=list(report.selected_ids),
            )
            rows.append(row)

            if files:
                files["metrics"].write(_metrics_line(row) + "\n")
                files["timings"].write(
                    f"{row.round_index},{_format_float(row.agg_time_ms)}\n"
                )
                for d in state.devices:
                    files["entropy"].write(
                        f"{row.round_index},{d.device_id},{_format_float(d.entropy)}\n"
                    )
                layer_means = np.mean(per_layer, axis=0)
                for layer, value in enumerate(layer_means):
                    files["layers"].write(
                        f"{row.round_index},{layer},{_format_float(value)}\n"
                    )
                if "trace" in files:
                    for device_id, idx in enumerate(report.dispensed_indices):
                        files["trace"].write(
                            json.dumps(
                                {
                                    "round": row.round_index,
                                    "device": device_id,
                                    "sample_indices": [int(i) for i in idx],
                                }
                            )
                            + "\n"
                        )
                for fh in files.values():
                    fh.flush()
    finally:
        for fh in files.values():
            fh.close()

    best = max(rows, key=lambda r: (r.test_accuracy, -r.round_index))
    summary = {
        "rounds": cfg.rounds,
        "final_accuracy": rows[-1].test_accuracy,
        "best_accuracy": best.test_accuracy,
        "best_round": best.round_index,
        "final_loss": rows[-1].mean_loss,
        "mean_agg_time_ms": float(np.mean([r.agg_time_ms for r in rows])),
        "first_mean_entropy": rows[0].mean_entropy,
        "final_mean_entropy": rows[-1].mean_entropy,
        "zero_entropy_fallback_rounds": fallback_rounds,
        "segment_size": segment_size,
    }
    if out_dir is not None:
        with (out_dir / "summary.txt").open("w", encoding="ascii") as fh:
            for key, value in summary.items():
                fh.write(f"{key} = {value}\n")
    return ExperimentResult(rows, state.global_model, summary, out_dir)


# ---------------------------------------------------------------------------
# Sweeps


_GRID_KEYS = ("local_epochs", "queue_fraction", "selection_fraction")


def run_sweep(base_cfg: ExperimentConfig, grid: dict) -> list[dict]:
    """Run a list of settings with both aggregators and tabulate the gap.

    `grid` holds parallel lists under any of the keys local_epochs,
    queue_fraction, selection_fraction; entry i of each list defines setting
    i (single-value lists broadcast). Each setting runs once per aggregator;
    the returned rows carry both accuracies and the boost in points.
    """
    unknown = set(grid) - set(_GRID_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown grid keys: {', '.join(sorted(unknown))}")
    lists = {k: list(v) for k, v in grid.items() if v}
    if not lists:
        raise ConfigInvalid("grid must set at least one non-empty list")
    length = max(len(v) for v in lists.values())
    for key, values in lists.items():
        if len(values) == 1:
            lists[key] = values * length
        elif len(values) != length:
            raise ConfigInvalid("grid lists must have equal lengths (or length 1)")

    base_out = Path(base_cfg.output_dir) if base_cfg.output_dir else None
    table: list[dict] = []
    for i in range(length):
        setting = {key: lists[key][i] for key in lists}
        results = {}
        for aggregator in ("fedavg_count", "ddfl_entropy"):
            cfg = dataclasses.replace(base_cfg, aggregator=aggregator, **setting)
            if base_out is not None:
                cfg.output_dir = str(base_out / f"setting_{i + 1:02d}_{aggregator}")
            results[aggregator] = run_experiment(cfg)
        base_acc = results["fedavg_count"].summary["final_accuracy"]
        ddfl_acc = results["ddfl_entropy"].summary["final_accuracy"]
        row = {
            "setting": i + 1,
            "local_epochs": setting.get("local_epochs", base_cfg.local_epochs),
            "queue_fraction": setting.get("queue_fraction", base_cfg.queue_fraction),
            "selection_fraction": setting.get(
                "selection_fraction", base_cfg.selection_fraction
            ),
            "fedavg_accuracy": base_acc,
            "ddfl_accuracy": ddfl_acc,
            "boost_points": (ddfl_acc - base_acc) * 100.0,
            "fedavg_agg_time_ms": results["fedavg_count"].summary["mean_agg_time_ms"],
            "ddfl_agg_time_ms": results["ddfl_entropy"].summary["mean_agg_time_ms"],
        }
        table.append(row)

    if base_out is not None:
        base_out.mkdir(parents=True, exist_ok=True)
        columns = list(table[0].keys())
        with (base_out / "sweep_table.csv").open("w", encoding="ascii") as fh:
            fh.write(",".join(columns) + "\n")
            for row in table:
                fh.write(",".join(str(row[c]) for c in columns) + "\n")
    return table


def format_sweep_table(table: list[dict]) -> str:
    header = (
        f"{'setting':>7} {'epochs':>6} {'queue':>6} {'select':>6} "
        f"{'fedavg':>8} {'ddfl':>8} {'boost':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in table:
        lines.append(
            f"{row['setting']:>7} {row['local_epochs']:>6} "
            f"{row['queue_fraction']:>6} {row['selection_fraction']:>6} "
            f"{row['fedavg_accuracy'] * 100:>7.2f}% {row['ddfl_accuracy'] * 100:>7.2f}% "
            f"{row['boost_points']:>+6.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Plot-ready data emission


PLOT_KINDS = ("accuracy_curve", "entropy_heatmap", "divergence_bars")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="ascii").splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def emit_plot_data(rows_path, kind: str, out_path=None) -> Path:
    """Write a plot-ready table for the requested kind.

    accuracy_curve reads metrics.csv and keeps (round_index, test_accuracy).
    entropy_heatmap validates and passes through device_entropy.csv triples.
    divergence_bars reads divergence_layers.csv and keeps the final round,
    one (layer, mean_divergence) row per layer.
    """
    if kind not in PLOT_KINDS:
        raise ConfigInvalid(f"kind must be one of {PLOT_KINDS}")
    rows_path = Path(rows_path)
    header, rows = _read_csv(rows_path)
    out_path = (
        Path(out_path)
        if out_path is not None
        else rows_path.with_name(f"{rows_path.stem}_{kind}.csv")
    )

    def _columns(*names: str) -> list[int]:
        missing = [n for n in names if n not in header]
        if missing:
            raise ConfigInvalid(
                f"{rows_path}: missing columns {', '.join(missing)} for {kind}"
            )
        return [header.index(n) for n in names]

    if kind == "accuracy_curve":
        idx = _columns("round_index", "test_accuracy")
        out_header = "round_index,test_accuracy"
        out_rows = [[row[i] for i in idx] for row in rows]
    elif kind == "entropy_heatmap":
        idx = _columns("round_index", "device_id", "entropy")
        out_header = "round_index,device_id,entropy"
        out_rows = [[row[i] for i in idx] for row in rows]
    else:
        idx = _columns("round_index", "layer", "mean_divergence")
        last_round = max(int(row[idx[0]]) for row in rows)
        out_header = "layer,mean_divergence"
        out_rows = [
            [row[idx[1]], row[idx[2]]] for row in rows if int(row[idx[0]]) == last_round
        ]

    with out_path.open("w", encoding="ascii") as fh:
        fh.write(out_header + "\n")
        for row in out_rows:
            fh.write(",".join(row) + "\n")
    return out_path
