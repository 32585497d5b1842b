"""Experiment runner: configuration, the round loop, metric files, sweeps.

Configuration is a single JSON object (see ExperimentConfig for keys and
defaults). CLI flags override file values. Every run writes into its output
directory:

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

`run_round` builds each round's record, a RoundReport whose fields are the
metrics.csv columns, and raises NumericalDivergence itself; this module
runs the loop and writes the files. It is the boundary for the text files a
user names: `read_text` reads each config, grid and rows file,
`read_json_object` parses the first two, and a fault in reading or parsing
one is a ConfigInvalid naming the path. Config values are checked once,
when an ExperimentConfig is made (from a file, by hand or by
`dataclasses.replace`), grids in `run_sweep` (which loads the dataset once
and makes every setting's queue split and partition on it before the first
run), and the rows files `emit_plot_data` reads column by column: a fault
in any is a ConfigInvalid.
Seed discipline: the master seed is split into labelled streams ("data",
"queue", "partition", "init", and ("train", round, device)), so results do
not depend on execution order or workers.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# bias_term and weight_divergence have no caller here; bench/spans.py traces them
from .analysis import bias_term, weight_divergence  # noqa: F401
from .data import LabeledSet, load_cifar, load_mnist, make_synthetic
from .errors import ConfigInvalid
from .federation import AGGREGATORS, FederationState, RoundConfig, RoundReport, run_round
from .nn import ACTIVATIONS, ModelSpec, init_model
from .params import ParamVector
from .partition import PARTITION_MODES, GlobalQueue, partition, split_global_queue
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked when the config is made.

    Construction normalises aliases to canonical names and `hidden_dims` to
    a tuple, and raises ConfigInvalid naming the key of any invalid value,
    so every ExperimentConfig in the program is valid and the code it
    reaches trusts it. It is frozen: make a changed copy with
    `dataclasses.replace`, which checks the copy the same way.
    """

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

    def __post_init__(self) -> None:
        for key, low in _INT_KEYS.items():
            value = getattr(self, key)
            if not _is_int(value) or value < low:
                raise ConfigInvalid(f"{key} must be an integer of at least {low}")
        if self.workers > _MAX_WORKERS:
            raise ConfigInvalid(f"workers must be at most {_MAX_WORKERS}")
        for key in _FLOAT_KEYS:
            if not _is_finite_number(getattr(self, key)):
                raise ConfigInvalid(f"{key} must be a finite number")
        if self.learning_rate < 0:
            raise ConfigInvalid("learning_rate must be nonnegative")
        if not 0.0 <= self.queue_fraction < 1.0:
            raise ConfigInvalid("queue_fraction must lie in [0, 1)")
        if not 0.0 < self.selection_fraction <= 1.0:
            raise ConfigInvalid("selection_fraction must lie in (0, 1]")
        segment = self.segment_size
        if not (segment is None or (_is_int(segment) and segment >= 0)):
            raise ConfigInvalid("segment_size must be a nonnegative integer or null")
        if not isinstance(self.hidden_dims, (list, tuple)) or not all(
            _is_int(h) and h >= 1 for h in self.hidden_dims
        ):
            raise ConfigInvalid("hidden_dims must be a list of positive integers")
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        for key, choices in _CHOICES.items():
            value = getattr(self, key)
            if not isinstance(value, str) or value not in choices:
                raise ConfigInvalid(f"{key} must be one of {choices}")
        aggregator = _AGGREGATOR_ALIASES.get(self.aggregator, self.aggregator)
        object.__setattr__(self, "aggregator", aggregator)
        for key in ("data_dir", "output_dir"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise ConfigInvalid(f"{key} must be a string or null")
        if not isinstance(self.trace_dispense, bool):
            raise ConfigInvalid("trace_dispense must be true or false")
        if self.dataset == "synthetic":
            _check_synthetic_params(self.dataset_params)
        elif self.dataset_params:
            raise ConfigInvalid(f"dataset_params apply to synthetic data only, not {self.dataset}")
        elif self.data_dir is None:
            raise ConfigInvalid(f"dataset {self.dataset!r} needs data_dir")


# the RoundReport fields metrics.csv holds; its agg_time goes to timings.csv,
# because wall-clock times are not reproducible
_METRIC_COLUMNS = (
    "round_index", "test_accuracy", "mean_loss", "mean_entropy", "min_entropy",
    "max_entropy", "mean_weight_divergence", "mean_bias_norm", "selected_ids",
)


@dataclass
class ExperimentResult:
    rows: list[RoundReport]
    final_model: ParamVector
    summary: dict
    output_dir: Path | None


def read_text(path, what: str, encoding: str) -> str:
    """The text of the `what` file at `path`; a file that cannot be opened
    or decoded is a ConfigInvalid naming the path."""
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{path}: cannot read {what} file ({exc})") from exc


def read_json_object(path, what: str) -> dict:
    """The one JSON object a UTF-8 `what` file holds; anything else is a
    ConfigInvalid naming the path."""
    try:
        raw = json.loads(read_text(path, what, "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, or too long or deep to parse
        raise ConfigInvalid(f"{path}: {what} file is not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{path}: {what} file must contain one JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; unknown keys are rejected."""
    raw = read_json_object(path, "config")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(sorted(unknown))}")
    return ExperimentConfig(**raw)


# integer fields and the least value each may take
_INT_KEYS = {
    "devices": 1, "rounds": 1, "local_epochs": 1, "batch_size": 1, "seed": 0, "workers": 1
}
# a round runs its workers past the first as threads of one pool
_MAX_WORKERS = 64
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


def _load_dataset(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
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


def _metrics_line(row: RoundReport) -> str:
    fields = []
    for name in _METRIC_COLUMNS:
        value = getattr(row, name)
        if isinstance(value, list):  # ids
            fields.append(";".join(str(i) for i in value))
        elif isinstance(value, int):
            fields.append(str(value))
        else:
            fields.append(_format_float(value))
    return ",".join(fields)


def split_and_partition(
    cfg: ExperimentConfig, train: LabeledSet
) -> tuple[GlobalQueue, list[np.ndarray], np.ndarray]:
    """The run's server queue, its devices and their (K, C) histograms, from
    the queue split and the partition under seeds derived from the config's
    seed. A split or partition the data cannot support is a ConfigInvalid
    naming the key."""
    queue, residual = split_global_queue(
        train, cfg.queue_fraction, derive_seed(cfg.seed, "queue")
    )
    devices, histograms = partition(
        train, residual, cfg.partition_mode, cfg.devices, derive_seed(cfg.seed, "partition")
    )
    return queue, devices, histograms


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full round loop; writes metric files when output_dir is set."""
    train, test = _load_dataset(cfg)
    return _run(cfg, train, test)


def _run(cfg: ExperimentConfig, train: LabeledSet, test: LabeledSet) -> ExperimentResult:
    """`run_experiment` of `cfg` on its loaded dataset."""
    spec = ModelSpec(
        input_dim=train.input_dim,
        hidden_dims=cfg.hidden_dims,
        num_classes=train.num_classes,
        activation=cfg.activation,
    )
    queue, devices, histograms = split_and_partition(cfg, train)
    global_model = init_model(spec, derive_seed(cfg.seed, "init"))
    segment_size = derived_segment_size(cfg, len(queue.pool))

    round_cfg = RoundConfig(
        model_spec=spec,
        learning_rate=cfg.learning_rate,
        local_epochs=cfg.local_epochs,
        batch_size=cfg.batch_size,
        aggregator=cfg.aggregator,
        selection_fraction=cfg.selection_fraction,
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
        resolved["input_dim"] = train.input_dim
        resolved["num_classes"] = train.num_classes
        (out_dir / "config_resolved.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        files["metrics"] = (out_dir / "metrics.csv").open("w", encoding="ascii")
        files["metrics"].write(",".join(_METRIC_COLUMNS) + "\n")
        files["timings"] = (out_dir / "timings.csv").open("w", encoding="ascii")
        files["timings"].write("round_index,agg_time_ms\n")
        files["entropy"] = (out_dir / "device_entropy.csv").open("w", encoding="ascii")
        files["entropy"].write("round_index,device_id,entropy\n")
        files["layers"] = (out_dir / "divergence_layers.csv").open("w", encoding="ascii")
        files["layers"].write("round_index,layer,mean_divergence\n")
        if cfg.trace_dispense:
            files["trace"] = (out_dir / "dispense_trace.jsonl").open("w", encoding="ascii")

    state = FederationState(devices, queue, global_model, histograms)
    rows: list[RoundReport] = []
    try:
        for _ in range(cfg.rounds):
            state, row = run_round(state, round_cfg)
            rows.append(row)
            if not files:
                continue
            files["metrics"].write(_metrics_line(row) + "\n")
            files["timings"].write(f"{row.round_index},{_format_float(row.agg_time * 1000.0)}\n")
            for device_id, entropy in enumerate(state.entropies.tolist()):
                files["entropy"].write(f"{row.round_index},{device_id},{_format_float(entropy)}\n")
            for layer, value in enumerate(row.layer_divergence):
                files["layers"].write(f"{row.round_index},{layer},{_format_float(value)}\n")
            if "trace" in files:
                for device_id, idx in enumerate(state.dispensed.tolist()):
                    record = {"round": row.round_index, "device": device_id, "sample_indices": idx}
                    files["trace"].write(json.dumps(record) + "\n")
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
        "first_mean_entropy": rows[0].mean_entropy,
        "final_mean_entropy": rows[-1].mean_entropy,
        "zero_entropy_fallback_rounds": sum(r.zero_entropy_fallback for r in rows),
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
    the returned rows carry both accuracies and the boost in points, and
    `sweep_table.csv` holds them and no wall-clock figure, so one grid
    always writes the same table. The dataset is loaded once for the whole
    sweep. Before the first run starts, every run's config is made (which
    checks it), and every setting's queue split and partition are made on
    the loaded data, so an invalid or empty grid value, or one the data
    cannot support, stops the sweep before it writes anything.
    """
    unknown = set(grid) - set(_GRID_KEYS)
    if unknown:
        raise ConfigInvalid(f"unknown grid keys: {', '.join(sorted(unknown))}")
    for key, values in grid.items():
        if not isinstance(values, list):
            raise ConfigInvalid(f"grid value {key} must be a list")
        if not values:
            raise ConfigInvalid(f"grid value {key} must not be empty")
    lists = dict(grid)
    if not lists:
        raise ConfigInvalid("grid must set at least one non-empty list")
    length = max(len(v) for v in lists.values())
    for key, values in lists.items():
        if len(values) == 1:
            lists[key] = values * length
        elif len(values) != length:
            raise ConfigInvalid("grid lists must have equal lengths (or length 1)")

    base_out = Path(base_cfg.output_dir) if base_cfg.output_dir else None
    runs: list[dict[str, ExperimentConfig]] = []  # each setting's config per aggregator
    for i in range(length):
        setting = {key: lists[key][i] for key in lists}
        configs = {}
        for aggregator in ("fedavg_count", "ddfl_entropy"):
            # a run's directory sits in the sweep's; an unset or empty one is kept
            out = base_cfg.output_dir and str(base_out / f"setting_{i + 1:02d}_{aggregator}")
            configs[aggregator] = dataclasses.replace(
                base_cfg, aggregator=aggregator, output_dir=out, **setting
            )
        runs.append(configs)
    # grid keys cannot change the dataset or the seed, so one load serves
    # every setting's set-up check and every run
    train, test = _load_dataset(runs[0]["fedavg_count"])
    for configs in runs:
        split_and_partition(configs["fedavg_count"], train)

    table: list[dict] = []
    for i, configs in enumerate(runs, start=1):
        results = {name: _run(cfg, train, test) for name, cfg in configs.items()}
        base_acc = results["fedavg_count"].summary["final_accuracy"]
        ddfl_acc = results["ddfl_entropy"].summary["final_accuracy"]
        cfg = configs["fedavg_count"]
        row = {
            "setting": i,
            "local_epochs": cfg.local_epochs,
            "queue_fraction": cfg.queue_fraction,
            "selection_fraction": cfg.selection_fraction,
            "fedavg_accuracy": base_acc,
            "ddfl_accuracy": ddfl_acc,
            "boost_points": (ddfl_acc - base_acc) * 100.0,
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
    """Header and rows of a run's CSV file; any fault in it is a ConfigInvalid
    naming the path."""
    lines = [ln for ln in read_text(path, "rows", "ascii").splitlines() if ln.strip()]
    if not lines:
        raise ConfigInvalid(f"{path}: empty file")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        raise ConfigInvalid(f"{path}: no data rows")
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigInvalid(
                f"{path}: line {number} has {len(row)} fields, the header {len(header)}"
            )
    return header, rows


def emit_plot_data(rows_path, kind: str, out_path=None) -> Path:
    """Write a plot-ready table for the requested kind.

    accuracy_curve reads metrics.csv and keeps (round_index, test_accuracy).
    entropy_heatmap validates and passes through device_entropy.csv triples.
    divergence_bars reads divergence_layers.csv and keeps the final round,
    one (layer, mean_divergence) row per layer. Every kept column is parsed,
    ids and indices as integers and values as finite numbers, and the kept
    text is copied as it stands; a fault is a ConfigInvalid naming the path
    and the column.
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

    def _parsed(i: int, parse, what: str) -> list:
        try:
            values = [parse(row[i]) for row in rows]
        except ValueError as exc:
            raise ConfigInvalid(f"{rows_path}: {header[i]} must hold {what}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigInvalid(f"{rows_path}: {header[i]} must hold {what}")
        return values

    # the columns each kind keeps: ids and indices, then one value column
    kept = {
        "accuracy_curve": ("round_index", "test_accuracy"),
        "entropy_heatmap": ("round_index", "device_id", "entropy"),
        "divergence_bars": ("round_index", "layer", "mean_divergence"),
    }[kind]
    idx = _columns(*kept)
    rounds, *_ = [_parsed(i, int, "integers") for i in idx[:-1]]
    _parsed(idx[-1], float, "finite numbers")
    out_rows = [[row[i] for i in idx] for row in rows]
    if kind == "divergence_bars":
        last_round = max(rounds)
        kept = kept[1:]
        out_rows = [row[1:] for row, r in zip(out_rows, rounds) if r == last_round]

    with out_path.open("w", encoding="ascii") as fh:
        fh.write(",".join(kept) + "\n")
        for row in out_rows:
            fh.write(",".join(row) + "\n")
    return out_path
