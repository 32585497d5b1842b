"""Experiment runner: config files, the round loop, metric files, sweeps.

A run's configuration is a single JSON object, read by `load_config` into
a `config.ExperimentConfig` (see it for keys and defaults; it is also
importable from here). CLI flags override file values. Every run writes
into its output directory:

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

A run resolves its config once: the derived segment size goes into a
checked copy, and the rounds read that copy, with the train and test sets,
as a `federation.RoundConfig`. `run_round` builds each round's record, a
RoundReport whose fields are the metrics.csv columns, and raises
NumericalDivergence itself; this module runs the loop and writes the files.
It is the boundary for the config and grid files a user names:
`read_json_object` reads and parses each, and a fault in reading or parsing
one is a ConfigInvalid naming the path, as is an output directory that
cannot be made. Config values are checked once, when an ExperimentConfig
is made (from a file, by hand or by `dataclasses.replace`), and grids in
`run_sweep` (which loads the dataset once and makes every run's queue
split and partition on it before the first run): a fault in either is a
ConfigInvalid.

A sweep runs listed settings under named arms. Its grid file is one
object whose inner objects are config overrides, for example

    {"settings": [{}, {"local_epochs": 5}],
     "arms": {"fedavg": {"aggregator": "fedavg_count"},
              "ddfl": {"aggregator": "ddfl_entropy"}}}

and run (i, name) is the base config with setting i's and arm name's
values, in `setting_<ii>_<name>` of the sweep's output directory.
`sweep_table.csv` there holds one row per run: setting, arm,
final_accuracy, best_accuracy and final_mean_entropy.

Seed discipline: the master seed is split into labelled streams ("data",
"queue", "partition", "init", and ("train", round, device)), so results do
not depend on execution order or workers.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# bias_term and weight_divergence have no caller here; bench/spans.py traces them
from .analysis import bias_term, weight_divergence  # noqa: F401
from .config import SYNTHETIC_DEFAULTS, ExperimentConfig
from .data import LabeledSet, load_cifar, load_mnist, make_synthetic
from .errors import ConfigInvalid
from .federation import FederationState, RoundConfig, RoundReport, run_round
from .nn import ModelSpec, init_model
from .params import ParamVector
from .partition import GlobalQueue, partition, split_global_queue
from .seeds import derive_seed

# the RoundReport fields metrics.csv holds; its agg_time goes to timings.csv,
# because wall-clock times are not reproducible
_METRIC_COLUMNS = (
    "round_index", "test_accuracy", "mean_loss", "mean_entropy", "min_entropy",
    "max_entropy", "mean_weight_divergence", "mean_bias_norm", "selected_ids",
)
# the keys a config file may set
_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


@dataclass
class ExperimentResult:
    rows: list[RoundReport]
    final_model: ParamVector
    summary: dict
    output_dir: Path | None


def read_json_object(path, what: str) -> dict:
    """The one JSON object a UTF-8 `what` file holds; a file that cannot be
    opened, decoded or parsed, or that holds anything else, is a
    ConfigInvalid naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{path}: cannot read {what} file ({exc})") from exc
    # a second block: UnicodeDecodeError is a ValueError, and bad bytes are
    # not "not valid JSON"
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, or too long or deep to parse
        raise ConfigInvalid(f"{path}: {what} file is not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{path}: {what} file must contain one JSON object")
    return raw


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file; unknown keys are rejected."""
    raw = read_json_object(path, "config")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {', '.join(sorted(unknown))}")
    return ExperimentConfig(**raw)


def _load_dataset(cfg: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    if cfg.dataset == "synthetic":
        params = {**SYNTHETIC_DEFAULTS, **cfg.dataset_params}
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
    queue, devices, histograms = split_and_partition(cfg, train)
    cfg = dataclasses.replace(cfg, segment_size=derived_segment_size(cfg, len(queue.pool)))
    spec = ModelSpec(train.input_dim, cfg.hidden_dims, train.num_classes, cfg.activation)
    global_model = init_model(spec, derive_seed(cfg.seed, "init"))
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    round_cfg = RoundConfig(**values, train_set=train, test_set=test)

    out_dir: Path | None = None
    files = {}
    if cfg.output_dir is not None:
        out_dir = Path(cfg.output_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"output_dir {out_dir} cannot be a directory ({exc})") from exc
        resolved = {**values, "input_dim": train.input_dim, "num_classes": train.num_classes}
        (out_dir / "config_resolved.json").write_text(
            json.dumps(resolved, indent=2, sort_keys=True, default=dict) + "\n", encoding="utf-8"
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
            # one write of every device's row; `!r` of a float is _format_float
            files["entropy"].write("".join(
                f"{row.round_index},{device_id},{entropy!r}\n"
                for device_id, entropy in enumerate(state.entropies.tolist())
            ))
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
        "segment_size": cfg.segment_size,
    }
    if out_dir is not None:
        with (out_dir / "summary.txt").open("w", encoding="ascii") as fh:
            for key, value in summary.items():
                fh.write(f"{key} = {value}\n")
    return ExperimentResult(rows, state.global_model, summary, out_dir)


# ---------------------------------------------------------------------------
# Sweeps

# the config keys a sweep's settings and arms may set: all but the keys that
# one dataset load and the sweep's own run directories need the same in
# every run
_SWEEP_KEYS = _CONFIG_KEYS - {"dataset", "dataset_params", "data_dir", "seed", "output_dir"}
_SWEEP_COLUMNS = ("setting", "arm", "final_accuracy", "best_accuracy", "final_mean_entropy")


def run_sweep(base_cfg: ExperimentConfig, grid: dict) -> list[dict]:
    """Run every setting of `grid` under each of its named arms.

    `grid` is one object, {"settings": [{...}, ...], "arms": {name: {...}}},
    whose inner objects each map config keys to values. For example,

        {"settings": [{"local_epochs": 1}, {"local_epochs": 5}],
         "arms": {"fedavg": {"aggregator": "fedavg_count"},
                  "ddfl": {"aggregator": "ddfl_entropy"}}}

    makes four runs. Run (i, name) is `base_cfg` with setting i's and arm
    `name`'s values, which may not share a key, and writes into
    `setting_<ii>_<name>` in `base_cfg.output_dir`, which must be set (i
    counts from 1).
    An arm name is a plain token of letters, digits, `_` and `-`. No setting
    or arm may set dataset, dataset_params, data_dir, seed or output_dir, so
    the dataset is loaded once for the whole sweep.

    Before the first run starts, every run's config is made (which checks
    it) and its queue split and partition are made on the loaded data, so a
    bad grid, value or split is a ConfigInvalid that writes nothing, as is
    an output directory that already holds a `sweep_table.csv`. Then
    each run's row of `_SWEEP_COLUMNS` goes to `sweep_table.csv`, written
    and flushed as the run finishes, in the text `format_sweep_table` gives;
    the rows are also returned.
    """
    if set(grid) != {"settings", "arms"}:
        raise ConfigInvalid(f"grid keys must be settings and arms, not {sorted(grid)}")
    settings, arms = grid["settings"], grid["arms"]
    if not (isinstance(settings, list) and settings and isinstance(arms, dict) and arms):
        raise ConfigInvalid("grid settings must be a non-empty list, and arms a non-empty object")
    base_out = Path(base_cfg.output_dir)
    runs = []  # (setting number, arm name, config)
    for i, setting in enumerate(settings, start=1):
        for name, arm in arms.items():
            # the name is part of a run's directory and of a CSV row
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
                raise ConfigInvalid(f"grid arm name {name!r} may hold only letters, digits, _ and -")
            where = f"grid setting {i} and arm {name}"
            if not (isinstance(setting, dict) and isinstance(arm, dict)):
                raise ConfigInvalid(f"{where} must both be JSON objects")
            for key in [*setting, *arm]:
                if key not in _SWEEP_KEYS:
                    raise ConfigInvalid(f"{where} set {key}, which is unknown or fixed for a sweep")
                if key in setting and key in arm:
                    raise ConfigInvalid(f"{where} both set {key}")
            out = str(base_out / f"setting_{i:02d}_{name}")
            runs.append((i, name, dataclasses.replace(base_cfg, output_dir=out, **setting, **arm)))
    # the earlier sweep's run directories would stay beside a table that
    # does not list them
    if (base_out / "sweep_table.csv").exists():
        raise ConfigInvalid(f"output_dir {base_out} already holds a sweep_table.csv")
    # no run changes the dataset or the seed, so one load serves every run's
    # set-up check and every run
    train, test = _load_dataset(base_cfg)
    for _, _, cfg in runs:
        split_and_partition(cfg, train)

    try:
        base_out.mkdir(parents=True, exist_ok=True)
        # line-buffered, so each row is on disk as its run finishes
        table_file = (base_out / "sweep_table.csv").open("w", encoding="ascii", buffering=1)
    except OSError as exc:
        raise ConfigInvalid(f"output_dir {base_out} cannot hold sweep_table.csv ({exc})") from exc
    table: list[dict] = []
    with table_file:
        table_file.write(_sweep_line(_SWEEP_COLUMNS))
        for i, name, cfg in runs:
            summary = _run(cfg, train, test).summary
            table.append({"setting": i, "arm": name, **{k: summary[k] for k in _SWEEP_COLUMNS[2:]}})
            table_file.write(_sweep_line(table[-1].values()))
    return table


def _sweep_line(values) -> str:
    return ",".join(str(value) for value in values) + "\n"


def format_sweep_table(table: list[dict]) -> str:
    """The sweep_table.csv text of the rows `run_sweep` returns: the header,
    then one line per run."""
    return _sweep_line(_SWEEP_COLUMNS) + "".join(_sweep_line(row.values()) for row in table)
