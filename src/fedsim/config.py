"""A run's settings, `ExperimentConfig`, and the checks it runs on itself.

An ExperimentConfig checks every value when it is made, whether from a
config file (`harness.load_config`), from code or by `dataclasses.replace`,
and raises ConfigInvalid naming the key of the first invalid one. It is
frozen, so every config in the program stays valid and the code it reaches
trusts it. `federation.RoundConfig` extends it with a run's train and test
sets, so a round reads each value from the run's own checked config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType

from .errors import ConfigInvalid
from .nn import ACTIVATIONS
from .partition import PARTITION_MODES

AGGREGATORS = ("fedavg_count", "ddfl_entropy")

DATASETS = ("synthetic", "mnist", "cifar10", "cifar100")

_AGGREGATOR_ALIASES = {"ddfl": "ddfl_entropy", "fedavg": "fedavg_count"}

# string fields and the values each may take
_CHOICES = {
    "aggregator": AGGREGATORS + tuple(_AGGREGATOR_ALIASES),
    "dataset": DATASETS,
    "partition_mode": PARTITION_MODES,
    "activation": ACTIVATIONS,
}

# the synthetic dataset's parameters; `dataset_params` may override each
SYNTHETIC_DEFAULTS = {"num_classes": 10, "per_class": 125, "input_dim": 16, "spread": 0.3}

# integer fields and the least value each may take
_INT_KEYS = {
    "devices": 1, "rounds": 1, "local_epochs": 1, "batch_size": 1, "seed": 0, "workers": 1
}
# a round runs its workers past the first as threads of one pool
_MAX_WORKERS = 64
_FLOAT_KEYS = ("learning_rate", "queue_fraction", "selection_fraction")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked when the config is made.

    Construction normalises aliases to canonical names, `hidden_dims` to a
    tuple and `dataset_params` to a read-only copy, and raises ConfigInvalid
    naming the key of any invalid value, so every ExperimentConfig in the
    program is valid and the code it reaches trusts it. It is frozen: make a
    changed copy with `dataclasses.replace`, which checks the copy the same
    way. Equal configs hash equal, so a config can key a dict.
    """

    dataset: str = "synthetic"
    dataset_params: MappingProxyType = field(default_factory=dict)
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
            if value is not None and not (isinstance(value, str) and value):
                raise ConfigInvalid(f"{key} must be a non-empty string or null")
        if not isinstance(self.trace_dispense, bool):
            raise ConfigInvalid("trace_dispense must be true or false")
        if not isinstance(self.dataset_params, (dict, MappingProxyType)):
            raise ConfigInvalid("dataset_params must be a JSON object")
        # a copy, so a change to the caller's dict cannot reach a checked config
        object.__setattr__(self, "dataset_params", MappingProxyType(dict(self.dataset_params)))
        if self.dataset == "synthetic":
            _check_synthetic_params(self.dataset_params)
        elif self.dataset_params:
            raise ConfigInvalid(f"dataset_params apply to synthetic data only, not {self.dataset}")
        elif self.data_dir is None:
            raise ConfigInvalid(f"dataset {self.dataset!r} needs data_dir")

    def __hash__(self) -> int:
        # the hash a frozen dataclass generates fails on the mappingproxy;
        # its sorted items stand for it, so equal configs hash equal
        return hash(tuple(
            tuple(sorted(self.dataset_params.items())) if f.name == "dataset_params"
            else getattr(self, f.name)
            for f in fields(self)
        ))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _check_synthetic_params(params) -> None:
    unknown = set(params) - set(SYNTHETIC_DEFAULTS)
    if unknown:
        raise ConfigInvalid(f"unknown synthetic params: {', '.join(sorted(unknown))}")
    for key, value in params.items():
        if key == "spread" and not (_is_finite_number(value) and value >= 0):
            raise ConfigInvalid("dataset_params.spread must be a nonnegative finite number")
        if key != "spread" and not (_is_int(value) and value >= 2):
            raise ConfigInvalid(f"dataset_params.{key} must be an integer of at least 2")
