"""fedsim: a deterministic federated-learning simulator.

Simulates communication rounds across K devices over a real or synthetic
dataset. A configurable fraction of the training data stays on the server in
a dispensing queue; each round, devices can receive fresh samples, train
locally, and report their class-distribution entropy. Aggregation is either
the classic count-weighted mean or entropy-ranked selection with
entropy-weighted averaging. An analysis layer measures weight divergence,
per-device bias, reliability, and a strongly-convex convergence bound.

The package root holds the names a caller needs to configure and run an
experiment and to check its numbers; everything else is imported from its
module (`fedsim.harness`, `fedsim.federation`, `fedsim.partition`, ...).
"""

from .analysis import (
    BoundInputs,
    bias_term,
    convergence_bound,
    reliability_index,
    system_reliability_index,
    weight_divergence,
)
from .data import LabeledSet, make_synthetic
from .federation import aggregate_ddfl, aggregate_fedavg
from .harness import ExperimentConfig, run_experiment
from .nn import ModelSpec, TrainConfig, evaluate, gradient, init_model, local_train
from .params import ParamVector
from .partition import normalized_entropy

__version__ = "0.1.0"
