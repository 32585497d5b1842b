"""fedsim: a deterministic federated-learning simulator.

Simulates communication rounds across K devices over a real or synthetic
dataset. A configurable fraction of the training data stays on the server in
a dispensing queue; each round, devices can receive fresh samples, train
locally, and report their class-distribution entropy. Aggregation is either
the classic count-weighted mean or entropy-ranked selection with
entropy-weighted averaging. An analysis layer measures weight divergence,
per-device bias, reliability, and a strongly-convex convergence bound.
"""

from . import errors
from .analysis import (
    BoundInputs,
    BoundResult,
    DivergenceRecord,
    ReliabilityRecord,
    bias_term,
    convergence_bound,
    reliability_index,
    system_reliability_index,
    weight_divergence,
)
from .data import (
    LabeledSet,
    class_histogram,
    concat_sets,
    load_cifar,
    load_mnist,
    make_synthetic,
)
from .federation import (
    FederationState,
    RoundConfig,
    RoundReport,
    aggregate_ddfl,
    aggregate_fedavg,
    run_round,
    select_devices,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    derived_segment_size,
    emit_plot_data,
    format_sweep_table,
    load_config,
    run_experiment,
    run_sweep,
    validate_config,
)
from .nn import (
    EvalMetrics,
    ModelSpec,
    TrainConfig,
    evaluate,
    gradient,
    init_model,
    local_train,
    predict_proba,
)
from .params import Layout, ParamVector, param_count, split_layers
from .partition import (
    GlobalQueue,
    accumulate,
    dispense,
    normalized_entropy,
    partition,
    split_global_queue,
)
from .seeds import derive_seed

__version__ = "0.1.0"
