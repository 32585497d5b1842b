"""Small dense softmax classifier trained with plain mini-batch SGD.

This is the model every simulated device trains. It is deliberately minimal:
fully connected layers, relu or tanh hidden activations, softmax
cross-entropy loss, exact analytic gradients, float64 arithmetic throughout.
All functions are pure and deterministic given their explicit seeds, so they
can run concurrently from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .errors import DimensionMismatch, EmptyDataset
from .params import Layout, ParamVector, split_layers

ACTIVATIONS = ("relu", "tanh")

_EVAL_CHUNK = 8192


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: input width, hidden widths, class count."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")

    def layout(self) -> Layout:
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return tuple((dims[i], dims[i + 1], dims[i + 1]) for i in range(len(dims) - 1))


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyper-parameters.

    The shuffle order of epoch `i` is drawn from seed `seed + i`, so one call
    with `local_epochs=e` matches `e` single-epoch calls whose seeds advance
    by one each time.
    """

    learning_rate: float
    local_epochs: int
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    mean_loss: float


def init_model(spec: ModelSpec, seed: int) -> ParamVector:
    """Deterministic initial parameters for a given architecture and seed.

    Weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer;
    biases start at zero.
    """
    rng = np.random.default_rng(int(seed))
    chunks = []
    for rows, cols, bias_len in spec.layout():
        bound = 1.0 / math.sqrt(rows)
        chunks.append(rng.uniform(-bound, bound, size=rows * cols))
        chunks.append(np.zeros(bias_len))
    return ParamVector(np.concatenate(chunks), spec.layout())


def _check_inputs(model: ParamVector, data: LabeledSet) -> None:
    if len(data) == 0:
        raise EmptyDataset("at least one labeled sample is required")
    if data.features.shape[1] != model.layout[0][0]:
        raise DimensionMismatch(
            f"model expects {model.layout[0][0]} features, data has "
            f"{data.features.shape[1]}"
        )
    if data.num_classes != model.layout[-1][1]:
        raise DimensionMismatch(
            f"model has {model.layout[-1][1]} outputs, data declares "
            f"{data.num_classes} classes"
        )


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], activation: str, X: np.ndarray):
    """Forward pass over (weights, bias) pairs; returns (post-activation list
    incl. input, logits)."""
    acts = [X]
    for weights, bias in layers[:-1]:
        z = acts[-1] @ weights + bias
        if activation == "relu":
            acts.append(np.maximum(z, 0.0))
        else:
            acts.append(np.tanh(z))
    w_out, b_out = layers[-1]
    logits = acts[-1] @ w_out + b_out
    return acts, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _mean_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    # mean of logsumexp(logits) - logit[true class], numerically stable
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def predict_proba(model: ParamVector, X: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Per-sample class probabilities (rows sum to 1)."""
    X = np.asarray(X, dtype=np.float64)
    _, logits = _forward(split_layers(model.values, model.layout), activation, X)
    return _softmax(logits)


def _gradient_values(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    X: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Flat gradient of the mean cross-entropy over the batch."""
    acts, logits = _forward(layers, activation, X)
    n = X.shape[0]
    delta = _softmax(logits)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0),) * 2] * len(layers)
    grads[-1] = (acts[-1].T @ delta, delta.sum(axis=0))
    upstream = delta @ layers[-1][0].T
    for i in range(len(layers) - 2, -1, -1):
        h = acts[i + 1]
        if activation == "relu":
            dz = upstream * (h > 0.0)
        else:
            dz = upstream * (1.0 - h * h)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
        if i > 0:
            upstream = dz @ layers[i][0].T

    flat = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return flat


def gradient(model: ParamVector, batch: LabeledSet, activation: str = "relu") -> ParamVector:
    """Exact analytic gradient of the mean cross-entropy over `batch`."""
    _check_inputs(model, batch)
    layers = split_layers(model.values, model.layout)
    flat = _gradient_values(layers, activation, batch.features, batch.labels)
    return ParamVector(flat, model.layout)


def local_train(
    model: ParamVector,
    data: LabeledSet,
    cfg: TrainConfig,
    activation: str = "relu",
) -> ParamVector:
    """Mini-batch SGD for `cfg.local_epochs` epochs; the input is not mutated.

    Each epoch visits the whole dataset once in a freshly shuffled order
    (seed `cfg.seed + epoch`), including a final partial batch when the size
    does not divide evenly. Raises ValueError if any parameter ends
    non-finite: a NaN or inf never turns finite under later SGD steps, so the
    check on the returned vector catches every blow-up.
    """
    _check_inputs(model, data)
    values = model.values.copy()
    layers = split_layers(values, model.layout)  # views: the update below moves them
    n = len(data)
    for epoch in range(cfg.local_epochs):
        order = np.random.default_rng(cfg.seed + epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            X, y = data.features[idx], data.labels[idx]
            grad = _gradient_values(layers, activation, X, y)
            values -= cfg.learning_rate * grad
    return ParamVector(values, model.layout)


def evaluate(model: ParamVector, data: LabeledSet, activation: str = "relu") -> EvalMetrics:
    """Accuracy (argmax, lowest class index wins ties) and mean loss."""
    _check_inputs(model, data)
    n = len(data)
    correct = 0
    loss_sum = 0.0
    layers = split_layers(model.values, model.layout)
    for start in range(0, n, _EVAL_CHUNK):
        X = data.features[start : start + _EVAL_CHUNK]
        y = data.labels[start : start + _EVAL_CHUNK]
        _, logits = _forward(layers, activation, X)
        correct += int(np.sum(np.argmax(logits, axis=1) == y))
        loss_sum += _mean_loss(logits, y) * len(y)
    return EvalMetrics(accuracy=correct / n, mean_loss=loss_sum / n)
