"""Small dense softmax classifier trained with plain mini-batch SGD.

This is the model every simulated device trains. It is deliberately minimal:
fully connected layers, relu or tanh hidden activations, softmax
cross-entropy loss, exact analytic gradients, float64 arithmetic throughout.
All functions are pure and deterministic given their explicit seeds, so they
can run concurrently from any number of workers.

`local_train` trains a list of shards of one size together. A shard is an
index array into one shared LabeledSet, and each minibatch is gathered
straight from that set's matrix. The shards' parameters are stacked into
one (K, P) array, and the forward and backward passes run over that leading
device axis, one stacked matmul per layer per minibatch step; as the shards
are the same size, every step moves all K of them. A stacked matmul makes
the same BLAS call for each device as a single-device one, so each shard's
result is bit for bit what training it alone gives, whichever shards share
the call; `federation` decides which do, grouping devices by shard size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
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

    def layout(self) -> Layout:
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return tuple((dims[i], dims[i + 1], dims[i + 1]) for i in range(len(dims) - 1))


@dataclass(frozen=True)
class TrainConfig:
    """Local-training hyper-parameters, with one shuffle seed per shard.

    Shard `k` draws the shuffle order of epoch `i` from seed `seeds[k] + i`,
    so one call with `local_epochs=e` matches `e` single-epoch calls whose
    seeds advance by one each time.
    """

    learning_rate: float
    local_epochs: int
    batch_size: int
    seeds: list[int]


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
        raise ValueError("at least one labeled sample is required")
    if data.features.shape[1] != model.layout[0][0]:
        raise ValueError(
            f"model expects {model.layout[0][0]} features, data has "
            f"{data.features.shape[1]}"
        )
    if data.num_classes != model.layout[-1][1]:
        raise ValueError(
            f"model has {model.layout[-1][1]} outputs, data declares "
            f"{data.num_classes} classes"
        )


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], activation: str, X: np.ndarray):
    """Forward pass over (weights, bias) pairs; returns (post-activation list
    incl. input, logits).

    `X` is (n, in) with (in, out) weights, or a (K, n, in) stack with
    (K, in, out) weights and (K, out) biases, one model per device.
    """
    acts = [X]
    for weights, bias in layers[:-1]:
        z = acts[-1] @ weights + bias[..., None, :]
        if activation == "relu":
            acts.append(np.maximum(z, 0.0))
        else:
            acts.append(np.tanh(z))
    w_out, b_out = layers[-1]
    logits = acts[-1] @ w_out + b_out[..., None, :]
    return acts, logits


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


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
    """Flat gradient of the mean cross-entropy over the batch.

    With a leading device axis (see `_forward`; `y` is then (K, n)) the
    result is one flat gradient per device, shape (K, P).
    """
    acts, logits = _forward(layers, activation, X)
    n = X.shape[-2]
    delta = _softmax(logits)
    rows = delta.reshape(-1, delta.shape[-1])  # a view: softmax output is contiguous
    rows[np.arange(len(rows)), y.ravel()] -= 1.0
    delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0),) * 2] * len(layers)
    grads[-1] = (acts[-1].swapaxes(-1, -2) @ delta, delta.sum(axis=-2))
    upstream = delta @ layers[-1][0].swapaxes(-1, -2)
    for i in range(len(layers) - 2, -1, -1):
        h = acts[i + 1]
        if activation == "relu":
            dz = upstream * (h > 0.0)
        else:
            dz = upstream * (1.0 - h * h)
        grads[i] = (acts[i].swapaxes(-1, -2) @ dz, dz.sum(axis=-2))
        if i > 0:
            upstream = dz @ layers[i][0].swapaxes(-1, -2)

    lead = X.shape[:-2]
    return np.concatenate(
        [part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1
    )


def gradient(model: ParamVector, batch: LabeledSet, activation: str = "relu") -> ParamVector:
    """Exact analytic gradient of the mean cross-entropy over `batch`."""
    _check_inputs(model, batch)
    layers = split_layers(model.values, model.layout)
    flat = _gradient_values(layers, activation, batch.features, batch.labels)
    return ParamVector(flat, model.layout)


def local_train(
    model: ParamVector,
    shards: list[np.ndarray],
    cfg: TrainConfig,
    data: LabeledSet,
    activation: str = "relu",
) -> np.ndarray:
    """Mini-batch SGD from `model` on each shard; returns a (K, P) array whose
    row k is the parameters trained on shard k.

    A shard is an array of sample indices into `data`, and all shards hold
    the same number of samples. Each epoch visits each shard once in a
    freshly shuffled order (seed `cfg.seeds[k] + epoch` for shard k), so
    shard k's minibatches are rows `shards[k][perm]` of `data`, including a
    final partial batch when the size does not divide evenly; the input is
    not mutated. The shards train together, but each result is exactly that
    of training its shard alone. A shard that blows up leaves a non-finite
    row, and only its own: the caller checks.
    """
    if not shards:
        raise ValueError("at least one shard is required")
    if len(cfg.seeds) != len(shards):
        raise ValueError(f"need one seed per shard, got {len(cfg.seeds)} for {len(shards)}")
    _check_inputs(model, data)
    size = len(shards[0])
    if any(len(shard) == 0 for shard in shards):
        raise ValueError("at least one labeled sample is required")
    if any(len(shard) != size for shard in shards):
        raise ValueError("shards must all hold the same number of samples")
    values = np.tile(model.values, (len(shards), 1))
    layers = split_layers(values, model.layout)  # views: the update below moves them
    orders = np.empty((len(shards), size), dtype=np.int64)
    for epoch in range(cfg.local_epochs):
        for k, shard in enumerate(shards):
            orders[k] = shard[np.random.default_rng(cfg.seeds[k] + epoch).permutation(size)]
        for start in range(0, size, cfg.batch_size):
            idx = orders[:, start : start + cfg.batch_size]
            grad = _gradient_values(layers, activation, data.features[idx], data.labels[idx])
            values -= cfg.learning_rate * grad
    return values


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
