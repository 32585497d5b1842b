"""Small dense softmax classifier trained with plain mini-batch SGD.

This is the model every simulated device trains. It is deliberately minimal:
fully connected layers, relu or tanh hidden activations, softmax
cross-entropy loss, exact analytic gradients, float64 arithmetic throughout.
All functions are pure and deterministic given their explicit seeds, so they
can run concurrently from any number of workers.

`local_train` trains any number of shards of any sizes. A shard is an index
array into one shared LabeledSet, and each minibatch is gathered straight
from that set's matrix. The shards train in sub-blocks of consecutive
shards of one size, as many as keep their stacked parameters and
activations within a float budget (`_BLOCK_FLOATS`) and so in cache, each
in its rows of one (K, P) array: the caller's `out`, or a new one. The
forward and backward passes run over that leading device axis, one stacked
matmul per layer per minibatch step, which moves the whole sub-block. A
stacked matmul makes the same BLAS call for each device as a single-device
one, so each shard's result is bit for bit what training it alone gives,
whichever shards share the call or the sub-block; `federation` makes one
call per worker, and this module alone knows the budget and the grouping.

Each shard's epoch order is `shard[default_rng(seed + epoch).permutation(n)]`,
but no Generator is built per shard and epoch. `seeds.seed_sequence_words`
hashes all the call's seeds for every epoch in one array pass, as
`SeedSequence` would, and just before a sub-block trains,
`seeds.pcg64_states` turns its shards' words into the states `PCG64` would
start in; one Generator per call is set to each state in turn and shuffles
the shard's indices in place. Its draws are then numpy's own, and `shuffle`
makes the same swaps as `permutation`, so the orders are bit for bit those
of `default_rng`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .params import Layout, ParamVector, split_layers
from .seeds import pcg64_states, seed_sequence_words

ACTIVATIONS = ("relu", "tanh")

_EVAL_CHUNK = 8192

# float64s a training sub-block may hold in stacked parameters plus one batch
# of its widest layer's activations, per device; a sub-block of small models
# stays in cache, and a model larger than this trains alone.
_BLOCK_FLOATS = 2**15


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
    exactly as `np.random.default_rng(seeds[k] + i)` would, so one call with
    `local_epochs=e` matches `e` single-epoch calls whose seeds advance by
    one each time. A seed must be an int in [0, 2**64 - local_epochs].
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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mini-batch SGD from `model` on each shard; returns a (K, P) array whose
    row k is the parameters trained on shard k.

    A shard is an array of sample indices into `data`, and shards may hold
    different numbers of samples. Each epoch visits each shard once in a
    freshly shuffled order: shard k's minibatches are rows `shards[k][perm]`
    of `data`, including a final partial batch when the size does not
    divide evenly, where perm is `default_rng(cfg.seeds[k] + epoch)
    .permutation(size)`, drawn without building that Generator (see the
    module docstring); the input is not mutated. A seed outside
    [0, 2**64 - local_epochs] raises ValueError naming it. The seeds of
    every shard and epoch are hashed in one pass, and the shards train in
    sub-blocks of consecutive shards of one size, as many as fit
    `_BLOCK_FLOATS`, but each result is exactly that of training its shard
    alone.

    Each sub-block trains in place in its rows of `out`, a float64 (K, P)
    array with contiguous rows such as a slice of a model bank, and `out`
    itself is returned; any other shape raises ValueError naming it. With
    no `out`, a new array is returned. A shard that blows up leaves a
    non-finite row, and only its own: the caller checks.
    """
    if not shards:
        raise ValueError("at least one shard is required")
    if len(cfg.seeds) != len(shards):
        raise ValueError(f"need one seed per shard, got {len(cfg.seeds)} for {len(shards)}")
    _check_inputs(model, data)
    sizes = [len(shard) for shard in shards]
    if not all(sizes):
        raise ValueError("at least one labeled sample is required")
    shape = (len(shards), len(model))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or out.strides[1] != out.itemsize:
        raise ValueError(
            f"out must be a {shape} float64 array with contiguous rows, "
            f"got {out.dtype} {out.shape}"
        )
    epochs = cfg.local_epochs
    seeds = [operator.index(seed) for seed in cfg.seeds]
    for seed in seeds:
        if not 0 <= seed <= 2**64 - epochs:
            raise ValueError(f"seed {seed} is outside [0, 2**64 - local_epochs]")
    # (K, E, 4): shard k's epoch-e stream is default_rng(seeds[k] + e)
    epoch_seeds = np.array(seeds, np.uint64)[:, None] + np.arange(epochs, dtype=np.uint64)
    words = seed_sequence_words(epoch_seeds.ravel()).reshape(len(shards), epochs, 4)
    # the call's own Generator: calls train on worker threads, so it must
    # not be shared; each shuffle first resets it to default_rng(seed)'s state
    gen = np.random.default_rng(0)
    bit_generator = gen.bit_generator
    # sub-blocks of as many consecutive shards as fit `_BLOCK_FLOATS`, at
    # least one, and never across a change of size
    widest = max(max(rows, cols) for rows, cols, _ in model.layout)
    width = max(1, _BLOCK_FLOATS // (len(model) + cfg.batch_size * widest))
    edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(shards)]
    blocks = [
        (start, min(start + width, end))
        for run_start, end in zip(edges[:-1], edges[1:])
        for start in range(run_start, end, width)
    ]
    for start, end in blocks:
        size = sizes[start]
        values = out[start:end]
        values[:] = model.values
        layers = split_layers(values, model.layout)  # views: the update below moves them
        order_rows = np.empty((end - start, size), dtype=np.int64)
        # epoch-major, the order the loop below takes them in
        states = iter(pcg64_states(words[start:end].swapaxes(0, 1).reshape(-1, 4)))
        for epoch in range(epochs):
            for order, shard in zip(order_rows, shards[start:end]):
                bit_generator.state = next(states)
                order[:] = shard
                gen.shuffle(order)
            for first in range(0, size, cfg.batch_size):
                idx = order_rows[:, first : first + cfg.batch_size]
                grad = _gradient_values(layers, activation, data.features[idx], data.labels[idx])
                values -= cfg.learning_rate * grad
    return out


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
