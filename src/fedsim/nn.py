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

A minibatch step of K shards on n samples each writes only into a
`_Workspace`: each layer's output, the backward pass's upstream gradients
and one flat (K, P) gradient, all views carved from one float64 array that
a call allocates once, at the size of its largest step, so the step
allocates nothing the size of a model or a layer; only the gathered batch
is new. `_forward` has BLAS write each layer's stacked matmul into its
output buffer, then adds the bias and applies relu or tanh in place.
`_backward` turns the logits into softmax minus one-hot over n in place,
taking each row's max one class column at a time (`_softmax`), subtracting
the one-hots through one flat index (row offsets plus labels), and has BLAS
write each layer's weight gradient straight into its view of the flat
gradient (`np.matmul(..., out=)`), the bias gradient likewise
(`np.add.reduce(..., out=)`, the reduction `np.sum` calls). `_update`
scales the gradient by the learning rate in place, then subtracts it from
the parameters. Each in-place operation takes the same operands in the same
order as the expression it replaces (`a @ w + b`, `upstream * (h > 0)`,
`values -= lr * grad`; float64 multiplication commutes bit for bit), and a
view's rows have the strides of a new array's, so BLAS takes the same path:
the bits are those of the allocating formulas, which `tests/test_nn.py`
keeps as the reference.
`gradient`, `evaluate` and `predict_proba` run the same `_forward` (and
`gradient` the same `_backward`) with a leading device axis of 1.

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
from .params import Layout, ParamVector, param_count, split_layers
from .seeds import pcg64_states, seed_sequence_words

ACTIVATIONS = ("relu", "tanh")

_EVAL_CHUNK = 8192

# float64s a training sub-block may hold in stacked parameters plus one batch
# of its widest layer's activations, per device; a sub-block of small models
# stays in cache, and a model larger than this trains alone. Chosen from
# interleaved timings of 2**15 to 2**18 (see `local_train`).
_BLOCK_FLOATS = 2**16


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


def _outputs(layout: Layout, count: int, n: int) -> list[np.ndarray]:
    """New (count, n, width) buffers for each layer's output."""
    return [np.empty((count, n, cols)) for _, cols, _ in layout]


class _Workspace:
    """The arrays a minibatch step of `count` shards on `n` samples each
    writes, as C-ordered views carved in order from the front of the flat
    float64 `backing`: a new one of just the size by default, or the
    backing of a workspace at least as wide and as long."""

    def __init__(self, layout: Layout, count: int, n: int, backing: np.ndarray | None = None):
        widths = [cols for _, cols, _ in layout]
        shapes = [
            (count, param_count(layout)),
            *((count, n, width) for width in widths),
            *((count, n, width) for width in widths[:-1]),
            (count, n, 1),
        ]
        if backing is None:
            backing = np.empty(sum(math.prod(shape) for shape in shapes))
        self.backing = backing
        views = []
        offset = 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(backing[offset : offset + size].reshape(shape))
            offset += size
        hidden = len(layout) - 1
        self.grad = views[0]  # (count, P): row k is shard k's flat gradient
        self.grads = split_layers(self.grad, layout)
        self.outputs = views[1 : 2 + hidden]  # each layer's output; the last is the logits
        self.upstream = views[2 + hidden : 2 + 2 * hidden]  # d loss / d hidden output
        self.norms = views[-1]  # a softmax row's max, then its sum
        self.label_offsets = np.arange(0, count * n * widths[-1], widths[-1])  # flat row starts


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    X: np.ndarray,
    outputs: list[np.ndarray],
) -> np.ndarray:
    """Logits of a (K, n, in) batch stack under (K, in, out) weights and
    (K, out) biases, one model per device, written into `outputs` (one
    (K, n, out) buffer per layer, see `_outputs`); returns the last."""
    inputs = X
    for i, ((weights, bias), z) in enumerate(zip(layers, outputs)):
        np.matmul(inputs, weights, out=z)
        z += bias[..., None, :]
        if i < len(layers) - 1:
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.tanh(z, out=z)
        inputs = z
    return inputs


def _softmax(logits: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Softmax over the last axis in place; `norms` is a (..., 1) scratch.

    Each row's max is taken one class column at a time, a copy of the first
    and C - 1 `np.maximum` calls over column views: on a few classes these
    cost less than `np.max`'s reduction over short rows. A row's maximum
    does not depend on the order it is taken in, except between +0 and -0,
    and a logit minus +0 or -0 differs at most in the sign of a zero, which
    `exp` maps to 1; so the result is bit for bit that of `np.max`, but for
    the sign of a NaN, which numpy's reductions do not fix either.
    """
    np.copyto(norms, logits[..., :1])
    for c in range(1, logits.shape[-1]):
        np.maximum(norms, logits[..., c : c + 1], out=norms)
    logits -= norms
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=-1, keepdims=True, out=norms)
    logits /= norms
    return logits


def _backward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    activation: str,
    X: np.ndarray,
    y: np.ndarray,
    ws: _Workspace,
) -> None:
    """Each device's flat gradient of its batch's mean cross-entropy into
    `ws.grad`, from the outputs `_forward` left in `ws.outputs`, which it
    overwrites; `y` is the (K, n) labels of the (K, n, in) batch `X`."""
    delta = _softmax(ws.outputs[-1], ws.norms)
    delta.reshape(-1)[ws.label_offsets + y.reshape(-1)] -= 1.0
    delta /= delta.shape[-2]
    last = len(layers) - 1
    for i in range(last, -1, -1):
        if i < last:
            # delta = upstream * f'(z), f' taken in place from the layer's
            # output h, which layer i + 1's weight gradient has finished reading
            h = ws.outputs[i]
            if activation == "relu":
                np.greater(h, 0.0, out=h)
            else:
                np.multiply(h, h, out=h)
                np.subtract(1.0, h, out=h)
            delta = np.multiply(ws.upstream[i], h, out=h)
        inputs = ws.outputs[i - 1] if i else X
        weights_grad, bias_grad = ws.grads[i]
        np.matmul(inputs.swapaxes(-1, -2), delta, out=weights_grad)
        np.add.reduce(delta, axis=-2, out=bias_grad)
        if i:
            np.matmul(delta, layers[i][0].swapaxes(-1, -2), out=ws.upstream[i - 1])


def _update(values: np.ndarray, grad: np.ndarray, learning_rate: float) -> None:
    """One SGD step in place, `values -= learning_rate * grad`; scales `grad`."""
    grad *= learning_rate
    values -= grad


def predict_proba(model: ParamVector, X: np.ndarray, activation: str = "relu") -> np.ndarray:
    """Per-sample class probabilities (rows sum to 1)."""
    X = np.asarray(X, dtype=np.float64)
    outputs = _outputs(model.layout, 1, len(X))
    logits = _forward(split_layers(model.values[None], model.layout), activation, X[None], outputs)
    return _softmax(logits, np.empty((1, len(X), 1)))[0]


def gradient(model: ParamVector, batch: LabeledSet, activation: str = "relu") -> ParamVector:
    """Exact analytic gradient of the mean cross-entropy over `batch`."""
    _check_inputs(model, batch)
    ws = _Workspace(model.layout, 1, len(batch))
    layers = split_layers(model.values[None], model.layout)
    X = batch.features[None]
    _forward(layers, activation, X, ws.outputs)
    _backward(layers, activation, X, batch.labels[None], ws)
    # a copy: a view would keep the whole workspace alive with the result
    return ParamVector(ws.grad[0].copy(), model.layout)


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

    A step gathers its batch and runs `_forward` and `_backward` in the
    workspace of its (sub-block width, batch length); `_update` then scales
    the workspace's gradient rows by the learning rate in place and
    subtracts them, which gives the bits of `values -= lr * grad`. The call
    keeps one workspace per such pair, all carved from one array of the
    largest one's size, so no step allocates a gradient, an activation or
    an update temporary, and memory does not grow with the number of
    steps (see the module docstring). With those allocations gone,
    `_BLOCK_FLOATS` was re-chosen from interleaved timings of one captured
    call of the benchmark's `many_devices` round (1,000 shards of 38
    samples, a 16 -> 32 -> 10 model, batch 20; 2 vCPUs, one BLAS thread):
    median ms per call 54.8 / 53.5 at 2**15, 52.2 / 51.6 at 2**16,
    52.2 / 51.1 at 2**17 and 53.2 / 51.6 at 2**18 in two sweeps of 40.
    2**16 ties the fastest with half the sub-block.

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
    # every step's workspace is carved from the backing of the largest: the
    # widest sub-block on a full batch, or on its whole shard if shorter
    largest = (max(end - start for start, end in blocks), min(cfg.batch_size, max(sizes)))
    workspaces = {largest: _Workspace(model.layout, *largest)}
    backing = workspaces[largest].backing
    for start, end in blocks:
        size = sizes[start]
        values = out[start:end]
        values[:] = model.values
        layers = split_layers(values, model.layout)  # views: the update below moves them
        order_rows = np.empty((end - start, size), dtype=np.int64)
        # epoch-major, the order the loop below takes them in
        states = iter(pcg64_states(words[start:end].swapaxes(0, 1).reshape(-1, 4)))
        for epoch in range(epochs):
            # the sub-block's shards all have `size` samples: one copy fills the rows
            np.concatenate(shards[start:end], out=order_rows.reshape(-1))
            for order in order_rows:
                bit_generator.state = next(states)
                gen.shuffle(order)
            for first in range(0, size, cfg.batch_size):
                idx = order_rows[:, first : first + cfg.batch_size]
                ws = workspaces.get(idx.shape)
                if ws is None:
                    ws = workspaces[idx.shape] = _Workspace(model.layout, *idx.shape, backing)
                X = data.features[idx]
                _forward(layers, activation, X, ws.outputs)
                _backward(layers, activation, X, data.labels[idx], ws)
                _update(values, ws.grad, cfg.learning_rate)
    return out


def _mean_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    # mean of logsumexp(logits) - logit[true class], numerically stable
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(labels)), labels]))


def evaluate(model: ParamVector, data: LabeledSet, activation: str = "relu") -> EvalMetrics:
    """Accuracy (argmax, lowest class index wins ties) and mean loss."""
    _check_inputs(model, data)
    n = len(data)
    correct = 0
    loss_sum = 0.0
    layers = split_layers(model.values[None], model.layout)
    for start in range(0, n, _EVAL_CHUNK):
        X = data.features[start : start + _EVAL_CHUNK]
        y = data.labels[start : start + _EVAL_CHUNK]
        [logits] = _forward(layers, activation, X[None], _outputs(model.layout, 1, len(X)))
        correct += int(np.sum(np.argmax(logits, axis=1) == y))
        loss_sum += _mean_loss(logits, y) * len(y)
    return EvalMetrics(accuracy=correct / n, mean_loss=loss_sum / n)
