"""The whole protocol in plain code, and the test oracles it is built from.

`reference_run(cfg)` restates what a run of a synthetic-data `cfg` computes,
one device at a time in Python loops, and returns the text of the run files
that do not depend on the hardware: metrics.csv, device_entropy.csv,
divergence_layers.csv and, when `cfg` traces dispensing,
dispense_trace.jsonl. `tests/test_reference.py` checks
`harness.run_experiment` against it bit for bit, so a change to `src/` that
keeps the bytes (sub-blocks, worker threads, in-place steps, batched
entropies) needs no equivalence check of its own. A change that alters the
bytes changes this file with it, and so states its new meaning in plain
code.

A round here:
- dispenses each device its segment one sample at a time from the queue's
  order and cursor, reshuffling under the queue's derived seeds
  (`reference_dispense`);
- counts each device's classes with one `np.bincount` and takes the
  sorted-order entropy of the counts (`reference_entropy`);
- trains each device alone with the out-of-place SGD step
  (`reference_train`);
- keeps the top entropy fraction or every device, and merges their rows as
  `p @ np.stack(rows)`;
- evaluates the merged model on the test set with a plain `X @ W + b`
  forward pass, argmax and `evaluate`'s logsumexp loss (`reference_test`);
- measures each local model's distance from the merged one with
  `np.linalg.norm`.

The set-up is the real code's, where a restatement would copy it line for
line: the synthetic data (`make_synthetic`), the queue split
(`split_global_queue`), the partition (`partition`), the initial model
(`init_model`), the seed derivation (`derive_seed`) and the weight and
bias views of a flat parameter vector (`split_layers`).
"""

import json
import math

import numpy as np

from fedsim.config import SYNTHETIC_DEFAULTS
from fedsim.data import make_synthetic
from fedsim.nn import ModelSpec, init_model
from fedsim.params import ParamVector, split_layers
from fedsim.partition import partition, split_global_queue
from fedsim.seeds import derive_seed


def vec(values, layout=None):
    """A ParamVector of `values`, by default one layer with no bias."""
    values = np.asarray(values, dtype=float)
    if layout is None:
        layout = ((1, values.size, 0),)
    return ParamVector(values, layout)


def reference_entropy(counts) -> float:
    """Shannon entropy of a class-count histogram over log2(C): the nonzero
    shares in ascending order, so the sum has one order whatever the class
    order. One class scores 0 and equal counts in every class 1."""
    counts = np.asarray(counts)
    nonzero = counts[counts > 0].astype(np.float64)
    if nonzero.size == 1 or counts.size == 1:
        return 0.0
    if np.all(counts == counts.flat[0]):
        return 1.0
    p = np.sort(nonzero) / float(counts.sum())
    raw = float(-(p * np.log2(p)).sum())
    return min(1.0, max(0.0, raw / math.log2(counts.size)))


def reference_dispense(queue, num_devices, segment_size):
    """The (K, s) pool positions `dispense` hands out, taken one at a time
    from `queue` (advanced in place): the next position in its order, and a
    fresh order under `derive_seed(queue.seed, "order", reshuffles)` each
    time the order runs out with a sample still due. An empty pool hands out
    nothing."""
    if not len(queue.pool):
        segment_size = 0
    positions = np.empty((num_devices, segment_size), dtype=np.int64)
    for row in positions:
        for j in range(segment_size):
            if queue.cursor >= len(queue.order):
                queue.reshuffles += 1
                queue.order = np.random.default_rng(
                    derive_seed(queue.seed, "order", queue.reshuffles)
                ).permutation(len(queue.pool))
                queue.cursor = 0
            row[j] = queue.order[queue.cursor]
            queue.cursor += 1
    return positions


def reference_softmax(logits):
    """Softmax over the last axis, shifted by the `np.max` of each row."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def reference_gradient(layers, activation, X, y):
    """The flat gradient of the mean cross-entropy, out of place: (K, P)
    for a (K, n, in) stack of batches with (K, n) labels and (K, in, out) /
    (K, out) layer views."""
    acts = [X]
    for weights, bias in layers[:-1]:
        z = acts[-1] @ weights + bias[..., None, :]
        acts.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
    w_out, b_out = layers[-1]
    delta = reference_softmax(acts[-1] @ w_out + b_out[..., None, :])
    rows = delta.reshape(-1, delta.shape[-1])
    rows[np.arange(len(rows)), y.ravel()] -= 1.0
    delta /= X.shape[-2]
    grads = [None] * len(layers)
    grads[-1] = (acts[-1].swapaxes(-1, -2) @ delta, delta.sum(axis=-2))
    upstream = delta @ w_out.swapaxes(-1, -2)
    for i in range(len(layers) - 2, -1, -1):
        h = acts[i + 1]
        dz = upstream * (h > 0.0) if activation == "relu" else upstream * (1.0 - h * h)
        grads[i] = (acts[i].swapaxes(-1, -2) @ dz, dz.sum(axis=-2))
        if i > 0:
            upstream = dz @ layers[i][0].swapaxes(-1, -2)
    lead = X.shape[:-2]
    return np.concatenate(
        [part for gw, gb in grads for part in (gw.reshape(*lead, -1), gb)], axis=-1
    )


def reference_train(model, shard, seed, cfg, data, activation):
    """SGD from `model` on one shard with the out-of-place step,
    `values -= lr * grad`, over the `default_rng(seed + epoch).permutation`
    orders; `cfg` gives the learning rate, epochs and batch size."""
    values = model.values.copy()
    layers = split_layers(values[None], model.layout)
    for epoch in range(cfg.local_epochs):
        order = shard[np.random.default_rng(seed + epoch).permutation(len(shard))]
        for first in range(0, len(order), cfg.batch_size):
            idx = order[None, first : first + cfg.batch_size]
            grad = reference_gradient(layers, activation, data.features[idx], data.labels[idx])
            values -= cfg.learning_rate * grad[0]
    return values


def reference_test(model, data, activation):
    """Accuracy (argmax, the lowest class wins ties) and mean loss of
    `model` on `data`. The loss goes through `* n / n`, as `evaluate` sums
    each chunk's mean times its length and divides by n; the sets here fit
    in one of its chunks."""
    h = data.features
    layers = split_layers(model.values, model.layout)
    for i, (weights, bias) in enumerate(layers):
        h = h @ weights + bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0) if activation == "relu" else np.tanh(h)
    n = len(data)
    accuracy = int(np.sum(np.argmax(h, axis=1) == data.labels)) / n
    m = h.max(axis=1)
    lse = m + np.log(np.exp(h - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - h[np.arange(n), data.labels]))
    return accuracy, loss * n / n


def _line(*values) -> str:
    """One CSV line; a float as the shortest text that reads back to its bits
    (`repr` of a numpy float64 would name its type)."""
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in values) + "\n"


def reference_run(cfg) -> dict[str, str]:
    """The metrics.csv, device_entropy.csv and divergence_layers.csv text of
    a run of `cfg`, a config of synthetic data, and its dispense_trace.jsonl
    text when `cfg.trace_dispense` is set."""
    params = {**SYNTHETIC_DEFAULTS, **cfg.dataset_params}
    train, test = make_synthetic(**params, seed=derive_seed(cfg.seed, "data"))
    queue, residual = split_global_queue(train, cfg.queue_fraction, derive_seed(cfg.seed, "queue"))
    devices, _ = partition(
        train, residual, cfg.partition_mode, cfg.devices, derive_seed(cfg.seed, "partition")
    )
    K = cfg.devices
    s = cfg.segment_size
    if s is None:  # the count baseline dispenses nothing; DDFL spreads the pool over the run
        pool = len(queue.pool)
        s = 0 if cfg.aggregator == "fedavg_count" or not pool else max(1, pool // (K * cfg.rounds))
    spec = ModelSpec(train.input_dim, cfg.hidden_dims, train.num_classes, cfg.activation)
    layout = spec.layout()
    model = init_model(spec, derive_seed(cfg.seed, "init"))
    layer_edges = np.cumsum([0, *(rows * cols + bias for rows, cols, bias in layout)])

    metrics = ["round_index,test_accuracy,mean_loss,mean_entropy,min_entropy,max_entropy,"
               "mean_weight_divergence,mean_bias_norm,selected_ids\n"]
    entropy_rows = ["round_index,device_id,entropy\n"]
    layer_rows = ["round_index,layer,mean_divergence\n"]
    trace_rows = []
    for r in range(cfg.rounds):
        positions = reference_dispense(queue, K, s)
        trace_rows += [
            json.dumps({"round": r, "device": k, "sample_indices": row.tolist()}) + "\n"
            for k, row in enumerate(positions)
        ]
        segments = queue.pool[positions]
        devices = [np.concatenate([data, segment]) for data, segment in zip(devices, segments)]
        entropies = [
            reference_entropy(np.bincount(train.labels[data], minlength=train.num_classes))
            for data in devices
        ]
        rows = [
            reference_train(model, data, derive_seed(cfg.seed, "train", r, k), cfg, train,
                            cfg.activation)
            for k, data in enumerate(devices)
        ]

        if cfg.aggregator == "ddfl_entropy":
            keep = max(1, math.floor(cfg.selection_fraction * K + 1e-9))
            selected = sorted(sorted(range(K), key=lambda k: (-entropies[k], k))[:keep])
            weights = np.array([entropies[k] for k in selected])
            if weights.sum() <= 0.0:  # every kept entropy is zero: a plain mean
                weights = np.ones(len(selected))
        else:
            selected = list(range(K))
            weights = np.array([len(data) for data in devices], dtype=np.float64)
        p = weights / weights.sum()
        model = ParamVector(p @ np.stack([rows[k] for k in selected]), layout)

        accuracy, loss = reference_test(model, test, cfg.activation)
        diffs = [model.values - row for row in rows]
        totals = [np.linalg.norm(diff) for diff in diffs]
        per_layer = [
            [np.linalg.norm(diff[lo:hi]) for lo, hi in zip(layer_edges[:-1], layer_edges[1:])]
            for diff in diffs
        ]
        divergence = float(np.mean(totals))
        metrics.append(_line(
            r, accuracy, loss, float(np.mean(entropies)), min(entropies), max(entropies),
            divergence, divergence,  # mean_bias_norm repeats the mean divergence
            ";".join(map(str, selected)),
        ))
        entropy_rows += [_line(r, k, e) for k, e in enumerate(entropies)]
        layer_means = np.mean(np.array(per_layer), axis=0).tolist()
        layer_rows += [_line(r, layer, value) for layer, value in enumerate(layer_means)]
    files = {
        "metrics.csv": "".join(metrics),
        "device_entropy.csv": "".join(entropy_rows),
        "divergence_layers.csv": "".join(layer_rows),
    }
    if cfg.trace_dispense:
        files["dispense_trace.jsonl"] = "".join(trace_rows)
    return files
