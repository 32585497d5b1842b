import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.data import LabeledSet, make_synthetic
from fedsim.nn import (
    ModelSpec,
    TrainConfig,
    evaluate,
    gradient,
    init_model,
    local_train,
    predict_proba,
)
from fedsim.params import ParamVector, param_count, split_layers


def finite_difference_gradient(model, batch, activation, step=1e-6):
    """Independent oracle: central differences of the mean loss."""
    grad = np.zeros_like(model.values)
    for j in range(model.values.size):
        up = model.values.copy()
        up[j] += step
        down = model.values.copy()
        down[j] -= step
        loss_up = evaluate(ParamVector(up, model.layout), batch, activation).mean_loss
        loss_down = evaluate(ParamVector(down, model.layout), batch, activation).mean_loss
        grad[j] = (loss_up - loss_down) / (2.0 * step)
    return grad


def reference_gradient(layers, activation, X, y):
    """The out-of-place formula the workspace step replaced: the flat gradient
    of the mean cross-entropy, (K, P) for a (K, n, in) stack of batches with
    (K, n) labels and (K, in, out) / (K, out) layer views."""
    acts = [X]
    for weights, bias in layers[:-1]:
        z = acts[-1] @ weights + bias[..., None, :]
        acts.append(np.maximum(z, 0.0) if activation == "relu" else np.tanh(z))
    w_out, b_out = layers[-1]
    logits = acts[-1] @ w_out + b_out[..., None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    delta = exp / exp.sum(axis=-1, keepdims=True)
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
    """SGD on one shard with the out-of-place step, `values -= lr * grad`,
    over the `default_rng(seed + epoch).permutation` orders."""
    values = model.values.copy()
    layers = split_layers(values[None], model.layout)
    for epoch in range(cfg.local_epochs):
        order = shard[np.random.default_rng(seed + epoch).permutation(len(shard))]
        for first in range(0, len(order), cfg.batch_size):
            idx = order[None, first : first + cfg.batch_size]
            grad = reference_gradient(layers, activation, data.features[idx], data.labels[idx])
            values -= cfg.learning_rate * grad[0]
    return values


def everything(data):
    """The one shard that holds every sample of `data`."""
    return [np.arange(len(data))]


def as_models(rows, layout):
    """The rows `local_train` returns, one model per shard."""
    return [ParamVector(row, layout) for row in rows]


def random_batch(rng, n, dim, num_classes):
    return LabeledSet(
        rng.uniform(0.0, 1.0, size=(n, dim)),
        rng.integers(0, num_classes, size=n),
        num_classes,
    )


class TestInitModel:
    def test_deterministic(self):
        spec = ModelSpec(6, (5,), 3)
        a = init_model(spec, 7)
        b = init_model(spec, 7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_sensitivity(self):
        spec = ModelSpec(6, (5,), 3)
        a = init_model(spec, 7)
        b = init_model(spec, 8)
        assert np.any(a.values != b.values)

    def test_layout_length(self):
        spec = ModelSpec(784, (128,), 10)
        model = init_model(spec, 0)
        assert len(model) == 101_770
        assert len(model) == param_count(spec.layout())

    def test_biases_start_at_zero(self):
        spec = ModelSpec(4, (3,), 2)
        model = init_model(spec, 5)
        # last two entries are the output bias
        np.testing.assert_array_equal(model.values[-2:], 0.0)


class TestGradient:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(12)
        spec = ModelSpec(3, (4,), 3, activation=activation)  # 31 parameters
        model = init_model(spec, 3)
        batch = random_batch(rng, 8, 3, 3)
        analytic = gradient(model, batch, activation).values
        numeric = finite_difference_gradient(model, batch, activation)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_duplicated_batch_mean_invariance(self):
        rng = np.random.default_rng(4)
        spec = ModelSpec(5, (4,), 3)
        model = init_model(spec, 1)
        batch = random_batch(rng, 6, 5, 3)
        doubled = LabeledSet(
            np.concatenate([batch.features, batch.features]),
            np.concatenate([batch.labels, batch.labels]),
            3,
        )
        np.testing.assert_allclose(
            gradient(model, batch).values, gradient(model, doubled).values,
            rtol=1e-12, atol=1e-15,
        )

    def test_zero_model_bias_gradient_is_uniform_minus_onehot_mean(self):
        spec = ModelSpec(4, (3,), 4)
        model = ParamVector(np.zeros(param_count(spec.layout())), spec.layout())
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        batch = LabeledSet(np.zeros((8, 4)), labels, 4)
        grad = gradient(model, batch).values
        # zero inputs and weights: only the output bias can receive gradient
        onehot = np.eye(4)[labels]
        expected_bias = (0.25 - onehot).mean(axis=0)
        np.testing.assert_allclose(grad[-4:], expected_bias, atol=1e-15)
        np.testing.assert_allclose(grad[:-4], 0.0, atol=1e-15)

    def test_errors(self):
        spec = ModelSpec(4, (3,), 2)
        model = init_model(spec, 0)
        empty = LabeledSet(np.empty((0, 4)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError, match="at least one labeled sample"):
            gradient(model, empty)
        wrong_dim = LabeledSet(np.zeros((2, 5)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError, match="model expects 4 features"):
            gradient(model, wrong_dim)

    def test_class_count_that_does_not_fit_the_model(self):
        model = init_model(ModelSpec(4, (3,), 2), 0)
        three_classes = LabeledSet(np.zeros((2, 4)), np.zeros(2, dtype=int), 3)
        with pytest.raises(ValueError, match="model has 2 outputs, data declares 3 classes"):
            gradient(model, three_classes)


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        train, _ = make_synthetic(3, 10, 4, 0.2, seed=0)
        spec = ModelSpec(4, (6,), 3)
        model = init_model(spec, 2)
        [out] = as_models(
            local_train(model, everything(train), TrainConfig(0.0, 3, 4, seeds=[9]), train),
            model.layout,
        )
        np.testing.assert_array_equal(out.values, model.values)

    def test_input_model_not_mutated(self):
        train, _ = make_synthetic(3, 10, 4, 0.2, seed=0)
        spec = ModelSpec(4, (6,), 3)
        model = init_model(spec, 2)
        before = model.values.copy()
        local_train(model, everything(train), TrainConfig(0.5, 2, 4, seeds=[9]), train)
        np.testing.assert_array_equal(model.values, before)

    def test_single_sample_single_step(self):
        rng = np.random.default_rng(8)
        spec = ModelSpec(3, (4,), 2)
        model = init_model(spec, 5)
        batch = random_batch(rng, 1, 3, 2)
        eta = 0.3
        [out] = as_models(
            local_train(model, everything(batch), TrainConfig(eta, 1, 1, seeds=[0]), batch),
            model.layout,
        )
        step = eta * gradient(model, batch).values
        np.testing.assert_array_equal(out.values, model.values - step)
        # corroborate the analytic gradient with the finite-difference oracle
        numeric = finite_difference_gradient(model, batch, "relu")
        np.testing.assert_allclose(
            (model.values - out.values) / eta, numeric, rtol=1e-4, atol=1e-6
        )

    def test_loss_decreases_on_separable_blobs(self):
        train, _ = make_synthetic(2, 40, 4, 0.05, seed=3)
        spec = ModelSpec(4, (8,), 2)
        model = init_model(spec, 1)
        before = evaluate(model, train).mean_loss
        [out] = as_models(
            local_train(model, everything(train), TrainConfig(0.2, 5, 8, seeds=[4]), train),
            model.layout,
        )
        after = evaluate(out, train).mean_loss
        assert after <= before

    def test_epochs_equal_successive_single_epoch_calls(self):
        train, _ = make_synthetic(3, 12, 4, 0.2, seed=6)
        spec = ModelSpec(4, (5,), 3)
        model = init_model(spec, 7)
        base_seed = 1234
        shard = everything(train)
        [multi] = as_models(
            local_train(model, shard, TrainConfig(0.1, 3, 5, seeds=[base_seed]), train),
            model.layout,
        )
        step = model
        for epoch in range(3):
            cfg = TrainConfig(0.1, 1, 5, seeds=[base_seed + epoch])
            [step] = as_models(local_train(step, shard, cfg, train), model.layout)
        np.testing.assert_array_equal(multi.values, step.values)

    def test_deterministic(self):
        train, _ = make_synthetic(3, 12, 4, 0.2, seed=6)
        spec = ModelSpec(4, (5,), 3)
        model = init_model(spec, 7)
        cfg = TrainConfig(0.1, 2, 5, seeds=[11])
        [a] = as_models(local_train(model, everything(train), cfg, train), model.layout)
        [b] = as_models(local_train(model, everything(train), cfg, train), model.layout)
        np.testing.assert_array_equal(a.values, b.values)

    # 24 samples: batches of 5 give several minibatches, 24 a single one, so
    # the blow-up lands either before later updates or in the last update
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("batch_size", [5, 24])
    def test_non_finite_update_stays_non_finite(self, batch_size):
        # the round checks the trained rows once, so a blow-up in an early
        # minibatch must still show after the later updates
        train, _ = make_synthetic(3, 10, 4, 0.2, seed=0)
        model = init_model(ModelSpec(4, (6,), 3), 2)
        cfg = TrainConfig(float("inf"), 1, batch_size, seeds=[9])
        [values] = local_train(model, everything(train), cfg, train)
        assert not np.isfinite(values).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_names_the_shard(self):
        # only the first shard blows up (its inputs are infinite); it shares
        # every stacked step, partial last batch included, with the others,
        # and its row of the result is the only non-finite one
        rng = np.random.default_rng(4)
        model = init_model(ModelSpec(4, (6,), 3), 2)
        data = random_batch(rng, 18, 4, 3)
        shards = [np.arange(0, 6), np.arange(6, 12), np.arange(12, 18)]
        data.features[shards[0]] = np.inf
        values = local_train(model, shards, TrainConfig(0.1, 1, 4, [1, 2, 3]), data)
        np.testing.assert_array_equal(np.isfinite(values).all(axis=1), [False, True, True])

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_shards_train_as_if_alone(self, activation, batch_size):
        # 12 samples per shard: a partial last batch at batch size 5
        rng = np.random.default_rng(3)
        spec = ModelSpec(4, (6, 5), 3, activation)
        model = init_model(spec, 2)
        # shards index one shared set in scattered order, and overlap
        data = random_batch(rng, 40, 4, 3)
        shards = [rng.permutation(40)[:12] for _ in range(6)]
        seeds = [40, 41, 42, 43, 44, 45]
        together = as_models(
            local_train(model, shards, TrainConfig(0.2, 2, batch_size, seeds), data, activation),
            model.layout,
        )
        assert len(together) == len(shards)
        for shard, seed, out in zip(shards, seeds, together):
            cfg = TrainConfig(0.2, 2, batch_size, [seed])
            [alone] = as_models(local_train(model, [shard], cfg, data, activation), model.layout)
            np.testing.assert_array_equal(out.values, alone.values)
            # the same as training on a copy of the shard's rows
            copy = LabeledSet(data.features[shard], data.labels[shard], 3)
            [copied] = as_models(
                local_train(model, everything(copy), cfg, copy, activation), model.layout
            )
            np.testing.assert_array_equal(out.values, copied.values)

    def test_stacked_gradient_equals_per_device_gradient(self):
        # 784 -> 128 -> 10 at batch 50, the GEMM-bound shape: each device
        # slice of one stacked workspace gradient has the bits of its own
        # gradient call and of the out-of-place formula
        rng = np.random.default_rng(5)
        models = [init_model(ModelSpec(784, (128,), 10), seed) for seed in (1, 2)]
        batches = [random_batch(rng, 50, 784, 10) for _ in models]
        layout = models[0].layout
        layers = split_layers(np.stack([m.values for m in models]), layout)
        X = np.stack([b.features for b in batches])
        y = np.stack([b.labels for b in batches])
        ws = nn._Workspace(layout, 2, 50)
        nn._forward(layers, "relu", X, ws.outputs)
        nn._backward(layers, "relu", X, y, ws)
        np.testing.assert_array_equal(ws.grad, reference_gradient(layers, "relu", X, y))
        for k, (model, batch) in enumerate(zip(models, batches)):
            np.testing.assert_array_equal(ws.grad[k], gradient(model, batch).values)

    # 12 samples per shard: batches of 4 end full, batches of 5 end partial
    @pytest.mark.parametrize("batch_size", [4, 5])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("hidden", [(6,), (6, 5), (7, 6, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_steps_equal_the_out_of_place_formula(self, activation, hidden, count, batch_size):
        # every workspace step (in-place forward, softmax, one-hot and
        # activation derivative, gradients written into their views, the
        # scaled gradient subtracted) updates the parameters to the bits of
        # `values -= lr * grad` with the allocating formula
        rng = np.random.default_rng(len(hidden) + count)
        model = init_model(ModelSpec(4, hidden, 3, activation), 2)
        data = random_batch(rng, 40, 4, 3)
        shards = [rng.permutation(40)[:12] for _ in range(count)]
        seeds = list(range(70, 70 + count))
        cfg = TrainConfig(0.3, 2, batch_size, seeds)
        trained = local_train(model, shards, cfg, data, activation)
        for row, shard, seed in zip(trained, shards, seeds, strict=True):
            expected = reference_train(model, shard, seed, cfg, data, activation)
            np.testing.assert_array_equal(row, expected)

    def test_memory_is_one_workspace_whatever_the_step_count(self):
        # 64 -> 256 -> 10 at batch 50 (P = 19,210): the result row, the
        # workspace (a gradient row, each layer's output and the hidden
        # upstream) and one gathered batch; the out-of-place step peaked at
        # 6.3 P floats. From 2 steps to 40, the peak grows by no more than
        # the longer shard's order row and a few Python ints: nothing is
        # kept per step.
        model = init_model(ModelSpec(64, (256,), 10), 0)
        rng = np.random.default_rng(1)
        peaks = []
        for n in (100, 2000):
            data = random_batch(rng, n, 64, 10)
            shards = everything(data)
            cfg = TrainConfig(0.1, 1, 50, [0])
            tracemalloc.start()
            try:
                local_train(model, shards, cfg, data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[0] < 4.5 * 8 * len(model), peaks[0] / (8 * len(model))
        assert peaks[1] - peaks[0] <= (2000 - 100) * 8 + 1024, peaks

    def test_one_seed_per_shard(self):
        train, _ = make_synthetic(3, 10, 4, 0.2, seed=0)
        model = init_model(ModelSpec(4, (6,), 3), 2)
        shard = np.arange(len(train))
        with pytest.raises(ValueError, match="one seed per shard"):
            local_train(model, [shard, shard], TrainConfig(0.1, 1, 4, [1]), train)
        with pytest.raises(ValueError, match="at least one shard"):
            local_train(model, [], TrainConfig(0.1, 1, 4, []), train)
        with pytest.raises(ValueError, match="at least one labeled sample"):
            local_train(model, [shard, shard[:0]], TrainConfig(0.1, 1, 4, [1, 2]), train)


def visited_orders(shards, cfg, num_samples):
    """The samples each shard's minibatches visit in each epoch, (K, E, n),
    recorded from the batches `local_train` gathers (lr 0, no arithmetic)."""
    # feature i of sample i, so a gathered batch names its samples
    data = LabeledSet(np.arange(num_samples, dtype=np.float64)[:, None],
                      np.zeros(num_samples, dtype=np.int64), 2)
    model = init_model(ModelSpec(1, (2,), 2), 0)
    batches = []
    forward = nn._forward

    def record(layers, activation, X, outputs):
        batches.append(X[..., 0].astype(np.int64))
        return forward(layers, activation, X, outputs)

    with mock.patch.object(nn, "_forward", record):
        local_train(model, shards, cfg, data)
    return np.concatenate(batches, axis=1).reshape(len(shards), cfg.local_epochs, -1)


# 1, 2, odd and large shard sizes: the shuffle's edge cases and long streams
shard_sizes = st.one_of(
    st.sampled_from([1, 2]),
    st.integers(1, 40).map(lambda i: 2 * i + 1),
    st.integers(2000, 2300),
)


class TestShuffleOrders:
    @settings(max_examples=40, deadline=None)
    @given(
        size=shard_sizes,
        count=st.integers(1, 3),
        epochs=st.integers(1, 4),
        batch_size=st.integers(1, 700),
        data=st.data(),
    )
    def test_orders_equal_default_rng_permutations(self, size, count, epochs, batch_size, data):
        seeds = data.draw(st.lists(
            st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - epochs]),
                      st.integers(0, 2**64 - epochs)),
            min_size=count, max_size=count))
        num_samples = size + 5
        shards = [np.random.default_rng(k).permutation(num_samples)[:size] for k in range(count)]
        orders = visited_orders(shards, TrainConfig(0.0, epochs, batch_size, seeds), num_samples)
        for shard, seed, shard_orders in zip(shards, seeds, orders):
            for epoch, order in enumerate(shard_orders):
                expected = shard[np.random.default_rng(seed + epoch).permutation(size)]
                np.testing.assert_array_equal(order, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(max_value=-1))
    def test_negative_seed_raises_naming_it(self, seed):
        model = init_model(ModelSpec(4, (6,), 3), 2)
        train, _ = make_synthetic(3, 4, 4, 0.2, seed=0)
        with pytest.raises(ValueError, match=f"seed {seed} "):
            local_train(model, everything(train), TrainConfig(0.1, 1, 4, [seed]), train)

    def test_seed_past_the_last_epoch_stream_raises(self):
        # shard seed s draws epoch e from s + e, which must stay below 2**64
        model = init_model(ModelSpec(4, (6,), 3), 2)
        train, _ = make_synthetic(3, 4, 4, 0.2, seed=0)
        local_train(model, everything(train), TrainConfig(0.1, 2, 4, [2**64 - 2]), train)
        with pytest.raises(ValueError, match=f"seed {2**64 - 1} "):
            local_train(model, everything(train), TrainConfig(0.1, 2, 4, [2**64 - 1]), train)

    def test_threads_give_the_serial_rows(self):
        # calls on 4 threads at once (more than the cores), switching threads
        # as often as the interpreter allows, train each call's shards as a
        # serial call does; a Generator shared between calls fails this
        rng = np.random.default_rng(8)
        model = init_model(ModelSpec(4, (6,), 3), 2)
        data = random_batch(rng, 60, 4, 3)
        shards = [rng.permutation(60)[:20] for _ in range(16)]
        configs = [TrainConfig(0.1, 3, 7, list(range(100 * i, 100 * i + 16))) for i in range(12)]

        def train(cfg):
            return local_train(model, shards, cfg, data)

        serial = [train(cfg) for cfg in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(train, configs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(serial, threaded, strict=True):
            np.testing.assert_array_equal(alone, together)


class TestTrainIntoOut:
    @settings(max_examples=25, deadline=None)
    @given(
        # runs of consecutive shards of one size: 1 to 64 shards of 1 to 12
        runs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 8)), min_size=1, max_size=8),
        budget=st.integers(1, 4000),  # 1 to about 70 shards per sub-block
        epochs=st.integers(1, 3),
        batch_size=st.integers(1, 5),
        seed=st.integers(0, 2**32),
    )
    def test_rows_equal_shards_trained_alone(self, runs, budget, epochs, batch_size, seed):
        rng = np.random.default_rng(seed)
        model = init_model(ModelSpec(4, (6,), 3), 2)
        data = random_batch(rng, 30, 4, 3)
        shards = [rng.permutation(30)[:size] for size, repeat in runs for _ in range(repeat)]
        count = len(shards)
        seeds = rng.integers(0, 2**63, count).tolist()
        # `out` is a bank slice with two more rows on each side
        bank = rng.standard_normal((count + 4, len(model)))
        before = bank.copy()
        out = bank[2 : 2 + count]
        with mock.patch.object(nn, "_BLOCK_FLOATS", budget):
            result = local_train(model, shards, TrainConfig(0.2, epochs, batch_size, seeds),
                                 data, "relu", out)
        assert result is out
        np.testing.assert_array_equal(bank[:2], before[:2])
        np.testing.assert_array_equal(bank[2 + count :], before[2 + count :])
        for row, shard, shard_seed in zip(out, shards, seeds, strict=True):
            cfg = TrainConfig(0.2, epochs, batch_size, [shard_seed])
            [alone] = local_train(model, [shard], cfg, data)
            np.testing.assert_array_equal(row, alone)

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 51)),
            np.empty((3, 50)),
            np.empty(51),
            np.empty((3, 51), dtype=np.float32),
            np.empty((3, 51), order="F"),  # rows not contiguous
        ],
        ids=["rows", "width", "flat", "float32", "fortran"],
    )
    def test_wrong_out_raises_naming_its_shape(self, out):
        model = init_model(ModelSpec(4, (6,), 3), 2)
        assert len(model) == 51
        data = random_batch(np.random.default_rng(0), 30, 4, 3)
        shards = [np.arange(10), np.arange(10, 20), np.arange(20, 30)]
        with pytest.raises(ValueError, match=re.escape(f"got {out.dtype} {out.shape}")):
            local_train(model, shards, TrainConfig(0.1, 1, 4, [1, 2, 3]), data, "relu", out)


class TestEvaluate:
    def test_constant_predictor_on_its_class(self):
        spec = ModelSpec(3, (2,), 4)
        values = np.zeros(param_count(spec.layout()))
        model = ParamVector(values, spec.layout())
        # push the output bias of class 2 up so every prediction is class 2
        values = model.values.copy()
        values[-4:] = [0.0, 0.0, 5.0, 0.0]
        model = ParamVector(values, spec.layout())
        data = LabeledSet(np.random.default_rng(0).uniform(size=(20, 3)),
                          np.full(20, 2), 4)
        assert evaluate(model, data).accuracy == 1.0

    def test_uniform_logits_break_ties_toward_class_zero(self):
        spec = ModelSpec(4, (3,), 10)
        model = ParamVector(np.zeros(param_count(spec.layout())), spec.layout())
        labels = np.repeat(np.arange(10), 5)
        data = LabeledSet(np.random.default_rng(1).uniform(size=(50, 4)), labels, 10)
        # all logits equal, argmax picks class 0, which is 1/10 of the labels
        assert evaluate(model, data).accuracy == pytest.approx(0.1)

    def test_empty_dataset(self):
        spec = ModelSpec(4, (3,), 2)
        model = init_model(spec, 0)
        empty = LabeledSet(np.empty((0, 4)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError, match="at least one labeled sample"):
            evaluate(model, empty)

    def test_loss_finite_for_extreme_weights(self):
        spec = ModelSpec(4, (3,), 2)
        model = ParamVector(
            np.full(param_count(spec.layout()), 1e4), spec.layout()
        )
        data = LabeledSet(np.ones((5, 4)), np.zeros(5, dtype=int), 2)
        metrics = evaluate(model, data)
        assert np.isfinite(metrics.mean_loss)


class TestProbabilities:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec(6, (8, 5), 4, activation="tanh")
        model = init_model(spec, 2)
        X = rng.uniform(size=(40, 6))
        proba = predict_proba(model, X, "tanh")
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0.0)


def reference_softmax(logits):
    """The `np.max` formula `_softmax` replaced, out of place."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def bits(values):
    """The bit patterns of float64 `values`, every NaN as the one NaN: which
    NaN a reduction over a row holding NaNs returns is numpy's choice
    (`np.max` of [-nan, 1.0] is +nan, of [1.0, -nan] -nan)."""
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


class TestSoftmax:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("num_classes", [1, 2, 10, 100])
    @pytest.mark.parametrize("seed", range(4))
    def test_bits_equal_the_np_max_formula(self, num_classes, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=rng.choice([1.0, 1e3]), size=(5, 17, num_classes))
        # tied maxima: class 0 copied onto the last class in some rows
        ties = rng.random(logits.shape[:-1]) < 0.3
        logits[..., -1] = np.where(ties, logits[..., 0], logits[..., -1])
        # +0 and -0, ±inf and NaNs of either sign
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
        where = rng.random(logits.shape) < 0.15
        logits[where] = rng.choice(specials, size=int(where.sum()))
        # maxima of +0 and -0: stack 0 holds only zeros, and stack 1 zeros
        # in class 0 and nothing above zero elsewhere
        logits[0] = rng.choice([0.0, -0.0], size=logits[0].shape)
        logits[1] = -np.abs(logits[1])
        logits[1, :, 0] = rng.choice([0.0, -0.0], size=logits.shape[1])
        expected = reference_softmax(logits)
        norms = np.empty((*logits.shape[:-1], 1))
        out = nn._softmax(logits, norms)
        assert out is logits
        assert np.array_equal(bits(out), bits(expected))
        assert np.isfinite(expected).any() and np.isnan(expected).any()
