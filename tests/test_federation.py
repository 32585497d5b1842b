import inspect
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import nn
from fedsim.data import LabeledSet
from fedsim.config import ExperimentConfig
from fedsim.errors import ConfigInvalid, NumericalDivergence
from fedsim.federation import (
    FederationState,
    RoundConfig,
    aggregate_ddfl,
    aggregate_fedavg,
    run_round,
    select_devices,
)
from fedsim.nn import ModelSpec, TrainConfig, evaluate, init_model, local_train
from fedsim.partition import (
    normalized_entropies,
    normalized_entropy,
    partition,
    split_global_queue,
)
from fedsim.seeds import derive_seed
from reference import vec


def bank(*rows):
    """A (K, P) model bank of `rows` and its one-layer layout."""
    values = np.asarray(rows, dtype=float)
    return values, ((1, values.shape[1], 0),)


class TestNormalizedEntropy:
    def test_uniform_is_exactly_one(self):
        assert normalized_entropy([5, 5, 5, 5, 5, 5, 5, 5, 5, 5]) == 1.0

    def test_single_class_is_exactly_zero(self):
        counts = np.zeros(10, dtype=int)
        counts[4] = 31
        assert normalized_entropy(counts) == 0.0

    def test_known_histogram(self):
        counts = [2, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        # raw entropy 1.5 bits over 10 classes
        assert normalized_entropy(counts) == pytest.approx(
            1.5 / math.log2(10), abs=1e-15
        )
        assert normalized_entropy(counts) == pytest.approx(0.4515449934959718, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, size=8)
        counts[0] = 3
        shuffled = counts[rng.permutation(8)]
        assert normalized_entropy(counts) == normalized_entropy(shuffled)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="histogram has no classes"):
            normalized_entropy([])
        with pytest.raises(ValueError, match="histogram has no samples"):
            normalized_entropy([0, 0, 0])


class TestSelectDevices:
    def test_keeps_nine_of_ten(self):
        assert len(select_devices(np.linspace(0.1, 1.0, 10), 0.9)) == 9

    def test_full_fraction_keeps_all(self):
        assert select_devices([0.3, 0.2, 0.9], 1.0) == [0, 1, 2]

    def test_tie_break_toward_lower_id(self):
        assert select_devices([0.5, 0.5, 0.1], 0.67) == [0, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        entropies = rng.uniform(0.01, 0.5, size=9)
        base = select_devices(entropies, 0.6)
        scaled = select_devices(entropies * 2.0, 0.6)
        assert base == scaled

    def test_no_reports(self):
        with pytest.raises(ValueError, match="no entropies"):
            select_devices([], 0.5)


class TestAggregateFedavg:
    def test_uniform_mean(self):
        out = aggregate_fedavg(*bank([1, 2], [3, 4]), [1, 1])
        np.testing.assert_array_equal(out.values, [2.0, 3.0])

    def test_count_weighted_mean(self):
        out = aggregate_fedavg(*bank([0, 0], [4, 8]), [1, 3])
        np.testing.assert_array_equal(out.values, [3.0, 6.0])

    def test_single_model_identity(self):
        model = vec([0.7, -0.3, 2.0])
        out = aggregate_fedavg(*bank(model.values), [17])
        np.testing.assert_array_equal(out.values, model.values)

    def test_zero_total_weight(self):
        with pytest.raises(ValueError, match="weights sum to zero"):
            aggregate_fedavg(*bank([1.0], [2.0]), [0, 0])

    def test_layout_mismatch(self):
        # two-wide rows against a layout of four parameters
        models, _ = bank([1, 2], [0, 0])
        with pytest.raises(ValueError, match="bank width"):
            aggregate_fedavg(models, ((2, 2, 0),), [1, 1])

    @pytest.mark.parametrize(
        "models, weights, message",
        [
            (np.empty((0, 2)), [], "no models to aggregate"),
            (np.ones((2, 2)), [1.0], "need exactly one weight per model"),
            (np.ones((2, 2)), [2.0, -1.0], "weights must be nonnegative"),
        ],
    )
    def test_bad_input_raises_naming_the_fault(self, models, weights, message):
        with pytest.raises(ValueError, match=message):
            aggregate_fedavg(models, ((1, 2, 0),), weights)


class TestAggregateDdfl:
    def test_equal_entropies_equal_uniform_mean(self):
        models = bank([1.0, 5.0], [3.0, 7.0])
        out, selected, fallback = aggregate_ddfl(*models, [0.5, 0.5], 1.0)
        assert selected == [0, 1] and not fallback
        np.testing.assert_allclose(out.values, [2.0, 6.0], rtol=1e-15)

    def test_entropy_weighted_two_models(self):
        models = bank([0.0], [4.0])
        out, selected, fallback = aggregate_ddfl(*models, [0.25, 0.75], 1.0)
        assert selected == [0, 1] and not fallback
        np.testing.assert_allclose(out.values, [3.0], rtol=1e-15)

    def test_zero_entropies_fall_back_to_uniform(self):
        models = bank([2.0], [4.0], [6.0])
        out, selected, fallback = aggregate_ddfl(*models, np.zeros(3), 1.0)
        assert fallback
        assert selected == [0, 1, 2]
        np.testing.assert_allclose(out.values, [4.0], rtol=1e-15)

    def test_selection_drops_lowest_entropy(self):
        models = bank([0.0], [10.0], [20.0])
        out, selected, _ = aggregate_ddfl(*models, [0.9, 0.1, 0.8], 0.67)
        assert selected == [0, 2]
        expected = (0.9 * 0.0 + 0.8 * 20.0) / 1.7
        np.testing.assert_allclose(out.values, [expected], rtol=1e-15)

    def test_weights_renormalized_over_subset(self):
        # identical models must aggregate to themselves regardless of weights
        model = vec([1.25, -2.5, 0.5])
        models = np.stack([model.values] * 3)
        out, _, _ = aggregate_ddfl(models, model.layout, [0.2, 0.5, 0.9], 0.7)
        np.testing.assert_allclose(out.values, model.values, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="no entropies"):
            aggregate_ddfl(np.empty((0, 1)), ((1, 1, 0),), [], 0.5)
        with pytest.raises(ValueError, match="one entropy per model"):
            aggregate_ddfl(*bank([1.0]), [0.5, 0.5], 0.5)


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 12),
    width=st.integers(1, 6),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    data=st.data(),
)
def test_ddfl_merges_the_top_entropy_rows_convexly(k, width, fraction, data):
    finite = st.floats(-1e6, 1e6)
    models = np.array(data.draw(st.lists(finite, min_size=k * width, max_size=k * width)))
    models = models.reshape(k, width)
    # a few distinct values, zero among them, so ties and all-zero picks occur
    entropy = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    entropies = data.draw(st.lists(entropy, min_size=k, max_size=k))
    out, selected, fallback = aggregate_ddfl(models, ((1, width, 0),), entropies, fraction)

    # fraction * k within 1e-9 of an integer counts as that integer
    nearest = round(fraction * k)
    keep = max(1, nearest if abs(fraction * k - nearest) <= 1e-9 else math.floor(fraction * k))
    reference = sorted(range(k), key=lambda row: (-entropies[row], row))
    assert selected == sorted(reference[:keep])
    assert fallback == all(entropies[row] == 0.0 for row in selected)
    picked = models[selected]
    slack = 1e-12 * (1.0 + np.abs(picked).max())
    assert np.all(out.values >= picked.min(axis=0) - slack)
    assert np.all(out.values <= picked.max(axis=0) + slack)


def small_federation(mode="one_class", num_devices=4, num_classes=4, seed=0,
                     queue_fraction=0.25):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), 24)
    train = LabeledSet(rng.uniform(size=(len(labels), 6)), labels, num_classes)
    test = LabeledSet(rng.uniform(size=(20, 6)),
                      rng.integers(0, num_classes, size=20), num_classes)
    queue, residual = split_global_queue(train, queue_fraction, seed=seed)
    devices, histograms = partition(train, residual, mode, num_devices, seed=seed)
    spec = ModelSpec(6, (5,), num_classes)
    model = init_model(spec, seed)
    state = FederationState(devices, queue, model, histograms)
    return state, spec, dict(train_set=train, test_set=test)


def round_config(sets, **overrides):
    """The RoundConfig of a round test on the `sets` of `small_federation`:
    learning rate 0.2, batch size 8, one sample dispensed per device and
    seed 9, with the config's other defaults; `overrides` replaces any."""
    values = dict(learning_rate=0.2, batch_size=8, segment_size=1, seed=9)
    return RoundConfig(**{**values, **overrides}, **sets)


class TestRoundConfig:
    def test_is_the_experiment_config_plus_the_data(self):
        # each config value is declared once, on ExperimentConfig
        assert issubclass(RoundConfig, ExperimentConfig)
        names = [f.name for f in fields(ExperimentConfig)]
        assert [f.name for f in fields(RoundConfig)] == [*names, "train_set", "test_set"]

    def test_checks_its_values(self):
        _, _, sets = small_federation()
        with pytest.raises(ConfigInvalid, match="learning_rate"):
            RoundConfig(learning_rate=-1.0, segment_size=1, **sets)


class TestRunRound:
    def test_zero_learning_rate_keeps_global_model(self):
        state, spec, sets = small_federation()
        cfg = round_config(sets, learning_rate=0.0, seed=3)
        before = state.global_model.values.copy()
        before_acc = evaluate(state.global_model, sets["test_set"]).accuracy
        new_state, report = run_round(state, cfg)
        np.testing.assert_allclose(new_state.global_model.values, before, rtol=1e-12)
        assert report.test_accuracy == before_acc

    def test_round_one_of_one_class_flags_fallback(self):
        state, spec, sets = small_federation(mode="one_class", queue_fraction=0.0)
        cfg = round_config(sets, learning_rate=0.1, segment_size=0, seed=1)
        _, report = run_round(state, cfg)
        assert report.zero_entropy_fallback
        # floor(0.9 * 4) = 3 devices kept
        assert len(report.selected_ids) == 3

    def test_shuffled_devices_fill_the_bank_in_id_order(self, monkeypatch, train_calls):
        # one_class gives these six devices 9, 9, 18, 9, 9 and 18 samples;
        # a round makes one call per worker on consecutive ids with about
        # equal sample counts, the call holding device 0 on its own thread
        per_worker = {
            1: [(0, 6, True)],
            2: [(0, 3, True), (3, 3, False)],
            3: [(0, 2, True), (2, 2, False), (4, 2, False)],
        }
        for budget in (1, nn._BLOCK_FLOATS, 2**40):
            monkeypatch.setattr(nn, "_BLOCK_FLOATS", budget)
            for workers in (1, 2, 3):
                state, spec, sets = small_federation(num_devices=6, seed=2)
                assert [len(d) for d in state.devices] == [9, 9, 18, 9, 9, 18]
                cfg = round_config(sets, selection_fraction=0.5, workers=workers)
                train_calls.clear()
                model = state.global_model
                out, _ = run_round(state, cfg)
                assert sorted(train_calls) == per_worker[workers]
                # row k is device k trained alone from the round's global model
                for k, device in enumerate(out.devices):
                    train_cfg = TrainConfig(0.2, 1, 8, [derive_seed(9, "train", 0, k)])
                    [alone] = local_train(model, [device], train_cfg, sets["train_set"])
                    np.testing.assert_array_equal(out.bank[k], alone)

    @pytest.mark.parametrize("num_devices", [1, 2])
    def test_more_workers_than_devices_make_no_empty_call(self, train_calls, num_devices):
        state_1, spec, sets = small_federation(mode="iid", num_devices=num_devices, seed=3)
        state_4, _, _ = small_federation(mode="iid", num_devices=num_devices, seed=3)
        out_1, _ = run_round(state_1, round_config(sets, aggregator="fedavg_count", workers=1))
        train_calls.clear()
        out_4, _ = run_round(state_4, round_config(sets, aggregator="fedavg_count", workers=4))
        assert sorted(train_calls) == [(k, 1, k == 0) for k in range(num_devices)]
        np.testing.assert_array_equal(out_1.bank, out_4.bank)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_devices_name_the_lowest_id(self):
        # devices 3 and 5 hold infinite features; each leaves only its own
        # row non-finite, and the error names the lower id
        state, spec, sets = small_federation(num_devices=6, seed=2)
        for k in (3, 5):
            sets["train_set"].features[state.devices[k]] = np.inf
        cfg = round_config(sets, selection_fraction=0.5, segment_size=0)
        with pytest.raises(
            NumericalDivergence, match="round 0: device 3 trained to non-finite parameters"
        ):
            run_round(state, cfg)
        finite = np.isfinite(state.bank).all(axis=1)
        np.testing.assert_array_equal(finite, [True, True, True, False, True, False])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_divergence_names_the_device(self):
        # tanh saturates, so at this step size every trained parameter stays
        # finite and only the distance to the merged model overflows
        state, _, sets = small_federation(num_devices=6, seed=2)
        cfg = round_config(
            sets, learning_rate=1e200, aggregator="fedavg_count", activation="tanh"
        )
        with pytest.raises(
            NumericalDivergence, match="round 0: device 0 weight divergence is not finite"
        ):
            run_round(state, cfg)
        assert np.isfinite(state.bank).all()

    def test_rounds_advance_the_state_they_are_given(self):
        # the state run_round returns is the one it was given, so a second
        # call on it runs the next round, from the merged model and queue
        state, spec, sets = small_federation()
        cfg = round_config(sets)
        for round_index in (0, 1):
            model, cursor = state.global_model, state.queue.cursor
            out, report = run_round(state, cfg)
            assert out is state
            assert report.round_index == round_index
            assert state.round_index == round_index + 1
            assert state.global_model is not model
            assert state.queue.cursor == cursor + 4

    def test_state_takes_only_its_inputs(self):
        state, _, _ = small_federation()
        params = inspect.signature(FederationState).parameters
        assert list(params) == ["devices", "queue", "global_model", "histograms"]
        assert state.round_index == 0 and state.dispensed is None
        np.testing.assert_array_equal(state.entropies, normalized_entropies(state.histograms))

    def test_bank_is_reused_across_rounds(self):
        state, spec, sets = small_federation()
        cfg = round_config(sets, aggregator="fedavg_count")
        bank = state.bank
        for _ in range(2):
            state, _ = run_round(state, cfg)
            assert state.bank is bank
        assert bank.shape == (4, len(state.global_model))

    def test_threads_fill_disjoint_bank_rows(self, monkeypatch, train_calls):
        # one device per sub-block and more workers than cores, with frequent
        # thread switches: a lost or misplaced row write changes the bank
        monkeypatch.setattr(nn, "_BLOCK_FLOATS", 1)
        banks = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):
                state, spec, sets = small_federation(mode="iid", num_devices=12, seed=6)
                cfg = round_config(
                    sets, local_epochs=2, batch_size=4, aggregator="fedavg_count", workers=workers
                )
                for _ in range(2):
                    state, _ = run_round(state, cfg)
                banks.append(state.bank.copy())
        finally:
            sys.setswitchinterval(switch)
        np.testing.assert_array_equal(banks[0], banks[1])
        # 12 devices of 7 samples: one call a round at 1 worker, 8 calls of
        # 1 or 2 consecutive devices at 8
        eight = [(0, 1), (1, 2), (3, 1), (4, 2), (6, 1), (7, 2), (9, 1), (10, 2)]
        assert sorted(train_calls) == sorted(
            [(0, 12, True)] * 2 + [(a, n, a == 0) for a, n in eight] * 2
        )

    def test_report_contents(self):
        # the values of the metrics row are checked against the plain-code
        # reference run (tests/test_reference.py); here, the record's shape
        state, spec, sets = small_federation()
        new_state, report = run_round(state, round_config(sets, aggregator="fedavg_count"))
        assert report.round_index == 0
        assert new_state.round_index == 1
        assert report.selected_ids == [0, 1, 2, 3]
        assert 0.0 <= report.test_accuracy <= 1.0
        assert len(new_state.devices) == 4
        assert report.agg_time >= 0.0
        # row k holds device k's class counts
        np.testing.assert_array_equal(
            new_state.histograms.sum(axis=1), [len(d) for d in new_state.devices]
        )
        # one dispensed sample per device, as pool positions
        assert new_state.dispensed.shape == (4, 1)
