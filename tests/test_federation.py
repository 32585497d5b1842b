import math

import numpy as np
import pytest

from fedsim.data import LabeledSet
from fedsim.errors import EmptyHistogram, LayoutMismatch, NoReports, ZeroTotalWeight
from fedsim.federation import (
    AggregationPolicy,
    EntropyReport,
    FederationState,
    RoundConfig,
    aggregate_ddfl,
    aggregate_fedavg,
    normalized_entropy,
    run_round,
    select_devices,
)
from fedsim.nn import ModelSpec, init_model
from fedsim.params import ParamVector
from fedsim.partition import PartitionPlan, partition, split_global_queue


def entropy_oracle(counts):
    """Direct summation of -sum p log2 p, scaled by log2(C)."""
    total = sum(counts)
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            acc -= p * math.log2(p)
    return acc / math.log2(len(counts))


def vec(values, layout=None):
    values = np.asarray(values, dtype=float)
    if layout is None:
        layout = ((1, values.size, 0),)
    return ParamVector(values, layout)


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

    def test_matches_oracle_on_random_histograms(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            size = rng.integers(2, 12)
            counts = rng.integers(0, 50, size=size)
            if counts.sum() == 0:
                counts[rng.integers(size)] = 1
            value = normalized_entropy(counts)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(entropy_oracle(counts.tolist()), abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, size=8)
        counts[0] = 3
        shuffled = counts[rng.permutation(8)]
        assert normalized_entropy(counts) == normalized_entropy(shuffled)

    def test_one_iff_uniform_and_zero_iff_single(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            counts = rng.integers(0, 20, size=6)
            if counts.sum() == 0:
                counts[0] = 1
            value = normalized_entropy(counts)
            nonzero = counts[counts > 0]
            if value == 1.0:
                assert np.all(counts == counts[0])
            if value == 0.0:
                assert len(nonzero) == 1

    def test_empty_errors(self):
        with pytest.raises(EmptyHistogram):
            normalized_entropy([])
        with pytest.raises(EmptyHistogram):
            normalized_entropy([0, 0, 0])


class TestSelectDevices:
    def reports(self, entropies):
        return [EntropyReport(i, e, 10) for i, e in enumerate(entropies)]

    def test_keeps_nine_of_ten(self):
        reports = self.reports(np.linspace(0.1, 1.0, 10))
        assert len(select_devices(reports, 0.9)) == 9

    def test_full_fraction_keeps_all(self):
        reports = self.reports([0.3, 0.2, 0.9])
        assert select_devices(reports, 1.0) == [0, 1, 2]

    def test_tie_break_toward_lower_id(self):
        reports = self.reports([0.5, 0.5, 0.1])
        assert select_devices(reports, 0.67) == [0, 1]

    def test_matches_exhaustive_comparator(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            entropies = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=k)
            fraction = float(rng.uniform(0.05, 1.0))
            reports = self.reports(entropies)
            got = select_devices(reports, fraction)
            keep = max(1, math.floor(fraction * k + 1e-9))
            expected = sorted(
                sorted(range(k), key=lambda i: (-entropies[i], i))[:keep]
            )
            assert got == expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        entropies = rng.uniform(0.01, 0.5, size=9)
        base = select_devices(self.reports(entropies), 0.6)
        scaled = select_devices(self.reports(entropies * 2.0), 0.6)
        assert base == scaled

    def test_no_reports(self):
        with pytest.raises(NoReports):
            select_devices([], 0.5)
        with pytest.raises(ValueError):
            select_devices(self.reports([0.1]), 0.0)


class TestAggregateFedavg:
    def test_uniform_mean(self):
        out = aggregate_fedavg([vec([1, 2]), vec([3, 4])], [1, 1])
        np.testing.assert_array_equal(out.values, [2.0, 3.0])

    def test_count_weighted_mean(self):
        out = aggregate_fedavg([vec([0, 0]), vec([4, 8])], [1, 3])
        np.testing.assert_array_equal(out.values, [3.0, 6.0])

    def test_single_model_identity(self):
        model = vec([0.7, -0.3, 2.0])
        out = aggregate_fedavg([model], [17])
        np.testing.assert_array_equal(out.values, model.values)

    def test_zero_total_weight(self):
        with pytest.raises(ZeroTotalWeight):
            aggregate_fedavg([vec([1.0]), vec([2.0])], [0, 0])

    def test_layout_mismatch(self):
        a = vec([1, 2])
        b = ParamVector(np.zeros(2), ((2, 1, 0),))
        with pytest.raises(LayoutMismatch):
            aggregate_fedavg([a, b], [1, 1])

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            models = [vec(rng.normal(size=7)) for _ in range(k)]
            weights = rng.uniform(0.0, 5.0, size=k)
            weights[int(rng.integers(k))] += 0.1  # keep the total positive
            out = aggregate_fedavg(models, weights).values
            stacked = np.stack([m.values for m in models])
            assert np.all(out >= stacked.min(axis=0) - 1e-12)
            assert np.all(out <= stacked.max(axis=0) + 1e-12)


class TestAggregateDdfl:
    def test_equal_entropies_equal_uniform_mean(self):
        models = [vec([1.0, 5.0]), vec([3.0, 7.0])]
        reports = [EntropyReport(0, 0.5, 10), EntropyReport(1, 0.5, 10)]
        out, selected, fallback = aggregate_ddfl(models, reports, 1.0)
        assert selected == [0, 1] and not fallback
        np.testing.assert_allclose(out.values, [2.0, 6.0], rtol=1e-15)

    def test_entropy_weighted_two_models(self):
        models = [vec([0.0]), vec([4.0])]
        reports = [EntropyReport(0, 0.25, 5), EntropyReport(1, 0.75, 5)]
        out, selected, fallback = aggregate_ddfl(models, reports, 1.0)
        assert selected == [0, 1] and not fallback
        np.testing.assert_allclose(out.values, [3.0], rtol=1e-15)

    def test_zero_entropies_fall_back_to_uniform(self):
        models = [vec([2.0]), vec([4.0]), vec([6.0])]
        reports = [EntropyReport(i, 0.0, 5) for i in range(3)]
        out, selected, fallback = aggregate_ddfl(models, reports, 1.0)
        assert fallback
        assert selected == [0, 1, 2]
        np.testing.assert_allclose(out.values, [4.0], rtol=1e-15)

    def test_selection_drops_lowest_entropy(self):
        models = [vec([0.0]), vec([10.0]), vec([20.0])]
        reports = [
            EntropyReport(0, 0.9, 5),
            EntropyReport(1, 0.1, 5),
            EntropyReport(2, 0.8, 5),
        ]
        out, selected, _ = aggregate_ddfl(models, reports, 0.67)
        assert selected == [0, 2]
        expected = (0.9 * 0.0 + 0.8 * 20.0) / 1.7
        np.testing.assert_allclose(out.values, [expected], rtol=1e-15)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(9)
        models = [vec(rng.normal(size=5)) for _ in range(6)]
        reports = [
            EntropyReport(i, float(e), 10)
            for i, e in enumerate(rng.uniform(0.1, 1.0, size=6))
        ]
        out_a, sel_a, _ = aggregate_ddfl(models, reports, 0.5)
        order = rng.permutation(6)
        out_b, sel_b, _ = aggregate_ddfl(
            [models[i] for i in order], [reports[i] for i in order], 0.5
        )
        assert sel_a == sel_b
        np.testing.assert_array_equal(out_a.values, out_b.values)

    def test_weights_renormalized_over_subset(self):
        # identical models must aggregate to themselves regardless of weights
        model = vec([1.25, -2.5, 0.5])
        models = [model, model, model]
        reports = [
            EntropyReport(0, 0.2, 5),
            EntropyReport(1, 0.5, 5),
            EntropyReport(2, 0.9, 5),
        ]
        out, _, _ = aggregate_ddfl(models, reports, 0.7)
        np.testing.assert_allclose(out.values, model.values, rtol=1e-12)

    def test_errors(self):
        with pytest.raises(NoReports):
            aggregate_ddfl([], [], 0.5)
        reports = [EntropyReport(0, 0.5, 5), EntropyReport(1, 0.5, 5)]
        with pytest.raises(ValueError):
            aggregate_ddfl([vec([1.0])], reports, 0.5)


def small_federation(mode="one_class", num_devices=4, num_classes=4, seed=0,
                     queue_fraction=0.25):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), 24)
    train = LabeledSet(rng.uniform(size=(len(labels), 6)), labels, num_classes)
    test = LabeledSet(rng.uniform(size=(20, 6)),
                      rng.integers(0, num_classes, size=20), num_classes)
    queue, residual = split_global_queue(train, queue_fraction, seed=seed)
    devices = partition(
        residual, PartitionPlan(mode, num_devices, seed=seed)
    )
    spec = ModelSpec(6, (5,), num_classes)
    model = init_model(spec, seed)
    return FederationState(devices, queue, model), spec, test


class TestRunRound:
    def test_zero_learning_rate_keeps_global_model(self):
        state, spec, test = small_federation()
        cfg = RoundConfig(spec, 0.0, 1, 8, AggregationPolicy("ddfl_entropy", 0.9),
                          1, seed=3, test_set=test)
        before = state.global_model.values.copy()
        before_acc = None
        from fedsim.nn import evaluate
        before_acc = evaluate(state.global_model, test).accuracy
        new_state, report = run_round(state, cfg)
        np.testing.assert_allclose(new_state.global_model.values, before, rtol=1e-12)
        assert report.test_accuracy == before_acc

    def test_single_device_full_selection_returns_local_model(self):
        state, spec, test = small_federation(mode="iid", num_devices=1)
        cfg = RoundConfig(spec, 0.2, 1, 8, AggregationPolicy("ddfl_entropy", 1.0),
                          1, seed=3, test_set=test)
        new_state, report = run_round(state, cfg)
        local = new_state.devices[0].model
        np.testing.assert_array_equal(new_state.global_model.values, local.values)
        assert report.selected_ids == [0]

    def test_count_baseline_equals_entropy_path_when_equal(self):
        # balanced iid shards have entropy exactly 1 and equal counts; with
        # full selection and no dispensing the two aggregators must agree
        # bit for bit
        kwargs = dict(mode="iid", num_devices=4, seed=5, queue_fraction=0.0)
        state_a, spec, test = small_federation(**kwargs)
        state_b, _, _ = small_federation(**kwargs)
        cfg_a = RoundConfig(spec, 0.3, 1, 8, AggregationPolicy("fedavg_count", 1.0),
                            0, seed=7, test_set=test)
        cfg_b = RoundConfig(spec, 0.3, 1, 8, AggregationPolicy("ddfl_entropy", 1.0),
                            0, seed=7, test_set=test)
        out_a, _ = run_round(state_a, cfg_a)
        out_b, _ = run_round(state_b, cfg_b)
        np.testing.assert_array_equal(
            out_a.global_model.values, out_b.global_model.values
        )

    def test_round_one_of_one_class_flags_fallback(self):
        state, spec, test = small_federation(mode="one_class", queue_fraction=0.0)
        cfg = RoundConfig(spec, 0.1, 1, 8, AggregationPolicy("ddfl_entropy", 0.9),
                          0, seed=1, test_set=test)
        _, report = run_round(state, cfg)
        assert report.zero_entropy_fallback
        # floor(0.9 * 4) = 3 devices kept
        assert len(report.selected_ids) == 3

    def test_selected_count_matches_fraction(self):
        state, spec, test = small_federation(num_devices=4)
        cfg = RoundConfig(spec, 0.1, 1, 8, AggregationPolicy("ddfl_entropy", 0.5),
                          1, seed=1, test_set=test)
        _, report = run_round(state, cfg)
        assert len(report.selected_ids) == max(1, math.floor(0.5 * 4))

    def test_device_order_does_not_matter(self):
        state_a, spec, test = small_federation(seed=2)
        state_b, _, _ = small_federation(seed=2)
        state_b.devices = list(reversed(state_b.devices))
        cfg = RoundConfig(spec, 0.2, 1, 8, AggregationPolicy("ddfl_entropy", 0.9),
                          1, seed=9, test_set=test)
        out_a, rep_a = run_round(state_a, cfg)
        out_b, rep_b = run_round(state_b, cfg)
        np.testing.assert_array_equal(
            out_a.global_model.values, out_b.global_model.values
        )
        assert rep_a.selected_ids == rep_b.selected_ids

    def test_worker_count_does_not_matter(self):
        state_a, spec, test = small_federation(seed=4)
        state_b, _, _ = small_federation(seed=4)
        cfg_1 = RoundConfig(spec, 0.2, 2, 8, AggregationPolicy("ddfl_entropy", 0.9),
                            1, seed=9, test_set=test, workers=1)
        cfg_4 = RoundConfig(spec, 0.2, 2, 8, AggregationPolicy("ddfl_entropy", 0.9),
                            1, seed=9, test_set=test, workers=4)
        out_a, _ = run_round(state_a, cfg_1)
        out_b, _ = run_round(state_b, cfg_4)
        np.testing.assert_array_equal(
            out_a.global_model.values, out_b.global_model.values
        )

    def test_report_contents(self):
        state, spec, test = small_federation()
        cfg = RoundConfig(spec, 0.2, 1, 8, AggregationPolicy("fedavg_count", 1.0),
                          1, seed=9, test_set=test)
        new_state, report = run_round(state, cfg)
        assert report.round_index == 0
        assert new_state.round_index == 1
        assert report.selected_ids == [0, 1, 2, 3]
        assert 0.0 <= report.test_accuracy <= 1.0
        assert [d.device_id for d in new_state.devices] == [0, 1, 2, 3]
        assert report.agg_time >= 0.0
        assert all(0.0 <= d.entropy <= 1.0 for d in new_state.devices)


class TestPolicyValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            AggregationPolicy("median", 0.5)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            AggregationPolicy("ddfl_entropy", 0.0)
        with pytest.raises(ValueError):
            AggregationPolicy("ddfl_entropy", 1.5)
