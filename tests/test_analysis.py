import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.analysis import (
    BoundInputs,
    bank_divergence,
    bias_term,
    convergence_bound,
    reliability_index,
    system_reliability_index,
    weight_divergence,
)
from fedsim.params import ParamVector, layer_slices


def vec(values, layout=None):
    values = np.asarray(values, dtype=float)
    if layout is None:
        layout = ((1, values.size, 0),)
    return ParamVector(values, layout)


def random_pair(rng, layout=((3, 2, 2), (2, 4, 4))):
    size = sum(r * c + b for r, c, b in layout)
    return (
        ParamVector(rng.normal(size=size), layout),
        ParamVector(rng.normal(size=size), layout),
    )


class TestWeightDivergence:
    def test_identical_vectors(self):
        a = vec([1.0, 2.0, 3.0])
        record = weight_divergence(a, a)
        assert record.total == 0.0
        assert record.per_layer == (0.0,)

    def test_three_four_five(self):
        a = vec([0.0, 0.0], layout=((1, 1, 1),))
        b = vec([3.0, 4.0], layout=((1, 1, 1),))
        record = weight_divergence(a, b)
        assert record.total == pytest.approx(5.0, abs=1e-15)
        assert record.per_layer == (record.total,)

    def test_total_consistent_with_layers(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_pair(rng)
            record = weight_divergence(a, b)
            assert record.total**2 == pytest.approx(
                sum(v**2 for v in record.per_layer), rel=1e-9
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_pair(rng)
            ab = weight_divergence(a, b).total
            ba = weight_divergence(b, a).total
            assert ab >= 0.0
            assert ab == ba
        for _ in range(1000):
            a, b = random_pair(rng)
            c = ParamVector(rng.normal(size=len(a)), a.layout)
            ab = weight_divergence(a, b).total
            bc = weight_divergence(b, c).total
            ac = weight_divergence(a, c).total
            assert ac <= ab + bc + 1e-12
        a, _ = random_pair(rng)
        assert weight_divergence(a, a).total == 0.0

    def test_layout_mismatch(self):
        with pytest.raises(ValueError, match="layouts differ"):
            weight_divergence(vec([1.0, 2.0]), vec([1.0, 2.0, 3.0]))


class TestBiasTerm:
    def test_zero_for_identical(self):
        a = vec([1.0, -1.0])
        np.testing.assert_array_equal(bias_term(a, a).values, 0.0)

    def test_hand_case(self):
        local = vec([2.0, 3.0])
        shared = vec([1.0, 1.0])
        delta = bias_term(local, shared)
        np.testing.assert_array_equal(delta.values, [1.0, 2.0])
        assert np.linalg.norm(delta.values) == pytest.approx(math.sqrt(5.0), abs=1e-15)

    def test_norm_equals_divergence_total(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = random_pair(rng)
            delta = bias_term(b, a)
            record = weight_divergence(a, b)
            assert np.linalg.norm(delta.values) == pytest.approx(
                record.total, abs=1e-12
            )

    def test_count_weighted_reconstruction(self):
        # the count-weighted mean plus count-weighted biases reproduces the
        # count-weighted mean of the locals exactly
        rng = np.random.default_rng(4)
        locals_ = [vec(rng.normal(size=6)) for _ in range(5)]
        counts = rng.integers(1, 50, size=5).astype(float)
        p = counts / counts.sum()
        pooled = np.sum([pi * m.values for pi, m in zip(p, locals_)], axis=0)
        shared = vec(pooled)
        reconstructed = shared.values + np.sum(
            [pi * bias_term(m, shared).values for pi, m in zip(p, locals_)], axis=0
        )
        np.testing.assert_allclose(reconstructed, pooled, atol=1e-9)


@st.composite
def banks(draw):
    """A global model and a (K, P) bank of models with its layout, at one
    random scale."""
    layout = tuple(
        (rows, cols, draw(st.sampled_from([0, cols])))
        for rows, cols in draw(
            st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), min_size=1, max_size=3)
        )
    )
    size = sum(r * c + b for r, c, b in layout)
    # beyond 128 rows, bank_divergence takes the rows in several passes
    k = draw(st.one_of(st.integers(1, 12), st.integers(120, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-8, 8))
    global_model = ParamVector(rng.normal(size=size) * scale, layout)
    return global_model, global_model.values + rng.normal(size=(k, size)) * scale


class TestBankDivergence:
    @settings(max_examples=80, deadline=None)
    @given(banks())
    def test_rows_match_the_vector_norm_bit_for_bit(self, case):
        global_model, bank = case
        totals, per_layer = bank_divergence(global_model, bank)
        assert totals.shape == (len(bank),)
        assert per_layer.shape == (len(bank), len(global_model.layout))
        for k, row in enumerate(bank):
            diff = global_model.values - row
            assert totals[k] == np.linalg.norm(diff)
            for layer, s in enumerate(layer_slices(global_model.layout)):
                assert per_layer[k, layer] == np.linalg.norm(diff[s])

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="bank width"):
            bank_divergence(vec([1.0, 2.0]), np.zeros((3, 4)))


class TestReliabilityIndex:
    def test_constant_accuracies_score_one_hundred(self):
        record = reliability_index([0.85] * 12)
        assert record.zeta == 100.0
        assert record.std == 0.0

    def test_hand_computed_case(self):
        # mean 0.9, population std 0.09
        record = reliability_index([0.81, 0.99])
        assert record.mean == pytest.approx(0.9, abs=1e-12)
        assert record.std == pytest.approx(0.09, abs=1e-12)
        assert record.zeta == pytest.approx(90.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.5, 1.0, size=20)
        base = reliability_index(values).zeta
        for c in (0.1, 2.0, 7.5):
            scaled = reliability_index(values * c).zeta
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_batch_size_context(self):
        record = reliability_index([0.5, 0.6], batch_size=100)
        assert record.batch_size == 100

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one accuracy"):
            reliability_index([])
        with pytest.raises(ValueError, match="mean accuracy must be positive"):
            reliability_index([0.0, 0.0])

    def test_system_index_is_mean(self):
        records = [reliability_index([v]) for v in (0.5, 0.6, 0.7)]
        assert system_reliability_index(records) == pytest.approx(100.0)
        assert system_reliability_index([90.0, 100.0]) == pytest.approx(95.0)
        with pytest.raises(ValueError, match="at least one reliability score"):
            system_reliability_index([])


def bound_inputs(**overrides):
    defaults = dict(
        smoothness=4.0,
        strong_convexity=0.5,
        grad_variances=(0.3, 0.2, 0.4, 0.1),
        grad_norm_bound=1.5,
        local_steps=3,
        num_devices=4,
        heterogeneity_gap=0.2,
        weights=(0.25, 0.25, 0.25, 0.25),
        init_distance=2.0,
        rounds=100,
    )
    defaults.update(overrides)
    return BoundInputs(**defaults)


class TestConvergenceBound:
    def test_single_local_step_zeroes_drift_term(self):
        inputs = bound_inputs(local_steps=1)
        result = convergence_bound(inputs)
        sigmas = np.array(inputs.grad_variances)
        weights = np.array(inputs.weights)
        expected = (
            float((weights**2) @ (sigmas**2))
            + 6.0 * inputs.smoothness * inputs.heterogeneity_gap
            + (4.0 / inputs.num_devices) * inputs.grad_norm_bound**2
        )
        assert result.noise_term == pytest.approx(expected, rel=1e-15)

    def test_uniform_weights_simplify_first_term(self):
        k, sigma = 8, 0.7
        inputs = bound_inputs(
            grad_variances=(sigma,) * k,
            weights=(1.0 / k,) * k,
            num_devices=k,
            grad_norm_bound=0.0,
            heterogeneity_gap=0.0,
        )
        result = convergence_bound(inputs)
        assert result.noise_term == pytest.approx(sigma**2 / k, abs=1e-12)

    def test_monotone_decreasing_in_rounds(self):
        values = [
            convergence_bound(bound_inputs(rounds=n)).bound_at_horizon
            for n in (1, 10, 100, 1000, 10_000)
        ]
        assert all(b > a for a, b in zip(values[1:], values))

    def test_vanishes_for_large_horizons(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            mu = float(rng.uniform(0.05, 2.0))
            k = int(rng.integers(1, 6))
            weights = rng.uniform(0.1, 1.0, size=k)
            weights /= weights.sum()
            inputs = bound_inputs(
                smoothness=mu * float(rng.uniform(1.0, 10.0)),
                strong_convexity=mu,
                grad_variances=tuple(rng.uniform(0.0, 1.0, size=k)),
                grad_norm_bound=float(rng.uniform(0.0, 2.0)),
                local_steps=int(rng.integers(1, 8)),
                num_devices=k,
                heterogeneity_gap=float(rng.uniform(0.0, 1.0)),
                weights=tuple(weights),
                init_distance=float(rng.uniform(0.0, 4.0)),
            )
            small = convergence_bound(
                BoundInputs(**{**inputs.__dict__, "rounds": 10**6})
            ).bound_at_horizon
            large = convergence_bound(
                BoundInputs(**{**inputs.__dict__, "rounds": 10**2})
            ).bound_at_horizon
            assert small < large

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="strong_convexity <= smoothness"):
            convergence_bound(bound_inputs(strong_convexity=5.0))  # mu > L
        with pytest.raises(ValueError, match="one variance and one weight per device"):
            convergence_bound(bound_inputs(grad_variances=(0.1, 0.2)))
        with pytest.raises(ValueError, match="weights must sum to 1"):
            convergence_bound(bound_inputs(weights=(0.5, 0.5, 0.5, 0.5)))
        with pytest.raises(ValueError, match="must be nonnegative"):
            convergence_bound(bound_inputs(heterogeneity_gap=-0.1))
        with pytest.raises(ValueError, match="rounds must be positive"):
            convergence_bound(bound_inputs(rounds=0))
