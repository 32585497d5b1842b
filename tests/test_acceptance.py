"""Acceptance suite: one test per gate, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add `-s` to see the lines as
they print). The trend gates share one set of experiment runs via a
module-scoped fixture. The MNIST gate needs the real IDX files and is an
opt-in slow test: set FEDSIM_MNIST_DIR and select it with `-m slow`.
"""

import dataclasses
import hashlib
import math
import os
import time

import numpy as np
import pytest

import fedsim as fs

SEEDS = (1, 2, 3)

TREND_CONFIG = fs.ExperimentConfig(
    dataset="synthetic",
    dataset_params={"num_classes": 10, "per_class": 125, "input_dim": 16, "spread": 0.2},
    devices=10,
    rounds=50,
    local_epochs=1,
    batch_size=20,
    learning_rate=0.5,
    queue_fraction=0.1,
    selection_fraction=0.9,
    partition_mode="one_class",
    hidden_dims=(32,),
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def trend_runs():
    """One experiment per (seed, aggregator) plus an iid reference run."""
    runs = {}
    started = time.perf_counter()
    for seed in SEEDS:
        for aggregator in ("fedavg_count", "ddfl_entropy"):
            cfg = dataclasses.replace(TREND_CONFIG, seed=seed, aggregator=aggregator)
            runs[(seed, aggregator)] = fs.run_experiment(cfg)
    runs["iid"] = fs.run_experiment(
        dataclasses.replace(
            TREND_CONFIG, seed=SEEDS[0], aggregator="fedavg_count", partition_mode="iid"
        )
    )
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_01_entropy_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(2, 16))
        counts = rng.integers(0, 200, size=size)
        if counts.sum() == 0:
            counts[int(rng.integers(size))] = 1
        value = fs.normalized_entropy(counts)
        # direct-summation oracle
        total = counts.sum()
        expected = -sum(
            (c / total) * math.log2(c / total) for c in counts if c > 0
        ) / math.log2(size)
        assert 0.0 <= value <= 1.0
        assert abs(value - expected) <= 1e-12
        nonzero = counts[counts > 0]
        uniform = bool(np.all(counts == counts[0]))
        assert (value == 1.0) == uniform
        assert (value == 0.0) == (len(nonzero) == 1)
        shuffled = counts[rng.permutation(size)]
        assert fs.normalized_entropy(shuffled) == value
        checked += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion-01 entropy",
        checked == 1000 and elapsed < 1.0,
        f"{checked} histograms in {elapsed:.2f}s",
    )


def test_criterion_02_aggregation_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    # bit-exact identity: equal entropies (uniform histograms score exactly
    # 1.0) with full selection vs equal counts
    layout = ((4, 3, 3),)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        models = rng.normal(size=(k, 15))
        reports = [
            fs.EntropyReport(i, fs.normalized_entropy([7, 7, 7]), 40) for i in range(k)
        ]
        ddfl, selected, fallback = fs.aggregate_ddfl(models, layout, reports, 1.0)
        fedavg = fs.aggregate_fedavg(models, layout, [40] * k)
        assert selected == list(range(k)) and not fallback
        assert np.array_equal(ddfl.values, fedavg.values), "bit-exact identity failed"

    # convex-combination bound on 1000 random model sets
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        models = rng.normal(size=(k, 15))
        weights = rng.uniform(0.0, 3.0, size=k)
        weights[int(rng.integers(k))] += 0.05
        out = fs.aggregate_fedavg(models, layout, weights).values
        stacked = models
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)

    elapsed = time.perf_counter() - started
    _report("criterion-02 aggregation", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_03_gradient_and_training():
    started = time.perf_counter()
    rng = np.random.default_rng(11)

    def finite_difference(model, batch, activation, step=1e-6):
        grad = np.zeros_like(model.values)
        for j in range(model.values.size):
            up = model.values.copy()
            up[j] += step
            down = model.values.copy()
            down[j] -= step
            grad[j] = (
                fs.evaluate(fs.ParamVector(up, model.layout), batch, activation).mean_loss
                - fs.evaluate(fs.ParamVector(down, model.layout), batch, activation).mean_loss
            ) / (2 * step)
        return grad

    specs = [
        fs.ModelSpec(3, (4,), 3, activation="relu"),   # 31 parameters
        fs.ModelSpec(4, (5,), 4, activation="tanh"),   # 49 parameters
        fs.ModelSpec(6, (6,), 5, activation="relu"),   # 77 parameters
    ]
    for i, spec in enumerate(specs):
        model = fs.init_model(spec, 100 + i)
        batch = fs.LabeledSet(
            rng.uniform(size=(10, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=10),
            spec.num_classes,
        )
        analytic = fs.gradient(model, batch, spec.activation).values
        numeric = finite_difference(model, batch, spec.activation)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    # zero step size is a bit-exact fixpoint
    train, _, _ = fs.make_synthetic(4, 20, 6, 0.2, seed=0)
    spec = fs.ModelSpec(6, (8,), 4)
    model = fs.init_model(spec, 0)
    cfg = fs.TrainConfig(0.0, 3, 8, seeds=[1])
    [values] = fs.local_train(model, [np.arange(len(train))], cfg, train)
    out = fs.ParamVector(values, model.layout)
    assert np.array_equal(out.values, model.values), "zero-step fixpoint failed"

    elapsed = time.perf_counter() - started
    _report("criterion-03 gradients", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_04_divergence_metric_axioms():
    rng = np.random.default_rng(13)
    layout = ((3, 2, 2), (2, 4, 4))
    size = 20

    def rand_vec():
        return fs.ParamVector(rng.normal(size=size), layout)

    for _ in range(1000):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        ab = fs.weight_divergence(a, b).total
        ba = fs.weight_divergence(b, a).total
        bc = fs.weight_divergence(b, c).total
        ac = fs.weight_divergence(a, c).total
        assert ab >= 0.0
        assert ab == ba
        assert ac <= ab + bc + 1e-12
        assert fs.weight_divergence(a, a).total == 0.0
        delta = fs.bias_term(b, a)
        assert abs(np.linalg.norm(delta.values) - ab) <= 1e-12
    _report("criterion-04 divergence", True)


def test_criterion_05_reliability_index():
    constant = fs.reliability_index([0.9] * 8)
    assert constant.zeta == 100.0
    hand = fs.reliability_index([0.81, 0.99])  # mean 0.9, population std 0.09
    assert abs(hand.zeta - 90.0) <= 1e-9
    window = fs.reliability_index([0.7, 0.8, 0.9])
    mu = (0.7 + 0.8 + 0.9) / 3
    sigma = math.sqrt(((0.7 - mu) ** 2 + (0.8 - mu) ** 2 + (0.9 - mu) ** 2) / 3)
    assert abs(window.zeta - (1 - sigma / mu) * 100) <= 1e-9
    system = fs.system_reliability_index([constant, hand])
    assert abs(system - (100.0 + hand.zeta) / 2) <= 1e-9
    _report("criterion-05 reliability", True)


def test_criterion_06_convergence_bound():
    base = fs.BoundInputs(
        smoothness=2.0,
        strong_convexity=0.4,
        grad_variances=(0.5, 0.3, 0.2, 0.6),
        grad_norm_bound=1.2,
        local_steps=1,
        num_devices=4,
        heterogeneity_gap=0.25,
        weights=(0.25, 0.25, 0.25, 0.25),
        init_distance=1.5,
        rounds=10,
    )
    # local_steps=1 removes the drift term entirely
    with_drift = dataclasses.replace(base, local_steps=2)
    drift_free = fs.convergence_bound(base).noise_term
    expected_no_drift = (
        float(np.sum(np.array(base.weights) ** 2 * np.array(base.grad_variances) ** 2))
        + 6 * base.smoothness * base.heterogeneity_gap
        + (4 / base.num_devices) * base.grad_norm_bound**2
    )
    assert abs(drift_free - expected_no_drift) <= 1e-12
    assert fs.convergence_bound(with_drift).noise_term > drift_free

    # monotone decreasing in the horizon
    horizons = [1, 3, 10, 100, 10_000, 1_000_000]
    bounds = [
        fs.convergence_bound(dataclasses.replace(base, rounds=n)).bound_at_horizon
        for n in horizons
    ]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    # uniform weights and equal variances collapse the first term to s^2/K
    k, sigma = 10, 0.9
    uniform = fs.BoundInputs(
        smoothness=1.0,
        strong_convexity=1.0,
        grad_variances=(sigma,) * k,
        grad_norm_bound=0.0,
        local_steps=1,
        num_devices=k,
        heterogeneity_gap=0.0,
        weights=(1.0 / k,) * k,
        init_distance=0.0,
        rounds=5,
    )
    assert abs(fs.convergence_bound(uniform).noise_term - sigma**2 / k) <= 1e-12
    _report("criterion-06 bound", True)


def test_criterion_07_accuracy_boost_trend(trend_runs):
    gaps = []
    for seed in SEEDS:
        base = trend_runs[(seed, "fedavg_count")].summary["final_accuracy"]
        ddfl = trend_runs[(seed, "ddfl_entropy")].summary["final_accuracy"]
        gaps.append((seed, (ddfl - base) * 100.0))
    ok = all(gap >= 3.0 for _, gap in gaps) and trend_runs["elapsed"] < 120.0
    detail = (
        ", ".join(f"seed {seed}: {gap:+.1f} pts" for seed, gap in gaps)
        + f" ({trend_runs['elapsed']:.1f}s)"
    )
    _report("criterion-07 accuracy-boost", ok, detail)


@pytest.mark.slow
def test_criterion_08_mnist_smoke_trend():
    data_dir = os.environ.get("FEDSIM_MNIST_DIR")
    if not data_dir:
        pytest.skip("set FEDSIM_MNIST_DIR to the directory with the IDX files")
    base = fs.ExperimentConfig(
        dataset="mnist",
        data_dir=data_dir,
        devices=10,
        rounds=30,
        local_epochs=1,
        batch_size=100,
        learning_rate=0.5,
        queue_fraction=0.1,
        selection_fraction=0.9,
        hidden_dims=(32,),
        seed=SEEDS[0],
    )
    iid = fs.run_experiment(
        dataclasses.replace(base, partition_mode="iid", aggregator="fedavg_count")
    ).summary["final_accuracy"]
    skewed = fs.run_experiment(
        dataclasses.replace(base, partition_mode="one_class", aggregator="fedavg_count")
    ).summary["final_accuracy"]
    dynamic = fs.run_experiment(
        dataclasses.replace(base, partition_mode="one_class", aggregator="ddfl_entropy")
    ).summary["final_accuracy"]
    baseline_gap = iid - skewed
    dynamic_gap = iid - dynamic
    _report(
        "criterion-08 mnist-trend",
        baseline_gap > dynamic_gap,
        f"iid {iid:.4f}, one-class baseline {skewed:.4f}, dynamic {dynamic:.4f}",
    )


def test_criterion_09_entropy_dynamics(trend_runs):
    details = []
    ok = True
    for seed in SEEDS:
        rows = trend_runs[(seed, "ddfl_entropy")].rows
        means = [r.mean_entropy for r in rows]
        nondecreasing = all(b >= a for a, b in zip(means, means[1:]))
        rise = means[-1] - means[0]
        ok = ok and nondecreasing and rise >= 0.2
        details.append(f"seed {seed}: rise {rise:.3f} nondec={nondecreasing}")
    _report("criterion-09 entropy-dynamics", ok, "; ".join(details))


def test_criterion_10_divergence_trend(trend_runs):
    one_class = trend_runs[(SEEDS[0], "fedavg_count")].rows[-1].mean_weight_divergence
    iid = trend_runs["iid"].rows[-1].mean_weight_divergence
    partition_ok = one_class > iid

    wins = 0
    for seed in SEEDS:
        base = trend_runs[(seed, "fedavg_count")].rows[-1].mean_bias_norm
        ddfl = trend_runs[(seed, "ddfl_entropy")].rows[-1].mean_bias_norm
        wins += int(ddfl < base)
    _report(
        "criterion-10 divergence-trend",
        partition_ok and wins >= 2,
        f"one_class {one_class:.3f} vs iid {iid:.3f}; lower-bias wins {wins}/3",
    )


def test_criterion_11_determinism_across_workers(tmp_path):
    outputs = {}
    for workers in (1, 2):
        for aggregator in ("fedavg_count", "ddfl_entropy"):
            cfg = dataclasses.replace(
                TREND_CONFIG,
                seed=SEEDS[0],
                aggregator=aggregator,
                workers=workers,
                output_dir=str(tmp_path / f"w{workers}_{aggregator}"),
            )
            fs.run_experiment(cfg)
            outputs[(workers, aggregator)] = (
                tmp_path / f"w{workers}_{aggregator}" / "metrics.csv"
            ).read_bytes()
    ok = all(
        outputs[(1, agg)] == outputs[(2, agg)]
        for agg in ("fedavg_count", "ddfl_entropy")
    )
    _report("criterion-11 determinism", ok, "metrics.csv byte-identical for 1 vs 2 workers")
    # sha256 prefixes of the trend config's metrics.csv at seed 1 (see ROADMAP.md)
    golden = {"fedavg_count": "0a99cebac506e358", "ddfl_entropy": "eb2a8629213f7c81"}
    digests = {agg: hashlib.sha256(outputs[(1, agg)]).hexdigest()[:16] for agg in golden}
    _report("criterion-11 golden bytes", digests == golden, f"metrics.csv sha256 {digests}")
