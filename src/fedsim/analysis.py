"""Diagnostics: weight divergence, bias vectors, reliability, convergence bound.

All operations here are pure functions over parameter vectors, (K, P)
banks of them, or plain numbers, and are safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamVector, check_same_layout, layer_slices


@dataclass(frozen=True)
class DivergenceRecord:
    """Euclidean distance between two models, per layer and in total."""

    per_layer: tuple[float, ...]
    total: float


# floats per bank_divergence pass: it takes as many whole rows as fit, and at
# least one, so its difference block stays about 1 MB whatever the bank size
_CHUNK_FLOATS = 2**17


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # one dot per row, as np.linalg.norm of a vector does, so the bits match
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def bank_divergence(global_model: ParamVector, bank: np.ndarray) -> tuple[np.ndarray, ...]:
    """`weight_divergence` of each row of a (K, P) model bank, bit for bit:
    the (K,) totals and the (K, L) per-layer norms. Each row's norms are its
    own dots, so taking as many rows at a time as fit `_CHUNK_FLOATS` keeps
    the bits."""
    if bank.shape[1] != len(global_model):
        raise ValueError(f"bank width {bank.shape[1]} != model size {len(global_model)}")
    slices = layer_slices(global_model.layout)
    totals, per_layer = np.empty(len(bank)), np.empty((len(bank), len(slices)))
    step = max(1, _CHUNK_FLOATS // bank.shape[1])
    # one block for every pass: a fresh difference per pass would be made
    # while the last one is still held, two blocks at the peak
    block = np.empty((min(step, len(bank)), bank.shape[1]))
    for lo in range(0, len(bank), step):
        rows = bank[lo : lo + step]
        diff = np.subtract(global_model.values, rows, out=block[: len(rows)])
        totals[lo : lo + len(diff)] = _row_norms(diff)
        per_layer[lo : lo + len(diff)] = np.stack([_row_norms(diff[:, s]) for s in slices], 1)
    return totals, per_layer


def weight_divergence(global_model: ParamVector, local_model: ParamVector) -> DivergenceRecord:
    """Per-layer and total Euclidean distance; symmetric in its arguments."""
    check_same_layout(global_model, local_model)
    totals, per_layer = bank_divergence(global_model, local_model.values[None, :])
    return DivergenceRecord(per_layer=tuple(per_layer[0].tolist()), total=float(totals[0]))


def bias_term(local_model: ParamVector, global_model: ParamVector) -> ParamVector:
    """Elementwise difference local - global; its norm equals the divergence total."""
    check_same_layout(local_model, global_model)
    return ParamVector(local_model.values - global_model.values, local_model.layout)


@dataclass(frozen=True)
class ReliabilityRecord:
    mean: float
    std: float
    zeta: float
    batch_size: int | None = None


def reliability_index(accuracies, batch_size: int | None = None) -> ReliabilityRecord:
    """Stability score (1 - std/mean) * 100 over per-batch test accuracies.

    Uses the population standard deviation; identical accuracies score
    exactly 100. Invariant under scaling all accuracies by the same positive
    factor.
    """
    values = np.asarray(accuracies, dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one accuracy value")
    mean = float(values.mean())
    if mean <= 0.0:
        raise ValueError("mean accuracy must be positive")
    std = float(values.std())
    return ReliabilityRecord(
        mean=mean, std=std, zeta=(1.0 - std / mean) * 100.0, batch_size=batch_size
    )


def system_reliability_index(zetas) -> float:
    """Mean of per-setting reliability scores."""
    values = [r.zeta if isinstance(r, ReliabilityRecord) else float(r) for r in zetas]
    if not values:
        raise ValueError("need at least one reliability score")
    return float(np.mean(values))


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the convergence-bound calculator.

    smoothness / strong_convexity bound the local objectives, grad_variances
    holds one stochastic-gradient variance per device, grad_norm_bound caps
    the expected gradient norm, local_steps is the number of local updates
    per round, heterogeneity_gap the pooled-vs-local optimum gap, weights the
    per-device aggregation weights (summing to 1), init_distance the distance
    from the initial to the optimal model, and rounds the horizon.
    """

    smoothness: float
    strong_convexity: float
    grad_variances: tuple[float, ...]
    grad_norm_bound: float
    local_steps: int
    num_devices: int
    heterogeneity_gap: float
    weights: tuple[float, ...]
    init_distance: float
    rounds: int


@dataclass(frozen=True)
class BoundResult:
    noise_term: float
    bound_at_horizon: float


def convergence_bound(inputs: BoundInputs) -> BoundResult:
    """Optimality-gap bound for strongly convex objectives after N rounds.

    The noise term combines weighted gradient variances, the heterogeneity
    gap, and drift from multiple local steps:

        B = sum_k p_k^2 sigma_k^2 + 6 L Gap + 8 (E-1)^2 G^2 + (4/K) E^2 G^2

    and the bound after N rounds is

        kappa / (rho + N - 1) * (2 B / mu + (mu * rho / 2) * d0^2)

    with kappa = L/mu and rho = max(8 kappa, E). The bound decreases
    monotonically in N.
    """
    L = float(inputs.smoothness)
    mu = float(inputs.strong_convexity)
    sigmas = np.asarray(inputs.grad_variances, dtype=np.float64)
    weights = np.asarray(inputs.weights, dtype=np.float64)
    G = float(inputs.grad_norm_bound)
    E = int(inputs.local_steps)
    K = int(inputs.num_devices)
    gap = float(inputs.heterogeneity_gap)
    d0 = float(inputs.init_distance)
    N = int(inputs.rounds)

    if mu <= 0 or L < mu:
        raise ValueError("need 0 < strong_convexity <= smoothness")
    if sigmas.shape != weights.shape or sigmas.shape != (K,):
        raise ValueError("need one variance and one weight per device")
    if np.any(sigmas < 0) or G < 0 or gap < 0 or d0 < 0:
        raise ValueError("variances, gradient bound, gap, distance must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    if E < 1 or K < 1 or N < 1:
        raise ValueError("local_steps, num_devices, rounds must be positive")

    noise = (
        float((weights**2) @ (sigmas**2))
        + 6.0 * L * gap
        + 8.0 * (E - 1) ** 2 * G**2
        + (4.0 / K) * E**2 * G**2
    )
    kappa = L / mu
    rho = max(8.0 * kappa, float(E))
    bound = kappa / (rho + N - 1.0) * (2.0 * noise / mu + (mu * rho / 2.0) * d0**2)
    return BoundResult(noise_term=noise, bound_at_horizon=bound)
