"""Flat model-parameter vectors with an explicit per-layer layout.

A ParamVector holds one model: the global model, or one row of a round's
(K, P) bank of local models taken out alone. The layout records
(rows, cols, bias_len) for each dense layer, so vectors from different
architectures can never be combined by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (rows, cols, bias_len) per layer; rows is the layer input width.
Layout = tuple[tuple[int, int, int], ...]


def param_count(layout: Layout) -> int:
    """Total number of scalars a layout describes."""
    return sum(rows * cols + bias for rows, cols, bias in layout)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """All model parameters flattened into one float64 vector.

    Each layer occupies a contiguous slice: the weight matrix in row-major
    order followed by the bias. Values must be finite; combining two vectors
    requires identical layouts.
    """

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("parameter values must be a one-dimensional vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter values must be finite (no NaN or Inf)")
        expected = param_count(self.layout)
        if values.shape[0] != expected:
            raise ValueError(
                f"layout describes {expected} parameters, got {values.shape[0]}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "layout", tuple(tuple(spec) for spec in self.layout))

    def __len__(self) -> int:
        return int(self.values.shape[0])


def split_layers(values: np.ndarray, layout: Layout) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a flat vector as (weights, bias) arrays, one pair per layer.

    `values` may carry leading axes, such as a (K, P) stack of K vectors;
    the views then carry them too: (K, rows, cols) weights, (K, bias_len)
    biases. An in-place update of `values` shows in every view, so SGD can
    update the vector without splitting it again.
    """
    lead = values.shape[:-1]
    out = []
    offset = 0
    for rows, cols, bias_len in layout:
        weights = values[..., offset : offset + rows * cols].reshape(*lead, rows, cols)
        offset += rows * cols
        bias = values[..., offset : offset + bias_len]
        offset += bias_len
        out.append((weights, bias))
    return out


def layer_slices(layout: Layout) -> list[slice]:
    """Flat-vector slice covering each layer's weights plus bias."""
    out = []
    offset = 0
    for rows, cols, bias_len in layout:
        size = rows * cols + bias_len
        out.append(slice(offset, offset + size))
        offset += size
    return out


def check_same_layout(a: ParamVector, b: ParamVector) -> None:
    if a.layout != b.layout:
        raise ValueError(f"layouts differ: {a.layout} vs {b.layout}")
