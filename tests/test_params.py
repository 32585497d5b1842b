import numpy as np
import pytest

from fedsim.params import (
    ParamVector,
    check_same_layout,
    layer_slices,
    param_count,
    split_layers,
)


def test_param_count_mnist_style_layout():
    # 784 -> 128 -> 10 dense stack: weights plus biases per layer
    layout = ((784, 128, 128), (128, 10, 10))
    assert param_count(layout) == 101_770


def test_length_must_match_layout():
    with pytest.raises(ValueError):
        ParamVector(np.zeros(5), ((2, 2, 2),))


def test_rejects_non_finite_values():
    values = np.zeros(6)
    values[3] = np.nan
    with pytest.raises(ValueError):
        ParamVector(values, ((2, 2, 2),))
    values[3] = np.inf
    with pytest.raises(ValueError):
        ParamVector(values, ((2, 2, 2),))


def test_rejects_non_vector_values():
    with pytest.raises(ValueError):
        ParamVector(np.zeros((2, 3)), ((2, 2, 2),))


def test_split_layers_shapes_and_content():
    layout = ((3, 2, 2), (2, 4, 4))
    values = np.arange(param_count(layout), dtype=float)
    layers = split_layers(values, layout)
    assert [w.shape for w, _ in layers] == [(3, 2), (2, 4)]
    assert [b.shape for _, b in layers] == [(2,), (4,)]
    # first layer weights are the first rows*cols entries in row-major order
    np.testing.assert_array_equal(layers[0][0].ravel(), np.arange(6.0))
    np.testing.assert_array_equal(layers[0][1], [6.0, 7.0])
    # views, not copies: an in-place update of the vector moves every layer
    values += 1.0
    np.testing.assert_array_equal(layers[1][1], np.arange(16.0, 20.0) + 1.0)

    # a (K, P) stack splits into (K, rows, cols) and (K, bias) views of each row
    stack = np.stack([values, -values])
    stacked = split_layers(stack, layout)
    assert [w.shape for w, _ in stacked] == [(2, 3, 2), (2, 2, 4)]
    assert [b.shape for _, b in stacked] == [(2, 2), (2, 4)]
    for k in range(2):
        for (w, b), (w_k, b_k) in zip(stacked, split_layers(stack[k], layout)):
            np.testing.assert_array_equal(w[k], w_k)
            np.testing.assert_array_equal(b[k], b_k)
    stack[1] = 0.0
    assert not stacked[0][0][1].any() and stacked[0][0][0].all()


def test_layer_slices_cover_vector_exactly():
    layout = ((5, 3, 3), (3, 2, 2))
    slices = layer_slices(layout)
    assert slices[0] == slice(0, 18)
    assert slices[1] == slice(18, 26)
    assert sum(s.stop - s.start for s in slices) == param_count(layout)


def test_check_same_layout():
    a = ParamVector(np.zeros(6), ((2, 2, 2),))
    b = ParamVector(np.ones(6), ((2, 2, 2),))
    check_same_layout(a, b)
    c = ParamVector(np.zeros(9), ((2, 3, 3),))
    with pytest.raises(ValueError, match="layouts differ"):
        check_same_layout(a, c)
