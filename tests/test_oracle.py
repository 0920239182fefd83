"""The naive reference implementations and the finite-difference checker."""

import numpy as np
import pytest

from dicekit import oracle as orc
from dicekit import tensorops as T
from dicekit.dimops import DimConvParams
from dicekit.oracle import OracleCounter, finite_diff_grad
from dicekit.tensorops import ConvKernelBank


def test_counter_tally():
    c = OracleCounter()
    c.tally()
    c.tally(5)
    assert c.mac_count == 6


def test_depthwise_counter_closed_form(rng):
    x = rng.standard_normal((1, 4, 8, 8))
    bank = ConvKernelBank.random(4, 3, rng)
    _, counter = orc.oracle_depthwise(x, bank)
    assert counter.mac_count == 4 * 8 * 8 * 9


def test_counter_scales_with_batch(rng):
    bank = ConvKernelBank.random(2, 3, rng)
    _, c1 = orc.oracle_depthwise(rng.standard_normal((1, 2, 4, 4)), bank)
    _, c3 = orc.oracle_depthwise(rng.standard_normal((3, 2, 4, 4)), bank)
    assert c3.mac_count == 3 * c1.mac_count


def test_dimconv_counter_is_three_branches(rng):
    x = rng.standard_normal((1, 4, 8, 8))
    p = DimConvParams.init(4, 8, 8, 3, rng)
    _, counter = orc.oracle_dimconv(x, p)
    assert counter.mac_count == 3 * 2304


def test_oracle_pointwise_stride_and_groups(rng):
    x = rng.standard_normal((1, 4, 6, 6))
    w = rng.standard_normal((4, 2))
    y, counter = orc.oracle_pointwise(x, w, groups=2, stride=2)
    np.testing.assert_array_equal(y, T.pointwise_conv(x, w, groups=2, stride=2))
    assert counter.mac_count == 4 * 2 * 3 * 3


def test_oracle_linear_bias(rng):
    # a fully connected layer is oracle_pointwise on a 1x1 image, groups
    # allowed; the bias is added untallied
    x = rng.standard_normal((3, 4, 1, 1))
    w = rng.standard_normal((6, 2))
    b = rng.standard_normal(6)
    y, counter = orc.oracle_pointwise(x, w, groups=2, bias=b)
    np.testing.assert_array_equal(y, T.pointwise_conv(x, w, groups=2, bias=b))
    x2 = x[:, :, 0, 0]
    want = np.concatenate([x2[:, :2] @ w[:3].T, x2[:, 2:] @ w[3:].T], axis=1) + b
    assert np.allclose(y[:, :, 0, 0], want, atol=1e-12)
    assert counter.mac_count == 3 * 6 * 2


def test_oracle_avg_pool_counts_window(rng):
    # average pooling is the oracle's depthwise loop with the constant bank
    x = rng.standard_normal((1, 2, 6, 6))
    y, counter = orc.oracle_depthwise(x, T.avg_bank(2, 3), 2)
    np.testing.assert_array_equal(y, T.depthwise_conv(x, T.avg_bank(2, 3), 2))
    assert counter.mac_count == 2 * 3 * 3 * 9


def test_oracle_global_avg(rng):
    x = rng.standard_normal((2, 3, 4, 5))
    y, counter = orc.oracle_global_avg(x)
    np.testing.assert_allclose(y, T.pool(x, "global_avg"), atol=1e-13)
    assert counter.mac_count == 2 * 3 * 4 * 5


def test_oracle_bilinear_matches_fast(rng):
    x = rng.standard_normal((1, 2, 6, 5))
    a = orc.oracle_bilinear(x, 9, 8)
    b = T.bilinear_resize(x, 9, 8)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_finite_diff_on_quadratic():
    g = finite_diff_grad(lambda p: float(p[0] * p[0]), np.array([3.0]))
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_linear_is_exact():
    w = np.array([2.0, -1.5, 0.25])
    g = finite_diff_grad(lambda p: float(p @ w), np.zeros(3), h=0.1)
    np.testing.assert_allclose(g, w, atol=1e-12)


def test_finite_diff_rejects_bad_inputs():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: 0.0, np.zeros(2), h=0.0)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda p: float("nan"), np.zeros(2))


def test_oracle_max_pool_follows_np_maximum_tap_by_tap():
    # k = 3 at stride 2 on a 1x2 plane: one window, whose real taps are the
    # two pixels, in order, after four -inf padding taps
    for a, b in ((0.0, -0.0), (-0.0, 0.0), (np.nan, 1.0), (1.0, np.nan),
                 (-np.inf, -np.inf), (2.0, 2.0)):
        x = np.array([[[[a, b]]]])
        want = np.maximum(np.maximum(np.float64(-np.inf), a), b)
        for dtype in (np.float64, np.float32):
            y = orc.oracle_max_pool(x.astype(dtype), 3, 2)
            assert y.shape == (1, 1, 1, 1) and y.dtype == dtype
            assert y.tobytes() == np.array(want, dtype=dtype).tobytes(), (a, b)
            assert y.tobytes() == T.pool(x.astype(dtype), "max", 3, 2).tobytes(), (a, b)
