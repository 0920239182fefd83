"""Dimension-wise operators: interleaving, fused/unfused equivalence, costs."""

import numpy as np
import pytest

from dicekit import bench, verify
from dicekit import tensorops as T
from dicekit.dimops import (
    DimConvParams,
    dimconv_fused,
    dimconv_macs,
    dimconv_unfused,
    dimfuse_cost,
    dimfuse_reduction_factor,
)
from dicekit.tensorops import ConvKernelBank, KernelError


def test_dimconv_interleaving_order(rng):
    x = rng.standard_normal((1, 3, 5, 4))
    p = DimConvParams.init(3, 5, 4, 3, rng)
    out = dimconv_unfused(x, p)
    assert out.shape == (1, 9, 5, 4)
    np.testing.assert_array_equal(out[:, 0::3], T.depthwise_conv(x, p.k_d))
    np.testing.assert_array_equal(out[:, 1::3], T.widthwise_conv(x, p.k_w))
    np.testing.assert_array_equal(out[:, 2::3], T.heightwise_conv(x, p.k_h))


def test_dimconv_delta_replicates_input(rng):
    # identity banks: centre tap 1, every other tap 0
    x = rng.standard_normal((2, 4, 6, 6))
    taps = np.zeros((6, 3, 3))
    taps[:, 1, 1] = 1.0
    p = DimConvParams(k_d=ConvKernelBank(taps[:4]), k_w=ConvKernelBank(taps),
                      k_h=ConvKernelBank(taps))
    out = dimconv_fused(x, p)
    for k in range(3):
        np.testing.assert_array_equal(out[:, k::3], x)


def test_fused_equals_unfused_bitwise(rng):
    for _ in range(10):
        c = int(rng.integers(1, 10))
        h = int(rng.integers(2, 12))
        w = int(rng.integers(2, 12))
        x = rng.standard_normal((int(rng.integers(1, 3)), c, h, w))
        p = DimConvParams.init(c, h, w, 3, rng)
        np.testing.assert_array_equal(dimconv_fused(x, p), dimconv_unfused(x, p))


# (batch, channels, height, width): the DimConv shapes the benchmark's
# workloads run, s1.0's stages at batch 1 and 8 and dicenet-micro's at 64;
# at the shipped BLOCK_BYTES most of them span several image blocks
WORKLOAD_SHAPES = [(nb, c, hw, hw) for nb in (1, 8)
                   for c, hw in ((24, 28), (58, 28), (116, 14), (232, 7))] \
    + [(64, 8, 4, 4), (64, 16, 2, 2)]


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES, ids=str)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_equals_unfused_at_workload_shapes(dtype, shape):
    rng = np.random.default_rng(23)
    _, c, h, w = shape
    x = verify.signed_zeros(rng, rng.standard_normal(shape)).astype(dtype)
    p = DimConvParams.init(c, h, w, 3, rng, dtype)
    fused, unfused = dimconv_fused(x, p), dimconv_unfused(x, p)
    assert fused.dtype == unfused.dtype and fused.tobytes() == unfused.tobytes()


def _spy_channel_blocks(monkeypatch):
    """Record the channel blocks of every tap-run sweep."""
    seen = []
    real = T.channel_blocks

    def spy(c, run):
        seen.append(real(c, run))
        return seen[-1]

    monkeypatch.setattr(T, "channel_blocks", spy)
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_channel_blocks_keep_the_bytes(monkeypatch, dtype):
    from dicekit import oracle as orc
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 6, 7)).astype(dtype)
    for n in (1, 3, 5):
        p = DimConvParams.init(5, 6, 7, n, rng, dtype)
        whole = dimconv_fused(x, p)
        # one image per block, swept once per branch; the depth sweep runs
        # two channels per block, whose runs are 6 rows of 7 + n - 1
        # columns: each image's depth sweep runs as 2 + 2 + 1
        with monkeypatch.context() as m:
            m.setattr(T, "BLOCK_BYTES", 2 * 8 * 6 * (7 + n - 1))
            seen = _spy_channel_blocks(m)
            blocked = dimconv_fused(x, p)
        assert len(seen) == 3 * 2 and seen[0::3] == [[(0, 2), (2, 4), (4, 5)]] * 2, n
        ref, _ = orc.oracle_dimconv(x, p)
        for out in (blocked, dimconv_unfused(x, p), ref):
            assert out.dtype == whole.dtype and out.tobytes() == whole.tobytes(), n


# (batch, channels, height, width, n): 1 px wide planes at n = 5, where junk
# columns outnumber real ones and the runs reach the spare row; a batch
# longer and one shorter than the rows
TAP_RUN_CASES = [(1, 3, 4, 1, 5), (3, 2, 1, 1, 5), (7, 4, 5, 1, 5), (6, 3, 3, 2, 3),
                 (1, 4, 5, 7, 3), (2, 3, 6, 9, 1), (2, 2, 2, 3, 5)]


@pytest.mark.parametrize("blocked", [False, True], ids=["whole", "channel_blocks"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tap_runs_match_the_oracle(monkeypatch, dtype, blocked):
    from dicekit import oracle as orc
    rng = np.random.default_rng(17)
    for nb, c, h, w, n in TAP_RUN_CASES:
        x = verify.signed_zeros(rng, rng.standard_normal((nb, c, h, w))).astype(dtype)
        bank = ConvKernelBank.random(c, n, rng, dtype)
        p = DimConvParams.init(c, h, w, n, rng, dtype)
        with monkeypatch.context() as m:
            seen = _spy_channel_blocks(m)
            if blocked:
                # one image block holds the whole batch, a channel block less
                # than all channels
                m.setattr(T, "BLOCK_BYTES", 8 * x.size)
            y_depth = T.depthwise_conv(x, bank)
            y_dim = dimconv_fused(x, p)
        # one sweep for depthwise, then DimConv's depth, width and height
        # sweeps, whose kernel indices are the channels, columns and rows
        assert len(seen) == 4
        if blocked and n > 1:
            assert all(len(blocks) > 1 for blocks, count in zip(seen, (c, c, w, h))
                       if count >= 2)
        ref, _ = orc.oracle_depthwise(x, bank, 1)
        assert y_depth.dtype == x.dtype and y_depth.tobytes() == ref.tobytes()
        ref, _ = orc.oracle_dimconv(x, p)
        for other in (ref, dimconv_unfused(x, p)):
            assert y_dim.dtype == other.dtype and y_dim.tobytes() == other.tobytes()


def test_dimconv_rejects_off_nominal(rng):
    p = DimConvParams.init(3, 5, 4, 3, rng)
    with pytest.raises(KernelError):
        dimconv_fused(rng.standard_normal((1, 3, 4, 4)), p)
    with pytest.raises(KernelError):
        dimconv_fused(rng.standard_normal((1, 2, 5, 4)), p)


def test_dimconv_macs_formula():
    assert dimconv_macs(4, 8, 8, 3) == 3 * 9 * 8 * 8 * 4
    assert dimconv_macs(1, 1, 1, 1) == 3


def test_reduction_factor_values():
    assert dimfuse_reduction_factor(116, 3) == 2.71875
    assert abs(dimfuse_reduction_factor(10 ** 8, 3) - 3.0) < 1e-6
    # monotone increasing in the channel count
    vals = [dimfuse_reduction_factor(c, 3) for c in (8, 32, 128, 512)]
    assert vals == sorted(vals)


def test_dimfuse_cost_reports_both_accountings():
    cost = dimfuse_cost(116, 28, 28, 3)
    assert cost["closed_form"] == 28 * 28 * 116 * (3 + 9 + 116)
    assert cost["component_sum"] == (3 * 28 * 28 * 116 + 9 * 28 * 28 * 116
                                     + 116 * 116 / 2 + 2 * 28 * 28 * 116)
    assert cost["closed_form"] != cost["component_sum"]
    with pytest.raises(KernelError):
        dimfuse_cost(0, 28, 28, 3)


@pytest.mark.parametrize("shape", [(8, 8, 8), (58, 28, 28)])
def test_bench_refuses_slot_swapped_dimconv(monkeypatch, shape):
    # swapping the width and height slots keeps every value, so a float
    # sum of the output cannot tell; the bench checksum must
    def swapped(x, p):
        out = dimconv_fused(x, p)
        out[:, 1::3], out[:, 2::3] = out[:, 2::3].copy(), out[:, 1::3].copy()
        return out

    monkeypatch.setattr(bench, "dimconv_fused", swapped)
    with pytest.raises(bench.BenchError):
        bench.compare_fused_unfused(shape, repeats=1, warmup=0)


# "both" is the command line's pair of variants, not one variant
@pytest.mark.parametrize("impl", ["default", "dimfuse", "both"])
def test_bench_rejects_unknown_variant(impl):
    with pytest.raises(bench.BenchError, match="unknown bench variant"):
        bench.run_bench(impl, (4, 6, 6), repeats=1, warmup=0)
