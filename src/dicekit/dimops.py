"""Dimension-wise convolution (DimConv): the three-branch reference, its
fused single-pass variant, and the closed-form costs of DimConv and of the
fusion stage (DimFuse), which `netbuilder.DiceUnit` runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorops as T
from .tensorops import (
    ConvKernelBank,
    KernelError,
    check_tensor,
    depthwise_conv,
    heightwise_conv,
    widthwise_conv,
)


@dataclass(frozen=True)
class DimConvParams:
    """Kernel banks for the three branches.

    k_d has one n x n kernel per channel, k_w one per width index of the
    nominal grid, k_h one per height index.
    """

    k_d: ConvKernelBank
    k_w: ConvKernelBank
    k_h: ConvKernelBank

    def __post_init__(self):
        if not (self.k_d.n == self.k_w.n == self.k_h.n):
            raise KernelError("all three banks must share the same kernel extent")

    @property
    def n(self) -> int:
        return self.k_d.n

    @property
    def nominal_h(self) -> int:
        return self.k_h.count

    @property
    def nominal_w(self) -> int:
        return self.k_w.count

    @staticmethod
    def init(c: int, nominal_h: int, nominal_w: int, n: int,
             rng: np.random.Generator, dtype=np.float64) -> "DimConvParams":
        return DimConvParams(
            k_d=ConvKernelBank.random(c, n, rng, dtype),
            k_w=ConvKernelBank.random(nominal_w, n, rng, dtype),
            k_h=ConvKernelBank.random(nominal_h, n, rng, dtype),
        )


def _check_nominal(x, p: DimConvParams):
    nb, c, h, w = x.shape
    if p.k_d.count != c:
        raise KernelError(f"depth bank sized for {p.k_d.count} channels, input has {c}")
    if h != p.nominal_h or w != p.nominal_w:
        raise KernelError(
            f"input spatial size {(h, w)} != nominal {(p.nominal_h, p.nominal_w)}")


def dimconv_unfused(x: np.ndarray, p: DimConvParams) -> np.ndarray:
    """Three-pass reference: run each branch, then interleave channel-wise.

    Output channel 3c+0 is the depth branch for input channel c, 3c+1 the
    width branch, 3c+2 the height branch.
    """
    check_tensor(x)
    _check_nominal(x, p)
    y_d = depthwise_conv(x, p.k_d)
    y_w = widthwise_conv(x, p.k_w)
    y_h = heightwise_conv(x, p.k_h)
    nb, c, h, w = x.shape
    out = np.empty((nb, 3 * c, h, w), dtype=x.dtype)
    out[:, 0::3] = y_d
    out[:, 1::3] = y_w
    out[:, 2::3] = y_h
    return out


def dimconv_fused(x: np.ndarray, p: DimConvParams) -> np.ndarray:
    """Fused variant: one padded buffer serves all three branches, and each
    channel block is swept once per branch while it is in cache.
    Bit-identical to the unfused reference (same per-element accumulation
    order).

    The buffer is `tensorops.tap_runs`, so each tap of each branch is one
    contiguous run per channel: the depth branch is `depthwise_conv`'s tap
    loop, the width and height branches read channel c + i at a column or
    row offset, times per-position weights built once per call. The blocks
    are `tensorops.channel_blocks`', so a block's runs stay in cache for all
    n*n taps of a branch; sweeping one branch at a time is faster at 28x28
    than adding all three per tap, and no slower at the other shapes of the
    shipped networks. The loops run with numpy's ufunc buffer at 16
    elements, as in `tensorops.pointwise_conv`. Every real output still
    starts at 0.0 and adds the same products in the same tap order, so no
    byte changes."""
    return T._image_blocks(_dimconv_fused, x, p)


def _dimconv_fused(x, p, out=None):
    _check_nominal(x, p)
    nb, c, h, w = x.shape
    n = p.n
    pd = (n - 1) // 2
    xf, start, wp = T.tap_runs(x, pd, n)
    run = h * wp * nb
    kd = p.k_d.taps.astype(np.float64, copy=False)
    # the width and height branches' weight at each position of a run, (n, n, run)
    kw = np.zeros((n, n, 1, wp, 1))
    kw[:, :, 0, :w, 0] = p.k_w.taps.transpose(1, 2, 0)
    kw = np.broadcast_to(kw, (n, n, h, wp, nb)).reshape(n, n, run)
    kh = p.k_h.taps.astype(np.float64, copy=False).transpose(1, 2, 0)[:, :, :, None, None]
    kh = np.broadcast_to(kh, (n, n, h, wp, nb)).reshape(n, n, run)
    res = T._output(out, (nb, 3 * c, h, w), x.dtype)
    out_v = res.transpose(1, 2, 3, 0)
    taps = [(i, j) for i in range(n) for j in range(n)]

    def sweep(c0, c1, k):
        """Branch k of output channels c0..c1: the depth branch reads channel c
        at tap (i, j)'s run, width c + i at (j, pd)'s, height c + i at (pd, j)'s."""
        if k == 0:
            terms = ((kd[c0:c1, i, j, None], pd + c0, start[i][j]) for i, j in taps)
        elif k == 1:
            terms = ((kw[i, j], c0 + i, start[j][pd]) for i, j in taps)
        else:
            terms = ((kh[i, j], c0 + i, start[pd][j]) for i, j in taps)
        return T._tap_sum(xf, c1 - c0, run, terms).reshape(c1 - c0, h, wp, nb)[:, :, :w]

    with T._small_buffer():
        for c0, c1 in T.channel_blocks(c, run):
            for k in range(3):
                out_v[3 * c0 + k:3 * c1:3] = sweep(c0, c1, k)
    return res


def dimconv_macs(c: int, h: int, w: int, n: int) -> int:
    """Multiply-accumulates for the three-branch convolution: 3 n^2 H W C."""
    return 3 * n * n * h * w * c


def dimfuse_cost(c: int, h: int, w: int, n: int) -> dict:
    """Both accountings of the fusion stage's cost.

    'closed_form' is the single-expression count H*W*C*(3 + n^2 + C);
    'component_sum' adds up the described sub-operations (local fusion,
    spatial kernel, gate FC pair, squeeze and scale). The closed form
    contains a C^2*H*W-scale term no sub-operation produces, so the two
    disagree by construction; both are reported rather than reconciled.
    """
    if min(c, h, w, n) < 1:
        raise KernelError("cost arguments must be positive")
    closed = h * w * c * (3 + n * n + c)
    components = 3 * h * w * c + n * n * h * w * c + c * c / 2 + 2 * h * w * c
    return {
        "closed_form": closed,
        "component_sum": components,
        "reduction_factor": dimfuse_reduction_factor(c, n),
    }


def dimfuse_reduction_factor(c: int, n: int) -> float:
    """Cost ratio of a plain point-wise fusion to this fusion: 3C / (3 + n^2 + C)."""
    return 3.0 * c / (3 + n * n + c)
