"""Dimension-wise convolution (DimConv): the three-branch reference, its
fused variant (three depthwise sweeps into one interleaved result), and the
closed-form costs of DimConv and of the fusion stage (DimFuse), which
`netbuilder.DiceUnit` runs."""

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


# the axes that view x as each branch's (N, channels, plane) input: the depth
# branch is a depthwise conv over (N, C, H, W), the width branch one over
# (N, W, C, H), the height branch one over (N, H, C, W)
BRANCH_AXES = ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 1, 3))


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
    """Fused variant: each branch is `tensorops.depthwise_conv`'s tap loop
    over x viewed with that branch's `BRANCH_AXES`, and writes its third of
    the interleaved result in place, through the same view of it. No branch
    array is allocated and there is no interleave pass. Each output starts
    at 0.0 and adds its products in row-major tap order, as the unfused
    reference and the oracle do, so the bytes are theirs."""
    return T._image_blocks(_dimconv_fused, x, p)


def _dimconv_fused(x, p, out=None):
    _check_nominal(x, p)
    nb, c, h, w = x.shape
    res = T._output(out, (nb, 3 * c, h, w), x.dtype)
    for k, (axes, bank) in enumerate(zip(BRANCH_AXES, (p.k_d, p.k_w, p.k_h))):
        third = res[:, k::3].transpose(axes)
        T._depthwise_conv(x.transpose(axes), bank, 1, out=lambda shape, dtype: third)
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
