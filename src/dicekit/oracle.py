"""Deliberately slow reference implementations.

Straight nested loops, float64 accumulation, no blocking, no vectorization
tricks. These define ground truth for the fast kernels: float64 results
must agree bit-for-bit (both sides accumulate taps in row-major order),
and the multiply-accumulate tally cross-checks the cost model. The loops
read their operands as Python floats, `.tolist()` of float64 copies: the
same IEEE double multiply and add as numpy's scalars, without their
per-element indexing cost. Each product they run tallies one MAC.

DimConv's three branches are one bank convolution, as the paper and
`autograd._branch_grad` state them: the width branch is `oracle_depthwise`
over the tensor with its width axis as the channels, `(N, W, C, H)`, and
the height branch the same over `(N, H, C, W)`. `tensorops` keeps its own
width and height loops, since they are the unfused reference that
`test_c9_fused_no_slower_than_unfused` times the fused kernel against, and
a faster reference fails that gate.

Strictly single-threaded; simplicity is the correctness argument here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorops import BN_EPS, ConvKernelBank, KernelError, ceil_div


@dataclass
class OracleCounter:
    """Tallies exactly one increment per multiply-accumulate executed."""
    mac_count: int = 0

    def tally(self, k: int = 1) -> None:
        self.mac_count += k


def _pad4(x, pc, ph, pw, prh=None, prw=None):
    prh = ph if prh is None else prh
    prw = pw if prw is None else prw
    return np.pad(x.astype(np.float64), ((0, 0), (pc, pc), (ph, prh), (pw, prw)))


def oracle_depthwise(x, bank: ConvKernelBank, stride: int = 1,
                     counter: OracleCounter | None = None):
    counter = counter or OracleCounter()
    nb, c, h, w = x.shape
    if bank.count != c:
        raise KernelError("depthwise bank / channel mismatch")
    n, p = bank.n, (bank.n - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    prh = max(p, (ho - 1) * stride + n - 1 - p - (h - 1))
    prw = max(p, (wo - 1) * stride + n - 1 - p - (w - 1))
    xp = _pad4(x, 0, p, p, prh, prw).tolist()
    taps = bank.taps.astype(np.float64).tolist()
    out = np.zeros((nb, c, ho, wo), dtype=np.float64)
    for b in range(nb):
        for ci in range(c):
            for oh in range(ho):
                for ow in range(wo):
                    acc = 0.0
                    for i in range(n):
                        for j in range(n):
                            acc += taps[ci][i][j] * xp[b][ci][oh * stride + i][ow * stride + j]
                            counter.tally()
                    out[b, ci, oh, ow] = acc
    return out.astype(x.dtype), counter


def oracle_widthwise(x, bank: ConvKernelBank, counter: OracleCounter | None = None):
    """The depthwise loop with the width axis as its channels: bank k
    convolves the (channel, height) plane of width index k."""
    if bank.count != x.shape[3]:
        raise KernelError("widthwise bank / width mismatch")
    y, counter = oracle_depthwise(x.transpose(0, 3, 1, 2), bank, 1, counter)
    return np.ascontiguousarray(y.transpose(0, 2, 3, 1)), counter


def oracle_heightwise(x, bank: ConvKernelBank, counter: OracleCounter | None = None):
    """The depthwise loop with the height axis as its channels: bank k
    convolves the (channel, width) plane of height index k."""
    if bank.count != x.shape[2]:
        raise KernelError("heightwise bank / height mismatch")
    y, counter = oracle_depthwise(x.transpose(0, 2, 1, 3), bank, 1, counter)
    return np.ascontiguousarray(y.transpose(0, 2, 1, 3)), counter


def oracle_pointwise(x, weights, groups: int = 1, stride: int = 1, bias=None,
                     counter: OracleCounter | None = None):
    """1x1 convolution; the bias, if any, is added after each output's
    sum and tallies no MAC."""
    counter = counter or OracleCounter()
    nb, c, h, w = x.shape
    cout = weights.shape[0]
    cig, cog = c // groups, cout // groups
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    xs = x[:, :, ::stride, ::stride].astype(np.float64).tolist()
    w64 = weights.astype(np.float64).tolist()
    out = np.zeros((nb, cout, ho, wo), dtype=np.float64)
    for b in range(nb):
        for g in range(groups):
            for co in range(cog):
                for oh in range(ho):
                    for ow in range(wo):
                        acc = 0.0
                        for ci in range(cig):
                            acc += w64[g * cog + co][ci] * xs[b][g * cig + ci][oh][ow]
                            counter.tally()
                        if bias is not None:
                            acc += float(bias[g * cog + co])
                        out[b, g * cog + co, oh, ow] = acc
    return out.astype(x.dtype), counter


def oracle_conv2d(x, weights, stride: int = 1, counter: OracleCounter | None = None):
    counter = counter or OracleCounter()
    nb, c, h, w = x.shape
    cout, cin, n, _ = weights.shape
    p = (n - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    prh = max(p, (ho - 1) * stride + n - 1 - p - (h - 1))
    prw = max(p, (wo - 1) * stride + n - 1 - p - (w - 1))
    xp = _pad4(x, 0, p, p, prh, prw).tolist()
    w64 = weights.astype(np.float64).tolist()
    out = np.zeros((nb, cout, ho, wo), dtype=np.float64)
    for b in range(nb):
        for co in range(cout):
            for oh in range(ho):
                for ow in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(n):
                            for j in range(n):
                                acc += w64[co][ci][i][j] * xp[b][ci][oh * stride + i][ow * stride + j]
                                counter.tally()
                    out[b, co, oh, ow] = acc
    return out.astype(x.dtype), counter


def oracle_max_pool(x, k: int, stride: int):
    """Max pooling, one output at a time: it starts at -inf and becomes
    np.maximum(out, v) for each tap's value v in row-major order, padding
    -inf. So NaN propagates, and of equal values the later tap's is kept,
    which decides between -0.0 and +0.0. No MACs are tallied."""
    nb, c, h, w = x.shape
    p = (k - 1) // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p + k), (p, p + k)),
                constant_values=-np.inf)
    out = np.full((nb, c, ceil_div(h, stride), ceil_div(w, stride)), -np.inf)
    for b, ci, oh, ow in np.ndindex(out.shape):
        for i in range(k):
            for j in range(k):
                out[b, ci, oh, ow] = np.maximum(out[b, ci, oh, ow],
                                                xp[b, ci, oh * stride + i, ow * stride + j])
    return out.astype(x.dtype)


def oracle_global_avg(x, counter: OracleCounter | None = None):
    counter = counter or OracleCounter()
    nb, c, h, w = x.shape
    inv = 1.0 / (h * w)
    out = np.zeros((nb, c, 1, 1), dtype=np.float64)
    for b in range(nb):
        for ci in range(c):
            acc = 0.0
            for oh in range(h):
                for ow in range(w):
                    acc += inv * float(x[b, ci, oh, ow])
                    counter.tally()
            out[b, ci, 0, 0] = acc
    return out.astype(x.dtype), counter


def oracle_dimconv(x, p, counter: OracleCounter | None = None):
    """Three-branch composition with a shared tally, interleaved like the
    fast path."""
    counter = counter or OracleCounter()
    y_d, _ = oracle_depthwise(x, p.k_d, 1, counter)
    y_w, _ = oracle_widthwise(x, p.k_w, counter)
    y_h, _ = oracle_heightwise(x, p.k_h, counter)
    nb, c, h, w = x.shape
    out = np.empty((nb, 3 * c, h, w), dtype=x.dtype)
    out[:, 0::3] = y_d
    out[:, 1::3] = y_w
    out[:, 2::3] = y_h
    return out, counter


def oracle_bn_prelu(x, gamma, beta, slope, mean, var):
    """Batch norm by the per-channel mean and var, then a per-channel PReLU,
    element by element: y = ((x - mean)*inv_std)*gamma + beta in float64, in
    that order, with inv_std = 1/sqrt(var + BN_EPS), rounded once to x's
    dtype; then y where y >= 0, else slope*y."""
    ch = (None, slice(None), None, None)          # a per-channel vector, broadcast
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    y = (((x.astype(np.float64) - mean[ch]) * inv_std[ch])
         * gamma[ch] + beta[ch]).astype(x.dtype)
    return np.where(y >= 0, y, np.asarray(slope, dtype=x.dtype)[ch] * y)


def oracle_bilinear(x, th: int, tw: int):
    """Direct interpolation-formula resize, half-pixel centers."""
    nb, c, h, w = x.shape
    x64 = x.astype(np.float64)
    out = np.zeros((nb, c, th, tw), dtype=np.float64)
    for oh in range(th):
        sh = min(max((oh + 0.5) * h / th - 0.5, 0.0), h - 1.0)
        h0 = int(np.floor(sh))
        h1 = min(h0 + 1, h - 1)
        fh = sh - h0
        for ow in range(tw):
            sw = min(max((ow + 0.5) * w / tw - 0.5, 0.0), w - 1.0)
            w0 = int(np.floor(sw))
            w1 = min(w0 + 1, w - 1)
            fw = sw - w0
            out[:, :, oh, ow] = (
                (1 - fh) * (1 - fw) * x64[:, :, h0, w0]
                + (1 - fh) * fw * x64[:, :, h0, w1]
                + fh * (1 - fw) * x64[:, :, h1, w0]
                + fh * fw * x64[:, :, h1, w1]
            )
    return out.astype(x.dtype)


def finite_diff_grad(f, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar function over a flat parameter vector."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    p = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(p))
        flat[i] = orig - h
        fm = float(f(p))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
