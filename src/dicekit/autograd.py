"""Reverse-mode differentiation over the CPU kernels.

A small tape: every op returns a Var holding the forward result plus a
closure that scatters the incoming gradient to its parents. Forward values
are produced by the fast kernels in tensorops/dimops, so a no-grad forward
through this module is bit-identical to composing those kernels directly.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

from . import tensorops as T
from .tensorops import ConvKernelBank, KernelError, ceil_div

# Per context, so a no_grad() block in one thread leaves tape recording on
# in every other thread (each thread starts from the default).
_grad_enabled = contextvars.ContextVar("dicekit_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Var:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, name=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward_fn
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Var(self.data)

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data, name=None) -> Var:
    return Var(np.asarray(data), requires_grad=True, name=name)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def _accum(v: Var, g):
    if not v.requires_grad:
        return
    if v.grad is None:
        v.grad = np.zeros_like(v.data, dtype=np.float64)
    v.grad += g


def _make(data, parents, backward_fn) -> Var:
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        return Var(data, requires_grad=True, parents=tuple(parents), backward_fn=backward_fn)
    return Var(data)


def backward(loss: Var, seed=None) -> None:
    """Run reverse-mode accumulation from `loss` through the whole tape."""
    if loss._backward is None and not loss.requires_grad:
        raise KernelError("backward called on a detached value: nothing was recorded")
    topo, seen = [], set()

    def visit(v):
        stack = [(v, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))

    visit(loss)
    loss.grad = np.ones_like(loss.data, dtype=np.float64) if seed is None \
        else np.asarray(seed, dtype=np.float64)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _reduce_to(g, shape):
    # sum the broadcast axes of g back down to `shape`
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic

def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data + b.data

    def bw(dy):
        _accum(a, _reduce_to(dy, a.data.shape))
        _accum(b, _reduce_to(dy, b.data.shape))

    return _make(out, (a, b), bw)


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.data * b.data

    def bw(dy):
        _accum(a, _reduce_to(dy * b.data, a.data.shape))
        _accum(b, _reduce_to(dy * a.data, b.data.shape))

    return _make(out, (a, b), bw)


def sum_all(x) -> Var:
    x = as_var(x)
    out = np.asarray(x.data.sum(dtype=np.float64))

    def bw(dy):
        _accum(x, np.broadcast_to(dy, x.data.shape).astype(np.float64))

    return _make(out, (x,), bw)


def reshape(x, shape) -> Var:
    x = as_var(x)
    out = x.data.reshape(shape)

    def bw(dy):
        _accum(x, dy.reshape(x.data.shape))

    return _make(out, (x,), bw)


# ------------------------------------------------------------- convolutions

def _bank(taps):
    return ConvKernelBank(np.ascontiguousarray(taps))


def depthwise(x, taps, stride: int = 1) -> Var:
    x, taps = as_var(x), as_var(taps)
    out = T.depthwise_conv(x.data, _bank(taps.data), stride)
    nb, c, h, w = x.data.shape
    n = taps.data.shape[1]
    p = (n - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)

    def bw(dy):
        t64 = taps.data.astype(np.float64)
        xp = T._pad_hw(x.data.astype(np.float64), p, ho, wo, stride, n)
        dxp = np.zeros_like(xp)
        dt = np.zeros_like(t64)
        for i in range(n):
            for j in range(n):
                sl = np.s_[:, :, i:i + stride * (ho - 1) + 1:stride,
                           j:j + stride * (wo - 1) + 1:stride]
                dxp[sl] += t64[:, i, j][None, :, None, None] * dy
                dt[:, i, j] = np.einsum("nchw,nchw->c", xp[sl], dy)
        _accum(x, dxp[:, :, p:p + h, p:p + w])
        _accum(taps, dt)

    return _make(out, (x, taps), bw)


def widthwise(x, taps) -> Var:
    x, taps = as_var(x), as_var(taps)
    out = T.widthwise_conv(x.data, _bank(taps.data))
    nb, c, h, w = x.data.shape
    n = taps.data.shape[1]
    p = (n - 1) // 2
    t64 = taps.data.astype(np.float64)

    def bw(dy):
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (p, p), (p, p), (0, 0)))
        dxp = np.zeros_like(xp)
        dt = np.zeros_like(t64)
        for i in range(n):
            for j in range(n):
                sl = np.s_[:, i:i + c, j:j + h, :]
                dxp[sl] += t64[:, i, j][None, None, None, :] * dy
                dt[:, i, j] = np.einsum("nchw,nchw->w", xp[sl], dy)
        _accum(x, dxp[:, p:p + c, p:p + h, :])
        _accum(taps, dt)

    return _make(out, (x, taps), bw)


def heightwise(x, taps) -> Var:
    x, taps = as_var(x), as_var(taps)
    out = T.heightwise_conv(x.data, _bank(taps.data))
    nb, c, h, w = x.data.shape
    n = taps.data.shape[1]
    p = (n - 1) // 2
    t64 = taps.data.astype(np.float64)

    def bw(dy):
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (p, p), (0, 0), (p, p)))
        dxp = np.zeros_like(xp)
        dt = np.zeros_like(t64)
        for i in range(n):
            for j in range(n):
                sl = np.s_[:, i:i + c, :, j:j + w]
                dxp[sl] += t64[:, i, j][None, None, :, None] * dy
                dt[:, i, j] = np.einsum("nchw,nchw->h", xp[sl], dy)
        _accum(x, dxp[:, p:p + c, :, p:p + w])
        _accum(taps, dt)

    return _make(out, (x, taps), bw)


def pointwise(x, w, groups: int = 1, stride: int = 1) -> Var:
    x, w = as_var(x), as_var(w)
    out = T.pointwise_conv(x.data, w.data, groups, stride)
    nb, c, h, _ = x.data.shape
    cout = w.data.shape[0]
    cig, cog = c // groups, cout // groups

    def bw(dy):
        xs = x.data[:, :, ::stride, ::stride].astype(np.float64)
        w64 = w.data.astype(np.float64)
        dxs = np.zeros_like(xs)
        dw = np.zeros_like(w64)
        for g in range(groups):
            dyg = dy[:, g * cog:(g + 1) * cog]
            wg = w64[g * cog:(g + 1) * cog]
            xg = xs[:, g * cig:(g + 1) * cig]
            dxs[:, g * cig:(g + 1) * cig] = np.einsum("nohw,oc->nchw", dyg, wg)
            dw[g * cog:(g + 1) * cog] = np.einsum("nohw,nchw->oc", dyg, xg)
        dx = np.zeros(x.data.shape, dtype=np.float64)
        dx[:, :, ::stride, ::stride] = dxs
        _accum(x, dx)
        _accum(w, dw)

    return _make(out, (x, w), bw)


def spatial_conv(x, w, stride: int = 1) -> Var:
    """Dense n x n convolution; weights (C_out, C_in, n, n)."""
    x, w = as_var(x), as_var(w)
    n = w.data.shape[2]
    h, wd = x.data.shape[2:]
    out = T.conv2d(x.data, w.data, stride)
    p = (n - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(wd, stride)

    def bw(dy):
        xp = T._pad_hw(x.data.astype(np.float64), p, ho, wo, stride, n)
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w.data, dtype=np.float64)
        w64 = w.data.astype(np.float64)
        for i in range(n):
            for j in range(n):
                sl = np.s_[:, :, i:i + stride * (ho - 1) + 1:stride,
                           j:j + stride * (wo - 1) + 1:stride]
                dxp[sl] += np.einsum("nohw,oc->nchw", dy, w64[:, :, i, j])
                dw[:, :, i, j] = np.einsum("nohw,nchw->oc", dy, xp[sl])
        _accum(x, dxp[:, :, p:p + h, p:p + wd])
        _accum(w, dw)

    return _make(out, (x, w), bw)


def dimconv(x, k_d, k_w, k_h) -> Var:
    """Three-branch dimension-wise conv, interleaved output, fused forward."""
    from .dimops import DimConvParams
    x, k_d, k_w, k_h = as_var(x), as_var(k_d), as_var(k_w), as_var(k_h)
    from .dimops import dimconv_fused
    p_obj = DimConvParams(_bank(k_d.data), _bank(k_w.data), _bank(k_h.data))
    out = dimconv_fused(x.data, p_obj)
    nb, c, h, w = x.data.shape
    n = k_d.data.shape[1]
    p = (n - 1) // 2

    def bw(dy):
        dyd, dyw, dyh = dy[:, 0::3], dy[:, 1::3], dy[:, 2::3]
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (p, p), (p, p), (p, p)))
        dxp = np.zeros_like(xp)
        kd64 = k_d.data.astype(np.float64)
        kw64 = k_w.data.astype(np.float64)
        kh64 = k_h.data.astype(np.float64)
        dkd = np.zeros_like(kd64)
        dkw = np.zeros_like(kw64)
        dkh = np.zeros_like(kh64)
        for i in range(n):
            for j in range(n):
                sd = np.s_[:, p:p + c, i:i + h, j:j + w]
                sw = np.s_[:, i:i + c, j:j + h, p:p + w]
                sh = np.s_[:, i:i + c, p:p + h, j:j + w]
                dxp[sd] += kd64[:, i, j][None, :, None, None] * dyd
                dxp[sw] += kw64[:, i, j][None, None, None, :] * dyw
                dxp[sh] += kh64[:, i, j][None, None, :, None] * dyh
                dkd[:, i, j] = np.einsum("nchw,nchw->c", xp[sd], dyd)
                dkw[:, i, j] = np.einsum("nchw,nchw->w", xp[sw], dyw)
                dkh[:, i, j] = np.einsum("nchw,nchw->h", xp[sh], dyh)
        _accum(x, dxp[:, p:p + c, p:p + h, p:p + w])
        _accum(k_d, dkd)
        _accum(k_w, dkw)
        _accum(k_h, dkh)

    return _make(out, (x, k_d, k_w, k_h), bw)


# ----------------------------------------------------------------- pooling

def avg_pool(x, k: int = 3, stride: int = 1) -> Var:
    x = as_var(x)
    out = T.pool(x.data, "avg", k, stride)
    nb, c, h, w = x.data.shape
    p = (k - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    inv = 1.0 / (k * k)

    def bw(dy):
        prh = max(0, (ho - 1) * stride + k - 1 - p - (h - 1))
        prw = max(0, (wo - 1) * stride + k - 1 - p - (w - 1))
        dxp = np.zeros((nb, c, h + p + prh, w + p + prw), dtype=np.float64)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                    j:j + stride * (wo - 1) + 1:stride] += inv * dy
        _accum(x, dxp[:, :, p:p + h, p:p + w])

    return _make(out, (x,), bw)


def max_pool(x, k: int = 3, stride: int = 1) -> Var:
    x = as_var(x)
    out = T.pool(x.data, "max", k, stride)
    nb, c, h, w = x.data.shape
    p = (k - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)

    def bw(dy):
        # the first maximal tap of each window gets the gradient
        prh = max(0, (ho - 1) * stride + k - 1 - p - (h - 1))
        prw = max(0, (wo - 1) * stride + k - 1 - p - (w - 1))
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (p, prh), (p, prw)),
                    constant_values=-np.inf)
        arg = np.stack([
            xp[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            for i in range(k) for j in range(k)
        ]).argmax(axis=0)
        dxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                mask = arg == (i * k + j)
                dxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                    j:j + stride * (wo - 1) + 1:stride] += dy * mask
        _accum(x, dxp[:, :, p:p + h, p:p + w])

    return _make(out, (x,), bw)


def global_avg(x) -> Var:
    x = as_var(x)
    out = T.pool(x.data, "global_avg")
    nb, c, h, w = x.data.shape

    def bw(dy):
        _accum(x, np.broadcast_to(dy / (h * w), x.data.shape).astype(np.float64))

    return _make(out, (x,), bw)


# ----------------------------------------------------- norm and activations

def batch_norm_train(x, gamma, beta, state: T.BatchNormParams,
                     momentum: float = 0.1) -> Var:
    """Batch-statistics normalization; updates state's running stats in place."""
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    x64 = x.data.astype(np.float64)
    mean = x64.mean(axis=(0, 2, 3))
    var = x64.var(axis=(0, 2, 3))
    state.running_mean[:] = (1 - momentum) * state.running_mean + momentum * mean
    state.running_var[:] = (1 - momentum) * state.running_var + momentum * var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat = (x64 - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = (gamma.data[None, :, None, None] * x_hat
           + beta.data[None, :, None, None]).astype(x.data.dtype)
    m = x64.shape[0] * x64.shape[2] * x64.shape[3]

    def bw(dy):
        dgamma = np.einsum("nchw->c", dy * x_hat)
        dbeta = np.einsum("nchw->c", dy)
        dx = (gamma.data * inv_std)[None, :, None, None] * (
            dy - dbeta[None, :, None, None] / m
            - x_hat * dgamma[None, :, None, None] / m)
        _accum(x, dx)
        _accum(gamma, dgamma)
        _accum(beta, dbeta)

    return _make(out, (x, gamma, beta), bw)


def batch_norm_infer(x, gamma, beta, state: T.BatchNormParams) -> Var:
    x, gamma, beta = as_var(x), as_var(gamma), as_var(beta)
    # a copy: backward must see the statistics this forward used
    mean = state.running_mean.copy()[None, :, None, None]
    inv_std = (1.0 / np.sqrt(state.running_var + state.eps))[None, :, None, None]
    # one float64 buffer, in place: ((x - mean) * inv_std) * gamma + beta
    out = x.data.astype(np.float64)
    out -= mean
    out *= inv_std
    out *= gamma.data[None, :, None, None]
    out += beta.data[None, :, None, None]

    def bw(dy):
        x_hat = (x.data.astype(np.float64) - mean) * inv_std
        _accum(x, dy * (gamma.data[None, :, None, None] * inv_std))
        _accum(gamma, np.einsum("nchw->c", dy * x_hat))
        _accum(beta, np.einsum("nchw->c", dy))

    return _make(out.astype(x.data.dtype, copy=False), (x, gamma, beta), bw)


def relu(x) -> Var:
    x = as_var(x)
    out = T.relu(x.data)

    def bw(dy):
        _accum(x, dy * (x.data > 0))

    return _make(out, (x,), bw)


def prelu(x, slope) -> Var:
    """slope: per-channel Var of length C (4D input) or matching 2D layout."""
    x, slope = as_var(x), as_var(slope)
    out = T.prelu(x.data, slope.data)

    def bw(dy):
        neg = x.data < 0
        s = slope.data
        if x.data.ndim == 4 and s.ndim == 1:
            sb = s[None, :, None, None]
            _accum(slope, np.einsum("nchw->c", dy * np.where(neg, x.data, 0.0)))
        else:
            sb = s
            _accum(slope, _reduce_to(dy * np.where(neg, x.data, 0.0), s.shape))
        _accum(x, dy * np.where(neg, sb, 1.0))

    return _make(out, (x, slope), bw)


def sigmoid(x) -> Var:
    x = as_var(x)
    out = T.sigmoid(x.data)

    def bw(dy):
        o64 = out.astype(np.float64, copy=False)
        _accum(x, dy * o64 * (1.0 - o64))

    return _make(out, (x,), bw)


def linear(x, w, bias=None, groups: int = 1) -> Var:
    x, w = as_var(x), as_var(w)
    b = None if bias is None else as_var(bias)
    out = T.linear(x.data, w.data, groups, None if b is None else b.data)
    fin, fout = x.data.shape[1], w.data.shape[0]
    fig, fog = fin // groups, fout // groups

    def bw(dy):
        dx = np.zeros_like(x.data, dtype=np.float64)
        dw = np.zeros_like(w.data, dtype=np.float64)
        for g in range(groups):
            dyg = dy[:, g * fog:(g + 1) * fog]
            wg = w.data[g * fog:(g + 1) * fog].astype(np.float64)
            xg = x.data[:, g * fig:(g + 1) * fig].astype(np.float64)
            dx[:, g * fig:(g + 1) * fig] = dyg @ wg
            dw[g * fog:(g + 1) * fog] = dyg.T @ xg
        _accum(x, dx)
        _accum(w, dw)
        if b is not None:
            _accum(b, dy.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out, parents, bw)


def bilinear(x, target_h: int, target_w: int) -> Var:
    x = as_var(x)
    out = T.bilinear_resize(x.data, target_h, target_w)
    h, w = x.data.shape[2], x.data.shape[3]
    if (target_h, target_w) == (h, w):
        def bw_id(dy):
            _accum(x, dy)
        return _make(out, (x,), bw_id)

    def bw(dy):
        rh = T.resize_matrix(h, target_h)
        rw = T.resize_matrix(w, target_w)
        tmp = np.einsum("ah,ncab->nchb", rh, dy)
        _accum(x, np.einsum("bw,nchb->nchw", rw, tmp))

    return _make(out, (x,), bw)


# ------------------------------------------------------------ structural ops

def concat_channels(parts) -> Var:
    parts = [as_var(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=1)
    sizes = [p.data.shape[1] for p in parts]

    def bw(dy):
        off = 0
        for p, s in zip(parts, sizes):
            _accum(p, dy[:, off:off + s])
            off += s

    return _make(out, tuple(parts), bw)


def narrow_channels(x, start: int, length: int) -> Var:
    x = as_var(x)
    out = x.data[:, start:start + length].copy()

    def bw(dy):
        g = np.zeros_like(x.data, dtype=np.float64)
        g[:, start:start + length] = dy
        _accum(x, g)

    return _make(out, (x,), bw)


def channel_shuffle(x, groups: int = 2) -> Var:
    x = as_var(x)
    from .dice import channel_shuffle as shuffle_np
    out = shuffle_np(x.data, groups)

    def bw(dy):
        c = x.data.shape[1]
        perm = (np.arange(c).reshape(groups, c // groups).T).reshape(-1)
        _accum(x, dy[:, np.argsort(perm)])

    return _make(out, (x,), bw)


# ------------------------------------------------------------------- losses

def cross_entropy_ls(scores, targets, eps: float = 0.0) -> Var:
    """Label-smoothed cross-entropy over softmax scores, averaged over batch."""
    if not 0.0 <= eps < 1.0:
        raise KernelError(f"label smoothing must be in [0, 1), got {eps}")
    scores = as_var(scores)
    t = np.asarray(targets, dtype=np.int64)
    s = scores.data.astype(np.float64)
    nb, k = s.shape
    smax = s.max(axis=1, keepdims=True)
    lse = smax[:, 0] + np.log(np.exp(s - smax).sum(axis=1))
    nll_all = lse[:, None] - s                    # nll of every class
    per_sample = (1.0 - eps) * nll_all[np.arange(nb), t] + (eps / k) * nll_all.sum(axis=1)
    out = np.asarray(per_sample.mean())
    q = np.full((nb, k), eps / k)
    q[np.arange(nb), t] += 1.0 - eps
    softmax = np.exp(s - lse[:, None])

    def bw(dy):
        _accum(scores, float(dy) * (softmax - q) / nb)

    return _make(out, (scores,), bw)
