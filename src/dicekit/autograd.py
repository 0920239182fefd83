"""Reverse-mode differentiation over the CPU kernels, for training.

A small tape: a recorded value is a Var holding the forward result plus a
closure that scatters the incoming gradient to its parents, recorded only
when a parent requires a gradient (`_record`). A vocabulary op's backward is
the function `<name>_vjp(dy, need, out, *args, **kw)`, which returns one
gradient, or None, per argument; `netbuilder.AutogradOps` records a call of
it on the op's output and arguments, which `backward` makes. It recomputes
what it needs of the forward's intermediates. Batch norm's mean and var
are two of its arguments, plain arrays with no gradient: training passes the
batch's, from `batch_statistics`, which also updates the running ones in
place. The loss ops, `sum_all` and `cross_entropy_ls`, record their own
closures."""

from __future__ import annotations

import numpy as np

from . import dimops
from . import tensorops as T
from .tensorops import KernelError

# the share of a training batch's statistics in bn_prelu's running ones
BN_MOMENTUM = 0.1


class Var:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data) -> Var:
    return Var(data, requires_grad=True)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def _accum(v: Var, g):
    if v.grad is None:
        # one pass; g + 0.0 is 0.0 + g, bit for bit, -0.0 included
        v.grad = np.add(g, 0.0, out=np.empty(v.data.shape))
    else:
        v.grad += g


def _record(out, args, backward) -> Var:
    """out as a Var, recording backward(dy, need) when a Var among args
    requires a gradient. backward gives one gradient, or None, per array or
    Var in args, a list's items in their place, and need[i] says whether the
    i-th needs one; the needed ones are accumulated in that order."""
    slots = [a for arg in args for a in (arg if isinstance(arg, list) else (arg,))
             if isinstance(a, (Var, np.ndarray))]
    need = [isinstance(a, Var) and a.requires_grad for a in slots]
    if not any(need):
        return Var(out)

    def bw(dy):
        for v, n, g in zip(slots, need, backward(dy, need)):
            if n:
                _accum(v, g)

    return Var(out, True, tuple(v for v, n in zip(slots, need) if n), bw)


def backward(loss: Var, seed=None) -> None:
    """Run reverse-mode accumulation from `loss` through the whole tape."""
    if loss._backward is None and not loss.requires_grad:
        raise KernelError("backward called on a detached value: nothing was recorded")
    topo, seen, stack = [], set(), [(loss, False)]
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

def add_vjp(dy, need, out, a, b):
    return _reduce_to(dy, a.shape), _reduce_to(dy, b.shape)


def mul_vjp(dy, need, out, a, b):
    return _reduce_to(dy * b, a.shape), _reduce_to(dy * a, b.shape)


def sum_all(x) -> Var:
    x = as_var(x)
    return _record(np.asarray(x.data.sum(dtype=np.float64)), (x,),
                   lambda dy, need: (np.broadcast_to(dy, x.data.shape).astype(np.float64),))


def reshape_vjp(dy, need, out, x, shape):
    return (dy.reshape(x.shape),)


# ------------------------------------------------------------- convolutions

def _batch_last(a) -> np.ndarray:
    """A float64 (N, C, H, W) array as (C, H, W, N), the batch contiguous."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0), dtype=np.float64)


def _pad_batch_last(shape, n: int, ao: int, bo: int, stride: int, fill=0.0):
    """(buffer, interior): a float64 buffer of `fill` for an array of `shape`,
    indexed (K, A, B, N), with the batch contiguous and A and B padded for
    an n-tap window with ao x bo outputs; and the view of the array's place
    in it."""
    k, a, b, nb = shape
    p = (n - 1) // 2
    buf = np.full((k, p + a + T.right_pad(a, ao, stride, n),
                   p + b + T.right_pad(b, bo, stride, n), nb), fill)
    return buf, buf[:, p:p + a, p:p + b]


def _taps(n: int, ao: int, bo: int, stride: int):
    """(i, j, index) for each tap of an n x n window, row-major; the index
    picks from a padded (K, A, B, N) buffer the ao x bo inputs the tap meets."""
    for i in range(n):
        for j in range(n):
            yield i, j, np.s_[:, i:i + stride * (ao - 1) + 1:stride,
                              j:j + stride * (bo - 1) + 1:stride]


def _bank_grad(x, taps, dy, stride: int = 1, need_taps: bool = True):
    """(dx, dtaps) of a convolution by a per-index bank of n x n kernels;
    dtaps is None unless `need_taps` (average pooling's constant taps need
    none).

    x is indexed (K, A, B, N): K picks the bank's kernel, the taps shift A
    and B, and N, the batch, is not shifted; dy is indexed (K, Ao, Bo, N),
    and dx comes back indexed as x. Whatever the layout of the arguments,
    the work runs in buffers with the batch innermost, so each per-tap step
    runs along rows as long as the batch."""
    n = taps.shape[1]
    ao, bo = dy.shape[1], dy.shape[2]
    dy = np.ascontiguousarray(dy, dtype=np.float64)
    t64 = taps.astype(np.float64, copy=False)
    dt = np.empty(t64.shape) if need_taps else None
    dxp, dx = _pad_batch_last(x.shape, n, ao, bo, stride)
    if dt is not None:
        # the padded input serves the tap gradient only
        xp, inner = _pad_batch_last(x.shape, n, ao, bo, stride)
        inner[...] = x
    for i, j, sl in _taps(n, ao, bo, stride):
        dxp[sl] += t64[:, i, j][:, None, None, None] * dy
        if dt is not None:
            dt[:, i, j] = np.einsum("kabn,kabn->k", xp[sl], dy)
    return dx, dt


def _branch_axes(axes):
    """(to, back): a `dimops.BRANCH_AXES` view with the batch moved last, as
    _bank_grad wants x and dy, and the axes that take dx back to (N, C, H, W)."""
    to = axes[1:] + axes[:1]
    return to, tuple(to.index(a) for a in range(4))


# a depthwise conv is DimConv's depth branch
_DEPTH, _WIDTH, _HEIGHT = map(_branch_axes, dimops.BRANCH_AXES)


def _branch_grad(axes, x, taps, dy, stride: int = 1, need_taps: bool = True):
    to, back = axes
    dx, dt = _bank_grad(x.transpose(to), taps, dy.transpose(to), stride, need_taps)
    return dx.transpose(back), dt


def depthwise_vjp(dy, need, out, x, taps, stride: int = 1):
    return _branch_grad(_DEPTH, x, taps, dy, stride, need[1])


def pointwise_vjp(dy, need, out, x, w, groups: int = 1, stride: int = 1, bias=None):
    # channel-major, (G, C/G, N*H*W): one batched matmul for all groups
    cout, cig = w.shape
    xs = x[:, :, ::stride, ::stride]
    nb, c, ho, wo = xs.shape
    xg = np.ascontiguousarray(xs.transpose(1, 0, 2, 3), dtype=np.float64) \
        .reshape(groups, cig, -1)
    dyg = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(groups, cout // groups, -1)
    wg = w.astype(np.float64, copy=False).reshape(groups, cout // groups, cig)
    dx = np.matmul(wg.transpose(0, 2, 1), dyg).reshape(c, nb, ho, wo).transpose(1, 0, 2, 3)
    if stride != 1:
        dxs, dx = dx, np.zeros(x.shape, dtype=np.float64)
        dx[:, :, ::stride, ::stride] = dxs
    return (dx, np.matmul(dyg, xg.transpose(0, 2, 1)).reshape(cout, cig),
            None if bias is None else dy.sum(axis=(0, 2, 3)))


def _conv_input_grad(w, dy, shape, stride: int):
    """The input gradient of a dense n x n convolution of an input of
    `shape` by weights w (C_out, C_in, n, n)."""
    nb, c, h, wd = shape
    cout, _, n, _ = w.shape
    ho, wo = dy.shape[2], dy.shape[3]
    p = (n - 1) // 2
    w2 = w.astype(np.float64, copy=False).reshape(cout, c * n * n)
    dcols = np.matmul(w2.T, dy.reshape(nb, cout, ho * wo)).reshape(nb, c, n, n, ho, wo)
    dxp = np.zeros((nb, c, p + h + T.right_pad(h, ho, stride, n),
                    p + wd + T.right_pad(wd, wo, stride, n)))
    for i in range(n):
        for j in range(n):
            dxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                j:j + stride * (wo - 1) + 1:stride] += dcols[:, :, i, j]
    return dxp[:, :, p:p + h, p:p + wd]


def _conv_weight_grad(x, dy, shape, stride: int):
    """The gradient of weights of `shape` (C_out, C_in, n, n) of a dense
    convolution of x: over image blocks of conv2d's size, one batched matmul
    by the block's im2col matrix, (N, C*n*n, Ho*Wo), gives each image's."""
    nb = x.shape[0]
    cout, c, n, _ = shape
    dy3 = dy.reshape(nb, cout, -1)
    per_image = np.empty((nb, cout, c * n * n))
    per = T._images_per_block(x)
    for i in range(0, nb, per):
        cols = T.im2col(x[i:i + per], n, stride).reshape(-1, c * n * n, dy3.shape[2])
        np.matmul(dy3[i:i + per], cols.transpose(0, 2, 1), out=per_image[i:i + per])
        del cols                # before the next block's is built
    return per_image.sum(axis=0).reshape(shape)


def spatial_conv_vjp(dy, need, out, x, w, stride: int = 1):
    """Each gradient only when its argument needs one; the stem's image never does."""
    return (_conv_input_grad(w, dy, x.shape, stride) if need[0] else None,
            _conv_weight_grad(x, dy, w.shape, stride) if need[1] else None)


def dimconv_vjp(dy, need, out, x, k_d, k_w, k_h):
    """DimConv's three branches, each its bank convolution's backward on its
    third of the interleaved output."""
    dxd, dkd = _branch_grad(_DEPTH, x, k_d, dy[:, 0::3], 1, need[1])
    dxw, dkw = _branch_grad(_WIDTH, x, k_w, dy[:, 1::3], 1, need[2])
    dxh, dkh = _branch_grad(_HEIGHT, x, k_h, dy[:, 2::3], 1, need[3])
    return dxd + dxw + dxh, dkd, dkw, dkh


# ----------------------------------------------------------------- pooling

def avg_pool_vjp(dy, need, out, x, k: int = 3, stride: int = 1):
    """`depthwise_vjp` by `tensorops.avg_bank`, whose taps need no gradient."""
    return _branch_grad(_DEPTH, x, T.avg_bank(x.shape[1], k).taps, dy, stride, False)[:1]


def max_pool_vjp(dy, need, out, x, k: int = 3, stride: int = 1):
    # batch-last, as in _bank_grad; the first tap of each window that holds
    # the window's maximum gets the gradient
    ho, wo = out.shape[2], out.shape[3]
    xt = x.transpose(1, 2, 3, 0)
    xp, inner = _pad_batch_last(xt.shape, k, ho, wo, stride, -np.inf)
    inner[...] = xt
    top, dyl = _batch_last(out), _batch_last(dy)
    free = np.ones(top.shape, dtype=bool)
    dxp, dx = _pad_batch_last(xt.shape, k, ho, wo, stride)
    for _, _, sl in _taps(k, ho, wo, stride):
        hit = xp[sl] == top
        hit &= free
        free ^= hit
        dxp[sl] += dyl * hit
    return (dx.transpose(3, 0, 1, 2),)


def global_avg_vjp(dy, need, out, x):
    nb, c, h, w = x.shape
    return (np.broadcast_to(dy / (h * w), x.shape).astype(np.float64),)


# ----------------------------------------------------- norm and activations

def _channels(a) -> np.ndarray:
    """A per-channel vector as a column against (C, N*H*W) rows."""
    return np.asarray(a)[:, None]


def _channel_major(a) -> np.ndarray:
    """A float64 copy of an (N, C, H, W) array laid out (C, N*H*W)."""
    return np.array(a.transpose(1, 0, 2, 3), dtype=np.float64, order="C") \
        .reshape(a.shape[1], -1)


def batch_statistics(x, running_mean, running_var):
    """x's per-channel mean and biased variance, taken along the rows of a
    channel-major float64 copy, (C, N*H*W). They update the running
    statistics in place, at momentum `BN_MOMENTUM`; a KernelError, before
    that, if those are not sized for x's channels."""
    c = x.shape[1]
    if np.shape(running_mean) != (c,) or np.shape(running_var) != (c,):
        raise KernelError(f"running statistics of shapes {np.shape(running_mean)} and "
                          f"{np.shape(running_var)}, input has {c} channels")
    xc = _channel_major(x)
    mean = xc.mean(axis=1)
    xc -= _channels(mean)
    var = np.einsum("cm,cm->c", xc, xc) / xc.shape[1]
    running_mean[:] = (1 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    running_var[:] = (1 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    return mean, var


def bn_prelu_vjp(dz, need, out, x, gamma, beta, slope, mean, var):
    """The gradients of `tensorops.bn_prelu` by `batch_statistics(x, ...)`,
    through the mean and variance too, which get none of their own. x_hat, y
    and the PReLU factor are recomputed from mean and var, in one
    channel-major copy of x, so each reduction runs along rows N*H*W long.
    dx is built only when x needs one."""
    nb, c, h, w = x.shape
    inv_std = 1.0 / np.sqrt(var + T.BN_EPS)
    x_hat = _channel_major(x)
    x_hat -= _channels(mean)
    x_hat *= _channels(inv_std)
    y = x_hat * _channels(gamma)
    y += _channels(beta)
    y = y.astype(x.dtype, copy=False)
    f = T._prelu_factor(y, _channels(slope.astype(x.dtype, copy=False)))
    dy = _channel_major(dz)
    dslope = np.einsum("cm,cm->c", dy, np.minimum(y, 0.0, out=y))
    dy *= f
    dbeta = dy.sum(axis=1)
    dgamma = np.einsum("cm,cm->c", dy, x_hat)
    if not need[0]:
        return None, dgamma, dbeta, dslope, None, None
    m = dy.shape[1]
    dy -= _channels(dbeta / m)
    x_hat *= _channels(dgamma / m)
    dy -= x_hat
    dy *= _channels(gamma * inv_std)
    return dy.reshape(c, nb, h, w).transpose(1, 0, 2, 3), dgamma, dbeta, dslope, None, None


def relu_vjp(dy, need, out, x):
    return (dy * (x > 0),)


def sigmoid_vjp(dy, need, out, x):
    o64 = out.astype(np.float64, copy=False)
    return (dy * o64 * (1.0 - o64),)


def bilinear_vjp(dy, need, out, x, target_h: int, target_w: int):
    rh = T.resize_matrix(x.shape[2], target_h)
    rw = T.resize_matrix(x.shape[3], target_w)
    tmp = np.einsum("ah,ncab->nchb", rh, dy)
    return (np.einsum("bw,nchb->nchw", rw, tmp),)


# ------------------------------------------------------------ structural ops

def concat_vjp(dy, need, out, parts):
    ends = np.cumsum([p.shape[1] for p in parts])
    return np.split(dy, ends[:-1], axis=1)


def narrow_vjp(dy, need, out, x, start: int, length: int):
    g = np.zeros_like(x, dtype=np.float64)
    g[:, start:start + length] = dy
    return (g,)


def shuffle_vjp(dy, need, out, x, groups: int = 2):
    c = x.shape[1]
    perm = (np.arange(c).reshape(groups, c // groups).T).reshape(-1)
    return (dy[:, np.argsort(perm)],)


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
    q = np.full((nb, k), eps / k)
    q[np.arange(nb), t] += 1.0 - eps
    softmax = np.exp(s - lse[:, None])
    return _record(np.asarray(per_sample.mean()), (scores,),
                   lambda dy, need: (float(dy) * (softmax - q) / nb,))
