"""Primitive CPU kernels over dense 4D (N, C, H, W) float tensors.

Tensors are plain C-contiguous numpy arrays of float32 or float64.
Every kernel is a pure function: inputs are never modified, except the
`out` that `bn_prelu` is given, and repeated calls produce bit-identical
outputs.

All convolution kernels accumulate in float64 with a fixed tap order
(row-major over the tap grid) so that results match the naive loop
oracle bit-for-bit in float64 and after a single final rounding in
float32. The exception is the dense `conv2d`, a BLAS product gated by an
error bound instead.

`pointwise_conv` runs one `np.einsum` where that keeps the oracle's order:
numpy's einsum adds one rounded product per input channel, in order, along
its innermost row, on builds whose einsum kernel multiplies and then adds.
That row is a group's outputs where the weights are Fortran-ordered (as
the network builder makes every pointwise layer's) and it is at least
twice as long as the row of pixels: on short pixel rows, and on one pixel
(a fully connected layer at batch 1). Elsewhere it is the pixels. Builds
whose kernel fuses the two (FMA) give other bytes, so the module probes
its build once, at import (`EINSUM_EXACT`), and falls back to a loop of
numpy calls in the oracle's order where the probe fails.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)

# input channels per block in `pointwise_conv`'s loop for a 1x1 image (a
# fully connected layer): bounds its product array to N * C_out *
# LINEAR_BLOCK values whatever C_in is
LINEAR_BLOCK = 64

# on a 1x1 image `pointwise_conv` runs its loop of outer products, one per
# input channel, only once a product, N x C_out/G, holds this many values
# and N >= 2; otherwise `np.add.accumulate` along the channels is faster
LINEAR_FEATURE_LOOP = 1024

# float64 input bytes per image block of the kernels that sweep their
# accumulator once per tap or input channel: a block's accumulator then stays
# in a 2 MiB L2 cache between sweeps, where a whole batch would not
BLOCK_BYTES = 256 * 1024

# added to the variance under batch norm's square root
BN_EPS = 1e-5


class KernelError(ValueError):
    """Raised when a kernel precondition is violated."""


def check_tensor(x: np.ndarray) -> np.ndarray:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise KernelError(f"expected a 4D (N,C,H,W) array, got {getattr(x, 'shape', None)}")
    if x.dtype.type not in FLOAT_DTYPES:
        raise KernelError(f"expected float32/float64 tensor, got dtype {x.dtype}")
    if min(x.shape) < 1:
        raise KernelError(f"all tensor dims must be >= 1, got {x.shape}")
    return x


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _images_per_block(x: np.ndarray) -> int:
    """x's images per block: at most BLOCK_BYTES of float64, at least one."""
    return max(1, BLOCK_BYTES // (8 * x[0].size))


def _image_blocks(kernel, x: np.ndarray, *args) -> np.ndarray:
    """kernel(x, *args), run over the batch in blocks of whole images holding
    at most BLOCK_BYTES of float64 input, and at least one image.

    A kernel takes its result array from `_output(out, shape, dtype)`. A call
    that fits in one block passes no `out`, and the kernel allocates its
    result. Over several blocks `out` hands each block its slice of the batch
    output, allocated when the first block asks for it: the kernels write
    their images in place, and no block's result is copied. Where the result
    is float64 and the kernel's accumulator has the result's layout, the
    accumulator is the result itself.

    The bytes are those of one call on the whole batch: each output element
    depends only on its own image, and no kernel's per-element order of
    operations depends on the batch size or on where its result lives.
    """
    check_tensor(x)
    nb = x.shape[0]
    per = _images_per_block(x)
    if per >= nb:
        return kernel(x, *args)
    res = None

    def out(shape, dtype):
        # the running block's slice, images i.. of the batch output
        nonlocal res
        if res is None:
            res = np.empty((nb,) + tuple(shape[1:]), dtype=dtype)
        return res[i:i + shape[0]]

    for i in range(0, nb, per):
        kernel(x[i:i + per], *args, out=out)
    return res


def _output(out, shape, dtype, zeros: bool = False) -> np.ndarray:
    """A kernel's result array, of zeros if asked: a new one, or the slice
    `_image_blocks` hands it through `out`."""
    if out is None:
        return (np.zeros if zeros else np.empty)(shape, dtype=dtype)
    res = out(shape, dtype)
    if zeros:
        res[...] = 0.0
    return res


def _store(res: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """res, holding acc (indexed as res) unless acc is already res's memory."""
    if not np.may_share_memory(res, acc):
        res[...] = acc
    return res


@dataclass(frozen=True)
class ConvKernelBank:
    """A bank of per-index 2D kernels: taps has shape (count, n, n)."""

    taps: np.ndarray

    def __post_init__(self):
        if self.taps.ndim != 3 or self.taps.shape[1] != self.taps.shape[2]:
            raise KernelError(f"taps must be (count, n, n), got {self.taps.shape}")
        if self.n % 2 == 0:
            raise KernelError(f"kernel extent must be odd, got n={self.n}")

    @property
    def count(self) -> int:
        return self.taps.shape[0]

    @property
    def n(self) -> int:
        return self.taps.shape[1]

    @staticmethod
    def random(count: int, n: int, rng: np.random.Generator,
               dtype=np.float64) -> "ConvKernelBank":
        """Taps drawn from N(0, 2/n²), He initialisation for n×n taps."""
        taps = rng.normal(0.0, math.sqrt(2.0 / (n * n)), size=(count, n, n)).astype(dtype)
        return ConvKernelBank(taps)


def right_pad(size: int, out: int, stride: int, n: int) -> int:
    """Padding after the last of `size` rows, so that the strided slices of an
    n-tap window, `out` outputs long, never run off the array."""
    return max(0, (out - 1) * stride + n - 1 - (n - 1) // 2 - (size - 1))


def _phase(size: int, p: int, s: int, a: int, q: int):
    """(input slice, phase slice): the rows of an axis of `size`, padded by p
    in front, that phase a of a stride-s split, q rows long, holds, and the
    rows of the phase they go to. Phase row r is padded row r*s + a."""
    r0 = max(0, ceil_div(p - a, s))
    k = max(0, min(q, ceil_div(size + p - a, s)) - r0)
    y0 = r0 * s + a - p
    return slice(y0, y0 + s * k, s), slice(r0, r0 + k)


def tap_runs(x: np.ndarray, pc: int, n: int, stride: int = 1):
    """(xf, start, Wq): x zero-padded for an n x n window at stride s, 'same'
    grid, and by pc channels on each side, in float64, one row per channel.

    The padded grid is split into s*s phases, (a, b) holding padded rows a,
    a + s, ... and columns b, b + s, ...: (C + 2pc, s, s, Hq, Wq, N), batch
    last, with Wq = Wo + (n - 1) // s and Hq = Ho + (n - 1) // s + 1. Tap
    (i, j) reads phase (i mod s, j mod s) at offset (i div s, j div s): the
    run of L = Ho*Wq*N values from start[i][j] holds, at (r*Wq + col)*N + b,
    the pixel output (r, col) of image b meets at that tap. Columns Wo..Wq-1
    are junk and are dropped; only they reach a phase's spare last row. At
    stride 1 there is one phase, and Wq = W + n - 1."""
    nb, c, h, w = x.shape
    s, p = stride, (n - 1) // 2
    hq, wq = ceil_div(h, s) + (n - 1) // s + 1, ceil_div(w, s) + (n - 1) // s
    xp = np.zeros((c + 2 * pc, s, s, hq, wq, nb))
    xt = x.transpose(1, 2, 3, 0)
    for a in range(s):
        for b in range(s):
            (ys, rs), (xs, cs) = _phase(h, p, s, a, hq), _phase(w, p, s, b, wq)
            xp[pc:pc + c, a, b, rs, cs] = xt[:, ys, xs]
    start = [[((((i % s) * s + j % s) * hq + i // s) * wq + j // s) * nb for j in range(n)]
             for i in range(n)]
    return xp.reshape(c + 2 * pc, -1), start, wq


def _tap_sum(xf: np.ndarray, rows: int, run: int, terms) -> np.ndarray:
    """0.0 plus wt * xf[ch:ch + rows, s:s + run] for each (wt, ch, s) of
    `terms`, in order: a (rows, run) float64 array."""
    acc = np.zeros((rows, run))
    for wt, ch, s in terms:
        acc += wt * xf[ch:ch + rows, s:s + run]
    return acc


@contextlib.contextmanager
def _small_buffer():
    """numpy's ufunc buffer at its minimum, 16 elements (1.x needs a multiple
    of 16), restored on the way out; per thread in numpy 1.24 and 2.x."""
    old = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(old)


def channel_blocks(c: int, run: int) -> list[tuple[int, int]]:
    """Ranges (c0, c1) of channels whose float64 runs of `run` values hold
    at most BLOCK_BYTES together, and at least one channel."""
    cb = max(1, BLOCK_BYTES // (8 * run))
    return [(c0, min(c0 + cb, c)) for c0 in range(0, c, cb)]


def avg_bank(c: int, k: int) -> ConvKernelBank:
    """Average pooling over a k x k window as a depthwise bank: each of c
    kernels holds 1/(k*k) at every tap, in float64 whatever the input's
    dtype. Padded taps count, as they do in every window op here."""
    return ConvKernelBank(np.full((c, k, k), 1.0 / (k * k)))


def depthwise_conv(x: np.ndarray, bank: ConvKernelBank, stride: int = 1) -> np.ndarray:
    """Per-channel n x n spatial convolution, zero padding, 'same' grid.

    The padded input is `tap_runs`' buffer at every stride, so each tap is
    one multiply-add over one contiguous run per channel. The loop runs in
    the channel blocks of `channel_blocks`, with numpy's ufunc buffer at 16
    elements, as in `pointwise_conv`. Every output starts at 0.0 and adds
    its products in row-major tap order, as the oracle does.
    Average pooling is this kernel with `avg_bank`."""
    return _image_blocks(_depthwise_conv, x, bank, stride)


def _depthwise_conv(x, bank, stride, out=None):
    check_tensor(x)
    nb, c, h, w = x.shape
    if bank.count != c:
        raise KernelError(f"depthwise bank has {bank.count} kernels for {c} channels")
    if stride < 1:
        raise KernelError(f"stride must be >= 1, got {stride}")
    n = bank.n
    taps = bank.taps.astype(np.float64, copy=False)
    xf, start, wq = tap_runs(x, 0, n, stride)
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    run = ho * wq * nb
    res = _output(out, (nb, c, ho, wo), x.dtype)
    out_v = res.transpose(1, 2, 3, 0)
    with _small_buffer():
        for c0, c1 in channel_blocks(c, run):
            acc = _tap_sum(xf, c1 - c0, run, ((taps[c0:c1, i, j, None], c0, start[i][j])
                                              for i in range(n) for j in range(n)))
            out_v[c0:c1] = acc.reshape(c1 - c0, ho, wq, nb)[:, :, :wo]
    return res


def widthwise_conv(x: np.ndarray, bank: ConvKernelBank) -> np.ndarray:
    """One n x n kernel per width index, spanning the (channel, height) plane."""
    check_tensor(x)
    nb, c, h, w = x.shape
    if bank.count != w:
        raise KernelError(f"widthwise bank has {bank.count} kernels for width {w}")
    n = bank.n
    p = (n - 1) // 2
    xp = np.pad(x.astype(np.float64, copy=False), ((0, 0), (p, p), (p, p), (0, 0)))
    taps = bank.taps.astype(np.float64, copy=False)
    acc = np.zeros((nb, c, h, w), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            acc += taps[:, i, j][None, None, None, :] * xp[:, i:i + c, j:j + h, :]
    return acc.astype(x.dtype)


def heightwise_conv(x: np.ndarray, bank: ConvKernelBank) -> np.ndarray:
    """One n x n kernel per height index, spanning the (channel, width) plane:
    `widthwise_conv` of x with H and W swapped, swapped back."""
    check_tensor(x)
    if bank.count != x.shape[2]:
        raise KernelError(f"heightwise bank has {bank.count} kernels for height {x.shape[2]}")
    return np.ascontiguousarray(widthwise_conv(x.swapaxes(2, 3), bank).swapaxes(2, 3))


# `_pointwise_conv`'s contractions: output o of group g at pixel p sums
# its group's input channels i, with the pixels innermost, or with the
# outputs innermost over the weights read transposed, by
# `_transposed_groups`
_PIXELS_INNER = "goi,gip->gop"
_OUTPUTS_INNER = "gip,gio->gpo"


def _transposed_groups(weights: np.ndarray, groups: int) -> np.ndarray:
    """weights, (C_out, C_in/G), as the (G, C_in/G, C_out/G) view of
    weights.T; a view where weights is Fortran-ordered."""
    cout, cig = weights.shape
    return weights.T.reshape(cig, groups, cout // groups).transpose(1, 0, 2)


def _einsum_is_exact(einsum=np.einsum) -> bool:
    """Whether einsum, called as `_pointwise_conv` calls it, gives the bytes
    of a loop over the input channels i that adds each rounded product
    w[o, i] * x[i] to its output: each output 0.0 plus one rounded product
    per input channel, in ascending order.

    With the pixels inner numpy's iterator runs the pixel axis innermost,
    the axis along which w's stride is 0, whether the weights are C- or
    Fortran-ordered; with the outputs inner, over the transposed view of
    Fortran-ordered weights, it runs a group's outputs innermost, where x's
    stride is 0. Either way its kernel adds w*x to a row of outputs once
    per input channel, in order. That is the loop's bytes where the kernel
    rounds each product before the add, and not where it fuses the two
    (FMA, as it can on aarch64 and on x86-64 builds with an FMA baseline).
    The probe's terms tell them apart: 1*-(1 + 2**-26) + (1 + 2**-27)**2 is
    0.0 with the product rounded and 2**-54 fused; 1e16, 1, -1e16, 1 sums to
    1 in order and to 0 pairwise or in reverse; all -0.0 products sum to
    +0.0 only from a +0.0 start. With the pixels inner each pixel holds one
    of these along the input channels, and with the outputs inner each
    output's weights do, or random terms of mixed scales, at pixel and
    output counts that reach the kernel's vector body and its tail. `einsum`
    is a parameter so that tests can hand it a fake."""
    rng = np.random.default_rng(0)
    mixed = lambda *shape: rng.standard_normal(shape) * 2.0 ** rng.integers(-30, 30, size=shape)
    r = 1.0 + 2.0 ** -27
    patterns = ([-(1.0 + 2.0 ** -26), r, 0, 0, 0, 0, 0, 0],
                [0, 0, 1e16, 1, -1e16, 1, 0, 0], [-0.0] * 8)

    def exact(subscripts, a, b, ref):
        got = einsum(subscripts, a, b, out=np.full(ref.shape, np.nan), optimize=False)
        return got.tobytes() == ref.tobytes()

    for n in (2, 3, 17, 67):
        # n pixels: output 0 of each group weighs every input by 1, input
        # channel 1 by r, and each pixel holds a pattern or random terms
        w, x = mixed(2, 3, 8), mixed(2, 8, n)
        w[:, 0] = 1.0
        w[:, 0, 1] = r
        for p in range(0, n, 4):
            for k, terms in enumerate(patterns[:n - p]):
                x[:, :, p + k] = terms
        ref = np.zeros((2, 3, n))
        for i in range(8):
            ref += w[:, :, i, None] * x[:, None, i]
        # the weights C- and Fortran-ordered
        if not (exact(_PIXELS_INNER, w, x, ref) and exact(
                _PIXELS_INNER, np.asfortranarray(w.reshape(6, 8)).reshape(2, 3, 8), x, ref)):
            return False
        # n outputs per group on 1, 2, 3 and 17 pixels: every pixel holds 1,
        # r, 1, 1, 1, 1 and random terms of one sign per input channel, and
        # each output's weights a pattern or random terms; the -0.0 pattern
        # takes the sign of -x, so each product is -0.0
        sign = mixed(2, 8)
        sign[:, :6] = 1.0
        w = mixed(2, n, 8)
        for o in range(0, n, 4):
            for k, terms in enumerate(patterns[:n - o]):
                w[:, o + k] = np.copysign(terms, -sign) if k == 2 else terms
        wt = _transposed_groups(np.asfortranarray(w.reshape(2 * n, 8)), 2)
        for npix in (1, 2, 3, 17):
            x = np.copysign(mixed(2, 8, npix), sign[..., None])
            x[:, :6] = np.array([1.0, r, 1.0, 1.0, 1.0, 1.0])[:, None]
            ref = np.zeros((2, npix, n))
            for i in range(8):
                ref += x[:, i, :, None] * wt[:, i, None]
            if not exact(_OUTPUTS_INNER, x, wt, ref):
                return False
    return True


# whether `pointwise_conv` runs its einsum
EINSUM_EXACT = _einsum_is_exact()


def outputs_inner(npix: int, cog: int, fortran: bool) -> bool:
    """Whether `pointwise_conv` runs its einsum with a group's outputs
    innermost, on `npix` pixels (of the call, or of one image block) and
    `cog` outputs per group: where the build's einsum is exact, the weights
    are Fortran-ordered (`fortran`) and a row of outputs is at least twice
    as long as a row of pixels. Nearer parity the pixels-inner einsum is as
    fast or faster."""
    return EINSUM_EXACT and fortran and cog >= 2 * npix


def pointwise_conv(x: np.ndarray, weights: np.ndarray, groups: int = 1,
                   stride: int = 1, bias: np.ndarray | None = None) -> np.ndarray:
    """1x1 convolution: weights has shape (C_out, C_in // groups), and the
    optional bias one value per output channel. On a 1x1 image this is a
    fully connected layer, group g mapping input slice g to output slice g.

    Keeps the oracle's order: every output starts at 0.0 and adds its
    group's C_in // groups products one input channel at a time, each
    product rounded before its add, then the bias. x is laid out
    channel-major, (G, C_in/G, P), with the batch folded into the P =
    N*Ho*Wo pixels.

    Where `EINSUM_EXACT`, one unoptimized `np.einsum` runs along the longer
    of two rows, each kernel call adding weight * input along it once per
    input channel, in ascending order, from a zeroed output:
    - `"gip,gio->gpo"` over the (G, C_in/G, C_out/G) view of weights.T,
      where the weights are Fortran-ordered, as the network builder makes
      every pointwise layer's, and C_out/G >= 2*P (`outputs_inner`):
      numpy's iterator runs a group's outputs innermost, where the input's
      stride is 0, into a (G, P, C_out/G) accumulator stored transposed.
      At P = 1 this is a fully connected layer at batch 1.
    - `"goi,gip->gop"` over the (G, C_out/G, C_in/G) weights on P >= 2
      pixels otherwise: the iterator runs the pixel axis innermost, where
      the weights' stride is 0.
    That is the oracle's order, and where the kernel rounds each product
    before its add it is the oracle's bytes; `_einsum_is_exact` probes the
    build for that at import, since a kernel that uses FMA (aarch64, an FMA
    baseline) would give other bytes. Short rows make many short kernel
    calls, so the outputs go inside where their row is the longer; the
    pixels stay inside until the outputs' row is twice theirs, below which
    the outputs-inner form measured no faster. C-ordered weights would need
    a transposed copy per call, and at one pixel the pixels-inner einsum
    would run the input channels innermost, in an order of its own; at P =
    1 both keep the accumulate loop below.

    Where the probe fails, P >= 2 runs a loop of numpy calls in the same
    order instead. Each step is an outer product of a weight column and an
    input channel, and runs along the longer of two axes: the pixels, or the
    outputs of a group. The loop runs with numpy's ufunc
    buffer at its minimum, 16 elements, restored on the way out:
    with the default 8192-element buffer numpy's iterator copies the
    broadcast operands through it, which costs more than the multiply and
    the add together; with the minimum it runs its inner loop unbuffered
    along the long contiguous axis. The bytes cannot change: the order of
    the adds is the oracle's, `w*x == x*w` exactly in IEEE arithmetic, and
    the buffer only moves data. Kernels with short rows keep the default
    buffer, which is faster for them.

    At P = 1 off the einsum, and, where the probe fails, on a 1x1 output
    grid with N*C_out/G < LINEAR_FEATURE_LOOP, each step's outer product is
    too short to pay for its numpy call, and another loop runs in the same
    order: the products are laid out in weight order, (N, G, C_out/G,
    C_in/G), and `np.add.accumulate` runs the sum along the input channels,
    which adds one term at a time. Channels go in blocks of LINEAR_BLOCK, so
    no product array grows with C_in; the running sum of one block is added
    into the first product of the next, starting from 0.0. No choice changes
    a byte.
    """
    return _image_blocks(_pointwise_conv, x, weights, groups, stride, bias)


def _pointwise_conv(x, weights, groups, stride, bias, out=None):
    check_tensor(x)
    nb, c, h, w = x.shape
    if weights.ndim != 2:
        raise KernelError(f"pointwise weights must be 2D, got {weights.shape}")
    cout = weights.shape[0]
    if c % groups != 0 or cout % groups != 0:
        raise KernelError(f"channels in={c}, out={cout} not divisible by groups={groups}")
    cig, cog = c // groups, cout // groups
    if weights.shape[1] != cig:
        raise KernelError(f"weight rows have {weights.shape[1]} coefficients, expected {cig}")
    if stride < 1:
        raise KernelError(f"stride must be >= 1, got {stride}")
    xs = x[:, :, ::stride, ::stride]
    ho, wo = xs.shape[2], xs.shape[3]
    npix = nb * ho * wo
    inner = outputs_inner(npix, cog, weights.flags.f_contiguous)
    if (npix < 2 and not inner) or (
            ho == wo == 1 and not EINSUM_EXACT and nb * cog < LINEAR_FEATURE_LOOP):
        res = _output(out, (nb, cout, 1, 1), x.dtype)
        xg = xs.astype(np.float64, copy=False).reshape(nb, groups, 1, cig)
        wg = weights.astype(np.float64, copy=False).reshape(groups, cog, cig)
        acc = np.zeros((nb, groups, cog), dtype=np.float64)
        for f0 in range(0, cig, LINEAR_BLOCK):
            prod = xg[..., f0:f0 + LINEAR_BLOCK] * wg[..., f0:f0 + LINEAR_BLOCK]
            prod[..., 0] += acc
            np.add.accumulate(prod, axis=-1, out=prod)
            acc = prod[..., -1]
        # (G, C_out/G, N), as the loops below leave it
        acc = acc.transpose(1, 2, 0)
    else:
        xg = np.ascontiguousarray(xs.transpose(1, 0, 2, 3), dtype=np.float64) \
            .reshape(groups, cig, npix)
        # a view of float64 weights, Fortran-ordered ones included
        w64 = weights.astype(np.float64, copy=False)
        f64 = x.dtype == np.float64
        if inner:
            # one pixel's (G, 1, C_out/G) accumulator is laid out as its
            # result; einsum zeroes its out before the sum
            res = _output(out, (nb, cout, ho, wo), x.dtype)
            acc = res.reshape(groups, 1, cog) if f64 and npix == 1 \
                else np.empty((groups, npix, cog))
            np.einsum(_OUTPUTS_INNER, xg, _transposed_groups(w64, groups), out=acc,
                      optimize=False)
            acc = acc.transpose(0, 2, 1)
        elif EINSUM_EXACT:
            # one image's (G, C_out/G, pixels) accumulator is laid out as its
            # result; einsum zeroes its out before the sum
            res = _output(out, (nb, cout, ho, wo), x.dtype)
            acc = res.reshape(groups, cog, npix) if f64 and nb == 1 \
                else np.empty((groups, cog, npix))
            np.einsum(_PIXELS_INNER, w64.reshape(groups, cog, cig), xg, out=acc, optimize=False)
        else:
            wt = w64.reshape(groups, cog, cig).transpose(0, 2, 1)
            # a[:, ci] * b[:, ci] is the outer product of weight column ci and
            # input channel ci for every group, with the longer axis last
            pixels_inner = npix >= cog
            if pixels_inner:
                a, b = wt[..., None], xg[:, :, None]
            else:
                a, b = xg[..., None], np.ascontiguousarray(wt)[:, :, None]
            # one image's (G, C_out/G, pixels) accumulator is laid out as its result
            in_place = f64 and pixels_inner and nb == 1
            res = _output(out, (nb, cout, ho, wo), x.dtype, zeros=in_place)
            if in_place:
                acc = res.reshape(groups, cog, npix)
            else:
                acc = np.zeros((groups, a.shape[2], b.shape[3]), dtype=np.float64)
            with _small_buffer():
                for ci in range(cig):
                    acc += a[:, ci] * b[:, ci]
            if not pixels_inner:
                acc = acc.transpose(0, 2, 1)
    if bias is not None:
        acc += bias.astype(np.float64).reshape(groups, cog, 1)
    # acc is (G, C_out/G, P); res, C-contiguous, viewed as (N, G, C_out/G, Ho, Wo)
    _store(res.reshape(nb, groups, cog, ho, wo),
           acc.reshape(groups, cog, nb, ho, wo).transpose(2, 0, 1, 3, 4))
    return res


def im2col(x: np.ndarray, n: int, stride: int) -> np.ndarray:
    """The float64 im2col matrix of x for an n x n window at `stride`, 'same'
    padding, (N, C, n, n, Ho, Wo): [b, c, i, j] holds the Ho x Wo pixels of
    channel c of image b that tap (i, j) meets. It is C-contiguous, so
    (N, C*n*n, Ho*Wo) is a view of it."""
    nb, c, h, w = x.shape
    p = (n - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    xp = np.zeros((nb, c, p + h + right_pad(h, ho, stride, n),
                   p + w + right_pad(w, wo, stride, n)))
    xp[:, :, p:p + h, p:p + w] = x
    cols = np.empty((nb, c, n, n, ho, wo))
    for i in range(n):
        for j in range(n):
            cols[:, :, i, j] = xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                                  j:j + stride * (wo - 1) + 1:stride]
    return cols


def conv2d(x: np.ndarray, weights: np.ndarray, stride: int = 1) -> np.ndarray:
    """Standard dense convolution, weights (C_out, C_in, n, n), same padding.

    One matrix product per image block: the weights as (C_out, C_in*n*n)
    times the block's im2col matrix, (N, C_in*n*n, Ho*Wo). BLAS sums each
    output's taps*C_in products in an order of its own, so conv2d is outside
    the bitwise set; `verify` gates it by the dot-product bound. numpy runs
    one GEMM per image, so an image's bytes do not depend on the batch or on
    the block it falls in.
    """
    return _image_blocks(_conv2d, x, weights, stride)


def _conv2d(x, weights, stride, out=None):
    check_tensor(x)
    nb, c, h, w = x.shape
    cout, cin, n, n2 = weights.shape
    if cin != c or n != n2 or n % 2 == 0:
        raise KernelError(f"bad conv2d weights {weights.shape} for input {x.shape}")
    if stride < 1:
        raise KernelError(f"stride must be >= 1, got {stride}")
    cols = im2col(x, n, stride)
    ho, wo = cols.shape[4], cols.shape[5]
    w2 = weights.astype(np.float64, copy=False).reshape(cout, c * n * n)
    res = _output(out, (nb, cout, ho, wo), x.dtype)
    acc = np.matmul(w2, cols.reshape(nb, c * n * n, ho * wo),
                    out=res.reshape(nb, cout, ho * wo) if res.dtype == np.float64 else None)
    return _store(res, acc.reshape(res.shape))


def pool(x: np.ndarray, kind: str, k: int = 3, stride: int = 1) -> np.ndarray:
    """Pooling: kind is 'max' or 'global_avg'. Average pooling over a window
    is `depthwise_conv` by `avg_bank`."""
    check_tensor(x)
    if stride < 1:
        raise KernelError(f"stride must be >= 1, got {stride}")
    if kind == "global_avg":
        return x.astype(np.float64, copy=False).mean(axis=(2, 3), keepdims=True).astype(x.dtype)
    if kind != "max":
        raise KernelError(f"unknown pool kind {kind!r}")
    return _image_blocks(_max_pool, x, k, stride)


def _max_pool(x, k, stride, out=None):
    nb, c, h, w = x.shape
    p = (k - 1) // 2
    ho, wo = ceil_div(h, stride), ceil_div(w, stride)
    xp = np.pad(x.astype(np.float64, copy=False), ((0, 0), (0, 0), (p, right_pad(h, ho, stride, k)),
                (p, right_pad(w, wo, stride, k))), constant_values=-np.inf)
    res = _output(out, (nb, c, ho, wo), x.dtype)
    acc = res if res.dtype == np.float64 else np.empty(res.shape)
    acc[...] = -np.inf
    for i in range(k):
        for j in range(k):
            np.maximum(acc, xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                               j:j + stride * (wo - 1) + 1:stride], out=acc)
    return _store(res, acc)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _prelu_factor(y, s) -> np.ndarray:
    """1 where y >= 0 and s where y < 0, with s per channel and shaped to
    broadcast against y: PReLU(y) is y*f bit for bit (y*1 == y, y*s == s*y),
    and f is its derivative. f is picked on the bits, 1 ^ ((1 ^ s) & mask)
    with mask all ones where y < 0, so every slope comes through unchanged,
    -0.0 and non-finite ones too. np.where would give the same bytes, but its
    per-element branch costs more on rows of mixed signs than every other
    pass of the op together."""
    it = np.dtype(f"i{y.dtype.itemsize}")
    one = np.ones(1, dtype=y.dtype).view(it)
    mask = (y < 0).view(np.int8)
    np.negative(mask, out=mask)          # -1, all ones once widened to `it`
    f = np.bitwise_and(s.view(it) ^ one, mask)
    f ^= one
    return f.view(y.dtype)


def bn_prelu(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, slope: np.ndarray,
             mean: np.ndarray, var: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batch norm by the per-channel mean and var, then a per-channel PReLU:
    ((x - mean)*inv_std)*gamma + beta in float64, with inv_std =
    1/sqrt(var + BN_EPS), cast to x's dtype, then where(y >= 0, y, s*y),
    byte for byte, finished in place. Inference passes the running
    statistics, training the batch's. Every pass is elementwise and runs over
    one image block of at most BLOCK_BYTES of float64 before the next block
    starts, so the block stays in cache. The result goes into `out` (x
    itself, say), or a new array, of x's shape and dtype. A float64 result is
    also the float64 buffer; for float32 the blocks share one float64 buffer
    of a block's size."""
    vectors = (gamma, beta, slope, mean, var)
    if any(np.shape(a) != x.shape[1:2] for a in vectors):
        raise KernelError(f"bn_prelu vectors of shapes {[np.shape(a) for a in vectors]}, "
                          f"input has {x.shape[1]} channels")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    mean, inv_std, gamma, beta, s = (
        a[None, :, None, None]
        for a in (mean, inv_std, gamma, beta, slope.astype(x.dtype, copy=False)))
    nb = x.shape[0]
    per = _images_per_block(x)
    if out is None:
        out = np.empty_like(x)
    wide = None if x.dtype == np.float64 else np.empty((min(per, nb),) + x.shape[1:])
    for i in range(0, nb, per):
        o = out[i:i + per]
        b = o if wide is None else wide[:len(o)]
        np.subtract(x[i:i + per], mean, dtype=np.float64, out=b)
        b *= inv_std
        b *= gamma
        b += beta
        if b is not o:
            o[...] = b
        o *= _prelu_factor(o, s)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    x64 = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x64)
    pos = x64 >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x64[pos]))
    e = np.exp(x64[~pos])
    out[~pos] = e / (1.0 + e)
    return out.astype(np.asarray(x).dtype)


def _resize_coords(src: int, dst: int):
    """Source rows lo and hi and weight f of hi for each of dst outputs, half-pixel
    centers, computed as `oracle.oracle_bilinear` computes them."""
    s = np.minimum(np.maximum((np.arange(dst) + 0.5) * src / dst - 0.5, 0.0), src - 1.0)
    lo = np.floor(s).astype(np.intp)
    return lo, np.minimum(lo + 1, src - 1), s - lo


def resize_matrix(src: int, dst: int) -> np.ndarray:
    """Dense (dst, src) bilinear interpolation matrix, half-pixel centers."""
    lo, hi, f = _resize_coords(src, dst)
    m = np.zeros((dst, src), dtype=np.float64)
    rows = np.arange(dst)
    np.add.at(m, (rows, lo), 1.0 - f)
    np.add.at(m, (rows, hi), f)
    return m


def bilinear_resize(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear interpolation with half-pixel centers (align-corners false).

    Keeps the oracle's order for each output: with g = 1 - f,
    ((gh*gw*x00 + gh*fw*x01) + fh*gw*x10) + fh*fw*x11, where the weight
    products come first and every term is added, zero weights included.
    The coordinates and the four (H_out, W_out) weight tables are computed
    once per call. Each image block gathers source columns w0 and w1 over all
    input rows, the only two single-element gathers, then copies the rows h0
    and h1 of those two arrays: x00 and x10 come from column w0, x01 and x11
    from column w1. Each term is gathered into one reused buffer, scaled by
    its weight and added, at the input's own size too.
    """
    check_tensor(x)
    if target_h < 1 or target_w < 1:
        raise KernelError(f"resize targets must be >= 1, got {(target_h, target_w)}")
    h0, h1, fh = _resize_coords(x.shape[2], target_h)
    w0, w1, fw = _resize_coords(x.shape[3], target_w)
    gh, gw = 1.0 - fh, 1.0 - fw
    weights = (np.outer(gh, gw), np.outer(gh, fw), np.outer(fh, gw), np.outer(fh, fw))
    return _image_blocks(_bilinear_resize, x, h0, h1, w0, w1, weights)


def _bilinear_resize(x, h0, h1, w0, w1, weights, out=None):
    res = _output(out, x.shape[:2] + (len(h0), len(w0)), x.dtype)
    acc = res if res.dtype == np.float64 else np.empty(res.shape)
    term = np.empty(res.shape)
    # mode="clip" lets np.take write its out= array directly, unbuffered;
    # every index is in range, so nothing is clipped. x*w == w*x exactly
    col0, col1 = (np.take(x, w, axis=3, mode="clip").astype(np.float64, copy=False)
                  for w in (w0, w1))
    np.take(col0, h0, axis=2, out=acc, mode="clip")
    acc *= weights[0]
    for wt, col, rows in ((weights[1], col1, h0), (weights[2], col0, h1),
                          (weights[3], col1, h1)):
        np.take(col, rows, axis=2, out=term, mode="clip")
        term *= wt
        acc += term
    return _store(res, acc)
