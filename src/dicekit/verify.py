"""Self-check suites: kernel/oracle equivalence; the gradient contract, as
adjoint checks of the linear ops and central-difference checks of every
op's backward; and cost-formula cross-checks. The CLI surfaces these as
`verify --suite ...`; the test suite drives them directly."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import oracle as orc
from . import tensorops as T
from .dimops import (
    DimConvParams,
    dimconv_fused,
    dimconv_macs,
    dimconv_unfused,
    dimfuse_cost,
    dimfuse_reduction_factor,
)
from .netbuilder import OPS, AutogradOps
from .tensorops import ConvKernelBank

SUITES = ("kernels", "gradients", "flops")
# the training interpreter: the vocabulary ops on the tape, raw arrays constant
_OPS = AutogradOps()


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.name}: max_err={self.max_err:.3e}"
        return msg + (f" ({self.detail})" if self.detail else "")


def _keep_worst(worst, check: CheckResult):
    """Keep the worse of `check` and `worst[check.name]`: a failure, else
    the larger error."""
    prev = worst.get(check.name)
    if prev is None or (not check.passed, check.max_err) > (not prev.passed, prev.max_err):
        worst[check.name] = check


def _rand_shape(rng, cmax=12, smax=14):
    return (int(rng.integers(1, 3)), int(rng.integers(1, cmax)),
            int(rng.integers(2, smax)), int(rng.integers(2, smax)))


def _bitwise(name, fast, ref) -> CheckResult:
    # bytes, not ==: a +0.0 where the oracle has -0.0 is a mismatch too
    same = fast.dtype == ref.dtype and fast.shape == ref.shape \
        and fast.tobytes() == ref.tobytes()
    err = 0.0 if same or fast.shape != ref.shape else float(np.abs(fast - ref).max())
    return CheckResult(name, same, err)


def _bounded(name, fast, ref, bound) -> CheckResult:
    """fast against ref, every element within its own error bound."""
    if fast.dtype != ref.dtype or fast.shape != ref.shape:
        return CheckResult(name, False, float("inf"),
                           f"{fast.dtype}{fast.shape} against {ref.dtype}{ref.shape}")
    err = np.abs(fast.astype(np.float64) - ref.astype(np.float64))
    ok = bool(np.all(err <= bound))
    ratio = float((err / np.maximum(bound, np.finfo(np.float64).tiny)).max())
    return CheckResult(name, ok, float(err.max()), f"max err/bound={ratio:.3f}")


def dot_bound(k: int, abs_dot: np.ndarray) -> np.ndarray:
    """2·γ_k·Σ|w||x|, elementwise: how far two float64 evaluations of the same
    k-term dot products may lie apart, whatever their order of operations.

    Higham (Accuracy and Stability of Numerical Algorithms, §3.1): every
    evaluation order of a k-term dot product, each product rounded or fused,
    lies within γ_k·Σ|w_i||x_i| of the exact value, where γ_k = k·u/(1 − k·u)
    and u = 2⁻⁵³. Two evaluations, such as a kernel and the oracle, each lie
    that close to the same exact value, so they lie within twice that of one
    another. `abs_dot` is Σ|w||x| for each output, computed by the oracle on
    |w| and |x|; its own rounding changes the bound by a relative γ_k, a
    second-order term. conv2d has k = taps·C_in products per output. A
    global average has H·W, and one rounding more: the oracle's weight
    1/(H·W) is itself rounded, so it takes k = H·W + 1.
    """
    u = np.finfo(np.float64).eps / 2
    return 2.0 * (k * u / (1.0 - k * u)) * abs_dot


def pointwise_draw(rng, channels_inner: bool):
    """An input and weights with signed zeros, groups and a stride for
    `pointwise_conv`. With `channels_inner` one image on a 1×1 to 3×3 output
    grid at stride 2 has fewer pixels than a group has outputs (up to 24), so
    the kernel's loop, where its einsum is not exact, runs along the outputs
    of a group; otherwise the pixels, at batch 1–3, are the longer axis."""
    groups, cig = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    if channels_inner:
        nb, stride = 1, 2
        h, w = (int(v) for v in rng.integers(1, 7, size=2))
        npix = T.ceil_div(h, 2) * T.ceil_div(w, 2)
        cog = int(rng.integers(npix + 1, 25))
    else:
        nb, stride = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        h, w = (int(v) for v in rng.integers(2, 9, size=2))
        npix = nb * T.ceil_div(h, stride) * T.ceil_div(w, stride)
        cog = int(rng.integers(1, min(npix, 8) + 1))
    x = signed_zeros(rng, rng.standard_normal((nb, groups * cig, h, w)))
    wts = signed_zeros(rng, rng.standard_normal((groups * cog, cig)))
    return x, wts, groups, stride


def deep_draw(rng):
    """An input, weights, groups, a stride and, on half the draws, a bias, all
    with signed zeros, for `pointwise_conv` with 9–300 input channels per
    group: on half the draws 1×1 images at batch 2–9, otherwise batch 1–3
    with 2–49 output pixels in all. `pointwise_draw` and `fc_draw` reach at
    most 6 and 24 inputs per group, too few to show a reordered sum for
    certain."""
    groups, cig, cog = int(rng.integers(1, 3)), int(rng.integers(9, 301)), int(rng.integers(1, 4))
    if rng.random() < 0.5:
        nb, stride, h, w = int(rng.integers(2, 10)), 1, 1, 1
    else:
        nb, stride, ho = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 8))
        wo = int(rng.integers(1 if nb * ho > 1 else 2, 49 // (nb * ho) + 1))
        h, w = (stride * n - int(rng.integers(0, stride)) for n in (ho, wo))
    x = signed_zeros(rng, rng.standard_normal((nb, groups * cig, h, w)))
    wts = signed_zeros(rng, rng.standard_normal((groups * cog, cig)))
    bias = signed_zeros(rng, rng.standard_normal(groups * cog)) if rng.random() < 0.5 else None
    return x, wts, groups, stride, bias


def resize_draw(rng):
    """An input with signed zeros and a target size for `bilinear_resize`:
    down- or upsampling on each axis, 1-pixel sides, and on one draw in
    five the input's own size."""
    nb, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
    h, w, th, tw = (int(v) for v in rng.integers(1, 10, size=4))
    x = signed_zeros(rng, rng.standard_normal((nb, c, h, w)))
    return (x, h, w) if rng.random() < 0.2 else (x, th, tw)


def fc_draw(rng):
    """A 1×1 input, weights, groups, a stride of 1 and, on half the draws, a
    bias, all with signed zeros, for `pointwise_conv` as a fully connected
    layer at batch 2–9 with up to 300 outputs per group, so that N·C_out/G
    lands on both sides of `tensorops.LINEAR_FEATURE_LOOP` and either of
    its 1×1 loops runs."""
    nb, groups = int(rng.integers(2, 10)), int(rng.choice([1, 2, 4]))
    fig, fog = int(rng.integers(1, 25)), int(rng.integers(1, 301))
    x = signed_zeros(rng, rng.standard_normal((nb, groups * fig, 1, 1)))
    wts = signed_zeros(rng, rng.standard_normal((groups * fog, fig)))
    bias = signed_zeros(rng, rng.standard_normal(groups * fog)) if rng.random() < 0.5 else None
    return x, wts, groups, 1, bias


def fc_layer_draw(rng, one_output: bool):
    """A fully connected layer at batch 1 as the network builder makes one:
    a 1×1 input, Fortran-ordered weights, 1, 2 or 4 groups of 1–300 inputs
    and, with `one_output`, one output each, otherwise 2–300, a stride of 1
    and, on half the draws, a bias, all with signed zeros. Two or more
    outputs per group run `pointwise_conv`'s outputs-inner einsum where the
    build's einsum is exact; one runs its accumulate loop."""
    groups, fig = int(rng.choice([1, 2, 4])), int(rng.integers(1, 301))
    fog = 1 if one_output else int(rng.integers(2, 301))
    x = signed_zeros(rng, rng.standard_normal((1, groups * fig, 1, 1)))
    wts = np.asfortranarray(signed_zeros(rng, rng.standard_normal((groups * fog, fig))))
    bias = signed_zeros(rng, rng.standard_normal(groups * fog)) if rng.random() < 0.5 else None
    return x, wts, groups, 1, bias


def short_draw(rng):
    """An input, Fortran-ordered weights, groups, a stride and, on half the
    draws, a bias, all with signed zeros, for `pointwise_conv` on short rows
    of pixels: 1–2 images with 1–9 px sides at stride 1 or 2, P output
    pixels in all, 1, 2 or 4 groups of 1–12 inputs and 2·P to 300 outputs
    each, where the kernel runs its einsum with a group's outputs innermost
    if the build's einsum is exact."""
    nb, stride = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    groups, h = int(rng.choice([1, 2, 4])), int(rng.integers(1, 10))
    # at most 150 pixels, so that 2·P outputs per group fit in 300
    rows = nb * T.ceil_div(h, stride)
    w = int(rng.integers(1, min(9, stride * (150 // rows)) + 1))
    npix = rows * T.ceil_div(w, stride)
    cig, cog = int(rng.integers(1, 13)), int(rng.integers(2 * npix, 301))
    x = signed_zeros(rng, rng.standard_normal((nb, groups * cig, h, w)))
    wts = np.asfortranarray(signed_zeros(rng, rng.standard_normal((groups * cog, cig))))
    bias = signed_zeros(rng, rng.standard_normal(groups * cog)) if rng.random() < 0.5 else None
    return x, wts, groups, stride, bias


def batch_inner_draw(rng):
    """An input whose batch, 3–9 images, is longer than its 1–2 px rows, and a
    kernel extent, which `_rand_shape`'s batch of 1–2 and width of 2 or more
    never reach. `depthwise_conv` at strides 1–3 and `dimconv_fused` run
    their taps over runs where junk columns outnumber real ones."""
    nb, c = int(rng.integers(3, 10)), int(rng.integers(1, 7))
    h, w = int(rng.integers(1, 8)), int(rng.integers(1, 3))
    return rng.standard_normal((nb, c, h, w)), int(rng.choice([1, 3, 5]))


def max_pool_draw(rng):
    """An input for max pooling, a window of 1, 3 or 5 and a stride of 1–3.
    Its values are small integers, ±0.0 and about one in ten -inf, so that
    windows tie (the later tap's value is kept, which picks a zero's sign)."""
    nb, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    h, w = (int(v) for v in rng.integers(1, 10, size=2))
    x = signed_zeros(rng, rng.integers(-2, 3, size=(nb, c, h, w)).astype(np.float64), 0.2)
    x[rng.random(x.shape) < 0.1] = -np.inf
    return x, int(rng.choice([1, 3, 5])), int(rng.integers(1, 4))


def stem_draw(rng):
    """An input and weights at the stem's shapes for `conv2d`: 3 channels in,
    8–24 out, 3×3 at stride 2, 1–4 images with sides 20–64, so that each
    GEMM runs 27-term dot products over hundreds to a thousand pixels.
    `run_kernels`' other conv2d draws have ≤2 images, ≤4 channels and sides
    ≤8. Three or four images with sides past about 53 span more than one
    image block."""
    nb, cout = int(rng.integers(1, 5)), int(rng.integers(8, 25))
    h, w = (int(v) for v in rng.integers(20, 65, size=2))
    return rng.standard_normal((nb, 3, h, w)), rng.standard_normal((cout, 3, 3, 3))


def signed_zeros(rng, a, share=0.1):
    """Set about `share` of the entries of `a` to +0.0 and as many to -0.0."""
    u = rng.random(a.shape)
    a[u < share] = 0.0
    a[u > 1.0 - share] = -0.0
    return a


def _f32(args):
    """`args` rounded to float32: arrays, kernel banks and DimConv params.
    Strides, group counts and None pass through unchanged."""
    def one(a):
        if isinstance(a, np.ndarray):
            return a.astype(np.float32)
        if isinstance(a, ConvKernelBank):
            return ConvKernelBank(a.taps.astype(np.float32))
        if isinstance(a, DimConvParams):
            return DimConvParams(one(a.k_d), one(a.k_w), one(a.k_h))
        return a
    return [one(a) for a in args]


def run_kernels(seed: int = 0, draws: int = 10, fault: str | None = None):
    """Fast kernels against the naive oracle, bitwise in f64 and, as
    `<kind>.f32`, bitwise on the same draws rounded to f32; conv2d and the
    global average within `dot_bound`, in f64 only. The `.batch_inner` kinds
    draw from `batch_inner_draw`: batches longer than 1–2 px rows, where the
    tap runs are mostly junk columns. `depth` and `dimconv` also get one draw
    each with ±0.0 in the input and the taps. `depth` runs at strides 1–3,
    each over one phase run per tap. `pointwise.1x1` runs `pointwise_conv`
    as a fully connected layer, on 1×1 images at batch 1–2 with a bias on
    one draw in four, and `pointwise.1x1.batch` on `fc_draw`'s: batches of
    2–9, on both sides of the shape that picks its 1×1 loop.
    `pointwise.deep` draws from `deep_draw`: 9–300 inputs per group, so that
    a sum in another order than the oracle's shows. `pointwise.fc` draws
    from `fc_layer_draw`: a network's fully connected layer at batch 1,
    Fortran-ordered, with one output per group on one draw in five.
    `pointwise.short` draws from `short_draw`: short rows of pixels and
    Fortran-ordered weights with at least twice as many outputs per group.
    `max_pool` draws from `max_pool_draw`. `conv2d.stem` draws from
    `stem_draw` on one draw in five, since the oracle takes about a second
    per draw at those shapes.

    `fault` perturbs the named fast path before comparison; it exists so the
    harness can prove a broken kernel is actually detected.
    """
    rng = np.random.default_rng(seed)
    # resize, both-orientation pointwise, conv2d, global-average, batch-inner,
    # stem, signed-zero, batched 1x1, max-pool, deep pointwise, batch-1
    # fully connected and short-row pointwise draws come from their own
    # generators and leave the others' draws alone
    resize_rng = np.random.default_rng([seed, 1])
    pw_rng = np.random.default_rng([seed, 2])
    conv_rng = np.random.default_rng([seed, 3])
    gap_rng = np.random.default_rng([seed, 4])
    batch_rng = np.random.default_rng([seed, 5])
    stem_rng = np.random.default_rng([seed, 6])
    zero_rng = np.random.default_rng([seed, 7])
    fc_rng = np.random.default_rng([seed, 8])
    max_rng = np.random.default_rng([seed, 9])
    deep_rng = np.random.default_rng([seed, 10])
    fc1_rng = np.random.default_rng([seed, 11])
    short_rng = np.random.default_rng([seed, 12])
    worst = {}

    def bitwise(kind, fast, ref, *args):
        # an oracle returns (out, counter); resize and max pooling just out
        for name, a in ((kind, args), (kind + ".f32", _f32(args))):
            out = ref(*a)
            _keep_worst(worst, _bitwise(name, fast(*a), out[0] if isinstance(out, tuple) else out))

    def fused(x, p):
        out = dimconv_fused(x, p)
        if fault == "dimconv":
            out = out.copy()
            out.flat[0] += 1e-6
        return out

    def check_dimconv(suffix, x, p):
        bitwise("dimconv" + suffix, fused, orc.oracle_dimconv, x, p)
        bitwise("dimconv_fusion" + suffix, fused, dimconv_unfused, x, p)

    for i in range(draws):
        nb, c, h, w = _rand_shape(rng)
        n = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((nb, c, h, w))
        stride = int(rng.choice([1, 2, 3]))

        bitwise("depth", T.depthwise_conv, orc.oracle_depthwise,
                x, ConvKernelBank.random(c, n, rng), stride)
        bitwise("width", T.widthwise_conv, orc.oracle_widthwise,
                x, ConvKernelBank.random(w, n, rng))
        bitwise("height", T.heightwise_conv, orc.oracle_heightwise,
                x, ConvKernelBank.random(h, n, rng))

        # one group, two groups, and one group per channel with 3 inputs
        # and 1 output each, the shape of the DiCE unit's local fusion
        groups = (1, 2, c)[i % 3]
        if groups == c:
            cig, cog = 3, 1
        else:
            cig, cog = int(rng.integers(1, 13 // groups)), int(rng.integers(1, 8 // groups))
        xg = signed_zeros(rng, rng.standard_normal((nb, groups * cig, h, w)))
        wg = signed_zeros(rng, rng.standard_normal((groups * cog, cig)))
        bitwise("pointwise", T.pointwise_conv, orc.oracle_pointwise, xg, wg, groups, stride)

        # a fully connected layer: few inputs per group, where the sign of a
        # zero sum shows, or enough to cross two of the 1x1 loop's blocks
        groups = int(rng.choice([1, 2, 4]))
        fig = int(rng.integers(9, 2 * T.LINEAR_BLOCK + 9) if i % 2 else rng.integers(1, 9))
        fout = groups * int(rng.integers(1, 5))
        xf = signed_zeros(rng, rng.standard_normal((nb, groups * fig, 1, 1)))
        wf = signed_zeros(rng, rng.standard_normal((fout, fig)))
        bias = rng.standard_normal(fout) if i % 4 == 3 else None
        bitwise("pointwise.1x1", T.pointwise_conv, orc.oracle_pointwise, xf, wf, groups, 1, bias)
        bitwise("pointwise.1x1.batch", T.pointwise_conv, orc.oracle_pointwise,
                *fc_draw(fc_rng))
        bitwise("pointwise", T.pointwise_conv, orc.oracle_pointwise,
                *pointwise_draw(pw_rng, channels_inner=i % 2 == 0))
        bitwise("pointwise.deep", T.pointwise_conv, orc.oracle_pointwise, *deep_draw(deep_rng))
        bitwise("pointwise.fc", T.pointwise_conv, orc.oracle_pointwise,
                *fc_layer_draw(fc1_rng, one_output=i % 5 == 0))
        bitwise("pointwise.short", T.pointwise_conv, orc.oracle_pointwise, *short_draw(short_rng))

        # conv2d and global average pooling sum in another order than the
        # oracle (einsum over channels, numpy's pairwise mean): gated by the
        # dot-product bound, not bitwise
        xc = conv_rng.standard_normal((int(conv_rng.integers(1, 3)), int(conv_rng.integers(1, 5)),
                                       int(conv_rng.integers(2, 9)), int(conv_rng.integers(2, 9))))
        nc = int(conv_rng.choice([1, 3]))
        wc = conv_rng.standard_normal((int(conv_rng.integers(1, 5)), xc.shape[1], nc, nc))
        sc = int(conv_rng.choice([1, 2]))
        ref, _ = orc.oracle_conv2d(xc, wc, sc)
        abs_dot, _ = orc.oracle_conv2d(np.abs(xc), np.abs(wc), sc)
        _keep_worst(worst, _bounded("conv2d", T.conv2d(xc, wc, sc), ref,
                                    dot_bound(nc * nc * xc.shape[1], abs_dot)))
        if i % 5 == 0:
            xs, ws = stem_draw(stem_rng)
            ref, _ = orc.oracle_conv2d(xs, ws, 2)
            abs_dot, _ = orc.oracle_conv2d(np.abs(xs), np.abs(ws), 2)
            _keep_worst(worst, _bounded("conv2d.stem", T.conv2d(xs, ws, 2), ref,
                                        dot_bound(ws[0].size, abs_dot)))

        xa = gap_rng.standard_normal((int(gap_rng.integers(1, 3)), int(gap_rng.integers(1, 6)),
                                      int(gap_rng.integers(1, 15)), int(gap_rng.integers(1, 15))))
        ref, _ = orc.oracle_global_avg(xa)
        abs_dot, _ = orc.oracle_global_avg(np.abs(xa))
        _keep_worst(worst, _bounded("global_avg", T.pool(xa, "global_avg"), ref,
                                    dot_bound(xa.shape[2] * xa.shape[3] + 1, abs_dot)))

        bitwise("bilinear", T.bilinear_resize, orc.oracle_bilinear, *resize_draw(resize_rng))

        check_dimconv("", x, DimConvParams.init(c, h, w, n, rng))

        # batch longer than the rows
        xb, nk = batch_inner_draw(batch_rng)
        for sb in (1, 2, 3):
            bitwise("depth.batch_inner", T.depthwise_conv, orc.oracle_depthwise,
                    xb, ConvKernelBank.random(xb.shape[1], nk, batch_rng), sb)
        check_dimconv(".batch_inner", xb, DimConvParams.init(*xb.shape[1:], nk, batch_rng))

        # ±0.0 in the input and the taps, which the draws above never hold
        xz = signed_zeros(zero_rng, zero_rng.standard_normal(_rand_shape(zero_rng)))
        nz, sz = int(zero_rng.choice([1, 3, 5])), int(zero_rng.choice([1, 2, 3]))
        bank = ConvKernelBank.random(xz.shape[1], nz, zero_rng)
        signed_zeros(zero_rng, bank.taps)
        bitwise("depth", T.depthwise_conv, orc.oracle_depthwise, xz, bank, sz)
        pz = DimConvParams.init(*xz.shape[1:], nz, zero_rng)
        for b in (pz.k_d, pz.k_w, pz.k_h):
            signed_zeros(zero_rng, b.taps)
        check_dimconv("", xz, pz)

        bitwise("max_pool", lambda a, k, st: T.pool(a, "max", k, st), orc.oracle_max_pool,
                *max_pool_draw(max_rng))

    return [worst[k] for k in sorted(worst)]


def _rel_err(a, b, floor=1e-7):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def grad_check(name, build, theta0, threshold=1e-4) -> CheckResult:
    """Compare the tape's gradient of build(Var) -> scalar Var at theta0
    against central differences of the same function, on unrecorded Vars.
    The differences perturb theta0 in place and restore it."""
    tv = ag.param(theta0.copy())
    ag.backward(build(tv))
    numeric = orc.finite_diff_grad(lambda t: float(build(ag.Var(t)).data), theta0)
    err = _rel_err(tv.grad, numeric)
    return CheckResult(name, err < threshold, err)


def _dot(a, b) -> float:
    return float(np.dot(np.ravel(a).astype(np.float64), np.ravel(b).astype(np.float64)))


def adjoint_check(name, rng, fn, values, k_in, abs_out=None) -> CheckResult:
    """Checks a linear op's backward pass against its forward:
    ⟨dy, y⟩ = ⟨dx, x⟩ = ⟨dtaps, taps⟩, within 2·γ_K·⟨|dy|, |A||x|⟩.

    fn(x, *taps) is linear in x and in each tap array, values = (x, *taps),
    and dy is a random cotangent. y = A·x, where each output is a sum of
    products a·x; dx = Aᵀ·dy, and dtaps sums the products x·dy of each tap.
    All three inner products sum the same triple products dy·a·x, in
    different nested orders: ⟨dy, y⟩ sums each output over at most k_y
    products, then y.size of those; ⟨dx, x⟩ sums each dx over at most k_x
    products, then x.size of those; ⟨dtaps, taps⟩ sums each tap's gradient
    over at most k_t products, then taps.size of those. Every triple product
    thus meets at most k_in + k_out roundings, k_in = max(k_y, k_x, k_t)
    (given by the caller from the op's shapes) and k_out = the longest of
    the outer sums. By Higham (Accuracy and Stability of Numerical
    Algorithms, §3.1 and Lemma 3.3), (1 + θ_j)(1 + θ_k) = 1 + θ_{j+k}, so
    each side lies within γ_K·Σ|dy·a·x| of the exact value, K = k_in + k_out,
    and two sides within twice that: `dot_bound(K, ⟨|dy|, |A||x|⟩)`.
    |A||x| is fn on |x| and |taps|, or `abs_out` where A depends on x (max
    pooling: the selected |x|, which is |y|); its own rounding moves the
    bound by a relative γ, a second-order term.
    """
    vs = [ag.param(np.array(v)) for v in values]
    out = fn(*vs)
    y = out.data
    dy = rng.standard_normal(y.shape)
    ag.backward(out, seed=dy)
    if abs_out is None:
        abs_out = fn(*(np.abs(v) for v in values)).data
    ref = _dot(dy, y)
    sides = [_dot(vs[0].grad, values[0])]
    if len(values) > 1:
        sides.append(sum(_dot(v.grad, t) for v, t in zip(vs[1:], values[1:])))
    k_out = max(y.size, values[0].size, sum(t.size for t in values[1:]))
    bound = float(dot_bound(k_in + k_out, _dot(np.abs(dy), abs_out)))
    err = max(abs(side - ref) for side in sides)
    return CheckResult(name, err <= bound, err, f"err/bound={err / bound:.3f}")


def _wide_batch_shape(rng):
    """(N, C, H, W) with the batch, up to 6 images, longer than the 1–3 px rows."""
    w = int(rng.integers(1, 4))
    return (int(rng.integers(w + 1, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 6)), w)


def _adjoint_checks(rng):
    """`adjoint_check` on every linear op's backward pass, batch longer than
    the width."""
    results = []
    for stride in (1, 2):
        nb, c, h, w = _wide_batch_shape(rng)
        n = int(rng.choice([1, 3, 5]))
        x, taps = rng.standard_normal((nb, c, h, w)), rng.standard_normal((c, n, n))
        k_t = nb * T.ceil_div(h, stride) * T.ceil_div(w, stride)
        results.append(adjoint_check(f"adjoint.depthwise.s{stride}", rng,
                                     lambda a, t, s=stride: _OPS.depthwise(a, t, s),
                                     (x, taps), max(n * n, k_t)))
    nb, c, h, w = _wide_batch_shape(rng)
    x = rng.standard_normal((nb, c, h, w))
    # ⟨dtaps, taps⟩ sums the three banks' terms, so it checks each branch's backward
    banks = tuple(rng.standard_normal((k, 3, 3)) for k in (c, w, h))
    results.append(adjoint_check("adjoint.dimconv", rng, _OPS.dimconv, (x,) + banks,
                                 max(3 * 9, nb * h * w, nb * c * h, nb * c * w)))

    nb, c, h, w = _wide_batch_shape(rng)
    x = rng.standard_normal((nb, c, h, w))
    cout = int(rng.integers(1, 5))
    k_t = nb * T.ceil_div(h, 2) * T.ceil_div(w, 2)
    results.append(adjoint_check("adjoint.spatial_conv", rng,
                                 lambda a, t: _OPS.spatial_conv(a, t, 2),
                                 (x, rng.standard_normal((cout, c, 3, 3))),
                                 max(9 * c, 9 * cout, k_t)))
    results.append(adjoint_check("adjoint.avg_pool", rng, lambda a: _OPS.avg_pool(a, 3, 2),
                                 (x,), 9))
    results.append(adjoint_check("adjoint.max_pool", rng, lambda a: _OPS.max_pool(a, 3, 2),
                                 (x,), 9, abs_out=np.abs(T.pool(x, "max", 3, 2))))

    groups, cig, cog = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    nb, _, h, w = _wide_batch_shape(rng)
    x = rng.standard_normal((nb, groups * cig, h, w))
    stride = int(rng.integers(1, 3))
    k_t = nb * T.ceil_div(h, stride) * T.ceil_div(w, stride)
    results.append(adjoint_check("adjoint.pointwise", rng,
                                 lambda a, t: _OPS.pointwise(a, t, groups, stride),
                                 (x, rng.standard_normal((groups * cog, cig))),
                                 max(cig, cog, k_t)))
    fig, fog = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    x = rng.standard_normal((nb, groups * fig, 1, 1))
    results.append(adjoint_check("adjoint.pointwise.1x1", rng,
                                 lambda a, t: _OPS.pointwise(a, t, groups),
                                 (x, rng.standard_normal((groups * fog, fig))),
                                 max(fig, fog, nb)))
    return results


class _Noting(AutogradOps):
    """The training interpreter, noting the name of every op it runs, in
    `names` and in `ran`, which its user may clear."""

    def __init__(self):
        self.names, self.ran = set(), set()

    def apply(self, name, op, *args, **kwargs):
        self.names.add(name)
        self.ran.add(name)
        return super().apply(name, op, *args, **kwargs)


def _op_checks(rng, brng, only=None):
    """`grad_check`s of every `OPS` record's backward through the training
    interpreter, the worst of 20 draws each; `every_op` fails unless all ran.
    The checks that draw from `brng` leave `rng`'s draws as they were. With
    `only`, a set of `OPS` names, a check whose build runs none of them is
    left out: its build runs once, unrecorded, and no central differences."""
    ops, worst = _Noting(), {}

    def check(name, build, theta0):
        if only is not None:
            ops.ran.clear()
            build(ag.Var(theta0))
            if only.isdisjoint(ops.ran):
                return
        _keep_worst(worst, grad_check(name, build, theta0))

    sq = lambda y: ag.sum_all(ops.mul(y, y))
    for _ in range(20):
        c = int(rng.integers(2, 5))
        h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        x = rng.standard_normal((1, c, h, w))
        stride = int(rng.choice([1, 2]))
        xv = lambda: ag.Var(x)

        check("depthwise", lambda t: sq(ops.depthwise(xv(), t, stride=stride)),
              rng.standard_normal((c, 3, 3)))
        check("pointwise", lambda t: sq(ops.pointwise(xv(), t, stride=stride)),
              rng.standard_normal((3, c)))
        check("spatial_conv", lambda t: sq(ops.spatial_conv(xv(), t, stride=stride)),
              rng.standard_normal((2, c, 3, 3)))
        banks = {"k_d": rng.standard_normal((c, 3, 3)), "k_w": rng.standard_normal((w, 3, 3)),
                 "k_h": rng.standard_normal((h, 3, 3))}
        for key in banks:
            check(f"dimconv.{key}", lambda t: sq(ops.dimconv(
                xv(), *(t if k == key else ag.Var(b) for k, b in banks.items()))), banks[key])
        check("dimconv.x", lambda v: sq(ops.dimconv(v, *map(ag.Var, banks.values()))), x)
        check("avg_pool", lambda v: sq(ops.avg_pool(v, 3, 2)), x)
        check("max_pool", lambda v: sq(ops.max_pool(v, 3, 2)), x)
        check("global_avg", lambda v: sq(ops.global_avg(v)), x)
        # on this draw's planes and on 2x2 planes at a batch longer than their
        # width; the weight keeps the loss from being invariant to the normalization
        for xb, suffix in ((x, ""), (rng.standard_normal((3, c, 2, 2)), ".2x2")):
            args = {"x": xb, "gamma": 1.0 + rng.random(c), "beta": rng.standard_normal(c),
                    "slope": rng.random(c) + 0.1}
            wgt, running = ag.Var(rng.standard_normal(xb.shape)), (np.zeros(c), np.ones(c))
            bn = lambda x, gamma, beta, slope: ops.bn_prelu(
                x, gamma, beta, slope, *ops.bn_stats(x, *running))
            # keep PReLU's inputs off its kink at zero: shift each channel's
            # beta so that zero lies mid-way in the widest gap between them
            pre = bn(xb, args["gamma"], args["beta"], np.ones(c)).data
            pre = np.sort(pre.swapaxes(0, 1).reshape(c, -1))
            gap = np.diff(pre).argmax(axis=1)
            args["beta"] -= (pre[np.arange(c), gap] + pre[np.arange(c), gap + 1]) / 2
            for name in args:
                def build(t):
                    v = {k: t if k == name else ag.Var(a) for k, a in args.items()}
                    return ag.sum_all(ops.mul(bn(**v), wgt))

                check(f"bn_prelu.{name}{suffix}", build, args[name])
        # keep activation inputs away from the kink at zero
        xk = x + 0.05 * np.sign(x)
        check("relu", lambda v: sq(ops.relu(v)), xk)
        check("sigmoid", lambda v: sq(ops.sigmoid(v)), x)
        xl, bl = rng.standard_normal((2, 4, 1, 1)), rng.standard_normal(4)
        check("pointwise.1x1", lambda t: sq(ops.pointwise(ag.Var(xl), t, 2, bias=ag.Var(bl))),
              rng.standard_normal((4, 2)))
        check("bilinear", lambda v: sq(ops.bilinear(v, h + 2, w + 1)), x)
        # grad_check perturbs theta0 in place, and this build reads x too
        check("shuffle", lambda v: sq(ops.shuffle(ops.concat([v, ag.Var(x)]), 2)), x.copy())
        # the second part beside other values, so a split in the wrong place shows
        check("concat", lambda v: sq(ops.concat([ag.Var(xk), v])), x)
        check("narrow", lambda v: sq(ops.narrow(v, 0, c - 1)), x)
        check("narrow.offset", lambda v: sq(ops.narrow(v, 1, c - 1)), x)
        targets = rng.integers(0, 4, size=2)
        check("cross_entropy", lambda s: ag.cross_entropy_ls(s, targets, 0.1),
              rng.standard_normal((2, 4)))
        # per-channel operands broadcast over the planes, the second as DimFuse's
        # gate; and a reshape weighted so that a permuted gradient shows
        check("add", lambda b: sq(ops.add(xv(), b)), rng.standard_normal((1, c, 1, 1)))
        check("mul", lambda g: sq(ops.mul(xv(), g)), rng.standard_normal((1, c, 1, 1)))
        wr = rng.standard_normal((c, h * w))
        check("reshape", lambda v: ag.sum_all(ops.mul(ops.reshape(v, (c, -1)), wr)), x)
        # add and mul summing a per-channel operand over a batch of 2-3,
        # global_avg at that batch, a 1x1 pointwise's input and bias, and
        # bilinear down-sizing and at its own size. bilinear's loss is
        # weighted, linear in x: a squared loss has gradient 2x at its own
        # size, which rounding alone fails where x is near zero
        xb = brng.standard_normal((int(brng.integers(2, 4)), c, h, w))
        check("add.batch", lambda b: sq(ops.add(ag.Var(xb), b)), brng.standard_normal((1, c, 1, 1)))
        check("mul.batch", lambda g: sq(ops.mul(ag.Var(xb), g)), brng.standard_normal((1, c, 1, 1)))
        check("global_avg.batch", lambda v: sq(ops.global_avg(v)), xb)
        fc = [brng.standard_normal(s) for s in ((len(xb), 4, 1, 1), (4, 2), (4,))]
        for i, name in ((0, "pointwise.1x1.x"), (2, "pointwise.1x1.bias")):
            def build(t):
                xf, wf, bf = (t if j == i else ag.Var(a) for j, a in enumerate(fc))
                return sq(ops.pointwise(xf, wf, 2, bias=bf))

            check(name, build, fc[i])
        for suffix, size in ((".down", (int(brng.integers(1, h)), int(brng.integers(1, w)))),
                             (".same", (h, w))):
            rs, wb = lambda v: ops.bilinear(v, *size), brng.standard_normal(x.shape[:2] + size)
            check("bilinear" + suffix, lambda v: ag.sum_all(ops.mul(rs(v), wb)), x)
            # K: an output sums 4 terms of two products, a dx sums th then tw
            # terms, and an edge weight is a rounded sum
            _keep_worst(worst, adjoint_check("adjoint.bilinear", brng, rs, (x,), sum(size) + 4))

    missing = sorted(set(OPS) - ops.names)
    detail = f"{len(OPS) - len(missing)}/{len(OPS)} ops ran" + "".join(
        f"; {name} never ran" for name in missing)
    ran = CheckResult("every_op", not missing, float(len(missing)), detail)
    return [worst[k] for k in sorted(worst)] + [ran]


def run_gradients(seed: int = 0, only=None):
    """`_adjoint_checks` and `_op_checks`, each drawing from its own
    generators, every result named `grad.<check>` so that no name is also
    a kernel check's. `only`, a set of `OPS` names, leaves out the
    central-difference checks whose build runs none of those ops (a wrong
    backward elsewhere cannot fail them); the adjoint checks and `every_op`
    run whatever `only` is."""
    results = (_adjoint_checks(np.random.default_rng([seed, 1]))
               + _op_checks(*(np.random.default_rng([seed, k]) for k in (2, 3)), only))
    return [replace(r, name="grad." + r.name) for r in results]


def run_flops():
    """Cost-model cross-checks against the oracle MAC tally."""
    results = []
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4, 8, 8))
    p = DimConvParams.init(4, 8, 8, 3, rng)
    _, counter = orc.oracle_dimconv(x, p)
    expect = dimconv_macs(4, 8, 8, 3)
    results.append(CheckResult("dimconv.macs", counter.mac_count == expect,
                               abs(counter.mac_count - expect),
                               f"counter={counter.mac_count} formula={expect}"))
    rf = dimfuse_reduction_factor(116, 3)
    results.append(CheckResult("dimfuse.reduction_factor", rf == 2.71875,
                               abs(rf - 2.71875), f"D=116,n=3 -> {rf}"))
    big = dimfuse_reduction_factor(10 ** 9, 3)
    results.append(CheckResult("dimfuse.reduction_limit", abs(big - 3.0) < 1e-6,
                               abs(big - 3.0), "D -> inf"))
    cost = dimfuse_cost(116, 28, 28, 3)
    results.append(CheckResult(
        "dimfuse.accountings", cost["closed_form"] != cost["component_sum"],
        0.0, f"closed_form={cost['closed_form']} "
             f"component_sum={cost['component_sum']:.0f}"))
    return results


def run_suite(name: str, seed: int = 0, fault: str | None = None):
    """Run one suite (or 'all'); returns (results, all_passed)."""
    if name == "all":
        results = []
        for suite in SUITES:
            results += run_suite(suite, seed, fault)[0]
        return results, all(r.passed for r in results)
    if name == "kernels":
        results = run_kernels(seed, fault=fault)
    elif name == "gradients":
        results = run_gradients(seed)
    elif name == "flops":
        results = run_flops()
    else:
        raise ValueError(f"unknown suite {name!r}")
    return results, all(r.passed for r in results)
