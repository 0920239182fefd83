"""Tape mechanics and per-op backward passes against central differences.

The vocabulary ops run through `AutogradOps`, as training runs them: each
op's forward from its `OPS` record, and the pullback of its `vjp`."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from dicekit import autograd as ag
from dicekit import tensorops as T
from dicekit import verify
from dicekit.netbuilder import ArrayOps, AutogradOps
from dicekit.oracle import oracle_bn_prelu
from dicekit.tensorops import BatchNormParams, KernelError

ops = AutogradOps()


def check_param_grad(build, theta0, thresh=1e-4):
    """build(Var) -> scalar Var; compares tape gradient to finite differences."""
    result = verify.grad_check("param", build, theta0, thresh)
    assert result.passed, f"gradient mismatch: rel_err={result.max_err:.3e}"


def test_sum_grad_is_ones(rng):
    x = ag.param(rng.standard_normal((3, 4)))
    ag.backward(ag.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_on_detached_value_fails():
    v = ag.Var(np.zeros(3))
    with pytest.raises(KernelError):
        ag.backward(v)


def test_an_op_records_only_when_a_parent_requires_a_gradient(rng):
    a = rng.standard_normal((2, 2))
    y = ops.mul(a, ag.Var(a))
    assert not y.requires_grad and y._backward is None
    x = ag.param(a)
    y = ops.mul(ag.Var(a), x)
    assert y.requires_grad and y._backward is not None
    ag.backward(ag.sum_all(y))
    np.testing.assert_array_equal(x.grad, a)


def test_shared_parent_accumulates(rng):
    x = ag.param(np.array([3.0]))
    ag.backward(ops.mul(x, x))          # d(x^2)/dx = 2x
    np.testing.assert_allclose(x.grad, [6.0])


def test_add_broadcast_grad(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal((1, 3, 1, 1))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.add(ag.Var(x), v),
                                                 ag.Var(x))), b)


def test_dimconv_locality_of_tap_gradients():
    # one nonzero input pixel: k_d gradients live only on taps that cover it
    x = np.zeros((1, 2, 5, 5))
    x[0, 0, 2, 2] = 1.0
    kd = ag.param(np.zeros((2, 3, 3)))
    kw = ag.Var(np.zeros((5, 3, 3)))
    kh = ag.Var(np.zeros((5, 3, 3)))
    y = ops.dimconv(ag.Var(x), kd, kw, kh)
    ag.backward(ag.sum_all(y))
    assert np.all(kd.grad[1] == 0)               # other channel never sees it
    assert np.all(kd.grad[0] == 1.0)             # every tap covers the pixel once


def test_depthwise_grads(rng):
    x = rng.standard_normal((2, 3, 6, 5))
    t0 = rng.standard_normal((3, 3, 3))
    wgt = ag.Var(rng.standard_normal((2, 3, 3, 3)))
    check_param_grad(
        lambda t: ag.sum_all(ops.mul(ops.depthwise(ag.Var(x), t, stride=2), wgt)), t0)
    check_param_grad(
        lambda v: ag.sum_all(ops.mul(ops.depthwise(v, ag.Var(t0), stride=2), wgt)), x)


def test_width_height_grads(rng):
    x = rng.standard_normal((1, 3, 4, 5))
    w_taps = rng.standard_normal((5, 3, 3))
    h_taps = rng.standard_normal((4, 3, 3))
    sq = lambda y: ag.sum_all(ops.mul(y, y))
    check_param_grad(lambda t: sq(ag.widthwise(ag.Var(x), t)), w_taps)
    check_param_grad(lambda t: sq(ag.heightwise(ag.Var(x), t)), h_taps)
    check_param_grad(lambda v: sq(ag.widthwise(v, ag.Var(w_taps))), x)


def test_pointwise_and_spatial_conv_grads(rng):
    x = rng.standard_normal((1, 4, 5, 5))
    sq = lambda y: ag.sum_all(ops.mul(y, y))
    check_param_grad(lambda w: sq(ops.pointwise(ag.Var(x), w, groups=2, stride=2)),
                     rng.standard_normal((6, 2)))
    check_param_grad(lambda w: sq(ag.spatial_conv(ag.Var(x), w, stride=2)),
                     rng.standard_normal((3, 4, 3, 3)))
    w_dense = ag.Var(rng.standard_normal((3, 4, 3, 3)))
    check_param_grad(lambda v: sq(ag.spatial_conv(v, w_dense, stride=2)), x)


def test_dimconv_all_bank_grads(rng):
    x = rng.standard_normal((1, 3, 4, 5))
    kd = rng.standard_normal((3, 3, 3))
    kw = rng.standard_normal((5, 3, 3))
    kh = rng.standard_normal((4, 3, 3))
    sq = lambda y: ag.sum_all(ops.mul(y, y))
    check_param_grad(lambda t: sq(ops.dimconv(ag.Var(x), t, ag.Var(kw), ag.Var(kh))), kd)
    check_param_grad(lambda t: sq(ops.dimconv(ag.Var(x), ag.Var(kd), t, ag.Var(kh))), kw)
    check_param_grad(lambda t: sq(ops.dimconv(ag.Var(x), ag.Var(kd), ag.Var(kw), t)), kh)
    check_param_grad(lambda v: sq(ops.dimconv(v, ag.Var(kd), ag.Var(kw), ag.Var(kh))), x)


def test_pool_grads(rng):
    x = rng.standard_normal((2, 2, 6, 6))
    wgt = ag.Var(rng.standard_normal((2, 2, 3, 3)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.avg_pool(v, 3, 2), wgt)), x)
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.max_pool(v, 3, 2), wgt)), x)
    gw = ag.Var(rng.standard_normal((2, 2, 1, 1)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.global_avg(v), gw)), x)


def test_max_pool_ties_go_to_the_first_maximal_tap():
    # k=3, stride 2 on 2x2: one window per image, its first tap in padding,
    # its first real tap pixel (0, 0); batch longer than the width
    xv = ag.param(np.zeros((3, 2, 2, 2)))
    ag.backward(ag.sum_all(ops.max_pool(xv, 3, 2)))
    want = np.zeros((3, 2, 2, 2))
    want[:, :, 0, 0] = 1.0
    np.testing.assert_array_equal(xv.grad, want)


ADJOINT_BANK_CHECKS = {"adjoint.depthwise.s1", "adjoint.depthwise.s2", "adjoint.widthwise",
                       "adjoint.heightwise", "adjoint.dimconv"}


@pytest.mark.parametrize("scale, failing", [
    # far below the central differences' resolution: only the adjoint
    # identities, exact to a rounding bound, see it
    (1e-9, ADJOINT_BANK_CHECKS),
    (1e-3, ADJOINT_BANK_CHECKS | {"depthwise.taps", "dimconv.k_d"}),
], ids=["1e-9", "1e-3"])
def test_adjoint_checks_catch_a_wrong_bank_gradient(monkeypatch, scale, failing):
    real = ag._bank_grad

    def off(x, taps, dy, stride=1, need_taps=True):
        # average pooling's constant taps take no gradient: dt is None
        dx, dt = real(x, taps, dy, stride, need_taps)
        return dx, None if dt is None else dt * (1.0 + scale)

    monkeypatch.setattr(ag, "_bank_grad", off)
    assert {r.name for r in verify.run_gradients(0) if not r.passed} == failing


def test_max_pool_forward_does_not_stack_windows(rng):
    # the s1.0 stem's max pool: its forward builds no stack of the k*k windows
    x = ag.Var(rng.standard_normal((1, 24, 112, 112)))
    padded, out = 24 * 113 * 113 * 8, 24 * 56 * 56 * 8
    tracemalloc.start()
    try:
        y = ops.max_pool(x, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(y.data, T.pool(x.data, "max", 3, 2))
    assert peak < padded + 3 * out, f"peak {peak} B"


def _bn_prelu_args(rng, shape):
    """x, gamma, beta, slope for bn_prelu, and a weight for its output (so the
    loss is not invariant to the normalization)."""
    c = shape[1]
    args = {"x": rng.standard_normal(shape), "gamma": rng.standard_normal(c) + 1.0,
            "beta": rng.standard_normal(c), "slope": rng.random(c) + 0.1}
    return args, ag.Var(rng.standard_normal(shape))


def _check_bn_prelu_grad(args, wgt, name):
    state = BatchNormParams.identity(len(args["gamma"]))

    def build(t):
        vals = [t if k == name else ag.Var(a) for k, a in args.items()]
        return ag.sum_all(ops.mul(ag.bn_prelu(*vals, state), wgt))

    check_param_grad(build, args[name])


def test_batch_norm_grads(rng):
    # 2x2 planes at a batch longer than their width, and 4x4 ones
    for shape in ((3, 2, 2, 2), (2, 3, 4, 4)):
        args, wgt = _bn_prelu_args(rng, shape)
        for name in ("x", "gamma", "beta"):
            _check_bn_prelu_grad(args, wgt, name)


def test_bn_prelu_train_normalizes_and_updates(rng):
    # with unit slopes PReLU is the identity, so the output is the batch norm
    x = rng.standard_normal((4, 3, 5, 5)) * 3 + 1
    state = BatchNormParams.identity(3)
    y = ag.bn_prelu(x, state.gamma, state.beta, np.ones(3), state).data
    assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
    assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-3)
    np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))


def test_activation_grads(rng):
    x = rng.standard_normal((2, 3, 4, 4)) + 0.05   # keep clear of the kink
    wgt = ag.Var(rng.standard_normal(x.shape))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.relu(v), wgt)), x)
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.sigmoid(v), wgt)), x)
    # PReLU's slope, through bn_prelu
    for shape in ((3, 2, 2, 2), (2, 3, 4, 4)):
        _check_bn_prelu_grad(*_bn_prelu_args(rng, shape), "slope")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bn_prelu_infer_keeps_the_bytes(dtype):
    rng = np.random.default_rng(4)
    c = 5
    state = BatchNormParams(rng.standard_normal(c).astype(dtype),
                            rng.standard_normal(c).astype(dtype),
                            rng.standard_normal(c).astype(dtype),
                            (1.0 + rng.random(c)).astype(dtype))
    # slopes of both signs, -0.0 and infinity all pass through unchanged
    slope = np.array([0.3, -0.2, -0.0, np.inf, 1.5], dtype=dtype)
    # an input at the running mean leaves channel 0 at -0.0 and channel 1 at +0.0
    state.gamma[0] = -abs(state.gamma[0])
    state.beta[:2] = (-0.0, 0.0)
    # one that fits one image block, and one in blocks of 2, 2 and 1 images
    hw = int(np.sqrt(T.BLOCK_BYTES // 2 // 8 / c))
    for nb, hw in ((2, 6), (5, hw)):
        x = rng.standard_normal((nb, c, hw, hw)).astype(dtype)
        # +0.0 and -0.0 inputs, and inputs at the running mean
        x[0, :, 0, 0] = 0.0
        x[0, :, 0, 1] = -0.0
        x[-1, :, 1, 0] = state.running_mean
        if nb == 5:
            assert x.size * 8 > T.BLOCK_BYTES and T.BLOCK_BYTES // (8 * x[0].size) == 2
        y = T.bn_prelu(x, state, slope)
        with np.errstate(invalid="ignore"):
            want = oracle_bn_prelu(x, state, slope)
        assert y.dtype == dtype and y.shape == x.shape
        assert y.tobytes() == want.tobytes()
        assert np.signbit(y[-1, :2, 1, 0]).tolist() == [True, False]
        # written into x itself, as inference writes it, the bytes are the same
        into = ArrayOps().bn_prelu(x, SimpleNamespace(state=state, slope=ag.Var(slope)))
        assert into is x and x.tobytes() == want.tobytes()


def test_public_ops_write_no_argument_without_out(rng):
    # bn_prelu writes only its running statistics and mul nothing, recording
    # or not: the finite-difference checks pass their own arrays in
    args, wgt = _bn_prelu_args(rng, (2, 3, 4, 4))
    kept = {k: a.copy() for k, a in args.items()}
    for wrap in (ag.Var, ag.param):
        ag.bn_prelu(*map(wrap, args.values()), BatchNormParams.identity(3))
        ops.mul(wrap(args["x"]), wgt)
    assert all(args[k].tobytes() == kept[k].tobytes() for k in args)


def test_stem_backward_builds_no_input_gradient(rng):
    # the stem's image needs no gradient. The weight gradient needs only the
    # im2col matrices the forward kept; an input gradient builds a matrix as
    # large as they are, and a padded gradient buffer beside it
    nb, c, h, w = 16, 3, 64, 64
    cols = nb * c * 9 * 32 * 32 * 8
    w_conv = ag.param(rng.standard_normal((8, c, 3, 3)))
    peaks = {}
    for needs_grad in (False, True):
        image = ag.Var(rng.standard_normal((nb, c, h, w)), requires_grad=needs_grad)
        y = ag.spatial_conv(image, w_conv, stride=2)
        dy = np.ones(y.shape)
        tracemalloc.start()
        try:
            y._backward(dy)
            peaks[needs_grad] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (image.grad is not None) == needs_grad
    assert peaks[False] < cols < peaks[True], f"peaks {peaks}, kept im2col {cols} B"


def test_spatial_conv_keeps_im2col_only_while_recording(monkeypatch, rng):
    # the im2col matrices of the forward's image blocks serve the weight
    # gradient; for weights that need none nothing is kept
    x = rng.standard_normal((5, 3, 20, 18))
    w_conv = ag.param(rng.standard_normal((8, 3, 3, 3)))
    kept = []
    conv2d = T.conv2d

    def spy(*args, keep=None):
        kept.append(keep)
        return conv2d(*args, keep=keep)

    monkeypatch.setattr(T, "conv2d", spy)
    # two images per block: the batch of 5 runs as 2 + 2 + 1
    monkeypatch.setattr(T, "BLOCK_BYTES", 2 * 8 * x[0].size)
    y0 = ag.spatial_conv(x, ag.Var(w_conv.data), stride=2)
    assert kept == [None] and y0._backward is None
    y = ag.spatial_conv(x, w_conv, stride=2)
    assert [b.shape[0] for b in kept[1]] == [2, 2, 1]
    assert y.data.tobytes() == y0.data.tobytes()
    dy = rng.standard_normal(y.shape)
    im2col = T.im2col
    monkeypatch.setattr(T, "im2col", None)   # the backward builds no second one
    y._backward(dy)
    # the weight gradient from the whole batch's im2col matrix, bit for bit
    cols = im2col(x, 3, 2).reshape(5, 27, -1)
    want = np.matmul(dy.reshape(5, 8, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    assert w_conv.grad.tobytes() == want.reshape(w_conv.shape).tobytes()


def test_first_gradient_is_written_in_one_pass(monkeypatch):
    # _accum writes a Var's first gradient as g + 0.0; the zeros-then-add it
    # replaced gave 0.0 + g. One dicenet-micro step gives every gradient's
    # bytes either way
    from pathlib import Path

    from dicekit import netbuilder, netconfig, train

    def zeros_then_add(v, g):
        if not v.requires_grad:
            return
        if v.grad is None:
            v.grad = np.zeros_like(v.data, dtype=np.float64)
        v.grad += g

    text = (Path(__file__).resolve().parents[1] / "configs" / "dicenet-micro.cfg").read_text()
    x, y = train.synth_dataset(0, 16)
    grads = []
    for accum in (ag._accum, zeros_then_add):
        monkeypatch.setattr(ag, "_accum", accum)
        net = netbuilder.build_network(netconfig.parse_config(text), seed=0)
        ag.backward(ag.cross_entropy_ls(net.forward(x), y, 0.1))
        grads.append([p.grad.tobytes() for _, p in net.parameters()])
    assert len(grads[0]) == 78 and grads[0] == grads[1]


def test_linear_grads(rng):
    x = rng.standard_normal((3, 6))
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    sq = lambda y: ag.sum_all(ops.mul(y, y))
    check_param_grad(lambda v: sq(ops.linear(v, ag.Var(w), bias=ag.Var(b), groups=2)), x)
    check_param_grad(lambda wv: sq(ops.linear(ag.Var(x), wv, groups=2)), w)
    check_param_grad(lambda bv: sq(ops.linear(ag.Var(x), ag.Var(w),
                                             bias=bv, groups=2)), b)


def test_bilinear_grad(rng):
    x = rng.standard_normal((1, 2, 5, 4))
    wgt = ag.Var(rng.standard_normal((1, 2, 8, 7)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.bilinear(v, 8, 7), wgt)), x)
    same = ag.Var(rng.standard_normal((1, 2, 5, 4)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(ops.bilinear(v, 5, 4), same)), x)


def test_structural_op_grads(rng):
    a = rng.standard_normal((1, 4, 3, 3))
    b = ag.Var(rng.standard_normal((1, 2, 3, 3)))
    wgt = ag.Var(rng.standard_normal((1, 6, 3, 3)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(
        ops.shuffle(ops.concat([v, b]), 2), wgt)), a)
    w2 = ag.Var(rng.standard_normal((1, 2, 3, 3)))
    check_param_grad(lambda v: ag.sum_all(ops.mul(
        ops.narrow(v, 1, 2), w2)), a)


def test_cross_entropy_values(rng):
    # uniform scores: loss == ln K for any smoothing
    scores = ag.Var(np.zeros((4, 7)))
    t = np.array([0, 1, 2, 3])
    for eps in (0.0, 0.1, 0.5):
        loss = ag.cross_entropy_ls(scores, t, eps)
        assert abs(float(loss.data) - math.log(7)) < 1e-12
    # hand-evaluated case: scores [2, 0], target 0, eps 0.1
    s = np.array([[2.0, 0.0]])
    lse = math.log(math.exp(2) + 1)
    expect = 0.9 * (lse - 2.0) + 0.05 * ((lse - 2.0) + (lse - 0.0))
    loss = ag.cross_entropy_ls(ag.Var(s), np.array([0]), 0.1)
    assert abs(float(loss.data) - expect) < 1e-9
    with pytest.raises(KernelError):
        ag.cross_entropy_ls(ag.Var(s), np.array([0]), 1.0)


def test_cross_entropy_entropy_floor():
    # at the smoothed-target optimum the loss equals the smoothed
    # distribution's self cross-entropy
    eps, k = 0.2, 5
    q = np.full(k, eps / k)
    q[0] += 1 - eps
    scores = ag.Var(np.log(q)[None, :])
    loss = ag.cross_entropy_ls(scores, np.array([0]), eps)
    floor = -float(np.sum(q * np.log(q)))
    assert abs(float(loss.data) - floor) < 1e-12


def test_cross_entropy_grad(rng):
    s = rng.standard_normal((3, 5))
    t = np.array([1, 4, 0])
    check_param_grad(lambda v: ag.cross_entropy_ls(v, t, 0.1), s)


def test_avg_pool_backward_builds_no_tap_gradient(monkeypatch, rng):
    # the constant bank needs no gradient, so no per-tap reduction runs
    real = ag._bank_grad
    seen = []

    def spy(x, taps, dy, stride=1, need_taps=True):
        dx, dt = real(x, taps, dy, stride, need_taps)
        seen.append(dt)
        return dx, dt

    monkeypatch.setattr(ag, "_bank_grad", spy)
    x = ag.param(rng.standard_normal((8, 3, 6, 6)))
    ag.backward(ag.sum_all(ops.avg_pool(x, 3, 2)))
    assert seen == [None] and x.grad.shape == x.shape
    taps = ag.param(rng.standard_normal((3, 3, 3)))
    ag.backward(ag.sum_all(ops.depthwise(x, taps, 2)))
    assert seen[1] is not None and taps.grad.shape == (3, 3, 3)
