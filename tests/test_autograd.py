"""Tape mechanics, and that `verify`'s gradient checks catch a wrong backward.

The central-difference and adjoint checks of every op's backward are
`verify.run_gradients`, which c6 runs. The vocabulary ops run through
`AutogradOps`, as training runs them: each op's forward from its `OPS`
record, and its backward, `autograd.<name>_vjp`."""

import math
import tracemalloc

import numpy as np
import pytest

from dicekit import autograd as ag
from dicekit import tensorops as T
from dicekit import verify
from dicekit.netbuilder import OPS, ArrayOps, AutogradOps
from dicekit.oracle import oracle_bn_prelu
from dicekit.tensorops import KernelError

ops = AutogradOps()


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


def test_max_pool_ties_go_to_the_first_maximal_tap():
    # k=3, stride 2 on 2x2: one window per image, its first tap in padding,
    # its first real tap pixel (0, 0); batch longer than the width
    xv = ag.param(np.zeros((3, 2, 2, 2)))
    ag.backward(ag.sum_all(ops.max_pool(xv, 3, 2)))
    want = np.zeros((3, 2, 2, 2))
    want[:, :, 0, 0] = 1.0
    np.testing.assert_array_equal(xv.grad, want)


ADJOINT_BANK_CHECKS = {"adjoint.depthwise.s1", "adjoint.depthwise.s2", "adjoint.dimconv"}


def _failing(only):
    """The gradient checks that fail at seed 0, named without their `grad.`,
    of those a fault in the ops `only` can fail: the other central-difference
    checks run none of those ops, and are left out."""
    results = verify.run_gradients(0, only)
    assert all(r.name.startswith("grad.") for r in results)
    return {r.name[len("grad."):] for r in results if not r.passed}


@pytest.mark.parametrize("scale, failing", [
    # far below the central differences' resolution: only the adjoint
    # identities, exact to a rounding bound, see it
    (1e-9, ADJOINT_BANK_CHECKS),
    (1e-3, ADJOINT_BANK_CHECKS | {"depthwise", "dimconv.k_d", "dimconv.k_w", "dimconv.k_h"}),
], ids=["1e-9", "1e-3"])
def test_adjoint_checks_catch_a_wrong_bank_gradient(monkeypatch, scale, failing):
    real = ag._bank_grad

    def off(x, taps, dy, stride=1, need_taps=True):
        # average pooling's constant taps take no gradient: dt is None
        dx, dt = real(x, taps, dy, stride, need_taps)
        return dx, None if dt is None else dt * (1.0 + scale)

    monkeypatch.setattr(ag, "_bank_grad", off)
    assert _failing({"depthwise", "dimconv", "avg_pool"}) == failing


def test_gradient_checks_catch_a_wrong_width_branch_gradient(monkeypatch):
    real = ag._branch_grad

    def off(axes, x, taps, dy, stride=1, need_taps=True):
        # the taps take no gradient when only the input needs one: dt is None
        dx, dt = real(axes, x, taps, dy, stride, need_taps)
        return dx, dt * (1.0 + 1e-3) if axes == ag._WIDTH and dt is not None else dt

    monkeypatch.setattr(ag, "_branch_grad", off)
    assert _failing({"depthwise", "dimconv", "avg_pool"}) == {"adjoint.dimconv", "dimconv.k_w"}


# the checks that fail when an op's pullback is wrong
OWN_CHECKS = {
    "sigmoid": {"sigmoid"},
    "pointwise": {"adjoint.pointwise", "pointwise", "adjoint.pointwise.1x1", "pointwise.1x1",
                  "pointwise.1x1.x", "pointwise.1x1.bias"},
    "add": {"add", "add.batch"},
    "global_avg": {"global_avg", "global_avg.batch"},
    "bilinear": {"adjoint.bilinear", "bilinear", "bilinear.down", "bilinear.same"},
    "bn_prelu": {f"bn_prelu.{arg}{planes}" for arg in ("x", "gamma", "beta", "slope")
                 for planes in ("", ".2x2")},
    "spatial_conv": {"spatial_conv", "adjoint.spatial_conv"},
}


@pytest.mark.parametrize("op", OWN_CHECKS)
def test_gradient_checks_name_the_op_with_a_wrong_backward(monkeypatch, op):
    # every gradient the op's pullback returns, scaled by 1 + 1e-3
    real = getattr(ag, f"{op}_vjp")
    monkeypatch.setattr(ag, f"{op}_vjp", lambda *args, **kw: tuple(
        None if g is None else g * (1.0 + 1e-3) for g in real(*args, **kw)))
    assert _failing({op}) == OWN_CHECKS[op]


def test_the_worst_result_per_name_keeps_a_failure_over_a_larger_passing_error():
    worst = {}
    for passed, err in ((False, 1.0), (True, 2.0), (False, 0.5)):
        verify._keep_worst(worst, verify.CheckResult("k", passed, err))
    assert worst == {"k": verify.CheckResult("k", False, 1.0)}


def test_gradient_checks_fail_an_op_that_no_draw_runs(monkeypatch):
    monkeypatch.setitem(OPS, "relu_twin", OPS["relu"])
    # every build runs, so every op it runs is seen, but no central difference
    results = verify.run_gradients(0, only=set())
    assert {r.name for r in results if not r.passed} == {"grad.every_op"}
    assert "relu_twin never ran" in results[-1].detail


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


def _bn_prelu(x, gamma, beta, slope, running_mean, running_var):
    """Training's BN-PReLU, by the batch's statistics, which update the running ones."""
    return ops.bn_prelu(x, gamma, beta, slope, *ops.bn_stats(x, running_mean, running_var))


def test_bn_prelu_train_normalizes_and_updates(rng):
    # with unit slopes PReLU is the identity, so the output is the batch norm
    x = rng.standard_normal((4, 3, 5, 5)) * 3 + 1
    running_mean, running_var = np.zeros(3), np.ones(3)
    y = _bn_prelu(x, np.ones(3), np.zeros(3), np.ones(3), running_mean, running_var).data
    assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
    assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-3)
    np.testing.assert_allclose(running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
    np.testing.assert_allclose(running_var, 0.9 + 0.1 * x.var(axis=(0, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bn_prelu_infer_keeps_the_bytes(dtype):
    rng = np.random.default_rng(4)
    c = 5
    gamma, beta, mean = (rng.standard_normal(c).astype(dtype) for _ in range(3))
    var = (1.0 + rng.random(c)).astype(dtype)
    # slopes of both signs, -0.0 and infinity all pass through unchanged
    slope = np.array([0.3, -0.2, -0.0, np.inf, 1.5], dtype=dtype)
    # an input at the running mean leaves channel 0 at -0.0 and channel 1 at +0.0
    gamma[0] = -abs(gamma[0])
    beta[:2] = (-0.0, 0.0)
    # one that fits one image block, and one in blocks of 2, 2 and 1 images
    hw = int(np.sqrt(T.BLOCK_BYTES // 2 // 8 / c))
    for nb, hw in ((2, 6), (5, hw)):
        x = rng.standard_normal((nb, c, hw, hw)).astype(dtype)
        # +0.0 and -0.0 inputs, and inputs at the running mean
        x[0, :, 0, 0] = 0.0
        x[0, :, 0, 1] = -0.0
        x[-1, :, 1, 0] = mean
        if nb == 5:
            assert x.size * 8 > T.BLOCK_BYTES and T.BLOCK_BYTES // (8 * x[0].size) == 2
        y = T.bn_prelu(x, gamma, beta, slope, mean, var)
        with np.errstate(invalid="ignore"):
            want = oracle_bn_prelu(x, gamma, beta, slope, mean, var)
        assert y.dtype == dtype and y.shape == x.shape
        assert y.tobytes() == want.tobytes()
        assert np.signbit(y[-1, :2, 1, 0]).tolist() == [True, False]
        # written into x itself, as inference writes it, the bytes are the same
        into = ArrayOps().bn_prelu(x, gamma, beta, ag.Var(slope), mean, var)
        assert into is x and x.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [1, 3])
def test_bn_prelu_refuses_another_channel_count(c):
    # 4 input channels: vectors of length 1 would broadcast over them, and of
    # length 3 fail in numpy's broadcasting. Training refuses a batch norm of
    # c channels before its running statistics change
    x = np.ones((2, 4, 3, 3))
    for k, slope in ((c, np.ones(4)), (4, np.ones(c))):
        gamma, beta, mean, var = np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)
        with pytest.raises(KernelError, match="input has 4 channels"):
            T.bn_prelu(x, gamma, beta, slope, mean, var)
        for wrap in (ag.Var, ag.param):
            with pytest.raises(KernelError, match="input has 4 channels"):
                _bn_prelu(wrap(x), wrap(gamma), wrap(beta), wrap(slope), mean, var)
        if k == c:
            assert (mean == 0).all() and (var == 1).all()


def test_public_ops_write_no_argument_without_out(rng):
    # bn_prelu writes only its running statistics and mul nothing, recording
    # or not, and neither pullback writes one: the finite-difference checks
    # pass their own arrays in
    args, wgt = _bn_prelu_args(rng, (2, 3, 4, 4))
    kept = {k: a.copy() for k, a in args.items()}
    for wrap in (ag.Var, ag.param):
        y = ops.mul(_bn_prelu(*map(wrap, args.values()), np.zeros(3), np.ones(3)), wgt)
        ops.mul(wrap(args["x"]), wgt)
        if y.requires_grad:
            ag.backward(ag.sum_all(y))
    assert all(args[k].tobytes() == kept[k].tobytes() for k in args)


def test_stem_backward_builds_no_input_gradient(rng):
    # the stem's image needs no gradient. The weight gradient rebuilds the
    # im2col matrix one image block at a time, 2 of the 15 images here and 1
    # in the last block, so its peak, a block's matrix and padded input,
    # stays under two blocks' matrices. An input gradient builds a matrix as
    # large as the whole batch's im2col, and a padded gradient buffer beside it
    nb, c, h, w = 15, 3, 64, 64
    cols = nb * c * 9 * 32 * 32 * 8
    per = T.BLOCK_BYTES // (8 * c * h * w)
    assert per == 2
    w_conv = ag.param(rng.standard_normal((8, c, 3, 3)))
    peaks = {}
    for needs_grad in (False, True):
        image = ag.Var(rng.standard_normal((nb, c, h, w)), requires_grad=needs_grad)
        y = ops.spatial_conv(image, w_conv, 2)
        dy = rng.standard_normal(y.shape)
        w_conv.grad = None
        tracemalloc.start()
        try:
            y._backward(dy)
            peaks[needs_grad] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (image.grad is not None) == needs_grad
        # the bytes of the whole batch's im2col product
        whole = T.im2col(image.data, 3, 2).reshape(nb, c * 9, -1)
        want = np.matmul(dy.reshape(nb, 8, -1), whole.transpose(0, 2, 1)).sum(axis=0)
        assert w_conv.grad.tobytes() == want.reshape(w_conv.shape).tobytes()
    block = cols * per // nb
    assert peaks[False] < 2 * block < cols < peaks[True], f"peaks {peaks}, im2col {cols} B, block {block}"


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
