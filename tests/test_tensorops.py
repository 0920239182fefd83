"""Primitive kernel behavior: shapes, error paths, hand-checked values."""

import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dicekit import autograd as ag
from dicekit import oracle as orc
from dicekit import tensorops as T
from dicekit import verify
from dicekit.dimops import DimConvParams, dimconv_fused
from dicekit.netbuilder import AutogradOps
from dicekit.tensorops import ConvKernelBank, KernelError


def test_check_tensor_rejects_bad_inputs():
    with pytest.raises(KernelError):
        T.check_tensor(np.zeros((3, 4, 5)))
    with pytest.raises(KernelError):
        T.check_tensor(np.zeros((1, 2, 3, 4), dtype=np.int32))
    x = np.zeros((1, 2, 3, 4))
    assert T.check_tensor(x) is x


def test_bank_validation():
    with pytest.raises(KernelError):
        ConvKernelBank(np.zeros((4, 2, 2)))       # even extent
    with pytest.raises(KernelError):
        ConvKernelBank(np.zeros((4, 3, 5)))       # non-square
    bank = ConvKernelBank.delta(4, 3)
    assert bank.count == 4 and bank.n == 3


def test_delta_bank_is_identity(rng):
    x = rng.standard_normal((2, 5, 6, 7))
    bank = ConvKernelBank.delta(5, 3)
    np.testing.assert_array_equal(T.depthwise_conv(x, bank), x)


def test_depthwise_known_value():
    # all-ones input, all-ones 3x3 kernel: interior outputs count 9 taps,
    # corners 4, edges 6
    x = np.ones((1, 1, 4, 4))
    bank = ConvKernelBank(np.ones((1, 3, 3)))
    y = T.depthwise_conv(x, bank)
    assert y[0, 0, 0, 0] == 4.0
    assert y[0, 0, 0, 1] == 6.0
    assert y[0, 0, 1, 1] == 9.0


def test_depthwise_stride_output_shape(rng):
    x = rng.standard_normal((1, 3, 7, 9))
    bank = ConvKernelBank.random(3, 3, rng)
    assert T.depthwise_conv(x, bank, stride=2).shape == (1, 3, 4, 5)


def test_widthwise_mixes_channels_and_height(rng):
    # a width-wise kernel sees a (channel, height) neighborhood: with a
    # single channel and delta-like taps offset in the channel axis the
    # output must be zero (padding), while the center tap reproduces x
    x = rng.standard_normal((1, 1, 5, 4))
    taps = np.zeros((4, 3, 3))
    taps[:, 1, 1] = 1.0
    np.testing.assert_array_equal(T.widthwise_conv(x, ConvKernelBank(taps)), x)
    taps = np.zeros((4, 3, 3))
    taps[:, 0, 1] = 1.0          # looks at channel c-1: all padding here
    np.testing.assert_array_equal(
        T.widthwise_conv(x, ConvKernelBank(taps)), np.zeros_like(x))


def test_heightwise_bank_size_checked(rng):
    x = rng.standard_normal((1, 2, 5, 4))
    with pytest.raises(KernelError):
        T.heightwise_conv(x, ConvKernelBank.random(4, 3, rng))


def test_pointwise_matches_matmul(rng):
    x = rng.standard_normal((2, 6, 3, 3))
    w = rng.standard_normal((4, 6))
    y = T.pointwise_conv(x, w)
    ref = np.einsum("oc,nchw->nohw", w, x)
    assert np.allclose(y, ref, atol=1e-12)


def test_pointwise_groups(rng):
    x = rng.standard_normal((1, 4, 2, 2))
    w = rng.standard_normal((4, 2))
    y = T.pointwise_conv(x, w, groups=2)
    top = np.einsum("oc,nchw->nohw", w[:2], x[:, :2])
    bot = np.einsum("oc,nchw->nohw", w[2:], x[:, 2:])
    assert np.allclose(y, np.concatenate([top, bot], axis=1), atol=1e-12)


# the kernels that run their loop with numpy's ufunc buffer at 16 elements
BUFFERED = {
    "pointwise_conv": lambda x, rng: functools.partial(
        T.pointwise_conv, x, rng.standard_normal((x.shape[1], x.shape[1]))),
    "depthwise_conv": lambda x, rng: functools.partial(
        T.depthwise_conv, x, ConvKernelBank.random(x.shape[1], 3, rng), 1),
    "dimconv_fused": lambda x, rng: functools.partial(
        dimconv_fused, x, DimConvParams.init(*x.shape[1:], 3, rng)),
}


@pytest.mark.parametrize("kernel", sorted(BUFFERED))
def test_kernels_restore_the_ufunc_buffer(kernel):
    x = np.random.default_rng(3).standard_normal((1, 116, 14, 14))
    run = BUFFERED[kernel](x, np.random.default_rng(4))
    default = np.getbufsize()
    try:
        with np.errstate():
            np.setbufsize(4096)
            run()
            assert np.getbufsize() == 4096
    finally:
        # numpy 2 restores the size when errstate exits, numpy 1.x does not
        np.setbufsize(default)
    # the buffer size is per thread: one thread's kernel leaves another's alone
    done = threading.Event()
    errors = []

    def work():
        try:
            for _ in range(20):
                run()
        except Exception as e:  # reported by the assertion below
            errors.append(e)
        finally:
            done.set()

    seen = set()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker = threading.Thread(target=work)
        worker.start()
        while not done.is_set():
            seen.add(np.getbufsize())
        worker.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not worker.is_alive() and not errors
    assert seen == {default}


def test_pointwise_draws_cover_both_orientations():
    # verify's pointwise draws run the kernel along the pixels and along the
    # outputs of a group
    rng = np.random.default_rng(0)
    for channels_inner in (True, False):
        for _ in range(20):
            x, w, groups, stride = verify.pointwise_draw(rng, channels_inner)
            npix = x.shape[0] * T.ceil_div(x.shape[2], stride) * T.ceil_div(x.shape[3], stride)
            assert (npix < w.shape[0] // groups) == channels_inner


def test_conv2d_shape_and_delta(rng):
    x = rng.standard_normal((1, 3, 6, 6))
    w = np.zeros((3, 3, 3, 3))
    for i in range(3):
        w[i, i, 1, 1] = 1.0
    np.testing.assert_array_equal(T.conv2d(x, w), x)
    assert T.conv2d(x, rng.standard_normal((5, 3, 3, 3)), stride=2).shape == (1, 5, 3, 3)


_CONV2D_DIGEST = """
import hashlib
import numpy as np
from dicekit import tensorops as T
digest = hashlib.sha256()
rng = np.random.default_rng(0)
# the stems of train-micro, infer-s1.0-b1 and infer-s1.0-b8-288
for shape, cout in (((64, 3, 32, 32), 8), ((1, 3, 224, 224), 24), ((8, 3, 288, 288), 24)):
    x, w = rng.standard_normal(shape), rng.standard_normal((cout, 3, 3, 3))
    digest.update(T.conv2d(x, w, 2).tobytes())
print(digest.hexdigest())
"""


def test_conv2d_bytes_do_not_depend_on_blas_threads():
    # conv2d's GEMM runs on as many BLAS threads as the environment asks for;
    # its bytes must not depend on how many that is
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _CONV2D_DIGEST], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests


def test_pool_kinds(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    assert T.pool(x, "max", 3, 2).shape == (1, 2, 3, 3)
    g = T.pool(x, "global_avg")
    assert g.shape == (1, 2, 1, 1)
    assert np.allclose(g[0, :, 0, 0], x.mean(axis=(0, 2, 3)))
    # average pooling over a window is depthwise_conv by avg_bank
    for kind in ("median", "avg"):
        with pytest.raises(KernelError):
            T.pool(x, kind)


def test_max_pool_constant_input():
    x = np.full((1, 1, 4, 4), 2.5)
    np.testing.assert_array_equal(T.pool(x, "max", 3, 1), x)


def test_batch_norm_infer_identity(rng):
    # the oracle's batch norm then PReLU, with the identity statistics
    x = rng.standard_normal((2, 3, 4, 4))
    p = T.BatchNormParams.identity(3)
    y = orc.oracle_bn_prelu(x, p, np.full(3, 0.25))
    assert np.allclose(y, np.where(x >= 0, x, 0.25 * x) / np.sqrt(1 + p.eps), atol=1e-12)


def test_activations(rng):
    x = np.array([[-2.0, 0.0, 3.0]])
    np.testing.assert_array_equal(T.relu(x), [[0, 0, 3]])
    s = T.sigmoid(np.array([0.0, 800.0, -800.0]))
    assert np.allclose(s, [0.5, 1.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_norm_then_prelu_is_bn_prelu_in_inference(dtype):
    # the oracle forward runs oracle_bn_prelu; infer runs T.bn_prelu
    rng = np.random.default_rng(6)
    c = 5
    state = T.BatchNormParams(*(rng.standard_normal(c).astype(dtype) for _ in range(3)),
                              (1.0 + rng.random(c)).astype(dtype))
    slope = (rng.random(c) - 0.5).astype(dtype)
    x = verify.signed_zeros(rng, rng.standard_normal((3, c, 6, 7))).astype(dtype)
    want = T.bn_prelu(x, state, slope)
    got = orc.oracle_bn_prelu(x, state, slope)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # and the formula, one element at a time in Python floats
    for (b, ci, i, j), v in np.ndenumerate(x):
        inv_std = 1.0 / np.sqrt(state.running_var[ci] + state.eps)
        y = dtype(((float(v) - float(state.running_mean[ci])) * float(inv_std))
                  * float(state.gamma[ci]) + float(state.beta[ci]))
        assert got[b, ci, i, j] == (y if y >= 0 else slope[ci] * y)


def test_linear_groups_and_bias(rng):
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    assert np.allclose(T.linear(x, w, bias=b), x @ w.T + b, atol=1e-12)
    wg = rng.standard_normal((4, 2))
    y = T.linear(x, wg, groups=2)
    assert np.allclose(y[:, :2], x[:, :2] @ wg[:2].T, atol=1e-12)
    assert np.allclose(y[:, 2:], x[:, 2:] @ wg[2:].T, atol=1e-12)


def test_linear_loops_keep_the_oracle_order(monkeypatch):
    # N >= 2 and N*F_out/G >= LINEAR_FEATURE_LOOP run pointwise_conv's loop;
    # every other shape runs np.add.accumulate. Both give the oracle's bytes,
    # signed zeros and a bias included
    from dicekit.oracle import oracle_linear

    def no_public_pointwise(*args):
        raise AssertionError("linear must not count as a pointwise_conv call")

    monkeypatch.setattr(T, "pointwise_conv", no_public_pointwise)
    # either loop refuses what the other would
    for nb in (1, 8):
        with pytest.raises(KernelError):
            T.linear(np.ones((nb, 4), dtype=np.int64), np.ones((T.LINEAR_FEATURE_LOOP, 4)))
    rng = np.random.default_rng(8)
    loop = T.LINEAR_FEATURE_LOOP
    for nb, fin, fout, groups in ((8, 24, loop // 8, 1), (2, 12, loop, 4),
                                  (1, 24, 2 * loop, 1), (8, 24, loop // 8 - 1, 1),
                                  (3, 8, 40, 2)):
        for dtype in (np.float64, np.float32):
            x = verify.signed_zeros(rng, rng.standard_normal((nb, fin))).astype(dtype)
            w = verify.signed_zeros(rng, rng.standard_normal((fout, fin // groups))).astype(dtype)
            for bias in (None, rng.standard_normal(fout).astype(dtype)):
                ref, _ = oracle_linear(x, w, groups, bias)
                got = T.linear(x, w, groups, bias)
                assert got.dtype == dtype and got.tobytes() == ref.tobytes(), (nb, fout, groups)


def test_linear_draws_cover_both_loops():
    # verify's batched linear draws run both of linear's loops
    rng = np.random.default_rng(0)
    sides = set()
    for _ in range(40):
        x, w, groups, _ = verify.linear_draw(rng)
        assert x.shape[0] >= 2
        sides.add(x.shape[0] * w.shape[0] // groups >= T.LINEAR_FEATURE_LOOP)
    assert sides == {False, True}


def test_resize_matrix_rows_sum_to_one():
    for src, dst in ((7, 13), (14, 7), (5, 5)):
        m = T.resize_matrix(src, dst)
        assert np.allclose(m.sum(axis=1), 1.0)


def test_bilinear_resize_identity_and_constant(rng):
    x = rng.standard_normal((1, 2, 6, 5))
    np.testing.assert_array_equal(T.bilinear_resize(x, 6, 5), x)
    c = np.full((1, 1, 4, 4), 3.25)
    assert np.allclose(T.bilinear_resize(c, 9, 7), 3.25)


def test_bilinear_round_trip_close(rng):
    # upsample then downsample of a smooth field stays close
    x = np.linspace(0, 1, 36).reshape(1, 1, 6, 6)
    back = T.bilinear_resize(T.bilinear_resize(x, 12, 12), 6, 6)
    assert np.abs(back - x).max() < 0.05


def test_dtype_preserved(rng):
    x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
    bank = ConvKernelBank.random(3, 3, rng, dtype=np.float32)
    assert T.depthwise_conv(x, bank).dtype == np.float32
    assert T.depthwise_conv(x, T.avg_bank(3, 3), 2).dtype == np.float32


def _blocked_calls(x):
    """Each kernel that runs in image blocks, as a call on x with fixed weights."""
    from dicekit.dimops import DimConvParams, dimconv_fused
    rng = np.random.default_rng(1)
    c, h, w = x.shape[1:]
    wp = rng.standard_normal((4, c))
    bank = ConvKernelBank.random(c, 3, rng)
    w2 = rng.standard_normal((2, c, 3, 3))
    dc = DimConvParams.init(c, h, w, 3, rng)
    wide = rng.standard_normal((3 * h * w, c))
    return {
        "pointwise": lambda: T.pointwise_conv(x, wp, 1, 2),
        # more outputs than an image has pixels: the outputs are the long axis
        "pointwise_outputs_inner": lambda: T.pointwise_conv(x, wide),
        "depthwise": lambda: T.depthwise_conv(x, bank, 2),
        "depthwise_runs": lambda: T.depthwise_conv(x, bank, 1),
        "conv2d": lambda: T.conv2d(x, w2, 2),
        # average pooling at stride 3: three phases a side
        "avg_pool": lambda: T.depthwise_conv(x, T.avg_bank(c, 3), 3),
        "max_pool": lambda: T.pool(x, "max", 3, 2),
        "bilinear": lambda: T.bilinear_resize(x, 9, 4),
        "bilinear_up": lambda: T.bilinear_resize(x, 2 * h + 1, 2 * w + 1),
        "bilinear_down": lambda: T.bilinear_resize(x, 3, 2),
        "dimconv_fused": lambda: dimconv_fused(x, dc),
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_image_blocks_keep_the_bytes(monkeypatch, dtype):
    x = np.random.default_rng(5).standard_normal((3, 4, 7, 6)).astype(dtype)
    seen = []

    def spy(xb, out=None):
        seen.append(xb.shape[0])
        res = T._output(out, xb.shape, xb.dtype)
        res[...] = xb
        return res

    # two images per block, so a batch of 3 runs as 2 + 1, and one, so it
    # runs as 1 + 1 + 1, as a batch of large images does
    one_image = 8 * x[0].size
    for per, split in ((2, [2, 1]), (1, [1, 1, 1])):
        seen.clear()
        monkeypatch.setattr(T, "BLOCK_BYTES", per * one_image)
        assert T._image_blocks(spy, x).tobytes() == x.tobytes() and seen == split
        for name, call in _blocked_calls(x).items():
            monkeypatch.setattr(T, "BLOCK_BYTES", per * one_image)
            blocked = call()
            monkeypatch.setattr(T, "BLOCK_BYTES", 3 * one_image)
            whole = call()
            assert blocked.dtype == whole.dtype == dtype, (name, per)
            assert blocked.shape == whole.shape, (name, per)
            assert blocked.tobytes() == whole.tobytes(), (name, per)


def test_image_blocks_reject_an_empty_batch(monkeypatch):
    # checked before the block size is read from the first image
    monkeypatch.setattr(T, "BLOCK_BYTES", 8)
    for name, call in _blocked_calls(np.zeros((0, 4, 7, 6))).items():
        with pytest.raises(KernelError):
            call()


# (batch, channels, height, width, n, stride) for phase runs: 1 px planes,
# odd sizes, a batch longer and one shorter than the rows, and n = 5 at
# stride 2 and 3, where a tap's offset in its phase is 1 or 2 rows
PHASE_CASES = [(1, 3, 1, 1, 3, 2), (5, 2, 1, 3, 5, 3), (9, 3, 7, 2, 3, 2),
               (2, 4, 9, 7, 5, 2), (3, 2, 5, 5, 1, 3), (1, 2, 2, 3, 3, 3),
               (4, 1, 8, 1, 5, 2), (2, 3, 11, 10, 5, 3)]


def test_tap_runs_hold_each_taps_pixels(rng):
    # the run of tap (i, j), junk columns dropped, is the strided window the
    # tap meets in the zero-padded input, laid out (C, Ho, Wo, N)
    for nb, c, h, w, n, s in PHASE_CASES + [(2, 3, 4, 5, 3, 1)]:
        x = rng.standard_normal((nb, c, h, w))
        xf, start, wq = T.tap_runs(x, 0, n, s)
        ho, wo, p = T.ceil_div(h, s), T.ceil_div(w, s), (n - 1) // 2
        xp = np.pad(x, ((0, 0), (0, 0), (p, p + n), (p, p + n)))
        for i in range(n):
            for j in range(n):
                got = xf[:, start[i][j]:start[i][j] + ho * wq * nb]
                want = xp[:, :, i:i + s * (ho - 1) + 1:s, j:j + s * (wo - 1) + 1:s]
                assert np.array_equal(got.reshape(c, ho, wq, nb)[:, :, :wo],
                                      want.transpose(1, 2, 3, 0)), (nb, c, h, w, n, s, i, j)


@pytest.mark.parametrize("blocked", [False, True], ids=["whole", "blocks"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_phase_runs_match_the_oracle(monkeypatch, dtype, blocked):
    rng = np.random.default_rng(19)
    if blocked:
        # one image and one channel per block
        monkeypatch.setattr(T, "BLOCK_BYTES", 8)
    for nb, c, h, w, n, s in PHASE_CASES:
        x = verify.signed_zeros(rng, rng.standard_normal((nb, c, h, w))).astype(dtype)
        taps = verify.signed_zeros(rng, rng.standard_normal((c, n, n))).astype(dtype)
        bank = ConvKernelBank(taps)
        ref, _ = orc.oracle_depthwise(x, bank, s)
        y = T.depthwise_conv(x, bank, s)
        assert y.dtype == x.dtype and y.tobytes() == ref.tobytes(), (nb, c, h, w, n, s)


def _avg_pool_loops(x, k, stride, dy):
    """Average pooling and its input gradient as dicekit computed them before
    pooling became depthwise: (N, C, H, W) buffers, each output 0.0 plus
    (1/k^2)*x per tap, each input gradient 0.0 plus (1/k^2)*dy per tap, both
    in row-major tap order."""
    nb, c, h, w = x.shape
    p, inv = (k - 1) // 2, 1.0 / (k * k)
    ho, wo = T.ceil_div(h, stride), T.ceil_div(w, stride)
    pad = ((0, 0), (0, 0), (p, T.right_pad(h, ho, stride, k)), (p, T.right_pad(w, wo, stride, k)))
    xp = np.pad(x.astype(np.float64), pad)
    y, dxp = np.zeros((nb, c, ho, wo)), np.zeros(xp.shape)
    for i in range(k):
        for j in range(k):
            win = np.s_[:, :, i:i + stride * (ho - 1) + 1:stride,
                        j:j + stride * (wo - 1) + 1:stride]
            y += inv * xp[win]
            dxp[win] += inv * dy
    return y.astype(x.dtype), dxp[:, :, p:p + h, p:p + w]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_avg_pool_is_depthwise_by_the_constant_bank(dtype):
    from dicekit.netbuilder import CostOps, OracleOps
    rng = np.random.default_rng(23)
    for stride in (1, 2, 3):
        for shape in ((1, 3, 7, 6), (6, 2, 5, 1), (2, 4, 9, 9)):
            x = verify.signed_zeros(rng, rng.standard_normal(shape)).astype(dtype)
            bank = T.avg_bank(shape[1], 3)
            assert bank.taps.dtype == np.float64 and np.all(bank.taps == 1.0 / 9)
            xv = ag.param(x)
            y = AutogradOps().avg_pool(xv, 3, stride)
            dy = verify.signed_zeros(rng, rng.standard_normal(y.shape))
            ag.backward(y, seed=dy)
            ref, dx_ref = _avg_pool_loops(x, 3, stride, dy)
            counter = orc.OracleCounter()
            oracle_y = OracleOps(counter).avg_pool(x, 3, stride)
            for out in (y.data, T.depthwise_conv(x, bank, stride), oracle_y):
                assert out.dtype == x.dtype and out.tobytes() == ref.tobytes(), (stride, shape)
            # the first gradient is written as g + 0.0
            assert xv.grad.tobytes() == (dx_ref + 0.0).tobytes(), (stride, shape)
            cost = CostOps()
            with cost.row("pool", "pool"):
                cost.avg_pool(x, 3, stride)
            assert counter.mac_count == cost.rows[0][2] == 9 * ref.size
            assert cost.rows[0][3] == 0
