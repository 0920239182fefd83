"""End-to-end acceptance gate.

Each test states its target up front, prints a one-line verdict, and fails
with enough context to debug (criterion 4 dumps the per-layer breakdown).
"""

import time
from pathlib import Path

import numpy as np

from dicekit import autograd as ag
from dicekit import dice
from dicekit import oracle as orc
from dicekit import verify
from dicekit.bench import compare_fused_unfused
from dicekit.dimops import (
    DimConvParams,
    dimconv_fused,
    dimconv_macs,
    dimconv_unfused,
)
from dicekit.netbuilder import analyze, build_network, infer
from dicekit.netconfig import parse_config
from dicekit.oracle import finite_diff_grad
from dicekit.train import TrainConfig, synth_dataset, train_loop

from conftest import MICRO_CFG, SEPARABLE_MICRO_CFG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _load_cfg(name):
    return parse_config((CONFIG_DIR / name).read_text())


# --- criterion 1: fast kernels vs. the naive oracle ------------------------

def test_c1_kernels_match_oracle_bitwise():
    t0 = time.monotonic()
    results = verify.run_kernels(seed=0, draws=50)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"kernel equivalence took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: {len(results)} kinds on 50 draws, bitwise in "
          f"f64 and after rounding to f32 ({elapsed:.1f}s)")


def test_c1_every_bitwise_kind_has_an_f32_twin():
    names = {r.name for r in verify.run_kernels(seed=0, draws=1)}
    f64 = {name for name in names if not name.endswith(".f32")}
    bounded = {"conv2d", "conv2d.stem", "global_avg"}
    assert bounded <= f64
    assert names - f64 == {name + ".f32" for name in f64 - bounded}


# --- criterion 2: fused == unfused, bitwise --------------------------------

def test_c2_fused_equals_unfused_bitwise():
    rng = np.random.default_rng(2)
    shapes = [(int(rng.integers(1, 65)), int(rng.integers(2, 57)),
               int(rng.integers(2, 57))) for _ in range(49)]
    shapes.append((64, 56, 56))
    for c, h, w in shapes:
        n = int(rng.choice([1, 3, 5]))
        x = rng.standard_normal((1, c, h, w))
        p = DimConvParams.init(c, h, w, n, rng)
        a, b = dimconv_fused(x, p), dimconv_unfused(x, p)
        assert a.shape == b.shape and np.array_equal(a, b), (c, h, w, n)
    print("\n[criterion 2] PASS: fused == unfused bitwise on 50 draws "
          "up to 64x56x56")


# --- criterion 3: cost formulas --------------------------------------------

def test_c3_cost_formulas():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c, h, w = (int(rng.integers(1, 10)), int(rng.integers(2, 12)),
                   int(rng.integers(2, 12)))
        n = int(rng.choice([1, 3]))
        x = rng.standard_normal((1, c, h, w))
        _, counter = orc.oracle_dimconv(x, DimConvParams.init(c, h, w, n, rng))
        assert counter.mac_count == 3 * n * n * h * w * c == dimconv_macs(c, h, w, n)

    results = verify.run_flops()
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    rep = analyze(build_network(parse_config(
        "name: s1\nwidth_scale: 1.0\n"), seed=0))
    assert "dimfuse_closed_form_stage1" in rep.notes
    assert "dimfuse_component_sum_stage1" in rep.notes
    print("\n[criterion 3] PASS: MACs = 3n^2HWC exact; "
          + "; ".join(f"{r.name} ({r.detail})" for r in results))


# --- criteria 4 and 5: whole-network budgets -------------------------------

def _budget_check(cfg_name, target, tol=0.15):
    rep = analyze(build_network(_load_cfg(cfg_name), seed=0))
    err = abs(rep.total_macs - target) / target
    assert err <= tol, (
        f"{cfg_name}: total {rep.total_macs} vs target {target} "
        f"({err:.1%} off). per-layer breakdown:\n{rep.to_table()}")
    return rep


def test_c4_flop_budgets_match_published_scales():
    big = _budget_check("dicenet-s2.4.cfg", 298_000_000)
    small = _budget_check("dicenet-s0.1.cfg", 6_500_000)
    print(f"\n[criterion 4] PASS: s2.4 total {big.total_macs / 1e6:.1f}M "
          f"(target 298M), s0.1 total {small.total_macs / 1e6:.2f}M "
          f"(target 6.5M), both within 15%")


def test_c5_separable_baseline_pointwise_dominated():
    rep = _budget_check("separable-300m.cfg", 300_000_000)
    share = rep.shares["pointwise"]
    assert share >= 0.80, f"pointwise share {share:.2f}\n{rep.to_table()}"
    print(f"\n[criterion 5] PASS: separable baseline "
          f"{rep.total_macs / 1e6:.0f}M, pointwise share {share:.2f} >= 0.80")


# --- criterion 6: gradients vs. central differences ------------------------

def test_c6_gradients_every_op_and_micro_net():
    # every op of the table runs through the training interpreter, so a new
    # record cannot ship without a check
    t0 = time.monotonic()
    results = verify.run_gradients(seed=6)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    assert "grad.every_op" in {r.name for r in results}

    # end-to-end: two-block network, every parameter tensor
    cfg = parse_config(
        "name: grad-micro\nwidth_scale: 0.1\ninput_size: 32\nclasses: 10\n"
        "stages {\n repeats: [1]\n channels: [16]\n}\npool_width: 32\n")
    net = build_network(cfg, seed=0)
    # a fixed evaluation point, clear of activation kinks
    rng = np.random.default_rng(6)
    xb = rng.standard_normal((2, 3, 32, 32))
    yb = rng.integers(0, 10, size=2)

    def loss_fn():
        return ag.cross_entropy_ls(net.forward(xb), yb, 0.1)

    loss = loss_fn()
    ag.backward(loss)
    analytic = {name: p.grad.copy() for name, p in net.parameters()}

    for name, p in net.parameters():
        saved = p.data.copy()

        def f(theta):
            p.data[...] = theta
            return float(loss_fn().data)

        numeric = finite_diff_grad(f, saved.copy())
        p.data[...] = saved
        err = verify._rel_err(analytic[name], numeric)
        assert err < 1e-4, f"end-to-end {name}: rel_err={err:.3e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\n[criterion 6] PASS: {len(results)} gradient checks, 20 draws per op, "
          f"+ full two-block network against central differences ({elapsed:.1f}s)")


# --- criterion 7: toy training ---------------------------------------------

def test_c7_micro_training_reaches_95_percent():
    t0 = time.monotonic()
    images, labels = synth_dataset(0, 2000, classes=10, size=32)
    cfg = TrainConfig(epochs=50, batch_size=64, lr=0.1, seed=0)

    net = build_network(parse_config(MICRO_CFG), seed=0)
    hist = train_loop(net, images, labels, cfg, eval_ema=False, stop_acc=0.95)
    best = max(h["acc"] for h in hist)
    assert best >= 0.95, f"train acc peaked at {best:.3f} in {len(hist)} epochs"

    twin = build_network(parse_config(SEPARABLE_MICRO_CFG), seed=0)
    twin_hist = train_loop(twin, images, labels, cfg, eval_ema=False,
                           stop_acc=0.95)
    twin_best = max(h["acc"] for h in twin_hist)

    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"training took {elapsed:.1f}s"
    print(f"\n[criterion 7] PASS: micro net {best:.3f} train acc in "
          f"{len(hist)} epochs; separable twin {twin_best:.3f} in "
          f"{len(twin_hist)} epochs ({elapsed:.1f}s)")


# --- criterion 8: input-size invariance ------------------------------------

def test_c8_size_invariance_with_resize_instrumentation():
    net = build_network(_load_cfg("dicenet-s0.1.cfg"), seed=0)
    rng = np.random.default_rng(8)
    counts = {}
    for size in (160, 224, 256, 320):
        dice.reset_resize_count()
        out = infer(net, rng.standard_normal((1, 3, size, size)))
        assert out.shape == (1, 1000) and np.all(np.isfinite(out))
        counts[size] = dice.resize_count()
    assert counts[224] == 0, f"resizes at nominal size: {counts[224]}"
    assert all(counts[s] > 0 for s in (160, 256, 320)), counts
    print(f"\n[criterion 8] PASS: scores at 160/224/256/320; "
          f"resize counts {counts} (zero at nominal)")


# --- criterion 9: fused kernel is not slower -------------------------------

def test_c9_fused_no_slower_than_unfused():
    fused, unfused = compare_fused_unfused((64, 56, 56), repeats=9, warmup=2)
    assert fused.checksum == unfused.checksum
    assert fused.median <= unfused.median, (
        f"fused {fused.median * 1e3:.2f}ms > unfused "
        f"{unfused.median * 1e3:.2f}ms")
    print(f"\n[criterion 9] PASS: fused median {fused.median * 1e3:.2f}ms <= "
          f"unfused {unfused.median * 1e3:.2f}ms, checksums equal")
