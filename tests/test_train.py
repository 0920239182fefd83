"""Optimizer pieces, synthetic data, and the training loop."""

import numpy as np
import pytest

from dicekit import autograd as ag
from dicekit import tensorops as T
from dicekit.netbuilder import build_network
from dicekit.netconfig import parse_config
from dicekit.train import (
    TrainConfig,
    TrainError,
    ema_update,
    evaluate,
    metrics_csv,
    sgd_step,
    swap_params,
    synth_dataset,
    train_loop,
)

from conftest import MICRO_CFG


def _p(v):
    return ag.param(np.asarray(v, dtype=np.float64))


def test_sgd_vanilla_step():
    p = _p([1.0, 2.0])
    p.grad = np.array([0.5, -0.5])
    sgd_step([("p", p)], {}, lr=0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_sgd_zero_grad_keeps_params():
    p = _p([1.0, 2.0])
    p.grad = np.zeros(2)
    vel = {}
    for _ in range(5):
        sgd_step([("p", p)], vel, lr=0.1, momentum=0.9, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [1.0, 2.0])


def test_sgd_momentum_recurrence():
    p = _p([0.0])
    vel = {}
    p.grad = np.array([1.0])
    sgd_step([("p", p)], vel, lr=1.0, momentum=0.5, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [-1.0])          # v = 1
    p.grad = np.array([1.0])
    sgd_step([("p", p)], vel, lr=1.0, momentum=0.5, weight_decay=0.0)
    np.testing.assert_allclose(p.data, [-2.5])          # v = 1.5


def test_sgd_rejects_nonfinite_grad():
    p = _p([1.0])
    p.grad = np.array([np.nan])
    with pytest.raises(TrainError, match="non-finite"):
        sgd_step([("p", p)], {}, 0.1, 0.9, 0.0)


def test_sgd_descends_quadratic_bowl():
    p = _p([5.0, -3.0])
    vel = {}
    losses = []
    for _ in range(10):
        losses.append(float(p.data @ p.data))
        p.grad = 2 * p.data
        sgd_step([("p", p)], vel, 0.1, 0.0, 0.0)
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_ema_decay_zero_copies():
    p = _p([3.0])
    ema = ema_update({}, [("p", p)], 0.0)
    np.testing.assert_array_equal(ema["p"], [3.0])


def test_ema_geometric_convergence():
    p = _p([1.0])
    ema = {"p": np.array([0.0])}
    gaps = []
    for _ in range(5):
        ema_update(ema, [("p", p)], 0.5)
        gaps.append(abs(float(ema["p"][0]) - 1.0))
    for a, b in zip(gaps, gaps[1:]):
        assert abs(b - 0.5 * a) < 1e-12


def test_ema_matches_scalar_recurrence(rng):
    seq = rng.standard_normal(20)
    p = _p([seq[0]])
    ema = {"p": p.data.copy()}
    ref = float(seq[0])
    for v in seq[1:]:
        p.data[...] = v
        ema_update(ema, [("p", p)], 0.9)
        ref = 0.9 * ref + 0.1 * float(v)
        assert abs(float(ema["p"][0]) - ref) < 1e-12


def test_ema_stays_in_convex_hull(rng):
    seq = rng.standard_normal(30)
    p = _p([0.0])
    ema = {"p": np.array([seq[0]])}
    lo = hi = float(seq[0])
    for v in seq:
        p.data[...] = v
        lo, hi = min(lo, float(v)), max(hi, float(v))
        ema_update(ema, [("p", p)], 0.8)
        assert lo - 1e-12 <= float(ema["p"][0]) <= hi + 1e-12


def test_swap_params_restores():
    p = _p([1.0, 2.0])
    with swap_params([("p", p)], {"p": np.array([9.0, 9.0])}):
        np.testing.assert_array_equal(p.data, [9.0, 9.0])
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_synth_dataset_deterministic_and_balanced():
    a_img, a_lab = synth_dataset(3, 100, classes=10, size=16)
    b_img, b_lab = synth_dataset(3, 100, classes=10, size=16)
    np.testing.assert_array_equal(a_img, b_img)
    np.testing.assert_array_equal(a_lab, b_lab)
    counts = np.bincount(a_lab, minlength=10)
    assert counts.max() - counts.min() <= 1
    assert a_img.shape == (100, 3, 16, 16)
    c_img, _ = synth_dataset(4, 100, classes=10, size=16)
    assert not np.array_equal(a_img, c_img)


def test_synth_dataset_linearly_separable_above_chance():
    # a least-squares linear probe on raw pixels must beat chance by a wide
    # margin, confirming the class signal is learnable
    images, labels = synth_dataset(0, 400, classes=10, size=16)
    flat = images.reshape(len(labels), -1)
    onehot = np.eye(10)[labels]
    w, *_ = np.linalg.lstsq(flat, onehot, rcond=None)
    acc = float((np.argmax(flat @ w, axis=1) == labels).mean())
    assert acc > 0.5


def test_evaluate_over_image_blocks_matches_the_whole_batch(monkeypatch):
    # 25 images of 32 px run the stem and max pool in three image blocks,
    # 10 + 10 + 5; with a block as large as the batch, in one
    net = build_network(parse_config(MICRO_CFG), seed=4)
    images, labels = synth_dataset(4, 25)
    stem_forward, run, blocks, scores = net.layers[0].forward, net.run, [], []
    monkeypatch.setattr(net.layers[0], "forward",
                        lambda x, ops: blocks.append(len(x)) or stem_forward(x, ops))
    monkeypatch.setattr(net, "run", lambda x, ops: scores.append(run(x, ops)) or scores[-1])
    acc = evaluate(net, images, labels)
    monkeypatch.setattr(T, "BLOCK_BYTES", images.nbytes)
    whole = evaluate(net, images, labels)
    assert blocks == [10, 10, 5, 25]
    assert scores[0].tobytes() == scores[1].tobytes()
    assert acc == whole == int((scores[1].argmax(axis=1) == labels).sum()) / 25


def test_train_config_validation():
    for bad in ({"epochs": 0}, {"epochs": -2}, {"batch_size": 0}, {"batch_size": -4},
                {"lr": float("nan")}, {"lr": float("inf")}, {"lr": -0.1}):
        with pytest.raises(TrainError):
            TrainConfig(**bad)
    assert TrainConfig(epochs=1, batch_size=1, lr=0.0).lr == 0.0


def test_lr_schedules():
    cfg = TrainConfig(epochs=10, lr=0.1)
    assert abs(cfg.lr_at(0) - 0.1) < 1e-12
    assert cfg.lr_at(5) < cfg.lr_at(1)
    assert abs(cfg.lr_at(5) - 0.05) < 1e-12


def test_train_loop_lr_zero_keeps_metrics_constant():
    net = build_network(parse_config(MICRO_CFG), seed=0)
    images, labels = synth_dataset(0, 64, classes=10, size=32)
    # single full batch so normalization statistics are order-independent
    cfg = TrainConfig(epochs=3, batch_size=64, lr=0.0, seed=0)
    hist = train_loop(net, images, labels, cfg, eval_ema=False)
    losses = [h["loss"] for h in hist]
    assert max(losses) - min(losses) < 1e-12


def test_train_loop_deterministic():
    images, labels = synth_dataset(1, 96, classes=10, size=32)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=5)
    h1 = train_loop(build_network(parse_config(MICRO_CFG), seed=2),
                    images, labels, cfg, eval_ema=False)
    h2 = train_loop(build_network(parse_config(MICRO_CFG), seed=2),
                    images, labels, cfg, eval_ema=False)
    strip = lambda hist: [{k: v for k, v in h.items() if k != "ema_acc"}
                          for h in hist]
    assert strip(h1) == strip(h2)
    assert all(np.isnan(h["ema_acc"]) for h in h1 + h2)


def test_train_loop_stop_acc_ends_early():
    net = build_network(parse_config(MICRO_CFG), seed=0)
    images, labels = synth_dataset(0, 64, classes=10, size=32)
    cfg = TrainConfig(epochs=4, batch_size=32, lr=0.0, seed=0)
    hist = train_loop(net, images, labels, cfg, eval_ema=False, stop_acc=0.0)
    assert len(hist) == 1


def test_metrics_csv_format():
    hist = [{"epoch": 0, "loss": 1.5, "acc": 0.25, "ema_acc": 0.125}]
    csv = metrics_csv(hist)
    lines = csv.strip().splitlines()
    assert lines[0] == "epoch,loss,acc,ema_acc"
    assert lines[1].startswith("0,1.5")


def test_synth_dataset_adds_noise_in_blocks(monkeypatch):
    import tracemalloc

    from dicekit import train
    # the blocks draw the same noise, in the same order, as one call would
    images, labels = synth_dataset(5, 300, size=16)
    monkeypatch.setattr(train, "NOISE_BLOCK", 300)
    one_call, labels_one = synth_dataset(5, 300, size=16)
    assert images.tobytes() == one_call.tobytes() and np.array_equal(labels, labels_one)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        images, _ = synth_dataset(1, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one call held three dataset-sized arrays: the images, the draws and
    # 0.3 times the draws
    assert peak < 1.3 * images.nbytes, (peak, images.nbytes)
