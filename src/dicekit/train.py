"""Toy-scale supervised training: SGD with momentum, label-smoothed
cross-entropy, weight EMA, and a synthetic oriented-grating dataset small
enough to learn on a desk CPU."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .netbuilder import infer

# images per block of `synth_dataset`'s noise (1.5 MiB at 3x32x32)
NOISE_BLOCK = 64


class TrainError(RuntimeError):
    """Raised when optimization cannot proceed (divergence, bad shapes)."""


# SGD, loss and weight-average settings of every training run
MOMENTUM = 0.9
WEIGHT_DECAY = 4e-5
LABEL_SMOOTHING = 0.1
EMA_DECAY = 0.999


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise TrainError(f"learning rate must be finite and non-negative, got {self.lr}")

    def lr_at(self, epoch: int) -> float:
        """Cosine decay from `lr` at epoch 0."""
        return self.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / self.epochs))


def sgd_step(params, velocities: dict, lr: float, momentum: float,
             weight_decay: float) -> None:
    """v <- momentum*v + grad + wd*p; p <- p - lr*v. In-place, fixed order."""
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainError(f"non-finite gradient for parameter {name!r}")
        v = velocities.get(name)
        if v is None:
            v = np.zeros_like(p.data, dtype=np.float64)
        v = momentum * v + g + weight_decay * p.data
        velocities[name] = v
        p.data -= lr * v


def ema_update(ema: dict, params, decay: float) -> dict:
    if not 0.0 <= decay < 1.0:
        raise TrainError(f"ema decay must be in [0, 1), got {decay}")
    for name, p in params:
        prev = ema.get(name, p.data)
        ema[name] = decay * prev + (1.0 - decay) * p.data
    return ema


@contextlib.contextmanager
def swap_params(params, values: dict):
    """Temporarily load `values` into the parameter buffers (in place, so
    aliased views keep working), restoring the originals afterwards."""
    saved = {name: p.data.copy() for name, p in params}
    for name, p in params:
        if name in values:
            p.data[...] = values[name]
    try:
        yield
    finally:
        for name, p in params:
            p.data[...] = saved[name]


def synth_dataset(seed: int, count: int, classes: int = 10, size: int = 32):
    """Deterministic labeled images: each class is an oriented grating with
    a class-specific frequency and channel mix, plus additive noise.

    Returns (images (count, 3, size, size) f64, labels (count,) i64) with
    balanced labels (within one sample).
    """
    if count < classes:
        raise TrainError(f"need at least one sample per class: {count} < {classes}")
    rng = np.random.default_rng(seed)
    labels = np.arange(count, dtype=np.int64) % classes
    rng.shuffle(labels)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    images = np.empty((count, 3, size, size), dtype=np.float64)
    for k in range(classes):
        idx = np.flatnonzero(labels == k)
        angle = math.pi * k / classes
        freq = 2.0 + (k % 4)
        axis = math.cos(angle) * xx + math.sin(angle) * yy
        mix = np.array([math.cos(2.1 * k), math.sin(1.3 * k + 0.5),
                        math.cos(0.7 * k + 1.1)])
        phases = rng.uniform(0, 2 * math.pi, size=idx.size)
        for j, i in enumerate(idx):
            grating = np.sin(2 * math.pi * freq * axis + phases[j])
            images[i] = mix[:, None, None] * grating[None]
    # in blocks of images: the same draws in the same order, with no
    # temporaries the size of the dataset
    for i in range(0, count, NOISE_BLOCK):
        block = images[i:i + NOISE_BLOCK]
        block += 0.3 * rng.normal(size=block.shape)
    return images, labels


def evaluate(net, images, labels) -> float:
    """Inference-mode accuracy over a labeled set, by one `infer` call: an
    image's scores are the same bytes in any batch. Non-finite scores raise."""
    return int((infer(net, images).argmax(axis=1) == labels).sum()) / len(labels)


def train_loop(net, images, labels, cfg: TrainConfig, eval_ema: bool = True,
               stop_acc: float | None = None):
    """Run the full schedule; returns one metrics dict per epoch.

    Deterministic for a fixed config: data order comes from the config seed
    and every reduction is sequential. With `stop_acc`, training ends early
    once the epoch's training accuracy reaches that level.
    """
    if len(images) != len(labels):
        raise TrainError("images and labels disagree on sample count")
    params = net.parameters()
    velocities: dict = {}
    ema: dict = {name: p.data.copy() for name, p in params}
    order_rng = np.random.default_rng(cfg.seed)
    history = []
    count = len(labels)
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        perm = order_rng.permutation(count)
        loss_sum, correct = 0.0, 0
        for lo in range(0, count, cfg.batch_size):
            sel = perm[lo:lo + cfg.batch_size]
            xb, yb = images[sel], labels[sel]
            for _, p in params:
                p.grad = None
            scores = net.forward(xb)
            loss = ag.cross_entropy_ls(scores, yb, LABEL_SMOOTHING)
            if not np.isfinite(loss.data):
                raise TrainError(f"training diverged at epoch {epoch}: loss={loss.data}")
            ag.backward(loss)
            sgd_step(params, velocities, lr, MOMENTUM, WEIGHT_DECAY)
            ema_update(ema, params, EMA_DECAY)
            loss_sum += float(loss.data) * len(sel)
            correct += int((scores.data.argmax(axis=1) == yb).sum())
        ema_acc = float("nan")
        if eval_ema:
            with swap_params(params, ema):
                ema_acc = evaluate(net, images, labels)
        history.append({
            "epoch": epoch,
            "loss": loss_sum / count,
            "acc": correct / count,
            "ema_acc": ema_acc,
        })
        if stop_acc is not None and history[-1]["acc"] >= stop_acc:
            break
    return history


def metrics_csv(history) -> str:
    lines = ["epoch,loss,acc,ema_acc"]
    for row in history:
        lines.append(f"{row['epoch']},{row['loss']:.10f},{row['acc']:.6f},"
                     f"{row['ema_acc']:.6f}")
    return "\n".join(lines) + "\n"
