"""The benchmark's workloads: inputs made from the seed, set-up, one timed
library call, and the checks on what each call returns.

Import only after the BLAS thread variables are set: this imports numpy.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dicekit import dice, netbuilder, netconfig, serialize, train, verify

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# the bound tests/test_netbuilder.py puts on infer() against oracle_forward()
ORACLE_BOUND = 1e-10
# distinct inputs per inference workload; each later call on an input must
# return exactly the bytes of the first
N_INPUTS = 3


@dataclass(frozen=True)
class Workload:
    config: str
    size: int
    batch: int
    images: int = 0          # training-set size; 0 for an inference workload

    @property
    def training(self) -> bool:
        return self.images > 0


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "infer-s1.0-b1": Workload("dicenet-s1.0", 224, 1),
    "infer-sep300m-b1": Workload("separable-300m", 224, 1),
    "infer-s1.0-b8-288": Workload("dicenet-s1.0", 288, 8),
    "train-micro": Workload("dicenet-micro", 32, 64, images=2000),
}

# --short: the same code paths on the micro configs, for the self-test
SHORT = {
    "infer-s1.0-b1": Workload("dicenet-micro", 32, 1),
    "infer-sep300m-b1": Workload("separable-micro", 32, 1),
    "infer-s1.0-b8-288": Workload("dicenet-micro", 40, 2),
    "train-micro": Workload("dicenet-micro", 32, 16, images=64),
}


def config_text(name: str) -> str:
    return (CONFIGS / f"{name}.cfg").read_text()


def named_state(net) -> list:
    """Parameters and batch-norm running statistics, named as `dicekit train
    --checkpoint` saves them."""
    named = [(name, p.data) for name, p in net.parameters()]
    for idx, state in enumerate(net.bn_states()):
        named.append((f"bn{idx}.running_mean", state.running_mean))
        named.append((f"bn{idx}.running_var", state.running_var))
    return named


def load_state(net, stored: dict) -> None:
    """Copy a loaded checkpoint into the network, as `dicekit infer` does."""
    for name, p in net.parameters():
        p.data[...] = stored[name]
    for idx, state in enumerate(net.bn_states()):
        state.running_mean[...] = stored[f"bn{idx}.running_mean"]
        state.running_var[...] = stored[f"bn{idx}.running_var"]


def same_bytes(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def prechecks(seed: int, fault: str | None) -> list:
    """The gate run before anything is timed: (name, passed, detail) rows."""
    results, _ = verify.run_suite("kernels", seed, fault=fault)
    checks = [(f"kernels.{r.name}", r.passed, f"max_err={r.max_err:.3e}")
              for r in results]
    rng = np.random.default_rng(seed)
    for name in ("dicenet-micro", "separable-micro"):
        net = netbuilder.build_network(netconfig.parse_config(config_text(name)),
                                       seed=seed)
        x = rng.standard_normal((2, 3, 32, 32))
        ref, counter = net.oracle_forward(x)
        err = float(np.abs(netbuilder.infer(net, x) - ref).max())
        checks.append((f"infer_vs_oracle.{name}", err < ORACLE_BOUND,
                       f"max_abs_err={err:.3e} bound={ORACLE_BOUND:g}"))
        want = x.shape[0] * netbuilder.analyze(net).total_macs
        checks.append((f"macs_vs_oracle.{name}", counter.mac_count == want,
                       f"oracle={counter.mac_count} analyze*batch={want}"))
    return checks


@dataclass
class Call:
    """One library call: its duration, the latency of each operation in it,
    how many of those failed, how many images it completed and how many
    resizes the DiCE units counted during it."""
    seconds: float
    latencies: list
    failed: int
    images: int
    resizes: int
    error: str = ""


class InferRun:
    """Closed loop of `netbuilder.infer` calls, one client."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl, self.seed = wl, seed
        rng = np.random.default_rng(seed)
        self.inputs = [rng.standard_normal((wl.batch, 3, wl.size, wl.size))
                       for _ in range(N_INPUTS)]
        self.refs: list = [None] * N_INPUTS
        self.calls = 0
        self.ckpt = os.path.join(workdir, "ckpt")
        net = netbuilder.build_network(netconfig.parse_config(config_text(wl.config)),
                                       seed=seed)
        self.saved = {k: v.copy() for k, v in named_state(net)}
        serialize.save_checkpoint(self.ckpt, list(self.saved.items()))
        self.classes = net.cfg.classes
        report = netbuilder.analyze(net)
        # every DiCE unit resizes into and out of its nominal grid off-size
        self.expect_resizes = 0 if wl.size == net.cfg.input_size else \
            2 * sum(1 for row in report.rows if row[1] == "dimconv")
        self.net = None
        self.loaded = None

    def setup(self):
        cfg = netconfig.parse_config(config_text(self.wl.config))
        net = netbuilder.build_network(cfg, seed=self.seed)
        stored = serialize.load_checkpoint(self.ckpt)
        load_state(net, stored)
        netbuilder.infer(net, self.inputs[0][:1])       # warm-up
        self.net, self.loaded = net, stored

    def setup_checks(self) -> list:
        return [("checkpoint_round_trip", same_bytes(self.saved, self.loaded),
                 f"{len(self.saved)} tensors")]

    def call(self) -> Call:
        i = self.calls % N_INPUTS
        self.calls += 1
        dice.reset_resize_count()
        t0 = time.perf_counter()
        y = netbuilder.infer(self.net, self.inputs[i])
        dt = time.perf_counter() - t0
        resizes = dice.resize_count()
        error = ""
        if y.shape != (self.wl.batch, self.classes) or not np.isfinite(y).all():
            error = f"call {self.calls}: shape {y.shape} or non-finite scores"
        elif resizes != self.expect_resizes:
            error = f"call {self.calls}: {resizes} resizes, expected {self.expect_resizes}"
        elif self.refs[i] is None:
            self.refs[i] = y.tobytes()
        elif y.tobytes() != self.refs[i]:
            error = f"call {self.calls}: scores differ from the first call on input {i}"
        return Call(dt, [dt], int(bool(error)), self.wl.batch, resizes, error)

    def finish_checks(self) -> list:
        return []

    def close(self) -> None:
        pass


class TrainRun:
    """Closed loop of one-epoch `train.train_loop` calls with EMA eval, as
    `dicekit train` runs them, then a checkpoint save and load."""

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl, self.seed = wl, seed
        self.tcfg = train.TrainConfig(epochs=1, batch_size=wl.batch, seed=seed)
        self.ckpt = os.path.join(workdir, "ckpt")
        self.calls = 0
        self.step_ends: list = []
        self.net = self.images = self.labels = None
        # One timestamp per training step, taken as ema_update (the last
        # thing train_loop does in a step) returns. Costs about a
        # microsecond a step, so it stays on in the untraced run.
        self._ema_update = train.ema_update

        def stamped(*args, **kwargs):
            out = self._ema_update(*args, **kwargs)
            self.step_ends.append(time.perf_counter())
            return out
        train.ema_update = stamped

    def close(self) -> None:
        train.ema_update = self._ema_update

    def setup(self):
        cfg = netconfig.parse_config(config_text(self.wl.config))
        net = netbuilder.build_network(cfg, seed=self.seed)
        images, labels = train.synth_dataset(self.seed, self.wl.images,
                                             cfg.classes, cfg.input_size)
        b = self.wl.batch
        train.train_loop(net, images[:b], labels[:b], self.tcfg, eval_ema=False)
        self.net, self.images, self.labels = net, images, labels

    def setup_checks(self) -> list:
        return []

    def call(self) -> Call:
        self.calls += 1
        self.step_ends.clear()
        dice.reset_resize_count()
        t0 = time.perf_counter()
        history = train.train_loop(self.net, self.images, self.labels, self.tcfg)
        dt = time.perf_counter() - t0
        resizes = dice.resize_count()
        ends = [t0] + self.step_ends
        steps = [b - a for a, b in zip(ends, ends[1:])]
        row = history[-1]
        error = ""
        if not (math.isfinite(row["loss"]) and math.isfinite(row["ema_acc"])):
            error = f"epoch {self.calls}: loss {row['loss']} ema_acc {row['ema_acc']}"
        elif resizes:
            error = f"epoch {self.calls}: {resizes} resizes at nominal size"
        elif len(steps) != math.ceil(self.wl.images / self.wl.batch):
            error = f"epoch {self.calls}: {len(steps)} steps"
        return Call(dt, steps, int(bool(error)), len(self.labels), resizes, error)

    def finish_checks(self) -> list:
        saved = {k: v.copy() for k, v in named_state(self.net)}
        serialize.save_checkpoint(self.ckpt, list(saved.items()))
        loaded = serialize.load_checkpoint(self.ckpt)
        return [("checkpoint_round_trip", same_bytes(saved, loaded),
                 f"{len(saved)} tensors")]


def make_run(wl: Workload, seed: int, workdir: str):
    return (TrainRun if wl.training else InferRun)(wl, seed, workdir)
