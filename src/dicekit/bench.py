"""Micro-benchmarks for the kernel variants.

Monotonic-clock timing, warmup trials excluded, median as the headline
statistic. Every run records an output checksum, a digest of the output's
dtype, shape and bytes; comparing two variants with different checksums is
a hard error, so timing numbers can never be reported for disagreeing
implementations.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .dimops import (
    DimConvParams,
    dimconv_fused,
    dimconv_macs,
    dimconv_unfused,
    separable_conv,
)
from .tensorops import ConvKernelBank, KernelError

DEFAULT_SHAPE = (64, 56, 56)
DEFAULT_N = 3


class BenchError(RuntimeError):
    """Raised for invalid benchmark requests or checksum mismatches."""


@dataclass
class BenchResult:
    op: str
    impl: str
    shape: tuple
    repeats: int
    times: list = field(default_factory=list)
    checksum: str = ""
    macs: int = 0

    def __post_init__(self):
        if self.times and len(self.times) != self.repeats:
            raise BenchError("trial count disagrees with repeats")

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def stddev(self) -> float:
        return statistics.pstdev(self.times) if len(self.times) > 1 else 0.0

    @property
    def macs_per_second(self) -> float:
        return self.macs / self.median if self.median > 0 else float("inf")

    def row(self) -> dict:
        return {
            "op": self.op, "impl": self.impl,
            "shape": "x".join(str(s) for s in self.shape),
            "repeats": self.repeats,
            "median_s": self.median, "mean_s": self.mean, "stddev_s": self.stddev,
            "macs_per_s": self.macs_per_second, "checksum": self.checksum,
        }


def _checksum(arr: np.ndarray) -> str:
    # a float sum would miss outputs that hold the same values in other places
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _make_inputs(op: str, shape, n: int, seed: int, dtype=np.float64):
    c, h, w = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, c, h, w)).astype(dtype)
    if op == "dimconv":
        params = DimConvParams.init(c, h, w, n, rng, dtype)
        return x, params
    if op == "separable":
        bank = ConvKernelBank.random(c, n, rng, dtype)
        pw = rng.normal(0.0, (2.0 / c) ** 0.5, size=(c, c)).astype(dtype)
        return x, (bank, pw)
    raise BenchError(f"unknown bench op {op!r}")


def run_bench(op: str, impl: str, shape=DEFAULT_SHAPE, n: int = DEFAULT_N,
              repeats: int = 10, warmup: int = 2, seed: int = 0) -> BenchResult:
    """Time one (op, impl) pair on deterministic inputs."""
    if repeats < 1 or warmup < 0:
        raise BenchError("need repeats >= 1 and warmup >= 0")
    x, params = _make_inputs(op, shape, n, seed)
    if op == "dimconv":
        if impl == "fused":
            fn = lambda: dimconv_fused(x, params)
        elif impl == "unfused":
            fn = lambda: dimconv_unfused(x, params)
        else:
            raise BenchError(f"unknown impl {impl!r} for dimconv")
        macs = dimconv_macs(shape[0], shape[1], shape[2], n)
    elif op == "separable":
        bank, pw = params
        fn = lambda: separable_conv(x, bank, pw)
        c, h, w = shape
        macs = n * n * h * w * c + c * c * h * w
        if impl not in ("fused", "unfused", "default"):
            raise BenchError(f"unknown impl {impl!r} for separable")
    else:
        raise BenchError(f"unknown bench op {op!r}")
    out = None
    for _ in range(warmup):
        out = fn()
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        out = fn()
        times.append(time.monotonic() - t0)
    return BenchResult(op=op, impl=impl, shape=tuple(shape), repeats=repeats,
                       times=times, checksum=_checksum(out), macs=macs)


def compare_fused_unfused(shape=DEFAULT_SHAPE, n: int = DEFAULT_N,
                          repeats: int = 10, warmup: int = 2, seed: int = 0):
    """Bench both dimconv variants; abort unless their checksums agree."""
    fused = run_bench("dimconv", "fused", shape, n, repeats, warmup, seed)
    unfused = run_bench("dimconv", "unfused", shape, n, repeats, warmup, seed)
    if fused.checksum != unfused.checksum:
        raise BenchError(
            f"checksum mismatch between variants: fused={fused.checksum!r} "
            f"unfused={unfused.checksum!r}; refusing to report timings")
    return fused, unfused
