"""Micro-benchmarks for DimConv's two kernel variants, fused and unfused.

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

from .dimops import DimConvParams, dimconv_fused, dimconv_macs, dimconv_unfused

DEFAULT_SHAPE = (64, 56, 56)
DEFAULT_N = 3


class BenchError(RuntimeError):
    """Raised for invalid benchmark requests or checksum mismatches."""


@dataclass
class BenchResult:
    impl: str
    shape: tuple
    times: list = field(default_factory=list)
    checksum: str = ""
    macs: int = 0

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    def row(self) -> dict:
        return {
            "op": "dimconv", "impl": self.impl,
            "shape": "x".join(str(s) for s in self.shape),
            "repeats": len(self.times),
            "median_s": self.median, "mean_s": statistics.fmean(self.times),
            "stddev_s": statistics.pstdev(self.times),
            "macs_per_s": self.macs / self.median if self.median > 0 else float("inf"),
            "checksum": self.checksum,
        }


def _checksum(arr: np.ndarray) -> str:
    # a float sum would miss outputs that hold the same values in other places
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_bench(impl: str, shape=DEFAULT_SHAPE, n: int = DEFAULT_N,
              repeats: int = 10, warmup: int = 2, seed: int = 0) -> BenchResult:
    """Time DimConv's `fused` or `unfused` variant on deterministic inputs."""
    if repeats < 1 or warmup < 0:
        raise BenchError("need repeats >= 1 and warmup >= 0")
    if n < 1:
        raise BenchError(f"need kernel extent n >= 1, got {n}")
    if impl not in ("fused", "unfused"):
        raise BenchError(f"unknown bench variant: impl {impl!r}")
    c, h, w = shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, c, h, w))
    params = DimConvParams.init(c, h, w, n, rng)
    kernel = dimconv_fused if impl == "fused" else dimconv_unfused
    out = None
    for _ in range(warmup):
        out = kernel(x, params)
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        out = kernel(x, params)
        times.append(time.monotonic() - t0)
    return BenchResult(impl=impl, shape=tuple(shape), times=times,
                       checksum=_checksum(out), macs=dimconv_macs(c, h, w, n))


def compare_fused_unfused(shape=DEFAULT_SHAPE, n: int = DEFAULT_N,
                          repeats: int = 10, warmup: int = 2, seed: int = 0):
    """Bench both dimconv variants; abort unless their checksums agree."""
    fused = run_bench("fused", shape, n, repeats, warmup, seed)
    unfused = run_bench("unfused", shape, n, repeats, warmup, seed)
    if fused.checksum != unfused.checksum:
        raise BenchError(
            f"checksum mismatch between variants: fused={fused.checksum!r} "
            f"unfused={unfused.checksum!r}; refusing to report timings")
    return fused, unfused
