"""Support for the DiCE unit in `netbuilder`: the counter of dynamic input
rescales and the channel shuffle that ends each split/shuffle block."""

from __future__ import annotations

import contextvars

import numpy as np

from .tensorops import KernelError, check_tensor

# Instrumentation: number of bilinear rescales performed by unit forwards.
# At nominal input size this must stay at zero. Counted per context, so
# inferences in two threads do not add into each other's count (each thread
# starts from 0).
_resize_calls = contextvars.ContextVar("dicekit_resize_calls", default=0)


def reset_resize_count() -> None:
    _resize_calls.set(0)


def resize_count() -> int:
    return _resize_calls.get()


def note_resize() -> None:
    """Record one dynamic rescale of a unit's input or output."""
    _resize_calls.set(_resize_calls.get() + 1)


def channel_shuffle(x: np.ndarray, groups: int = 2) -> np.ndarray:
    """Move the channel at (group g, index i) to interleaved position i*groups+g."""
    check_tensor(x)
    nb, c, h, w = x.shape
    if c % groups:
        raise KernelError(f"channels {c} not divisible by shuffle groups {groups}")
    return (x.reshape(nb, groups, c // groups, h, w)
             .transpose(0, 2, 1, 3, 4)
             .reshape(nb, c, h, w))
