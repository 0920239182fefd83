"""Spans recorded around calls into dicekit, from outside the library.

The library reaches its kernels and ops at call time through module
attributes (``T.pointwise_conv``, ``ag.linear``, ``dimops.dimconv_fused``,
``train.sgd_step`` ...), and reaches each layer through
``layer.forward``. Replacing those attributes with timing wrappers sees
every call without changing the library's source.

Spans nest. Each records its inclusive time and the part of that time its
child spans cover, so self time is the difference. A span opened inside a
span of the same name adds its self time but no inclusive time or call, so
nested calls (an autograd op calling another) are not counted twice.
"""

from __future__ import annotations

import inspect
import time


def public_functions(module, skip=()) -> list:
    """Names of the public functions defined in ``module``."""
    return [attr for attr, fn in vars(module).items()
            if not attr.startswith("_") and attr not in skip
            and inspect.isfunction(fn) and fn.__module__ == module.__name__]


class Stat:
    """Totals for one span name."""

    __slots__ = ("calls", "s", "self_s", "macs", "bytes", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.macs = 0
        self.bytes = 0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._open: list[list[float]] = []   # child time of each open span
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, cost=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``cost(args, kwargs, result)`` returns the (MACs, bytes) of one call.
        """
        orig = getattr(owner, attr)
        own = attr in vars(owner)
        st = self.stats.setdefault(name, Stat())
        open_spans = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            st.depth += 1
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                st.depth -= 1
                if open_spans:
                    open_spans[-1][0] += dt
                st.self_s += dt - child[0]
                if st.depth == 0:
                    st.calls += 1
                    st.s += dt
            if cost is not None:
                macs, nbytes = cost(args, kwargs, out)
                st.macs += macs
                st.bytes += nbytes
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, own))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, orig, own = self._undo.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def totals(self) -> dict:
        """name -> (calls, seconds, self seconds, MACs, bytes) so far."""
        return {name: (st.calls, st.s, st.self_s, st.macs, st.bytes)
                for name, st in self.stats.items()}
