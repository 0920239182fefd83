"""Elaborate a NetConfig into a layer graph, and run it four ways.

Each layer is defined once, by a `forward(x, ops)` method written against a
small op vocabulary: `spatial_conv`, `bn_prelu`, `max_pool`, `avg_pool`,
`dimconv`, `depthwise`, `pointwise`, `bilinear`, `global_avg`, `relu`,
`sigmoid`, `mul`, `add`, `narrow`, `concat`, `shuffle` and `reshape`; a
fully connected layer is `pointwise` on a 1x1 map. `ops.row(name, kind)`
scopes name the `analyze()` row that the ops run inside it belong to; a
scope without a kind only prefixes the names of the rows within it. Each
op is defined once too, by its record in one table, `OPS`. Four
interpreters run the layers through its fields, each Var argument as its
array:

- `ArrayOps` (`array`): the fast kernels on plain arrays, `bilinear`'s
  counting each resize: `infer`, which `train.evaluate` calls too.
- `AutogradOps` (`array`): the same forward, recorded on the tape with its
  backward, `autograd.<name>_vjp`: `Network.forward`, which is training.
- `OracleOps` (`oracle`): the naive `oracle` loops, which tally every MAC
  on a counter: `Network.oracle_forward`.
- `CostOps` (`cost`): shapes only, summing each op's MACs and parameters
  into the row it runs in: `analyze()`.

Two interpreter methods lie outside the vocabulary, with no `OPS` record.
In `ops.image_blocks(fn, x)`, `fn` maps a batch to a batch, each output
image depending on its own input image alone; `ArrayOps` runs it over
`tensorops._image_blocks`' blocks of whole images and copies each block's
result into its slice of the batch result, the others return `fn(x)`.
`Network.run` passes the stem and max pool through it, so inference never
allocates the whole batch's stem output. `ops.bn_stats(x, running_mean,
running_var)` chooses the (mean, var) that `bn_prelu` normalizes by: the
batch's in `AutogradOps` (`autograd.batch_statistics`, which updates the
running ones), the running ones themselves elsewhere. `_BNAct.forward` runs
the two.

The cost convention is the oracle's: a convolution is charged one MAC per
tap per output element (padded taps included), pooling its window
accumulations, DimFuse's gate product one MAC per element; normalization,
activations and resizes are free. So on a small graph the report total
equals the oracle tally exactly.

The consume rule is a record's `consumes`: `bn_prelu` and `mul` consume
their first operand. Layer code never reads that value again, nor any other
value on its buffer (`reshape`, `narrow` and `shuffle` make views that
share it), and never hands them the network input. `CostOps` raises
KernelError on every `analyze()` that breaks it, and `ArrayOps` writes the
result into that buffer.

A new block style is one class, entered in `_BLOCK_TYPES` (its name in
`netconfig._BLOCK_STYLES`): a constructor that assigns its parameters,
which `_members` names after the attributes, and a `forward(x, ops)`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import autograd as ag
from . import dice, dimops
from . import oracle as orc
from . import tensorops as T
from .autograd import Var, param
from .netconfig import ConfigError, NetConfig, default_stem_channels
from .serialize import ContainerError
from .tensorops import KernelError, ceil_div

__all__ = ["Network", "FlopReport", "build_network", "analyze", "infer", "OPS",
           "AutogradOps", "ArrayOps", "OracleOps", "CostOps"]


def _he(rng, fan_in, shape, dtype):
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(dtype, copy=False)


def _he_pointwise(rng, fan_in, shape, dtype):
    """A pointwise layer's (C_out, C_in/G) weights, fully connected layers
    included: `_he`'s draw, Fortran-ordered, so that `pointwise_conv` can
    run its outputs-inner einsum on a view of them. Every writer (SGD, the
    EMA swap, `load_state`) updates them in place, which keeps the layout,
    and checkpoints store C order, so shapes, names, the draw and the saved
    bytes are a C-ordered array's."""
    return np.asfortranarray(_he(rng, fan_in, shape, dtype))


class _BNAct:
    """BatchNorm + PReLU after a convolution: its parameters gamma, beta and
    slope, its running statistics, two plain arrays, and the op."""

    def __init__(self, c, dtype):
        self.gamma = param(np.ones(c, dtype=dtype))
        self.beta = param(np.zeros(c, dtype=dtype))
        self.running_mean = np.zeros(c, dtype=dtype)
        self.running_var = np.ones(c, dtype=dtype)
        self.slope = param(np.full(c, 0.25, dtype=dtype))

    def forward(self, x, ops):
        mean, var = ops.bn_stats(x, self.running_mean, self.running_var)
        return ops.bn_prelu(x, self.gamma, self.beta, self.slope, mean, var)


class StemConv:
    """3x3 stride-2 dense convolution, the network entry."""

    def __init__(self, cin, cout, rng, dtype):
        self.w = param(_he(rng, cin * 9, (cout, cin, 3, 3), dtype))
        self.post = _BNAct(cout, dtype)

    def forward(self, x, ops):
        with ops.row("conv1", "conv"):
            return self.post.forward(ops.spatial_conv(x, self.w, 2), ops)


class MaxPool:
    def forward(self, x, ops):
        with ops.row("maxpool", "pool"):
            return ops.max_pool(x, 3, 2)


class DiceUnit:
    """Dimension-wise conv + fusion (or the ablation variants) as one unit.

    Always maps C channels to C channels; strided units average-pool the
    input by two first. The width/height banks are dimensioned for the
    nominal grid recorded at construction; other sizes are bilinearly
    rescaled through the conv and counted by the dice instrumentation.
    """

    def __init__(self, c, nominal_h, nominal_w, n, conv_kind, fusion_kind,
                 strided, rng, dtype):
        self.c, self.strided = c, strided
        self.conv_kind, self.fusion_kind = conv_kind, fusion_kind
        if strided:
            nominal_h, nominal_w = ceil_div(nominal_h, 2), ceil_div(nominal_w, 2)
        self.nominal_h, self.nominal_w = nominal_h, nominal_w
        self.k_d = param(_he(rng, n * n, (c, n, n), dtype))
        if conv_kind == "dimconv":
            self.k_w = param(_he(rng, n * n, (nominal_w, n, n), dtype))
            self.k_h = param(_he(rng, n * n, (nominal_h, n, n), dtype))
            mid = 3 * c
        else:
            self.k_w = self.k_h = None
            mid = c
        r = max(c // 4, 1)
        if fusion_kind == "dimfuse":
            self.k_g = (param(_he_pointwise(rng, 3, (c, 3), dtype))
                        if conv_kind == "dimconv" else None)
            self.k_s = param(_he(rng, n * n, (c, n, n), dtype))
            self.fc1 = param(_he_pointwise(rng, c, (r, c), dtype))
            self.fc2 = param(_he_pointwise(rng, r, (c, r), dtype))
            self.w_fuse = None
        else:
            self.k_g = self.k_s = self.fc1 = self.fc2 = None
            self.w_fuse = param(_he_pointwise(rng, mid, (c, mid), dtype))
        self.post1 = _BNAct(mid, dtype)
        self.post2 = _BNAct(c, dtype)

    def forward(self, x, ops):
        if self.strided:
            with ops.row("downpool", "pool"):
                x = ops.avg_pool(x, 3, 2)
        if self.conv_kind == "dimconv":
            with ops.row("dimconv", "dimconv"):
                h, w = x.shape[2:]
                if (h, w) == (self.nominal_h, self.nominal_w):
                    x = ops.dimconv(x, self.k_d, self.k_w, self.k_h)
                else:
                    x = ops.bilinear(x, self.nominal_h, self.nominal_w)
                    x = ops.bilinear(ops.dimconv(x, self.k_d, self.k_w, self.k_h), h, w)
                x = self.post1.forward(x, ops)
        else:
            with ops.row("depthwise", "depthwise"):
                x = self.post1.forward(ops.depthwise(x, self.k_d), ops)
        if self.fusion_kind == "pointwise":
            with ops.row("fuse", "pointwise"):
                return self.post2.forward(ops.pointwise(x, self.w_fuse), ops)
        with ops.row("dimfuse", "dimfuse"):
            y_g = ops.pointwise(x, self.k_g, self.c) if self.k_g is not None else x
            y_s = ops.depthwise(y_g, self.k_s)
            z = ops.relu(ops.pointwise(ops.global_avg(y_g), self.fc1))
            x = ops.mul(y_s, ops.sigmoid(ops.pointwise(z, self.fc2)))
            return self.post2.forward(x, ops)


class ShuffleBlock:
    """Channel-split block: identity left half, unit on the right half;
    strided variant runs the unit and a downsampling branch in parallel."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.cin, self.strided = cin, strided
        if strided:
            if cout <= cin:
                raise ConfigError("strided block needs out channels > in channels")
            self.unit = DiceUnit(cin, nominal_h, nominal_w, n, conv_kind,
                                 fusion_kind, True, rng, dtype)
            self.branch_dw = param(_he(rng, n * n, (cin, n, n), dtype))
            self.branch_pw = param(_he_pointwise(rng, cin, (cout - cin, cin), dtype))
            self.branch_post = _BNAct(cout - cin, dtype)
        else:
            if cin != cout or cin % 2:
                raise ConfigError("non-strided block needs equal, even channel counts")
            half = cin // 2
            self.proj = param(_he_pointwise(rng, half, (half, half), dtype))
            self.proj_post = _BNAct(half, dtype)
            self.unit = DiceUnit(half, nominal_h, nominal_w, n, conv_kind,
                                 fusion_kind, False, rng, dtype)

    def forward(self, x, ops):
        if self.strided:
            with ops.row("unit"):
                a = self.unit.forward(x, ops)
            with ops.row("branch_dw", "depthwise"):
                b = ops.depthwise(x, self.branch_dw, 2)
            with ops.row("branch_pw", "pointwise"):
                b = self.branch_post.forward(ops.pointwise(b, self.branch_pw), ops)
            return ops.shuffle(ops.concat([a, b]), 2)
        half = self.cin // 2
        left, right = ops.narrow(x, 0, half), ops.narrow(x, half, half)
        with ops.row("proj", "pointwise"):
            right = self.proj_post.forward(ops.pointwise(right, self.proj), ops)
        with ops.row("unit"):
            right = self.unit.forward(right, ops)
        return ops.shuffle(ops.concat([left, right]), 2)


class MobileBlock:
    """Pointwise channel adapter followed by the unit."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.proj = None
        if cin != cout:
            self.proj = param(_he_pointwise(rng, cin, (cout, cin), dtype))
            self.proj_post = _BNAct(cout, dtype)
        self.unit = DiceUnit(cout, nominal_h, nominal_w, n, conv_kind,
                             fusion_kind, strided, rng, dtype)

    def forward(self, x, ops):
        if self.proj is not None:
            with ops.row("proj", "pointwise"):
                x = self.proj_post.forward(ops.pointwise(x, self.proj), ops)
        with ops.row("unit"):
            return self.unit.forward(x, ops)


class ResBlock:
    """Bottleneck: reduce, unit, expand, residual add."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.strided = strided
        mid = max(cout // 4, 1)
        self.reduce = param(_he_pointwise(rng, cin, (mid, cin), dtype))
        self.reduce_post = _BNAct(mid, dtype)
        self.unit = DiceUnit(mid, nominal_h, nominal_w, n, conv_kind,
                             fusion_kind, strided, rng, dtype)
        self.expand = param(_he_pointwise(rng, mid, (cout, mid), dtype))
        self.expand_post = _BNAct(cout, dtype)
        self.shortcut = None
        if cin != cout or strided:
            self.shortcut = param(_he_pointwise(rng, cin, (cout, cin), dtype))

    def forward(self, x, ops):
        with ops.row("reduce", "pointwise"):
            y = self.reduce_post.forward(ops.pointwise(x, self.reduce), ops)
        with ops.row("unit"):
            y = self.unit.forward(y, ops)
        with ops.row("expand", "pointwise"):
            y = self.expand_post.forward(ops.pointwise(y, self.expand), ops)
        if self.shortcut is not None:
            with ops.row("shortcut", "pointwise"):
                x = ops.pointwise(x, self.shortcut, 1, 2 if self.strided else 1)
        return ops.add(y, x)


class Head:
    """Global pool, pointwise expansion to the pool width, grouped FC,
    classifier FC with a bias. Each of the three is `pointwise` on the
    pooled 1x1 map; the scores are reshaped to (N, classes) last."""

    def __init__(self, cin, pool_width, groups, classes, rng, dtype):
        self.groups = groups
        self.expand = param(_he_pointwise(rng, cin, (pool_width, cin), dtype))
        self.gfc = param(_he_pointwise(rng, pool_width // groups,
                                (pool_width, pool_width // groups), dtype))
        self.fc = param(_he_pointwise(rng, pool_width, (classes, pool_width), dtype))
        self.fc_bias = param(np.zeros(classes, dtype=dtype))

    def forward(self, x, ops):
        with ops.row("global_pool", "pool"):
            z = ops.global_avg(x)
        with ops.row("expand", "pointwise"):
            z = ops.relu(ops.pointwise(z, self.expand))
        with ops.row("grouped_fc", "fc"):
            z = ops.relu(ops.pointwise(z, self.gfc, self.groups))
        with ops.row("fc", "fc"):
            z = ops.pointwise(z, self.fc, bias=self.fc_bias)
            return ops.reshape(z, (-1, self.fc.shape[0]))


_BLOCK_TYPES = {"shufflenetv2": ShuffleBlock, "mobilenet": MobileBlock,
                "resnet": ResBlock}


def _members(obj, prefix):
    """(name, member) for each parameter and batch norm that obj holds, its
    unit's included, in the order its constructor assigned them."""
    for attr, v in vars(obj).items():
        name = f"{prefix}.{attr}"
        if isinstance(v, Var):
            yield name, v
        elif isinstance(v, (_BNAct, DiceUnit)):
            if isinstance(v, _BNAct):
                yield name, v
            yield from _members(v, name)


# ---------------------------------------------------------------- the op table

@dataclass(frozen=True)
class Op:
    """One vocabulary op. `array` and `oracle` take the interpreter, then the
    op's arguments, each Var as its array. `cost` takes those arguments,
    activations as anything with a `.shape`, and returns the output shape,
    MACs and parameters, plus True if the result is a view on the first
    operand's buffer. `consumes`: the op consumes its first operand, and
    `array` takes its buffer as `out`. The backward is no field: it is
    `autograd.<name>_vjp`, named by the op's key."""

    array: Callable
    oracle: Callable
    cost: Callable
    consumes: bool = False


def _plain(run, cost):
    """An op whose inference and oracle are the same code, `run`."""
    return Op(array=run, oracle=run, cost=cost)


def _resize(ops, x, h, w):
    """`bilinear`'s forward, which counts the resize (`dice.note_resize`)."""
    dice.note_resize()
    return T.bilinear_resize(x, h, w)


def _window(x, cout, stride, per_out, params):
    """The cost of a window or 1x1 op: per_out MACs per output element."""
    nb, _, h, w = x.shape
    shape = (nb, cout, ceil_div(h, stride), ceil_div(w, stride))
    return shape, math.prod(shape) * per_out, params


def _dimconv_params(k_d, k_w, k_h):
    return dimops.DimConvParams(*(T.ConvKernelBank(k) for k in (k_d, k_w, k_h)))


def _dimconv_cost(x, k_d, k_w, k_h):
    nb, c, h, w = x.shape
    n = k_d.shape[1]
    return (nb, 3 * c, h, w), nb * dimops.dimconv_macs(c, h, w, n), n * n * (c + h + w)


def _oracle_mul(ops, a, b):
    out = a * b
    ops.counter.tally(out.size)
    return out


def _mul_cost(a, b):
    shape = np.broadcast_shapes(a.shape, b.shape)
    return shape, math.prod(shape), 0


def _reshape_cost(x, shape):
    known = math.prod(s for s in shape if s != -1)
    return tuple(math.prod(x.shape) // known if s == -1 else s for s in shape), 0, 0, True


# Every field reaches `tensorops`, `dimops` and `oracle` through their
# module attributes at call time, as `AutogradOps` reaches `autograd`, so a
# tracer that replaces them sees every call.
OPS = {
    "spatial_conv": Op(
        array=lambda ops, x, w, stride: T.conv2d(x, w, stride),
        oracle=lambda ops, x, w, stride: orc.oracle_conv2d(x, w, stride, ops.counter)[0],
        cost=lambda x, w, stride: _window(x, w.shape[0], stride, w[0].size, w.size)),
    # mean and var come from ops.bn_stats
    "bn_prelu": Op(
        array=lambda ops, *args, out=None: T.bn_prelu(*args, out=out),
        oracle=lambda ops, *args: orc.oracle_bn_prelu(*args),
        cost=lambda x, g, b, s, mean, var: (x.shape, 0, g.size + b.size + s.size),
        consumes=True),
    "max_pool": Op(
        array=lambda ops, x, k, stride: T.pool(x, "max", k, stride),
        oracle=lambda ops, x, k, stride: orc.oracle_max_pool(x, k, stride),
        cost=lambda x, k, stride: _window(x, x.shape[1], stride, 0, 0)),
    "avg_pool": Op(
        array=lambda ops, x, k, stride: T.depthwise_conv(x, T.avg_bank(x.shape[1], k), stride),
        oracle=lambda ops, x, k, stride: orc.oracle_depthwise(
            x, T.avg_bank(x.shape[1], k), stride, ops.counter)[0],
        cost=lambda x, k, stride: _window(x, x.shape[1], stride, k * k, 0)),
    "dimconv": Op(
        array=lambda ops, x, *banks: dimops.dimconv_fused(x, _dimconv_params(*banks)),
        oracle=lambda ops, x, *banks: orc.oracle_dimconv(x, _dimconv_params(*banks),
                                                         ops.counter)[0],
        cost=_dimconv_cost),
    "depthwise": Op(
        array=lambda ops, x, taps, stride=1: T.depthwise_conv(x, T.ConvKernelBank(taps), stride),
        oracle=lambda ops, x, taps, stride=1: orc.oracle_depthwise(
            x, T.ConvKernelBank(taps), stride, ops.counter)[0],
        cost=lambda x, taps, stride=1: _window(x, x.shape[1], stride, taps[0].size, taps.size)),
    "pointwise": Op(
        array=lambda ops, x, w, groups=1, stride=1, bias=None: T.pointwise_conv(
            x, w, groups, stride, bias),
        oracle=lambda ops, x, w, groups=1, stride=1, bias=None: orc.oracle_pointwise(
            x, w, groups, stride, bias, ops.counter)[0],
        cost=lambda x, w, groups=1, stride=1, bias=None: _window(
            x, w.shape[0], stride, w.shape[1], w.size + (0 if bias is None else bias.size))),
    "bilinear": Op(
        array=_resize,
        oracle=lambda ops, x, h, w: orc.oracle_bilinear(x, h, w),
        # the identity: a network run at another size is priced as one built for it
        cost=lambda x, h, w: (x.shape, 0, 0)),
    "global_avg": Op(
        array=lambda ops, x: T.pool(x, "global_avg"),
        oracle=lambda ops, x: orc.oracle_global_avg(x, ops.counter)[0],
        cost=lambda x: (x.shape[:2] + (1, 1), math.prod(x.shape), 0)),
    "relu": _plain(lambda ops, x: T.relu(x), lambda x: (x.shape, 0, 0)),
    "sigmoid": _plain(lambda ops, x: T.sigmoid(x), lambda x: (x.shape, 0, 0)),
    # DimFuse's gate product, one MAC per element
    "mul": Op(array=lambda ops, a, b, out=None: np.multiply(a, b, out=out),
              oracle=_oracle_mul, cost=_mul_cost, consumes=True),
    "add": _plain(lambda ops, a, b: a + b,
                  lambda a, b: (np.broadcast_shapes(a.shape, b.shape), 0, 0)),
    "narrow": _plain(lambda ops, x, start, n: x[:, start:start + n],
                     lambda x, start, n: ((x.shape[0], n) + x.shape[2:], 0, 0, True)),
    "concat": _plain(lambda ops, parts: np.concatenate(parts, axis=1),
                     lambda parts: (parts[0].shape[:1] + (sum(p.shape[1] for p in parts),)
                                    + parts[0].shape[2:], 0, 0)),
    "shuffle": _plain(lambda ops, x, g: dice.channel_shuffle(x, g),
                      lambda x, g: (x.shape, 0, 0, True)),
    "reshape": _plain(lambda ops, x, shape: x.reshape(shape), _reshape_cost),
}


# -------------------------------------------------------------- interpreters

_NO_ROW = contextlib.nullcontext()


def _arrays(args, kwargs):
    """args and kwargs with each Var, alone or in a list, as its array."""
    def one(a):
        if isinstance(a, list):
            return [one(p) for p in a]
        return a.data if isinstance(a, Var) else a
    return [one(a) for a in args], {k: one(v) for k, v in kwargs.items()}


class _Interpreter:
    """Runs each vocabulary op, `ops.<name>(...)`, by the `field` of its
    `OPS` record, each Var argument as its array; `row` scopes are no-ops."""

    field = ""

    def row(self, name, kind=None):
        return _NO_ROW

    def image_blocks(self, fn, x):
        """fn(x), on the whole batch at once."""
        return fn(x)

    def bn_stats(self, x, running_mean, running_var):
        """The (mean, var) `bn_prelu` normalizes x by: the running ones."""
        return running_mean, running_var

    def __getattr__(self, name):
        if name not in OPS:
            raise AttributeError(name)
        return functools.partial(self.apply, name, OPS[name])

    def apply(self, name, op, *args, **kwargs):
        args, kwargs = _arrays(args, kwargs)
        return getattr(op, self.field)(self, *args, **kwargs)


class AutogradOps(_Interpreter):
    """Training: each op's `array` forward, with no `out`, recorded with a
    call of `autograd.<name>_vjp` for `backward` to make. No operand is
    written but the running statistics, by `bn_stats`. Raw arrays pass as
    constants."""

    def bn_stats(self, x, running_mean, running_var):
        x = x.data if isinstance(x, Var) else x
        return ag.batch_statistics(x, running_mean, running_var)

    def apply(self, name, op, *args, **kwargs):
        arrays, kw = _arrays(args, kwargs)
        out = op.array(self, *arrays, **kw)
        vjp = getattr(ag, name + "_vjp")
        return ag._record(out, [*args, *kwargs.values()],
                          lambda dy, need: vjp(dy, need, out, *arrays, **kw))


class ArrayOps(_Interpreter):
    """The fast kernels on plain arrays, with nothing recorded: inference.
    A consuming op writes its result into its first operand's buffer."""

    field = "array"

    def apply(self, name, op, *args, **kwargs):
        if op.consumes:
            kwargs["out"] = args[0]
        return super().apply(name, op, *args, **kwargs)

    def image_blocks(self, fn, x):
        """fn run over `tensorops._image_blocks`' blocks of x, each block's
        result copied into its slice of the batch result: fn's intermediates
        are never allocated for the whole batch."""
        def block(xb, out=None):
            y = fn(xb)
            return y if out is None else T._store(out(y.shape, y.dtype), y)
        return T._image_blocks(block, x)


class OracleOps(_Interpreter):
    """The naive `oracle` loops on plain arrays; every MAC is tallied on
    `counter`, DimFuse's gate product one per element."""

    field = "oracle"

    def __init__(self, counter: orc.OracleCounter):
        self.counter = counter


class _Value:
    """A CostOps value: a shape, and the buffer it lives in, which its views
    share: a one-item list naming the op that consumed it, or None for the
    network input. Every op reads its operands' shapes, so reading one whose
    buffer was consumed raises."""

    __slots__ = ("_shape", "buffer")

    def __init__(self, shape, buffer):
        self._shape, self.buffer = tuple(shape), buffer

    @property
    def shape(self):
        if self.buffer and self.buffer[0]:
            raise KernelError(f"a value was read after {self.buffer[0]} consumed it")
        return self._shape


class CostOps(_Interpreter):
    """Shapes only: the network input is anything with a `.shape`. Each op
    adds its MACs and parameters to the row it runs in, and its output shape
    less the batch becomes the row's. `bilinear` is the identity, so a
    network run at another size is priced as one built for it: DimConv's
    parameters come from the shape, n^2 (C + H + W). The buffers its values
    carry enforce `consumes`."""

    def __init__(self):
        self.rows = []            # [name, kind, macs, params, out_shape]
        self._names = []
        self._row = None

    @contextlib.contextmanager
    def row(self, name, kind=None):
        outer = self._row
        self._names.append(name)
        if kind is not None:
            self._row = [".".join(self._names), kind, 0, 0, ()]
            self.rows.append(self._row)
        try:
            yield
        finally:
            self._names.pop()
            self._row = outer

    def apply(self, name, op, *args, **kwargs):
        args, kwargs = _arrays(args, kwargs)
        shape, macs, params, *view = op.cost(*args, **kwargs)
        if self._row is not None:
            self._row[2] += macs
            self._row[3] += params
            self._row[4] = tuple(shape[1:])
        elif macs or params:
            raise KernelError("an op with a cost ran outside every analyze() row")
        # a value made outside CostOps is the network input
        out = _Value(shape, getattr(args[0], "buffer", None) if view else [None])
        if op.consumes:
            where = f"{name} in {'.'.join(self._names) or 'the network'}"
            buffer = getattr(args[0], "buffer", None)
            if buffer is None:
                raise KernelError(f"{where} would consume the network input")
            buffer[0] = where
        return out


@dataclass
class Network:
    cfg: NetConfig
    layers: list
    head: Head

    def run(self, x, ops):
        """The forward pass, interpreted by `ops`; block i's rows are stage.<i>.*"""
        stem, pool, *blocks = self.layers
        x = ops.image_blocks(lambda xb: pool.forward(stem.forward(xb, ops), ops), x)
        for i, block in enumerate(blocks):
            with ops.row(f"stage.{i}"):
                x = block.forward(x, ops)
        return self.head.forward(x, ops)

    def forward(self, x) -> Var:
        """The training forward, recorded on the tape."""
        return self.run(ag.as_var(x), AutogradOps())

    def oracle_forward(self, x, counter=None):
        counter = counter or orc.OracleCounter()
        return self.run(x, OracleOps(counter)), counter

    def _members(self):
        for idx, layer in enumerate(self.layers):
            yield from _members(layer, f"layer{idx}")
        yield from _members(self.head, "head")

    def parameters(self) -> list:
        return [(name, v) for name, v in self._members() if isinstance(v, Var)]

    def bn_states(self):
        """Each `_BNAct`, whose running_mean and running_var a checkpoint stores."""
        return [v for _, v in self._members() if isinstance(v, _BNAct)]

    def named_state(self) -> list:
        """Parameters, then each batch norm's running statistics as
        bn<i>.running_mean / bn<i>.running_var: what a checkpoint stores."""
        named = [(name, p.data) for name, p in self.parameters()]
        for idx, bn in enumerate(self.bn_states()):
            named.append((f"bn{idx}.running_mean", bn.running_mean))
            named.append((f"bn{idx}.running_var", bn.running_var))
        return named

    def load_state(self, stored: dict) -> None:
        """Copy a checkpoint in. Raises ContainerError, before changing
        anything, unless its names and shapes match named_state() exactly
        and every value is finite."""
        named = dict(self.named_state())
        if stored.keys() != named.keys():
            raise ContainerError(
                f"checkpoint does not match the network: missing "
                f"{sorted(named.keys() - stored.keys())}, unexpected "
                f"{sorted(stored.keys() - named.keys())}")
        bad = [f"{k} {stored[k].shape} != {a.shape}" for k, a in named.items()
               if stored[k].shape != a.shape]
        if bad:
            raise ContainerError(f"checkpoint tensor shapes do not match: {bad}")
        bad = [k for k in named if not np.all(np.isfinite(stored[k]))]
        if bad:
            raise ContainerError(f"checkpoint tensors hold non-finite values: {bad}")
        for name, arr in named.items():
            arr[...] = stored[name]


def build_network(cfg: NetConfig, seed: int = 0, dtype=np.float64) -> Network:
    """Deterministically construct the layer graph described by cfg."""
    cfg = cfg.resolved()
    rng = np.random.default_rng(seed)
    n = cfg.kernel_size
    stem = default_stem_channels(cfg.width_scale)
    layers: list = [StemConv(3, stem, rng, dtype), MaxPool()]
    h = w = cfg.input_size
    h, w = ceil_div(h, 2), ceil_div(w, 2)       # conv1
    h, w = ceil_div(h, 2), ceil_div(w, 2)       # max pool
    block_cls = _BLOCK_TYPES[cfg.block_style]
    cin = stem
    for cout, repeats in zip(cfg.stage_channels, cfg.stage_repeats):
        layers.append(block_cls(cin, cout, h, w, n, cfg.conv, cfg.fusion,
                                True, rng, dtype))
        h, w = ceil_div(h, 2), ceil_div(w, 2)
        for _ in range(repeats):
            layers.append(block_cls(cout, cout, h, w, n, cfg.conv, cfg.fusion,
                                    False, rng, dtype))
        cin = cout
    head = Head(cin, cfg.resolved_pool_width(), cfg.fc_groups, cfg.classes,
                rng, dtype)
    return Network(cfg=cfg, layers=layers, head=head)


@dataclass
class FlopReport:
    rows: list                 # (name, kind, macs, params, out_shape)
    total_macs: int
    total_params: int
    shares: dict               # pointwise / efficient / conv / fc fractions
    notes: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["layer,kind,macs,params,out_shape"]
        for name, kind, macs, params, shape in self.rows:
            lines.append(f"{name},{kind},{macs},{params},{'x'.join(str(s) for s in shape)}")
        lines.append(f"total,,{self.total_macs},{self.total_params},")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = ("layer", "kind", "macs", "params", "out_shape")
        body = [(name, kind, f"{macs:,}", f"{params:,}",
                 "x".join(str(s) for s in shape))
                for name, kind, macs, params, shape in self.rows]
        body.append(("total", "", f"{self.total_macs:,}", f"{self.total_params:,}", ""))
        widths = [max(len(r[i]) for r in [header] + body) for i in range(5)]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in body]
        out.append("")
        out.append("shares: " + "  ".join(f"{k}={v:.4f}" for k, v in self.shares.items()))
        for key, val in self.notes.items():
            out.append(f"note: {key} = {val}")
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "rows": [{"layer": n, "kind": k, "macs": m, "params": p,
                      "out_shape": list(s)} for n, k, m, p, s in self.rows],
            "total_macs": self.total_macs,
            "total_params": self.total_params,
            "shares": self.shares,
            "notes": self.notes,
        }, indent=1)


_SHARE_BUCKET = {"pointwise": "pointwise", "conv": "conv", "fc": "fc",
                 "dimconv": "efficient", "dimfuse": "efficient",
                 "depthwise": "efficient", "pool": "efficient"}


def analyze(net: Network, input_size: int | None = None) -> FlopReport:
    """Cost report of one image for a network built for `input_size`
    (None: the config's), from `CostOps`. Sizes below 32 raise KernelError,
    as they do in `infer`.

    Pure in the graph structure: parameter values never enter the counts.
    """
    size = net.cfg.input_size if input_size is None else input_size
    if size < 32:
        raise KernelError(f"analyze input must be at least 32 pixels on a side, got {size}")
    cost = CostOps()
    net.run(SimpleNamespace(shape=(1, 3, size, size)), cost)
    rows = [tuple(r) for r in cost.rows]
    total_macs = sum(r[2] for r in rows)
    total_params = sum(r[3] for r in rows)
    buckets = {"pointwise": 0, "efficient": 0, "conv": 0, "fc": 0}
    for _, kind, macs, _, _ in rows:
        buckets[_SHARE_BUCKET[kind]] += macs
    shares = {k: (v / total_macs if total_macs else 0.0) for k, v in buckets.items()}
    notes = {}
    if net.cfg.conv == "dimconv" and net.cfg.fusion == "dimfuse":
        # the first block's output sets stage 1's grid
        stage1_hw = [r[4][-2:] for r in rows if r[0].startswith("stage.0.")][-1]
        c0 = net.cfg.resolved_channels()[0]
        cost = dimops.dimfuse_cost(c0, *stage1_hw, net.cfg.kernel_size)
        notes["dimfuse_closed_form_stage1"] = cost["closed_form"]
        notes["dimfuse_component_sum_stage1"] = cost["component_sum"]
        notes["dimfuse_reduction_factor_stage1"] = cost["reduction_factor"]
    notes["mac_convention"] = "counts multiply-accumulates, not multiply+add pairs"
    return FlopReport(rows=rows, total_macs=total_macs, total_params=total_params,
                      shares=shares, notes=notes)


def infer(net: Network, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass to class scores. Raises KernelError on
    input or scores that are not finite."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise KernelError(f"expected (N,3,H,W) input, got {getattr(x, 'shape', None)}")
    if min(x.shape[2], x.shape[3]) < 32:
        raise KernelError("inference input must be at least 32 pixels on a side")
    if not np.isfinite(x).all():
        raise KernelError("inference input contains NaN or infinite values")
    scores = net.run(x, ArrayOps())
    if not np.isfinite(scores).all():
        raise KernelError("inference scores contain NaN or infinite values")
    return scores
