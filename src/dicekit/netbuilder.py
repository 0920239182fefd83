"""Elaborate a NetConfig into an executable, differentiable layer graph and
compute multiply-accumulate / parameter reports for it.

The cost report uses the same conventions as the naive oracle counter: a
convolution is charged one MAC per tap per output element (padded taps
included), pooling is charged its window accumulations, normalization and
activations are free. On a small graph the report total equals the oracle
tally exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import dice
from . import oracle as orc
from .autograd import Var, param
from .netconfig import ConfigError, NetConfig, default_stem_channels
from .serialize import ContainerError
from .tensorops import BatchNormParams, KernelError, ceil_div

__all__ = ["Network", "FlopReport", "build_network", "analyze", "infer"]


def _he(rng, fan_in, shape, dtype):
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(dtype)


class _BNAct:
    """BatchNorm + PReLU pair appended after a convolution."""

    def __init__(self, c, dtype):
        self.gamma = param(np.ones(c, dtype=dtype))
        self.beta = param(np.zeros(c, dtype=dtype))
        # the state aliases the trainable buffers so both forward paths agree
        self.state = BatchNormParams(
            gamma=self.gamma.data, beta=self.beta.data,
            running_mean=np.zeros(c, dtype=dtype),
            running_var=np.ones(c, dtype=dtype))
        self.slope = param(np.full(c, 0.25, dtype=dtype))

    def forward(self, v: Var, train: bool) -> Var:
        return ag.bn_prelu(v, self.gamma, self.beta, self.slope, self.state, train)

    def forward_np(self, x):
        from .tensorops import batch_norm, prelu
        return prelu(batch_norm(x, self.state, "infer"), self.slope.data)

    def params(self, prefix):
        return [(prefix + ".gamma", self.gamma), (prefix + ".beta", self.beta),
                (prefix + ".slope", self.slope)]

    @property
    def n_params(self):
        return 3 * self.gamma.data.shape[0]


class StemConv:
    """3x3 stride-2 dense convolution, the network entry."""

    def __init__(self, cin, cout, rng, dtype):
        self.cin, self.cout = cin, cout
        self.w = param(_he(rng, cin * 9, (cout, cin, 3, 3), dtype))
        self.post = _BNAct(cout, dtype)

    def forward(self, v, train):
        return self.post.forward(ag.spatial_conv(v, self.w, stride=2), train)

    def oracle_forward(self, x, counter):
        y, _ = orc.oracle_conv2d(x, self.w.data, 2, counter)
        return self.post.forward_np(y)

    def params(self, prefix):
        return [(prefix + ".w", self.w)] + self.post.params(prefix + ".post")

    def report(self, c, h, w):
        ho, wo = ceil_div(h, 2), ceil_div(w, 2)
        rows = [("conv1", "conv", 9 * self.cin * self.cout * ho * wo,
                 9 * self.cin * self.cout + self.post.n_params,
                 (self.cout, ho, wo))]
        return rows, (self.cout, ho, wo)


class MaxPool:
    def forward(self, v, train):
        return ag.max_pool(v, 3, 2)

    def oracle_forward(self, x, counter):
        from .tensorops import pool
        return pool(x, "max", 3, 2)

    def params(self, prefix):
        return []

    def report(self, c, h, w):
        ho, wo = ceil_div(h, 2), ceil_div(w, 2)
        return [("maxpool", "pool", 0, 0, (c, ho, wo))], (c, ho, wo)


class DiceUnit:
    """Dimension-wise conv + fusion (or the ablation variants) as one unit.

    Always maps C channels to C channels; strided units average-pool the
    input by two first. The width/height banks are dimensioned for the
    nominal grid recorded at construction; other sizes are bilinearly
    rescaled through the conv and counted by the dice instrumentation.
    """

    def __init__(self, c, nominal_h, nominal_w, n, conv_kind, fusion_kind,
                 strided, rng, dtype):
        self.c, self.n, self.strided = c, n, strided
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
        self.mid = mid
        self.post1 = _BNAct(mid, dtype)
        self.r = max(c // 4, 1)
        if fusion_kind == "dimfuse":
            self.k_g = param(_he(rng, 3, (c, 3), dtype)) if conv_kind == "dimconv" else None
            self.k_s = param(_he(rng, n * n, (c, n, n), dtype))
            self.fc1 = param(_he(rng, c, (self.r, c), dtype))
            self.fc2 = param(_he(rng, self.r, (c, self.r), dtype))
            self.w_fuse = None
        else:
            self.k_g = self.k_s = self.fc1 = self.fc2 = None
            self.w_fuse = param(_he(rng, mid, (c, mid), dtype))
        self.post2 = _BNAct(c, dtype)

    # ----- forward ---------------------------------------------------------

    def forward(self, v: Var, train: bool) -> Var:
        if self.strided:
            v = ag.avg_pool(v, 3, 2)
        h, w = v.data.shape[2], v.data.shape[3]
        if self.conv_kind == "dimconv":
            if (h, w) != (self.nominal_h, self.nominal_w):
                dice.note_resize()
                v = ag.bilinear(v, self.nominal_h, self.nominal_w)
                v = ag.dimconv(v, self.k_d, self.k_w, self.k_h)
                dice.note_resize()
                v = ag.bilinear(v, h, w)
            else:
                v = ag.dimconv(v, self.k_d, self.k_w, self.k_h)
        else:
            v = ag.depthwise(v, self.k_d)
        v = self.post1.forward(v, train)
        if self.fusion_kind == "dimfuse":
            y_g = ag.pointwise(v, self.k_g, groups=self.c) if self.k_g is not None else v
            y_s = ag.depthwise(y_g, self.k_s)
            z = ag.reshape(ag.global_avg(y_g), (y_g.data.shape[0], self.c))
            g = ag.sigmoid(ag.linear(ag.relu(ag.linear(z, self.fc1)), self.fc2))
            v = ag.mul(y_s, ag.reshape(g, (y_g.data.shape[0], self.c, 1, 1)))
        else:
            v = ag.pointwise(v, self.w_fuse)
        return self.post2.forward(v, train)

    # ----- oracle path -----------------------------------------------------

    def oracle_forward(self, x, counter):
        from .dimops import DimConvParams
        from .tensorops import ConvKernelBank, pool, relu, sigmoid
        if self.strided:
            y, _ = orc.oracle_avg_pool(x, 3, 2, counter)
            x = y
        if self.conv_kind == "dimconv":
            p = DimConvParams(ConvKernelBank(self.k_d.data),
                              ConvKernelBank(self.k_w.data),
                              ConvKernelBank(self.k_h.data))
            x, _ = orc.oracle_dimconv(x, p, counter)
        else:
            x, _ = orc.oracle_depthwise(x, ConvKernelBank(self.k_d.data), 1, counter)
        x = self.post1.forward_np(x)
        if self.fusion_kind == "dimfuse":
            if self.k_g is not None:
                y_g, _ = orc.oracle_pointwise(x, self.k_g.data, self.c, 1, counter)
            else:
                y_g = x
            y_s, _ = orc.oracle_depthwise(y_g, ConvKernelBank(self.k_s.data), 1, counter)
            z, _ = orc.oracle_global_avg(y_g, counter)
            a, _ = orc.oracle_linear(z[:, :, 0, 0], self.fc1.data, 1, None, counter)
            a = relu(a)
            g, _ = orc.oracle_linear(a, self.fc2.data, 1, None, counter)
            g = sigmoid(g)
            out = np.empty_like(y_s)
            nb, c, h, w = y_s.shape
            for b in range(nb):
                for ci in range(c):
                    for oh in range(h):
                        for ow in range(w):
                            out[b, ci, oh, ow] = y_s[b, ci, oh, ow] * g[b, ci]
                            counter.tally()
            x = out
        else:
            x, _ = orc.oracle_pointwise(x, self.w_fuse.data, 1, 1, counter)
        return self.post2.forward_np(x)

    # ----- bookkeeping -----------------------------------------------------

    def params(self, prefix):
        out = [(prefix + ".k_d", self.k_d)]
        for name in ("k_w", "k_h", "k_g", "k_s", "fc1", "fc2", "w_fuse"):
            v = getattr(self, name)
            if v is not None:
                out.append((f"{prefix}.{name}", v))
        return out + self.post1.params(prefix + ".post1") + self.post2.params(prefix + ".post2")

    def report(self, prefix, h, w):
        """Rows for this unit with the given size treated as nominal."""
        rows = []
        c, n = self.c, self.n
        if self.strided:
            h, w = ceil_div(h, 2), ceil_div(w, 2)
            rows.append((prefix + ".downpool", "pool", 9 * h * w * c, 0, (c, h, w)))
        if self.conv_kind == "dimconv":
            macs = 3 * n * n * h * w * c
            params = n * n * (c + h + w) + self.post1.n_params
            rows.append((prefix + ".dimconv", "dimconv", macs, params, (3 * c, h, w)))
        else:
            rows.append((prefix + ".depthwise", "depthwise", n * n * h * w * c,
                         n * n * c + self.post1.n_params, (c, h, w)))
        if self.fusion_kind == "dimfuse":
            local = 3 * h * w * c if self.k_g is not None else 0
            macs = local + n * n * h * w * c + c * self.r + self.r * c + 2 * h * w * c
            params = (3 * c if self.k_g is not None else 0) + n * n * c \
                + 2 * self.r * c + self.post2.n_params
            rows.append((prefix + ".dimfuse", "dimfuse", macs, params, (c, h, w)))
        else:
            rows.append((prefix + ".fuse", "pointwise", self.mid * c * h * w,
                         self.mid * c + self.post2.n_params, (c, h, w)))
        return rows, (c, h, w)


class ShuffleBlock:
    """Channel-split block: identity left half, unit on the right half;
    strided variant runs the unit and a downsampling branch in parallel."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.cin, self.cout, self.strided, self.n = cin, cout, strided, n
        if strided:
            if cout <= cin:
                raise ConfigError("strided block needs out channels > in channels")
            self.unit = DiceUnit(cin, nominal_h, nominal_w, n, conv_kind,
                                 fusion_kind, True, rng, dtype)
            self.branch_dw = param(_he(rng, n * n, (cin, n, n), dtype))
            self.branch_pw = param(_he(rng, cin, (cout - cin, cin), dtype))
            self.branch_post = _BNAct(cout - cin, dtype)
            self.proj = None
        else:
            if cin != cout or cin % 2:
                raise ConfigError("non-strided block needs equal, even channel counts")
            half = cin // 2
            self.proj = param(_he(rng, half, (half, half), dtype))
            self.proj_post = _BNAct(half, dtype)
            self.unit = DiceUnit(half, nominal_h, nominal_w, n, conv_kind,
                                 fusion_kind, False, rng, dtype)

    def forward(self, v, train):
        if self.strided:
            a = self.unit.forward(v, train)
            b = ag.depthwise(v, self.branch_dw, stride=2)
            b = self.branch_post.forward(ag.pointwise(b, self.branch_pw), train)
            return ag.channel_shuffle(ag.concat_channels([a, b]), 2)
        half = self.cin // 2
        left = ag.narrow_channels(v, 0, half)
        right = ag.narrow_channels(v, half, half)
        right = self.proj_post.forward(ag.pointwise(right, self.proj), train)
        right = self.unit.forward(right, train)
        return ag.channel_shuffle(ag.concat_channels([left, right]), 2)

    def oracle_forward(self, x, counter):
        from .tensorops import ConvKernelBank
        if self.strided:
            a = self.unit.oracle_forward(x, counter)
            b, _ = orc.oracle_depthwise(x, ConvKernelBank(self.branch_dw.data), 2, counter)
            b, _ = orc.oracle_pointwise(b, self.branch_pw.data, 1, 1, counter)
            b = self.branch_post.forward_np(b)
            return dice.channel_shuffle(np.concatenate([a, b], axis=1), 2)
        half = self.cin // 2
        left, right = x[:, :half], x[:, half:]
        right, _ = orc.oracle_pointwise(right, self.proj.data, 1, 1, counter)
        right = self.proj_post.forward_np(right)
        right = self.unit.oracle_forward(right, counter)
        return dice.channel_shuffle(np.concatenate([left, right], axis=1), 2)

    def params(self, prefix):
        out = []
        if self.strided:
            out += [(prefix + ".branch_dw", self.branch_dw),
                    (prefix + ".branch_pw", self.branch_pw)]
            out += self.branch_post.params(prefix + ".branch_post")
        else:
            out += [(prefix + ".proj", self.proj)]
            out += self.proj_post.params(prefix + ".proj_post")
        return out + self.unit.params(prefix + ".unit")

    def report(self, prefix, c, h, w):
        rows = []
        if self.strided:
            urows, _ = self.unit.report(prefix + ".unit", h, w)
            rows += urows
            ho, wo = ceil_div(h, 2), ceil_div(w, 2)
            n = self.n
            extra = self.cout - self.cin
            rows.append((prefix + ".branch_dw", "depthwise", n * n * ho * wo * c,
                         n * n * c, (c, ho, wo)))
            rows.append((prefix + ".branch_pw", "pointwise", c * extra * ho * wo,
                         c * extra + self.branch_post.n_params, (extra, ho, wo)))
            return rows, (self.cout, ho, wo)
        half = c // 2
        rows.append((prefix + ".proj", "pointwise", half * half * h * w,
                     half * half + self.proj_post.n_params, (half, h, w)))
        urows, _ = self.unit.report(prefix + ".unit", h, w)
        return rows + urows, (c, h, w)


class MobileBlock:
    """Pointwise channel adapter followed by the unit."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.cin, self.cout = cin, cout
        self.proj = None
        if cin != cout:
            self.proj = param(_he(rng, cin, (cout, cin), dtype))
            self.proj_post = _BNAct(cout, dtype)
        self.unit = DiceUnit(cout, nominal_h, nominal_w, n, conv_kind,
                             fusion_kind, strided, rng, dtype)

    def forward(self, v, train):
        if self.proj is not None:
            v = self.proj_post.forward(ag.pointwise(v, self.proj), train)
        return self.unit.forward(v, train)

    def oracle_forward(self, x, counter):
        if self.proj is not None:
            x, _ = orc.oracle_pointwise(x, self.proj.data, 1, 1, counter)
            x = self.proj_post.forward_np(x)
        return self.unit.oracle_forward(x, counter)

    def params(self, prefix):
        out = []
        if self.proj is not None:
            out += [(prefix + ".proj", self.proj)] + self.proj_post.params(prefix + ".proj_post")
        return out + self.unit.params(prefix + ".unit")

    def report(self, prefix, c, h, w):
        rows = []
        if self.proj is not None:
            rows.append((prefix + ".proj", "pointwise", c * self.cout * h * w,
                         c * self.cout + self.proj_post.n_params, (self.cout, h, w)))
        urows, (co, ho, wo) = self.unit.report(prefix + ".unit", h, w)
        return rows + urows, (co, ho, wo)


class ResBlock:
    """Bottleneck: reduce, unit, expand, residual add."""

    def __init__(self, cin, cout, nominal_h, nominal_w, n, conv_kind,
                 fusion_kind, strided, rng, dtype):
        self.cin, self.cout, self.strided = cin, cout, strided
        self.mid = max(cout // 4, 1)
        self.reduce = param(_he(rng, cin, (self.mid, cin), dtype))
        self.reduce_post = _BNAct(self.mid, dtype)
        self.unit = DiceUnit(self.mid, nominal_h, nominal_w, n, conv_kind,
                             fusion_kind, strided, rng, dtype)
        self.expand = param(_he(rng, self.mid, (cout, self.mid), dtype))
        self.expand_post = _BNAct(cout, dtype)
        self.shortcut = None
        if cin != cout or strided:
            self.shortcut = param(_he(rng, cin, (cout, cin), dtype))

    def forward(self, v, train):
        y = self.reduce_post.forward(ag.pointwise(v, self.reduce), train)
        y = self.unit.forward(y, train)
        y = self.expand_post.forward(ag.pointwise(y, self.expand), train)
        sc = v
        if self.shortcut is not None:
            sc = ag.pointwise(v, self.shortcut, stride=2 if self.strided else 1)
        return ag.add(y, sc)

    def oracle_forward(self, x, counter):
        y, _ = orc.oracle_pointwise(x, self.reduce.data, 1, 1, counter)
        y = self.reduce_post.forward_np(y)
        y = self.unit.oracle_forward(y, counter)
        y, _ = orc.oracle_pointwise(y, self.expand.data, 1, 1, counter)
        y = self.expand_post.forward_np(y)
        sc = x
        if self.shortcut is not None:
            sc, _ = orc.oracle_pointwise(x, self.shortcut.data, 1,
                                         2 if self.strided else 1, counter)
        return y + sc

    def params(self, prefix):
        out = [(prefix + ".reduce", self.reduce)]
        out += self.reduce_post.params(prefix + ".reduce_post")
        out += self.unit.params(prefix + ".unit")
        out += [(prefix + ".expand", self.expand)]
        out += self.expand_post.params(prefix + ".expand_post")
        if self.shortcut is not None:
            out.append((prefix + ".shortcut", self.shortcut))
        return out

    def report(self, prefix, c, h, w):
        rows = [(prefix + ".reduce", "pointwise", c * self.mid * h * w,
                 c * self.mid + self.reduce_post.n_params, (self.mid, h, w))]
        urows, (_, ho, wo) = self.unit.report(prefix + ".unit", h, w)
        rows += urows
        rows.append((prefix + ".expand", "pointwise", self.mid * self.cout * ho * wo,
                     self.mid * self.cout + self.expand_post.n_params,
                     (self.cout, ho, wo)))
        if self.shortcut is not None:
            rows.append((prefix + ".shortcut", "pointwise", c * self.cout * ho * wo,
                         c * self.cout, (self.cout, ho, wo)))
        return rows, (self.cout, ho, wo)


class Head:
    """Global pool, pointwise expansion to the pool width, grouped FC,
    classifier FC."""

    def __init__(self, cin, pool_width, groups, classes, rng, dtype):
        self.cin, self.pool_width = cin, pool_width
        self.groups, self.classes = groups, classes
        self.expand = param(_he(rng, cin, (pool_width, cin), dtype))
        self.gfc = param(_he(rng, pool_width // groups,
                             (pool_width, pool_width // groups), dtype))
        self.fc = param(_he(rng, pool_width, (classes, pool_width), dtype))
        self.fc_bias = param(np.zeros(classes, dtype=dtype))

    def forward(self, v, train):
        z = ag.reshape(ag.global_avg(v), (v.data.shape[0], self.cin))
        z = ag.relu(ag.linear(z, self.expand))
        z = ag.relu(ag.linear(z, self.gfc, groups=self.groups))
        return ag.linear(z, self.fc, bias=self.fc_bias)

    def oracle_forward(self, x, counter):
        from .tensorops import relu
        z, _ = orc.oracle_global_avg(x, counter)
        z = z[:, :, 0, 0]
        z, _ = orc.oracle_linear(z, self.expand.data, 1, None, counter)
        z = relu(z)
        z, _ = orc.oracle_linear(z, self.gfc.data, self.groups, None, counter)
        z = relu(z)
        z, _ = orc.oracle_linear(z, self.fc.data, 1, self.fc_bias.data, counter)
        return z

    def params(self, prefix):
        return [(prefix + ".expand", self.expand), (prefix + ".gfc", self.gfc),
                (prefix + ".fc", self.fc), (prefix + ".fc_bias", self.fc_bias)]

    def report(self, c, h, w):
        pw, g = self.pool_width, self.groups
        rows = [
            ("global_pool", "pool", h * w * c, 0, (c, 1, 1)),
            ("expand", "pointwise", c * pw, c * pw, (pw,)),
            ("grouped_fc", "fc", pw * (pw // g), pw * (pw // g), (pw,)),
            ("fc", "fc", pw * self.classes, pw * self.classes + self.classes,
             (self.classes,)),
        ]
        return rows, (self.classes,)


_BLOCK_TYPES = {"shufflenetv2": ShuffleBlock, "mobilenet": MobileBlock,
                "resnet": ResBlock}


@dataclass
class Network:
    cfg: NetConfig
    layers: list
    head: Head
    seed: int

    def forward(self, x, train: bool = False) -> Var:
        v = x if isinstance(x, Var) else Var(np.asarray(x))
        for layer in self.layers:
            v = layer.forward(v, train)
        return self.head.forward(v, train)

    def oracle_forward(self, x, counter=None):
        counter = counter or orc.OracleCounter()
        for layer in self.layers:
            x = layer.oracle_forward(x, counter)
        return self.head.oracle_forward(x, counter), counter

    def parameters(self) -> list:
        out = []
        for idx, layer in enumerate(self.layers):
            out += layer.params(f"layer{idx}")
        return out + self.head.params("head")

    def bn_states(self):
        states = []

        def collect(obj):
            for attr in vars(obj).values():
                if isinstance(attr, _BNAct):
                    states.append(attr.state)
                elif isinstance(attr, DiceUnit):
                    collect(attr)
        for layer in self.layers:
            collect(layer)
        return states

    def named_state(self) -> list:
        """Parameters, then each batch norm's running statistics as
        bn<i>.running_mean / bn<i>.running_var: what a checkpoint stores."""
        named = [(name, p.data) for name, p in self.parameters()]
        for idx, state in enumerate(self.bn_states()):
            named.append((f"bn{idx}.running_mean", state.running_mean))
            named.append((f"bn{idx}.running_var", state.running_var))
        return named

    def load_state(self, stored: dict) -> None:
        """Copy a checkpoint in. Raises ContainerError, before changing
        anything, unless its names and shapes match named_state() exactly."""
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
    return Network(cfg=cfg, layers=layers, head=head, seed=seed)


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
    """Cost report treating `input_size` as the nominal spatial size.

    Pure in the graph structure: parameter values never enter the counts.
    """
    from .dimops import dimfuse_cost
    size = input_size or net.cfg.input_size
    c, h, w = 3, size, size
    rows = []
    for idx, layer in enumerate(net.layers):
        if isinstance(layer, (StemConv, MaxPool)):
            lrows, (c, h, w) = layer.report(c, h, w)
        else:
            lrows, (c, h, w) = layer.report(f"stage.{idx - 2}", c, h, w)
        if idx == 2:
            stage1_hw = h, w      # the first block sets stage 1's grid
        rows += lrows
    hrows, _ = net.head.report(c, h, w)
    rows += hrows
    total_macs = sum(r[2] for r in rows)
    total_params = sum(r[3] for r in rows)
    buckets = {"pointwise": 0, "efficient": 0, "conv": 0, "fc": 0}
    for _, kind, macs, _, _ in rows:
        buckets[_SHARE_BUCKET[kind]] += macs
    shares = {k: (v / total_macs if total_macs else 0.0) for k, v in buckets.items()}
    notes = {}
    if net.cfg.conv == "dimconv" and net.cfg.fusion == "dimfuse":
        c0 = net.cfg.resolved_channels()[0]
        cost = dimfuse_cost(c0, *stage1_hw, net.cfg.kernel_size)
        notes["dimfuse_closed_form_stage1"] = cost["closed_form"]
        notes["dimfuse_component_sum_stage1"] = cost["component_sum"]
        notes["dimfuse_reduction_factor_stage1"] = cost["reduction_factor"]
    notes["mac_convention"] = "counts multiply-accumulates, not multiply+add pairs"
    return FlopReport(rows=rows, total_macs=total_macs, total_params=total_params,
                      shares=shares, notes=notes)


def infer(net: Network, x: np.ndarray) -> np.ndarray:
    """Deterministic forward pass to class scores."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise KernelError(f"expected (N,3,H,W) input, got {getattr(x, 'shape', None)}")
    if min(x.shape[2], x.shape[3]) < 32:
        raise KernelError("inference input must be at least 32 pixels on a side")
    if not np.isfinite(x).all():
        raise KernelError("inference input contains NaN or infinite values")
    with ag.no_grad():
        return net.forward(x, train=False).data
