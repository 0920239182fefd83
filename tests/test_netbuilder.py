"""Layer-graph construction, cost reports, and inference properties."""

import hashlib
import json
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dicekit import autograd as ag
from dicekit import dice, train
from dicekit import oracle as orc
from dicekit import tensorops as T
from dicekit.cli import main
from dicekit.dimops import dimfuse_cost
from dicekit.netbuilder import (OPS, ArrayOps, AutogradOps, CostOps, Op, _BNAct, analyze,
                                build_network, infer)
from dicekit.netconfig import default_stem_channels, parse_config
from dicekit.serialize import ContainerError, load_checkpoint, save_checkpoint
from dicekit.tensorops import KernelError

from conftest import MICRO_CFG

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# `dicekit --format csv analyze configs/<name>.cfg [--input-size 288]`, kept
# apart from the code: an op dropped from a layer's forward would vanish from
# analyze() and from the oracle tally alike, but not from these files
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def micro_net():
    return build_network(parse_config(MICRO_CFG), seed=1)


def test_stage_output_shapes_s1():
    cfg = parse_config("name: s1\nwidth_scale: 1.0\n")
    net = build_network(cfg, seed=0)
    rep = analyze(net)
    shapes = {name: shape for name, _, _, _, shape in rep.rows}
    # strided blocks end at 28/14/7 for a 224 input
    assert shapes["stage.0.branch_pw"][1:] == (28, 28)
    assert shapes["stage.4.branch_pw"][1:] == (14, 14)
    assert shapes["stage.12.branch_pw"][1:] == (7, 7)


def test_stage1_notes_use_stage1_grid():
    net = build_network(parse_config("name: s1\nwidth_scale: 1.0\n"), seed=0)
    for size in (None, 288):
        rep = analyze(net, size)
        shapes = {name: shape for name, _, _, _, shape in rep.rows}
        h, w = shapes["stage.0.branch_pw"][1:]
        cost = dimfuse_cost(116, h, w, 3)
        assert rep.notes["dimfuse_closed_form_stage1"] == cost["closed_form"]
        assert rep.notes["dimfuse_component_sum_stage1"] == cost["component_sum"]
        assert rep.notes["dimfuse_reduction_factor_stage1"] == cost["reduction_factor"]
    assert analyze(net).notes["dimfuse_closed_form_stage1"] == 28 * 28 * 116 * 128


def test_stage_channels_s1():
    cfg = parse_config("name: s1\nwidth_scale: 1.0\n")
    assert cfg.stage_channels == (116, 232, 464)


def test_same_seed_identical_parameters():
    cfg = parse_config(MICRO_CFG)
    a = build_network(cfg, seed=7)
    b = build_network(cfg, seed=7)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    c = build_network(cfg, seed=8)
    assert any(not np.array_equal(p.data, q.data)
               for (_, p), (_, q) in zip(a.parameters(), c.parameters()))


def test_report_totals_and_shares(micro_net):
    rep = analyze(micro_net)
    assert rep.total_macs == sum(r[2] for r in rep.rows)
    assert rep.total_params == sum(r[3] for r in rep.rows)
    assert abs(sum(rep.shares.values()) - 1.0) < 1e-9


def test_report_matches_oracle_counter_exactly(micro_net, rng):
    x = rng.standard_normal((2, 3, 32, 32))
    _, counter = micro_net.oracle_forward(x)
    rep = analyze(micro_net)
    assert counter.mac_count == 2 * rep.total_macs


def test_fast_forward_matches_oracle_values(micro_net, rng):
    x = rng.standard_normal((1, 3, 32, 32))
    ref, _ = micro_net.oracle_forward(x)
    fast = infer(micro_net, x)
    assert np.abs(fast - ref).max() < 1e-10


def test_oracle_forward_off_nominal_matches_infer(micro_net, rng):
    # the oracle resizes around DimConv at 40 px, as infer does
    x = rng.standard_normal((1, 3, 40, 40))
    ref, _ = micro_net.oracle_forward(x)
    assert np.abs(infer(micro_net, x) - ref).max() < 1e-10


def test_trained_statistics_reach_every_consumer(rng):
    # a fresh network's statistics are 0 and 1, which hide a consumer that
    # reads other arrays than the ones training updated
    net = build_network(parse_config(MICRO_CFG), seed=1)
    images, labels = train.synth_dataset(0, 64)
    train.train_loop(net, images, labels, train.TrainConfig(epochs=1), eval_ema=False)
    bns = net.bn_states()
    assert len(bns) == 13
    for bn in bns:
        assert (bn.running_mean != 0).any() and (bn.running_var != 1).any()
    x = rng.standard_normal((2, 3, 32, 32))
    ref, _ = net.oracle_forward(x)
    assert np.abs(infer(net, x) - ref).max() < 1e-10
    state = dict(net.named_state())
    for idx, bn in enumerate(bns):
        assert np.shares_memory(state[f"bn{idx}.running_mean"], bn.running_mean)
        assert np.shares_memory(state[f"bn{idx}.running_var"], bn.running_var)


# every pointwise layer's weights, by parameter name: the only 2-D parameters
_POINTWISE = (".proj", ".branch_pw", ".w_fuse", ".reduce", ".expand", ".shortcut",
              ".k_g", ".fc1", ".fc2", "head.gfc", "head.fc")


def _assert_fortran(net):
    pointwise = {name: p.data for name, p in net.parameters() if p.data.ndim == 2}
    assert pointwise and all(name.endswith(_POINTWISE) for name in pointwise)
    for name, w in pointwise.items():
        assert w.flags.f_contiguous and not w.flags.c_contiguous, name
    return {suffix for suffix in _POINTWISE for name in pointwise if name.endswith(suffix)}


def test_pointwise_weights_stay_fortran_ordered_through_every_writer(tmp_path):
    # pointwise_conv's outputs-inner einsum needs them Fortran-ordered, in
    # every block style and with the pointwise-fusion ablation: SGD, the EMA
    # swap and load_state all write in place, and checkpoints hold the
    # bytes C-ordered copies would
    texts = [MICRO_CFG] + [_ABLATIONS + f"block_style: {style}\nfusion: pointwise\n"
                           for style in ("shufflenetv2", "mobilenet", "resnet")]
    images, labels = train.synth_dataset(0, 32)
    seen = set()
    for k, text in enumerate(texts):
        cfg = parse_config(text)
        net = build_network(cfg, seed=1)
        seen |= _assert_fortran(net)
        train.train_loop(net, images, labels, train.TrainConfig(epochs=1, batch_size=32))
        _assert_fortran(net)
        state = net.named_state()
        ck, c_order = tmp_path / f"ck{k}", tmp_path / f"c_order{k}"
        save_checkpoint(ck, state)
        save_checkpoint(c_order, [(name, np.ascontiguousarray(a)) for name, a in state])
        files = sorted(f.name for f in ck.iterdir())
        assert files == sorted(f.name for f in c_order.iterdir())
        for f in files:
            assert (ck / f).read_bytes() == (c_order / f).read_bytes(), f
        other = build_network(cfg, seed=2)
        other.load_state(load_checkpoint(ck))
        _assert_fortran(other)
        assert [(name, a.tobytes()) for name, a in other.named_state()] == \
            [(name, a.tobytes()) for name, a in state]
    assert seen == set(_POINTWISE)


class _Spy:
    """`real`, with the attributes named in `over` replaced."""

    def __init__(self, real, **over):
        self.__dict__.update(over)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_short_pixel_rows_run_the_outputs_inner_einsum(monkeypatch):
    # on both micro configs at batch 1 and 2, the pointwise calls with at
    # least twice as many outputs per group as pixels run the outputs-inner
    # einsum where the build's einsum is exact, and no other call does
    calls = []

    def pointwise(x, w, groups, stride, bias, out=None):
        npix = x.shape[0] * T.ceil_div(x.shape[2], stride) * T.ceil_div(x.shape[3], stride)
        calls.append([w.shape[0] // groups >= 2 * npix])
        return real(x, w, groups, stride, bias, out=out)

    def einsum(subscripts, *args, **kwargs):
        calls[-1].append(subscripts)
        return np.einsum(subscripts, *args, **kwargs)

    real = T._pointwise_conv
    monkeypatch.setattr(T, "_pointwise_conv", pointwise)
    monkeypatch.setattr(T, "np", _Spy(np, einsum=einsum))
    for name in ("dicenet-micro", "separable-micro"):
        net = build_network(parse_config((CONFIGS / f"{name}.cfg").read_text()), seed=1)
        for nb in (1, 2):
            infer(net, np.random.default_rng(3).standard_normal((nb, 3, 32, 32)))
    short = [c[1:] for c in calls if c[0]]
    other = [c[1:] for c in calls if not c[0]]
    assert short and other
    assert all(c == (["gip,gio->gpo"] if T.EINSUM_EXACT else []) for c in short)
    assert not any("gip,gio->gpo" in c for c in other)


_ABLATIONS = ("name: x\nwidth_scale: 0.1\ninput_size: 32\nclasses: 10\n"
              "stages {\n repeats: [1]\n channels: [16]\n}\npool_width: 32\n")


def test_op_table_is_complete():
    # every record has a forward, an oracle and a cost, and no record is a
    # whole tape op or names its backward: that is autograd.<name>_vjp, and
    # every vjp there has a record; the table holds exactly the ops the
    # layers call, across the block styles and the conv/fusion ablations
    assert not {"grad", "tape", "vjp"} & set(Op.__dataclass_fields__)
    assert all(callable(f) for op in OPS.values() for f in (op.array, op.oracle, op.cost))
    assert all(callable(getattr(ag, f"{name}_vjp", None)) for name in OPS)
    assert {a[:-len("_vjp")] for a in vars(ag) if a.endswith("_vjp")} == set(OPS)
    called = set()

    class Seen(CostOps):
        def apply(self, name, op, *args, **kwargs):
            called.add(name)
            return super().apply(name, op, *args, **kwargs)

    texts = [(CONFIGS / "dicenet-micro.cfg").read_text()]
    texts += [_ABLATIONS + f"block_style: {style}\nconv: {conv}\nfusion: {fusion}\n"
              for style in ("shufflenetv2", "mobilenet", "resnet")
              for conv in ("dimconv", "depthwise") for fusion in ("dimfuse", "pointwise")]
    for text in texts:
        net = build_network(parse_config(text), seed=0)
        for size in (32, 40):           # 40 px resizes around DimConv
            net.run(np.zeros((1, 3, size, size)), Seen())
    assert called == set(OPS)
    assert {name for name, op in OPS.items() if op.consumes} == {"bn_prelu", "mul"}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_infer_of_a_batch_is_its_images_inferred_alone(dtype):
    # each image's scores depend on that image alone, and a batch resizes as
    # often as one image does. 7 images of 64 px run the stem in four image
    # blocks, the last one ragged
    rng = np.random.default_rng(11)
    assert T.BLOCK_BYTES // (8 * 3 * 64 * 64) == 2
    for name in ("dicenet-micro", "separable-micro"):
        net = build_network(parse_config((CONFIGS / f"{name}.cfg").read_text()),
                            seed=3, dtype=dtype)
        for nb, size in ((3, 32), (3, 40), (7, 64)):
            x = rng.standard_normal((nb, 3, size, size)).astype(dtype)
            dice.reset_resize_count()
            got = infer(net, x)
            resizes = dice.resize_count()
            dice.reset_resize_count()
            want = np.concatenate([infer(net, x[i:i + 1]) for i in range(nb)])
            assert got.dtype == dtype and got.tobytes() == want.tobytes(), (name, nb, size)
            assert resizes * nb == dice.resize_count(), (name, nb, size)


def test_interpreters_look_kernels_up_at_call_time(monkeypatch):
    # perfbench's tracer replaces module attributes; every interpreter must
    # see the replacement. A net of its own: training updates its statistics
    net = build_network(parse_config(MICRO_CFG), seed=1)
    seen = []

    def counting(module, attr):
        real = getattr(module, attr)

        def op(*args, **kwargs):
            seen.append(attr)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, op)

    counting(T, "pointwise_conv")
    counting(T, "bn_prelu")
    counting(ag, "pointwise_vjp")
    counting(orc, "oracle_pointwise")
    x = np.random.default_rng(12).standard_normal((2, 3, 32, 32))
    runs = {"infer": lambda: infer(net, x),
            "train": lambda: ag.backward(ag.sum_all(net.forward(x))),
            "oracle": lambda: net.oracle_forward(x)}
    calls = {}
    for key, run in runs.items():
        seen.clear()
        run()
        calls[key] = sorted(set(seen))
    # training runs the kernels forward and the vjp in backward; the oracle
    # calls neither. Training runs T.bn_prelu too, by the batch's statistics
    assert calls == {"infer": ["bn_prelu", "pointwise_conv"],
                     "train": ["bn_prelu", "pointwise_conv", "pointwise_vjp"],
                     "oracle": ["oracle_pointwise"]}


def test_backward_calls_each_nodes_vjp_once(monkeypatch):
    # a training forward records a call of autograd.<name>_vjp per tape node
    # and makes none; backward makes each node's once. 40 px resizes around
    # DimConv, so bilinear records nodes too
    net = build_network(parse_config(MICRO_CFG), seed=1)
    calls, nodes = Counter(), Counter()

    def counting(name):
        real = getattr(ag, f"{name}_vjp")

        def vjp(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(ag, f"{name}_vjp", vjp)

    for name in OPS:
        counting(name)

    class Nodes(AutogradOps):
        def apply(self, name, op, *args, **kwargs):
            out = super().apply(name, op, *args, **kwargs)
            nodes[name] += out.requires_grad
            return out

    x = np.random.default_rng(13).standard_normal((2, 3, 40, 40))
    loss = ag.sum_all(net.run(ag.as_var(x), Nodes()))
    assert not calls and nodes["bilinear"] == 2 * nodes["dimconv"] > 0
    ag.backward(loss)
    assert calls == nodes


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.cfg")))
def test_analyze_csv_matches_golden(name, tmp_path):
    out = tmp_path / "report.csv"
    for extra, suffix in (([], ""), (["--input-size", "288"], "-288")):
        assert main(["--format", "csv", "--out", str(out), "analyze",
                     str(CONFIGS / f"{name}.cfg")] + extra) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}{suffix}.csv").read_bytes(), suffix


def test_doubling_input_quadruples_conv_macs(micro_net):
    r1 = analyze(micro_net, 32)
    r2 = analyze(micro_net, 64)
    r3 = analyze(micro_net, 128)
    rows1 = {r[0]: r for r in r1.rows}
    rows3 = {r[0]: r for r in r3.rows}
    for name, kind, macs, _, _ in r2.rows:
        if kind in ("conv", "dimconv", "depthwise", "pointwise", "pool") \
                and "fc" not in name and name not in ("expand",):
            assert macs == 4 * rows1[name][2], name
        if kind == "dimfuse":
            # gate FCs are size-independent, so the row is affine in area
            assert rows3[name][2] - macs == 4 * (macs - rows1[name][2]), name
        if kind == "fc":
            assert macs == rows1[name][2], name


def test_analyze_independent_of_parameter_values(micro_net):
    before = analyze(micro_net)
    for _, p in micro_net.parameters():
        p.data += 1.0
    after = analyze(micro_net)
    for _, p in micro_net.parameters():
        p.data -= 1.0
    assert before.rows == after.rows


def test_report_formats(micro_net):
    rep = analyze(micro_net)
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "layer,kind,macs,params,out_shape"
    assert len(csv.splitlines()) == len(rep.rows) + 2
    table = rep.to_table()
    assert "total" in table and "shares:" in table
    doc = json.loads(rep.to_json())
    assert doc["total_macs"] == rep.total_macs


def test_infer_determinism_and_output_length(micro_net, rng):
    x = rng.standard_normal((2, 3, 32, 32))
    a = infer(micro_net, x)
    b = infer(micro_net, x)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 10)


def test_infer_zero_input_returns_fc_bias(micro_net):
    z = infer(micro_net, np.zeros((1, 3, 32, 32)))
    np.testing.assert_array_equal(z[0], micro_net.head.fc_bias.data)


def test_infer_off_nominal_sizes(micro_net):
    for size in (32, 48):
        out = infer(micro_net, np.zeros((1, 3, size, size)))
        assert out.shape == (1, 10)


def test_infer_rejects_bad_input(micro_net):
    with pytest.raises(KernelError):
        infer(micro_net, np.zeros((1, 4, 32, 32)))
    with pytest.raises(KernelError):
        infer(micro_net, np.zeros((1, 3, 16, 16)))


def test_infer_rejects_non_finite_input(micro_net):
    for bad in (np.nan, np.inf):
        x = np.zeros((1, 3, 32, 32))
        x[0, 1, 5, 7] = bad
        with pytest.raises(KernelError):
            infer(micro_net, x)


def test_load_state_rejects_non_finite_tensors():
    net = build_network(parse_config(MICRO_CFG), seed=1)
    before = [(name, a.copy()) for name, a in net.named_state()]
    stored = {name: a + 1.0 for name, a in before}
    stored["head.fc_bias"][0] = np.nan
    stored["bn0.running_var"][1] = -np.inf
    with pytest.raises(ContainerError) as err:
        net.load_state(stored)
    assert "head.fc_bias" in str(err.value) and "bn0.running_var" in str(err.value)
    assert all(a.tobytes() == b.tobytes()
               for (_, a), (_, b) in zip(net.named_state(), before))


def test_resize_instrumentation(micro_net):
    dice.reset_resize_count()
    infer(micro_net, np.zeros((1, 3, 32, 32)))
    assert dice.resize_count() == 0
    dice.reset_resize_count()
    infer(micro_net, np.zeros((1, 3, 48, 48)))
    units = sum(kind == "dimconv" for _, kind, _, _, _ in analyze(micro_net).rows)
    assert dice.resize_count() == 2 * units        # in and out of every unit


def test_off_nominal_infer_builds_no_resize_matrix(micro_net, monkeypatch):
    # the dense matrices serve only the backward pass, which infer never runs
    def refuse(src, dst):
        raise AssertionError(f"resize_matrix({src}, {dst}) built during infer")

    monkeypatch.setattr(T, "resize_matrix", refuse)
    dice.reset_resize_count()
    infer(micro_net, np.zeros((1, 3, 48, 48)))
    assert dice.resize_count() > 0


def test_alternative_block_styles_forward(rng):
    for style in ("mobilenet", "resnet"):
        cfg = parse_config(f"name: x\nwidth_scale: 0.1\nblock_style: {style}\n"
                           "input_size: 32\nclasses: 10\n"
                           "stages {\n repeats: [1]\n channels: [16]\n}\n"
                           "pool_width: 32\n")
        net = build_network(cfg, seed=0)
        out = infer(net, rng.standard_normal((1, 3, 32, 32)))
        assert out.shape == (1, 10)
        rep = analyze(net)
        x = rng.standard_normal((1, 3, 32, 32))
        _, counter = net.oracle_forward(x)
        assert counter.mac_count == rep.total_macs


def test_ablation_variants_analyze(rng):
    base = ("name: x\nwidth_scale: 0.1\ninput_size: 32\nclasses: 10\n"
            "stages {\n repeats: [1]\n channels: [16]\n}\npool_width: 32\n")
    kinds = set()
    for conv in ("dimconv", "depthwise"):
        for fusion in ("dimfuse", "pointwise"):
            cfg = parse_config(base + f"conv: {conv}\nfusion: {fusion}\n")
            net = build_network(cfg, seed=0)
            rep = analyze(net)
            kinds |= {r[1] for r in rep.rows}
            x = rng.standard_normal((1, 3, 32, 32))
            _, counter = net.oracle_forward(x)
            assert counter.mac_count == rep.total_macs, (conv, fusion)
    assert {"dimconv", "dimfuse", "depthwise", "pointwise"} <= kinds


def test_oracle_forward_has_its_own_max_pool(monkeypatch, micro_net, rng):
    # a fault in the fast max pool shows in infer, not in the oracle forward
    x = rng.standard_normal((2, 3, 32, 32))
    ref, counter = micro_net.oracle_forward(x)
    real = T.pool

    def off(x, kind, *args):
        y = real(x, kind, *args)
        return y + 1.0 if kind == "max" else y

    monkeypatch.setattr(T, "pool", off)
    faulty, faulty_counter = micro_net.oracle_forward(x)
    assert faulty.tobytes() == ref.tobytes()
    assert faulty_counter.mac_count == counter.mac_count
    assert not np.allclose(infer(micro_net, x), ref, atol=1e-6)


def _micro(dtype):
    return build_network(parse_config((CONFIGS / "dicenet-micro.cfg").read_text()),
                         seed=2, dtype=dtype)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_inference_is_pure(dtype):
    # bn_prelu and mul write into their operands in inference; neither the
    # caller's input nor any parameter or running statistic may change
    net = _micro(dtype)
    rng = np.random.default_rng(5)
    for nb, size in ((1, 32), (3, 40)):
        x = rng.standard_normal((nb, 3, size, size)).astype(dtype)
        labels = np.arange(nb) % 10
        before = [_sha(x)] + [_sha(a) for _, a in net.named_state()]
        scores = infer(net, x)
        train.evaluate(net, x, labels)
        assert [_sha(x)] + [_sha(a) for _, a in net.named_state()] == before, (nb, size)
        assert infer(net, x).tobytes() == scores.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_two_threads_infer_on_one_network(dtype):
    # at batch 4 and at batch 1, where the FCs run the outputs-inner einsum,
    # at the nominal size and at 40 px, where each DiCE unit resizes: the
    # serial bytes, and each thread counts its own resizes
    net = _micro(dtype)
    rng = np.random.default_rng(6)
    for nb, size in ((4, 40), (1, 32), (1, 40)):
        x = rng.standard_normal((nb, 3, size, size)).astype(dtype)

        def once():
            dice.reset_resize_count()
            return infer(net, x).tobytes(), dice.resize_count()

        serial = once()
        start = threading.Barrier(2, timeout=30)
        results = [[], []]

        def run(slot):
            start.wait()
            for _ in range(3):
                results[slot].append(once())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial] * 3] * 2, (nb, size)
        assert (serial[1] > 0) == (size == 40)


def _infer_peak(net, x):
    """tracemalloc's peak over a second `infer(net, x)`, in bytes above what
    was allocated before it; the first call warms caches."""
    infer(net, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        infer(net, x)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_inference_peak_memory_stays_below_one_stem_output():
    # the stem and max pool run one image block at a time, so the whole
    # batch's stem output never exists. With the stem run on the whole batch
    # the peak here was 1.62 stem outputs, and 2.41 with the stem's conv
    # output and its BN-PReLU result alive together
    net = _micro(np.float64)
    nb, size = 16, 64
    x = np.random.default_rng(7).standard_normal((nb, 3, size, size))
    stem = nb * default_stem_channels(net.cfg.width_scale) * (size // 2) ** 2 * 8
    peak = _infer_peak(net, x)
    assert peak < stem, f"peak {peak / stem:.2f} stem outputs"


def test_float32_inference_peaks_below_float64():
    # BN-PReLU widens to float64 one image block at a time, so a float32
    # network's intermediates stay float32-sized. With a whole-batch float64
    # buffer the float32 peak here was 1.72 stem outputs, against 1.62 for
    # float64
    nb, size = 16, 64
    x = np.random.default_rng(7).standard_normal((nb, 3, size, size))
    peaks = {dtype: _infer_peak(_micro(dtype), x.astype(dtype))
             for dtype in (np.float64, np.float32)}
    assert peaks[np.float32] < peaks[np.float64], peaks


def test_array_ops_consume_the_first_operand():
    # ArrayOps writes a consuming op's result into its first operand;
    # AutogradOps writes no operand, recording or not
    bn = _BNAct(3, np.float64)
    y = np.random.default_rng(8).standard_normal((2, 3, 4, 4))
    gate = np.full((2, 3, 1, 1), 0.5)
    for dtype in (np.float64, np.float32):
        x = y.astype(dtype)
        assert bn.forward(x, ArrayOps()) is x
        a = y.astype(dtype)
        assert ArrayOps().mul(a, gate.astype(dtype)) is a
    for wrap in (ag.Var, ag.param):
        x = wrap(y.copy())
        out = bn.forward(x, AutogradOps())
        prod = AutogradOps().mul(x, ag.Var(gate))
        assert not np.shares_memory(out.data, x.data)
        assert not np.shares_memory(prod.data, x.data)
        assert x.data.tobytes() == y.tobytes()


class _Toy:
    """A block of one analyze() row: a pointwise conv y of its input x, then
    tail(x, y, bn, ops), with bn the block's batch norm."""

    def __init__(self, c, tail):
        self.w = ag.param(np.eye(c))
        self.post = _BNAct(c, np.float64)
        self.tail = tail

    def forward(self, x, ops):
        with ops.row("toy", "pointwise"):
            return self.tail(x, ops.pointwise(x, self.w), self.post, ops)


def _with_toy(tail, at=2):
    """The micro network with a _Toy as layer `at`: 0 puts it on the network
    input, 2 after the stem and the max pool."""
    net = build_network(parse_config(MICRO_CFG), seed=1)
    c = 3 if at == 0 else default_stem_channels(net.cfg.width_scale)
    net.layers.insert(at, _Toy(c, tail))
    return net


def test_reading_a_consumed_value_fails_analyze():
    def reread(x, y, bn, ops):
        return ops.add(bn.forward(y, ops), y)

    def consume_twice(x, y, bn, ops):
        bn.forward(y, ops)
        return bn.forward(y, ops)

    def gate_then_read(x, y, bn, ops):
        return ops.add(ops.mul(y, y), y)

    def view_taken_before(x, y, bn, ops):
        v = ops.shuffle(y, 2)
        return ops.add(bn.forward(y, ops), v)

    def base_of_consumed_view(x, y, bn, ops):
        return ops.add(bn.forward(ops.reshape(y, y.shape), ops), y)

    for tail in (reread, consume_twice, gate_then_read, view_taken_before,
                 base_of_consumed_view):
        with pytest.raises(KernelError, match=r"after (bn_prelu|mul) in stage.0.toy consumed it"):
            analyze(_with_toy(tail))
    # what a consuming op returns is live, and so is the block's input
    ok = _with_toy(lambda x, y, bn, ops: ops.add(bn.forward(y, ops), x))
    assert analyze(ok).total_macs == analyze(_with_toy(lambda x, y, bn, ops: y)).total_macs


def test_the_network_input_is_never_consumed():
    first = [lambda x, y, bn, ops: bn.forward(x, ops),
             lambda x, y, bn, ops: bn.forward(ops.reshape(x, x.shape), ops)]
    for tail in first:
        with pytest.raises(KernelError, match="would consume the network input"):
            analyze(_with_toy(tail, at=0))
