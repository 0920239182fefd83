"""Command-line surface: verbs, formats, exit codes."""

import json
import os
import struct

import numpy as np
import pytest

from dicekit.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from dicekit.netbuilder import build_network
from dicekit.netconfig import parse_config
from dicekit.serialize import MAGIC, save_checkpoint, save_tensor

from conftest import MICRO_CFG


@pytest.fixture
def micro_cfg_path(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CFG)
    return str(path)


def test_analyze_table(micro_cfg_path, capsys):
    assert main(["analyze", micro_cfg_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total" in out and "conv1" in out


def test_analyze_csv_parses(micro_cfg_path, capsys):
    assert main(["--format", "csv", "analyze", micro_cfg_path]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "layer,kind,macs,params,out_shape"
    for line in lines[1:]:
        assert len(line.split(",")) == 5


def test_analyze_json_and_out_file(micro_cfg_path, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--format", "json", "--out", str(out),
                 "analyze", micro_cfg_path]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["total_macs"] > 0


def test_analyze_missing_file_exit_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.cfg")]) == EXIT_USAGE


def test_analyze_bad_schema_exit_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("name: x\nwidth_scale: 1.0\nbogus_key: 3\n")
    assert main(["analyze", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("size", ["0", "1", "-5"])
def test_analyze_input_size_below_32_exit_2(micro_cfg_path, capsys, size):
    assert main(["analyze", micro_cfg_path, "--input-size", size]) == EXIT_USAGE
    assert "at least 32 pixels" in capsys.readouterr().err


def test_analyze_infinite_width_scale_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.cfg"
    path.write_text("name: x\nwidth_scale: inf\n")
    assert main(["analyze", str(path)]) == EXIT_USAGE
    assert "width_scale" in capsys.readouterr().err


def test_analyze_overflowing_width_scale_exit_2(tmp_path, capsys):
    # finite, but the scaled stage widths are not
    path = tmp_path / "huge.cfg"
    path.write_text("name: x\nwidth_scale: 1e306\n")
    assert main(["analyze", str(path)]) == EXIT_USAGE
    assert "width_scale" in capsys.readouterr().err


# the inputs are drawn from fixed PCG64 streams and the kernels are
# bitwise, so these digests pin both the draws and the outputs
@pytest.mark.parametrize("op,impls,checksum", [
    ("dimconv", ["fused", "unfused"],
     "28aa621deb435ab52b3d68b54bcc4cf3ddd2bc37c5ae3312a34898040c10ebae"),
    ("separable", ["default"],
     "fa447d228e79fe456167a76ffdf2841fedd29c2d7c3cc5ab06bb3a1255ad30f1"),
], ids=["dimconv", "separable"])
def test_bench_checksums_match(capsys, op, impls, checksum):
    assert main(["--format", "csv", "bench", "--op", op,
                 "--shape", "8,10,10", "--repeats", "2", "--warmup", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [row["impl"] for row in rows] == impls
    assert {row["checksum"] for row in rows} == {checksum}


def test_bench_json_parses(capsys):
    assert main(["--format", "json", "bench", "--shape", "4,6,6",
                 "--repeats", "2", "--warmup", "0"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [row["impl"] for row in rows] == ["fused", "unfused"]
    assert all(row["repeats"] == 2 and row["shape"] == "4x6x6" for row in rows)


def test_bench_single_repeat_zero_stddev(capsys):
    assert main(["--format", "csv", "bench", "--op", "dimconv", "--impl",
                 "fused", "--shape", "4,6,6", "--repeats", "1",
                 "--warmup", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert float(lines[1].split(",")[header.index("stddev_s")]) == 0.0


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bench_kernel_extent_below_1_exit_2(capsys, n):
    assert main(["bench", "--shape", "4,6,6", "--n", n, "--repeats", "1"]) == EXIT_USAGE
    assert "n >= 1" in capsys.readouterr().err


def test_bench_rejects_dimfuse_op():
    assert main(["bench", "--op", "dimfuse", "--shape", "4,6,6",
                 "--repeats", "1"]) == EXIT_USAGE


def test_verify_flops_suite(capsys):
    assert main(["verify", "--suite", "flops"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "closed_form" in out and "component_sum" in out


def test_verify_gradients_suite(capsys):
    assert main(["verify", "--suite", "gradients"]) == EXIT_OK
    out = capsys.readouterr().out
    for op in ("depthwise.s1", "depthwise.s2", "widthwise", "heightwise", "dimconv",
               "spatial_conv", "avg_pool", "max_pool", "pointwise", "linear"):
        assert f"[PASS] adjoint.{op}:" in out
    for arg in ("x", "gamma", "beta", "slope"):
        assert f"[PASS] bn_prelu.train.{arg}:" in out


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    # a perturbed kernel must be caught and named
    from dicekit import verify as vmod
    orig = vmod.run_suite
    monkeypatch.setattr(vmod, "run_suite",
                        lambda suite, seed=0, fault=None: orig(
                            "kernels", seed, fault="dimconv"))
    assert main(["verify", "--suite", "kernels"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL" in out and "dimconv" in out
    assert "[FAIL] dimconv.f32" in out


def test_train_and_infer_round_trip(micro_cfg_path, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    ck = tmp_path / "ck"
    assert main(["--out", str(metrics), "train", micro_cfg_path,
                 "--epochs", "1", "--count", "64",
                 "--checkpoint", str(ck)]) == EXIT_OK
    lines = metrics.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,acc,ema_acc"
    assert len(lines) == 2
    assert os.path.exists(ck / "manifest.json")

    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.zeros((3, 32, 32)))
    assert main(["infer", micro_cfg_path, str(tensor),
                 "--checkpoint", str(ck), "--topk", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("sample 0:")
    assert len(out.split(":", 1)[1].split()) == 3


def test_train_same_seed_identical_metrics(micro_cfg_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["--seed", "3", "--out", str(path), "train",
                     micro_cfg_path, "--epochs", "1", "--count", "64"]) == EXIT_OK
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("flag,value,message", [
    ("--batch-size", "-4", "batch size"),
    ("--batch-size", "0", "batch size"),
    ("--epochs", "0", "epochs"),
    ("--epochs", "-2", "epochs"),
    ("--lr", "nan", "learning rate"),
    ("--lr", "inf", "learning rate"),
    ("--lr", "-0.1", "learning rate"),
])
def test_train_config_that_trains_nothing_exit_2(micro_cfg_path, tmp_path, capsys,
                                                 flag, value, message):
    ck = tmp_path / "ck"
    assert main(["--out", str(tmp_path / "metrics.csv"), "train", micro_cfg_path,
                 "--count", "20", "--checkpoint", str(ck), flag, value]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not ck.exists() and not (tmp_path / "metrics.csv").exists()


def test_infer_zero_tensor_scores_equal_bias(micro_cfg_path, tmp_path, capsys):
    tensor = tmp_path / "zero.dck"
    save_tensor(tensor, np.zeros((3, 32, 32)))
    assert main(["infer", micro_cfg_path, str(tensor)]) == EXIT_OK
    out = capsys.readouterr().out
    scores = [float(tok.split(":")[1]) for tok in out.split()[2:]]
    assert all(s == 0.0 for s in scores)       # fresh net: zero fc bias


def test_infer_off_nominal_input(micro_cfg_path, tmp_path, capsys):
    tensor = tmp_path / "big.dck"
    save_tensor(tensor, np.zeros((3, 48, 48)))
    assert main(["infer", micro_cfg_path, str(tensor)]) == EXIT_OK
    assert "sample 0:" in capsys.readouterr().out


@pytest.mark.parametrize("k", ["0", "-1"])
def test_infer_topk_below_1_exit_2(micro_cfg_path, tmp_path, capsys, k):
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.zeros((3, 32, 32)))
    assert main(["infer", micro_cfg_path, str(tensor), "--topk", k]) == EXIT_USAGE
    assert "--topk must be at least 1" in capsys.readouterr().err


def test_usage_error_exit_2():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_infer_checkpoint_must_match_network(micro_cfg_path, tmp_path, capsys):
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.ones((3, 32, 32)))
    named = build_network(parse_config(MICRO_CFG), seed=5).named_state()
    save_checkpoint(tmp_path / "ok", named)
    assert main(["infer", micro_cfg_path, str(tensor),
                 "--checkpoint", str(tmp_path / "ok")]) == EXIT_OK
    capsys.readouterr()
    no_k_w = [(n, a) for n, a in named if not n.endswith(".unit.k_w")]
    assert len(no_k_w) == len(named) - 4
    bad = {
        "missing": no_k_w,
        "extra": named + [("bogus.extra", np.zeros(3))],
        "both": no_k_w + [("bogus.extra", np.zeros(3))],
        "shape": [(n, a[:1] if n == "head.fc_bias" else a) for n, a in named],
    }
    for label, entries in bad.items():
        save_checkpoint(tmp_path / label, entries)
        assert main(["infer", micro_cfg_path, str(tensor), "--checkpoint",
                     str(tmp_path / label)]) == EXIT_USAGE, label
        assert "checkpoint" in capsys.readouterr().err, label


def test_infer_checkpoint_with_non_finite_tensor_exit_2(micro_cfg_path, tmp_path,
                                                       capsys):
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.ones((3, 32, 32)))
    named = build_network(parse_config(MICRO_CFG), seed=5).named_state()
    named = [(n, np.full_like(a, np.nan) if n == "head.fc" else a) for n, a in named]
    save_checkpoint(tmp_path / "ck", named)
    assert main(["infer", micro_cfg_path, str(tensor),
                 "--checkpoint", str(tmp_path / "ck")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "non-finite" in err and "head.fc" in err


def test_infer_checkpoint_dtype_must_match_manifest(micro_cfg_path, tmp_path, capsys):
    import json
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.ones((3, 32, 32)))
    named = build_network(parse_config(MICRO_CFG), seed=5).named_state()
    save_checkpoint(tmp_path / "ck", named)
    entry = json.loads((tmp_path / "ck" / "manifest.json").read_text())["bn0.running_mean"]
    save_tensor(tmp_path / "ck" / entry["file"], dict(named)["bn0.running_mean"].astype(np.float32))
    assert main(["infer", micro_cfg_path, str(tensor),
                 "--checkpoint", str(tmp_path / "ck")]) == EXIT_USAGE
    assert "dtype" in capsys.readouterr().err


def test_infer_malformed_manifest_exit_2(micro_cfg_path, tmp_path, capsys):
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.ones((3, 32, 32)))
    save_checkpoint(tmp_path / "ck", build_network(parse_config(MICRO_CFG)).named_state())
    for manifest in ({"a": {}}, [1, 2]):
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        assert main(["infer", micro_cfg_path, str(tensor),
                     "--checkpoint", str(tmp_path / "ck")]) == EXIT_USAGE, manifest
        assert "manifest" in capsys.readouterr().err


def test_infer_bad_input_exit_2(micro_cfg_path, tmp_path, capsys):
    nan = tmp_path / "nan.dck"
    save_tensor(nan, np.full((3, 32, 32), np.nan))
    assert main(["infer", micro_cfg_path, str(nan)]) == EXIT_USAGE
    assert "NaN" in capsys.readouterr().err
    huge = tmp_path / "huge.dck"
    huge.write_bytes(MAGIC + struct.pack("<II4x", 2, 4)
                     + struct.pack("<4Q", 1, 3, 2 ** 31, 2 ** 33))
    assert main(["infer", micro_cfg_path, str(huge)]) == EXIT_USAGE
    assert "truncated" in capsys.readouterr().err


# the overflow is the point: numpy warns of it
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_whose_weights_overflow_exit_2(micro_cfg_path, tmp_path, capsys):
    # a finite learning rate so large that one step overflows the weights:
    # the EMA evaluation scores NaN, so no checkpoint is written
    ck = tmp_path / "ck"
    assert main(["train", micro_cfg_path, "--count", "10", "--epochs", "1",
                 "--lr", "1e300", "--checkpoint", str(ck)]) == EXIT_USAGE
    assert "scores contain NaN" in capsys.readouterr().err
    assert not ck.exists()


# the overflow is the point: numpy warns of it
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_infer_checkpoint_that_scores_nan_exit_2(micro_cfg_path, tmp_path, capsys):
    # every tensor is finite, but the classifier's weights overflow the scores
    tensor = tmp_path / "x.dck"
    save_tensor(tensor, np.ones((3, 32, 32)))
    named = build_network(parse_config(MICRO_CFG), seed=5).named_state()
    named = [(n, np.full_like(a, 1e308) if n == "head.fc" else a) for n, a in named]
    save_checkpoint(tmp_path / "ck", named)
    assert main(["infer", micro_cfg_path, str(tensor),
                 "--checkpoint", str(tmp_path / "ck")]) == EXIT_USAGE
    assert "scores contain NaN" in capsys.readouterr().err
