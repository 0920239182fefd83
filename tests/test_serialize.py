"""Tensor container round-trips and malformed-file handling."""

import io
import struct

import numpy as np
import pytest

from dicekit.serialize import (
    MAGIC,
    ContainerError,
    dump_tensor,
    load_checkpoint,
    load_tensor,
    read_tensor,
    save_checkpoint,
    save_tensor,
)


def test_round_trip_dtypes_and_shapes(tmp_path, rng):
    for arr in (
        rng.standard_normal((3, 4, 5)),
        rng.standard_normal((2, 2)).astype(np.float32),
        np.float64(3.5).reshape(()),
        np.zeros((0, 7)),
    ):
        path = tmp_path / "t.dck"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)
        # read in place: a native, writeable array of the same bytes
        assert back.tobytes() == arr.tobytes()
        assert back.dtype.isnative and back.flags.writeable and back.flags.c_contiguous


def test_header_layout(rng):
    buf = io.BytesIO()
    dump_tensor(np.zeros((2, 3), dtype=np.float32), buf)
    raw = buf.getvalue()
    assert raw[:4] == MAGIC
    assert raw[4] == 1                     # f32 code
    assert raw[8] == 2                     # rank
    assert len(raw) == 16 + 2 * 8 + 6 * 4


def test_bad_magic_rejected():
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 28))


def test_truncated_payload_rejected(rng):
    buf = io.BytesIO()
    dump_tensor(rng.standard_normal((4, 4)), buf)
    raw = buf.getvalue()[:-8]
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(raw))


def test_short_read_rejected(rng):
    # a stream that holds the payload but hands back less of it
    class Short(io.BytesIO):
        def readinto(self, b):
            return super().readinto(memoryview(b)[:-1])

    buf = io.BytesIO()
    dump_tensor(rng.standard_normal((4, 4)), buf)
    with pytest.raises(ContainerError, match="truncated tensor payload"):
        read_tensor(Short(buf.getvalue()))


def test_overflowing_shape_rejected():
    # 2**32 * 2**32 elements wraps to 0 in int64; the header must still be
    # refused for promising more data than the file holds
    head = MAGIC + struct.pack("<II4x", 2, 2) + struct.pack("<2Q", 2 ** 32, 2 ** 32)
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(head))
    with pytest.raises(ContainerError):
        read_tensor(io.BytesIO(head[:-4]))          # shape itself cut short


def test_unsupported_dtype_rejected():
    with pytest.raises(ContainerError):
        dump_tensor(np.zeros(3, dtype=np.int64), io.BytesIO())


def test_checkpoint_round_trip(tmp_path, rng):
    named = [("a.w", rng.standard_normal((2, 3))),
             ("b.bias", rng.standard_normal(4).astype(np.float32))]
    save_checkpoint(tmp_path / "ck", named)
    back = load_checkpoint(tmp_path / "ck")
    assert set(back) == {"a.w", "b.bias"}
    for name, arr in named:
        np.testing.assert_array_equal(back[name], arr)
        assert back[name].dtype == arr.dtype


def test_checkpoint_dtype_must_match_manifest(tmp_path, rng):
    import json
    named = [("a.w", rng.standard_normal((2, 3))), ("b.mean", rng.standard_normal(4))]
    save_checkpoint(tmp_path / "ck", named)
    entry = json.loads((tmp_path / "ck" / "manifest.json").read_text())["b.mean"]
    assert entry["dtype"] == "float64"
    # same name and shape, stored as float32 under a manifest that says float64
    save_tensor(tmp_path / "ck" / entry["file"], named[1][1].astype(np.float32))
    with pytest.raises(ContainerError, match="dtype"):
        load_checkpoint(tmp_path / "ck")


MALFORMED_MANIFESTS = {
    "not an object": [1, 2],
    "entry not an object": {"a.w": 1},
    "no file": {"a.w": {}},
    "file outside": {"a.w": {"file": "../p0000.dck", "shape": [2, 3], "dtype": "float64"}},
    "absolute file": {"a.w": {"file": "/etc/passwd", "shape": [2, 3], "dtype": "float64"}},
    "file not a string": {"a.w": {"file": 7, "shape": [2, 3], "dtype": "float64"}},
    "no shape": {"a.w": {"file": "p0000.dck", "dtype": "float64"}},
    "shape not a list": {"a.w": {"file": "p0000.dck", "shape": "2,3", "dtype": "float64"}},
    "shape of floats": {"a.w": {"file": "p0000.dck", "shape": [2.0, 3], "dtype": "float64"}},
    "shape of bools": {"a.w": {"file": "p0000.dck", "shape": [True, 3], "dtype": "float64"}},
    "no dtype": {"a.w": {"file": "p0000.dck", "shape": [2, 3]}},
    "dtype not a string": {"a.w": {"file": "p0000.dck", "shape": [2, 3], "dtype": 8}},
}


@pytest.mark.parametrize("label", sorted(MALFORMED_MANIFESTS))
def test_checkpoint_malformed_manifest_rejected(tmp_path, rng, label):
    import json
    save_checkpoint(tmp_path / "ck", [("a.w", rng.standard_normal((2, 3)))])
    (tmp_path / "ck" / "manifest.json").write_text(json.dumps(MALFORMED_MANIFESTS[label]))
    with pytest.raises(ContainerError, match="manifest"):
        load_checkpoint(tmp_path / "ck")


def _assert_same_checkpoint(back, named):
    assert set(back) == {name for name, _ in named}
    for name, arr in named:
        assert back[name].dtype == arr.dtype
        assert back[name].tobytes() == arr.tobytes(), name


def test_checkpoint_save_interrupted_between_files_keeps_old(tmp_path, rng, monkeypatch):
    from dicekit import serialize
    old = [(f"t{i}", rng.standard_normal((3, i + 1))) for i in range(5)]
    save_checkpoint(tmp_path / "ck", old)
    real_save, calls = serialize.save_tensor, []

    def save_then_stop(path, arr):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_save(path, arr)

    monkeypatch.setattr(serialize, "save_tensor", save_then_stop)
    new = [(name, arr + 1.0) for name, arr in old]
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "ck", new)
    _assert_same_checkpoint(load_checkpoint(tmp_path / "ck"), old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_checkpoint_save_failing_inside_a_file_keeps_old(tmp_path, rng):
    old = [("a", rng.standard_normal((2, 3))), ("b", rng.standard_normal(4)),
           ("c", rng.standard_normal((1, 2)).astype(np.float32))]
    save_checkpoint(tmp_path / "ck", old)
    new = [("a", old[0][1] * 2.0), ("b", np.arange(4)), ("c", old[2][1])]
    with pytest.raises(ContainerError):
        save_checkpoint(tmp_path / "ck", new)
    _assert_same_checkpoint(load_checkpoint(tmp_path / "ck"), old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_checkpoint_save_replaces_a_larger_checkpoint(tmp_path, rng):
    save_checkpoint(tmp_path / "ck", [(f"t{i}", rng.standard_normal(2)) for i in range(4)])
    new = [("only", rng.standard_normal((2, 2)))]
    save_checkpoint(tmp_path / "ck", new)
    _assert_same_checkpoint(load_checkpoint(tmp_path / "ck"), new)
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.json", "p0000.dck"]


def test_checkpoint_save_refuses_a_directory_with_other_files(tmp_path, rng):
    (tmp_path / "ck").mkdir()
    (tmp_path / "ck" / "notes.txt").write_text("keep me")
    with pytest.raises(ContainerError):
        save_checkpoint(tmp_path / "ck", [("a", rng.standard_normal(2))])
    assert (tmp_path / "ck" / "notes.txt").read_text() == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
