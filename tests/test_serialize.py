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
