"""Flat binary tensor container and checkpoint directories.

Container layout:
  bytes 0..3    magic b"DCK1"
  bytes 4..7    dtype code, little-endian u32 (1 = float32, 2 = float64)
  bytes 8..11   rank, little-endian u32
  bytes 12..15  reserved, zero
  then rank * u64 little-endian shape entries
  then the raw little-endian scalars, C order
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import struct
import tempfile

import numpy as np

MAGIC = b"DCK1"
_DTYPE_TO_CODE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_TO_DTYPE = {v: k for k, v in _DTYPE_TO_CODE.items()}


class ContainerError(ValueError):
    """Raised for malformed tensor container files."""


def dump_tensor(arr: np.ndarray, fh) -> None:
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_TO_CODE:
        raise ContainerError(f"unsupported dtype {dtype}")
    fh.write(MAGIC)
    fh.write(struct.pack("<II4x", _DTYPE_TO_CODE[dtype], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(np.ascontiguousarray(arr).astype(dtype.newbyteorder("<")).tobytes())


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        dump_tensor(arr, fh)


def read_tensor(fh) -> np.ndarray:
    head = fh.read(16)
    if len(head) != 16 or head[:4] != MAGIC:
        raise ContainerError("bad magic: not a DCK1 tensor container")
    code, rank = struct.unpack("<II4x", head[4:])
    if code not in _CODE_TO_DTYPE:
        raise ContainerError(f"unknown dtype code {code}")
    if rank > 8:
        raise ContainerError(f"implausible rank {rank}")
    dims = fh.read(8 * rank)
    if len(dims) != 8 * rank:
        raise ContainerError("truncated tensor shape")
    shape = struct.unpack(f"<{rank}Q", dims)
    dtype = _CODE_TO_DTYPE[code]
    nbytes = math.prod(shape) * dtype.itemsize      # exact: Python ints
    pos = fh.tell()
    remaining = fh.seek(0, os.SEEK_END) - pos
    fh.seek(pos)
    if nbytes > remaining:
        raise ContainerError(f"truncated tensor payload: shape {shape} needs "
                             f"{nbytes} bytes, {remaining} remain")
    # read straight into the array; little-endian on disk, native in memory
    arr = np.empty(shape, dtype=dtype.newbyteorder("<"))
    got = fh.readinto(arr.reshape(-1).view(np.uint8))
    if got != nbytes:
        raise ContainerError(f"truncated tensor payload: shape {shape} needs "
                             f"{nbytes} bytes, read {got}")
    return arr.astype(dtype, copy=False)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)


_CHECKPOINT_FILE = re.compile(r"manifest\.json|p\d{4,}\.dck")


def save_checkpoint(directory, named_params) -> None:
    """Write one container per parameter plus a manifest of names/shapes.

    The files are written into a new sibling directory, which then takes the
    place of `directory`. A save that fails part-way leaves the old
    checkpoint as it was, never a mix of old and new tensors or a truncated
    file. An existing `directory` must hold a checkpoint and nothing else,
    since the swap replaces all of it.
    """
    directory = os.path.abspath(directory)
    parent, base = os.path.split(directory)
    if os.path.isdir(directory):
        foreign = sorted(f for f in os.listdir(directory) if not _CHECKPOINT_FILE.fullmatch(f))
        if foreign:
            raise ContainerError(f"{directory} holds files that are not a checkpoint's: "
                                 f"{foreign[:3]}; refusing to replace it")
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{base}.", dir=parent)
    try:
        manifest = {}
        for idx, (name, arr) in enumerate(named_params):
            fname = f"p{idx:04d}.dck"
            save_tensor(os.path.join(tmp, fname), arr)
            manifest[name] = {"file": fname, "shape": list(arr.shape), "dtype": str(arr.dtype)}
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        if os.path.isdir(directory):
            # a directory cannot be renamed over a non-empty one: move the
            # old checkpoint aside first, and delete it once the new one is in
            old = tmp + ".old"
            os.rename(directory, old)
            try:
                os.rename(tmp, directory)
            except OSError:
                os.rename(old, directory)
                raise
            shutil.rmtree(old, ignore_errors=True)
        else:
            os.rename(tmp, directory)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _valid_entry(meta) -> bool:
    """A manifest entry names a file of the checkpoint, a shape and a dtype."""
    return (isinstance(meta, dict) and isinstance(meta.get("file"), str)
            and _CHECKPOINT_FILE.fullmatch(meta["file"]) is not None
            and isinstance(meta.get("shape"), list)
            and all(type(s) is int for s in meta["shape"])
            and isinstance(meta.get("dtype"), str))


def load_checkpoint(directory) -> dict:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ContainerError("checkpoint manifest is not a JSON object")
    bad = sorted(name for name, meta in manifest.items() if not _valid_entry(meta))
    if bad:
        raise ContainerError(f"checkpoint manifest entries need a file of the checkpoint, "
                             f"a shape of ints and a dtype string: {bad[:3]}")
    out = {}
    for name, meta in manifest.items():
        arr = load_tensor(os.path.join(directory, meta["file"]))
        if list(arr.shape) != meta["shape"]:
            raise ContainerError(f"checkpoint shape mismatch for {name}")
        if str(arr.dtype) != meta["dtype"]:
            raise ContainerError(f"checkpoint dtype mismatch for {name}: the file holds "
                                 f"{arr.dtype}, the manifest says {meta['dtype']}")
        out[name] = arr
    return out
