"""Single-file binary container: versioned header + named array payloads.

Layout: magic ``GAPC``, uint32 version, uint64 header length, JSON header
(``meta`` dict plus ordered tensor descriptors with name/shape/dtype), then
the raw little-endian payloads concatenated in header order. Training
checkpoints are written in it; every array is stored as float64.
"""
from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"GAPC"
VERSION = 1
_DTYPES = {"f8": "<f8"}


def write_container(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    descriptors = []
    payloads = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype.kind != "f":
            raise CheckpointError(f"unsupported dtype {arr.dtype} for {name!r}")
        descriptors.append({"name": name, "shape": list(arr.shape), "dtype": "f8"})
        payloads.append(arr.astype("<f8").tobytes(order="C"))
    header = json.dumps({"meta": meta, "tensors": descriptors},
                        sort_keys=True).encode()
    # write beside the target, then rename over it: a crash mid-write leaves
    # the previous file intact instead of a torn one
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", VERSION))
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for blob in payloads:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"not a file: {path}")
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a container file (bad magic)")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise CheckpointError(f"unsupported container version {version}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + header_len:
        raise CheckpointError(f"{path} is truncated (header)")
    try:
        header = json.loads(raw[16:16 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(f"{path} has a malformed header: expected an "
                              "object with a 'meta' object and a 'tensors' "
                              "list")
    tensors = {}
    offset = 16 + header_len
    for desc in header["tensors"]:
        try:
            name, shape = desc["name"], tuple(desc["shape"])
            dtype = np.dtype(_DTYPES[desc["dtype"]])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path} has a malformed tensor descriptor "
                                  f"{desc!r}: {exc!r}") from None
        if type(name) is not str or name in tensors:
            raise CheckpointError(f"{path} has a malformed tensor name "
                                  f"{name!r}: names are distinct strings")
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise CheckpointError(f"{path} has a malformed shape "
                                  f"{list(shape)} for {name!r}")
        count = math.prod(shape)      # a Python int: cannot overflow to 0
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path} is truncated (payload {name!r})")
        arr = np.frombuffer(raw, dtype=dtype, count=count,
                            offset=offset).reshape(shape).copy()
        tensors[name] = arr
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path} has {len(raw) - offset} trailing bytes")
    return header["meta"], tensors
