"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    magic   b"PNET1"
    version u16 (currently 2)
    header  u32 length + UTF-8 JSON: model config, epoch, seed, dtype,
            adam: {t, beta1, beta2, eps} (or null)
    tensors u32 count, then per tensor:
            u16 name length + UTF-8 name (prefixed param:/stat:/adam.m:/adam.v:)
            u8 dtype-string length + dtype (numpy little-endian str, e.g. "<f4")
            u8 ndim + u32 dims
            raw payload bytes

Round-trips are bit-exact: payloads are written and read as raw
little-endian scalars with no re-encoding. Any other version is refused;
version 1 also held conv biases and the LR schedule, and has no migration.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError
from .model import ModelConfig, PostureNet
from .optim import AdamState

MAGIC = b"PNET1"
VERSION = 2
HEADER_KEYS = ("config", "epoch", "seed", "dtype", "adam")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict
    bn_stats: dict
    adam: AdamState | None
    epoch: int
    seed: int
    dtype: str


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    le = arr.dtype.newbyteorder("<")
    dstr = le.str.encode()
    nb = name.encode()
    parts = [struct.pack("<H", len(nb)), nb,
             struct.pack("<B", len(dstr)), dstr,
             struct.pack("<B", arr.ndim)]
    parts += [struct.pack("<I", d) for d in arr.shape]
    parts.append(np.ascontiguousarray(arr, dtype=le).tobytes())
    return b"".join(parts)


def save_checkpoint(path, net: PostureNet, adam: AdamState | None = None,
                    epoch: int = 0, seed: int = 0) -> None:
    header = {
        "config": net.config.as_dict(),
        "epoch": int(epoch),
        "seed": int(seed),
        "dtype": np.dtype(net.dtype).name,
        "adam": None if adam is None else {
            "t": adam.t, "beta1": adam.beta1, "beta2": adam.beta2,
            "eps": adam.eps,
        },
    }
    tensors = [(f"param:{k}", v) for k, v in net.params().items()]
    tensors += [(f"stat:{k}", v) for k, v in net.bn_stats().items()]
    if adam is not None:
        tensors += [(f"adam.m:{k}", v) for k, v in adam.m.items()]
        tensors += [(f"adam.v:{k}", v) for k, v in adam.v.items()]
    hjson = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(struct.pack("<I", len(hjson)))
        fh.write(hjson)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            fh.write(_pack_tensor(name, arr))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError("bad magic: not a PNET1 checkpoint")
    version = r.u16()
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version} cannot be read "
                              f"(this code reads {VERSION}); train again")
    try:
        header = json.loads(r.take(r.u32()).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc

    if not isinstance(header, dict):
        raise CheckpointError("corrupt header: not a JSON object")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"header lacks {', '.join(missing)}")

    groups = {"param": {}, "stat": {}, "adam.m": {}, "adam.v": {}}
    for _ in range(r.u32()):
        try:
            name = r.take(r.u16()).decode()
            dtype = np.dtype(r.take(r.u8()).decode())
        except (UnicodeDecodeError, TypeError) as exc:
            raise CheckpointError(f"corrupt tensor entry: {exc}") from exc
        shape = tuple(r.u32() for _ in range(r.u8()))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(r.take(count * dtype.itemsize), dtype=dtype)
        arr = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
        prefix, _, key = name.partition(":")
        if prefix not in groups:
            raise CheckpointError(f"unknown tensor group '{prefix}'")
        groups[prefix][key] = arr

    try:
        config = ModelConfig(**header["config"])
        np.dtype(header["dtype"])
        adam = None
        if header["adam"] is not None:
            a = header["adam"]
            adam = AdamState(groups["param"], beta1=a["beta1"],
                             beta2=a["beta2"], eps=a["eps"])
            adam.t = a["t"]
            adam.m = groups["adam.m"]
            adam.v = groups["adam.v"]
    except (TypeError, KeyError, ConfigError) as exc:
        raise CheckpointError(f"bad header: {exc!r}") from exc
    return Checkpoint(config=config, params=groups["param"],
                      bn_stats=groups["stat"], adam=adam,
                      epoch=header["epoch"], seed=header["seed"],
                      dtype=header["dtype"])


def restore_net(ckpt: Checkpoint) -> PostureNet:
    """Build a PostureNet carrying exactly the checkpoint's tensors.

    CheckpointError if the checkpoint lacks one of the net's parameters or
    running statistics, holds one the net does not have, or holds one of
    another shape.
    """
    from . import tensor

    net = PostureNet(ckpt.config, tensor.make_rng(0),
                     dtype=np.dtype(ckpt.dtype).type)
    net.set_params(ckpt.params, ckpt.bn_stats)
    return net
