"""Versioned binary checkpoint container, all integers little-endian:

    magic   b"PNET1"
    version u16 (currently 6)
    header  u32 length + UTF-8 JSON: config (the two class counts,
            num_subjects and num_postures), epoch, seed, adam (the
            optimizer's step count) and tensors, the table of contents:
            one [name, dtype str, shape] per tensor in file order, each
            name prefixed param:/stat:/adam.m:/adam.v:
    tensors each entry's raw little-endian bytes, and nothing after

Every checkpoint is a resumable training state: it holds the Adam moments.
The table is the one record of the net's dtype: every parameter, statistic
and moment has the same float dtype, or the file is refused. Round-trips
are bit-exact. Versions 1 and 2, which kept a binary record per tensor,
version 3, which could omit the moments and stored Adam's constants,
version 4, whose header repeated the dtype and whose config held the
leaky slope and L2 weight, and version 5, whose config held the
architecture's channels, widths, dropout rates and input size, are
refused by their number, with no migration.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import CheckpointError, ConfigError, UsageError
from .model import ModelConfig, PostureNet
from .optim import AdamState
from .tensor import make_rng

MAGIC = b"PNET1"
VERSION = 6
HEADER_KEYS = ("config", "epoch", "seed", "adam", "tensors")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict
    bn_stats: dict
    adam: AdamState
    epoch: int
    seed: int
    dtype: np.dtype  # every tensor's


def save_checkpoint(path, net: PostureNet, adam: AdamState, epoch: int,
                    seed: int) -> None:
    groups = {"param": net.params(), "stat": net.bn_stats(),
              "adam.m": adam.m, "adam.v": adam.v}
    tensors = [(f"{g}:{k}", np.ascontiguousarray(v, v.dtype.newbyteorder("<")))
               for g, d in groups.items() for k, v in d.items()]
    header = {"config": asdict(net.config), "epoch": int(epoch),
              "seed": int(seed), "adam": int(adam.t),
              "tensors": [[n, v.dtype.str, list(v.shape)] for n, v in tensors]}
    hjson = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<HI", VERSION, len(hjson)) + hjson)
        fh.writelines(v.data for _, v in tensors)  # no copies


def load_checkpoint(path) -> Checkpoint:
    """UsageError if path cannot be read, CheckpointError if it is corrupt.
    The loaded moments become the returned AdamState as they are."""
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    if buf[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic: not a PNET1 checkpoint")
    try:
        (version,) = struct.unpack_from("<H", buf, len(MAGIC))
        if version == VERSION:
            (hlen,) = struct.unpack_from("<I", buf, len(MAGIC) + 2)
    except struct.error:
        raise CheckpointError("checkpoint truncated") from None
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version} cannot be read "
                              f"(this code reads {VERSION}); train again")
    offset = len(MAGIC) + 6 + hlen
    try:
        header = json.loads(buf[len(MAGIC) + 6:offset])
    except ValueError as exc:
        raise CheckpointError(f"corrupt header: {exc}") from exc
    if not (isinstance(header, dict)
            and isinstance(header.get("tensors", []), list)):
        raise CheckpointError("corrupt header: not an object with a table")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"header lacks {', '.join(missing)}")
    groups = {"param": {}, "stat": {}, "adam.m": {}, "adam.v": {}}
    for entry in header["tensors"]:
        try:
            name, dstr, shape = entry
            group, _, key = name.partition(":")
            dtype = np.dtype(dstr)
            if (not isinstance(dstr, str) or dtype.kind not in "biuf"
                    or not all(type(d) is int and d >= 0 for d in shape)):
                raise ValueError
        except (AttributeError, TypeError, ValueError):
            raise CheckpointError(f"bad tensor entry {entry!r}") from None
        if group not in groups:
            raise CheckpointError(f"unknown tensor group '{group}'")
        count = math.prod(shape)
        if offset + count * dtype.itemsize > len(buf):
            raise CheckpointError(f"checkpoint truncated in tensor '{name}'")
        arr = np.frombuffer(buf, dtype, count, offset).reshape(shape)
        groups[group][key] = arr.astype(dtype.newbyteorder("="))
        offset += arr.nbytes
    if offset != len(buf):
        raise CheckpointError(f"{len(buf) - offset} bytes after the tensors")
    dtypes = {a.dtype for g in groups.values() for a in g.values()}
    if len(dtypes) != 1 or next(iter(dtypes)).kind != "f":
        raise CheckpointError("tensors must share one float dtype, got "
                              f"{sorted(d.name for d in dtypes)}")

    config, names = header["config"], {f.name for f in fields(ModelConfig)}
    if not isinstance(config, dict):
        raise CheckpointError("bad header: config is not an object")
    odd = sorted(config.keys() ^ names)
    if odd:
        raise CheckpointError(f"bad header: config key '{odd[0]}' is "
                              + ("missing" if odd[0] in names else "unknown"))
    try:
        config = ModelConfig(**config)
    except ConfigError as exc:
        raise CheckpointError(f"bad header: {exc}") from exc
    for key, what in (("epoch", "epoch"), ("seed", "seed"),
                      ("adam", "adam step count")):
        if type(header[key]) is not int or header[key] < 0:
            raise CheckpointError(f"bad header: {what} {header[key]!r} is "
                                  "not a non-negative integer")
    adam = AdamState({})  # built empty: the file's moments are its state
    adam.t, adam.m, adam.v = header["adam"], groups["adam.m"], groups["adam.v"]
    shapes = {k: p.shape for k, p in groups["param"].items()}
    for g in ("adam.m", "adam.v"):
        if {k: m.shape for k, m in groups[g].items()} != shapes:
            raise CheckpointError(f"{g} does not match the parameters' "
                                  "names and shapes")
    return Checkpoint(config, groups["param"], groups["stat"], adam,
                      header["epoch"], header["seed"], dtypes.pop())


def restore_net(ckpt: Checkpoint) -> PostureNet:
    """Build a PostureNet carrying exactly the checkpoint's tensors.

    CheckpointError if the checkpoint lacks one of the net's parameters or
    running statistics, holds one the net does not have, or holds one of
    another shape.
    """
    net = PostureNet(ckpt.config, make_rng(0), dtype=ckpt.dtype.type)
    net.set_params(ckpt.params, ckpt.bn_stats)
    return net
