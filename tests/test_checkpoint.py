"""Checkpoint container: bit-exact round trips and corruption handling."""

import json
import struct
from dataclasses import fields

import numpy as np
import pytest

from pressnet import tensor
from pressnet.checkpoint import (MAGIC, Checkpoint, load_checkpoint,
                                 restore_net, save_checkpoint)
from pressnet.errors import CheckpointError
from pressnet.model import ModelConfig, PostureNet
from pressnet.optim import AdamState, adam_step


def small_net(dtype=np.float32):
    cfg = ModelConfig(num_subjects=3, num_postures=4,
                      conv_channels=(1, 1, 2, 2), dense_width=4,
                      conv_dropout=(0.0, 0.0, 0.0, 0.0), dense_dropout=0.0,
                      input_hw=(29, 29))
    return PostureNet(cfg, tensor.make_rng(77), dtype=dtype)


class TestRoundTrip:
    def test_params_bitwise_identical(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net, epoch=7, seed=123)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 7
        assert ckpt.seed == 123
        orig = net.params()
        assert set(ckpt.params) == set(orig)
        for k in orig:
            assert ckpt.params[k].dtype == orig[k].dtype
            # bitwise: compare raw buffers, not just values
            assert ckpt.params[k].tobytes() == orig[k].tobytes()
        for k, v in net.bn_stats().items():
            assert ckpt.bn_stats[k].tobytes() == v.tobytes()

    def test_config_survives(self, tmp_path):
        net = small_net()
        save_checkpoint(tmp_path / "c.ckpt", net)
        ckpt = load_checkpoint(tmp_path / "c.ckpt")
        assert ckpt.config == net.config

    def test_adam_state_survives(self, tmp_path):
        net = small_net()
        state = AdamState(net.params(), base_lr=3e-4)
        # take a couple of steps so moments are non-trivial
        rng = tensor.make_rng(5)
        x = rng.normal(size=(4, 1, 29, 29)).astype(np.float32)
        lu = np.array([0, 1, 2, 0])
        lp = np.array([0, 1, 2, 3])
        for _ in range(2):
            pu, pp = net.forward(x, train=True)
            grads = net.backward(pu, pp, lu, lp, lam=0.5)
            adam_step(net.params(), grads, state)
        save_checkpoint(tmp_path / "a.ckpt", net, adam=state, epoch=2, seed=9)
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        assert ckpt.adam is not None
        assert ckpt.adam.t == state.t
        assert ckpt.adam.base_lr == state.base_lr
        for k in state.m:
            assert ckpt.adam.m[k].tobytes() == state.m[k].tobytes()
            assert ckpt.adam.v[k].tobytes() == state.v[k].tobytes()

    def test_no_adam_gives_none(self, tmp_path):
        save_checkpoint(tmp_path / "n.ckpt", small_net())
        assert load_checkpoint(tmp_path / "n.ckpt").adam is None

    def test_restored_net_same_outputs(self, tmp_path):
        net = small_net()
        save_checkpoint(tmp_path / "r.ckpt", net)
        other = restore_net(load_checkpoint(tmp_path / "r.ckpt"))
        x = tensor.make_rng(11).normal(size=(2, 1, 29, 29)).astype(np.float32)
        pu1, pp1 = net.forward(x)
        pu2, pp2 = other.forward(x)
        assert np.array_equal(pu1, pu2)
        assert np.array_equal(pp1, pp2)

    def test_float64_net_round_trips(self, tmp_path):
        net = small_net(dtype=np.float64)
        save_checkpoint(tmp_path / "d.ckpt", net)
        ckpt = load_checkpoint(tmp_path / "d.ckpt")
        assert ckpt.dtype == "float64"
        for k, v in net.params().items():
            assert ckpt.params[k].dtype == np.float64
            assert ckpt.params[k].tobytes() == v.tobytes()

    def test_config_header_carries_every_field(self):
        cfg = small_net().config
        stored = cfg.as_dict()
        assert set(stored) == {f.name for f in fields(ModelConfig)}
        assert json.loads(json.dumps(stored)) == stored
        assert ModelConfig(**stored) == cfg


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOPE!" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "v9.ckpt"
        p.write_bytes(MAGIC + struct.pack("<H", 9) + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        net = small_net()
        full = tmp_path / "full.ckpt"
        save_checkpoint(full, net, epoch=1)
        blob = full.read_bytes()
        # chop at several depths: inside header, inside tensor table
        for frac in (0.1, 0.5, 0.9):
            cut = tmp_path / f"cut{frac}.ckpt"
            cut.write_bytes(blob[:int(len(blob) * frac)])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.ckpt"
        p.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_garbage_header_json(self, tmp_path):
        body = b"{not json"
        blob = (MAGIC + struct.pack("<H", 1)
                + struct.pack("<I", len(body)) + body
                + struct.pack("<I", 0))
        p = tmp_path / "g.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)
