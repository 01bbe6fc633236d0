"""Checkpoint container: bit-exact round trips and corruption handling."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from pressnet import tensor
from pressnet.checkpoint import (HEADER_KEYS, MAGIC, VERSION, Checkpoint,
                                 load_checkpoint, restore_net, save_checkpoint)
from pressnet.errors import CheckpointError
from pressnet.model import ModelConfig, PostureNet
from pressnet.optim import AdamState, adam_step

from util import pack_checkpoint, small_net, tensor_table

# every test builds its nets with the small constants
pytestmark = pytest.mark.usefixtures("small_net")


def make_net(dtype=np.float32):
    return PostureNet(ModelConfig(num_subjects=3, num_postures=4),
                      tensor.make_rng(77), dtype=dtype)


def save(path, net, epoch=0, seed=0):
    """save_checkpoint with fresh (all-zero) Adam moments."""
    save_checkpoint(path, net, AdamState(net.params()), epoch, seed)


def zero_moments(tensors):
    """Zero adam.m and adam.v entries for each param: entry of tensors."""
    params = [(n.partition(":")[2], v) for n, v in tensors
              if n.startswith("param:")]
    return [(f"adam.{g}:{k}", np.zeros_like(v)) for g in "mv"
            for k, v in params]


class TestRoundTrip:
    def test_params_bitwise_identical(self, tmp_path):
        net = make_net()
        path = tmp_path / "net.ckpt"
        save(path, net, epoch=7, seed=123)
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
        net = make_net()
        save(tmp_path / "c.ckpt", net)
        ckpt = load_checkpoint(tmp_path / "c.ckpt")
        assert ckpt.config == net.config

    def test_adam_state_survives(self, tmp_path):
        net = make_net()
        state = AdamState(net.params())
        # take a couple of steps so moments are non-trivial
        rng = tensor.make_rng(5)
        x = rng.normal(size=(4, 1, 32, 64)).astype(np.float32)
        lu = np.array([0, 1, 2, 0])
        lp = np.array([0, 1, 2, 3])
        for _ in range(2):
            pu, pp = net.forward(x, train=True)
            grads = net.backward(pu, pp, lu, lp, lam=0.5)
            adam_step(net.params(), grads, state, lr=3e-4)
        save_checkpoint(tmp_path / "a.ckpt", net, adam=state, epoch=2, seed=9)
        blob = (tmp_path / "a.ckpt").read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 2)
        assert json.loads(blob[len(MAGIC) + 6:][:hlen])["adam"] == 2
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        assert ckpt.adam.t == state.t == 2
        for k in state.m:
            assert ckpt.adam.m[k].tobytes() == state.m[k].tobytes()
            assert ckpt.adam.v[k].tobytes() == state.v[k].tobytes()

    def test_adam_state_is_built_from_the_loaded_moments(self, tmp_path,
                                                         monkeypatch):
        net = make_net()
        save(tmp_path / "a.ckpt", net)

        def refuse(*args, **kwargs):
            raise AssertionError("zero moments allocated only to be replaced")

        monkeypatch.setattr(np, "zeros_like", refuse)
        ckpt = load_checkpoint(tmp_path / "a.ckpt")
        assert list(ckpt.adam.m) == list(net.params())
        assert list(ckpt.adam.v) == list(net.params())

    def test_save_load_save_gives_the_same_bytes(self, tmp_path):
        # a restored checkpoint written again is the file it came from
        net = make_net()
        state = AdamState(net.params())
        rng = tensor.make_rng(6)
        x = rng.normal(size=(4, 1, 32, 64)).astype(np.float32)
        pu, pp = net.forward(x, train=True)
        grads = net.backward(pu, pp, np.array([0, 1, 2, 0]),
                             np.array([0, 1, 2, 3]), lam=0.5)
        adam_step(net.params(), grads, state, lr=3e-4)
        first = tmp_path / "first.ckpt"
        save_checkpoint(first, net, state, epoch=3, seed=8)
        ckpt = load_checkpoint(first)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, restore_net(ckpt), ckpt.adam, ckpt.epoch,
                        ckpt.seed)
        assert again.read_bytes() == first.read_bytes()

    def test_restored_net_same_outputs(self, tmp_path):
        net = make_net()
        save(tmp_path / "r.ckpt", net)
        other = restore_net(load_checkpoint(tmp_path / "r.ckpt"))
        x = tensor.make_rng(11).normal(size=(2, 1, 32, 64)).astype(np.float32)
        pu1, pp1 = net.forward(x)
        pu2, pp2 = other.forward(x)
        assert np.array_equal(pu1, pu2)
        assert np.array_equal(pp1, pp2)

    def test_float64_net_round_trips(self, tmp_path):
        # the tensor table is the file's one record of the dtype
        net = make_net(dtype=np.float64)
        save(tmp_path / "d.ckpt", net)
        ckpt = load_checkpoint(tmp_path / "d.ckpt")
        assert ckpt.dtype == np.float64
        for k, v in net.params().items():
            assert ckpt.params[k].dtype == np.float64
            assert ckpt.params[k].tobytes() == v.tobytes()
        restored = restore_net(ckpt)
        assert restored.dtype is np.float64
        save_checkpoint(tmp_path / "again.ckpt", restored, ckpt.adam,
                        ckpt.epoch, ckpt.seed)
        assert (tmp_path / "again.ckpt").read_bytes() == \
            (tmp_path / "d.ckpt").read_bytes()

    def test_config_header_carries_every_field(self, tmp_path):
        # the header's config is the two class counts and nothing else
        save(tmp_path / "h.ckpt", make_net())
        blob = (tmp_path / "h.ckpt").read_bytes()
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 2)
        stored = json.loads(blob[len(MAGIC) + 6:][:hlen])["config"]
        assert stored == {"num_postures": 4, "num_subjects": 3}
        assert ModelConfig(**stored) == make_net().config


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

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_old_version_is_refused(self, tmp_path, version):
        # the magic and the version number are all a refusal reads
        old = tmp_path / f"v{version}.ckpt"
        old.write_bytes(MAGIC + struct.pack("<H", version))
        with pytest.raises(CheckpointError,
                           match=f"version {version} .*train again") as info:
            load_checkpoint(old)
        assert "\n" not in str(info.value)

    def test_truncated_file(self, tmp_path):
        net = make_net()
        full = tmp_path / "full.ckpt"
        save(full, net, epoch=1)
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
        blob = MAGIC + struct.pack("<HI", VERSION, len(body)) + body
        p = tmp_path / "g.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


class TestIncompleteContents:
    """A file that parses but does not hold exactly the net's tensors, or
    whose header lacks a field, is refused with the offending name."""

    @staticmethod
    def parts(net):
        header = {"config": asdict(net.config), "epoch": 0, "seed": 0,
                  "adam": 0}
        tensors = [(f"param:{k}", v) for k, v in net.params().items()]
        tensors += [(f"stat:{k}", v) for k, v in net.bn_stats().items()]
        tensors += zero_moments(tensors)
        header["tensors"] = tensor_table(tensors)
        return header, tensors

    def test_packer_writes_save_checkpoint_bytes(self, tmp_path):
        net = make_net()
        save(tmp_path / "n.ckpt", net)
        assert pack_checkpoint(*self.parts(net)) == \
            (tmp_path / "n.ckpt").read_bytes()

    @pytest.mark.parametrize("edit, key", [
        (lambda t: [e for e in t if e[0] != "param:conv1.w"], "conv1.w"),
        (lambda t: [e for e in t if e[0] != "stat:bn2.running_mean"],
         "bn2.running_mean"),
        (lambda t: [(n, np.ones(1, np.float32)
                     if n == "stat:bn3.running_var" else v) for n, v in t],
         "bn3.running_var"),
        (lambda t: [(n, v.reshape(-1) if n == "param:conv3.w" else v)
                    for n, v in t], "conv3.w"),
        (lambda t: t + [("stat:bn9.running_mean", np.zeros(2, np.float32))],
         "bn9.running_mean"),
        (lambda t: t + [("param:fc3.w", np.zeros((4, 4), np.float32))],
         "fc3.w"),
    ], ids=["missing-param", "missing-stat", "stat-shape", "param-shape",
            "unknown-stat", "unknown-param"])
    def test_restore_refuses(self, tmp_path, edit, key):
        header, tensors = self.parts(make_net())
        # the moments follow the edited parameters, so the file loads
        tensors = [e for e in edit(tensors) if not e[0].startswith("adam.")]
        tensors += zero_moments(tensors)
        header["tensors"] = tensor_table(tensors)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        ckpt = load_checkpoint(path)
        with pytest.raises(CheckpointError, match=key):
            restore_net(ckpt)

    @pytest.mark.parametrize("edit, group", [
        (lambda t: [e for e in t if e[0] != "adam.m:conv2.w"], "adam.m"),
        (lambda t: [(n, v.reshape(-1) if n == "adam.v:fc1.w" else v)
                    for n, v in t], "adam.v"),
        (lambda t: t + [("adam.m:fc3.w", np.zeros((4, 4), np.float32))],
         "adam.m"),
        (lambda t: [e for e in t if not e[0].startswith("adam.v:")],
         "adam.v"),
    ], ids=["missing-moment", "moment-shape", "unknown-moment", "no-v"])
    def test_moments_must_match_the_parameters(self, tmp_path, edit, group):
        # such a file used to load, then fail a resume with a KeyError
        header, tensors = self.parts(make_net())
        tensors = edit(tensors)
        header["tensors"] = tensor_table(tensors)
        path = tmp_path / "m.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match=group):
            load_checkpoint(path)

    @pytest.mark.parametrize("prefix, dtype", [
        ("adam.", np.float64), ("stat:", np.float64), ("", np.int32)],
        ids=["float64-moments", "float64-stats", "int-tensors"])
    def test_tensors_must_share_one_float_dtype(self, tmp_path, prefix,
                                                dtype):
        # float64 moments beside float32 parameters used to load and resume
        # in mixed precision; the header's dtype was all the net followed
        header, tensors = self.parts(make_net())
        tensors = [(n, v.astype(dtype) if n.startswith(prefix) else v)
                   for n, v in tensors]
        header["tensors"] = tensor_table(tensors)
        path = tmp_path / "d.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match="one float dtype") as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_refused_set_params_writes_nothing(self):
        net = make_net()
        before = {k: v.copy() for k, v in net.params().items()}
        params = {k: v + 1 for k, v in net.params().items()}
        stats = dict(net.bn_stats())
        del stats["bn4.running_var"]
        with pytest.raises(CheckpointError, match="bn4.running_var"):
            net.set_params(params, stats)
        for k, v in net.params().items():
            assert v.tobytes() == before[k].tobytes()

    @pytest.mark.parametrize("field", HEADER_KEYS)
    def test_header_field_missing(self, tmp_path, field):
        header, tensors = self.parts(make_net())
        del header[field]
        path = tmp_path / "h.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda h: h["config"].update(bogus=1), "bogus"),
        (lambda h: h["config"].update(num_postures=1), "2 postures"),
        (lambda h: h["config"].update(input_hw=[32]), "input_hw"),
        (lambda h: h["config"].update(num_subjects=2.5), "num_subjects"),
        (lambda h: h.update(adam={"t": 1}), "step count"),
        (lambda h: h.update(adam=None), "step count"),
        (lambda h: h.update(adam=-1), "step count"),
        (lambda h: h.update(adam=1.0), "step count"),
        (lambda h: h["config"].update(conv_dropout=["x", 0, 0, 0]),
         "conv_dropout"),
        (lambda h: h["config"].update(l2_sigma=float("nan")), "l2_sigma"),
        (lambda h: h["config"].pop("num_postures"),
         "'num_postures' is missing"),
        (lambda h: h.update(config=[2, 3]), "config is not an object"),
    ], ids=["unknown-config-field", "bad-config-value", "short-input-hw",
            "float-num-subjects", "partial-adam", "null-adam",
            "negative-step", "float-step", "text-conv-dropout",
            "nan-l2-sigma", "missing-num-postures", "config-a-list"])
    def test_bad_header_values(self, tmp_path, edit, match):
        # input_hw, conv_dropout and l2_sigma were config fields of older
        # formats: each is now an unknown field
        header, tensors = self.parts(make_net())
        edit(header)
        path = tmp_path / "h.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match=match) as info:
            load_checkpoint(path)
        assert "Error(" not in str(info.value)

    @pytest.mark.parametrize("edit, match", [
        ({"epoch": "two", "seed": 2.5}, "epoch 'two'"),
        ({"seed": 2.5}, "seed 2.5"),
        ({"seed": -1}, "seed -1"),
        ({"epoch": True}, "epoch True"),
        ({"seed": False}, "seed False"),
        ({"epoch": None}, "epoch None"),
    ], ids=["text-epoch-float-seed", "float-seed", "negative-seed",
            "bool-epoch", "bool-seed", "null-epoch"])
    def test_epoch_and_seed_are_non_negative_ints(self, tmp_path, edit,
                                                  match):
        # such a file used to load, then fail late in a resume or a save
        header, tensors = self.parts(make_net())
        header.update(edit)
        path = tmp_path / "h.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match=match) as info:
            load_checkpoint(path)
        assert "\n" not in str(info.value)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "l.ckpt"
        path.write_bytes(pack_checkpoint([1, 2], []))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [
        ["param:conv1.w", "<x9", [1]],
        ["param:conv1.w", "|O", [1]],
        ["param:conv1.w", "<f4", [2, -1]],
        ["param:conv1.w", "<f4", [1.5]],
        ["param:conv1.w", "<f4"],
        [7, "<f4", [1]],
    ], ids=["unknown-dtype", "object-dtype", "negative-dim", "float-dim",
            "no-shape", "name-not-a-string"])
    def test_bad_table_entry(self, tmp_path, entry):
        header, tensors = self.parts(make_net())
        header["tensors"][0] = entry
        path = tmp_path / "e.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match="bad tensor entry"):
            load_checkpoint(path)

    def test_table_past_end_of_file(self, tmp_path):
        header, tensors = self.parts(make_net())
        name, dtype, shape = header["tensors"][-1]
        header["tensors"][-1] = [name, dtype, [shape[0] + 1, *shape[1:]]]
        path = tmp_path / "p.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match=f"truncated.*{name}"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        header, tensors = self.parts(make_net())
        path = tmp_path / "t.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors) + b"\0" * 3)
        with pytest.raises(CheckpointError, match="3 bytes after"):
            load_checkpoint(path)

    def test_unknown_group_prefix(self, tmp_path):
        header, tensors = self.parts(make_net())
        tensors[0] = ("grad:" + tensors[0][0].partition(":")[2], tensors[0][1])
        header["tensors"] = tensor_table(tensors)
        path = tmp_path / "u.ckpt"
        path.write_bytes(pack_checkpoint(header, tensors))
        with pytest.raises(CheckpointError, match="unknown tensor group 'grad'"):
            load_checkpoint(path)

    def test_size_is_prefix_header_and_table(self, tmp_path):
        net = make_net()
        path = tmp_path / "s.ckpt"
        save(path, net)
        blob = path.read_bytes()
        start = len(MAGIC) + 6
        (hlen,) = struct.unpack_from("<I", blob, start - 4)
        table = json.loads(blob[start:start + hlen])["tensors"]
        assert any(name.startswith("adam.v:") for name, _, _ in table)
        assert len(blob) == start + hlen + sum(
            np.dtype(d).itemsize * int(np.prod(s)) for _, d, s in table)
