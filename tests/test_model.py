"""End-to-end model contracts: shapes, determinism, gradients, loss algebra."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from pressnet import tensor
from pressnet.dataio import GRID_COLS, GRID_ROWS
from pressnet.errors import ConfigError, ShapeError, UsageError
from pressnet.layers import (BatchNorm2D, Conv2D, Dense, Dropout, Flatten,
                             LeakyReLU, MaxPool2D)
from pressnet.model import ModelConfig, PostureNet
from pressnet.optim import AdamState, adam_step

from util import (SMALL_NET, grads_state, held_activations, is_channels_last,
                  max_rel_err, one_pass_forward, set_net_constants, small_net)

CFG = ModelConfig(num_subjects=2, num_postures=3)
PAPER = ModelConfig(num_subjects=13, num_postures=17)


def make_batch(rng, config, n):
    x = rng.random(size=(n, 1, GRID_ROWS, GRID_COLS))
    yu = rng.integers(0, config.num_subjects, size=n)
    yp = rng.integers(0, config.num_postures, size=n)
    return x, yu, yp


class TestConfig:
    def test_fields_are_the_two_class_counts(self):
        assert [f.name for f in fields(ModelConfig)] == [
            "num_subjects", "num_postures"]
        assert ModelConfig(13, 17) == PAPER

    def test_default_feature_shapes(self):
        assert PostureNet.feature_shapes() == [
            (30, 62), (14, 30), (12, 28), (5, 13), (3, 11), (1, 9)]
        net = PostureNet(PAPER, tensor.make_rng(39))
        assert net.params()["fc1.w"].shape == (128 * 1 * 9, 256)

    @pytest.mark.parametrize("field, value", [
        ("num_subjects", 2.5), ("num_postures", True),
        pytest.param("num_subjects", np.int64(3), id="num_subjects-numpy-int")])
    def test_sizes_must_be_ints(self, field, value):
        # a float size used to be truncated when the layers were built
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            ModelConfig(**{"num_subjects": 2, "num_postures": 2, field: value})

    def test_invalid_ranges(self):
        with pytest.raises(ConfigError, match="at least 2 subjects"):
            ModelConfig(num_subjects=1, num_postures=3)
        with pytest.raises(ConfigError, match="2 postures"):
            ModelConfig(num_subjects=2, num_postures=1)


class TestForward:
    def test_output_shapes_and_normalization(self, small_net):
        net = PostureNet(PAPER, tensor.make_rng(40))
        rng = tensor.make_rng(41)
        x = rng.random(size=(2, 1, 32, 64)).astype(np.float32)
        pu, pp = net.forward(x)
        assert pu.shape == (2, 13) and pp.shape == (2, 17)
        assert np.allclose(pu.sum(axis=1), 1.0, atol=1e-6)
        assert np.allclose(pp.sum(axis=1), 1.0, atol=1e-6)

    def test_infer_mode_is_deterministic(self, small_net):
        net = PostureNet(CFG, tensor.make_rng(42), dtype=np.float64)
        x, _, _ = make_batch(tensor.make_rng(43), CFG, 3)
        a = net.forward(x)
        b = net.forward(x)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_wrong_input_shape(self, small_net):
        net = PostureNet(CFG, tensor.make_rng(44))
        for shape in ((2, 1, 16, 16), (2, 1, 64, 32), (2, 2, 32, 64)):
            with pytest.raises(ShapeError, match=r"\[B,1,32,64\]"):
                net.forward(np.ones(shape))


class TestBlockedInference:
    B = PostureNet.EVAL_BLOCK

    @staticmethod
    def _net(seed):
        # running statistics away from their initial 0 and 1, so that every
        # batch norm does work
        net = PostureNet(CFG, tensor.make_rng(seed))
        rng = tensor.make_rng(seed, 1)
        for bn in (layer for _, layer in net.stages
                   if isinstance(layer, BatchNorm2D)):
            bn.running_mean[:] = rng.normal(0.0, 0.2, size=bn.gamma.size)
            bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.gamma.size)
        return net

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 5])
    def test_blocks_concatenate_and_keep_the_argmax(self, n, small_net):
        cfg = CFG
        net = self._net(46)
        x = make_batch(tensor.make_rng(47, n), cfg, n)[0].astype(np.float32)
        got = net.forward(x)
        blocks = [net.forward(x[s:s + self.B]) for s in range(0, n, self.B)]
        whole = one_pass_forward(net, x)
        for head, probs in enumerate(got):
            assert probs.shape == (n, (cfg.num_subjects, cfg.num_postures)[head])
            want = np.concatenate([b[head] for b in blocks])
            assert probs.tobytes() == want.tobytes()
            assert (probs.argmax(axis=1) == whole[head].argmax(axis=1)).all()
            assert np.abs(probs - whole[head]).max() <= 1e-6

    @pytest.mark.parametrize("frames", ["random", "zeros", "constant"])
    @pytest.mark.parametrize("cfg, dtype", [
        ({}, np.float32), (SMALL_NET, np.float32), ({}, np.float64)])
    def test_pooled_blocks_change_no_bit(self, cfg, dtype, frames,
                                         monkeypatch):
        # inference runs batch norm after the pool, on a cropped conv; its
        # probabilities are those of the stage order on the same blocks,
        # with gamma positive, negative and zero, in each rotation over
        # the channels. cfg holds the PostureNet constants set: none for
        # the paper's net
        set_net_constants(monkeypatch, **cfg)
        n = self.B + 3
        shape = (n, 1, GRID_ROWS, GRID_COLS)
        x = {"random": tensor.make_rng(53).random(shape),
             "zeros": np.zeros(shape),
             "constant": np.full(shape, 0.75)}[frames]
        net = PostureNet(PAPER, tensor.make_rng(54), dtype=dtype)
        rng = tensor.make_rng(55)
        bns = [layer for _, layer in net.stages
               if isinstance(layer, BatchNorm2D)]
        for turn in range(3):
            for i, bn in enumerate(bns):
                c = bn.gamma.size
                signs = np.roll([1.0, -1.0, 0.0], turn + i)[np.arange(c) % 3]
                bn.gamma[:] = signs * rng.uniform(0.5, 1.5, c)
                bn.beta[:] = rng.normal(0.0, 0.3, c)
                bn.running_mean[:] = rng.normal(0.0, 0.2, c)
                bn.running_var[:] = rng.uniform(0.5, 2.0, c)
            got = net.forward(x)
            blocks = [one_pass_forward(net, x[s:s + self.B])
                      for s in range(0, n, self.B)]
            for head, probs in enumerate(got):
                want = np.concatenate([b[head] for b in blocks])
                assert probs.dtype == dtype
                assert probs.tobytes() == want.tobytes(), (turn, head)

    @pytest.mark.parametrize("train", [False, True])
    def test_empty_batch_is_refused(self, train, small_net):
        net = self._net(45)
        with pytest.raises(ShapeError, match="B >= 1"):
            net.forward(np.ones((0, 1, 32, 64), dtype=np.float32), train=train,
                        rng=tensor.make_rng(45))

    def test_train_forward_is_one_pass(self, small_net):
        # every stage sees all n > B frames once, and the probabilities and
        # the running statistics are those of one unblocked pass
        small_net(CONV_DROPOUT=(0.1, 0.1, 0.1, 0.1), DENSE_DROPOUT=0.2)
        n = self.B + 3
        x, yu, yp = make_batch(tensor.make_rng(48), CFG, n)
        x = x.astype(np.float32)
        net, ref = self._net(49), self._net(49)
        batches = []
        for _, layer in net.stages + net.heads:
            def call(h, *args, fn=layer.forward, **kwargs):
                batches.append(len(h))
                return fn(h, *args, **kwargs)
            layer.forward = call
        got = net.forward(x, train=True, rng=tensor.make_rng(50))
        want = one_pass_forward(ref, x, train=True, rng=tensor.make_rng(50))
        assert batches == [n] * len(net.stages + net.heads)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        for key, stat in net.bn_stats().items():
            assert stat.tobytes() == ref.bn_stats()[key].tobytes(), key
        grads = net.backward(*got, yu, yp, 0.5)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_eval_memory_is_one_block(self):
        # peak traced allocation of a 512-frame default-config inference,
        # against twice the largest column matrix plus output any conv
        # builds for one block (conv2's); an unblocked pass needs
        # 512 / EVAL_BLOCK times that block's arrays
        net = PostureNet(PAPER, tensor.make_rng(51))
        x = tensor.make_rng(52).random((512, 1, GRID_ROWS, GRID_COLS),
                                       dtype=np.float32)
        shapes = PostureNet.feature_shapes()
        conv_hw = (shapes[0], shapes[2], shapes[4], shapes[5])
        channels = PostureNet.CONV_CHANNELS
        largest = max(self.B * h * w * (9 * cin + cout) * 4
                      for (h, w), cin, cout in zip(conv_hw,
                                                   (1, *channels[:3]),
                                                   channels))
        tracemalloc.start()
        try:
            net.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * largest, (peak, largest)


class TestBackward:
    def test_requires_train_forward(self, small_net):
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(45), dtype=np.float64)
        x, yu, yp = make_batch(tensor.make_rng(46), cfg, 2)
        pu, pp = net.forward(x, train=False)
        with pytest.raises(UsageError):
            net.backward(pu, pp, yu, yp, 0.5)

    def test_consumes_every_cache_and_runs_once(self, small_net):
        small_net(CONV_DROPOUT=(0.1, 0.1, 0.1, 0.1), DENSE_DROPOUT=0.2)
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(45))
        x, yu, yp = make_batch(tensor.make_rng(46), cfg, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(47))
        net.backward(pu, pp, yu, yp, 0.5)
        for name, layer in net.stages + net.heads:
            assert held_activations(layer) == [], name
        with pytest.raises(UsageError):
            net.backward(pu, pp, yu, yp, 0.5)

    def test_eval_forward_clears_every_cache(self, small_net):
        # an eval forward used to leave 21 of the paper net's 27 stages and
        # heads holding the train batch's activations
        small_net(CONV_DROPOUT=(0.1, 0.1, 0.1, 0.1), DENSE_DROPOUT=0.2)
        net = PostureNet(CFG, tensor.make_rng(48))
        x, yu, yp = make_batch(tensor.make_rng(49), CFG, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(50))
        net.backward(pu, pp, yu, yp, 0.5)  # fills every grads dict
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(51))
        net.forward(x)
        stages = net.stages + net.heads
        for name, layer in stages:
            assert held_activations(layer) == [], name
        before = grads_state(stages)
        with pytest.raises(UsageError):
            net.backward(pu, pp, yu, yp, 0.5)
        assert grads_state(stages) == before

    def test_failed_train_forward_leaves_backward_refused(self, small_net):
        # bn1 refuses a batch of one; conv1 used to keep it and bn1 the
        # batch of four before it, so backward ran into a shape error. The
        # forward clears every cache first, so the first head refuses
        net = PostureNet(CFG, tensor.make_rng(52))
        x, yu, yp = make_batch(tensor.make_rng(53), CFG, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(54))
        with pytest.raises(ConfigError):
            net.forward(x[:1], train=True, rng=tensor.make_rng(55))
        assert held_activations(dict(net.stages)["bn1"]) == []
        with pytest.raises(UsageError, match="^Dense.backward "):
            net.backward(pu, pp, yu, yp, 0.5)

    def test_failed_train_forward_writes_no_gradient(self):
        # the stages after bn1, and both heads, used to keep the batch of
        # four, so backward wrote gradients into 10 layers (heads, fc1-2,
        # conv2-4, bn2-4) before bn1 refused
        cfg = ModelConfig(3, 4)
        net = PostureNet(cfg, tensor.make_rng(56))
        x, yu, yp = make_batch(tensor.make_rng(57), cfg, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(58))
        with pytest.raises(ConfigError):
            net.forward(x[:1], train=True, rng=tensor.make_rng(59))
        stages = net.stages + net.heads
        for name, layer in stages[1:]:  # conv1 holds the batch of one
            assert held_activations(layer) == [], name
        before = grads_state(stages)
        with pytest.raises(UsageError):
            net.backward(pu, pp, yu, yp, 0.5)
        assert grads_state(stages) == before

    def test_train_step_peak_is_one_step(self):
        # peak traced allocation of a default-config batch-64 train step,
        # after a first step. The caches one step holds come to less than
        # two float32 copies of every conv and pool map; on top of them the
        # largest conv builds its column matrix and output. Layers that
        # keep their caches past backward go over this bound.
        cfg = PAPER
        net = PostureNet(cfg, tensor.make_rng(73))
        b = 64
        x, yu, yp = make_batch(tensor.make_rng(74), cfg, b)
        x = x.astype(np.float32)
        # conv1 pool1 conv2 pool2 conv3 conv4
        shapes = PostureNet.feature_shapes()
        c1, c2, c3, c4 = PostureNet.CONV_CHANNELS
        maps = sum(b * c * h * w * 4
                   for c, (h, w) in zip((c1, c1, c2, c2, c3, c4), shapes))
        conv_hw = (shapes[0], shapes[2], shapes[4], shapes[5])
        largest = max(b * h * w * (9 * cin + cout) * 4
                      for (h, w), cin, cout in zip(conv_hw, (1, c1, c2, c3),
                                                   (c1, c2, c3, c4)))

        def step():
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(75))
            net.backward(pu, pp, yu, yp, 0.5)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest + 2 * maps, (peak, largest, maps)

    def test_lambda_zero_subject_head_gets_only_l2(self, small_net):
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(47), dtype=np.float64)
        x, yu, yp = make_batch(tensor.make_rng(48), cfg, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(49))
        grads = net.backward(pu, pp, yu, yp, 0.0)
        w = net.params()["head_subject.w"]
        assert np.array_equal(grads["head_subject.w"],
                              2 * PostureNet.L2_SIGMA * w)
        assert np.array_equal(grads["head_subject.b"], np.zeros_like(grads["head_subject.b"]))

    def test_lambda_one_invariant_to_posture_permutation(self, small_net):
        cfg = CFG
        rng_labels = tensor.make_rng(50)
        x, yu, yp = make_batch(rng_labels, cfg, 4)
        perm = rng_labels.permutation(cfg.num_postures)

        def grads_with(posture_labels):
            net = PostureNet(cfg, tensor.make_rng(51), dtype=np.float64)
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(52))
            return net.backward(pu, pp, yu, posture_labels, 1.0)

        g1 = grads_with(yp)
        g2 = grads_with(perm[yp])
        for key in g1:
            assert np.array_equal(g1[key], g2[key]), key

    def test_lambda_zero_invariant_to_subject_permutation(self, small_net):
        cfg = CFG
        rng_labels = tensor.make_rng(53)
        x, yu, yp = make_batch(rng_labels, cfg, 4)
        perm = rng_labels.permutation(cfg.num_subjects)

        def grads_with(subject_labels):
            net = PostureNet(cfg, tensor.make_rng(54), dtype=np.float64)
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(55))
            return net.backward(pu, pp, subject_labels, yp, 0.0)

        g1 = grads_with(yu)
        g2 = grads_with(perm[yu])
        for key in g1:
            assert np.array_equal(g1[key], g2[key]), key

    def test_duplicated_batch_keeps_mean_gradient(self, small_net):
        cfg = CFG
        x, yu, yp = make_batch(tensor.make_rng(56), cfg, 3)
        x2 = np.concatenate([x, x]); yu2 = np.concatenate([yu, yu])
        yp2 = np.concatenate([yp, yp])

        def grads_for(xb, yub, ypb):
            net = PostureNet(cfg, tensor.make_rng(57), dtype=np.float64)
            pu, pp = net.forward(xb, train=True)
            return net.backward(pu, pp, yub, ypb, 0.5)

        g1 = grads_for(x, yu, yp)
        g2 = grads_for(x2, yu2, yp2)
        for key in g1:
            # an absolute floor at roundoff scale, for entries near 0
            scale = max(np.max(np.abs(g1[key])), np.max(np.abs(g2[key])))
            diff = np.max(np.abs(g1[key] - g2[key]))
            assert diff <= 1e-12 + 1e-8 * scale, key

    def test_full_finite_difference_small(self, small_net):
        # a fast whole-model gradient check; the acceptance suite runs the
        # larger 2/2/4/4 configuration
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(58), dtype=np.float64)
        x, yu, yp = make_batch(tensor.make_rng(59), cfg, 2)
        lam = 0.4

        def total_loss():
            pu, pp = net.forward(x, train=True)
            return net.loss(pu, pp, yu, yp, lam)[0]

        pu, pp = net.forward(x, train=True)
        grads = net.backward(pu, pp, yu, yp, lam)
        h = 1e-6
        worst = 0.0
        for key, p in net.params().items():
            flat = p.reshape(-1)
            idx = [0, flat.size // 2, flat.size - 1]
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                fp = total_loss()
                flat[i] = orig - h
                fm = total_loss()
                flat[i] = orig
                fd = (fp - fm) / (2 * h)
                a = grads[key].reshape(-1)[i]
                # floor 1e-5: central differences on an O(1) float64 loss
                # carry ~1e-10 noise
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
                worst = max(worst, err)
        assert worst <= 1e-4


    def test_grads_keyed_like_params_and_stats_stay_live(self, small_net):
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(8), dtype=np.float64)
        stats = net.bn_stats()
        before = {k: v.copy() for k, v in stats.items()}
        x, yu, yp = make_batch(tensor.make_rng(9), cfg, 4)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(10))
        grads = net.backward(pu, pp, yu, yp, 0.5)
        assert list(grads) == list(net.params())
        assert net.l2_weight_keys() == [
            "conv1.w", "conv2.w", "conv3.w", "conv4.w",
            "fc1.w", "fc2.w", "head_subject.w", "head_posture.w"]
        # running statistics are updated in place: earlier views see them
        for k, v in net.bn_stats().items():
            assert v is stats[k]
            assert not np.array_equal(v, before[k]), k

    def test_conv1_input_grad_changes_no_bit(self, small_net):
        # conv1's input is the data: skipping its gradient must leave every
        # parameter gradient, and the Adam update built on them, unchanged
        small_net(CONV_CHANNELS=(2, 2, 2, 2), CONV_DROPOUT=(0.1,) * 4,
                  DENSE_DROPOUT=0.5)
        cfg = CFG
        x, yu, yp = make_batch(tensor.make_rng(21), cfg, 4)
        x = x.astype(np.float32)
        results = []
        for needs_input_grad in (True, False):
            net = PostureNet(cfg, tensor.make_rng(20))
            conv1 = dict(net.stages)["conv1"]
            assert conv1.needs_input_grad is False
            conv1.needs_input_grad = needs_input_grad
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(22))
            grads = net.backward(pu, pp, yu, yp, 0.5)
            state = AdamState(net.params())
            adam_step(net.params(), grads, state, lr=1e-3)
            results.append((grads, net.params()))
        (g_on, p_on), (g_off, p_off) = results
        assert list(g_on) == list(g_off)
        for key in g_on:
            assert g_on[key].tobytes() == g_off[key].tobytes(), key
            assert p_on[key].tobytes() == p_off[key].tobytes(), key



class TestStages:
    def test_stage_names_types_and_param_order(self, small_net):
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(80))
        assert [name for name, _ in net.stages] == (
            "conv1 bn1 pool1 act1 drop1 conv2 bn2 pool2 act2 drop2 "
            "conv3 bn3 act3 drop3 conv4 bn4 act4 drop4 flatten "
            "fc1 act_fc1 drop_fc1 fc2 act_fc2 drop_fc2").split()
        kinds = {"conv": Conv2D, "bn": BatchNorm2D, "pool": MaxPool2D,
                 "act": LeakyReLU, "drop": Dropout, "flatten": Flatten,
                 "fc": Dense}
        for name, layer in net.stages:
            kind = name.rstrip("0123456789").split("_")[0]
            assert type(layer) is kinds[kind], name
        assert [(n, type(layer)) for n, layer in net.heads] == [
            ("head_subject", Dense), ("head_posture", Dense)]
        keys = [k for i in range(1, 5)
                for k in (f"conv{i}.w", f"bn{i}.gamma", f"bn{i}.beta")]
        keys += [f"{n}.{k}" for n in ("fc1", "fc2", "head_subject",
                                      "head_posture") for k in ("w", "b")]
        assert list(net.params()) == keys
        assert list(net.bn_stats()) == [
            f"bn{i}.{k}" for i in range(1, 5)
            for k in ("running_mean", "running_var")]


class TestLayout:
    def test_conv_blocks_stay_channels_last(self, monkeypatch):
        # every 4-D array into and out of a conv-block layer, from the data
        # to Flatten, forward and backward, has its NCHW shape and is
        # channels-last: a fallback copy to NCHW anywhere fails here. The
        # paper's dropout rates stay, so every Dropout draws a mask and
        # multiplies the gradient by it.
        set_net_constants(monkeypatch, CONV_CHANNELS=(3, 4, 5, 6),
                          DENSE_WIDTH=8)
        cfg = ModelConfig(num_subjects=3, num_postures=4)
        net = PostureNet(cfg, tensor.make_rng(70))
        assert all(layer.rate > 0 for layer in dict(net.stages).values()
                   if isinstance(layer, Dropout))
        shapes = iter(PostureNet.feature_shapes())
        allowed = {(1, GRID_ROWS, GRID_COLS)}
        cin = 1
        for i, ch in enumerate(PostureNet.CONV_CHANNELS):
            conv_hw = next(shapes)
            allowed.add((ch, *conv_hw))
            if i < 2:
                # inference crops a pooled block's conv input, and so its
                # output, to the rows and columns the pool reads
                rows, cols = MaxPool2D.reads(*conv_hw)
                allowed |= {(cin, rows + 2, cols + 2), (ch, rows, cols)}
                allowed.add((ch, *next(shapes)))
            cin = ch
        # the conv-block stages and flatten: everything before fc1
        names = [name for name, _ in net.stages]
        layers = dict(net.stages[:names.index("fc1")])
        seen = []

        def wrap(name, phase, fn):
            def call(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                seen.extend((name, phase, arr) for arr in (a, out)
                            if arr is not None and arr.ndim == 4)
                return out
            return call

        for name, layer in layers.items():
            layer.forward = wrap(name, "fwd", layer.forward)
            layer.backward = wrap(name, "bwd", layer.backward)

        x, yu, yp = make_batch(tensor.make_rng(71), cfg, 4)
        x = x.astype(np.float32)
        pu, pp = net.forward(x, train=True, rng=tensor.make_rng(72))
        net.backward(pu, pp, yu, yp, 0.5)
        net.forward(x)
        assert {(n, p) for n, p, _ in seen} == {
            (n, p) for n in layers for p in ("fwd", "bwd")}
        # in and out of three calls per layer, less conv1's None input
        # gradient and Flatten's 2-D side (two forwards, one backward)
        assert len(seen) == 2 * 3 * len(layers) - 1 - 3
        for name, phase, arr in seen:
            assert arr.shape[0] == 4, (name, phase)
            assert arr.shape[1:] in allowed, (name, phase)
            assert is_channels_last(arr), (name, phase, arr.shape)


class TestLoss:
    def test_loss_includes_l2(self, small_net):
        cfg = CFG
        net = PostureNet(cfg, tensor.make_rng(60), dtype=np.float64)
        x, yu, yp = make_batch(tensor.make_rng(61), cfg, 2)
        pu, pp = net.forward(x)
        total, lu, lp, l2 = net.loss(pu, pp, yu, yp, 0.5)
        assert l2 > 0.0
        assert total == pytest.approx(0.5 * lu + 0.5 * lp + l2)
