"""Layer-level contracts: activations, batch norm, dropout, dense, conv and
pooling."""

import numpy as np
import pytest

from pressnet import tensor
from pressnet.errors import ConfigError, ShapeError, UsageError
from pressnet.layers import (BatchNorm2D, Conv2D, Dense, Dropout, Flatten,
                             LeakyReLU, MaxPool2D)

from util import (bn_backward_oracle, bn_eval_oracle, bn_eval_textbook,
                  bn_train_oracle, central_diff_grad, channels_last,
                  held_activations, is_channels_last,
                  leaky_relu_backward_oracle, max_rel_err)


class TestLeakyReLU:
    def test_values(self):
        act = LeakyReLU()
        x = np.array([[1.0, -1.0, 0.0]])
        out = act.forward(x, train=False)
        assert out.tolist() == [[1.0, -0.2, 0.0]]

    def test_gradient_branches(self):
        act = LeakyReLU()
        x = np.array([[2.0, -3.0]])
        act.forward(x, train=True)
        g = act.backward(np.ones_like(x))
        assert g.tolist() == [[1.0, 0.2]]

    def test_zero_uses_slope_branch(self):
        # x = 0 is not > 0, so forward returns slope*0 = 0 and grad = slope
        act = LeakyReLU()
        act.forward(np.array([[0.0]]), train=True)
        assert act.backward(np.array([[1.0]]))[0, 0] == pytest.approx(0.2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_as_select_form(self, dtype):
        # forward is max(x, slope * x); it must give np.where's bits, signed
        # zeros, subnormals and infinities included, in the input's layout
        info = np.finfo(dtype)
        special = np.array([0.0, -0.0, info.smallest_subnormal,
                            -info.smallest_subnormal, info.tiny / 3,
                            -info.tiny / 3, np.inf, -np.inf, info.max,
                            -info.max], dtype=dtype)
        rng = tensor.make_rng(3)
        x = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        x.reshape(-1)[:special.size] = special
        x = channels_last(x)
        slope = LeakyReLU.SLOPE
        act = LeakyReLU()
        want = np.where(x > 0, x, dtype(slope) * x)
        for train in (False, True):
            out = act.forward(x, train=train)
            assert out.dtype == want.dtype and out.strides == x.strides
            assert out.tobytes() == want.tobytes(), train
        g = rng.normal(size=x.shape).astype(dtype)
        assert act.backward(g).tobytes() == leaky_relu_backward_oracle(
            x, g, slope).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_same_bits_as_select_on_special_gradients(self, dtype):
        # g times a factor of exactly 1 or slope gives the select's bits,
        # NaN, infinities and signed zeros in g included
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype)
        x = np.repeat(np.array([1.5, -1.5, 0.0, -0.0], dtype=dtype), 8)
        g = tensor.make_rng(4).normal(size=x.size).astype(dtype)
        g[:5], g[8:13], g[16:21], g[24:29] = special, special, special, special
        act = LeakyReLU()
        act.forward(x, train=True)
        got = act.backward(g)
        want = leaky_relu_backward_oracle(x, g, LeakyReLU.SLOPE)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_minus_slope_plus_slope_is_one(self, dtype):
        # the backward's factor is exactly 1 where x > 0: (1 - s) + s
        # rounds to 1 for every s in (0, 1); checked on a million random
        # bit patterns of s and both ends of the interval
        info = np.finfo(dtype)
        bits = np.dtype(dtype.__name__.replace("float", "uint"))
        one = np.array(1, dtype=dtype).view(bits)
        rng = tensor.make_rng(5)
        s = rng.integers(1, int(one), size=10**6, dtype=bits).view(dtype)
        s = np.concatenate([s, [info.smallest_subnormal, info.tiny,
                                np.nextafter(dtype(1), dtype(0))]]).astype(dtype)
        assert ((s > 0) & (s < 1)).all()
        assert ((dtype(1) - s) + s == dtype(1)).all()


class TestBatchNorm:
    def test_zero_variance_channel_gives_beta(self):
        bn = BatchNorm2D(1, dtype=np.float64)
        bn.beta[:] = 3.5
        x = np.full((4, 1, 2, 2), 7.0)
        out = bn.forward(x, train=True)
        assert np.allclose(out, 3.5, atol=1e-3)

    def test_normalized_stats(self):
        rng = tensor.make_rng(20)
        bn = BatchNorm2D(3, dtype=np.float64)
        x = rng.normal(2.0, 4.0, size=(8, 3, 5, 6))
        out = bn.forward(x, train=True)  # gamma=1, beta=0 -> raw normalization
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_infer_matches_hand_computation(self):
        bn = BatchNorm2D(1, dtype=np.float64)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        bn.gamma[:] = 3.0
        bn.beta[:] = 1.0
        x = np.full((1, 1, 1, 1), 6.0)
        want = (6.0 - 2.0) / np.sqrt(4.0 + 1e-5) * 3.0 + 1.0
        assert bn.forward(x, train=False)[0, 0, 0, 0] == pytest.approx(want)

    def test_single_sample_batch_rejected(self):
        bn = BatchNorm2D(2)
        with pytest.raises(ConfigError):
            bn.forward(np.ones((1, 2, 4, 4)), train=True)

    def test_running_stats_move(self):
        rng = tensor.make_rng(21)
        bn = BatchNorm2D(2, dtype=np.float64)
        x = rng.normal(5.0, 1.0, size=(16, 2, 3, 3))
        bn.forward(x, train=True)
        assert np.all(bn.running_mean > 0.0)
        assert np.all(bn.running_var > 0.0)

    def test_backward_finite_differences(self):
        rng = tensor.make_rng(22)
        x = rng.normal(size=(4, 2, 3, 3))
        r = rng.normal(size=(4, 2, 3, 3))

        def loss_x(v):
            bn = BatchNorm2D(2, dtype=np.float64)
            return float(np.sum(bn.forward(v, train=True) * r))

        bn = BatchNorm2D(2, dtype=np.float64)
        bn.forward(x, train=True)
        gx = bn.backward(r)
        assert max_rel_err(gx, central_diff_grad(loss_x, x)) <= 1e-4
        # gamma / beta gradients against FD
        for attr, got in bn.grads.items():
            def loss_p(v, attr=attr):
                b2 = BatchNorm2D(2, dtype=np.float64)
                getattr(b2, attr)[...] = v
                return float(np.sum(b2.forward(x, train=True) * r))
            base = np.ones(2) if attr == "gamma" else np.zeros(2)
            assert max_rel_err(got, central_diff_grad(loss_p, base)) <= 1e-4

    def test_train_mode_cancels_a_per_channel_shift(self):
        # why Conv2D has no bias: a per-channel constant added before a
        # train-mode batch norm changes neither its output nor any gradient
        rng = tensor.make_rng(23)
        x = rng.normal(size=(4, 3, 5, 6))
        g = rng.normal(size=x.shape)
        c = np.array([0.75, -3.0, 40.0])
        runs = []
        for inp in (x, x + c[None, :, None, None]):
            bn = BatchNorm2D(3, dtype=np.float64)
            bn.gamma[:] = [0.5, 2.0, -1.5]
            bn.beta[:] = [0.1, -0.2, 0.3]
            out = bn.forward(inp, train=True)
            runs.append((out, bn.backward(g), bn.grads["gamma"],
                         bn.grads["beta"]))
        for a, b in zip(*runs):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_backward_requires_train_forward(self):
        bn = BatchNorm2D(1)
        bn.forward(np.ones((2, 1, 3, 3)), train=False)
        with pytest.raises(UsageError):
            bn.backward(np.ones((2, 1, 3, 3)))

    @staticmethod
    def _randomized(c, dtype, rng):
        bn = BatchNorm2D(c, dtype=dtype)
        bn.gamma[:] = rng.normal(1.0, 0.5, size=c)
        bn.beta[:] = rng.normal(size=c)
        bn.running_mean[:] = rng.normal(size=c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=c)
        return bn

    def test_bit_identical_to_plain_expressions(self):
        rng = tensor.make_rng(23)
        for dtype in (np.float32, np.float64):
            for shape in ((5, 2, 3, 3), (3, 32, 30, 62), (4, 64, 12, 28),
                          (3, 128, 1, 9)):
                bn = self._randomized(shape[1], dtype, rng)
                rm0, rv0 = bn.running_mean.copy(), bn.running_var.copy()
                x = rng.normal(1.0, 3.0, size=shape).astype(dtype)
                g = rng.normal(size=shape).astype(dtype)

                out = bn.forward(x, train=True)
                want, mean, var, xhat, inv_std = bn_train_oracle(
                    x, bn.gamma, bn.beta, bn.EPS)
                assert out.dtype == dtype
                assert out.tobytes() == want.tobytes()
                m = x.dtype.type(bn.MOMENTUM)
                assert bn.running_mean.tobytes() == \
                    (rm0 * m + (1 - m) * mean).tobytes()
                assert bn.running_var.tobytes() == \
                    (rv0 * m + (1 - m) * var).tobytes()

                gx = bn.backward(g)
                want_gx, want_gg, want_gb = bn_backward_oracle(
                    g, xhat, inv_std, bn.gamma)
                assert gx.tobytes() == want_gx.tobytes()
                assert bn.grads["gamma"].tobytes() == want_gg.tobytes()
                assert bn.grads["beta"].tobytes() == want_gb.tobytes()

                ev = bn.forward(x, train=False)
                want_ev = bn_eval_oracle(x, bn.gamma, bn.beta,
                                         bn.running_mean, bn.running_var,
                                         bn.EPS)
                assert ev.tobytes() == want_ev.tobytes()
                # a channels-last input, as conv outputs are, changes no bit
                ev_cl = bn.forward(channels_last(x), train=False)
                assert is_channels_last(ev_cl)
                assert ev_cl.tobytes() == want_ev.tobytes()

    def test_eval_within_few_ulps_of_textbook_form(self):
        # x * scale + shift against (x - mean) * inv_std * gamma + beta: each
        # element within 4 ulps of the magnitudes of the terms it sums, the
        # bound a reordering of a few roundings can reach (outputs that
        # cancel to near 0 have no tighter relative bound)
        rng = tensor.make_rng(26)
        for dtype in (np.float32, np.float64):
            for shape in ((5, 2, 3, 3), (3, 32, 30, 62), (4, 64, 12, 28),
                          (3, 128, 1, 9)):
                bn = self._randomized(shape[1], dtype, rng)
                x = rng.normal(1.0, 3.0, size=shape).astype(dtype)
                want = bn_eval_textbook(x, bn.gamma, bn.beta, bn.running_mean,
                                        bn.running_var, bn.EPS)
                scale = (bn.gamma / np.sqrt(bn.running_var + bn.EPS)).astype(
                    np.float64)[None, :, None, None]
                terms = (np.abs(x * scale)
                         + np.abs(bn.running_mean[None, :, None, None] * scale)
                         + np.abs(bn.beta[None, :, None, None]))
                bound = 4 * np.finfo(dtype).eps * terms
                for inp in (x, channels_last(x)):
                    got = bn.forward(inp, train=False)
                    assert got.dtype == dtype
                    err = np.abs(got.astype(np.float64) - want)
                    assert (err <= bound).all(), (dtype, shape,
                                                  (err / terms).max())

    @pytest.mark.parametrize("batch", [64, 256])
    @pytest.mark.parametrize("chw", [(32, 30, 62), (64, 12, 28)])
    def test_batch_statistics_precision(self, batch, chw):
        # bn1's and bn2's input shapes, channels-last as conv outputs are:
        # the float32 batch mean and variance against float64 ones. With
        # momentum 0 the running statistics are the batch statistics.
        c, h, w = chw
        rng = tensor.make_rng(25, batch, c)
        mu = rng.normal(0.0, 0.5, size=c).astype(np.float32)
        sd = rng.uniform(0.5, 2.0, size=c).astype(np.float32)
        nhwc = rng.standard_normal((batch, h, w, c), dtype=np.float32)
        nhwc *= sd
        nhwc += mu
        bn = BatchNorm2D(c)
        bn.MOMENTUM = 0.0
        bn.forward(nhwc.transpose(0, 3, 1, 2), train=True)

        n = batch * h * w
        mean = nhwc.sum(axis=(0, 1, 2), dtype=np.float64) / n
        var = np.zeros(c)
        for part in np.split(nhwc, batch // 16):  # float64, a slice at a time
            var += ((part - mean) ** 2).sum(axis=(0, 1, 2))
        var /= n
        assert np.abs(bn.running_mean - mean).max() <= \
            2.5e-7 * np.sqrt(var).max()
        assert np.abs(bn.running_var - var).max() <= 1e-6 * var.max()

    def test_input_and_gradient_left_unmodified(self):
        rng = tensor.make_rng(24)
        bn = self._randomized(3, np.float32, rng)
        x = rng.normal(size=(4, 3, 5, 6)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        x0, g0 = x.copy(), g.copy()
        out = bn.forward(x, train=True)
        gx = bn.backward(g)
        ev = bn.forward(x, train=False)
        assert x.tobytes() == x0.tobytes()
        assert g.tobytes() == g0.tobytes()
        for y in (out, gx, ev):
            assert not np.shares_memory(y, x)
            assert not np.shares_memory(y, g)


class TestDropout:
    def test_zero_rate_is_identity(self):
        d = Dropout(0.0)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(d.forward(x, train=True, rng=None), x)

    def test_infer_identity_any_rate(self):
        d = Dropout(0.7)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(d.forward(x, train=False), x)

    def test_seeded_monte_carlo(self):
        d = Dropout(0.5)
        x = np.ones((100, 100))
        out = d.forward(x, train=True, rng=tensor.make_rng(23))
        survivors = np.count_nonzero(out) / out.size
        assert abs(survivors - 0.5) <= 0.02
        assert abs(out.mean() - x.mean()) <= 0.05  # inverted scaling keeps E[out]

    def test_backward_uses_same_mask(self):
        d = Dropout(0.5)
        x = np.ones((10, 10))
        out = d.forward(x, train=True, rng=tensor.make_rng(24))
        g = d.backward(np.ones_like(x))
        assert np.array_equal(g != 0, out != 0)

    def test_mask_draws_independent_of_layout(self):
        # the mask is drawn in NCHW index order and stored in x's layout
        x = tensor.make_rng(29).normal(size=(3, 4, 5, 6)).astype(np.float32)
        outs, masks = [], []
        for x_in in (x, channels_last(x)):
            d = Dropout(0.3)
            outs.append(d.forward(x_in, train=True, rng=tensor.make_rng(30)))
            masks.append(d._cache[0])  # the scaled mask backward takes
        assert outs[0].tobytes() == outs[1].tobytes()
        assert masks[0].tobytes() == masks[1].tobytes()
        assert masks[0].flags.c_contiguous and outs[0].flags.c_contiguous
        assert is_channels_last(masks[1]) and is_channels_last(outs[1])

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)

    def test_train_without_rng(self):
        with pytest.raises(UsageError):
            Dropout(0.5).forward(np.ones((2, 2)), train=True)


class TestDense:
    def test_identity_weights(self):
        d = Dense(3, 3, tensor.make_rng(25), dtype=np.float64)
        d.w[...] = np.eye(3)
        d.b[...] = 0.0
        x = np.arange(6.0).reshape(2, 3)
        assert np.allclose(d.forward(x, train=False), x)

    def test_zero_weights_bias_only(self):
        d = Dense(3, 2, tensor.make_rng(26), dtype=np.float64)
        d.w[...] = 0.0
        d.b[...] = [4.0, -1.0]
        out = d.forward(np.ones((3, 3)), train=False)
        assert np.allclose(out, [[4.0, -1.0]] * 3)

    def test_random_vs_matmul_oracle(self):
        rng = tensor.make_rng(27)
        d = Dense(5, 4, rng, dtype=np.float64)
        x = rng.normal(size=(3, 5))
        want = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                for k in range(5):
                    want[i, j] += x[i, k] * d.w[k, j]
                want[i, j] += d.b[j]
        assert max_rel_err(d.forward(x, train=False), want) <= 1e-12

    def test_backward_finite_differences(self):
        rng = tensor.make_rng(28)
        d = Dense(4, 3, rng, dtype=np.float64)
        x = rng.normal(size=(2, 4))
        r = rng.normal(size=(2, 3))
        d.forward(x, train=True)
        gx = d.backward(r)
        fd_x = central_diff_grad(lambda v: float(np.sum((v @ d.w + d.b) * r)), x)
        fd_w = central_diff_grad(lambda v: float(np.sum((x @ v + d.b) * r)), d.w.copy())
        assert max_rel_err(gx, fd_x) <= 1e-4
        assert max_rel_err(d.grads["w"], fd_w) <= 1e-4


class TestConvAndPool:
    def test_conv_input_grad_only_when_needed(self):
        rng = tensor.make_rng(30)
        x = rng.normal(size=(2, 1, 6, 7)).astype(np.float32)
        g = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        gx, grads = {}, {}
        for needed in (True, False):
            conv = Conv2D(1, 3, tensor.make_rng(31), needs_input_grad=needed)
            conv.forward(x, train=True)
            gx[needed] = conv.backward(g)
            grads[needed] = {k: v.tobytes() for k, v in conv.grads.items()}
        assert gx[True].shape == x.shape
        assert gx[False] is None
        assert grads[True] == grads[False]

    def test_pool_keeps_argmax_only_in_train_mode(self):
        x = tensor.make_rng(32).normal(size=(2, 3, 7, 9)).astype(np.float32)
        pool = MaxPool2D()
        out_eval = pool.forward(x, train=False)
        with pytest.raises(UsageError):
            pool.backward(np.ones_like(out_eval))
        out_train = pool.forward(x, train=True)
        assert out_eval.tobytes() == out_train.tobytes()
        assert pool.backward(np.ones_like(out_train)).shape == x.shape

    @pytest.mark.parametrize("h, w", [(3, 3), (4, 5), (12, 28), (30, 62)])
    def test_reads_is_what_the_windows_cover(self, h, w):
        # the pool of the input cropped to reads() keeps every bit, and the
        # last window ends on the last row and column read
        x = tensor.make_rng(33).normal(size=(2, 3, h, w)).astype(np.float32)
        pool = MaxPool2D()
        rows, cols = pool.reads(h, w)
        out = pool.forward(x, train=False)
        assert pool.forward(x[:, :, :rows, :cols], False).tobytes() == (
            out.tobytes())
        ho, wo = out.shape[2:]
        assert (rows, cols) == ((ho - 1) * pool.STRIDE + pool.WINDOW,
                                (wo - 1) * pool.STRIDE + pool.WINDOW)


class TestCacheConsumed:
    # one layer of each kind, with the shape of a train-mode input it takes
    KINDS = {
        "conv": (lambda: Conv2D(2, 3, tensor.make_rng(40)), (4, 2, 6, 7)),
        "conv_first": (lambda: Conv2D(1, 3, tensor.make_rng(41),
                                      needs_input_grad=False), (4, 1, 6, 7)),
        "bn": (lambda: BatchNorm2D(3), (4, 3, 5, 6)),
        "pool": (MaxPool2D, (2, 3, 7, 9)),
        "act": (LeakyReLU, (4, 3, 5, 6)),
        "drop": (lambda: Dropout(0.5), (4, 3, 5, 6)),
        "drop_zero": (lambda: Dropout(0.0), (4, 3, 5, 6)),
        "flatten": (Flatten, (4, 3, 5, 6)),
        "dense": (lambda: Dense(5, 4, tensor.make_rng(42)), (3, 5)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_frees_the_cache_and_runs_once(self, kind):
        make, shape = self.KINDS[kind]
        layer = make()
        rng = tensor.make_rng(43)
        x = rng.normal(size=shape).astype(np.float32)
        out = layer.forward(x, train=True, rng=tensor.make_rng(44))
        if kind != "drop_zero":  # a zero rate caches a scalar, not a mask
            assert held_activations(layer)
        g = rng.normal(size=out.shape).astype(np.float32)
        layer.backward(g)
        assert held_activations(layer) == []
        with pytest.raises(UsageError):
            layer.backward(g)
        # a new training forward arms it again
        layer.forward(x, train=True, rng=tensor.make_rng(44))
        layer.backward(g)

    # a train-mode input each kind refuses, and the error it raises
    FAILING = {
        "conv": ((4, 3, 6, 7), ShapeError),  # the wrong channel count
        "conv_first": ((4, 1, 2, 7), ShapeError),  # smaller than the kernel
        "bn": ((1, 3, 5, 6), ConfigError),  # a batch of one
        "pool": ((2, 3, 2, 9), ShapeError),  # smaller than the window
        "act": ((), TypeError),  # a 0-d array has no batch
        "drop": ((4, 3, 5, 6), UsageError),  # no rng
        "flatten": ((), IndexError),
        "dense": ((3, 4), ShapeError),  # the wrong feature count
    }

    @pytest.mark.parametrize("kind", FAILING)
    def test_failed_forward_leaves_no_cache(self, kind):
        # a train forward that raised used to leave the previous batch's
        # cache (Conv2D and Flatten: the refused input) for backward to take
        make, shape = self.KINDS[kind]
        bad_shape, error = self.FAILING[kind]
        layer = make()
        rng = tensor.make_rng(47)
        x = rng.normal(size=shape).astype(np.float32)
        out = layer.forward(x, train=True, rng=tensor.make_rng(48))
        with pytest.raises(error):
            layer.forward(np.asarray(rng.normal(size=bad_shape), np.float32),
                          train=True)
        assert held_activations(layer) == []
        name = type(layer).__name__
        with pytest.raises(UsageError, match=f"^{name}.backward without a "
                                             "training forward$"):
            layer.backward(rng.normal(size=out.shape).astype(np.float32))

    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_forward_clears_the_cache(self, kind):
        # an eval forward used to leave the train batch's cache in place,
        # for a later backward to take
        make, shape = self.KINDS[kind]
        layer = make()
        rng = tensor.make_rng(45)
        x = rng.normal(size=shape).astype(np.float32)
        out = layer.forward(x, train=True, rng=tensor.make_rng(46))
        layer.forward(x, train=False)
        assert held_activations(layer) == []
        name = type(layer).__name__
        with pytest.raises(UsageError, match=f"^{name}.backward without a "
                                             "training forward$"):
            layer.backward(rng.normal(size=out.shape).astype(np.float32))
