"""Kernel tests: seeded generators, creation, convolution, pooling.

Every numeric kernel is checked against an independent brute-force oracle
(nested loops / exhaustive window scans) and, where a backward pass exists,
against central finite differences in float64.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from pressnet import tensor
from pressnet.errors import ShapeError

from util import (central_diff_grad, channels_last, conv_forward_oracle,
                  conv_input_grad_oracle, conv_kernel_grad_oracle,
                  im2col_oracle, is_channels_last, max_rel_err, pool_oracle)

# the default model's four conv layers: (cin, h, w, cout)
MODEL_CONVS = ((1, 32, 64, 32), (32, 14, 30, 64), (64, 5, 13, 128),
               (128, 3, 11, 128))


# ---------------------------------------------------------------- oracles

def conv_oracle(x, kernels):
    cin, h, w = x.shape
    cout, cin2, kh, kw = kernels.shape
    out = np.zeros((cout, h - kh + 1, w - kw + 1), dtype=np.float64)
    for o in range(cout):
        for y in range(h - kh + 1):
            for xx in range(w - kw + 1):
                s = 0.0
                for c in range(cin):
                    for u in range(kh):
                        for v in range(kw):
                            s += x[c, y + u, xx + v] * kernels[o, c, u, v]
                out[o, y, xx] = s
    return out


class TestRng:
    def test_key_paths_differ(self):
        a = tensor.make_rng(7, 1).normal(size=4)
        b = tensor.make_rng(7, 2).normal(size=4)
        assert not np.array_equal(a, b)

    def test_same_path_identical(self):
        a = tensor.make_rng(7, 1, 3).normal(size=4)
        b = tensor.make_rng(7, 1, 3).normal(size=4)
        assert np.array_equal(a, b)


# ------------------------------------------------------------ convolution

class TestConv2dValid:
    def test_all_ones(self):
        x = np.ones((1, 1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = tensor.conv2d_valid(x, k)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_delta_kernel_is_interior(self):
        rng = tensor.make_rng(2)
        x = rng.normal(size=(1, 6, 7))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = tensor.conv2d_valid(x[None], k)[0]
        assert np.allclose(out[0], x[0, 1:-1, 1:-1])

    def test_random_vs_oracle(self):
        rng = tensor.make_rng(3)
        for _ in range(100):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(3, 7))
            w = int(rng.integers(3, 8))
            x = rng.normal(size=(cin, h, w))
            k = rng.normal(size=(cout, cin, 3, 3))
            got = tensor.conv2d_valid(x[None], k)[0]
            assert max_rel_err(got, conv_oracle(x, k)) <= 1e-12

    def test_linearity(self):
        rng = tensor.make_rng(4)
        x = rng.normal(size=(1, 2, 5, 5))
        y = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        lhs = tensor.conv2d_valid(2.5 * x - 1.5 * y, k)
        rhs = 2.5 * tensor.conv2d_valid(x, k) - 1.5 * tensor.conv2d_valid(y, k)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = tensor.make_rng(5)
        xb = rng.normal(size=(3, 2, 5, 6))
        k = rng.normal(size=(4, 2, 3, 3))
        out = tensor.conv2d_valid(xb, k)
        for i in range(3):
            assert np.allclose(out[i], tensor.conv2d_valid(xb[i:i + 1], k)[0])

    def test_too_small_input(self):
        with pytest.raises(ShapeError):
            tensor.conv2d_valid(np.ones((1, 1, 2, 5)), np.ones((1, 1, 3, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.conv2d_valid(np.ones((1, 2, 5, 5)), np.ones((1, 3, 3, 3)))

    def test_model_shapes_vs_chw_oracle(self):
        # batch 3, NCHW-contiguous and channels-last inputs; error relative
        # to the oracle's largest entry. The column order differs from the
        # oracle's, so only the GEMM's summation order may move bits, and
        # the input's layout moves none.
        rng = tensor.make_rng(16)
        for cin, h, w, cout in MODEL_CONVS:
            x = rng.normal(size=(3, cin, h, w))
            k = rng.normal(size=(cout, cin, 3, 3))
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                x_d, k_d = x.astype(dtype), k.astype(dtype)
                want = conv_forward_oracle(x_d, k_d)
                outs = [tensor.conv2d_valid(xin, k_d)
                        for xin in (x_d, channels_last(x_d))]
                for out in outs:
                    assert out.dtype == dtype and out.shape == want.shape
                    assert is_channels_last(out)
                    assert np.abs(out - want).max() <= tol * np.abs(want).max()
                assert outs[0].tobytes() == outs[1].tobytes()

    def test_deterministic(self):
        rng = tensor.make_rng(6)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        assert tensor.conv2d_valid(x, k).tobytes() == tensor.conv2d_valid(x, k).tobytes()


# every conv GEMM of the network as (GEMM rows per frame, K, Cout): conv1
# to conv4 in training, then conv1 and conv2 on inference's pooled crops
CONV_GEMMS = ((30 * 62, 9, 32), (12 * 28, 288, 64), (3 * 11, 576, 128),
              (1 * 9, 1152, 128), (29 * 61, 9, 32), (11 * 27, 288, 64))


class TestGemmRowParts:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows, k, cout", CONV_GEMMS)
    def test_frame_parts_equal_the_whole_gemm(self, rows, k, cout, dtype):
        # conv2d_valid's batch parts give the bytes of one GEMM only if
        # BLAS gives each row the same bits in a part of GEMM_ROWS_MIN rows
        # or more as in the whole; that holds per BLAS build, so it is
        # checked here rather than assumed
        least = -(-tensor.GEMM_ROWS_MIN // rows)  # frames a part holds
        rng = tensor.make_rng(23, rows, k)
        kmat = rng.normal(size=(cout, k)).astype(dtype).T  # conv2d_valid's
        checked = 0
        for b in (64, 46, 32, 5):
            a = rng.normal(size=(b * rows, k)).astype(dtype)
            whole = (a @ kmat).tobytes()
            for parts in range(2, min(4, b // least) + 1):
                out = np.empty((b * rows, cout), dtype)
                bounds = [b * i // parts * rows for i in range(parts + 1)]
                for r0, r1 in zip(bounds, bounds[1:]):
                    np.matmul(a[r0:r1], kmat, out=out[r0:r1])
                assert out.tobytes() == whole, (
                    f"{parts} frame parts of a {b}-frame GEMM differ from "
                    "the whole on BLAS core "
                    f"{tensor.pin_runtime()['core']}")
                checked += 1
        assert checked


# minor faults of the third of three 256-frame eval forwards of a default
# net, in a fresh process whose malloc thresholds are first held at
# glibc's defaults (mallopt parameters -3 and -1, 128 KiB each) and then
# pinned
FAULTS_AFTER_PIN = """
import ctypes, resource
import numpy as np
from pressnet import tensor
from pressnet.model import ModelConfig, PostureNet

mallopt = ctypes.CDLL(None).mallopt
mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
for param in (-3, -1):
    assert mallopt(param, 128 << 10) == 1
tensor.pin_runtime()
net = PostureNet(ModelConfig(3, 4), tensor.make_rng(24))
x = tensor.make_rng(25).normal(size=(256, 1, 32, 64)).astype(np.float32)
for _ in range(2):
    net.forward(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
net.forward(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
GLIBC = platform.libc_ver()[0] == "glibc"


class TestRuntimePin:
    def test_returns_the_blas_settings(self):
        # under glibc it also raises unless both mallopt calls took
        info = tensor.pin_runtime()
        assert set(info) == {"threads", "core"}
        assert info["threads"] in (None, 1)

    @pytest.mark.skipif(not GLIBC, reason="needs glibc's mallopt")
    def test_forward_reuses_freed_buffers(self):
        # below the pin's thresholds a pass maps or trims its activation
        # buffers and faults them in again: held at glibc's defaults, 59k
        # minor faults a 256-frame forward; where the dynamic thresholds
        # settled in an evaluate process, 21k (82 MiB). After the pin the
        # heap keeps them. A fresh process, so no earlier test's heap counts
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", FAULTS_AFTER_PIN],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        faults = int(done.stdout)
        assert faults < 256, f"{faults} minor faults in a warm forward"


class TestIm2col:
    @pytest.mark.parametrize("c", [1, 2, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_the_window_copy(self, c, dtype):
        # byte for byte the 6-D window copy, for NCHW, channels-last and
        # cropped (non-contiguous) inputs
        rng = tensor.make_rng(19, c)
        x = rng.normal(size=(3, c, 9, 12)).astype(dtype)
        for inp in (x, channels_last(x), x[:, :, 1:8, :11],
                    channels_last(x)[:, :, :8, 1:]):
            for kh, kw in ((3, 3), (2, 4), (1, 1)):
                got, ho, wo = tensor._im2col(inp, kh, kw)
                want, *hw = im2col_oracle(inp, kh, kw)
                assert (ho, wo) == tuple(hw)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == np.ascontiguousarray(want).tobytes()


class TestConvBackward:
    def test_finite_differences(self):
        rng = tensor.make_rng(7)
        x = rng.normal(size=(1, 2, 5, 6))
        k = rng.normal(size=(3, 2, 3, 3))
        r = rng.normal(size=(1, 3, 3, 4))  # fixed cotangent

        gx, gk = tensor.conv2d_valid_backward(x, k, r)
        fd_x = central_diff_grad(lambda v: float(np.sum(tensor.conv2d_valid(v, k) * r)), x)
        fd_k = central_diff_grad(lambda v: float(np.sum(tensor.conv2d_valid(x, v) * r)), k)
        assert max_rel_err(gx, fd_x) <= 1e-4
        assert max_rel_err(gk, fd_k) <= 1e-4

    def test_batched_finite_differences(self):
        rng = tensor.make_rng(8)
        x = rng.normal(size=(2, 2, 4, 5))
        k = rng.normal(size=(2, 2, 3, 3))
        r = rng.normal(size=(2, 2, 2, 3))
        gx, gk = tensor.conv2d_valid_backward(x, k, r)
        fd_x = central_diff_grad(lambda v: float(np.sum(tensor.conv2d_valid(v, k) * r)), x)
        fd_k = central_diff_grad(lambda v: float(np.sum(tensor.conv2d_valid(x, v) * r)), k)
        assert max_rel_err(gx, fd_x) <= 1e-4
        assert max_rel_err(gk, fd_k) <= 1e-4

    def test_without_input_grad_same_kernel_grad(self):
        rng = tensor.make_rng(12)
        for shape in ((1, 1, 6, 7), (3, 2, 5, 6)):
            x = rng.normal(size=shape).astype(np.float32)
            k = rng.normal(size=(4, shape[1], 3, 3)).astype(np.float32)
            r = rng.normal(size=(shape[0], 4, shape[2] - 2,
                                 shape[3] - 2)).astype(np.float32)
            _, gk = tensor.conv2d_valid_backward(x, k, r)
            gx_off, gk_off = tensor.conv2d_valid_backward(x, k, r, need_x=False)
            assert gx_off is None
            assert gk_off.tobytes() == gk.tobytes()

    def test_kernel_grad_vs_chw_oracle(self):
        rng = tensor.make_rng(17)
        for cin, h, w, cout in MODEL_CONVS:
            x = rng.normal(size=(3, cin, h, w))
            k = rng.normal(size=(cout, cin, 3, 3))
            r = rng.normal(size=(3, cout, h - 2, w - 2))
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                x_d, k_d, r_d = (a.astype(dtype) for a in (x, k, r))
                want = conv_kernel_grad_oracle(x_d, k_d, r_d)
                for xin, rin in ((x_d, r_d),
                                 (channels_last(x_d), channels_last(r_d))):
                    _, gk = tensor.conv2d_valid_backward(xin, k_d, rin,
                                                         need_x=False)
                    assert gk.dtype == dtype and gk.shape == k.shape
                    assert gk.flags.c_contiguous
                    assert np.abs(gk - want).max() <= tol * np.abs(want).max()

    def test_input_grad_vs_padded_oracle(self):
        # the default model's four conv layers, (cin, h, w, cout), batch 3;
        # error relative to the oracle's largest entry, since single
        # entries can cancel to near zero
        rng = tensor.make_rng(15)
        for cin, h, w, cout in ((1, 32, 64, 32), (32, 14, 30, 64),
                                (64, 5, 13, 128), (128, 3, 11, 128)):
            x = rng.normal(size=(3, cin, h, w))
            k = rng.normal(size=(cout, cin, 3, 3))
            r = rng.normal(size=(3, cout, h - 2, w - 2))
            for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                k_d, r_d = k.astype(dtype), r.astype(dtype)
                gx, _ = tensor.conv2d_valid_backward(x.astype(dtype), k_d, r_d)
                want = conv_input_grad_oracle(k_d, r_d)
                assert gx.dtype == dtype and gx.shape == x.shape
                assert gx.transpose(0, 2, 3, 1).flags.c_contiguous
                assert np.abs(gx - want).max() <= tol * np.abs(want).max()


# ---------------------------------------------------------------- pooling

class TestMaxpool2d:
    def test_constant_input(self):
        out, _ = tensor.maxpool2d(np.full((1, 1, 5, 5), 3.25), window=3,
                                  stride=2)
        assert np.all(out == 3.25)

    def test_single_peak_everywhere(self):
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 9.0
        out, arg = tensor.maxpool2d(x, window=3, stride=2)
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out == 9.0)
        assert np.all(arg == 2 * 5 + 2)

    def test_random_vs_oracle(self):
        # every window size whose first max pass differs: one view (a
        # copy), two (one np.maximum) and more
        rng = tensor.make_rng(9)
        for window in (1, 2, 3, 4):
            for _ in range(100):
                c = int(rng.integers(1, 4))
                h = int(rng.integers(window, 9))
                w = int(rng.integers(window, 10))
                stride = int(rng.integers(1, 4))
                x = rng.normal(size=(c, h, w))
                out, arg = tensor.maxpool2d(x[None], window=window,
                                            stride=stride)
                want_out, want_arg = pool_oracle(x, window, stride)
                assert np.array_equal(out[0], want_out)
                assert np.array_equal(arg[0], want_arg)

    def test_nan_pools_to_nan_at_first_nan(self):
        rng = tensor.make_rng(13)
        for _ in range(50):
            x = rng.integers(0, 3, size=(2, 2, 7, 8)).astype(np.float32)
            x[rng.random(x.shape) < 0.15] = np.nan
            out, arg = tensor.maxpool2d(x, window=3, stride=2)
            want_out, want_arg = pool_oracle(x, 3, 2)
            assert np.array_equal(out, want_out, equal_nan=True)
            assert np.array_equal(arg, want_arg)
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 2] = x[0, 0, 2, 0] = np.nan
        out, arg = tensor.maxpool2d(x, window=3, stride=1)
        assert np.isnan(out[0, 0, 0, 0])
        assert arg[0, 0, 0, 0] == 1 * 3 + 2

    def test_without_argmax_same_output(self):
        rng = tensor.make_rng(14)
        for shape, stride in (((1, 2, 7, 9), 2), ((2, 3, 8, 8), 1),
                              ((1, 2, 30, 62), 2)):
            x = rng.normal(size=shape).astype(np.float32)
            out, _ = tensor.maxpool2d(x, window=3, stride=stride)
            out_only, arg = tensor.maxpool2d(x, window=3, stride=stride,
                                             need_argmax=False)
            assert arg is None
            assert out_only.shape == out.shape
            assert out_only.tobytes() == out.tobytes()

    def test_channels_last_layout_kept(self):
        # the output follows the input's layout with the same bits; the
        # backward returns channels-last whatever grad_out's layout, and adds
        # shared cells in output order, as a plain loop does
        rng = tensor.make_rng(18)
        for window, stride in ((3, 1), (3, 2), (1, 2), (2, 2)):
            x = rng.normal(size=(2, 3, 9, 11)).astype(np.float32)
            out, arg = tensor.maxpool2d(x, window=window, stride=stride)
            out_cl, arg_cl = tensor.maxpool2d(channels_last(x), window=window,
                                              stride=stride)
            assert out.flags.c_contiguous and is_channels_last(out_cl)
            assert out_cl.tobytes() == out.tobytes()
            assert np.array_equal(arg_cl, arg)
            g = rng.normal(size=out.shape).astype(np.float32)
            want = np.zeros(x.shape, dtype=np.float32)
            for lead in np.ndindex(*x.shape[:2]):
                plane = want[lead].reshape(-1)
                for a, v in zip(arg[lead].ravel(), g[lead].ravel()):
                    plane[a] += v
            for g_in in (g, channels_last(g)):
                gx = tensor.maxpool2d_backward(g_in, arg, x.shape)
                assert gx.shape == x.shape and is_channels_last(gx)
                assert gx.tobytes() == want.tobytes()

    def test_tie_breaks_to_lowest_flat_index(self):
        x = np.ones((1, 1, 3, 3))
        _, arg = tensor.maxpool2d(x, window=3, stride=1)
        assert arg[0, 0, 0, 0] == 0

    def test_never_exceeds_input_max(self):
        rng = tensor.make_rng(10)
        x = rng.normal(size=(1, 2, 7, 9))
        out, _ = tensor.maxpool2d(x, window=3, stride=2)
        assert out.max() <= x.max()

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            tensor.maxpool2d(np.ones((1, 1, 2, 2)), window=3, stride=1)

    def test_backward_finite_differences(self):
        rng = tensor.make_rng(11)
        x = rng.normal(size=(1, 2, 6, 6))
        out, arg = tensor.maxpool2d(x, window=3, stride=2)
        r = rng.normal(size=out.shape)
        gx = tensor.maxpool2d_backward(r, arg, x.shape)

        def loss(v):
            o, _ = tensor.maxpool2d(v, window=3, stride=2)
            return float(np.sum(o * r))

        assert max_rel_err(gx, central_diff_grad(loss, x)) <= 1e-4

    def test_backward_accumulates_shared_argmax(self):
        # stride 1 windows all share the single peak
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 1] = 5.0
        out, arg = tensor.maxpool2d(x, window=3, stride=1)
        gx = tensor.maxpool2d_backward(np.ones_like(out), arg, x.shape)
        assert gx[0, 0, 1, 1] == 4.0
        assert gx.sum() == 4.0
