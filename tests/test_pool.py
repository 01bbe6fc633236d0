"""The tensor module's thread pool and the kernels it splits.

A split kernel writes each part's slice of a buffer its caller allocated,
with the operations the whole array would get, so its bytes must not
depend on the worker count: each one is compared byte for byte at 1, 2 and
3 workers, with every array split however small. The pool runs each task
in the caller's contextvars context, re-raises a task's exception in the
caller once all tasks have ended, runs a nested call inline, and is
dropped in a forked child.
"""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from pressnet import layers, optim, tensor
from pressnet.model import ModelConfig, PostureNet

from util import channels_last, small_net, synthetic_batch, workers

COUNTS = (1, 2, 3)
# batches 2, 3, 47 and 64, odd channel counts, and conv1's one channel
SHAPES = ((2, 3, 9, 11), (3, 5, 7, 8), (47, 3, 6, 9), (64, 7, 5, 13),
          (3, 1, 8, 10))
DTYPES = (np.float32, np.float64)


def at_each_count(run):
    """run()'s arrays at each worker count in COUNTS, as (shape, dtype,
    bytes) triples, one list per count."""
    seen = []
    for n in COUNTS:
        with workers(n):
            seen.append([(a.shape, a.dtype, np.ascontiguousarray(a).tobytes())
                         for a in run()])
    return seen


def assert_same_at_each_count(run):
    first, *rest = at_each_count(run)
    for n, other in zip(COUNTS[1:], rest):
        assert other == first, f"{n} workers differ from {COUNTS[0]}"


def inputs(shape, dtype, seed):
    rng = tensor.make_rng(seed)
    x = rng.normal(size=shape).astype(dtype)
    return x, channels_last(x)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
class TestSplitKernels:
    def test_maxpool_and_backward(self, shape, dtype):
        for x in inputs(shape, dtype, 1):
            x[0, 0, 0, :2] = np.nan  # a NaN window in the first part

            def run():
                out, arg = tensor.maxpool2d(x, window=3, stride=2)
                g = tensor.make_rng(2).normal(size=out.shape).astype(dtype)
                return out, arg, tensor.maxpool2d_backward(g, arg, x.shape)

            assert_same_at_each_count(run)

    def test_conv_forward_and_backward(self, shape, dtype):
        b, c, h, w = shape
        k = tensor.make_rng(3).normal(size=(5, c, 3, 3)).astype(dtype)
        g = tensor.make_rng(4).normal(size=(b, 5, h - 2, w - 2)).astype(dtype)
        for x in inputs(shape, dtype, 5):
            def run():
                gx, gk = tensor.conv2d_valid_backward(x, k, g)
                _, gk_only = tensor.conv2d_valid_backward(x, k, g,
                                                          need_x=False)
                return (tensor.conv2d_valid(x, k, split=True), gx, gk,
                        gk_only)

            assert_same_at_each_count(run)

    def test_batch_norm_train(self, shape, dtype):
        for x in inputs(shape, dtype, 6):
            def run():
                bn = layers.BatchNorm2D(shape[1], dtype)
                bn.gamma[...] = np.linspace(-1.5, 2.0, shape[1])
                out = bn.forward(x, train=True)
                g = tensor.make_rng(7).normal(size=shape).astype(dtype)
                gx = bn.backward(g)
                return (out, gx, bn.running_mean, bn.running_var,
                        bn.grads["gamma"], bn.grads["beta"])

            assert_same_at_each_count(run)

    def test_activation_and_dropout(self, shape, dtype):
        for x in inputs(shape, dtype, 8):
            def run():
                act, drop = layers.LeakyReLU(), layers.Dropout(0.3)
                h = drop.forward(act.forward(x, True), True,
                                 tensor.make_rng(9))
                g = tensor.make_rng(10).normal(size=shape).astype(dtype)
                return h, act.backward(drop.backward(g))

            assert_same_at_each_count(run)

    def test_adam_step(self, shape, dtype):
        rng = tensor.make_rng(11)
        params = {f"p{i}": rng.normal(size=shape[i:]).astype(dtype)
                  for i in range(4)}
        grads = {k: rng.normal(size=v.shape).astype(dtype)
                 for k, v in params.items()}

        def run():
            own = {k: v.copy() for k, v in params.items()}
            state = optim.AdamState(own)
            for lr in (1e-3, 5e-4):
                optim.adam_step(own, grads, state, lr)
            return [*own.values(), *state.m.values(), *state.v.values()]

        assert_same_at_each_count(run)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("channels", (2, 3, 5))
def test_channel_sum_of_few_columns(channels, dtype):
    # numpy sums a one-column slice pairwise, not in batch order
    x = tensor.make_rng(16).normal(size=(47, channels, 1, 1)).astype(dtype)
    assert_same_at_each_count(
        lambda: [layers._channel_sum(layers._rows(x), 47, channels)])


def test_network_step_same_at_each_count():
    # the paper's architecture, dropout included, one augmented-size batch
    x, ys, yp = synthetic_batch(6, 3, 4, seed=2)

    def run():
        net = PostureNet(ModelConfig(3, 4), tensor.make_rng(12))
        state = optim.AdamState(net.params())
        for step in range(2):
            pu, pp = net.forward(x, train=True, rng=tensor.make_rng(13, step))
            optim.adam_step(net.params(), net.backward(pu, pp, ys, yp, 0.5),
                            state, 1e-3)
        return [*net.params().values(), *net.bn_stats().values(),
                *state.m.values(), *state.v.values(), *net.forward(x)]

    assert_same_at_each_count(run)


def test_small_arrays_run_whole_on_the_caller():
    # under SPLIT_MIN elements per part a kernel never reaches the pool:
    # the baselines' small dense layers pay no dispatch
    calls = []
    with workers(2, split_min=tensor.SPLIT_MIN) as pool:
        pool.run = lambda tasks: calls.append(len(tasks)) or [
            t() for t in tasks]
        x = np.ones((64, 256), np.float32)
        act = layers.LeakyReLU()
        act.backward(act.forward(x, True))
        params = {"w": np.ones((256, 256), np.float32)}
        optim.adam_step(params, {"w": x[:1].T @ x[:1]},
                        optim.AdamState(params), 1e-3)
        assert calls == []
        tensor.maxpool2d(np.ones((64, 32, 30, 62), np.float32), 3, 2)
        assert calls == [2]


# ------------------------------------------------------------ the pool

@pytest.fixture
def pool():
    """A bare two-worker pool, its threads ended after the test."""
    pool = tensor._Pool(2)
    yield pool
    pool.close()


def meet(barrier, record):
    """A task that returns only once another thread runs the same one:
    records its thread and the numpy error state it sees."""
    def task():
        barrier.wait()
        record.append((threading.get_ident(), np.geterr()["over"]))
        return len(record)
    return task


def test_tasks_run_in_the_callers_context(pool):
    # np.errstate lives in a contextvar, which a new thread does not inherit
    barrier, record = threading.Barrier(2, timeout=30), []
    with np.errstate(over="raise"):
        pool.run([meet(barrier, record), meet(barrier, record)])
    assert len({ident for ident, _ in record}) == 2
    assert [state for _, state in record] == ["raise", "raise"]


def test_task_exception_is_raised_in_the_caller(pool):
    barrier, record = threading.Barrier(2, timeout=30), []

    def fails():
        barrier.wait()
        raise ValueError("part 1 failed")

    with pytest.raises(ValueError, match="part 1 failed"):
        pool.run([meet(barrier, record), fails])
    assert len(record) == 1
    # the pool serves the next call
    assert pool.run([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]


def test_nested_call_runs_inline(pool):
    inner = lambda: pool.run([lambda: "a", lambda: "b"])  # noqa: E731
    assert pool.run([inner, inner]) == [["a", "b"], ["a", "b"]]


def test_stress_more_workers_than_cores():
    # every task runs exactly once per call, whichever thread takes it,
    # with the interpreter switching threads as often as it can
    runs, tasks = 200, 9
    counts = np.zeros((runs, tasks), dtype=np.int64)
    errors = []

    def bump(r, t):
        counts[r, t] += 1
        return r * tasks + t

    def drive():
        try:
            with workers(4) as pool:
                for r in range(runs):
                    got = pool.run([lambda r=r, t=t: bump(r, t)
                                    for t in range(tasks)])
                    assert got == [r * tasks + t for t in range(tasks)]
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        driver = threading.Thread(target=drive)
        driver.start()
        driver.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not driver.is_alive()
    assert errors == []
    assert (counts == 1).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_step(small_net):
    small_net(CONV_DROPOUT=(0.2,) * 4)
    x, ys, yp = synthetic_batch(4, 2, 3, seed=3)
    with workers(2) as pool:
        # the parent's helper threads are running, and exist no more in
        # the child: the child must build its own pool
        assert pool.run([lambda: 1, lambda: 2]) == [1, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                assert tensor._pool is None
                net = PostureNet(ModelConfig(2, 3), tensor.make_rng(14))
                pu, pp = net.forward(x, train=True, rng=tensor.make_rng(15))
                optim.adam_step(net.params(),
                                net.backward(pu, pp, ys, yp, 0.5),
                                optim.AdamState(net.params()), 1e-3)
                code = 0
            except BaseException:
                code = 1
            os._exit(code)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.sched_getaffinity")
def test_pool_size_is_the_allowed_cores():
    assert tensor.pool_workers() == len(os.sched_getaffinity(0))

