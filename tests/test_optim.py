"""Adam and the step-decay schedule."""

import numpy as np
import pytest

from pressnet.errors import UsageError
from pressnet.optim import AdamState, adam_step, lr_schedule


class TestLrSchedule:
    # the paper's schedule: x0.95 every 10 epochs
    def test_first_decade_flat(self):
        for epoch in range(10):
            assert lr_schedule(2e-5, epoch) == 2e-5

    def test_one_decay(self):
        assert lr_schedule(2e-5, 10) == pytest.approx(1.9e-5)

    def test_epoch_39(self):
        assert lr_schedule(2e-5, 39) == pytest.approx(2e-5 * 0.95 ** 3)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        params = {"w": np.ones(4)}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(4)}, state, lr=1e-3)
        assert np.array_equal(params["w"], np.ones(4))
        assert state.t == 1

    def test_first_step_closed_form(self):
        params = {"w": np.full(3, 5.0)}
        state = AdamState(params)
        adam_step(params, {"w": np.ones(3)}, state, lr=1e-3)
        # t=1: mhat = g, vhat = g^2 -> step = lr * 1 / (1 + eps)
        want = 5.0 - 1e-3 * 1.0 / (1.0 + 1e-8)
        assert np.allclose(params["w"], want, rtol=1e-12)

    def test_identical_tensors_identical_updates(self):
        params = {"a": np.linspace(0, 1, 5), "b": np.linspace(0, 1, 5)}
        g = np.linspace(-1, 1, 5)
        state = AdamState(params)
        adam_step(params, {"a": g.copy(), "b": g.copy()}, state, lr=1e-2)
        assert params["a"].tobytes() == params["b"].tobytes()

    def test_shape_mismatch(self):
        params = {"w": np.ones(4)}
        state = AdamState(params)
        with pytest.raises(UsageError):
            adam_step(params, {"w": np.ones(5)}, state, lr=1e-3)

    def test_key_mismatch(self):
        params = {"w": np.ones(4)}
        state = AdamState(params)
        with pytest.raises(UsageError):
            adam_step(params, {"x": np.ones(4)}, state, lr=1e-3)

    def test_quadratic_loss_decreases(self):
        params = {"p": np.array([0.0])}
        state = AdamState(params)
        loss0 = (params["p"][0] - 3.0) ** 2
        adam_step(params, {"p": 2 * (params["p"] - 3.0)}, state, lr=0.01)
        assert (params["p"][0] - 3.0) ** 2 < loss0

    def test_moments_accumulate(self):
        params = {"w": np.zeros(2)}
        state = AdamState(params)
        for _ in range(3):
            adam_step(params, {"w": np.ones(2)}, state, lr=1e-3)
        assert state.t == 3
        assert np.all(state.v["w"] >= 0)
        assert state.m["w"].shape == params["w"].shape
