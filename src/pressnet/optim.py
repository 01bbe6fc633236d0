"""Adam with bias correction, and the paper's step-decay learning-rate
schedule: each adam_step is given its lr.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import tensor
from .errors import UsageError


class AdamState:
    """Per-parameter moment estimates and the step count; Adam's beta1,
    beta2 and epsilon are the class constants BETA1, BETA2 and EPS."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0


LR_DECAY_RATE, LR_DECAY_EVERY = 0.95, 10  # the paper's step decay


def lr_schedule(base_lr: float, epoch: int) -> float:
    """base_lr * LR_DECAY_RATE ** floor(epoch / LR_DECAY_EVERY)."""
    return base_lr * LR_DECAY_RATE ** (epoch // LR_DECAY_EVERY)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update with learning rate lr, in place on the parameter
    arrays; each parameter's update is one task on the tensor module's
    pool, unless all of them together are under its split floor (an
    update reads and writes only its own parameter's arrays)."""
    if set(grads) != set(params):
        raise UsageError("gradient keys do not match parameter keys")
    for key, p in params.items():
        if grads[key].shape != p.shape:
            raise UsageError(f"gradient shape mismatch for '{key}'")
    state.t += 1
    b1, b2 = AdamState.BETA1, AdamState.BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t

    def update(key):
        p, g = params[key], grads[key]
        dt = p.dtype.type
        m = state.m[key]
        v = state.v[key]
        m *= dt(b1)
        m += dt(1.0 - b1) * g
        v *= dt(b2)
        v += dt(1.0 - b2) * np.square(g)
        mhat = m / dt(bc1)
        vhat = v / dt(bc2)
        p -= dt(lr) * mhat / (np.sqrt(vhat) + dt(AdamState.EPS))

    size = sum(p.size for p in params.values())
    if size >= 2 * tensor.SPLIT_MIN and tensor.pool_workers() > 1:
        # largest first, so the workers end together
        tensor.concurrently([partial(update, key) for key in
                             sorted(params, key=lambda k: -params[k].size)])
    else:
        for key in params:
            update(key)
