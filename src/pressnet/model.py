"""The dual-head convolutional network for pressure frames.

Four conv blocks (the first two with max-pooling) feed two dense layers,
which branch into two parallel softmax heads: one over subjects, one over
postures. A batch norm follows each (bias-free) conv. Training minimizes
lam * user_loss + (1 - lam) * posture_loss plus an L2 penalty, of weight
PostureNet.L2_SIGMA, on convolution and dense weights.

The shared trunk is PostureNet.stages, one ordered list of (name, layer)
pairs: conv1 bn1 pool1 act1 drop1 ... conv4 bn4 act4 drop4 flatten fc1
act_fc1 drop_fc1 fc2 act_fc2 drop_fc2. The two heads, PostureNet.heads,
both read its output. Forward runs the stages in order, backward in
reverse, and parameters, statistics and gradients are keyed "<stage>.<key>"
in stage order, heads last.

Inference runs the stages over blocks of at most PostureNet.EVAL_BLOCK
frames and concatenates their probabilities, so its working set is one
block's activations whatever the batch (at most 10.9 MB, conv2's column
matrix, against 88 MB in a 256-frame pass); each frame's probabilities are
those of its block's pass. Each conv -> bn -> pool triple runs at pooled
resolution (_pooled_block): the conv sees only the input rows and columns
its pool reads, the pool runs on the conv output, and batch norm on the
pooled map. Every stage's forward is still called, and the probabilities
are bit for bit those of running the stages in order. Training runs each
batch in one pass, in stage order.

The architecture is the paper's and is fixed: PostureNet's class constants
CONV_CHANNELS, CONV_DROPOUT, DENSE_WIDTH and DENSE_DROPOUT, on the
dataio.GRID_ROWS x GRID_COLS input. ModelConfig holds only the two class
counts. The feature maps run
32x64 -> 30x62 -> pool 14x30 -> 12x28 -> pool 5x13 -> 3x11 -> 1x9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataio, losses
from .errors import CheckpointError, ConfigError, ShapeError, check_field_types
from .layers import (BatchNorm2D, Conv2D, Dense, Dropout, Flatten, LeakyReLU,
                     MaxPool2D, backward_stages, collect, forward_stages)


@dataclass
class ModelConfig:
    """The two class counts, the only settings of the paper's network."""

    num_subjects: int
    num_postures: int

    def __post_init__(self):
        check_field_types(self)
        if self.num_subjects < 2 or self.num_postures < 2:
            raise ConfigError("need at least 2 subjects and 2 postures")


class PostureNet:
    """Fig.-2-style network instance: parameters, forward, backward."""

    EVAL_BLOCK = 32  # frames per inference pass; faster than 16, 64 or 256
    L2_SIGMA = 0.002  # the paper's L2 weight: loss adds sigma * sum(w ** 2)
    # the paper's architecture: output channels and dropout rate of each
    # conv block, then the width and dropout rate of both dense layers
    CONV_CHANNELS = (32, 64, 128, 128)
    CONV_DROPOUT = (0.1, 0.2, 0.3, 0.4)
    DENSE_WIDTH = 256
    DENSE_DROPOUT = 0.5

    @staticmethod
    def feature_shapes():
        """Spatial size after each conv/pool stage, from the input grid and
        MaxPool2D's geometry: conv1 pool1 conv2 pool2 conv3 conv4."""
        h, w = dataio.GRID_ROWS, dataio.GRID_COLS
        win, stride = MaxPool2D.WINDOW, MaxPool2D.STRIDE
        trim = Conv2D.KERNEL - 1  # a valid conv's output is this much smaller
        shapes = []
        for i in range(4):
            h, w = h - trim, w - trim
            shapes.append((h, w))
            if i < 2:
                h, w = (h - win) // stride + 1, (w - win) // stride + 1
                shapes.append((h, w))
        return shapes

    def __init__(self, config: ModelConfig, rng, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        width = self.DENSE_WIDTH
        # layers are built in stage order, so the weights draw from rng in it
        self.stages = []
        cin = 1
        for i, cout in enumerate(self.CONV_CHANNELS, start=1):
            # conv1's input is the data: no gradient flows back into it
            self.stages += [(f"conv{i}", Conv2D(cin, cout, rng, dtype,
                                                needs_input_grad=i > 1)),
                            (f"bn{i}", BatchNorm2D(cout, dtype))]
            if i <= 2:
                self.stages.append((f"pool{i}", MaxPool2D()))
            self.stages += [(f"act{i}", LeakyReLU()),
                            (f"drop{i}", Dropout(self.CONV_DROPOUT[i - 1]))]
            cin = cout
        self.stages.append(("flatten", Flatten()))
        h, w = self.feature_shapes()[-1]
        fan_in = cin * h * w
        for fc in ("fc1", "fc2"):
            self.stages += [(fc, Dense(fan_in, width, rng, dtype)),
                            (f"act_{fc}", LeakyReLU()),
                            (f"drop_{fc}", Dropout(self.DENSE_DROPOUT))]
            fan_in = width
        self.heads = [(name, Dense(width, n, rng, dtype))
                      for name, n in (("head_subject", config.num_subjects),
                                      ("head_posture", config.num_postures))]

        # Per-kind aliases of the stages, read only by bench/spans.py
        # (Tracer._label_net) to name its timing spans.
        s = dict(self.stages + self.heads)
        self.convs, self.bns, self.pools, self.conv_acts, self.conv_drops = (
            [s.get(f"{kind}{i}") for i in range(1, 5)]
            for kind in ("conv", "bn", "pool", "act", "drop"))
        self.fc1, self.fc1_act, self.fc1_drop = (
            s["fc1"], s["act_fc1"], s["drop_fc1"])
        self.fc2, self.fc2_act, self.fc2_drop = (
            s["fc2"], s["act_fc2"], s["drop_fc2"])
        self.head_subject, self.head_posture = (
            s["head_subject"], s["head_posture"])

    # ------------------------------------------------------------- params

    def params(self) -> dict:
        """Trainable tensors, in a fixed deterministic order."""
        return collect(self.stages + self.heads, "params")

    def bn_stats(self) -> dict:
        return collect(self.stages + self.heads, "stats")

    def set_params(self, values: dict, stats: dict):
        """Overwrite every parameter and running statistic in place.

        values and stats must hold exactly this net's keys, each with this
        net's shape; otherwise CheckpointError names the first key that does
        not, and nothing is written.
        """
        pairs = ((self.params(), values, "parameter"),
                 (self.bn_stats(), stats, "statistic"))
        for own, given, kind in pairs:
            for key in own:
                if key not in given:
                    raise CheckpointError(f"{kind} '{key}' is missing")
            for key, arr in given.items():
                if key not in own:
                    raise CheckpointError(f"unknown {kind} '{key}'")
                if arr.shape != own[key].shape:
                    raise CheckpointError(
                        f"{kind} '{key}' has shape {arr.shape}, "
                        f"expected {own[key].shape}")
        for own, given, _ in pairs:
            for key, arr in given.items():
                own[key][...] = arr

    def l2_weight_keys(self):
        """Conv and dense weight tensors only: no biases, no batch norm."""
        return [k for k in self.params() if k.endswith(".w")]

    # ------------------------------------------------------------ forward

    def forward(self, x: np.ndarray, train: bool = False, rng=None):
        """Run the network; returns (subject_probs, posture_probs).

        Train mode runs the whole batch in one pass, caches everything
        backward needs and draws dropout masks from rng. Inference is
        deterministic, uses running batch-norm statistics and runs blocks of
        at most EVAL_BLOCK frames, whose probabilities it concatenates; in
        each block a pooled conv block runs its batch norm after the pool,
        which changes no bit of the result. Every stage's and head's cache
        is cleared first, so a forward that raises part way leaves none.
        """
        for _, layer in self.stages + self.heads:
            layer._keep(False)
        grid = (dataio.GRID_ROWS, dataio.GRID_COLS)
        if x.ndim != 4 or x.shape[0] < 1 or x.shape[1:] != (1, *grid):
            raise ShapeError(f"expected input [B,1,{grid[0]},{grid[1]}] "
                             f"with B >= 1, got {x.shape}")
        h = x.astype(self.dtype, copy=False)
        if train:
            return self._heads(forward_stages(self.stages, h, True, rng), True)
        step = self.EVAL_BLOCK
        blocks = [self._heads(self._infer(h[s:s + step]), False)
                  for s in range(0, len(h), step)]
        return tuple(np.concatenate(p) for p in zip(*blocks))

    def _heads(self, h, train: bool):
        logits_u, logits_p = (head.forward(h, train) for _, head in self.heads)
        return losses.softmax(logits_u), losses.softmax(logits_p)

    def _infer(self, h):
        """The eval stage loop, each conv -> bn -> pool triple run at pooled
        resolution by _pooled_block: the trunk's output, bit for bit that of
        forward_stages(self.stages, h, False)."""
        stages = [layer for _, layer in self.stages]
        i = 0
        while i < len(stages):
            if i + 2 < len(stages) and isinstance(stages[i + 2], MaxPool2D):
                h = _pooled_block(h, *stages[i:i + 3])
                i += 3
            else:
                h = stages[i].forward(h, False)
                i += 1
        return h

    # ------------------------------------------------------------- losses

    def loss(self, probs_u, probs_p, labels_u, labels_p, lam: float):
        """Returns (total, user_ce, posture_ce, l2) for one batch."""
        lu = losses.cross_entropy(probs_u, labels_u)
        lp = losses.cross_entropy(probs_p, labels_p)
        params = self.params()
        l2 = losses.l2_penalty((params[k] for k in self.l2_weight_keys()),
                               self.L2_SIGMA)
        return losses.combined_loss(lu, lp, lam) + l2, lu, lp, l2

    # ------------------------------------------------------------ backward

    def backward(self, probs_u, probs_p, labels_u, labels_p, lam: float) -> dict:
        """Gradients of the combined loss + L2 w.r.t. every trainable tensor.

        Requires the immediately preceding forward to have run in train mode
        on the same batch. The layers enforce that order: each takes the
        cache its last forward left, so after an eval forward, a forward
        that raised, or a second time, backward raises UsageError before
        any gradient is written.
        """
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0,1], got {lam}")
        dt = self.dtype
        g_u = dt(lam) * losses.cross_entropy_grad_logits(probs_u, labels_u)
        g_p = dt(1.0 - lam) * losses.cross_entropy_grad_logits(probs_p, labels_p)
        (_, head_u), (_, head_p) = self.heads
        g = head_u.backward(g_u) + head_p.backward(g_p)
        backward_stages(self.stages, g)  # None: conv1's input is the data
        grads = collect(self.stages + self.heads, "grads")
        sigma2 = dt(2.0 * self.L2_SIGMA)
        params = self.params()
        for key in self.l2_weight_keys():
            grads[key] = grads[key] + sigma2 * params[key]
        return grads


def _pooled_block(x, conv: Conv2D, bn: BatchNorm2D, pool: MaxPool2D):
    """pool(bn(conv(x))) at inference, with batch norm run after the pool.

    The eval batch norm maps each channel by fl(fl(y * scale) + shift).
    Float rounding is monotone, so for scale > 0 that map never decreases
    as y grows and commutes with max-pooling; for scale < 0 it never
    increases, so the max of the map is the map of the min, taken here as
    -pool(-y), which is exact. A zero scale maps a finite y to a constant.
    So for finite conv outputs the result is bit for bit that of the stage
    order, up to the sign of a zero when shift is -0. The conv sees only the
    input rows and columns under the pool's windows, as a channels-last
    copy (4.9% fewer GEMM rows for conv1, 11.6% for conv2), and every
    stage's forward is still called.
    """
    trim = conv.KERNEL - 1
    rows, cols = pool.reads(x.shape[2] - trim, x.shape[3] - trim)
    crop = x.transpose(0, 2, 3, 1)[:, :rows + trim, :cols + trim]
    y = conv.forward(np.ascontiguousarray(crop).transpose(0, 3, 1, 2), False)
    flip = bn.eval_affine()[0] < 0
    if flip.any():
        sign = np.where(flip, -1, 1).astype(y.dtype)[:, None, None]
        y *= sign
        pooled = pool.forward(y, False)
        pooled *= sign
    else:
        pooled = pool.forward(y, False)
    del y
    return bn.forward(pooled, False)
