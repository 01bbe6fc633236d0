"""The dual-head convolutional network for pressure frames.

Four conv blocks (the first two with max-pooling) feed two dense layers,
which branch into two parallel softmax heads: one over subjects, one over
postures. Training minimizes lam * user_loss + (1 - lam) * posture_loss
plus an L2 penalty on convolution and dense weights.

With the default config the feature maps run
32x64 -> 30x62 -> pool 14x30 -> 12x28 -> pool 5x13 -> 3x11 -> 1x9.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import losses, tensor
from .errors import CheckpointError, ConfigError, ShapeError, UsageError
from .layers import (BatchNorm2D, Conv2D, Dense, Dropout, Flatten, LeakyReLU,
                     MaxPool2D, collect)


@dataclass
class ModelConfig:
    num_subjects: int
    num_postures: int
    conv_channels: tuple = (32, 64, 128, 128)
    dense_width: int = 256
    leaky_slope: float = 0.2
    conv_dropout: tuple = (0.1, 0.2, 0.3, 0.4)
    dense_dropout: float = 0.5
    l2_sigma: float = 0.002
    input_hw: tuple = (32, 64)

    def __post_init__(self):
        self.conv_channels = tuple(int(c) for c in self.conv_channels)
        self.conv_dropout = tuple(float(p) for p in self.conv_dropout)
        self.input_hw = tuple(int(d) for d in self.input_hw)
        if self.num_subjects < 2 or self.num_postures < 2:
            raise ConfigError("need at least 2 subjects and 2 postures")
        if len(self.conv_channels) != 4 or any(c < 1 for c in self.conv_channels):
            raise ConfigError("conv_channels must be 4 positive integers")
        if len(self.conv_dropout) != 4:
            raise ConfigError("conv_dropout must list 4 rates")
        for p in (*self.conv_dropout, self.dense_dropout):
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"dropout rate {p} outside [0,1)")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must be in (0,1)")
        if self.l2_sigma < 0.0:
            raise ConfigError("l2_sigma must be nonnegative")

    def feature_shapes(self):
        """Spatial size after each conv/pool stage; ConfigError if any conv
        would see a map smaller than its kernel."""
        h, w = self.input_hw
        shapes = []
        for i in range(4):
            if h < 3 or w < 3:
                raise ConfigError(
                    f"feature map {h}x{w} too small for conv block {i + 1}")
            h, w = h - 2, w - 2
            shapes.append((h, w))
            if i < 2:
                if h < 3 or w < 3:
                    raise ConfigError(
                        f"feature map {h}x{w} too small for pool in block {i + 1}")
                h, w = (h - 3) // 2 + 1, (w - 3) // 2 + 1
                shapes.append((h, w))
        return shapes

    def as_dict(self) -> dict:
        """Every field, tuples as lists: the form config.json and checkpoint
        headers store."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @property
    def flat_features(self) -> int:
        h, w = self.feature_shapes()[-1]
        return self.conv_channels[-1] * h * w


class PostureNet:
    """Fig.-2-style network instance: parameters, forward, backward."""

    def __init__(self, config: ModelConfig, rng, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        config.feature_shapes()  # shape arithmetic must close at build time
        slope = config.leaky_slope
        cin = 1
        self.convs, self.bns, self.pools = [], [], []
        self.conv_acts, self.conv_drops = [], []
        for i, cout in enumerate(config.conv_channels):
            # conv1's input is the data: no gradient flows back into it
            self.convs.append(Conv2D(cin, cout, rng, slope, dtype,
                                     needs_input_grad=i > 0))
            self.bns.append(BatchNorm2D(cout, dtype))
            self.pools.append(MaxPool2D(3, 2) if i < 2 else None)
            self.conv_acts.append(LeakyReLU(slope))
            self.conv_drops.append(Dropout(config.conv_dropout[i]))
            cin = cout
        self.flatten = Flatten()
        self.fc1 = Dense(config.flat_features, config.dense_width, rng, slope, dtype)
        self.fc1_act = LeakyReLU(slope)
        self.fc1_drop = Dropout(config.dense_dropout)
        self.fc2 = Dense(config.dense_width, config.dense_width, rng, slope, dtype)
        self.fc2_act = LeakyReLU(slope)
        self.fc2_drop = Dropout(config.dense_dropout)
        self.head_subject = Dense(config.dense_width, config.num_subjects, rng, slope, dtype)
        self.head_posture = Dense(config.dense_width, config.num_postures, rng, slope, dtype)
        self._cached_train = False

    # ------------------------------------------------------------- params

    def _named_layers(self):
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns), start=1):
            yield f"conv{i}", conv
            yield f"bn{i}", bn
        yield "fc1", self.fc1
        yield "fc2", self.fc2
        yield "head_subject", self.head_subject
        yield "head_posture", self.head_posture

    def params(self) -> dict:
        """Trainable tensors, in a fixed deterministic order."""
        return collect(self._named_layers(), "params")

    def bn_stats(self) -> dict:
        return collect(self._named_layers(), "stats")

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

        Train mode caches everything backward needs and draws dropout masks
        from rng; inference is deterministic and uses running batch-norm
        statistics.
        """
        if x.ndim != 4 or x.shape[1] != 1 or x.shape[2:] != self.config.input_hw:
            raise ShapeError(
                f"expected input [B,1,{self.config.input_hw[0]},"
                f"{self.config.input_hw[1]}], got {x.shape}")
        h = x.astype(self.dtype, copy=False)
        for i in range(4):
            h = self.convs[i].forward(h, train)
            h = self.bns[i].forward(h, train)
            if self.pools[i] is not None:
                h = self.pools[i].forward(h, train)
            h = self.conv_acts[i].forward(h, train)
            h = self.conv_drops[i].forward(h, train, rng)
        h = self.flatten.forward(h, train)
        h = self.fc1_drop.forward(self.fc1_act.forward(
            self.fc1.forward(h, train), train), train, rng)
        h = self.fc2_drop.forward(self.fc2_act.forward(
            self.fc2.forward(h, train), train), train, rng)
        logits_u = self.head_subject.forward(h, train)
        logits_p = self.head_posture.forward(h, train)
        self._cached_train = train
        return losses.softmax(logits_u), losses.softmax(logits_p)

    # ------------------------------------------------------------- losses

    def loss(self, probs_u, probs_p, labels_u, labels_p, lam: float):
        """Returns (total, user_ce, posture_ce, l2) for one batch."""
        lu = losses.cross_entropy(probs_u, labels_u)
        lp = losses.cross_entropy(probs_p, labels_p)
        params = self.params()
        l2 = losses.l2_penalty((params[k] for k in self.l2_weight_keys()),
                               self.config.l2_sigma)
        return losses.combined_loss(lu, lp, lam) + l2, lu, lp, l2

    # ------------------------------------------------------------ backward

    def backward(self, probs_u, probs_p, labels_u, labels_p, lam: float) -> dict:
        """Gradients of the combined loss + L2 w.r.t. every trainable tensor.

        Requires the immediately preceding forward to have run in train mode
        on the same batch.
        """
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda must be in [0,1], got {lam}")
        if not self._cached_train:
            raise UsageError("backward requires a train-mode forward first")
        dt = self.dtype
        g_u = dt(lam) * losses.cross_entropy_grad_logits(probs_u, labels_u)
        g_p = dt(1.0 - lam) * losses.cross_entropy_grad_logits(probs_p, labels_p)
        g = self.head_subject.backward(g_u) + self.head_posture.backward(g_p)
        g = self.fc2.backward(self.fc2_act.backward(self.fc2_drop.backward(g)))
        g = self.fc1.backward(self.fc1_act.backward(self.fc1_drop.backward(g)))
        g = self.flatten.backward(g)
        for i in reversed(range(4)):
            g = self.conv_acts[i].backward(self.conv_drops[i].backward(g))
            if self.pools[i] is not None:
                g = self.pools[i].backward(g)
            g = self.bns[i].backward(g)
            g = self.convs[i].backward(g)

        grads = collect(self._named_layers(), "grads")
        sigma2 = dt(2.0 * self.config.l2_sigma)
        params = self.params()
        for key in self.l2_weight_keys():
            grads[key] = grads[key] + sigma2 * params[key]
        return grads
