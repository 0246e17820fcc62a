"""Novelty reward by random network distillation.

A frozen, randomly initialized target network maps (position code, agent
info) to a feature vector; a trainable predictor chases it. The mean squared
prediction error is the curiosity reward: it decays wherever the agent keeps
returning and stays high in rarely visited states.

The raw error is what trajectory triage consumes after training; an optional
running-deviation normalizer only rescales the copy fed into the combined
step reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .encode import INFO_DIM

if TYPE_CHECKING:
    from .config import Profile


@dataclass(frozen=True)
class CuriosityConfig:
    lr: float = 7e-5
    batch_size: int = 128
    normalize: bool = True
    updates_per_iter: int = 4


class RNDNet(nn.Net):
    """(position code, agent info) -> feature vector, at the profile's ``rnd_*`` widths."""

    def __init__(self, profile: Profile, rng: np.random.Generator):
        super().__init__()
        self.profile = p = profile
        self.layers["pos_fc"] = nn.Dense(3 * p.pe_d, p.rnd_pos_units, "relu", rng)
        info, width = self.dense_chain("info_fc", INFO_DIM, p.rnd_info_units, rng)
        trunk, width = self.dense_chain("trunk_fc", p.rnd_pos_units + width, p.rnd_trunk, rng)
        self.layers["out"] = nn.Dense(width, p.rnd_out, None, rng)
        self.graph = [nn.Concat([("pos", ["pos_fc"]), ("info", info)]), *trunk, "out"]


class RunningStd:
    """Welford accumulator; reports 1.0 until it has seen two samples."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, values: np.ndarray) -> None:
        for v in np.asarray(values, dtype=np.float64).reshape(-1):
            self.count += 1
            d = v - self.mean
            self.mean += d / self.count
            self.m2 += d * (v - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 1.0
        return float(np.sqrt(self.m2 / self.count))


class RNDPair:
    """Frozen target plus trainable predictor with identical architectures."""

    def __init__(
        self,
        profile: Profile,
        cfg: CuriosityConfig,
        target_rng: np.random.Generator,
        predictor_rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.target = RNDNet(profile, target_rng)
        self.predictor = RNDNet(profile, predictor_rng)
        self.adam = nn.Adam(self.predictor.params(), lr=cfg.lr)
        self.reward_std = RunningStd()

    def raw_reward(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Per-state mean squared feature error, always >= 0."""
        t, _ = self.target.forward(inputs)
        p, _ = self.predictor.forward(inputs)
        return ((t - p) ** 2).mean(axis=-1)

    def normalized_reward(self, raw: np.ndarray) -> np.ndarray:
        if not self.cfg.normalize:
            return np.asarray(raw, dtype=np.float64)
        return np.asarray(raw, dtype=np.float64) / (self.reward_std.std + 1e-8)

    def observe_rewards(self, raw: np.ndarray) -> None:
        if self.cfg.normalize:
            self.reward_std.update(raw)

    def train_step(self, inputs: dict[str, np.ndarray]) -> float:
        """One Adam step on the predictor; the target never moves."""
        t, _ = self.target.forward(inputs)
        p, caches = self.predictor.forward(inputs)
        err = p - t
        n, k = err.shape
        loss = float((err**2).mean())
        grads = self.predictor.backward(caches, (2.0 / (n * k)) * err)
        nn.check_finite("rnd loss", np.array([loss]))
        self.adam.step(grads)
        return loss

    def update(self, inputs: dict[str, np.ndarray], rng: np.random.Generator) -> float:
        """A few minibatch steps over freshly collected states."""
        n = len(inputs["pos"])
        total = 0.0
        for _ in range(self.cfg.updates_per_iter):
            idx = rng.integers(0, n, size=min(self.cfg.batch_size, n))
            total += self.train_step({k: v[idx] for k, v in inputs.items()})
        return total / max(self.cfg.updates_per_iter, 1)
