"""Actor-critic networks over position / agent-info / perception branches,
with the exploration dial appended at the trunk, trained by clipped-surrogate
policy optimization.

The actor and critic share an architecture but no parameters. Branches are
configurable so the encoder ablations (normalized or learned positions,
ray-cast or no perception) reuse the same wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .encode import INFO_DIM, RAY_DIM
from .world import Action, Vec3

if TYPE_CHECKING:
    from .config import Profile


N_ACTIONS = len(Action)


def occupancy_branch(net: nn.Net, profile: Profile, rng: np.random.Generator):
    """Add ``occ_embed`` (the 4 occupancy codes) and ``conv0..`` to ``net``.

    Returns the branch stages from the integer codes (the fused stem first)
    and the flattened output width.
    """
    L, conv = profile.L, profile.conv
    net.layers["occ_embed"] = nn.Embedding(4, profile.occ_embed, "tanh", rng)
    c_prev, side = profile.occ_embed, L
    for i, (c_out, stride, pad) in enumerate(conv):
        layer = net.layers[f"conv{i}"] = nn.Conv3d(c_prev, c_out, 3, stride, pad, "relu", rng)
        side, c_prev = layer.out_size(side), c_out
    if side < 1:
        raise nn.ShapeError(f"conv stack collapses an L={L} cube")
    upper = [f"conv{i}" for i in range(1, len(conv))]
    return [nn.Stem("occ_embed", "conv0", (L, L, L)), *upper], side**3 * c_prev


class ObsNet(nn.Net):
    """One observation-conditioned network (actor head or scalar critic).

    ``position_mode`` is sinusoidal, normalized or learned (``dims`` sizes
    the learned tables); ``perception`` is occupancy, raycast or none.
    """

    def __init__(
        self,
        profile: Profile,
        rng: np.random.Generator,
        *,
        out_dim: int,
        position_mode: str,
        perception: str,
        dims: Vec3,
        head_scale: float = 0.01,
    ):
        super().__init__()
        self.profile = p = profile
        self.out_dim, self.position_mode, self.perception = out_dim, position_mode, perception

        pos = ("pos", ["pos_fc"])
        if position_mode == "learned":
            tables = []
            for i, axis in enumerate("xyz"):
                self.layers[f"pos_table_{axis}"] = nn.Embedding(dims[i], p.pe_d, rng=rng)
                tables.append((np.s_[:, i], [f"pos_table_{axis}"]))
            pos = ("pos_idx", [nn.Concat(tables), "pos_fc"])
        pos_dim = 3 if position_mode == "normalized" else 3 * p.pe_d
        self.layers["pos_fc"] = nn.Dense(pos_dim, p.pos_units, "relu", rng)
        info, width = self.dense_chain("info_fc", INFO_DIM, p.info_units, rng)
        branches = [pos, ("info", info)]
        width += p.pos_units + 1  # +1: alpha

        if perception == "occupancy":
            stages, perc_width = occupancy_branch(self, p, rng)
            branches.append(("occ", stages))
            width += perc_width
        elif perception == "raycast":
            self.layers["ray_fc"] = nn.Dense(RAY_DIM, p.ray_units, "relu", rng)
            branches.append(("rays", ["ray_fc"]))
            width += p.ray_units
        elif perception != "none":
            raise ValueError(f"unknown perception {perception!r}")
        branches.append(("alpha", []))

        trunk, width = self.dense_chain("trunk_fc", width, p.trunk, rng)
        self.layers["head"] = nn.Dense(width, out_dim, None, rng, w_scale=head_scale)
        self.graph = [nn.Concat(branches), *trunk, "head"]
        self.input_keys = [key for key, _ in branches]  # the inputs forward reads

    def descriptor(self) -> dict:
        d = super().descriptor()
        d["arch"] = {
            "out_dim": self.out_dim,
            "position_mode": self.position_mode,
            "perception": self.perception,
            "pe_d": self.profile.pe_d,
            "L": self.profile.L,
        }
        return d


def make_policy_net(profile: Profile, rng: np.random.Generator, **branches) -> ObsNet:
    """The actor; ``branches`` are ObsNet's position_mode, perception and dims."""
    return ObsNet(profile, rng, out_dim=N_ACTIONS, **branches)


def make_critic_net(profile: Profile, rng: np.random.Generator, **branches) -> ObsNet:
    # Same topology, scalar output, ordinary head scale.
    return ObsNet(profile, rng, out_dim=1, head_scale=1.0, **branches)


def act(
    net: ObsNet,
    inputs: dict[str, np.ndarray],
    rngs: list[np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Actions for a batch of observations: each row samples from its own
    generator, so lockstep rollouts stay per-episode deterministic, or every
    row takes its most likely action when ``rngs`` is None.

    Returns (actions, log_probs, probs).
    """
    logits = net.infer(inputs)
    nn.check_finite("policy logits", logits)
    probs = nn.softmax(logits)
    n = probs.shape[0]
    if rngs is None:
        actions = probs.argmax(axis=-1)
    else:
        u = np.array([r.random() for r in rngs])
        cum = probs.cumsum(axis=-1)
        actions = (u[:, None] >= cum).sum(axis=-1)
        actions = np.minimum(actions, probs.shape[-1] - 1)
    logp = np.log(probs[np.arange(n), actions])
    return actions, logp, probs


@dataclass
class PPOConfig:
    lr: float = 7e-5
    gamma: float = 0.90
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.1
    value_coef: float = 0.5
    epochs: int = 4
    minibatch: int = 256


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated advantage estimate of a batch of episodes, each on its own.

    `rewards` is (..., T) and `values` (..., T+1): one more entry per episode,
    the value of the final state, bootstraps the truncated tail. Returns
    (advantages, returns), each shaped like `rewards`.
    """
    T = rewards.shape[-1]
    if values.shape != (*rewards.shape[:-1], T + 1):
        raise ValueError(
            f"need values of shape {(*rewards.shape[:-1], T + 1)} for rewards of shape "
            f"{rewards.shape}, got {values.shape}"
        )
    adv = np.zeros(rewards.shape, dtype=np.float64)
    gae = np.zeros(rewards.shape[:-1])
    for t in reversed(range(T)):
        delta = rewards[..., t] + gamma * values[..., t + 1] - values[..., t]
        gae = delta + gamma * lam * gae
        adv[..., t] = gae
    return adv, adv + values[..., :-1]


@dataclass
class RolloutBatch:
    """Flattened step data for one update round."""

    inputs: dict[str, np.ndarray]
    actions: np.ndarray
    logp_old: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


class PPOTrainer:
    def __init__(self, policy: ObsNet, critic: ObsNet, cfg: PPOConfig):
        self.policy = policy
        self.critic = critic
        self.cfg = cfg
        self.policy_adam = nn.Adam(policy.params(), lr=cfg.lr)
        self.critic_adam = nn.Adam(critic.params(), lr=cfg.lr)

    def update(self, batch: RolloutBatch, rng: np.random.Generator) -> dict[str, float]:
        cfg = self.cfg
        n = len(batch)
        adv = batch.advantages
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)

        stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_frac": 0.0}
        updates = 0
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.minibatch):
                sel = order[start : start + cfg.minibatch]
                sub_inputs = {k: v[sel] for k, v in batch.inputs.items()}
                s = self._minibatch_step(
                    sub_inputs,
                    batch.actions[sel],
                    batch.logp_old[sel],
                    adv[sel],
                    batch.returns[sel],
                )
                for k in stats:
                    stats[k] += s[k]
                updates += 1
        for k in stats:
            stats[k] /= max(updates, 1)
        return stats

    def _minibatch_step(self, inputs, actions, logp_old, adv, returns) -> dict[str, float]:
        cfg = self.cfg
        m = len(actions)
        rows = np.arange(m)

        logits, cache = self.policy.forward(inputs)
        nn.check_finite("policy logits", logits)
        logp_all = nn.log_softmax(logits)
        probs = np.exp(logp_all)
        logp = logp_all[rows, actions]
        ratio = np.exp(logp - logp_old)

        # Clipped surrogate: gradient flows through the ratio only where the
        # unclipped branch is active.
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv
        policy_loss = -np.minimum(unclipped, clipped).mean()
        active = np.where(
            adv >= 0.0, ratio <= 1.0 + cfg.clip, ratio >= 1.0 - cfg.clip
        )
        dlogp = np.where(active, -adv * ratio, 0.0) / m

        entropy_rows = -(probs * logp_all).sum(axis=-1)
        entropy = entropy_rows.mean()

        # d/dlogits of (policy_loss - entropy_coef * entropy)
        dlogits = dlogp[:, None] * (np.eye(probs.shape[1])[actions] - probs)
        dlogits += (cfg.entropy_coef / m) * probs * (logp_all + entropy_rows[:, None])
        nn.check_finite("policy update", dlogits)
        grads = self.policy.backward(cache, dlogits)
        self.policy_adam.step(grads)

        values, vcache = self.critic.forward(inputs)
        values = values[:, 0]
        verr = values - returns
        value_loss = float((verr**2).mean())
        dvalues = (cfg.value_coef * 2.0 / m) * verr
        nn.check_finite("critic update", dvalues)
        vgrads = self.critic.backward(vcache, dvalues[:, None])
        self.critic_adam.step(vgrads)

        clip_frac = float((~active).mean())
        return {
            "policy_loss": float(policy_loss),
            "value_loss": value_loss,
            "entropy": float(entropy),
            "clip_frac": clip_frac,
        }
