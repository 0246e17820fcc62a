"""Actor-critic networks over position / agent-info / perception branches,
with the exploration dial appended at the trunk, trained by clipped-surrogate
policy optimization.

The actor and critic share an architecture but no parameters. Branches are
configurable so the encoder ablations (normalized or learned positions,
ray-cast or no perception) reuse the same wiring.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .world import Action, Vec3


N_ACTIONS = len(Action)


@dataclass(frozen=True)
class ObsNetArch:
    """Shapes of one actor or critic network."""

    out_dim: int
    pe_d: int = 32
    position_mode: str = "sinusoidal"  # sinusoidal | normalized | learned
    perception: str = "occupancy"  # occupancy | raycast | none
    L: int = 7
    occ_embed: int = 8
    conv: tuple[tuple[int, int, int], ...] = ((8, 2, 0), (16, 2, 0))  # (channels, stride, pad)
    pos_units: int = 64
    info_units: tuple[int, ...] = (64, 64)
    ray_units: int = 64
    trunk: tuple[int, ...] = (128, 64, 64)
    head_scale: float = 0.01
    dims: Vec3 = (1, 1, 1)  # needed by learned position tables
    info_dim: int = 9

    def pos_input_dim(self) -> int:
        if self.position_mode == "normalized":
            return 3
        return 3 * self.pe_d


def occupancy_branch(net: nn.Net, L: int, channels: int, conv, rng: np.random.Generator):
    """Add ``occ_embed`` (the 4 occupancy codes) and ``conv0..`` to ``net``.

    Returns the branch stages from the integer codes (the fused stem first)
    and the flattened output width.
    """
    net.layers["occ_embed"] = nn.Embedding(4, channels, "tanh", rng)
    c_prev, side = channels, L
    for i, (c_out, stride, pad) in enumerate(conv):
        layer = net.layers[f"conv{i}"] = nn.Conv3d(c_prev, c_out, 3, stride, pad, "relu", rng)
        side, c_prev = layer.out_size(side), c_out
    if side < 1:
        raise nn.ShapeError(f"conv stack collapses an L={L} cube")
    upper = [f"conv{i}" for i in range(1, len(conv))]
    return [nn.Stem("occ_embed", "conv0", (L, L, L)), *upper], side**3 * c_prev


class ObsNet(nn.Net):
    """One observation-conditioned network (actor head or scalar critic)."""

    def __init__(self, arch: ObsNetArch, rng: np.random.Generator):
        super().__init__()
        self.arch = a = arch

        pos = ("pos", ["pos_fc"])
        if a.position_mode == "learned":
            tables = []
            for i, axis in enumerate("xyz"):
                self.layers[f"pos_table_{axis}"] = nn.Embedding(a.dims[i], a.pe_d, rng=rng)
                tables.append((np.s_[:, i], [f"pos_table_{axis}"]))
            pos = ("pos_idx", [nn.Concat(tables), "pos_fc"])
        self.layers["pos_fc"] = nn.Dense(a.pos_input_dim(), a.pos_units, "relu", rng)
        info, width = self.dense_chain("info_fc", a.info_dim, a.info_units, rng)
        branches = [pos, ("info", info)]
        width += a.pos_units + 1  # +1: alpha

        if a.perception == "occupancy":
            stages, perc_width = occupancy_branch(self, a.L, a.occ_embed, a.conv, rng)
            branches.append(("occ", stages))
            width += perc_width
        elif a.perception == "raycast":
            self.layers["ray_fc"] = nn.Dense(48, a.ray_units, "relu", rng)
            branches.append(("rays", ["ray_fc"]))
            width += a.ray_units
        elif a.perception != "none":
            raise ValueError(f"unknown perception {a.perception!r}")
        branches.append(("alpha", []))

        trunk, width = self.dense_chain("trunk_fc", width, a.trunk, rng)
        self.layers["head"] = nn.Dense(width, a.out_dim, None, rng, w_scale=a.head_scale)
        self.graph = [nn.Concat(branches), *trunk, "head"]
        self.input_keys = [key for key, _ in branches]  # the inputs forward reads

    def descriptor(self) -> dict:
        d = super().descriptor()
        d["arch"] = {
            "out_dim": self.arch.out_dim,
            "position_mode": self.arch.position_mode,
            "perception": self.arch.perception,
            "pe_d": self.arch.pe_d,
            "L": self.arch.L,
        }
        return d


def make_policy_net(arch: ObsNetArch, rng: np.random.Generator) -> ObsNet:
    return ObsNet(arch, rng)


def make_critic_net(arch: ObsNetArch, rng: np.random.Generator) -> ObsNet:
    # Same topology, scalar output, ordinary head scale.
    return ObsNet(replace(arch, out_dim=1, head_scale=1.0), rng)


def act(
    net: ObsNet,
    inputs: dict[str, np.ndarray],
    rngs: list[np.random.Generator] | np.random.Generator | None = None,
    greedy: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample actions for a batch of observations.

    Returns (actions, log_probs, probs). Each batch row can carry its own
    generator so lockstep rollouts stay per-episode deterministic.
    """
    logits, _ = net.forward(inputs)
    nn.check_finite("policy logits", logits)
    probs = nn.softmax(logits)
    n = probs.shape[0]
    if greedy:
        actions = probs.argmax(axis=-1)
    else:
        if isinstance(rngs, np.random.Generator):
            rngs = [rngs] * n
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
    normalize_advantages: bool = True

    def __post_init__(self):
        if not 0.0 < self.clip < 1.0:
            raise ValueError(f"clip must be in (0,1), got {self.clip}")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError(f"gae_lambda must be in [0,1], got {self.gae_lambda}")


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Truncated advantage estimate for one episode.

    `values` has one more entry than `rewards` (the value of the final state
    bootstraps the truncated tail). Returns (advantages, returns).
    """
    T = len(rewards)
    if len(values) != T + 1:
        raise ValueError(f"need {T + 1} values for {T} rewards, got {len(values)}")
    adv = np.zeros(T, dtype=np.float64)
    gae = 0.0
    for t in reversed(range(T)):
        delta = rewards[t] + gamma * values[t + 1] - values[t]
        gae = delta + gamma * lam * gae
        adv[t] = gae
    return adv, adv + values[:-1]


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
        if cfg.normalize_advantages:
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
