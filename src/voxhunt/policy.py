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


class ObsNet(nn.Net):
    """One observation-conditioned network (actor head or scalar critic)."""

    def __init__(self, arch: ObsNetArch, rng: np.random.Generator):
        super().__init__()
        self.arch = arch
        a = arch

        if a.position_mode == "learned":
            for i, axis in enumerate("xyz"):
                self.layers[f"pos_table_{axis}"] = nn.Embedding(a.dims[i], a.pe_d, rng=rng)
        self.layers["pos_fc"] = nn.Dense(a.pos_input_dim(), a.pos_units, "relu", rng)

        prev = a.info_dim
        for i, width in enumerate(a.info_units):
            self.layers[f"info_fc{i}"] = nn.Dense(prev, width, "relu", rng)
            prev = width
        self._info_out = prev

        self._perc_out = 0
        if a.perception == "occupancy":
            self.layers["occ_embed"] = nn.Embedding(4, a.occ_embed, "tanh", rng)
            c_prev, side = a.occ_embed, a.L
            for i, (c_out, stride, pad) in enumerate(a.conv):
                layer = nn.Conv3d(c_prev, c_out, 3, stride, pad, "relu", rng)
                self.layers[f"conv{i}"] = layer
                side = layer.out_size(side)
                c_prev = c_out
            if side < 1:
                raise nn.ShapeError(f"conv stack collapses an L={a.L} cube")
            self._conv_side = side
            self._perc_out = side**3 * c_prev
        elif a.perception == "raycast":
            self.layers["ray_fc"] = nn.Dense(48, a.ray_units, "relu", rng)
            self._perc_out = a.ray_units
        elif a.perception != "none":
            raise ValueError(f"unknown perception {a.perception!r}")

        concat = a.pos_units + self._info_out + self._perc_out + 1  # +1: alpha
        self._concat = concat
        prev = concat
        for i, width in enumerate(a.trunk):
            self.layers[f"trunk_fc{i}"] = nn.Dense(prev, width, "relu", rng)
            prev = width
        self.layers["head"] = nn.Dense(prev, a.out_dim, None, rng, w_scale=a.head_scale)

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

    def forward(self, inputs: dict[str, np.ndarray]):
        a = self.arch
        caches: dict[str, object] = {}

        if a.position_mode == "learned":
            idx = inputs["pos_idx"]
            parts = []
            for i, axis in enumerate("xyz"):
                part, caches[f"pos_table_{axis}"] = self.layers[f"pos_table_{axis}"].forward(idx[:, i])
                parts.append(part)
            pos_in = np.concatenate(parts, axis=-1)
        else:
            pos_in = inputs["pos"]
        pos_out, caches["pos_fc"] = self.layers["pos_fc"].forward(pos_in)

        h, caches["info_path"] = self._chain_forward("info_fc", len(a.info_units), inputs["info"])
        info_out = h

        parts = [pos_out, info_out]
        if a.perception == "occupancy":
            occ = inputs["occ"]
            n = occ.shape[0]
            x, stem_cache = nn.embed_conv_forward(
                self.layers["occ_embed"], self.layers["conv0"], occ.reshape(n, a.L, a.L, a.L)
            )
            conv_caches = [stem_cache]
            for i in range(1, len(a.conv)):
                x, c = self.layers[f"conv{i}"].forward(x)
                conv_caches.append(c)
            caches["convs"] = conv_caches
            caches["conv_out_shape"] = x.shape
            parts.append(x.reshape(n, -1))
        elif a.perception == "raycast":
            ray_out, caches["ray_fc"] = self.layers["ray_fc"].forward(inputs["rays"])
            parts.append(ray_out)
        parts.append(inputs["alpha"])

        x = np.concatenate(parts, axis=-1)
        caches["split"] = [p.shape[-1] for p in parts]
        out, caches["trunk_path"] = self._chain_forward("trunk_fc", len(a.trunk), x)
        out, caches["head"] = self.layers["head"].forward(out)
        return out, caches

    def _chain_forward(self, prefix: str, count: int, x: np.ndarray):
        subcaches = []
        for i in range(count):
            x, c = self.layers[f"{prefix}{i}"].forward(x)
            subcaches.append(c)
        return x, subcaches

    def backward(self, caches, dout: np.ndarray) -> dict[str, np.ndarray]:
        a = self.arch
        grads: dict[str, np.ndarray] = {}

        dx, g = self.layers["head"].backward(caches["head"], dout)
        nn.accumulate(grads, g, "head")
        for i in reversed(range(len(a.trunk))):
            dx, g = self.layers[f"trunk_fc{i}"].backward(caches["trunk_path"][i], dx)
            nn.accumulate(grads, g, f"trunk_fc{i}")

        split = caches["split"]
        bounds = np.cumsum(split)[:-1]
        parts = np.split(dx, bounds, axis=-1)
        d_pos, d_info = parts[0], parts[1]
        idx = 2
        if a.perception == "occupancy":
            d_conv = parts[idx]
            idx += 1
        elif a.perception == "raycast":
            d_ray = parts[idx]
            idx += 1

        d_posin, g = self.layers["pos_fc"].backward(caches["pos_fc"], d_pos)
        nn.accumulate(grads, g, "pos_fc")
        if a.position_mode == "learned":
            for i, axis in enumerate("xyz"):
                dpart = d_posin[:, i * a.pe_d : (i + 1) * a.pe_d]
                _, g = self.layers[f"pos_table_{axis}"].backward(
                    caches[f"pos_table_{axis}"], dpart
                )
                nn.accumulate(grads, g, f"pos_table_{axis}")

        dx2 = d_info
        for i in reversed(range(len(a.info_units))):
            dx2, g = self.layers[f"info_fc{i}"].backward(caches["info_path"][i], dx2)
            nn.accumulate(grads, g, f"info_fc{i}")

        if a.perception == "occupancy":
            dxc = d_conv.reshape(caches["conv_out_shape"])
            for i in reversed(range(1, len(a.conv))):
                dxc, g = self.layers[f"conv{i}"].backward(caches["convs"][i], dxc)
                nn.accumulate(grads, g, f"conv{i}")
            g_embed, g_conv = nn.embed_conv_backward(
                self.layers["occ_embed"], self.layers["conv0"], caches["convs"][0], dxc
            )
            nn.accumulate(grads, g_embed, "occ_embed")
            nn.accumulate(grads, g_conv, "conv0")
        elif a.perception == "raycast":
            _, g = self.layers["ray_fc"].backward(caches["ray_fc"], d_ray)
            nn.accumulate(grads, g, "ray_fc")
        return grads


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
