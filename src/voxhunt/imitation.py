"""Adversarial imitation: a least-squares discriminator over (occupancy,
action) pairs separates expert demonstration steps from policy rollouts.

The discriminator ends in a plain linear unit. Its targets are +1 for expert
pairs and -1 for policy pairs, so a squashing output could never reach them;
the bounded shaping happens in the reward map instead, which clamps

    r_i = max(0, 1 - 0.25 * (D - 1)^2)

into [0, 1]. A gradient penalty on expert samples (applied at the continuous
surfaces: embedded occupancy codes and the action one-hot) keeps the
discriminator from sharpening without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .encode import ObservationEncoder
from .mapio import load_demo_script
from .policy import N_ACTIONS
from .world import Action, Trajectory, VoxelMap, WorldError, play_script


class DemoError(WorldError):
    pass


class DemoReferenceError(DemoError):
    """Demo references a map or goal that is not the one being trained."""


class DemoReplayError(DemoError):
    """Demo script no longer reaches its goal when replayed."""


@dataclass(frozen=True)
class ImitationConfig:
    lr: float = 7e-5
    batch_size: int = 32
    buffer_capacity: int = 100_000
    gp_coef: float = 5.0
    updates_per_iter: int = 2
    fd_step: float = 1e-3  # directional step for the penalty's parameter grads


@dataclass(frozen=True)
class DiscArch:
    L: int = 7
    occ_embed: int = 8
    conv: tuple[tuple[int, int, int], ...] = ((8, 2, 0), (16, 2, 0))
    act_units: int = 64
    trunk: tuple[int, ...] = (128, 64, 64)


class Discriminator(nn.Net):
    """Occupancy conv branch + action one-hot branch -> trunk -> linear D(s,a)."""

    def __init__(self, arch: DiscArch, rng: np.random.Generator):
        super().__init__()
        self.arch = arch
        a = arch
        self.layers["occ_embed"] = nn.Embedding(4, a.occ_embed, "tanh", rng)
        c_prev, side = a.occ_embed, a.L
        for i, (c_out, stride, pad) in enumerate(a.conv):
            layer = nn.Conv3d(c_prev, c_out, 3, stride, pad, "relu", rng)
            self.layers[f"conv{i}"] = layer
            side = layer.out_size(side)
            c_prev = c_out
        self._conv_out = (side, c_prev)
        self.layers["act_fc"] = nn.Dense(N_ACTIONS, a.act_units, "relu", rng)
        prev = side**3 * c_prev + a.act_units
        for i, width in enumerate(a.trunk):
            self.layers[f"trunk_fc{i}"] = nn.Dense(prev, width, "relu", rng)
            prev = width
        self.layers["head"] = nn.Dense(prev, 1, None, rng)

    def embed_occupancy(self, occ_codes: np.ndarray):
        """Map integer codes (N, L^3) onto the continuous embedded cube."""
        n = occ_codes.shape[0]
        emb, cache = self.layers["occ_embed"].forward(occ_codes.reshape(n, -1))
        a = self.arch
        return emb.reshape(n, a.L, a.L, a.L, a.occ_embed), cache

    def core_forward(self, occ_emb: np.ndarray, act_onehot: np.ndarray):
        """Forward from the embedded surfaces; the entry point the penalty differentiates."""
        x, conv0_cache = self.layers["conv0"].forward(occ_emb)
        d, caches = self._upper_forward(x, act_onehot)
        caches["conv0"] = conv0_cache
        return d, caches

    def core_backward(self, caches, dout: np.ndarray):
        """Returns (param grads, d occ_emb, d act_onehot) for per-sample dout."""
        grads, dx, d_actin = self._upper_backward(caches, dout)
        d_emb, g = self.layers["conv0"].backward(caches["conv0"], dx)
        nn.accumulate(grads, g, "conv0")
        return grads, d_emb, d_actin

    def forward(self, occ_codes: np.ndarray, act_onehot: np.ndarray):
        """Forward from integer codes (N, L^3), with the embedding folded into conv0."""
        a = self.arch
        codes = occ_codes.reshape(-1, a.L, a.L, a.L)
        x, stem_cache = nn.embed_conv_forward(self.layers["occ_embed"], self.layers["conv0"], codes)
        d, caches = self._upper_forward(x, act_onehot)
        caches["stem"] = stem_cache
        return d, caches

    def backward(self, caches, dout: np.ndarray) -> dict[str, np.ndarray]:
        grads, dx, _ = self._upper_backward(caches, dout)
        g_embed, g_conv = nn.embed_conv_backward(
            self.layers["occ_embed"], self.layers["conv0"], caches["stem"], dx
        )
        nn.accumulate(grads, g_embed, "occ_embed")
        nn.accumulate(grads, g_conv, "conv0")
        return grads

    def _upper_forward(self, x: np.ndarray, act_onehot: np.ndarray):
        """Everything above conv0: the remaining convs, the action branch, trunk and head."""
        a = self.arch
        n = x.shape[0]
        caches: dict[str, object] = {}
        for i in range(1, len(a.conv)):
            x, caches[f"conv{i}"] = self.layers[f"conv{i}"].forward(x)
        caches["conv_out_shape"] = x.shape
        act_out, caches["act_fc"] = self.layers["act_fc"].forward(act_onehot)
        x = np.concatenate([x.reshape(n, -1), act_out], axis=-1)
        caches["split"] = x.shape[-1] - act_out.shape[-1]
        for i in range(len(a.trunk)):
            x, c = self.layers[f"trunk_fc{i}"].forward(x)
            caches[f"trunk_fc{i}"] = c
        out, caches["head"] = self.layers["head"].forward(x)
        return out[:, 0], caches

    def _upper_backward(self, caches, dout: np.ndarray):
        """Returns (param grads above conv0, d conv0 output, d act_onehot)."""
        a = self.arch
        grads: dict[str, np.ndarray] = {}
        dx, g = self.layers["head"].backward(caches["head"], dout[:, None])
        nn.accumulate(grads, g, "head")
        for i in reversed(range(len(a.trunk))):
            dx, g = self.layers[f"trunk_fc{i}"].backward(caches[f"trunk_fc{i}"], dx)
            nn.accumulate(grads, g, f"trunk_fc{i}")
        split = caches["split"]
        d_conv, d_act = dx[:, :split], dx[:, split:]
        d_actin, g = self.layers["act_fc"].backward(caches["act_fc"], d_act)
        nn.accumulate(grads, g, "act_fc")
        dxc = d_conv.reshape(caches["conv_out_shape"])
        for i in reversed(range(1, len(a.conv))):
            dxc, g = self.layers[f"conv{i}"].backward(caches[f"conv{i}"], dxc)
            nn.accumulate(grads, g, f"conv{i}")
        return grads, dxc, d_actin

    def score(self, occ_codes: np.ndarray, act_onehot: np.ndarray) -> np.ndarray:
        d, _ = self.forward(occ_codes, act_onehot)
        return d


def one_hot_actions(actions: np.ndarray) -> np.ndarray:
    return np.eye(N_ACTIONS, dtype=np.float64)[np.asarray(actions, dtype=np.int64)]


def imitation_reward_from_d(d: np.ndarray | float) -> np.ndarray | float:
    """Bounded reward in [0, 1]: 1 at D=+1 (expert-perfect), 0 at D<=-1."""
    return np.maximum(0.0, 1.0 - 0.25 * (np.asarray(d, dtype=np.float64) - 1.0) ** 2)


def adversarial_loss_and_grads(
    disc: Discriminator,
    expert_occ: np.ndarray,
    expert_act: np.ndarray,
    policy_occ: np.ndarray,
    policy_act: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Least-squares loss mean[(D_expert - 1)^2] + mean[(D_policy + 1)^2]."""
    d_e, cache_e = disc.forward(expert_occ, one_hot_actions(expert_act))
    d_p, cache_p = disc.forward(policy_occ, one_hot_actions(policy_act))
    loss = float(((d_e - 1.0) ** 2).mean() + ((d_p + 1.0) ** 2).mean())
    nn.check_finite("discriminator loss", np.array([loss]))
    g_e = disc.backward(cache_e, 2.0 * (d_e - 1.0) / len(d_e))
    g_p = disc.backward(cache_p, 2.0 * (d_p + 1.0) / len(d_p))
    grads = {k: g_e[k] + g_p[k] for k in g_e}
    return loss, grads


def gradient_penalty(
    disc: Discriminator,
    expert_occ: np.ndarray,
    expert_act: np.ndarray,
    coef: float = 5.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """coef * mean squared norm of the input gradients on expert samples.

    Gradients are taken with respect to the continuous surfaces (embedded
    occupancy and action one-hot). Returns (penalty, g_emb, g_act) so training
    can reuse the directions.
    """
    onehot = one_hot_actions(expert_act)
    emb, _ = disc.embed_occupancy(expert_occ)
    _, caches = disc.core_forward(emb, onehot)
    _, g_emb, g_act = disc.core_backward(caches, np.ones(len(expert_occ)))
    sq = (g_emb.reshape(len(expert_occ), -1) ** 2).sum(axis=1) + (g_act**2).sum(axis=1)
    return coef * float(sq.mean()), g_emb, g_act


def penalty_parameter_grads(
    disc: Discriminator,
    expert_occ: np.ndarray,
    expert_act: np.ndarray,
    coef: float,
    fd_step: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Penalty value plus its parameter gradients.

    The penalty is ||grad_x D||^2, so its parameter gradient needs second
    derivatives. With v = grad_x D held fixed, d/dtheta ||v||^2 equals
    2 * d/dtheta <grad_x D, v>, and the directional derivative is evaluated by
    central differences along v at the embedded inputs. ReLU networks are
    piecewise linear there, so the estimate is exact up to mask flips inside
    the step. The embedding table itself receives no penalty gradient: the
    penalty is defined at (and regularizes the network above) the embedded
    surface.
    """
    onehot = one_hot_actions(expert_act)
    emb, _ = disc.embed_occupancy(expert_occ)
    _, caches = disc.core_forward(emb, onehot)
    _, g_emb, g_act = disc.core_backward(caches, np.ones(len(expert_occ)))
    n = len(expert_occ)
    flat = np.concatenate([g_emb.reshape(n, -1), g_act], axis=1)
    norms = np.sqrt((flat**2).sum(axis=1))
    penalty = coef * float((norms**2).mean())

    safe = np.maximum(norms, 1e-12)
    unit_emb = g_emb / safe[:, None, None, None, None]
    unit_act = g_act / safe[:, None]
    # d/dtheta penalty = (2c/N) sum_n ||v_n|| * d/dtheta <grad D, v_hat_n>
    weight = np.where(norms > 1e-12, 2.0 * coef * norms / (n * 2.0 * fd_step), 0.0)

    _, cp = disc.core_forward(emb + fd_step * unit_emb, onehot + fd_step * unit_act)
    gp_plus, _, _ = disc.core_backward(cp, weight)
    _, cm = disc.core_forward(emb - fd_step * unit_emb, onehot - fd_step * unit_act)
    gp_minus, _, _ = disc.core_backward(cm, weight)
    grads = {k: gp_plus[k] - gp_minus[k] for k in gp_plus}
    return penalty, grads


class ReplayBuffer:
    """Fixed-capacity ring of policy (occupancy, action) pairs, uniform sampling."""

    def __init__(self, capacity: int, occ_cells: int):
        self.capacity = capacity
        self.occ = np.zeros((capacity, occ_cells), dtype=np.uint8)
        self.act = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self._ptr = 0

    def add_batch(self, occ: np.ndarray, act: np.ndarray) -> None:
        for i in range(len(act)):
            self.occ[self._ptr] = occ[i]
            self.act[self._ptr] = act[i]
            self._ptr = (self._ptr + 1) % self.capacity
            self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, self.size, size=n)
        return self.occ[idx], self.act[idx]


@dataclass
class Demo:
    map_name: str
    goal_id: int
    actions: list[Action]
    trajectory: Trajectory
    source: str = ""


@dataclass
class DemoSet:
    map_name: str
    demos: list[Demo] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.demos)


def record_demo(
    vmap: VoxelMap, actions: list[Action], goal_id: int, source: str = ""
) -> Demo:
    """Replay-validate a script as an expert demo; it must reach its goal."""
    traj = play_script(vmap, actions)
    goal_ids = {g.id for g in vmap.goals}
    if goal_id not in goal_ids:
        raise DemoReferenceError(
            f"{source or 'demo'}: goal {goal_id} not in map {vmap.name} (has {sorted(goal_ids)})"
        )
    if not traj.reached_goal:
        raise DemoReplayError(
            f"{source or 'demo'}: script never reaches a goal on map {vmap.name}"
        )
    return Demo(vmap.name, goal_id, list(actions), traj, source)


def load_demos(paths: list[str | Path], vmap: VoxelMap) -> DemoSet:
    demos = DemoSet(map_name=vmap.name)
    if not paths:
        raise DemoError("no demo files given")
    for p in paths:
        map_name, goal_id, actions = load_demo_script(p)
        if map_name != vmap.name:
            raise DemoReferenceError(
                f"{p}: demo is for map {map_name!r}, training on {vmap.name!r}"
            )
        demos.demos.append(record_demo(vmap, actions, goal_id, source=str(p)))
    return demos


def demo_pairs(
    demoset: DemoSet, encoder: ObservationEncoder
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct (occupancy, action) training pairs by replaying each demo."""
    occ_rows = []
    act_rows = []
    for demo in demoset.demos:
        for t, action in enumerate(demo.trajectory.actions):
            occ_rows.append(encoder.occupancy(demo.trajectory.states[t], tick=t).reshape(-1))
            act_rows.append(int(action))
    return np.stack(occ_rows), np.array(act_rows, dtype=np.int64)


class AMPModule:
    """Owns the discriminator, its buffer and expert set; produces r_i."""

    def __init__(
        self,
        arch: DiscArch,
        cfg: ImitationConfig,
        expert_occ: np.ndarray,
        expert_act: np.ndarray,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.disc = Discriminator(arch, rng)
        self.adam = nn.Adam(self.disc.params(), lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, arch.L**3)
        self.expert_occ = expert_occ
        self.expert_act = expert_act

    def reward(self, occ_codes: np.ndarray, actions: np.ndarray) -> np.ndarray:
        d = self.disc.score(occ_codes, one_hot_actions(actions))
        return imitation_reward_from_d(d)

    def observe_policy_pairs(self, occ_codes: np.ndarray, actions: np.ndarray) -> None:
        self.buffer.add_batch(occ_codes, actions)

    def update(self, rng: np.random.Generator) -> dict[str, float]:
        cfg = self.cfg
        stats = {"disc_loss": 0.0, "penalty": 0.0}
        for _ in range(cfg.updates_per_iter):
            ei = rng.integers(0, len(self.expert_act), size=cfg.batch_size)
            p_occ, p_act = self.buffer.sample(rng, cfg.batch_size)
            loss, grads = adversarial_loss_and_grads(
                self.disc, self.expert_occ[ei], self.expert_act[ei], p_occ, p_act
            )
            if cfg.gp_coef > 0.0:
                penalty, pgrads = penalty_parameter_grads(
                    self.disc,
                    self.expert_occ[ei],
                    self.expert_act[ei],
                    cfg.gp_coef,
                    cfg.fd_step,
                )
                for k, g in pgrads.items():
                    grads[k] = grads[k] + g
            else:
                penalty = 0.0
            self.adam.step(grads)
            stats["disc_loss"] += loss
            stats["penalty"] += penalty
        k = max(cfg.updates_per_iter, 1)
        return {k2: v / k for k2, v in stats.items()}
