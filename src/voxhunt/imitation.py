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

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import nn
from .encode import ObservationEncoder
from .mapio import load_demo_script
from .policy import N_ACTIONS, occupancy_branch
from .world import Action, Physics, PhysicsError, Replay, Trajectory, VoxelMap, WorldError

if TYPE_CHECKING:
    from .config import Profile


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


class Discriminator(nn.Net):
    """Occupancy conv branch + action one-hot branch -> trunk -> linear D(s,a).

    ``graph`` reads integer occupancy codes through the fused stem;
    ``core_graph`` reads the embedded cube, the surface the penalty
    differentiates.
    """

    def __init__(self, profile: Profile, rng: np.random.Generator):
        super().__init__()
        self.profile = p = profile
        stem, width = occupancy_branch(self, p, rng)
        self.layers["act_fc"] = nn.Dense(N_ACTIONS, p.act_units, "relu", rng)
        trunk, width = self.dense_chain("trunk_fc", width + p.act_units, p.trunk, rng)
        self.layers["head"] = nn.Dense(width, 1, None, rng)
        act = ("act", ["act_fc"])
        self.graph = [nn.Concat([("occ", stem), act]), *trunk, "head"]
        self.core_graph = [nn.Concat([("occ_emb", ["conv0", *stem[1:]]), act]), *trunk, "head"]

    def embed_occupancy(self, occ_codes):
        """Map integer codes (N, L^3), or their ``nn.Rows``, onto the continuous
        embedded cube, one per row."""
        L = self.profile.L
        return self.layers["occ_embed"].forward(np.asarray(occ_codes).reshape(-1, L, L, L))

    def core_forward(self, occ_emb: np.ndarray, act_onehot: np.ndarray):
        """Forward from the embedded surfaces; the entry point the penalty differentiates."""
        d, caches = self.run(self.core_graph, {"occ_emb": occ_emb, "act": act_onehot})
        return d[:, 0], caches

    def core_backward(self, caches, dout: np.ndarray):
        """Returns (param grads, d occ_emb, d act_onehot) for per-sample dout."""
        grads, (d_emb, d_act) = self.run_backward(self.core_graph, caches, dout[:, None])
        return grads, d_emb, d_act

    def forward(self, occ_codes, act_onehot: np.ndarray):
        """Forward from integer codes (N, L^3) or their ``nn.Rows``, with the
        embedding folded into conv0."""
        d, caches = self.run(self.graph, {"occ": occ_codes, "act": act_onehot})
        return d[:, 0], caches

    def backward(self, caches, dout: np.ndarray) -> dict[str, np.ndarray]:
        return super().backward(caches, dout[:, None])

    def score(self, occ_codes, act_onehot: np.ndarray) -> np.ndarray:
        return self.infer({"occ": occ_codes, "act": act_onehot})[:, 0]


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


def penalty_parameter_grads(
    disc: Discriminator,
    expert_occ: np.ndarray,
    expert_act: np.ndarray,
    coef: float,
    fd_step: float = 1e-3,
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
    # v = dD/d(surface) per sample, at the embedded occupancy and action one-hot
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
        """Append rows in order, overwriting the oldest once full."""
        n, cap = len(act), self.capacity
        k = min(n, cap)  # a batch larger than the ring leaves only its last k rows
        occ, act = occ[n - k :], act[n - k :]
        start = (self._ptr + n - k) % cap
        head = min(k, cap - start)  # rows written before the ring wraps
        self.occ[start : start + head], self.act[start : start + head] = occ[:head], act[:head]
        self.occ[: k - head], self.act[: k - head] = occ[head:], act[head:]
        self._ptr = (self._ptr + n) % cap
        self.size = min(self.size + n, cap)

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, self.size, size=n)
        return self.occ[idx], self.act[idx]


@dataclass
class Demo:
    actions: list[Action]
    trajectory: Trajectory


@dataclass
class DemoSet:
    demos: list[Demo]
    replay: Replay  # every demo's script, one column each


def check_demos(scripts: list[tuple[str, str, int, list[Action]]], vmap: VoxelMap) -> DemoSet:
    """Replay (source, map name, goal id, actions) scripts on ``vmap`` in one
    lockstep batch. Each must name ``vmap`` and one of its goals, and reach a
    goal; the error names the source of the first that does not."""
    if not scripts:
        raise DemoError("no demo files given")
    goal_ids = {g.id for g in vmap.goals}
    for source, map_name, goal_id, _ in scripts:
        if map_name != vmap.name:
            raise DemoReferenceError(f"{source}: demo is for map {map_name!r}, not {vmap.name!r}")
        if goal_id not in goal_ids:
            raise DemoReferenceError(
                f"{source}: goal {goal_id} not in map {vmap.name} (has {sorted(goal_ids)})"
            )
    try:
        replay = Physics(vmap).replay([actions for *_, actions in scripts])
    except PhysicsError as e:
        raise DemoReplayError(f"{scripts[e.agent][0]}: {e}") from e
    demos = []
    for i, (source, *_, actions) in enumerate(scripts):
        traj = replay.trajectory(i)
        if not traj.reached_goal:
            raise DemoReplayError(f"{source}: script never reaches a goal on map {vmap.name}")
        demos.append(Demo(list(actions), traj))
    return DemoSet(demos, replay)


def load_demos(paths: list[str | Path], vmap: VoxelMap) -> DemoSet:
    """Load demo scripts for ``vmap`` and check them all in one lockstep replay."""
    return check_demos([(str(p), *load_demo_script(p)) for p in paths], vmap)


def demo_pairs(
    demoset: DemoSet, encoder: ObservationEncoder
) -> tuple[np.ndarray, np.ndarray]:
    """(occupancy, action) training pairs of every demo step, demo by demo,
    encoded from the demos' replay."""
    replay = demoset.replay
    demo, t = np.nonzero(np.arange(len(replay.actions)) < replay.lengths[:, None])
    pos = replay.physics.positions(replay.cell[t, demo])
    return encoder.cubes(pos, t), replay.actions[t, demo].astype(np.int64)


class AMPModule:
    """Owns the discriminator, its buffer and expert set; produces r_i.

    The expert occupancy is kept as ``nn.Rows`` over its distinct cubes, so
    the discriminator's occupancy branch runs once per distinct expert cube.
    """

    def __init__(
        self,
        profile: Profile,
        cfg: ImitationConfig,
        expert_occ: np.ndarray,
        expert_act: np.ndarray,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.disc = Discriminator(profile, rng)
        self.adam = nn.Adam(self.disc.params(), lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, profile.L**3)
        table, ids = np.unique(expert_occ, axis=0, return_inverse=True)
        self.expert_occ = nn.Rows(table, ids.reshape(-1))
        self.expert_act = expert_act

    def reward(self, occ_codes, actions: np.ndarray) -> np.ndarray:
        """r_i per (occupancy, action) row; ``occ_codes`` may be ``nn.Rows``."""
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
                    self.disc, self.expert_occ[ei], self.expert_act[ei], cfg.gp_coef
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
