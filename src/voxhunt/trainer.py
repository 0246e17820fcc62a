"""The training loop: per-episode exploration dial, combined step rewards,
lockstep rollout collection, module updates, and an append-only trajectory
dataset on disk.

Every episode samples a dial value alpha in [0, 1] that stays fixed for the
whole episode and is part of the observation. The step reward is

    R = alpha * r_c(s') + (1 - alpha) * r_i(s, a) + r_e

so alpha=0 asks for faithful imitation and alpha=1 for pure novelty chasing,
with the goal reward always on. Every trajectory ever collected is appended
to the run's dataset with its alpha; triage happens after training from that
file alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .config import TrainConfig, resolve_path
from .curiosity import RNDPair
from .encode import ObservationEncoder, agent_info_vector, normalized_position, raycast_observation
from .imitation import AMPModule, demo_pairs, load_demos
from .mapio import load_map
from .policy import (
    PPOTrainer,
    RolloutBatch,
    act,
    compute_gae,
    make_critic_net,
    make_policy_net,
)
from .world import Env, Trajectory, VoxelMap

FORMAT_VERSION = 1


class TriageError(Exception):
    """A run directory cannot be read back for triage or export."""


class TrainingDiverged(Exception):
    """A module update produced non-finite numbers; checkpoints were saved."""


def sample_alpha(rng: np.random.Generator) -> float:
    """Per-episode exploration dial, uniform on [0, 1]."""
    return float(rng.random())


def combine_reward(r_c, r_i, r_e, alpha):
    """Exact affine mix: alpha * r_c + (1 - alpha) * r_i + r_e."""
    return alpha * r_c + (1.0 - alpha) * r_i + r_e


def coverage(position_lists) -> int:
    """Distinct voxel positions across trajectories."""
    seen: set[tuple[int, int, int]] = set()
    for positions in position_lists:
        for p in positions:
            seen.add(tuple(p))
    return len(seen)


@dataclass
class EpisodeRollout:
    alpha: float
    trajectory: Trajectory
    # state-aligned features, length T+1
    occ: np.ndarray
    rays: np.ndarray | None
    pos_feat: np.ndarray  # pe / normalized / idx rows
    pos_pe: np.ndarray  # always sinusoidal, for the curiosity nets
    info: np.ndarray
    # step-aligned, length T
    actions: np.ndarray
    logp: np.ndarray
    r_e: np.ndarray


class TrajectoryLog:
    """Append-only JSONL store of every collected trajectory."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.count = 0
        self._fh = open(self.path, "a")

    def append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.count += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        records = []
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError as e:
                        raise TriageError(
                            f"{path}: line {number}: torn or malformed record ({e.msg})"
                        ) from e
        return records


class Trainer:
    def __init__(self, cfg: TrainConfig, run_dir: str | Path):
        problems = cfg.validate()
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.run_dir = Path(run_dir)
        self.map: VoxelMap = load_map(resolve_path(cfg.map_path))
        profile = cfg.net_profile()
        self.encoder = ObservationEncoder(self.map, L=profile.L)
        self.profile = profile

        self._net_rng = lambda k: np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, k))
        )
        arch = cfg.policy_arch(self.map.dims)
        self.policy = make_policy_net(arch, self._net_rng(0))
        self.critic = make_critic_net(arch, self._net_rng(1))
        self.ppo = PPOTrainer(self.policy, self.critic, cfg.ppo)

        self.amp: AMPModule | None = None
        self.rnd: RNDPair | None = None
        if cfg.reward_mode == "full":
            demoset = load_demos([resolve_path(p) for p in cfg.demo_paths], self.map)
            expert_occ, expert_act = demo_pairs(demoset, self.encoder)
            self.demoset = demoset
            self.amp = AMPModule(
                cfg.disc_arch(), cfg.imitation, expert_occ, expert_act, self._net_rng(2)
            )
            self.rnd = RNDPair(
                cfg.rnd_arch(), cfg.curiosity, self._net_rng(3), self._net_rng(4)
            )
        else:
            self.demoset = None

        self.visited: set[tuple[int, int, int]] = set()
        self.total_env_steps = 0
        self.traj_count = 0

    # ------------------------------------------------------------- rollouts

    def _episode_rng(self, iteration: int, episode: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.cfg.seed, spawn_key=(1, iteration, episode))
        )

    def _state_features(self, env: Env):
        state, tick = env.state, env.tick
        cfg = self.cfg
        row: dict[str, np.ndarray] = {}
        # Occupancy is always recorded: the discriminator consumes it even when
        # the policy's perception branch is ablated away.
        row["occ"] = self.encoder.occupancy(state, tick).reshape(-1)
        if cfg.perception == "raycast":
            row["rays"] = raycast_observation(self.map, state, tick=tick)
        pe = self.encoder.position_code(state.pos)
        row["pos_pe"] = pe
        if cfg.position_mode == "sinusoidal":
            row["pos_feat"] = pe
        elif cfg.position_mode == "normalized":
            row["pos_feat"] = normalized_position(state.pos, self.map.dims)
        else:
            row["pos_feat"] = np.array(state.pos, dtype=np.int64)
        row["info"] = agent_info_vector(state)
        return row

    def _policy_inputs(self, rows: list[dict], alphas: np.ndarray) -> dict[str, np.ndarray]:
        cfg = self.cfg
        inputs: dict[str, np.ndarray] = {
            "info": np.stack([r["info"] for r in rows]),
            "alpha": alphas.reshape(-1, 1).astype(np.float64),
        }
        if cfg.position_mode == "learned":
            inputs["pos_idx"] = np.stack([r["pos_feat"] for r in rows]).astype(np.int64)
        else:
            inputs["pos"] = np.stack([r["pos_feat"] for r in rows])
        if cfg.perception == "occupancy":
            inputs["occ"] = np.stack([r["occ"] for r in rows])
        elif cfg.perception == "raycast":
            inputs["rays"] = np.stack([r["rays"] for r in rows])
        return inputs

    def collect_group(self, iteration: int, episode_ids: list[int]) -> list[EpisodeRollout]:
        """Roll a group of episodes in lockstep with a frozen policy."""
        cfg = self.cfg
        k = len(episode_ids)
        rngs = [self._episode_rng(iteration, e) for e in episode_ids]
        if cfg.alpha_mode == "fixed":
            alphas = np.full(k, cfg.alpha_value)
            for r in rngs:
                r.random()  # keep stream alignment with uniform mode
        else:
            alphas = np.array([sample_alpha(r) for r in rngs])
        envs = [Env(self.map, cfg.episode_length) for _ in range(k)]
        for env in envs:
            env.reset()

        T = cfg.episode_length
        state_rows: list[list[dict]] = [[] for _ in range(k)]
        logps = np.zeros((k, T))
        trajs = [Trajectory.start(env) for env in envs]

        for t in range(T):
            rows = [self._state_features(envs[i]) for i in range(k)]
            for i in range(k):
                state_rows[i].append(rows[i])
            inputs = self._policy_inputs(rows, alphas)
            acts, logp, _ = act(self.policy, inputs, rngs)
            for i in range(k):
                trajs[i].step(envs[i], int(acts[i]))
                logps[i, t] = logp[i]
        for i in range(k):
            state_rows[i].append(self._state_features(envs[i]))

        out = []
        for i in range(k):
            rows = state_rows[i]
            out.append(
                EpisodeRollout(
                    alpha=float(alphas[i]),
                    trajectory=trajs[i],
                    occ=np.stack([r["occ"] for r in rows]),
                    rays=np.stack([r["rays"] for r in rows]) if cfg.perception == "raycast" else None,
                    pos_feat=np.stack([r["pos_feat"] for r in rows]),
                    pos_pe=np.stack([r["pos_pe"] for r in rows]),
                    info=np.stack([r["info"] for r in rows]),
                    actions=np.array(trajs[i].actions, dtype=np.int64),
                    logp=logps[i],
                    r_e=np.array(trajs[i].r_e),
                )
            )
            self.visited.update(s.pos for s in trajs[i].states)
            self.total_env_steps += T
        return out

    # --------------------------------------------------------------- update

    def _reward_components(self, rollouts: list[EpisodeRollout]):
        """Per-step r_i and r_c for each episode, batched across the group."""
        cfg = self.cfg
        T = cfg.episode_length
        m = len(rollouts)
        if cfg.reward_mode == "extrinsic_only" or self.amp is None:
            zeros = np.zeros((m, T))
            return zeros, zeros, zeros

        occ_steps = np.concatenate([ep.occ[:-1] for ep in rollouts])
        act_steps = np.concatenate([ep.actions for ep in rollouts])
        r_i = self.amp.reward(occ_steps, act_steps).reshape(m, T)

        next_inputs = {
            "pos": np.concatenate([ep.pos_pe[1:] for ep in rollouts]),
            "info": np.concatenate([ep.info[1:] for ep in rollouts]),
        }
        rc_raw = self.rnd.raw_reward(next_inputs).reshape(m, T)
        self.rnd.observe_rewards(rc_raw.reshape(-1))
        rc_norm = self.rnd.normalized_reward(rc_raw.reshape(-1)).reshape(m, T)
        return r_i, rc_raw, rc_norm

    def _build_batch(self, rollouts, r_i, rc_norm):
        cfg = self.cfg
        m = len(rollouts)
        T = cfg.episode_length

        alphas = np.array([ep.alpha for ep in rollouts])
        R = combine_reward(rc_norm, r_i, np.stack([ep.r_e for ep in rollouts]), alphas[:, None])

        # Critic values for every state (bootstraps the truncated tail).
        all_rows_inputs = {
            "info": np.concatenate([ep.info for ep in rollouts]),
            "alpha": np.repeat(alphas, T + 1).reshape(-1, 1),
        }
        if cfg.position_mode == "learned":
            all_rows_inputs["pos_idx"] = np.concatenate(
                [ep.pos_feat for ep in rollouts]
            ).astype(np.int64)
        else:
            all_rows_inputs["pos"] = np.concatenate([ep.pos_feat for ep in rollouts])
        if cfg.perception == "occupancy":
            all_rows_inputs["occ"] = np.concatenate([ep.occ for ep in rollouts])
        elif cfg.perception == "raycast":
            all_rows_inputs["rays"] = np.concatenate([ep.rays for ep in rollouts])
        values, _ = self.critic.forward(all_rows_inputs)
        values = values[:, 0].reshape(m, T + 1)

        advs = np.zeros((m, T))
        rets = np.zeros((m, T))
        for i in range(m):
            advs[i], rets[i] = compute_gae(
                R[i], values[i], cfg.ppo.gamma, cfg.ppo.gae_lambda
            )

        step_mask = np.ones((m, T + 1), dtype=bool)
        step_mask[:, -1] = False
        step_inputs = {k: v[step_mask.reshape(-1)] for k, v in all_rows_inputs.items()}
        batch = RolloutBatch(
            inputs=step_inputs,
            actions=np.concatenate([ep.actions for ep in rollouts]),
            logp_old=np.concatenate([ep.logp for ep in rollouts]),
            advantages=advs.reshape(-1),
            returns=rets.reshape(-1),
        )
        return batch, R

    def train_iteration(self, iteration: int, log: TrajectoryLog | None) -> dict:
        cfg = self.cfg
        m = cfg.episodes_per_iter
        rollouts: list[EpisodeRollout] = []
        episode_ids = list(range(m))
        for start in range(0, m, cfg.workers):
            group = episode_ids[start : start + cfg.workers]
            rollouts.extend(self.collect_group(iteration, group))

        r_i, rc_raw, rc_norm = self._reward_components(rollouts)
        batch, R = self._build_batch(rollouts, r_i, rc_norm)

        update_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2, iteration))
        )
        stats: dict[str, float] = {}
        if self.amp is not None:
            occ_steps = np.concatenate([ep.occ[:-1] for ep in rollouts])
            act_steps = np.concatenate([ep.actions for ep in rollouts])
            self.amp.observe_policy_pairs(occ_steps, act_steps)
            stats.update(self.amp.update(update_rng))
            rnd_inputs = {
                "pos": np.concatenate([ep.pos_pe for ep in rollouts]),
                "info": np.concatenate([ep.info for ep in rollouts]),
            }
            stats["rnd_loss"] = self.rnd.update(rnd_inputs, update_rng)
        stats.update(self.ppo.update(batch, update_rng))

        if log is not None:
            for i, ep in enumerate(rollouts):
                tr = ep.trajectory
                fg = tr.first_goal_state_index
                log.append(
                    {
                        "id": self.traj_count,
                        "iter": iteration,
                        "ep": i,
                        "alpha": ep.alpha,
                        "reached_goal": tr.reached_goal,
                        "first_goal": fg,
                        "positions": [list(p) for p in tr.positions],
                        "actions": [int(a) for a in ep.actions],
                        "re": [float(v) for v in ep.r_e],
                        "ri": [float(v) for v in r_i[i]],
                        "rc_raw": [float(v) for v in rc_raw[i]],
                        "rc_norm": [float(v) for v in rc_norm[i]],
                        "R": [float(v) for v in R[i]],
                        "bug_regions": sorted(tr.bug_regions_entered),
                        "bug_kinds": sorted(tr.bug_kinds_entered),
                    }
                )
                self.traj_count += 1
            log.flush()

        goal_rate = float(np.mean([ep.trajectory.reached_goal for ep in rollouts]))
        metrics = {
            "iteration": iteration,
            "env_steps": self.total_env_steps,
            "mean_R": float(R.mean()),
            "mean_ri": float(r_i.mean()),
            "mean_rc_raw": float(rc_raw.mean()),
            "mean_rc_norm": float(rc_norm.mean()),
            "goal_rate": goal_rate,
            "coverage": len(self.visited),
        }
        metrics.update({k: float(v) for k, v in stats.items()})
        return metrics

    # ----------------------------------------------------------------- eval

    def evaluate(self, round_id: int, episodes: int | None = None) -> float:
        """Greedy goal-reach rate over fresh episodes."""
        cfg = self.cfg
        n = episodes or cfg.eval_episodes
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3, round_id))
        )
        reached = 0
        for _ in range(n):
            env = Env(self.map, cfg.episode_length)
            env.reset()
            alpha = sample_alpha(rng)
            hit = env.physics.state_in_goal(env.state.pos)
            for t in range(cfg.episode_length):
                row = self._state_features(env)
                inputs = self._policy_inputs([row], np.array([alpha]))
                acts, _, _ = act(self.policy, inputs, greedy=True)
                res = env.step(acts[0])
                hit = hit or bool(res.goal_ids)
                if hit:
                    break
            reached += int(hit)
        return reached / n

    # ------------------------------------------------------------------ run

    def save_checkpoints(self, ckpt_dir: Path) -> None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        self.policy.save(ckpt_dir / "policy.vxnp")
        self.critic.save(ckpt_dir / "critic.vxnp")
        if self.amp is not None:
            self.amp.disc.save(ckpt_dir / "discriminator.vxnp")
            self.rnd.target.save(ckpt_dir / "rnd_target.vxnp")
            self.rnd.predictor.save(ckpt_dir / "rnd_predictor.vxnp")

    def run(self) -> dict:
        cfg = self.cfg
        run_dir = self.run_dir
        if run_dir.exists() and any(run_dir.iterdir()):
            raise FileExistsError(f"run directory {run_dir} already exists and is not empty")
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(cfg.to_json() + "\n")
        manifest = {
            "format_version": FORMAT_VERSION,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "workers": cfg.workers,
            "profile": cfg.profile,
            "map": self.map.name,
        }
        (run_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
        started = time.time()

        log = TrajectoryLog(run_dir / "dataset.jsonl")
        metrics_fh = open(run_dir / "metrics.jsonl", "a")
        eval_rate = None
        stopped_early = False
        try:
            for it in range(cfg.iterations):
                try:
                    metrics = self.train_iteration(it, log)
                except nn.NonFiniteError as e:
                    self.save_checkpoints(run_dir / "checkpoints")
                    diag = {"iteration": it, "error": str(e)}
                    (run_dir / "diagnostics.json").write_text(json.dumps(diag) + "\n")
                    raise TrainingDiverged(f"iteration {it}: {e}") from e
                if cfg.eval_every and (it + 1) % cfg.eval_every == 0:
                    eval_rate = self.evaluate(it)
                    metrics["eval_goal_rate"] = eval_rate
                metrics_fh.write(json.dumps(metrics, sort_keys=True) + "\n")
                metrics_fh.flush()
                if (
                    cfg.stop_at_goal_rate > 0.0
                    and eval_rate is not None
                    and eval_rate >= cfg.stop_at_goal_rate
                ):
                    stopped_early = True
                    break
        finally:
            log.close()
            metrics_fh.close()
        self.save_checkpoints(run_dir / "checkpoints")
        # Wall-clock info lives outside the manifest so reruns stay bit-identical.
        (run_dir / "timing.json").write_text(
            json.dumps({"seconds": time.time() - started}) + "\n"
        )
        return {
            "run_dir": str(run_dir),
            "trajectories": log.count,
            "coverage": len(self.visited),
            "env_steps": self.total_env_steps,
            "eval_goal_rate": eval_rate,
            "stopped_early": stopped_early,
        }


def run_training(cfg: TrainConfig, run_dir: str | Path) -> dict:
    return Trainer(cfg, run_dir).run()
