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
from .encode import ObservationEncoder, PEConfig, raycast_observation
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
from .world import GOAL_REWARD, AgentState, Physics, Replay, VoxelMap, first_seen

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


def _rows(a: np.ndarray) -> np.ndarray:
    """Per-episode arrays (m, n, ...) as one batch of m*n rows."""
    return a.reshape(-1, *a.shape[2:])


@dataclass
class Rollout:
    """One iteration's m episodes of T steps, rolled in lockstep."""

    alphas: np.ndarray  # (m,)
    replay: Replay  # the episodes' states, actions and bug masks, time-major
    logp: np.ndarray  # (m, T)
    # (m, T+1, ...) per state, encoded from the replay's arrays: the network
    # inputs by name, and pos_pe for RND; "occ" is one ``nn.Rows`` over the
    # distinct cubes (K, L^3), numbered in first-seen order over the states
    # tick by tick, and every occupancy view is sliced from it
    features: dict

    @property
    def actions(self) -> np.ndarray:
        return self.replay.actions.T.astype(np.int64)

    @property
    def r_e(self) -> np.ndarray:
        """Goal reward of every step, (m, T)."""
        return np.where(self.replay.goal[1:].T, GOAL_REWARD, 0.0)

    @property
    def reached_goal(self) -> np.ndarray:
        return self.replay.goal.any(axis=0)

    def occ_steps(self) -> nn.Rows:
        """Occupancy of the state each action was taken in, one row per step."""
        return _rows(self.features["occ"][:, :-1])

    def novelty_inputs(self, states=np.s_[:]) -> dict[str, np.ndarray]:
        """RND inputs of the given states (all, or e.g. the next states), one row each."""
        f = self.features
        return {"pos": _rows(f["pos_pe"][:, states]), "info": _rows(f["info"][:, states])}


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
    def read(path: str | Path, fields: tuple[str, ...] | None = None) -> list[dict]:
        """Every record in the file, in order. With ``fields``, each record
        keeps only those of its keys (a missing key stays missing), so the
        per-step reward lists of a line are freed as soon as it is decoded.

        Each line is decoded and checked whole either way: a torn line, or
        one that is not a JSON object, is a TriageError naming path and line.
        """
        records = []
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise TriageError(
                        f"{path}: line {number}: torn or malformed record ({e.msg})"
                    ) from e
                if not isinstance(record, dict):
                    raise TriageError(f"{path}: line {number}: record is not a JSON object")
                if fields is not None:
                    record = {k: record[k] for k in fields if k in record}
                records.append(record)
        return records


class Trainer:
    def __init__(self, cfg: TrainConfig, run_dir: str | Path):
        problems = cfg.validate()
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.run_dir = Path(run_dir)
        self.map: VoxelMap = load_map(resolve_path(cfg.map_path))
        self.physics = Physics(self.map)  # one engine for every rollout
        self.profile = profile = cfg.net_profile()
        self.encoder = ObservationEncoder(self.map, L=profile.L, pe=PEConfig(d=profile.pe_d))

        self._net_rng = lambda k: np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, k))
        )
        branches = dict(
            position_mode=cfg.position_mode, perception=cfg.perception, dims=self.map.dims
        )
        self.policy = make_policy_net(profile, self._net_rng(0), **branches)
        self.critic = make_critic_net(profile, self._net_rng(1), **branches)
        self.ppo = PPOTrainer(self.policy, self.critic, cfg.ppo)

        self.amp: AMPModule | None = None
        self.rnd: RNDPair | None = None
        if cfg.reward_mode == "full":
            expert_occ, expert_act = demo_pairs(
                load_demos([resolve_path(p) for p in cfg.demo_paths], self.map), self.encoder
            )
            self.amp = AMPModule(
                profile, cfg.imitation, expert_occ, expert_act, self._net_rng(2)
            )
            self.rnd = RNDPair(profile, cfg.curiosity, self._net_rng(3), self._net_rng(4))

        self.visited: set[int] = set()  # cells of the trainer's physics
        self.total_env_steps = 0
        self.traj_count = 0

    # ------------------------------------------------------------- rollouts

    def _episode_rng(self, iteration: int, episode: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.cfg.seed, spawn_key=(1, iteration, episode))
        )

    def _features(self, rec: Replay, t: int) -> dict[str, np.ndarray]:
        """The network inputs of every episode's state s_t, plus pos_pe for
        the novelty nets. Occupancy is always built: the discriminator
        consumes it even when the policy's perception branch is ablated away."""
        pos, prev, *flags = rec.rows(t)
        row = self.encoder.features(pos, prev, *flags, t, self.cfg.position_mode)
        if self.cfg.perception == "raycast":
            row["rays"] = np.stack(
                [raycast_observation(self.map, AgentState(tuple(p)), tick=t) for p in pos.tolist()]
            )
        return row

    def _net_inputs(self, features: dict, alpha: np.ndarray) -> dict:
        """Policy/critic inputs: the features the nets read and the dial, each
        with ``alpha``'s batch shape flattened into rows."""
        x = {**features, "alpha": alpha[..., None]}
        n, lead = alpha.size, alpha.ndim
        return {k: x[k].reshape(n, *x[k].shape[lead:]) for k in self.policy.input_keys}

    def collect_group(
        self, alphas: np.ndarray, rngs: list[np.random.Generator] | None = None
    ) -> Rollout:
        """Roll one episode per dial value in lockstep with a frozen policy,
        stepping all of them in one simulator call per tick.

        Each episode samples its actions from its own generator; without
        generators the policy acts greedily. Every state's occupancy cube gets
        an id, numbered in first-seen order over the distinct cubes.
        """
        m, T = len(alphas), self.cfg.episode_length
        physics = self.physics
        rec = Replay.empty(physics, np.full(m, T))
        agents = physics.spawn(m)
        rec.record(0, agents)

        states: list[dict[str, np.ndarray]] = []
        logp = np.zeros((m, T))
        for t in range(T + 1):
            states.append(self._features(rec, t))
            if t == T:
                break
            inputs = self._net_inputs(states[-1], alphas)
            acts, logp[:, t], _ = act(self.policy, inputs, rngs, greedy=rngs is None)
            step = physics.step(agents, acts, t)
            agents = step.agents
            rec.actions[t], rec.bugs_in[t], rec.bugs_used[t] = acts, step.bugs_in, step.bugs_used
            rec.record(t + 1, agents)

        # The rollout keeps the occupancy once: as ids into the distinct cubes.
        occ = np.stack([s.pop("occ") for s in states]).reshape((T + 1) * m, -1)
        first, ids = first_seen(occ.view(np.dtype((np.void, occ.shape[1]))).reshape(-1))
        features = {k: np.stack([s[k] for s in states], axis=1) for k in states[0]}
        features["occ"] = nn.Rows(occ[first], ids.reshape(T + 1, m).T)
        return Rollout(alphas, rec, logp, features)

    # --------------------------------------------------------------- update

    def _reward_components(self, ro: Rollout):
        """Per-step r_i and r_c of every episode, each (m, T)."""
        m, T = ro.logp.shape
        if self.cfg.reward_mode == "extrinsic_only" or self.amp is None:
            zeros = np.zeros((m, T))
            return zeros, zeros, zeros
        r_i = self.amp.reward(ro.occ_steps(), ro.actions.reshape(-1)).reshape(m, T)
        rc_raw = self.rnd.raw_reward(ro.novelty_inputs(np.s_[1:])).reshape(m, T)
        self.rnd.observe_rewards(rc_raw.reshape(-1))
        rc_norm = self.rnd.normalized_reward(rc_raw.reshape(-1)).reshape(m, T)
        return r_i, rc_raw, rc_norm

    def _build_batch(self, ro: Rollout, r_i, rc_norm):
        cfg = self.cfg
        m, T = ro.logp.shape
        R = combine_reward(rc_norm, r_i, ro.r_e, ro.alphas[:, None])

        # Critic values for every state (bootstraps the truncated tail).
        alpha = np.repeat(ro.alphas[:, None], T + 1, axis=1)
        values, _ = self.critic.forward(self._net_inputs(ro.features, alpha))
        values = values[:, 0].reshape(m, T + 1)

        advs = np.zeros((m, T))
        rets = np.zeros((m, T))
        for i in range(m):
            advs[i], rets[i] = compute_gae(
                R[i], values[i], cfg.ppo.gamma, cfg.ppo.gae_lambda
            )

        steps = {k: v[:, :-1] for k, v in ro.features.items()}
        batch = RolloutBatch(
            inputs=self._net_inputs(steps, alpha[:, :-1]),
            actions=ro.actions.reshape(-1),
            logp_old=ro.logp.reshape(-1),
            advantages=advs.reshape(-1),
            returns=rets.reshape(-1),
        )
        return batch, R

    def train_iteration(self, iteration: int, log: TrajectoryLog | None) -> dict:
        cfg = self.cfg
        rngs = [self._episode_rng(iteration, e) for e in range(cfg.episodes_per_iter)]
        alphas = np.array([sample_alpha(r) for r in rngs])
        if cfg.alpha_mode == "fixed":  # drawn anyway: both modes consume the same streams
            alphas = np.full_like(alphas, cfg.alpha_value)
        ro = self.collect_group(alphas, rngs)
        self.visited.update(ro.replay.cell.ravel().tolist())
        self.total_env_steps += ro.logp.size
        r_i, rc_raw, rc_norm = self._reward_components(ro)
        batch, R = self._build_batch(ro, r_i, rc_norm)

        update_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2, iteration))
        )
        stats: dict[str, float] = {}
        if self.amp is not None:
            self.amp.observe_policy_pairs(np.asarray(ro.occ_steps()), batch.actions)
            stats.update(self.amp.update(update_rng))
            stats["rnd_loss"] = self.rnd.update(ro.novelty_inputs(), update_rng)
        stats.update(self.ppo.update(batch, update_rng))

        if log is not None:
            rec, physics = ro.replay, self.physics
            positions = physics.positions(rec.cell.T).tolist()
            first_goal, r_e = rec.first_goal().tolist(), ro.r_e.tolist()
            for i, (alpha, actions, entered) in enumerate(
                zip(ro.alphas, rec.actions.T.tolist(), rec.entered().tolist())
            ):
                regions, kinds = physics.bug_hits(entered, 0)
                log.append(
                    {
                        "id": self.traj_count,
                        "iter": iteration,
                        "ep": i,
                        "alpha": float(alpha),
                        "reached_goal": first_goal[i] >= 0,
                        "first_goal": first_goal[i] if first_goal[i] >= 0 else None,
                        "positions": positions[i],
                        "actions": actions,
                        "re": r_e[i],
                        "ri": [float(v) for v in r_i[i]],
                        "rc_raw": [float(v) for v in rc_raw[i]],
                        "rc_norm": [float(v) for v in rc_norm[i]],
                        "R": [float(v) for v in R[i]],
                        "bug_regions": list(regions),
                        "bug_kinds": sorted(set(kinds)),
                    }
                )
                self.traj_count += 1
            log.flush()

        goal_rate = float(np.mean(ro.reached_goal))
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

    def evaluate(self, round_id: int) -> float:
        """Share of greedy lockstep episodes that ever enter a goal."""
        cfg = self.cfg
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3, round_id))
        )
        alphas = np.array([sample_alpha(rng) for _ in range(cfg.eval_episodes)])
        return float(np.mean(self.collect_group(alphas).reached_goal))

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
        nn.write_atomic(run_dir / "config.json", cfg.to_json() + "\n")
        manifest = {
            "format_version": FORMAT_VERSION,
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "profile": cfg.profile,
            "map": self.map.name,
        }
        nn.write_atomic(
            run_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n"
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
                    nn.write_atomic(run_dir / "diagnostics.json", json.dumps(diag) + "\n")
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
        nn.write_atomic(
            run_dir / "timing.json", json.dumps({"seconds": time.time() - started}) + "\n"
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
