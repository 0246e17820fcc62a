"""Build the triage_area1 input from a workload seed.

    python3 benchmark/gen_triage.py --seed 1 --out benchmark/.work/triage-input

writes, under --out:

  run/config.json         the resolved configs/quickstart.json
  run/checkpoints/        rnd_target.vxnp and rnd_predictor.vxnp, written by
                          the program's own RNDPair
  run/dataset.jsonl       600 trajectories (KINDS), each produced by replaying a
                          generated action list through world.play_script
  states.json             per-state flags (grounded, climbing, double jump) of
                          every record and demo, for the benchmark's checks
  input.json              the seed, the make-up and measured properties

The same seed gives the same bytes. Exactly half of the records reach the
goal; the mix of action lists is fixed (see KINDS), so the share that enters
a bug region and the mean steps to the first goal move only a little with
the seed, and input.json records both.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from voxhunt.config import TrainConfig, resolve_path  # noqa: E402
from voxhunt.curiosity import RNDPair  # noqa: E402
from voxhunt.encode import ObservationEncoder, agent_info_vector  # noqa: E402
from voxhunt.imitation import load_demos  # noqa: E402
from voxhunt.mapio import load_map  # noqa: E402
from voxhunt.trainer import TrajectoryLog, combine_reward  # noqa: E402
from voxhunt.world import Action, PhysicsError, play_script  # noqa: E402

EPISODES_PER_ITER = 10  # ids map to (iter, ep) as in a training run
# kind -> (records wanted, whether they must reach the goal)
KINDS = {
    "demo_variant": (240, True),  # a demo route with random edits, random tail
    "shortcut": (60, True),  # east through the missing-collision wall
    "wander": (200, False),  # uniformly random actions
    "glitch": (100, False),  # into the infinite-jump volume, then jump about
}
RND_TRAIN_STEPS = 200
RND_TRAIN_LR = 1e-3


def flag_code(state) -> int:
    return int(state.grounded) | int(state.climbing) << 1 | int(state.double_jump_available) << 2


def candidate(kind: str, rng: np.random.Generator, demos, length: int) -> list[int]:
    if kind == "demo_variant":
        acts = [int(a) for a in demos[rng.integers(len(demos))].actions]
        p = rng.uniform(0.0, 0.2)
        acts = [int(rng.integers(len(Action))) if rng.random() < p else a for a in acts]
    elif kind == "shortcut":
        acts = [int(Action.MOVE_E)] * int(rng.integers(9, 12))
    elif kind == "glitch":
        acts = [int(Action.MOVE_SE)] * 5
        acts += [int(Action.JUMP) if rng.random() < 0.6 else int(rng.integers(len(Action))) for _ in range(20)]
    else:
        acts = []
    tail = rng.integers(len(Action), size=length - len(acts))
    return acts + [int(a) for a in tail]


def generate(seed: int, out: Path) -> dict:
    cfg = TrainConfig.from_json_file(ROOT / "configs" / "quickstart.json")
    length = cfg.episode_length
    vmap = load_map(resolve_path(cfg.map_path))
    demos = load_demos([resolve_path(p) for p in cfg.demo_paths], vmap).demos
    encoder = ObservationEncoder(vmap, L=cfg.net_profile().L)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    trajs: list[tuple[str, list[int], object]] = []
    tried = 0
    for kind, (want, goal) in KINDS.items():
        got = 0
        while got < want:
            tried += 1
            acts = candidate(kind, rng, demos, length)
            try:
                traj = play_script(vmap, acts)
            except PhysicsError:
                continue
            if traj.reached_goal == goal:
                trajs.append((kind, acts, traj))
                got += 1
    order = rng.permutation(len(trajs))
    trajs = [trajs[i] for i in order]
    alphas = rng.random(len(trajs))
    ri = rng.random((len(trajs), length))

    def features(states):
        pos = np.stack([encoder.position_code(s.pos) for s in states])
        info = np.stack([agent_info_vector(s) for s in states])
        return pos, info

    # Novelty nets: the predictor learns the demo corridor, so routes near it
    # score low and detours score high, as after training.
    target_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 3)))
    pred_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 4)))
    rnd = RNDPair(cfg.rnd_arch(), replace(cfg.curiosity, lr=RND_TRAIN_LR), target_rng, pred_rng)
    familiar = [s for d in demos for s in d.trajectory.states]
    familiar += [s for kind, _, t in trajs if kind == "demo_variant" for s in t.states[:40]]
    fpos, finfo = features(familiar)
    for _ in range(RND_TRAIN_STEPS):
        idx = rng.integers(0, len(fpos), size=cfg.curiosity.batch_size)
        rnd.train_step({"pos": fpos[idx], "info": finfo[idx]})

    next_pos, next_info = features([s for _, _, t in trajs for s in t.states[1:]])
    rc_raw = rnd.raw_reward({"pos": next_pos, "info": next_info}).reshape(len(trajs), length)
    rc_norm = rc_raw / (rc_raw.std() + 1e-8)

    if out.exists():
        shutil.rmtree(out)
    run = out / "run"
    (run / "checkpoints").mkdir(parents=True)
    (run / "config.json").write_text(cfg.to_json() + "\n")
    rnd.target.save(run / "checkpoints" / "rnd_target.vxnp")
    rnd.predictor.save(run / "checkpoints" / "rnd_predictor.vxnp")

    log = TrajectoryLog(run / "dataset.jsonl")
    flags = []
    for i, (kind, acts, t) in enumerate(trajs):
        r_e = np.array(t.r_e)
        R = combine_reward(rc_norm[i], ri[i], r_e, alphas[i])
        log.append(
            {
                "id": i,
                "iter": i // EPISODES_PER_ITER,
                "ep": i % EPISODES_PER_ITER,
                "alpha": float(alphas[i]),
                "reached_goal": t.reached_goal,
                "first_goal": t.first_goal_state_index,
                "positions": [list(p) for p in t.positions],
                "actions": acts,
                "re": [float(v) for v in r_e],
                "ri": [float(v) for v in ri[i]],
                "rc_raw": [float(v) for v in rc_raw[i]],
                "rc_norm": [float(v) for v in rc_norm[i]],
                "R": [float(v) for v in R],
                "bug_regions": sorted(t.bug_regions_entered),
                "bug_kinds": sorted(t.bug_kinds_entered),
            }
        )
        flags.append([flag_code(s) for s in t.states])
    log.close()
    demo_states = [
        {"positions": [list(p) for p in d.trajectory.positions], "flags": [flag_code(s) for s in d.trajectory.states]}
        for d in demos
    ]
    (out / "states.json").write_text(json.dumps({"flags": flags, "demos": demo_states}))

    goal_steps = [t.first_goal_state_index for _, _, t in trajs if t.reached_goal]
    props = {
        "seed": seed,
        "records": len(trajs),
        "kinds": {k: n for k, (n, _) in KINDS.items()},
        "candidates_tried": tried,
        "goal_share": len(goal_steps) / len(trajs),
        "bug_share": sum(bool(t.bug_regions_entered) for _, _, t in trajs) / len(trajs),
        "high_dial_goal_share": sum(
            a >= 0.5 and t.reached_goal for a, (_, _, t) in zip(alphas, trajs)
        ) / len(trajs),
        "mean_steps_to_first_goal": float(np.mean(goal_steps)),
        "env_steps": len(trajs) * length,
        "dataset_bytes": (run / "dataset.jsonl").stat().st_size,
    }
    (out / "input.json").write_text(json.dumps(props, indent=1) + "\n")
    return props


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(generate(args.seed, args.out), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
